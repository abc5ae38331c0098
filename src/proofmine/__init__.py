"""proofmine: mine recurring proof patterns from prover-script libraries."""

from .corpus import Corpus, ingest

__version__ = "0.1.0"
