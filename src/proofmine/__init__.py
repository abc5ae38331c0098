"""proofmine: mine recurring proof patterns from prover-script libraries."""

from .clustering import (ClusterAssignment, GranularityConfig, TooFewPoints, choose_n,
                         em_gaussian, farthest_first, kmeans)
from .corpus import Corpus, CorruptFile, VersionMismatch, database_with_query, ingest, load, save
from .digest import (ConsensusCluster, DigestConfig, Homogeneity, TooFewLemmas, UnknownLemma,
                     classify_homogeneity, run_digest, select_reliable)
from .features import (EmptyCorpus, EncodingTable, FeatureDatabase, NoProofBody,
                       build_encoding_table, encode_step, extract_features, min_max_scale)
from .script import (ArgumentKind, ArgumentToken, DuplicateLemmaName, EmptyStep, LemmaRecord,
                     MalformedStatement, ParseError, ProofStep, TacticApplication,
                     UnterminatedProof, parse_library, parse_partial,
                     parse_trace, split_steps)
from .terms import EmptyStatement, TermTree, UnbalancedDelimiters, format_term, parse_term_tree

__version__ = "0.1.0"
