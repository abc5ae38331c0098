"""The scripts under tools/, run in a subprocess as a user runs them."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_hashes_prints_one_sha256_per_output():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "output_hashes.py"), "--seeds", "12"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert {line.split(" ", 1)[0] for line in lines} == {"dup-kmeans", "long-proofs-ff"}
    for line in lines:
        assert re.fullmatch(r".+: [0-9a-f]{64}", line), line
