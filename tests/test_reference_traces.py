"""The config-based reference runs keep their ``trace.json`` bytes.

Runs ``tools/reference_traces.py --check`` in a fresh process, so its BLAS
thread setting takes effect before numpy loads; any refactor that moves a
digest fails here.  Takes about ten seconds.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reference_traces_keep_their_bytes():
    result = subprocess.run(
        [sys.executable, "tools/reference_traces.py", "--check", "tools/reference_traces.txt"],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "all 29 match"
