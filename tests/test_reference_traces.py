"""The reference runs, config-based and benchmark-input, keep their
``trace.json`` bytes.

Runs ``tools/reference_traces.py --check`` in a fresh process, so its BLAS
thread setting takes effect before numpy loads; any refactor that moves a
digest fails here.  The same run saves every trace with ``--save``, and the
saved files must carry the listed digests.  Takes about fifteen seconds.
"""

import hashlib
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED = os.path.join(REPO, "tools", "reference_traces.txt")


def test_reference_traces_keep_their_bytes(tmp_path):
    saved = tmp_path / "traces"
    result = subprocess.run(
        [sys.executable, "tools/reference_traces.py", "--check", LISTED, "--save", str(saved)],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "all 37 match"
    with open(LISTED, encoding="utf-8") as fh:
        listed = dict(line.split() for line in fh if line.strip())
    assert sorted(path.name for path in saved.iterdir()) == sorted(f"{n}.json" for n in listed)
    for name, digest in listed.items():
        assert hashlib.sha256((saved / f"{name}.json").read_bytes()).hexdigest() == digest, name
