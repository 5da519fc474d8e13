"""The benchmark's own self-test: its checker rejects wrong answers and
every workload runs end to end at a tiny size, traced and untraced. A
library change that breaks a workload, its checker or a traced layer's
entry point fails here."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
