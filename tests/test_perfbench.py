"""The benchmark's contract with the package, checked from outside it.

``perfbench/`` runs the pipeline stage by stage and wraps package functions
by name to time them.  Both run in subprocesses here, because the tracer
patches the modules it wraps.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# stage.py's way of handing the imported package to the tracer
TRACE = """
import sys
sys.path[:0] = ["src", "perfbench"]
import occfield
import spans
rec = spans.Recorder()
spans.install(rec, {
    name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
    if name == "occfield" or name.startswith("occfield.")
})
print(rec.absent)
"""


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_benchmark_selftest_passes():
    done = _python("perfbench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_finds_every_entry_point():
    done = _python("-c", TRACE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
