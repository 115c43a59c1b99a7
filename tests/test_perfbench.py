"""The benchmark's contract with the package, checked from outside it.

``perfbench/`` runs the pipeline stage by stage and wraps package functions
by name to time them.  Both run in subprocesses here, because the tracer
patches the modules it wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import EXIT_OK, PREP, _run, _write_run

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


def test_benchmark_eval_scores_as_occfield_eval(tmp_path):
    """The benchmark's eval stage repeats ``cmd_eval`` by hand; both score
    one trained model alike."""
    run = _write_run(tmp_path)
    assert _run(run, *PREP, "train", "eval") == [EXIT_OK] * 5
    result = tmp_path / "eval.json"
    done = _python("perfbench/stage.py", "eval", str(run), str(result))
    assert done.returncode == 0, done.stdout + done.stderr
    stage = json.loads(result.read_text())["extra"]
    summary = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[-1].split(",")
    columns = {"mean_iou": 0, "occ_iou": 2, "mean_rayiou": 3, "occ_rayiou": 5}
    assert {k: f"{stage[k]:.6f}" for k in columns} == {k: summary[i] for k, i in columns.items()}
