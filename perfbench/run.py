"""Stage-by-stage benchmark of the occfield pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  A run repeats whole rounds while the
next one should end within S seconds.  A round runs every stage in its own
process (synth, scan, queries, train, eval): the full pipeline into one
directory, evaluated several times, synth to train into a second and the
prep stages into more.  It then checks the first pipeline's outputs against
references of its own, checks that the pipelines wrote byte-identical files,
and attempts ``occfield eval`` once.  A host speed probe runs after every
stage.  The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on two cores the default pool cut a query step's wall time
# by about a fifth for 1.7x the CPU time, and left no core for the rest of
# the machine.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
STAGES = ("synth", "scan", "queries", "train", "eval")
PREP = ("synth", "scan", "queries")
RUN_LIMIT_S = 170.0

os.environ.update(BLAS_THREADS)  # before the first numpy import

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, root: Path, workload, seed: int, trace: bool, deadline: float):
        self.root = root
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.slab_rayiou = None
        self.probe = hostspeed.Probe()
        self.probe.sample()

    def _spawn(self, cmd, log: Path) -> tuple[int, float]:
        with open(log, "wb") as out:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{cmd[2]} ran past the run's time limit")
            except BaseException:  # SIGTERM or Ctrl-C: the child must not outlive the run
                proc.kill()
                proc.wait()
                raise
        self.probe.sample()
        return code, spawned

    def stage(self, name: str, run_ini: Path) -> dict:
        d = run_ini.parent
        result = d / f"{name}.json"
        cmd = [sys.executable, str(self.root / "perfbench" / "stage.py"), name, str(run_ini), str(result)]
        code, spawned = self._spawn(cmd + (["--trace"] if self.trace else []), d / f"{name}.log")
        if code != 0:
            tail = (d / f"{name}.log").read_text(errors="replace")[-2000:]
            raise BenchError(f"stage {name} exited {code}:\n{tail}")
        r = json.loads(result.read_text())
        r["start_latency"] = r["ready"] - spawned
        r["wall"] = r["end"] - r["start"]
        return r

    def pipeline(self, d: Path) -> dict:
        t0 = time.perf_counter()
        run_ini = workloads.write_inputs(self.w, d)
        write_s = time.perf_counter() - t0
        stages = {name: self.stage(name, run_ini) for name in PREP}
        prep_hashes = checks.file_hashes(d / "out")
        stages["train"] = self.stage("train", run_ini)
        return {"dir": d, "run_ini": run_ini, "write_s": write_s, "stages": stages, "evals": [],
                "prep_hashes": prep_hashes, "hashes": checks.file_hashes(d / "out")}

    def round(self, d: Path) -> dict:
        """Two trained pipelines; the first is evaluated before and after the second runs."""
        a = self.pipeline(d / "a")
        a["evals"].append(self.stage("eval", a["run_ini"]))
        b = self.pipeline(d / "b")
        pipes = [a, b]
        for _ in range(self.w.evals - 1):
            a["evals"].append(self.stage("eval", a["run_ini"]))
        t0 = time.perf_counter()
        results = self.output_checks(a)
        results.append(("identical", *checks.check_identical(a["hashes"], b["hashes"])))
        results.append(("identical_prep", *checks.check_identical(a["prep_hashes"], b["prep_hashes"])))
        t1 = time.perf_counter()
        code, _ = self._spawn(
            [sys.executable, "-m", "occfield.cli", "eval", "--config", str(a["run_ini"])],
            d / "eval-cli.log",
        )
        spent = {"checks": t1 - t0, "occfield eval": time.perf_counter() - t1}
        stages = sum(len(p["stages"]) + len(p["evals"]) for p in pipes)
        return {"pipelines": pipes, "checks": results, "cli_eval_exit": code, "spent": spent,
                "attempted": stages + len(results) + 1, "failed": int(code != 0)}

    def output_checks(self, p: dict) -> list:
        from occfield import field, metrics, supervision
        from occfield.pointcloud import read_class_table
        from occfield.scene import VoxelVolume, read_voxel_volume

        out = p["dir"] / "out"
        ev = p["evals"][0]["extra"]
        g = self.w.grid_xy
        mins = (-g, -g, -0.4)
        classes = read_class_table(p["dir"] / "classes.txt")
        gt = VoxelVolume(read_voxel_volume(out / "gt.qovx").labels, mins, self.w.cell_size)
        pred = VoxelVolume(np.load(out / "pred.npy"), mins, self.w.cell_size)
        rng = np.random.default_rng(self.seed)
        scan_rays = metrics.rays_from_scan(scan_spec(p["run_ini"]))
        pick = rng.choice(len(scan_rays.origins), size=self.w.check_rays, replace=False)
        o, dirs = scan_rays.origins[pick], scan_rays.directions[pick]
        rays = metrics.RayIoUConfig(o, dirs)

        results = [
            ("first_hits_gt", *checks.check_first_hits(metrics.first_hits, gt, o, dirs)),
            ("first_hits_pred", *checks.check_first_hits(metrics.first_hits, pred, o, dirs)),
            ("self_score", *checks.check_self_score(metrics, gt, rays, classes)),
            ("predicted_labels", *checks.check_predicted_labels(
                (out / "model.qofm").read_bytes(), pred.labels, mins, self.w.cell_size, 0.5,
                rng.choice(pred.labels.size, size=2000, replace=False))),
        ]
        model = field.read_field_model(out / "model.qofm")
        batch = supervision.read_query_batch(out / "queries.qoqs")
        batch = batch.take(rng.choice(len(batch), size=256, replace=False))
        cfg = field.TrainConfig(class_weights=field.log_frequency_weights(classes.frequencies))
        results.append(("fd_gradients", *checks.check_fd_gradients(
            field.backward, field.loss, model, batch, cfg, rng)))
        qoqs = (out / "queries.qoqs").read_bytes()
        results.append(("query_balance", *checks.check_balance(qoqs)))
        results.append(("negative_purity", *checks.check_negative_purity(
            (out / "validation.txt").read_text(), qoqs)))
        clouds = [f.read_bytes() for f in sorted(out.glob("scan_*.qopc"))]
        results.append(("scan_returns", *checks.check_scan_returns(self.w, clouds)))
        if self.w.name == "query-train":
            if self.slab_rayiou is None:
                slab = VoxelVolume(checks.slab_only_labels(gt.dims, gt.mins, gt.cell_size), gt.mins, gt.cell_size)
                self.slab_rayiou = metrics.ray_iou(slab, gt, scan_rays, classes).mean_rayiou
            results.append(("beats_slab_only", *checks.check_beats_slab(ev["mean_rayiou"], self.slab_rayiou)))
        return results


def scan_spec(run_ini: Path):
    from occfield.config import read_run_config, read_scan_file

    return read_scan_file(read_run_config(run_ini).scan_path)


def final_loss(loss_csv: Path) -> float:
    totals = [float(line.split(",")[1]) for line in loss_csv.read_text().splitlines()[1:]]
    tail = max(1, -(-len(totals) // 10))
    return statistics.fmean(totals[-tail:])


def wall_times(pipes: list[dict], steps: int) -> dict:
    """Median wall times and rates of the run, as measured."""
    trained = [p["stages"]["train"] for p in pipes]
    evals = [e for p in pipes for e in p["evals"]]
    starts = [s["start_latency"] for p in pipes for s in [*p["stages"].values(), *p["evals"]]]
    med = statistics.median
    return {
        "setup_s": med(p["write_s"] for p in pipes) + med(starts),
        "prep_s": med(sum(p["stages"][n]["wall"] for n in PREP) for p in pipes),
        "train_steps_per_s": med(steps / t["wall"] for t in trained),
        "infer_voxels_per_s": med(e["extra"]["voxels"] / e["extra"]["predict_s"] for e in evals),
        "score_s": med(e["extra"]["score_s"] for e in evals),
    }


def end_to_end(pipes: list[dict], steps: int, speed: float) -> dict:
    """Wall times scaled to the nominal host speed, peak memory and final loss."""
    trained = [p["stages"]["train"] for p in pipes]
    evals = [e for p in pipes for e in p["evals"]]
    med = statistics.median
    mb = 1.0 / 1024.0
    values = {k: v / speed if k.endswith("_per_s") else v * speed for k, v in wall_times(pipes, steps).items()}
    values.update({
        "prep_rss_mb": med(max(p["stages"][n]["maxrss_kb"] for n in PREP) for p in pipes) * mb,
        "train_rss_mb": med(t["maxrss_kb"] for t in trained) * mb,
        "eval_rss_mb": med(e["maxrss_kb"] for e in evals) * mb,
        "final_loss": med(final_loss(p["dir"] / "out" / "loss.csv") for p in pipes),
    })
    return values


def per_layer(pipes: list[dict], names) -> tuple[dict, list]:
    """Per-layer figures of a typical pipeline: for each stage, the median over its runs."""
    runs = {n: [] for n in STAGES}
    for p in pipes:
        for n, s in p["stages"].items():
            runs[n].append(s["spans"])
        runs["eval"].extend(e["spans"] for e in p["evals"])
    med = statistics.median
    self_s, counts, peaks, overhead, absent = {}, {}, {}, 0.0, set()
    for sp in runs.values():
        for k in set().union(*(s["self_s"] for s in sp)):
            self_s[k] = self_s.get(k, 0.0) + med(s["self_s"].get(k, 0.0) for s in sp)
        for k in set().union(*(s["counts"] for s in sp)):
            counts[k] = counts.get(k, 0.0) + med(s["counts"].get(k, 0.0) for s in sp)
        for k in set().union(*(s["peaks"] for s in sp)):
            peaks[k] = max(peaks.get(k, 0.0), med(s["peaks"].get(k, 0.0) for s in sp))
        overhead += med(s["overhead_s"] for s in sp)
        absent.update(*(s["absent"] for s in sp))
    ev = [e["extra"] for p in pipes for e in p["evals"]]
    row = dict.fromkeys(names, 0.0)
    for k, v in self_s.items():
        row[k + "_s"] = v
    for k, v in counts.items():
        if k in row:
            row[k] = v
    if counts.get("field.grid_updated_cells"):
        row["field.grid_grad_ratio"] = counts["field.grid_grad_cells"] / counts["field.grid_updated_cells"]
    if counts.get("field.steps"):
        row["field.step_s"] = counts["field.loop_wall_s"] / counts["field.steps"]
    row["field.cache_mb"] = peaks.get("field.cache_bytes", 0.0) / 2**20
    row["supervision.positive_purity"] = runs["queries"][0]["values"].get("supervision.positive_purity", 0.0)
    for k in ("occ_iou", "mean_iou", "occ_rayiou", "mean_rayiou"):
        row["metrics." + k] = med(e[k] for e in ev)
    row["trace.overhead_s"] = overhead
    return {k: row[k] for k in names}, sorted(absent)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through the cleanup below
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "occfield" / "__init__.py").is_file():
        print("error: run from the root of an occfield checkout (src/occfield is missing)", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # compile once up front so no stage pays for writing bytecode
    compileall.compile_dir(root / "src", quiet=1)
    w = workloads.WORKLOADS[args.workload]
    bench = Bench(root, w, args.seed, bool(args.trace), deadline)
    base = root / "perfbench" / "out" / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rounds = []
    began = time.perf_counter()
    try:
        # whole rounds only; another starts if it should end within the run's seconds
        while not rounds or (time.perf_counter() - began) * (len(rounds) + 1) / len(rounds) <= args.seconds:
            rounds.append(bench.round(base / f"round{len(rounds)}"))
        pipes = [p for r in rounds for p in r["pipelines"]]
        if args.trace:
            values, absent = per_layer(pipes, units)
        else:
            values, absent = end_to_end(pipes, w.total_steps, bench.probe.speed()), []
        failed_checks = [(n, d) for r in rounds for n, ok, d in r["checks"] if not ok]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for i, p in enumerate(pipes):
        walls = " ".join(f"{n} {s['wall']:.3f}" for n, s in p["stages"].items())
        evals = " ".join(f"{e['extra']['predict_s']:.3f}/{e['extra']['score_s']:.3f}" for e in p["evals"])
        print(f"pipeline {i} stage walls (s): {walls}" + (f"; eval predict/score {evals}" if evals else ""))
    for name, ok, detail in rounds[0]["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(f"rounds {len(rounds)}, occfield eval exit codes {[r['cli_eval_exit'] for r in rounds]}, "
          f"seconds spent {[{k: round(v, 2) for k, v in r['spent'].items()} for r in rounds]}")
    walls = " ".join(f"{k} {v:.5g}" for k, v in wall_times(pipes, w.total_steps).items())
    print(f"host probe median {bench.probe.median_s() * 1e3:.2f} ms over {len(bench.probe.samples)} samples, "
          f"speed {bench.probe.speed():.4f}; unscaled medians: {walls}")
    if absent:
        print("absent entry points: " + ", ".join(absent))
    for name, detail in failed_checks:
        print(f"error: check {name} failed: {detail}", file=sys.stderr)
    result = {
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
