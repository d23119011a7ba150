"""cesim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workloads and metrics are
those of BENCHMARK.json; perfbench/reference.json holds the recorded
digests, the layer-to-metric map and the known bugs.

A run starts CHILDREN fresh child processes one at a time, each with one
BLAS thread and ``src`` on PYTHONPATH.  Each child imports cesim, makes a
warm-up call and the workload's set-up, then times the workload's
``cesim.cli.main`` calls for its share of ``--seconds`` and checks the
outputs of every call.  A calibration kernel, its mix of work set per
workload, is timed just before and just after each timed call, and the
call's time is reported in units of it (``wall_cal``), so that the host's
drifting speed cancels.  Set-up time is measured from the parent, from
process start to the child's ``ready`` line.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` every other child records spans around the library
functions (spans.py) and the result holds the per-layer metrics, with
``trace.overhead_s`` as traced minus untraced calibrated time, in
seconds at the run's median speed.

The last line of stdout is the result JSON; the line before it records
the machine, versions, seed and array sizes.  ``--workload all`` runs
every workload in turn and prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SPAN_UNIT_FIELDS = ("pairs_drawn", "rss_delta_mb")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CESIM_SEED", None)  # the seed comes from --seed only
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_child(run_dir: Path, index: int, args, traced: bool, budget: float,
              deadline: float) -> dict:
    """Start one child, wait for it, and return its results with set-up time."""
    child_dir = run_dir / f"child-{index}"
    child_dir.mkdir()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--budget", str(budget), "--trace", str(int(traced)),
           "--result", "result.json"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=child_dir, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = False
        if select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1.0))[0]:
            ready = proc.stdout.readline().strip() == "ready"
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    result_file = child_dir / "result.json"
    if not ready or proc.returncode != 0 or not result_file.exists():
        return {"crashed": True, "traced": traced}
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result.update(crashed=False, traced=traced, setup_s=setup_s)
    return result


def per_layer(children: list[dict], summaries: list[dict], metric: str) -> float:
    """One per-layer metric: the median over traced calls of a span figure
    (``summaries`` holds one ``spans.self_times`` per traced call), or the
    median over children of a count read from the output files."""
    if metric == "trace.overhead_s":
        # compared in calibrated units, as end_to_end does, so the host's
        # drift between children cancels; then seconds at the median speed
        def ratios(traced):
            return statistics.median(w / cal for c in children if c["traced"] == traced
                                     for w, cal in zip(c["walls"], c["cals"]))
        cal_s = statistics.median(cal for c in children for cal in c["cals"])
        return (ratios(True) - ratios(False)) * cal_s
    layer, _, field = metric.rpartition(".")
    if field in ("self_s", "calls") or field in SPAN_UNIT_FIELDS:
        key = field if field in ("self_s", "calls") else "units"
        return statistics.median(s.get(layer, {key: 0})[key] for s in summaries)
    return statistics.median(c["layer_counts"].get(metric, 0) for c in children)


def end_to_end(children: list[dict], attempted: int, failed: int) -> dict[str, float]:
    # This host's speed drifts by tens of percent over seconds to minutes,
    # and the median wall time of a run drifts with it.  Each timed call is
    # therefore divided by the calibration kernel timed around it (child.py):
    # the ratio is its cost at the speed the host had at that moment.
    ratios = [w / cal for c in children for w, cal in zip(c["walls"], c["cals"])]
    return {
        "wall_cal": statistics.median(ratios),
        "throughput_cal": statistics.median(
            c["work"] * cal / w for c in children for w, cal in zip(c["walls"], c["cals"])),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "pass_frac": (attempted - failed) / attempted,
        "join_recovery": statistics.median(c["recovery"] for c in children),
        "join_purity": statistics.median(c["purity"] for c in children),
    }


def llc_bytes() -> int | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            sha = git.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run_workload(args, spec: dict) -> tuple[dict, dict]:
    """One benchmark run of one workload: (result, context)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    children = []
    timed = 0.0
    try:
        for index in range(CHILDREN):
            if time.monotonic() >= deadline:
                break
            # each child gets an equal share of what is left, so the run's
            # timed calls add up to about --seconds whatever one call takes
            budget = (args.seconds - timed) / (CHILDREN - index)
            child = run_child(run_dir, index, args, args.trace and index % 2 == 1, budget,
                              deadline)
            timed += sum(child.get("walls", ()))
            children.append(child)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    done = [c for c in children if not c["crashed"]]
    crashed = len(children) - len(done)
    attempted = crashed + sum(len(c["walls"]) for c in done)
    failed = crashed + sum(1 for c in done for e in c["errors"] if e)
    if not done or (args.trace and len({c["traced"] for c in done}) < 2):
        raise RuntimeError(f"too few children of {args.workload} completed")

    group = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        summaries = [spans.self_times(s) for c in done if c["traced"] for s in c["spans"]]
        values = {m["name"]: per_layer(done, summaries, m["name"]) for m in spec[group]}
    else:
        values = end_to_end(done, attempted, failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    context = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "children": len(children),
        "timed_calls": sum(len(c["walls"]) for c in done),
        "wall_s_median": statistics.median(w for c in done for w in c["walls"]),
        "cal_s_median": statistics.median(cal for c in done for cal in c["cals"]),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": done[0]["python"], "numpy": done[0]["numpy"], "blas_threads": 1,
        **source_identity(),
        "llc_bytes": llc_bytes(), "array_bytes": done[-1]["arrays"],
        "errors": sorted({e for c in done for errs in c["errors"] for e in errs})[:5],
    }
    return result, context


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=reference["default_seed"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "cesim" / "cli.py").is_file():
        print(f"error: no cesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        args_one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            result, context = run_workload(args_one, spec)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.workload != "all":
            print(json.dumps({"context": context}))
            print(json.dumps(result))
            return 0
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:52s} {entry['value']:>16.6g} {entry['unit']}")
            total["metrics"][f"{name}.{metric}"] = entry
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
