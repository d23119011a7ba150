"""One benchmark child process: set up, time the workload's CLI calls,
check the outputs of every call, and write the results as JSON.

run.py starts it with ``src`` on PYTHONPATH, one BLAS thread and the
child's own work directory as the current directory.  It prints ``ready``
once set-up is done, so the parent can time set-up from the outside.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

# Timed just before and just after every timed call, the calibration
# kernel measures how fast this host runs at that moment; each workload
# sets its mix (workloads.Workload.calibration).
CAL_ARRAY_SIZE = 200_000


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in process; return its exit code and stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)  # looked up per call, so tracing can wrap it
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def calibrate(mix: tuple[int, int, int], array) -> float:
    """Wall time of one run of the calibration kernel: an integer loop,
    float formatting with string and dict handling, and numpy sorts."""
    loop_steps, n_rows, n_sorts = mix
    t0 = time.perf_counter()
    total = 0
    for i in range(loop_steps):
        total += i * i
    rows, index = [], {}
    for i in range(n_rows):
        x = i * 0.37
        rows.append(f"{i},{x!r},{x * 2:.6g},{'ok' if i % 3 else 'no'}")
        index[rows[-1][:12]] = i
    "\n".join(rows).split(",")
    for _ in range(n_sorts):
        array.copy().sort()
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True, choices=sorted(workloads.SCALES))
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy
    import cesim.cli as cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"cesim was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    p = workloads.Params(args.seed, args.scale, Path.cwd())
    for argv in wl.warmup(p) + wl.setup(p):
        code, _ = invoke(cli, argv)
        if code != 0:
            print(f"set-up call {argv} exited {code}", file=sys.stderr)
            return 3
    print("ready", flush=True)

    calls = wl.calls(p)
    cal_array = numpy.random.default_rng(0).random(CAL_ARRAY_SIZE)
    walls, cals, errors, traced = [], [], [], []
    timed = 0.0
    while True:
        gc.collect()
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        cal_before = calibrate(wl.calibration, cal_array)
        t0 = time.perf_counter()
        outcomes = [invoke(cli, argv) for argv in calls]
        wall = time.perf_counter() - t0
        cals.append(0.5 * (cal_before + calibrate(wl.calibration, cal_array)))
        if tracer:
            tracer.uninstall()
            traced.append(tracer.spans)
        call_errors = [f"{argv[0]} exited {code}" for argv, (code, _) in zip(calls, outcomes)
                       if code]
        if not call_errors:
            try:
                call_errors = wl.check(p, "".join(text for _, text in outcomes))
            except (OSError, ValueError, IndexError) as exc:
                call_errors = [f"outputs unreadable: {exc}"]
        walls.append(wall)
        errors.append(call_errors)
        timed += wall
        # stop before a further call would overrun the budget; always time one
        if timed + wall > args.budget:
            break

    ok = not errors[-1]
    recovery, purity = wl.join(p) if ok else (0.0, 0.0)
    result = {
        "walls": walls,
        "cals": cals,
        "errors": errors,
        "work": wl.work(p) if ok else 0,
        "recovery": recovery,
        "purity": purity,
        "layer_counts": wl.layer_counts(p) if ok else {},
        "arrays": wl.arrays(p) if ok else {},
        "peak_rss_mb": spans.peak_rss_mb(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "spans": traced,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
