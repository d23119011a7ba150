"""In-memory spans around the library functions the CLI reaches, and the
self-time arithmetic over them.

Each function is replaced where its callers look it up, so the spans nest
as the calls do.  A span is ``[name, parent index, start, end, units]``;
``units`` carries a per-call count (pairs drawn) or the memory a call added
(peak RSS over the footprint at entry).
"""

from __future__ import annotations

import importlib
import os
import resource
import time

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

_EXPERIMENT_RUNNERS = ("run_fig2a", "run_fig2b", "run_chsh", "run_local", "run_dephasing")

# (module, attribute, layer name, units): the attribute is where callers look
# the function up; the layer name is the module that defines it.
TARGETS = (
    ("cesim.cli", "main", "cli.main", None),
    ("cesim.cli", "sample_n_pairs", "source.sample_n_pairs", None),
    ("cesim.cli", "selection_efficiency", "detection.selection_efficiency", None),
    ("cesim.cli", "emit_csv", "experiments.emit_csv", None),
    ("cesim.eventstream", "synthesize_stream", "eventstream.synthesize_stream", None),
    ("cesim.eventstream", "encode_stream", "eventstream.encode_stream", None),
    ("cesim.eventstream", "decode_stream", "eventstream.decode_stream", None),
    ("cesim.eventstream", "match_coincidences", "eventstream.match_coincidences", "rss"),
    ("cesim.eventstream", "histogram_tau_si", "eventstream.histogram_tau_si", None),
    ("cesim.eventstream", "write_coincidences_csv", "eventstream.write_coincidences_csv", None),
    ("cesim.eventstream", "write_histogram_csv", "eventstream.write_histogram_csv", None),
    ("cesim.experiments", "analytic_r", "experiments.analytic_r", None),
    ("cesim.experiments", "eraser_amplitudes", "interferometer.eraser_amplitudes", None),
    ("cesim.experiments", "heterodyne_product", "detection.heterodyne_product", None),
    ("cesim.experiments", "sample_coincidence_counts", "detection.sample_coincidence_counts",
     "n_pairs"),
    ("cesim.experiments", "mc_estimates", "experiments.mc_estimates", None),
) + tuple(("cesim.experiments", f, f"experiments.{f}", None) for f in _EXPERIMENT_RUNNERS)


def rss_now_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * PAGE_MB


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records spans for the calls made between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, units in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # refactored away: the layer reads 0
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, units))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, units):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, stack[-1], 0.0, 0.0, 0.0]
            if units == "n_pairs":
                record[4] = args[0] if args else kwargs["n_pairs"]
            elif units == "rss":
                record[4] = -rss_now_mb()
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                if units == "rss":
                    record[4] += peak_rss_mb()

        return traced


def self_times(spans) -> dict[str, dict]:
    """Per layer: summed self time, call count and summed units.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so the children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for (name, _, start, end, units), child_time in zip(spans, covered):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "units": 0.0})
        entry["self_s"] += end - start - child_time
        entry["calls"] += 1
        entry["units"] += units
    return out
