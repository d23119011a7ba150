"""Built-in invariant battery behind the ``selftest`` subcommand.

Each check prints one pass/fail line; the battery returns a nonzero exit
code when anything fails.  The checks are fast spot versions of the full
test suite, meant for installed-environment sanity rather than coverage.
"""

from __future__ import annotations

import math

import numpy as np

from .detection import Outcome, class_table, selection_efficiency
from .eventstream import TagStream, decode_stream, encode_stream, match_coincidences
from .experiments import ExperimentConfig, analytic_r, emit_csv, run_fig2b
from .interferometer import (
    EraserSetting,
    PairSetting,
    eraser_amplitudes,
    eraser_intensity,
    output_fields,
)
from .optics import bs_transform, power
from .source import SourceConfig, sample_n_pairs


def _check_splitter() -> bool:
    out_a, out_b = bs_transform(1.0, 0.0)
    ok = abs(abs(out_a) ** 2 + abs(out_b) ** 2 - 1.0) < 1e-12
    back_a, back_b = bs_transform(1 / math.sqrt(2), -1j / math.sqrt(2))
    return ok and abs(abs(back_a) ** 2 - 1.0) < 1e-12 and abs(back_b) < 1e-12


def _check_local_uniformity() -> bool:
    rng = np.random.default_rng(7)
    for _ in range(50):
        setting = PairSetting(float(rng.uniform(0, 2e6)), tau=float(rng.uniform(0, 1e-4)))
        port_a, port_b = output_fields(setting)
        if abs(power(port_a) - 0.5) > 1e-12 or abs(power(port_b) - 0.5) > 1e-12:
            return False
    return True


def _check_joint_fringe() -> bool:
    rng = np.random.default_rng(11)
    for _ in range(200):
        xi, theta = rng.uniform(-math.pi, math.pi, 2)
        eraser = EraserSetting(float(xi), float(theta))
        setting = PairSetting(float(rng.uniform(0, 2e6)), tau=float(rng.uniform(0, 1e-4)))
        if abs(analytic_r(setting, eraser) - math.cos(xi + theta) ** 2) > 1e-12:
            return False
    return True


def _check_eraser_fringe() -> bool:
    xi = math.radians(22.5)
    setting = PairSetting(1e6, tau=0.0)
    e_s, _ = eraser_amplitudes(setting, EraserSetting(xi, 0.0))
    expected = 0.25 * (1 - math.sin(2 * xi))
    return abs(eraser_intensity(e_s) - expected) < 1e-12


def _check_outcome_classes() -> bool:
    """The network-derived class table against the paper's closed form:
    normalized, and 4 P(accepted) = cos^2(xi + theta)."""
    for xi_deg, theta_deg in ((0, 0), (22.5, 22.5), (45, 0), (30, 60)):
        xi, theta = math.radians(xi_deg), math.radians(theta_deg)
        dist = class_table(EraserSetting(xi, theta)).classes[0]
        fringe = math.cos(xi + theta) ** 2
        if abs(sum(dist) - 1.0) > 1e-15 or abs(4 * dist[Outcome.COINCIDENCE] - fringe) > 1e-15:
            return False
    return True


def _check_efficiency(seed: int) -> bool:
    batch = sample_n_pairs(SourceConfig(seed=seed), 20_000)
    eff = selection_efficiency(batch)
    return abs(eff - 0.25) < 3.0 * math.sqrt(0.25 * 0.75 / 20_000) + 1e-9


def _check_roundtrip(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 10**9, 64).astype(np.uint64))
    stream = TagStream.from_fields(
        t,
        rng.integers(0, 2, 64).astype(np.uint8),
        rng.integers(0, 4, 64).astype(np.uint8),
        rng.integers(0, 100, 64).astype(np.uint32),
    )
    return decode_stream(encode_stream(stream)) == stream


def _check_matcher() -> bool:
    # V, minus branch at D1 and V, plus branch at D2, 400 ps apart
    stream = TagStream.from_fields([1000, 1400], [0, 1], [0b10, 0b11], [1, 1])
    out = match_coincidences(stream, 1000)
    return len(out) == 1 and bool(out["accepted"][0]) and out["tau_si_ps"][0] == 400


def _check_csv_stability(seed: int) -> bool:
    import tempfile
    from pathlib import Path as FsPath

    cfg = ExperimentConfig(seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = FsPath(tmp) / "a.csv", FsPath(tmp) / "b.csv"
        emit_csv(run_fig2b(cfg), p1)
        emit_csv(run_fig2b(cfg), p2)
        return p1.read_bytes() == p2.read_bytes()


def run_selftest(seed: int = 20230730) -> int:
    checks = [
        ("balanced splitter unitarity and recombination", _check_splitter),
        ("local intensities uniform at 1/2", _check_local_uniformity),
        ("joint fringe equals cos^2(xi+theta)", _check_joint_fringe),
        ("analyzer fringe closed form", _check_eraser_fringe),
        ("outcome classes normalized and on the cos^2 fringe", _check_outcome_classes),
        ("pre-analyzer selection efficiency near 1/4", lambda: _check_efficiency(seed)),
        ("time-tag round trip", lambda: _check_roundtrip(seed)),
        ("coincidence matcher smoke", _check_matcher),
        ("csv byte stability", lambda: _check_csv_stability(seed)),
    ]
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1
    print(f"selftest: {len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1
