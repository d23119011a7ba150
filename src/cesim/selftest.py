"""The eleven acceptance criteria, the battery behind ``cesim selftest``.

Each criterion runs at its fixed size and seed and returns a ``Result``:
its measured values, each with the comparison and bound it must meet.
``tests/test_acceptance.py`` pins every bound; ``run_selftest`` prints one
pass/fail line per criterion and returns 1 when any fails or raises.
"""

from __future__ import annotations

import hashlib
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .detection import CoincidenceSetting, selection_efficiency
from .eventstream import (HEADER_SIZE, MAGIC, RECORD_SIZE, TagStream, decode_stream, encode_stream, fit_decay_ps,
                          histogram_tau_si, match_coincidences, synthesize_stream)
from .experiments import (ExperimentConfig, RunMode, analytic_r, csv_text, mc_estimates, run_chsh, run_dephasing,
                          run_fig2b, setting_for)
from .interferometer import EraserSetting, PairSetting, eraser_amplitudes, eraser_intensity, output_fields
from .optics import power
from .source import DetuningGrid, SourceConfig, sample_n_pairs

DELTA = 1.0e6
GRID = DetuningGrid.default_grid(DELTA).values()
FIG2B_GOLDEN_SHA256 = "a603ce28d8f5a1d35664d3115de6780a0484d5161df1c05a6be44bad58d042f9"  # tests/data/fig2b_golden.csv
COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True, slots=True)
class Result:
    """One criterion's outcome: each measured value with the comparison and bound it must meet."""

    number: int
    name: str
    checks: tuple[tuple[str, object, str, object], ...]  # (quantity, measured, comparison, bound)
    detail: str

    @property
    def passed(self) -> bool:
        return all(COMPARE[op](value, bound) for _, value, op, bound in self.checks)

    def __str__(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.number:02d} {self.name}: {self.detail}"


def criterion_01_joint_fringe() -> Result:
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        xi, theta = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        setting = PairSetting(float(rng.uniform(0, 2 * DELTA)), tau=float(rng.uniform(0, 1e-5)))
        r = analytic_r(setting, EraserSetting(xi, theta))
        worst = max(worst, abs(r - math.cos(xi + theta) ** 2))
    elapsed = time.perf_counter() - t0
    return Result(1, "joint fringe cos^2(xi+theta)", (("max|err|", worst, "<", 1e-12), ("seconds", elapsed, "<", 1.0)),
                  f"max|err|={worst:.3e}, {elapsed:.2f}s")


def criterion_02_detuning_independence() -> Result:
    rng = np.random.default_rng(102)
    angles = [(0.0, 0.0), (22.5, 22.5), (45.0, 0.0)]
    angles += [(float(rng.uniform(0, 180)), float(rng.uniform(0, 180))) for _ in range(20)]
    worst = 0.0
    for xi_deg, theta_deg in angles:
        eraser = EraserSetting(math.radians(xi_deg), math.radians(theta_deg))
        values = [analytic_r(setting_for(float(df), 3e-6), eraser) for df in GRID]
        worst = max(worst, max(values) - min(values))
    return Result(2, "detuning independence over the 21-point grid", (("max spread", worst, "<", 1e-12),),
                  f"max spread={worst:.3e}")


def criterion_03_fringe_table_and_golden() -> Result:
    table = run_fig2b(ExperimentConfig())
    worst = max(abs(row[3] - math.cos(math.radians(row[2])) ** 2) for row in table.rows)
    digests = [hashlib.sha256(csv_text(run_fig2b(ExperimentConfig())).encode("utf-8")).hexdigest() for _ in "ab"]
    stable = digests == [FIG2B_GOLDEN_SHA256] * 2
    return Result(3, "averaged fringe table and golden csv",
                  (("max|err|", worst, "<", 1e-12), ("byte-stable", stable, "==", True)),
                  f"max|err|={worst:.3e}, byte-stable={stable}")


def criterion_04_local_uniformity() -> Result:
    values = []
    for factor in (0.0, 1.0, 10.0, 100.0):
        for df in GRID:
            port_a, port_b = output_fields(setting_for(float(df), factor / DELTA))
            values.append((power(port_a), power(port_b)))
    i_a = [v[0] for v in values]
    i_b = [v[1] for v in values]
    worst = max(max(i_a) - min(i_a), max(i_b) - min(i_b))
    return Result(4, "bare port intensities uniform",
                  (("max variation", worst, "<", 1e-12), ("|I_A - 1/2|", abs(i_a[0] - 0.5), "<", 1e-12)),
                  f"max variation={worst:.3e}")


def criterion_05_eraser_visibilities() -> Result:
    taus = np.linspace(0.0, 1.0 / DELTA, 161)  # two fringe periods at delta_f = DELTA
    worst = 0.0
    for angle_deg in (0.0, 15.0, 22.5, 30.0, 45.0):
        angle = math.radians(angle_deg)
        series_s, series_i = [], []
        for tau in taus:
            e_s, e_i = eraser_amplitudes(PairSetting(DELTA, tau=float(tau)), EraserSetting(angle, angle))
            series_s.append(eraser_intensity(e_s))
            series_i.append(eraser_intensity(e_i))
        for series in (series_s, series_i):
            hi, lo = max(series), min(series)
            if angle_deg == 0.0:  # no fringe: the series is flat
                worst = max(worst, hi - lo)
            else:  # the visibility (max - min) / (max + min)
                worst = max(worst, abs((hi - lo) / (hi + lo) - abs(math.sin(2 * angle))))
    return Result(5, "analyzer fringe visibilities |sin 2 angle|", (("max|err|", worst, "<", 1e-9),),
                  f"max|err|={worst:.3e}")


def criterion_06_classical_lower_bound() -> Result:
    t0 = time.perf_counter()
    worst = 0.0
    for xi_deg in (0.0, 15.0, 22.5, 30.0, 45.0):
        eraser = EraserSetting(math.radians(xi_deg), math.radians(xi_deg))
        table = run_dephasing(ExperimentConfig(seed=106), eraser, taus=[100.0 / DELTA], n_samples=100_000)
        worst = max(worst, abs(table.rows[0][1] - 0.25) / 0.25)
    elapsed = time.perf_counter() - t0
    return Result(6, "dephased mean at half the analyzer maximum",
                  (("max rel dev", worst, "<", 0.02), ("seconds", elapsed, "<", 5.0)),
                  f"max rel dev={worst:.4f}, {elapsed:.2f}s")


def criterion_07_selection_efficiency() -> Result:
    eff = selection_efficiency(sample_n_pairs(SourceConfig(seed=107), 100_000))
    return Result(7, "selection efficiency 25 percent", (("|eff - 1/4|", abs(eff - 0.25), "<=", 0.004),),
                  f"measured {eff:.4f}")


def criterion_08_analytic_mc_agreement() -> Result:
    t0 = time.perf_counter()
    angles = [(float(x), 0.0) for x in range(0, 195, 15)]  # 13 points
    erasers = [EraserSetting(math.radians(a), math.radians(b)) for a, b in angles]
    worst = 0.0
    for (a, b), est in zip(angles, mc_estimates(erasers, 1_000_000, seed=108)):
        diff = abs(est.r_normalized - math.cos(math.radians(a + b)) ** 2)
        if diff > 1e-12:
            worst = max(worst, diff / max(est.stat_error, 1e-300))
    elapsed = time.perf_counter() - t0
    return Result(8, "stochastic fringe matches analytic",
                  (("worst sigma", worst, "<=", 3.0), ("seconds", elapsed, "<", 60.0)),
                  f"worst dev={worst:.2f} sigma, {elapsed:.1f}s")


def criterion_09_envelope_decay() -> Result:
    tau_c = 1.0 / DELTA
    batch = sample_n_pairs(SourceConfig(seed=109, rate=1e5), 1_000_000)
    stream = synthesize_stream(batch, coincidence=CoincidenceSetting(tau_c=tau_c), jitter=True, seed=1090)
    coincidences = match_coincidences(stream, 10_000_000)
    accepted = coincidences[coincidences["accepted"]]
    decay_s = fit_decay_ps(histogram_tau_si(accepted, 50_000, 8_000_000)) * 1e-12
    rel = abs(decay_s - tau_c / 2) / (tau_c / 2)
    return Result(9, "delay histogram decay tau_c/2", (("rel err", rel, "<=", 0.10),),
                  f"fit {decay_s*1e6:.4f} us, rel err {rel:.3%}, n={len(accepted)}")


def criterion_10_chsh() -> Result:
    s_expected = 2.0 * math.sqrt(2.0)
    s = run_chsh(ExperimentConfig()).s_analytic
    mc = run_chsh(ExperimentConfig(mode=RunMode.MC, n_pairs=1_000_000, seed=110))
    mc_sigma = abs(mc.s_mc - s_expected) / mc.s_mc_err
    return Result(10, "CHSH at the canonical angles",
                  (("|S - 2 sqrt 2|", abs(s - s_expected), "<=", 1e-9), ("S_mc sigma", mc_sigma, "<=", 3.0)),
                  f"S={s:.12f}, S_mc={mc.s_mc:.5f}+-{mc.s_mc_err:.5f}")


def criterion_11_pipeline_integrity() -> Result:
    rng = np.random.default_rng(111)
    roundtrip_ok = True  # encode/decode identity on 1000 random streams
    for _ in range(1000):
        n = int(rng.integers(0, 50))
        stream = TagStream.from_fields(
            np.sort(rng.integers(0, 10**12, n).astype(np.uint64)),
            rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, 4, n).astype(np.uint8),
            rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        )
        if decode_stream(encode_stream(stream)) != stream:
            roundtrip_ok = False
            break
    # streaming equals batch on a synthesized stream
    blob = encode_stream(synthesize_stream(sample_n_pairs(SourceConfig(seed=1110), 20_000), seed=1111))
    whole = match_coincidences(decode_stream(blob), 1000)
    body, step = blob[HEADER_SIZE:], 1009 * RECORD_SIZE
    pieces = [decode_stream(MAGIC + (1).to_bytes(2, "little") + body[lo : lo + step]).array
              for lo in range(0, len(body), step)]
    merged = np.concatenate(pieces)
    merged = merged[np.lexsort((merged["channel"], merged["t_ps"]))]
    chunk_ok = bool(np.array_equal(match_coincidences(TagStream(merged), 1000), whole))
    # ground-truth recovery at default rates
    big = sample_n_pairs(SourceConfig(seed=1112), 100_000)
    coincidences = match_coincidences(synthesize_stream(big, seed=1113), 1000)
    accepted = coincidences[coincidences["accepted"]]
    joined = accepted["pair_id_1"] == accepted["pair_id_2"]
    joins_ok = bool(np.all(joined))
    recovery = np.count_nonzero(joined) / int(np.count_nonzero(big.cross_mask & (big.port1 != big.port2)))
    return Result(11, "event pipeline integrity",
                  (("roundtrip", roundtrip_ok, "==", True), ("streaming=batch", chunk_ok, "==", True),
                   ("truth joins", joins_ok, "==", True), ("recovery", recovery, ">=", 0.999)),
                  f"roundtrip={roundtrip_ok}, streaming=batch={chunk_ok}, truth joins={joins_ok}, "
                  f"recovery={recovery:.5f}")


CRITERIA = (criterion_01_joint_fringe, criterion_02_detuning_independence, criterion_03_fringe_table_and_golden,
            criterion_04_local_uniformity, criterion_05_eraser_visibilities, criterion_06_classical_lower_bound,
            criterion_07_selection_efficiency, criterion_08_analytic_mc_agreement, criterion_09_envelope_decay,
            criterion_10_chsh, criterion_11_pipeline_integrity)


def run_selftest() -> int:
    """Run every criterion, print its line and a summary; 1 if any fails."""
    failures = 0
    for criterion in CRITERIA:
        try:
            result = criterion()
            ok, line = result.passed, str(result)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, line = False, f"[FAIL] {criterion.__name__}: {type(exc).__name__}: {exc}"
        print(line)
        failures += 0 if ok else 1
    print(f"selftest: {len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 0 if failures == 0 else 1
