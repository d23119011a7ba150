"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-v`` to
see them) and fails the suite if its bound is violated.
"""

import math
import time

import numpy as np

from cesim.detection import CoincidenceSetting, selection_efficiency
from cesim.eventstream import (
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    TagStream,
    decode_stream,
    encode_stream,
    fit_decay_ps,
    histogram_tau_si,
    match_coincidences,
    synthesize_stream,
)
from cesim.experiments import (
    ExperimentConfig,
    RunMode,
    analytic_r,
    emit_csv,
    mc_estimates,
    run_chsh,
    run_dephasing,
    run_fig2b,
    setting_for,
)
from cesim.interferometer import (
    EraserSetting,
    PairSetting,
    eraser_amplitudes,
    eraser_intensity,
    output_fields,
)
from cesim.optics import power
from cesim.source import DetuningGrid, SourceConfig, sample_n_pairs

from _oracles import visibility

DELTA = 1.0e6
GRID = DetuningGrid.default_grid(DELTA).values()


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_joint_fringe():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        xi, theta = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        setting = PairSetting(float(rng.uniform(0, 2 * DELTA)), tau=float(rng.uniform(0, 1e-5)))
        r = analytic_r(setting, EraserSetting(xi, theta))
        worst = max(worst, abs(r - math.cos(xi + theta) ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, "joint fringe cos^2(xi+theta)", ok, f"max|err|={worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_detuning_independence():
    rng = np.random.default_rng(102)
    angles = [(0.0, 0.0), (22.5, 22.5), (45.0, 0.0)] + [
        (float(rng.uniform(0, 180)), float(rng.uniform(0, 180))) for _ in range(20)
    ]
    worst = 0.0
    for xi_deg, theta_deg in angles:
        eraser = EraserSetting(math.radians(xi_deg), math.radians(theta_deg))
        values = [analytic_r(setting_for(float(df), 3e-6), eraser) for df in GRID]
        worst = max(worst, max(values) - min(values))
    ok = worst < 1e-12
    report(2, "detuning independence over the 21-point grid", ok, f"max spread={worst:.3e}")


def test_criterion_03_fringe_table_and_golden(tmp_path):
    from pathlib import Path

    table = run_fig2b(ExperimentConfig())
    worst = max(
        abs(row[3] - math.cos(math.radians(row[2])) ** 2) for row in table.rows
    )
    golden = (Path(__file__).parent / "data" / "fig2b_golden.csv").read_bytes()
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_fig2b(ExperimentConfig()), out_a)
    emit_csv(run_fig2b(ExperimentConfig()), out_b)
    stable = out_a.read_bytes() == golden and out_b.read_bytes() == golden
    ok = worst < 1e-12 and stable
    report(3, "averaged fringe table and golden csv", ok, f"max|err|={worst:.3e}, byte-stable={stable}")


def test_criterion_04_local_uniformity():
    worst = 0.0
    values = []
    for factor in (0.0, 1.0, 10.0, 100.0):
        for df in GRID:
            setting = setting_for(float(df), factor / DELTA)
            port_a, port_b = output_fields(setting)
            values.append((power(port_a), power(port_b)))
    i_a = [v[0] for v in values]
    i_b = [v[1] for v in values]
    worst = max(max(i_a) - min(i_a), max(i_b) - min(i_b))
    ok = worst < 1e-12 and abs(i_a[0] - 0.5) < 1e-12
    report(4, "bare port intensities uniform", ok, f"max variation={worst:.3e}")


def test_criterion_05_eraser_visibilities():
    taus = np.linspace(0.0, 1.0 / DELTA, 161)  # two fringe periods at delta_f = DELTA
    worst = 0.0
    for angle_deg in (0.0, 15.0, 22.5, 30.0, 45.0):
        angle = math.radians(angle_deg)
        series_s, series_i = [], []
        for tau in taus:
            setting = PairSetting(DELTA, tau=float(tau))
            e_s, e_i = eraser_amplitudes(setting, EraserSetting(angle, angle))
            series_s.append(eraser_intensity(e_s))
            series_i.append(eraser_intensity(e_i))
        expected = abs(math.sin(2 * angle))
        if angle_deg == 0.0:
            worst = max(worst, max(series_s) - min(series_s), max(series_i) - min(series_i))
        else:
            worst = max(
                worst,
                abs(visibility(series_s) - expected),
                abs(visibility(series_i) - expected),
            )
    ok = worst < 1e-9
    report(5, "analyzer fringe visibilities |sin 2 angle|", ok, f"max|err|={worst:.3e}")


def test_criterion_06_classical_lower_bound():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=106)
    tau = 100.0 / DELTA
    worst = 0.0
    for xi_deg in (0.0, 15.0, 22.5, 30.0, 45.0):
        eraser = EraserSetting(math.radians(xi_deg), math.radians(xi_deg))
        table = run_dephasing(cfg, eraser, taus=[tau], n_samples=100_000)
        mean_i_s = table.rows[0][1]
        worst = max(worst, abs(mean_i_s - 0.25) / 0.25)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 5.0
    report(6, "dephased mean at half the analyzer maximum", ok, f"max rel dev={worst:.4f}, {elapsed:.2f}s")


def test_criterion_07_selection_efficiency():
    batch = sample_n_pairs(SourceConfig(seed=107), 100_000)
    eff = selection_efficiency(batch)
    ok = abs(eff - 0.25) <= 0.004
    report(7, "selection efficiency 25 percent", ok, f"measured {eff:.4f}")


def test_criterion_08_analytic_mc_agreement():
    t0 = time.perf_counter()
    angles = [(float(x), 0.0) for x in range(0, 195, 15)]  # 13 points
    erasers = [EraserSetting(math.radians(a), math.radians(b)) for a, b in angles]
    estimates = mc_estimates(erasers, 1_000_000, seed=108)
    worst_sigma = 0.0
    for (a, b), est in zip(angles, estimates):
        expected = math.cos(math.radians(a + b)) ** 2
        diff = abs(est.r_normalized - expected)
        if diff > 1e-12:
            worst_sigma = max(worst_sigma, diff / max(est.stat_error, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= 3.0 and elapsed < 60.0
    report(8, "stochastic fringe matches analytic", ok, f"worst dev={worst_sigma:.2f} sigma, {elapsed:.1f}s")


def test_criterion_09_envelope_decay():
    tau_c = 1.0 / DELTA
    batch = sample_n_pairs(SourceConfig(seed=109, rate=1e5), 1_000_000)
    stream = synthesize_stream(batch, coincidence=CoincidenceSetting(tau_c=tau_c), jitter=True, seed=1090)
    coincidences = match_coincidences(stream, 10_000_000)
    accepted = coincidences[coincidences["accepted"]]
    hist = histogram_tau_si(accepted, 50_000, 8_000_000)
    decay_s = fit_decay_ps(hist) * 1e-12
    rel = abs(decay_s - tau_c / 2) / (tau_c / 2)
    ok = rel <= 0.10
    report(9, "delay histogram decay tau_c/2", ok, f"fit {decay_s*1e6:.4f} us, rel err {rel:.3%}, n={len(accepted)}")


def test_criterion_10_chsh():
    analytic = run_chsh(ExperimentConfig())
    s_expected = 2.0 * math.sqrt(2.0)
    analytic_ok = abs(analytic.s_analytic - s_expected) <= 1e-9
    mc = run_chsh(ExperimentConfig(mode=RunMode.MC, n_pairs=1_000_000, seed=110))
    mc_ok = abs(mc.s_mc - s_expected) <= 3.0 * mc.s_mc_err
    ok = analytic_ok and mc_ok
    report(
        10,
        "CHSH at the canonical angles",
        ok,
        f"S={analytic.s_analytic:.12f}, S_mc={mc.s_mc:.5f}+-{mc.s_mc_err:.5f}",
    )


def test_criterion_11_pipeline_integrity():
    rng = np.random.default_rng(111)
    # encode/decode identity on 1000 random streams
    roundtrip_ok = True
    for _ in range(1000):
        n = int(rng.integers(0, 50))
        t = np.sort(rng.integers(0, 10**12, n).astype(np.uint64))
        stream = TagStream.from_fields(
            t,
            rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, 4, n).astype(np.uint8),
            rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        )
        if decode_stream(encode_stream(stream)) != stream:
            roundtrip_ok = False
            break

    # streaming equals batch on a synthesized stream
    batch = sample_n_pairs(SourceConfig(seed=1110), 20_000)
    stream = synthesize_stream(batch, seed=1111)
    blob = encode_stream(stream)
    whole = match_coincidences(decode_stream(blob), 1000)
    body = blob[HEADER_SIZE:]
    pieces = []
    step = 1009 * RECORD_SIZE
    for lo in range(0, len(body), step):
        pieces.append(decode_stream(MAGIC + (1).to_bytes(2, "little") + body[lo : lo + step]).array)
    merged = np.concatenate(pieces)
    merged = merged[np.lexsort((merged["channel"], merged["t_ps"]))]
    chunk_ok = np.array_equal(match_coincidences(TagStream(merged), 1000), whole)

    # ground-truth recovery at default rates
    big = sample_n_pairs(SourceConfig(seed=1112), 100_000)
    big_stream = synthesize_stream(big, seed=1113)
    coincidences = match_coincidences(big_stream, 1000)
    accepted = coincidences[coincidences["accepted"]]
    joined = accepted["pair_id_1"] == accepted["pair_id_2"]
    joins_ok = bool(np.all(joined))
    truth = int(np.count_nonzero(big.cross_mask & (big.port1 != big.port2)))
    recovery = np.count_nonzero(joined) / truth
    recovery_ok = recovery >= 0.999

    ok = roundtrip_ok and chunk_ok and joins_ok and recovery_ok
    report(
        11,
        "event pipeline integrity",
        ok,
        f"roundtrip={roundtrip_ok}, streaming=batch={chunk_ok}, truth joins={joins_ok}, recovery={recovery:.5f}",
    )
