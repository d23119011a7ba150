"""Scenario runners: closed-form tables, Monte Carlo twins and CSV output.

Every runner can evaluate its observables analytically (through the
amplitude machinery, so the detuning phases really enter and cancel),
stochastically (event-level draws), or both. In ``BOTH`` mode the runner
raises if any cell (for CHSH, S) disagrees beyond three Monte Carlo
standard errors; the fig2a/fig2b rows also carry that discrepancy.

CSV output is UTF-8, comma separated, '.' decimal marker, floats at 17
significant digits; identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path as FsPath
from typing import Iterable, Sequence

import numpy as np

from .detection import (
    CoincidenceSetting,
    CorrelationEstimate,
    heterodyne_product,
    sample_coincidence_counts,
)
from .interferometer import (
    EraserSetting,
    PairSetting,
    eraser_amplitudes,
    eraser_intensity,
    local_intensity,
    output_fields,
    pair_phase,
    port_intensities,
)
from .source import DetuningGrid


class RunMode(Enum):
    ANALYTIC = "analytic"
    MC = "mc"
    BOTH = "both"


class SelfCheckError(RuntimeError):
    """A BOTH-mode run found analytic and stochastic columns in disagreement."""


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    delta_big: float = 1.0e6
    grid: DetuningGrid | None = None
    tau: float = 3.0e-6
    n_pairs: int = 200_000
    seed: int = 20230730
    mode: RunMode = RunMode.ANALYTIC
    raw_values: bool = False

    def __post_init__(self):
        if not math.isfinite(self.delta_big) or self.delta_big <= 0:
            raise ValueError("delta_big must be positive")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if self.n_pairs <= 0:
            raise ValueError("n_pairs must be positive")

    @property
    def effective_grid(self) -> DetuningGrid:
        return self.grid if self.grid is not None else DetuningGrid.default_grid(self.delta_big)


@dataclass(slots=True)
class Table:
    columns: tuple[str, ...]
    rows: list[tuple]

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_csv(table: Table, path) -> FsPath:
    """Write a table as CSV; byte-stable for identical inputs."""
    out = FsPath(path)
    lines = [",".join(table.columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def setting_for(delta_f_signed: float, tau: float) -> PairSetting:
    """Map a signed detuning sample onto a non-negative setting by folding
    the sign into the branch orientation."""
    sign = -1 if delta_f_signed < 0 else 1
    return PairSetting(sign * delta_f_signed, sign, tau)


def analytic_r(
    setting: PairSetting,
    eraser: EraserSetting,
    coincidence: CoincidenceSetting | None = None,
    raw: bool = False,
) -> float:
    """Normalized joint correlation evaluated through the amplitude path.

    The product is expanded term by term and gated, so the detuning phase
    is genuinely present before it cancels in the modulus; the result is
    normalized to the aligned-analyzer peak of the same setting unless
    ``raw`` is requested.
    """
    cs = coincidence if coincidence is not None else CoincidenceSetting()
    e_s, e_i = eraser_amplitudes(setting, eraser)
    value = abs(heterodyne_product(e_s, e_i)) ** 2
    envelope = math.exp(-2.0 * cs.tau_si / cs.tau_c)
    if raw:
        return envelope * value
    ref_s, ref_i = eraser_amplitudes(setting, EraserSetting(0.0, 0.0))
    peak = abs(heterodyne_product(ref_s, ref_i)) ** 2
    return envelope * value / peak


def mc_estimates(
    erasers: Sequence[EraserSetting],
    n_pairs: int,
    seed: int,
) -> list[CorrelationEstimate]:
    """Stochastic normalized rates for a list of analyzer settings.

    Counts are accumulated per setting and normalized by a dedicated
    aligned-analyzer reference run; every setting draws from its own
    seed derived from ``seed``.
    """
    seeds = np.random.SeedSequence(seed).spawn(len(erasers) + 1)
    _, ref = sample_coincidence_counts(n_pairs, EraserSetting(0.0, 0.0), np.random.default_rng(seeds[0]))
    if ref == 0:
        raise RuntimeError("reference run produced no accepted coincidences")
    v_ref = ref * (1.0 - ref / n_pairs)

    def one(eraser, seq):
        _, acc = sample_coincidence_counts(n_pairs, eraser, np.random.default_rng(seq))
        r = acc / ref
        v_acc = acc * (1.0 - acc / n_pairs)
        err = math.sqrt(v_acc / ref**2 + (acc**2) * v_ref / ref**4)
        return CorrelationEstimate(r, n_pairs, acc, err)

    return [one(eraser, seq) for eraser, seq in zip(erasers, seeds[1:])]


def _discrepancy_sigma(analytic: float, estimate: CorrelationEstimate) -> float:
    diff = abs(estimate.r_normalized - analytic)
    if diff <= 1e-12:  # below the analytic roundoff scale both paths agree
        return 0.0
    if estimate.stat_error == 0:
        return math.inf
    return diff / estimate.stat_error


def _assemble(
    base_columns: tuple[str, ...],
    base_rows: list[tuple],
    analytic: list[float] | None,
    estimates: list[CorrelationEstimate] | None,
    mode: RunMode,
    value_name: str,
) -> Table:
    columns = list(base_columns)
    rows = [list(r) for r in base_rows]
    if mode in (RunMode.ANALYTIC, RunMode.BOTH):
        columns.append(value_name)
        for row, v in zip(rows, analytic):
            row.append(v)
    if mode in (RunMode.MC, RunMode.BOTH):
        columns.extend([f"{value_name}_mc", f"{value_name}_mc_err"])
        for row, est in zip(rows, estimates):
            row.extend([est.r_normalized, est.stat_error])
    if mode is RunMode.BOTH:
        columns.append("discrepancy_sigma")
        bad = []
        for row, v, est in zip(rows, analytic, estimates):
            sigma = _discrepancy_sigma(v, est)
            row.append(sigma)
            if sigma > 3.0:
                bad.append((tuple(row), sigma))
        if bad:
            raise SelfCheckError(
                f"{len(bad)} row(s) disagree beyond 3 sigma; first: {bad[0][0]} at {bad[0][1]:.2f} sigma"
            )
    return Table(tuple(columns), [tuple(r) for r in rows])


DEFAULT_FIG2A_ANGLES_DEG = ((0.0, 0.0), (22.5, 22.5), (30.0, 15.0), (45.0, 45.0))


def run_fig2a(cfg: ExperimentConfig, angles_deg: Iterable[tuple[float, float]] | None = None) -> Table:
    """Per-detuning zero-delay correlation, one row per grid point and
    analyzer pair.  Within a fixed analyzer pair all rows coincide: the
    branch phase cancels in the gated product."""
    angles = tuple(angles_deg if angles_deg is not None else DEFAULT_FIG2A_ANGLES_DEG)
    grid_values = cfg.effective_grid.values()
    base_rows = []
    analytic_col = []
    erasers = []
    for xi_deg, theta_deg in angles:
        eraser = EraserSetting(math.radians(xi_deg), math.radians(theta_deg))
        for df in grid_values:
            base_rows.append((xi_deg, theta_deg, float(df)))
            erasers.append(eraser)
            analytic_col.append(analytic_r(setting_for(float(df), cfg.tau), eraser, raw=cfg.raw_values))
    estimates = None
    if cfg.mode in (RunMode.MC, RunMode.BOTH):
        estimates = mc_estimates(erasers, cfg.n_pairs, cfg.seed)
    return _assemble(
        ("xi_deg", "theta_deg", "delta_f_hz"), base_rows, analytic_col, estimates, cfg.mode, "r_si"
    )


def default_fig2b_sweep() -> tuple[float, ...]:
    return tuple(float(x) for x in range(0, 185, 5))


def run_fig2b(cfg: ExperimentConfig, theta_deg: float = 0.0,
              xi_sweep_deg: Sequence[float] | None = None) -> Table:
    """Grid-averaged zero-delay correlation against the summed analyzer
    angle; equals cos^2(xi + theta) pointwise."""
    sweep = tuple(xi_sweep_deg if xi_sweep_deg is not None else default_fig2b_sweep())
    grid_values = cfg.effective_grid.values()
    base_rows = []
    analytic_col = []
    erasers = []
    for xi_deg in sweep:
        eraser = EraserSetting(math.radians(xi_deg), math.radians(theta_deg))
        per_detuning = [
            analytic_r(setting_for(float(df), cfg.tau), eraser, raw=cfg.raw_values)
            for df in grid_values
        ]
        base_rows.append((xi_deg, theta_deg, xi_deg + theta_deg))
        analytic_col.append(float(np.mean(per_detuning)))
        erasers.append(eraser)
    estimates = None
    if cfg.mode in (RunMode.MC, RunMode.BOTH):
        # stochastic path: accepted counts per analyzer setting, normalized
        # by the aligned-analyzer reference counts; no detuning is drawn,
        # since the gated rate does not depend on it
        estimates = mc_estimates(erasers, cfg.n_pairs, cfg.seed)
    return _assemble(
        ("xi_deg", "theta_deg", "xi_plus_theta_deg"), base_rows, analytic_col, estimates, cfg.mode, "r_si"
    )


def default_local_taus(delta_big: float, periods: float = 2.0, points_per_period: int = 40) -> np.ndarray:
    """Delay sweep covering ``periods`` full fringes at delta_f = delta_big."""
    period = 1.0 / (2.0 * delta_big)
    n = int(periods * points_per_period)
    return period * np.arange(n + 1) / points_per_period


def run_local(
    cfg: ExperimentConfig,
    eraser: EraserSetting | None = None,
    taus: Sequence[float] | None = None,
    delta_f: float | None = None,
) -> Table:
    """Local intensities against the arm delay.

    The bare port intensities are constant at 1/2; the analyzer-passed
    intensities fringe with visibilities |sin 2 xi| and |sin 2 theta|.
    """
    eraser = eraser if eraser is not None else EraserSetting(math.pi / 4, math.pi / 4)
    df = cfg.delta_big if delta_f is None else delta_f
    tau_values = np.asarray(taus if taus is not None else default_local_taus(cfg.delta_big))

    base_rows = []
    quartet = []
    for tau in tau_values:
        setting = setting_for(df, float(tau))
        port_a, port_b = output_fields(setting)
        e_s, e_i = eraser_amplitudes(setting, eraser)
        i_a, i_b = local_intensity(port_a), local_intensity(port_b)
        i_s, i_i = eraser_intensity(e_s), eraser_intensity(e_i)
        base_rows.append((float(tau), df, setting.phase))
        quartet.append((i_a, i_b, i_s, i_i))

    columns = ["tau_s", "delta_f_hz", "phi_rad"]
    rows = [list(r) for r in base_rows]
    names = ("i_a", "i_b", "i_s", "i_i")
    if cfg.mode in (RunMode.ANALYTIC, RunMode.BOTH):
        columns.extend(names)
        for row, vals in zip(rows, quartet):
            row.extend(vals)
    if cfg.mode in (RunMode.MC, RunMode.BOTH):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        columns.extend([f"{n}_mc" for n in names])
        bad = []
        for row, vals in zip(rows, quartet):
            draws = [float(np.count_nonzero(rng.random(cfg.n_pairs) < p)) / cfg.n_pairs for p in vals]
            row.extend(draws)
            if cfg.mode is RunMode.BOTH:
                for p, est in zip(vals, draws):
                    sigma = math.sqrt(max(p * (1 - p), 1e-300) / cfg.n_pairs)
                    if abs(est - p) > 3.0 * sigma:
                        bad.append((row[0], p, est))
        if bad:
            raise SelfCheckError(f"{len(bad)} local intensity cell(s) disagree beyond 3 sigma")
    return Table(tuple(columns), [tuple(r) for r in rows])


def default_dephasing_taus(delta_big: float) -> np.ndarray:
    factors = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    return factors / delta_big


def run_dephasing(
    cfg: ExperimentConfig,
    eraser: EraserSetting | None = None,
    taus: Sequence[float] | None = None,
    n_samples: int = 100_000,
    law: DetuningGrid | None = None,
) -> Table:
    """Ensemble-averaged analyzer-passed intensities against the arm delay.

    Detunings are drawn once from a uniform law spanning +-2 * delta_big
    (configurable); as the delay grows the fringe washes out and both mean
    intensities settle at half the analyzer-passed maximum, independent of
    the analyzer angles.
    """
    eraser = eraser if eraser is not None else EraserSetting(math.pi / 4, math.pi / 4)
    tau_values = np.asarray(taus if taus is not None else default_dephasing_taus(cfg.delta_big))
    sample_law = law if law is not None else DetuningGrid(-2 * cfg.delta_big, 2 * cfg.delta_big)
    rng = np.random.default_rng(cfg.seed)
    detunings = sample_law.sample(rng, n_samples)

    analytic = cfg.mode in (RunMode.ANALYTIC, RunMode.BOTH)
    mc = cfg.mode in (RunMode.MC, RunMode.BOTH)
    columns = ["tau_s"]
    if analytic:
        columns += ["mean_i_s", "mean_i_i"]
    if mc:
        columns += ["mean_i_s_mc", "mean_i_i_mc"]
    rows = []
    bad = []
    for tau in tau_values:
        phi = pair_phase(detunings, float(tau))
        i_s, i_i = port_intensities(eraser.xi, eraser.theta, phi)
        means = (float(np.mean(i_s)), float(np.mean(i_i)))
        row = [float(tau)]
        if analytic:
            row.extend(means)
        if mc:
            clicks = (
                float(np.count_nonzero(rng.random(n_samples) < i_s)) / n_samples,
                float(np.count_nonzero(rng.random(n_samples) < i_i)) / n_samples,
            )
            row.extend(clicks)
            if cfg.mode is RunMode.BOTH:
                for p, est in zip(means, clicks):
                    sigma = math.sqrt(max(p * (1 - p), 1e-300) / n_samples)
                    if abs(est - p) > 3.0 * sigma:
                        bad.append((float(tau), p, est))
        rows.append(tuple(row))
    if bad:
        raise SelfCheckError(f"{len(bad)} dephasing cell(s) disagree beyond 3 sigma")
    return Table(tuple(columns), rows)


CANONICAL_CHSH_DEG = (0.0, 45.0, -22.5, -67.5)


@dataclass(slots=True)
class ChshResult:
    table: Table
    s_analytic: float
    s_mc: float | None = None
    s_mc_err: float | None = None


def _chsh_subsettings(alpha: float, beta: float) -> tuple[tuple[float, float], ...]:
    q = math.pi / 2
    return ((alpha, beta), (alpha + q, beta + q), (alpha + q, beta), (alpha, beta + q))


def run_chsh(
    cfg: ExperimentConfig,
    angles_deg: Sequence[float] | None = None,
    tau_si: float = 0.0,
) -> ChshResult:
    """CHSH combination of the joint fringe.

    Each correlation value E(alpha, beta) combines the four analyzer
    sub-settings through the standard estimator; the denominator is fixed
    at its zero-delay value (2) so a nonzero electronic delay attenuates S
    through the coincidence envelope instead of cancelling out.
    """
    a_deg, a2_deg, b_deg, b2_deg = tuple(angles_deg) if angles_deg is not None else CANONICAL_CHSH_DEG
    a, a2, b, b2 = (math.radians(x) for x in (a_deg, a2_deg, b_deg, b2_deg))
    cs = CoincidenceSetting.for_bandwidth(cfg.delta_big, tau_si=tau_si)
    setting = setting_for(cfg.delta_big, cfg.tau)

    def e_analytic(alpha, beta):
        subs = _chsh_subsettings(alpha, beta)
        r = [analytic_r(setting, EraserSetting(x, y), cs) for x, y in subs]
        return (r[0] + r[1] - r[2] - r[3]) / 2.0

    pairs = [(a, b), (a, b2), (a2, b), (a2, b2)]
    e_vals = [e_analytic(x, y) for x, y in pairs]
    s_analytic = abs(e_vals[0] - e_vals[1] + e_vals[2] + e_vals[3])

    columns = ["alpha_deg", "beta_deg", "e"]
    rows = [
        [math.degrees(x), math.degrees(y), e] for (x, y), e in zip(pairs, e_vals)
    ]
    s_mc = s_mc_err = None
    if cfg.mode in (RunMode.MC, RunMode.BOTH):
        if tau_si != 0.0:
            raise ValueError("the stochastic CHSH estimator is defined at zero electronic delay")
        seeds = np.random.SeedSequence(cfg.seed).spawn(len(pairs))
        columns.extend(["e_mc", "e_mc_err"])
        e_mc_vals = []
        sign = [1.0, -1.0, 1.0, 1.0]
        var_s = 0.0
        for row, (alpha, beta), seq in zip(rows, pairs, seeds):
            rng = np.random.default_rng(seq)
            counts = []
            for x, y in _chsh_subsettings(alpha, beta):
                _, acc = sample_coincidence_counts(cfg.n_pairs, EraserSetting(x, y), rng)
                counts.append(acc)
            n_plus = counts[0] + counts[1]
            n_minus = counts[2] + counts[3]
            total = n_plus + n_minus
            if total == 0:
                raise RuntimeError("no coincidences accumulated for a CHSH sub-setting")
            e_mc = (n_plus - n_minus) / total
            var_e = 4.0 * (n_minus**2 * n_plus + n_plus**2 * n_minus) / total**4
            row.extend([e_mc, math.sqrt(var_e)])
            e_mc_vals.append(e_mc)
            var_s += var_e
        s_mc = abs(e_mc_vals[0] - e_mc_vals[1] + e_mc_vals[2] + e_mc_vals[3])
        s_mc_err = math.sqrt(var_s)
        if cfg.mode is RunMode.BOTH and abs(s_mc - s_analytic) > 3.0 * s_mc_err:
            raise SelfCheckError(
                f"CHSH disagreement: analytic {s_analytic:.6f} vs stochastic {s_mc:.6f} +- {s_mc_err:.6f}"
            )
    table = Table(tuple(columns), [tuple(r) for r in rows])
    return ChshResult(table, s_analytic, s_mc, s_mc_err)
