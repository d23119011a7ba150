"""Scenario runners: closed-form tables, Monte Carlo twins and CSV output.

Every runner can evaluate its observables analytically (through the
amplitude machinery, so the detuning phases really enter and cancel),
stochastically (event-level draws), or both. In ``BOTH`` mode the runner
measures each analytic cell's distance from its twin in Monte Carlo
standard errors (for CHSH the one cell is S) and raises SelfCheckError
when any cell exceeds the family-wise threshold of its table: the
two-sided z at which a table of m independent cells raises a false alarm
as often as one cell does at 3 sigma (Sidak). That is 3 for CHSH, and
3.97, 4.16, 4.46 and 3.82 for the default fig2b, fig2a, local and
dephasing tables (37, 84, 324 and 20 cells); a cell with too few
expected draws to measure (``MIN_RARE_DRAWS``) is refused with ValueError
instead. The
fig2a/fig2b rows also carry each cell's distance as ``discrepancy_sigma``.

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
    output_fields,
    pair_phase,
    port_intensities,
)
from .optics import power
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


@dataclass(slots=True)
class Table:
    columns: tuple[str, ...]
    rows: list[tuple]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def csv_text(table: Table) -> str:
    """A table as CSV text; byte-stable for identical inputs."""
    lines = [",".join(table.columns), *(",".join(_fmt(v) for v in row) for row in table.rows)]
    return "\n".join(lines) + "\n"


def emit_csv(table: Table, path) -> FsPath:
    """Write a table as CSV (``csv_text``)."""
    out = FsPath(path)
    out.write_text(csv_text(table), encoding="utf-8")
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
    ref = sample_coincidence_counts(n_pairs, EraserSetting(0.0, 0.0), np.random.default_rng(seeds[0]))
    if ref == 0:
        raise ValueError("reference run produced no accepted coincidences")
    v_ref = ref * (1.0 - ref / n_pairs)

    def one(eraser, seq):
        acc = sample_coincidence_counts(n_pairs, eraser, np.random.default_rng(seq))
        r = acc / ref
        v_acc = acc * (1.0 - acc / n_pairs)
        err = math.sqrt(v_acc / ref**2 + (acc**2) * v_ref / ref**4)
        return CorrelationEstimate(r, n_pairs, acc, err)

    return [one(eraser, seq) for eraser, seq in zip(erasers, seeds[1:])]


_ALPHA = math.erfc(3.0 / math.sqrt(2.0))  # false-alarm rate of one cell checked at 3 sigma


def family_threshold(m: int) -> float:
    """Two-sided z at which m independent cells raise a false alarm with
    probability ``_ALPHA`` between them (Sidak); 3 for one cell."""
    from statistics import NormalDist  # imported on use: it loads decimal and fractions

    return NormalDist().inv_cdf(1.0 - (1.0 - (1.0 - _ALPHA) ** (1.0 / m)) / 2.0)


def _self_check(what: str, cells: Iterable[tuple[float, float, float]]) -> list[float]:
    """Each ``(analytic, stochastic, standard error)`` cell's discrepancy in
    standard errors; raises SelfCheckError, naming cells by their position
    in ``cells``, when any exceeds the family-wise threshold of the count,
    and ValueError when a cell that differs has no standard error to
    measure it in."""
    sigmas = []
    for i, (analytic, stochastic, err) in enumerate(cells):
        diff = abs(stochastic - analytic)  # below 1e-12, the analytic roundoff scale, both paths agree
        if diff > 1e-12 and not err:
            raise ValueError(f"{what} cell {i} has a zero standard error: too few pairs")
        sigmas.append(0.0 if diff <= 1e-12 else diff / err)
    z = family_threshold(len(sigmas)) if sigmas else math.inf
    bad = [f"cell {i} at {s:.2f}" for i, s in enumerate(sigmas) if s > z]
    if bad:
        raise SelfCheckError(
            f"{len(bad)} of {len(sigmas)} {what} cell(s) disagree beyond {z:.3f} sigma: {', '.join(bad)}"
        )
    return sigmas


MIN_RARE_DRAWS = 10  # fewest expected draws n * min(p, 1 - p) on which a normal error holds


def _refuse_rare(what: str, probabilities: Iterable[float], n: int, draws: str) -> None:
    """ValueError "too few ``draws``" for the first cell whose probability
    expects fewer than ``MIN_RARE_DRAWS`` of ``n`` draws on its rarer side,
    unless it is within 1e-12 of 0 or 1, where the twin is exact."""
    for i, p in enumerate(probabilities):
        rare = min(p, 1 - p)
        if rare > 1e-12 and n * rare < MIN_RARE_DRAWS:
            raise ValueError(f"{what} cell {i} expects {n * rare:.3g} of {n} draws on its rarer side, "
                             f"below {MIN_RARE_DRAWS}: too few {draws}")


def _binomial_check(what: str, analytic: dict, stochastic: dict, n: int, draws: str) -> None:
    """``_self_check`` of click fractions over ``n`` draws, column by column,
    after ``_refuse_rare`` of their probabilities."""
    columns = zip(analytic.values(), stochastic.values())
    cells = [(p, est) for a_col, s_col in columns for p, est in zip(a_col, s_col)]
    _refuse_rare(what, [p for p, _ in cells], n, draws)
    _self_check(what, [(p, est, math.sqrt(max(p * (1 - p), 1e-300) / n)) for p, est in cells])


def _click_fraction(rng: np.random.Generator, p, n: int) -> float:
    """Share of ``n`` draws that click with probability ``p`` (a scalar or
    one probability per draw)."""
    return float(np.count_nonzero(rng.random(n) < p)) / n


def _columns(names: Sequence[str], rows: Sequence[Sequence]) -> dict[str, list]:
    """The named columns of ``rows``."""
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


def _table(mode: RunMode, base: dict, analytic: dict, stochastic: dict, both: dict | None = None) -> Table:
    """A table of named columns: ``base`` always, ``analytic`` unless the mode
    is MC, ``stochastic`` unless it is ANALYTIC, ``both`` only in BOTH mode."""
    columns = dict(base)
    if mode is not RunMode.MC:
        columns.update(analytic)
    if mode is not RunMode.ANALYTIC:
        columns.update(stochastic)
    if mode is RunMode.BOTH and both:
        columns.update(both)
    return Table(tuple(columns), list(zip(*columns.values())))


def _r_si_table(cfg: ExperimentConfig, base: dict, analytic: list[float], erasers: list) -> Table:
    """fig2a/fig2b: ``r_si`` next to its Monte Carlo twin, one cell per row."""
    if cfg.raw_values and cfg.mode is not RunMode.ANALYTIC:
        raise ValueError("raw values have no stochastic twin; use the analytic mode")
    stochastic, both = {}, None
    if cfg.mode is RunMode.BOTH:
        # a pair draws an accepted coincidence with probability r / 8, an aligned reference one with 1 / 8
        _refuse_rare("r_si", [r / 8 for r in analytic], cfg.n_pairs, "pairs")
        _refuse_rare("r_si reference", [1 / 8], cfg.n_pairs, "pairs")
    if cfg.mode is not RunMode.ANALYTIC:
        # stochastic path: accepted counts per analyzer setting, normalized
        # by the aligned-analyzer reference counts; no detuning is drawn,
        # since the gated rate does not depend on it
        estimates = mc_estimates(erasers, cfg.n_pairs, cfg.seed)
        stochastic = _columns(("r_si_mc", "r_si_mc_err"), [(e.r_normalized, e.stat_error) for e in estimates])
    if cfg.mode is RunMode.BOTH:
        cells = zip(analytic, stochastic["r_si_mc"], stochastic["r_si_mc_err"])
        both = {"discrepancy_sigma": _self_check("r_si", cells)}
    return _table(cfg.mode, base, {"r_si": analytic}, stochastic, both)


def _grid_values(cfg: ExperimentConfig) -> np.ndarray:
    """The points of ``cfg.grid``, or of the default grid of ``cfg.delta_big``."""
    return (cfg.grid if cfg.grid is not None else DetuningGrid.default_grid(cfg.delta_big)).values()


DEFAULT_FIG2A_ANGLES_DEG = ((0.0, 0.0), (22.5, 22.5), (30.0, 15.0), (45.0, 45.0))


def run_fig2a(cfg: ExperimentConfig, angles_deg: Iterable[tuple[float, float]] | None = None) -> Table:
    """Per-detuning zero-delay correlation, one row per grid point and
    analyzer pair.  Within a fixed analyzer pair all rows coincide: the
    branch phase cancels in the gated product."""
    angles = tuple(angles_deg if angles_deg is not None else DEFAULT_FIG2A_ANGLES_DEG)
    grid_values = _grid_values(cfg)
    rows = [(xi_deg, theta_deg, float(df)) for xi_deg, theta_deg in angles for df in grid_values]
    erasers = [EraserSetting(math.radians(xi_deg), math.radians(theta_deg)) for xi_deg, theta_deg, _ in rows]
    analytic = [
        analytic_r(setting_for(df, cfg.tau), eraser, raw=cfg.raw_values)
        for (_, _, df), eraser in zip(rows, erasers)
    ]
    return _r_si_table(cfg, _columns(("xi_deg", "theta_deg", "delta_f_hz"), rows), analytic, erasers)


def default_fig2b_sweep() -> tuple[float, ...]:
    return tuple(float(x) for x in range(0, 185, 5))


def run_fig2b(cfg: ExperimentConfig, theta_deg: float = 0.0,
              xi_sweep_deg: Sequence[float] | None = None) -> Table:
    """Grid-averaged zero-delay correlation against the summed analyzer
    angle; equals cos^2(xi + theta) pointwise."""
    sweep = tuple(xi_sweep_deg if xi_sweep_deg is not None else default_fig2b_sweep())
    grid_values = _grid_values(cfg)
    erasers = [EraserSetting(math.radians(xi_deg), math.radians(theta_deg)) for xi_deg in sweep]
    settings = [setting_for(float(df), cfg.tau) for df in grid_values]
    analytic = [float(np.mean([analytic_r(setting, eraser, raw=cfg.raw_values) for setting in settings]))
                for eraser in erasers]
    rows = [(xi_deg, theta_deg, xi_deg + theta_deg) for xi_deg in sweep]
    return _r_si_table(cfg, _columns(("xi_deg", "theta_deg", "xi_plus_theta_deg"), rows), analytic, erasers)


def default_local_taus(delta_big: float) -> np.ndarray:
    """Delay sweep covering two full fringes at delta_f = delta_big, 40
    points per fringe."""
    period = 1.0 / (2.0 * delta_big)
    _check_sweep_end(period * 80)
    return period * np.arange(81) / 40


def run_local(
    cfg: ExperimentConfig,
    eraser: EraserSetting | None = None,
    taus: Sequence[float] | None = None,
) -> Table:
    """Local intensities against the arm delay.

    The bare port intensities are constant at 1/2; the analyzer-passed
    intensities fringe with visibilities |sin 2 xi| and |sin 2 theta|.
    """
    eraser = eraser if eraser is not None else EraserSetting(math.pi / 4, math.pi / 4)
    tau_values = np.asarray(taus if taus is not None else default_local_taus(cfg.delta_big))

    rows = []
    for tau in tau_values:
        setting = setting_for(cfg.delta_big, float(tau))
        port_a, port_b = output_fields(setting)
        e_s, e_i = eraser_amplitudes(setting, eraser)
        rows.append((float(tau), cfg.delta_big, setting.phase, power(port_a), power(port_b),
                     eraser_intensity(e_s), eraser_intensity(e_i)))
    analytic = _columns(("i_a", "i_b", "i_s", "i_i"), [row[3:] for row in rows])
    stochastic = {}
    if cfg.mode is not RunMode.ANALYTIC:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        draws = [[_click_fraction(rng, p, cfg.n_pairs) for p in row[3:]] for row in rows]
        stochastic = _columns([f"{name}_mc" for name in analytic], draws)
    if cfg.mode is RunMode.BOTH:
        _binomial_check("local intensity", analytic, stochastic, cfg.n_pairs, "pairs")
    return _table(cfg.mode, _columns(("tau_s", "delta_f_hz", "phi_rad"), rows), analytic, stochastic)


def default_dephasing_taus(delta_big: float) -> np.ndarray:
    factors = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    _check_sweep_end(float(factors[-1]) / delta_big)
    return factors / delta_big


def _check_sweep_end(tau: float) -> None:
    """Raise ValueError when a delay sweep's end, computed in Python floats
    so that an overflow gives inf and no warning, is not finite."""
    if not math.isfinite(tau):
        raise ValueError("the delay sweep overflows: delta_big is too small")


def run_dephasing(
    cfg: ExperimentConfig,
    eraser: EraserSetting | None = None,
    taus: Sequence[float] | None = None,
    n_samples: int = 100_000,
) -> Table:
    """Ensemble-averaged analyzer-passed intensities against the arm delay.

    Detunings are drawn once from a uniform law spanning +-2 * delta_big;
    as the delay grows the fringe washes out and both mean intensities
    settle at half the analyzer-passed maximum, independent of the
    analyzer angles.
    """
    if n_samples < 1:
        raise ValueError(f"dephasing needs at least one sample, got {n_samples}")
    eraser = eraser if eraser is not None else EraserSetting(math.pi / 4, math.pi / 4)
    tau_values = np.asarray(taus if taus is not None else default_dephasing_taus(cfg.delta_big))
    rng = np.random.default_rng(cfg.seed)
    detunings = DetuningGrid(-2 * cfg.delta_big, 2 * cfg.delta_big).sample(rng, n_samples)

    analytic = {"mean_i_s": [], "mean_i_i": []}
    stochastic = {"mean_i_s_mc": [], "mean_i_i_mc": []} if cfg.mode is not RunMode.ANALYTIC else {}
    for tau in tau_values:
        intensities = port_intensities(eraser.xi, eraser.theta, pair_phase(detunings, float(tau)))
        for column, i in zip(analytic.values(), intensities):
            column.append(float(np.mean(i)))
        for column, i in zip(stochastic.values(), intensities):  # the i_s draw, then the i_i draw
            column.append(_click_fraction(rng, i, n_samples))
    if cfg.mode is RunMode.BOTH:
        _binomial_check("dephasing", analytic, stochastic, n_samples, "samples")
    return _table(cfg.mode, {"tau_s": [float(tau) for tau in tau_values]}, analytic, stochastic)


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

    rows = [(math.degrees(x), math.degrees(y), e) for (x, y), e in zip(pairs, e_vals)]
    stochastic, s_mc, s_mc_err = {}, None, None
    if cfg.mode is not RunMode.ANALYTIC:
        if tau_si != 0.0:
            raise ValueError("the stochastic CHSH estimator is defined at zero electronic delay")
        seeds = np.random.SeedSequence(cfg.seed).spawn(len(pairs))
        e_mc, var_e = [], []
        for (alpha, beta), seq in zip(pairs, seeds):
            rng = np.random.default_rng(seq)
            counts = [
                sample_coincidence_counts(cfg.n_pairs, EraserSetting(x, y), rng)
                for x, y in _chsh_subsettings(alpha, beta)
            ]
            n_plus = counts[0] + counts[1]
            n_minus = counts[2] + counts[3]
            total = n_plus + n_minus
            if total == 0:
                raise ValueError("no coincidences accumulated for a CHSH sub-setting")
            e_mc.append((n_plus - n_minus) / total)
            var_e.append(4.0 * (n_minus**2 * n_plus + n_plus**2 * n_minus) / total**4)
        stochastic = {"e_mc": e_mc, "e_mc_err": [math.sqrt(v) for v in var_e]}
        s_mc = abs(e_mc[0] - e_mc[1] + e_mc[2] + e_mc[3])
        s_mc_err = math.sqrt(sum(var_e))
        if cfg.mode is RunMode.BOTH:
            _self_check("CHSH S", [(s_analytic, s_mc, s_mc_err)])
    table = _table(cfg.mode, _columns(("alpha_deg", "beta_deg", "e"), rows), {}, stochastic)
    return ChshResult(table, s_analytic, s_mc, s_mc_err)
