import csv
import math
from pathlib import Path as FsPath

import pytest

from cesim.detection import CoincidenceSetting
from cesim.experiments import (
    ExperimentConfig,
    RunMode,
    SelfCheckError,
    Table,
    _self_check,
    analytic_r,
    emit_csv,
    family_threshold,
    mc_estimates,
    run_chsh,
    run_dephasing,
    run_fig2a,
    run_fig2b,
    run_local,
    setting_for,
)
from cesim.interferometer import EraserSetting, PairSetting

from _oracles import chsh_e, visibility


def column(table: Table, name: str) -> list:
    """The values of the column ``name``, row by row."""
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


class TestAnalyticR:
    def test_equals_cos_squared(self, rng):
        for _ in range(200):
            xi, theta = rng.uniform(-math.pi, math.pi, 2)
            setting = PairSetting(float(rng.uniform(0, 2e6)), tau=float(rng.uniform(0, 1e-5)))
            r = analytic_r(setting, EraserSetting(float(xi), float(theta)))
            assert r == pytest.approx(math.cos(xi + theta) ** 2, abs=1e-12)

    def test_raw_value_pin(self):
        setting = PairSetting(1e6, tau=0.0)
        raw = analytic_r(setting, EraserSetting(0.0, 0.0), raw=True)
        assert raw == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_envelope(self):
        setting = PairSetting(1e6, tau=0.0)
        cs = CoincidenceSetting(tau_si=0.5e-6, tau_c=1e-6)
        r = analytic_r(setting, EraserSetting(0.0, 0.0), cs)
        assert r == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_signed_detuning_mapping(self):
        s = setting_for(-1.5e6, 2e-6)
        assert s.delta_f == 1.5e6
        assert s.orientation_sign == -1
        assert setting_for(1.5e6, 2e-6).orientation_sign == 1


class TestFig2a:
    def test_rows_flat_per_setting(self):
        table = run_fig2a(ExperimentConfig())
        values = {}
        for row in table.rows:
            values.setdefault((row[0], row[1]), []).append(row[3])
        for (xi_deg, theta_deg), rs in values.items():
            assert len(rs) == 21
            assert max(rs) - min(rs) < 1e-12
            expected = math.cos(math.radians(xi_deg + theta_deg)) ** 2
            assert rs[0] == pytest.approx(expected, abs=1e-12)

    def test_flat_for_random_angles(self, rng):
        angles = [(float(rng.uniform(0, 180)), float(rng.uniform(0, 180))) for _ in range(50)]
        table = run_fig2a(ExperimentConfig(), angles_deg=angles)
        values = {}
        for row in table.rows:
            values.setdefault((row[0], row[1]), []).append(row[3])
        for rs in values.values():
            assert max(rs) - min(rs) < 1e-12


class TestFig2b:
    def test_matches_cos_squared(self):
        table = run_fig2b(ExperimentConfig())
        assert table.columns == ("xi_deg", "theta_deg", "xi_plus_theta_deg", "r_si")
        assert len(table.rows) == 37
        for row in table.rows:
            gamma = math.radians(row[2])
            assert row[3] == pytest.approx(math.cos(gamma) ** 2, abs=1e-12)

    def test_symmetric_and_pi_periodic(self):
        cfg = ExperimentConfig()
        sweep = [7.0, 33.0, 61.5]
        plus = run_fig2b(cfg, xi_sweep_deg=sweep)
        minus = run_fig2b(cfg, xi_sweep_deg=[-x for x in sweep])
        shifted = run_fig2b(cfg, xi_sweep_deg=[x + 180.0 for x in sweep])
        for p, m, s in zip(plus.rows, minus.rows, shifted.rows):
            assert p[3] == pytest.approx(m[3], abs=1e-12)
            assert p[3] == pytest.approx(s[3], abs=1e-12)

    def test_golden_csv_byte_stable(self, tmp_path):
        golden = (FsPath(__file__).parent / "data" / "fig2b_golden.csv").read_bytes()
        out = tmp_path / "fig2b.csv"
        emit_csv(run_fig2b(ExperimentConfig()), out)
        assert out.read_bytes() == golden
        out2 = tmp_path / "fig2b_again.csv"
        emit_csv(run_fig2b(ExperimentConfig()), out2)
        assert out2.read_bytes() == golden


class TestLocal:
    def test_bare_intensities_constant(self):
        table = run_local(ExperimentConfig())
        i_a = column(table, "i_a")
        i_b = column(table, "i_b")
        assert max(i_a) - min(i_a) < 1e-12
        assert max(i_b) - min(i_b) < 1e-12
        assert i_a[0] == pytest.approx(0.5, abs=1e-12)

    def test_full_visibility_at_45(self):
        table = run_local(ExperimentConfig(), EraserSetting(math.pi / 4, math.pi / 4))
        assert visibility(column(table, "i_s")) == pytest.approx(1.0, abs=1e-9)
        assert visibility(column(table, "i_i")) == pytest.approx(1.0, abs=1e-9)

    def test_xi_zero_flat(self):
        table = run_local(ExperimentConfig(), EraserSetting(0.0, 0.0))
        i_s = column(table, "i_s")
        assert max(i_s) - min(i_s) < 1e-12


class TestDephasing:
    def test_zero_delay_reproduces_unaveraged_fringe(self):
        eraser = EraserSetting(math.pi / 4, math.pi / 4)
        table = run_dephasing(ExperimentConfig(), eraser, taus=[0.0], n_samples=10_000)
        i_s, i_i = table.rows[0][1], table.rows[0][2]
        assert i_s == pytest.approx(0.25 * (1 - 1.0), abs=1e-12)
        assert i_i == pytest.approx(0.25 * (1 + 1.0), abs=1e-12)

    @pytest.mark.parametrize("xi_deg", [0.0, 22.5, 45.0])
    def test_long_delay_settles_at_mean(self, xi_deg):
        eraser = EraserSetting(math.radians(xi_deg), math.radians(xi_deg))
        cfg = ExperimentConfig(seed=5)
        table = run_dephasing(cfg, eraser, taus=[100.0 / cfg.delta_big], n_samples=100_000)
        i_s = table.rows[0][1]
        assert abs(i_s - 0.25) / 0.25 < 0.02

    def test_mean_level_independent_of_angle(self):
        cfg = ExperimentConfig(seed=6)
        tau = 100.0 / cfg.delta_big
        levels = []
        for xi_deg in (0.0, 15.0, 30.0, 45.0, 60.0):
            eraser = EraserSetting(math.radians(xi_deg), 0.0)
            table = run_dephasing(cfg, eraser, taus=[tau], n_samples=100_000)
            levels.append(table.rows[0][1])
        assert max(levels) - min(levels) < 0.25 * 0.02

    def test_xi_zero_flat_at_every_delay(self):
        cfg = ExperimentConfig(seed=7)
        taus = [f / cfg.delta_big for f in (0.0, 0.3, 1.0, 7.0, 100.0)]
        table = run_dephasing(cfg, EraserSetting(0.0, 0.0), taus=taus, n_samples=20_000)
        i_s = [row[1] for row in table.rows]
        assert max(i_s) - min(i_s) < 1e-12
        assert i_s[0] == pytest.approx(0.25, abs=1e-12)


class TestChsh:
    def test_canonical_angles_reach_tsirelson(self):
        result = run_chsh(ExperimentConfig())
        assert result.s_analytic == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_e_values_match_oracle(self, rng):
        cfg = ExperimentConfig()
        for _ in range(20):
            angles = [float(x) for x in rng.uniform(-90, 90, 4)]
            result = run_chsh(cfg, angles_deg=angles)
            a, a2, b, b2 = (math.radians(x) for x in angles)
            expected = abs(chsh_e(a, b) - chsh_e(a, b2) + chsh_e(a2, b) + chsh_e(a2, b2))
            assert result.s_analytic == pytest.approx(expected, abs=1e-9)
            for row, (alpha, beta) in zip(result.table.rows, [(a, b), (a, b2), (a2, b), (a2, b2)]):
                assert row[2] == pytest.approx(math.cos(2 * (alpha + beta)), abs=1e-9)

    def test_all_zero_angles_give_two(self):
        result = run_chsh(ExperimentConfig(), angles_deg=(0.0, 0.0, 0.0, 0.0))
        assert result.s_analytic == pytest.approx(2.0, abs=1e-12)

    def test_envelope_sends_s_to_zero(self):
        cfg = ExperimentConfig()
        s_far = run_chsh(cfg, tau_si=20.0 / cfg.delta_big).s_analytic
        assert s_far == pytest.approx(0.0, abs=1e-12)
        s_mid = run_chsh(cfg, tau_si=0.5 / cfg.delta_big).s_analytic
        assert 0.0 < s_mid < run_chsh(cfg, tau_si=0.0).s_analytic

    def test_mc_agrees(self):
        result = run_chsh(ExperimentConfig(mode=RunMode.BOTH, n_pairs=200_000, seed=13))
        assert result.s_mc is not None
        assert abs(result.s_mc - result.s_analytic) <= 3.0 * result.s_mc_err

    def test_mc_with_delay_rejected(self):
        with pytest.raises(ValueError):
            run_chsh(ExperimentConfig(mode=RunMode.MC), tau_si=1e-6)


class TestMcEstimates:
    def test_stochastic_fringe_has_full_visibility(self):
        erasers = [EraserSetting(math.radians(x), 0.0) for x in range(0, 195, 15)]
        estimates = mc_estimates(erasers, 1_000_000, seed=23)
        series = [e.r_normalized for e in estimates]
        # full contrast within the counting error of the extremes
        err = max(e.stat_error for e in estimates)
        assert visibility(series) == pytest.approx(1.0, abs=3 * err + 1e-12)

    def test_same_seed_same_estimates(self):
        erasers = [EraserSetting(math.radians(x), 0.0) for x in (0, 30, 60, 90)]
        first = mc_estimates(erasers, 50_000, seed=17)
        second = mc_estimates(erasers, 50_000, seed=17)
        assert [e.r_normalized for e in first] == [e.r_normalized for e in second]
        assert [e.n_accepted for e in first] == [e.n_accepted for e in second]

    def test_both_mode_self_check_passes(self):
        table = run_fig2b(
            ExperimentConfig(mode=RunMode.BOTH, n_pairs=100_000, seed=19),
            xi_sweep_deg=[0.0, 30.0, 60.0, 90.0],
        )
        assert "discrepancy_sigma" in table.columns
        for sigma in column(table, "discrepancy_sigma"):
            assert sigma <= 3.0

    def test_both_mode_detects_systematic_error(self, monkeypatch):
        import cesim.experiments as exp

        def broken(setting, eraser, coincidence=None, raw=False):
            return 0.123

        monkeypatch.setattr(exp, "analytic_r", broken)
        with pytest.raises(SelfCheckError):
            exp.run_fig2b(
                ExperimentConfig(mode=RunMode.BOTH, n_pairs=100_000, seed=19),
                xi_sweep_deg=[0.0, 45.0],
            )


class TestSelfCheck:
    def test_one_cell_is_three_sigma(self):
        assert family_threshold(1) == pytest.approx(3.0, abs=1e-12)

    def test_threshold_rises_with_cell_count(self):
        thresholds = [family_threshold(m) for m in (1, 2, 20, 37, 84, 324, 10_000)]
        assert all(lo < hi for lo, hi in zip(thresholds, thresholds[1:]))
        assert [round(z, 3) for z in thresholds[2:6]] == [3.817, 3.966, 4.157, 4.456]

    def test_sigma_per_cell(self):
        cells = [(0.5, 0.5 + 1e-13, 0.0), (0.5, 0.52, 0.01), (0.5, 0.49, 0.01)]
        assert _self_check("unit", cells) == [0.0, pytest.approx(2.0), pytest.approx(1.0)]
        assert _self_check("unit", []) == []

    def test_zero_error_with_a_difference_fails(self):
        # no spread to measure the difference in: a value the run cannot use
        with pytest.raises(ValueError, match="unit cell 1 has a zero standard error: too few pairs"):
            _self_check("unit", [(0.5, 0.5, 0.0), (0.5, 0.6, 0.0)])

    def test_message_names_every_bad_cell_and_the_threshold(self):
        cells = [(0.0, 0.05, 0.01), (0.0, 0.0, 0.01), (0.0, -0.1, 0.01)]
        with pytest.raises(SelfCheckError) as exc:
            _self_check("unit", cells)
        message = str(exc.value)
        assert f"2 of 3 unit cell(s) disagree beyond {family_threshold(3):.3f} sigma" in message
        assert "cell 0 at 5.00" in message and "cell 2 at 10.00" in message
        assert "cell 1 " not in message


BASE_COLUMNS = {
    "fig2a": ("xi_deg", "theta_deg", "delta_f_hz"),
    "fig2b": ("xi_deg", "theta_deg", "xi_plus_theta_deg"),
    "local": ("tau_s", "delta_f_hz", "phi_rad"),
    "dephasing": ("tau_s",),
    "chsh": ("alpha_deg", "beta_deg", "e"),
}
ANALYTIC_COLUMNS = {
    "fig2a": ("r_si",),
    "fig2b": ("r_si",),
    "local": ("i_a", "i_b", "i_s", "i_i"),
    "dephasing": ("mean_i_s", "mean_i_i"),
    "chsh": (),
}
MC_COLUMNS = {
    "fig2a": ("r_si_mc", "r_si_mc_err"),
    "fig2b": ("r_si_mc", "r_si_mc_err"),
    "local": ("i_a_mc", "i_b_mc", "i_s_mc", "i_i_mc"),
    "dephasing": ("mean_i_s_mc", "mean_i_i_mc"),
    "chsh": ("e_mc", "e_mc_err"),
}
BOTH_COLUMNS = {"fig2a": ("discrepancy_sigma",), "fig2b": ("discrepancy_sigma",)}


def _small_run(runner: str, cfg: ExperimentConfig) -> Table:
    if runner == "fig2a":
        return run_fig2a(cfg, angles_deg=[(30.0, 15.0)])
    if runner == "fig2b":
        return run_fig2b(cfg, xi_sweep_deg=[0.0, 30.0, 60.0])
    if runner == "local":
        return run_local(cfg, taus=[0.0, 1e-7, 2e-7])
    if runner == "dephasing":
        return run_dephasing(cfg, taus=[0.0, 1e-6], n_samples=20_000)
    return run_chsh(cfg).table


@pytest.mark.parametrize("mode", list(RunMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("runner", list(BASE_COLUMNS))
def test_column_names(runner, mode):
    table = _small_run(runner, ExperimentConfig(mode=mode, n_pairs=20_000, seed=3))
    expected = BASE_COLUMNS[runner]
    if mode is not RunMode.MC:
        expected += ANALYTIC_COLUMNS[runner]
    if mode is not RunMode.ANALYTIC:
        expected += MC_COLUMNS[runner]
    if mode is RunMode.BOTH:
        expected += BOTH_COLUMNS.get(runner, ())
    assert table.columns == expected
    assert all(len(row) == len(expected) for row in table.rows)


class TestPlantedBias:
    """A twin that is off by a planted bias must fail the BOTH-mode check."""

    @pytest.fixture
    def biased_clicks(self, monkeypatch):
        import cesim.experiments as exp

        honest = exp._click_fraction
        monkeypatch.setattr(exp, "_click_fraction", lambda rng, p, n: honest(rng, p, n) + 0.03)

    def test_local(self, biased_clicks):
        cfg = ExperimentConfig(mode=RunMode.BOTH, n_pairs=20_000, seed=3)
        with pytest.raises(SelfCheckError, match="local intensity cell"):
            run_local(cfg, taus=[0.0, 1e-7, 2e-7])

    def test_dephasing(self, biased_clicks):
        cfg = ExperimentConfig(mode=RunMode.BOTH, seed=3)
        with pytest.raises(SelfCheckError, match="dephasing cell"):
            run_dephasing(cfg, taus=[0.0, 1e-6], n_samples=20_000)

    def test_chsh(self, monkeypatch):
        import cesim.experiments as exp

        honest = exp.analytic_r
        monkeypatch.setattr(exp, "analytic_r", lambda *args, **kw: 0.95 * honest(*args, **kw))
        with pytest.raises(SelfCheckError, match="1 of 1 CHSH S cell"):
            exp.run_chsh(ExperimentConfig(mode=RunMode.BOTH, n_pairs=200_000, seed=13))


class TestCsv:
    def test_empty_table_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv(Table(("a", "b"), []), out)
        assert out.read_text(encoding="utf-8") == "a,b\n"

    def test_roundtrip_through_reference_reader(self, tmp_path):
        table = Table(("x", "y"), [(1.0 / 3.0, 7), (2.5e-7, -1)])
        out = tmp_path / "t.csv"
        emit_csv(table, out)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y"]
        assert float(rows[1][0]) == 1.0 / 3.0  # 17 significant digits round-trip
        assert int(rows[1][1]) == 7
        assert float(rows[2][0]) == 2.5e-7

    def test_float_formatting(self):
        from cesim.experiments import _fmt

        assert _fmt(0.5) == "0.5"
        assert _fmt(1.0 / 3.0) == "0.33333333333333331"
        assert _fmt(True) == "1"
        assert _fmt(7) == "7"
