import math

import numpy as np
import pytest

from cesim.source import DetuningGrid, SourceConfig, poisson_pair_probability, sample_n_pairs


class TestPoissonStatistics:
    def test_zero_mean(self):
        assert poisson_pair_probability(0.0) == 0.0

    def test_value_at_tenth(self):
        assert poisson_pair_probability(0.1) == pytest.approx(math.exp(-0.1) * 0.005, rel=1e-14)
        assert poisson_pair_probability(0.1) == pytest.approx(4.524e-3, abs=5e-7)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pair_probability(-0.5)


class TestDetuningGrid:
    def test_default_grid_has_21_points(self):
        grid = DetuningGrid.default_grid(1e6)
        values = grid.values()
        assert len(values) == 21
        assert values[0] == -2e6 and values[-1] == 2e6
        assert np.allclose(np.diff(values), 2e5)

    def test_uniform_has_no_discrete_values(self):
        with pytest.raises(ValueError):
            DetuningGrid(-1.0, 1.0).values()

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            DetuningGrid(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            DetuningGrid(0.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            DetuningGrid(0.0, 1.0, 0.3)


class TestSourceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceConfig(mu=0.0)
        with pytest.raises(ValueError):
            SourceConfig(rate=-1.0)
        with pytest.raises(ValueError):
            SourceConfig(delta_big=0.0)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_n_pairs(SourceConfig(seed=99), 1000)
        b = sample_n_pairs(SourceConfig(seed=99), 1000)
        for name in ("pair_id", "delta_f", "orientation_sign", "route1", "route2", "port1", "port2", "t_emit_ps"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seeds_differ(self):
        a = sample_n_pairs(SourceConfig(seed=1), 1000)
        b = sample_n_pairs(SourceConfig(seed=2), 1000)
        assert not np.array_equal(a.delta_f, b.delta_f)

    def test_cross_path_fraction(self):
        batch = sample_n_pairs(SourceConfig(seed=5), 100_000)
        frac = np.mean(batch.cross_mask)
        assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)

    def test_grid_values_uniform(self):
        batch = sample_n_pairs(SourceConfig(seed=6), 105_000)
        values, counts = np.unique(batch.delta_f, return_counts=True)
        assert len(values) == 21
        n = len(batch)
        p = 1.0 / 21.0
        sigma = math.sqrt(p * (1 - p) / n)
        deviations = np.abs(counts / n - p)
        assert deviations.max() < 5.0 * sigma

    def test_inter_emission_exponential(self):
        batch = sample_n_pairs(SourceConfig(seed=7), 100_000)
        gaps = np.diff(batch.t_emit_ps.astype(np.float64)) * 1e-12
        mean, var = gaps.mean(), gaps.var()
        n = len(gaps)
        # for an exponential law the variance equals the squared mean;
        # the variance estimator scatters with sd ~ sqrt(8/n) * mean^2
        assert abs(var - mean**2) < 3.0 * math.sqrt(8.0 / n) * mean**2

    def test_choices_pairwise_uncorrelated(self):
        batch = sample_n_pairs(SourceConfig(seed=90), 100_000)
        n = len(batch)
        columns = [
            batch.orientation_sign.astype(float),
            batch.route1.astype(float),
            batch.route2.astype(float),
            batch.port1.astype(float),
            batch.port2.astype(float),
        ]
        for i in range(len(columns)):
            for j in range(i + 1, len(columns)):
                r = np.corrcoef(columns[i], columns[j])[0, 1]
                assert abs(r) < 3.0 / math.sqrt(n)
