import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cesim.detection import (
    FLAG_BRANCH_PLUS,
    FLAG_POL_V,
    CoincidenceSetting,
    CorrelationEstimate,
    HETERODYNE_ACCEPT,
    Outcome,
    class_table,
    heterodyne_product,
    mode_tag,
    sample_coincidence_counts,
    selection_efficiency,
)
from cesim.eventstream import REJECT_REASONS, TagStream, match_coincidences
from cesim.experiments import analytic_r
from cesim.interferometer import EraserSetting, PairSetting, eraser_amplitudes
from cesim.source import PairBatch, SourceConfig, sample_n_pairs

from _oracles import (
    RULE_MASKS,
    RULE_PREDICATES,
    accept_table,
    accepted_route_split,
    analyzer_transmission,
    correlation_r,
    cross_pair_classes,
    default_accept,
    heterodyne_sum,
    label_from_click,
    lone_click_route_split,
    pair_accepted,
    photon_tag,
    reject_reason,
    same_pair_classes,
    selection_rule,
    visibility,
)

V_PLUS = FLAG_POL_V | FLAG_BRANCH_PLUS
V_MINUS = FLAG_POL_V
H_PLUS = FLAG_BRANCH_PLUS
H_MINUS = 0
TAG_PAIRS = [(tag_d1, tag_d2) for tag_d1 in range(4) for tag_d2 in range(4)]


def make_batch(n, route1=1, route2=2, port1=0, port2=1):
    """``n`` identical pairs with arm 1 on the positive branch."""
    def column(value, dtype):
        return np.full(n, value, dtype=dtype)

    return PairBatch(
        pair_id=np.arange(n, dtype=np.uint32),
        delta_f=column(1e6, np.float64),
        orientation_sign=column(1, np.int8),
        route1=column(route1, np.uint8),
        route2=column(route2, np.uint8),
        port1=column(port1, np.uint8),
        port2=column(port2, np.uint8),
        t_emit_ps=column(0, np.uint64),
    )


class TestSelectionRule:
    def test_heterodyne_accepts_matched_pairs(self):
        def accepts(tag_d1, tag_d2):
            return HETERODYNE_ACCEPT[4 * tag_d1 + tag_d2]

        assert accepts(V_PLUS, V_MINUS)  # arm 1 at D1, arm 2 at D2
        assert accepts(H_MINUS, H_PLUS)  # arm 2 at D1, arm 1 at D2
        assert not accepts(V_PLUS, H_PLUS)  # same arm, same branch
        assert not accepts(H_MINUS, V_MINUS)
        assert not accepts(V_PLUS, V_PLUS)  # same branch

    def test_heterodyne_mask(self):
        assert HETERODYNE_ACCEPT == accept_table(RULE_MASKS["heterodyne"])

    @pytest.mark.parametrize("name", sorted(RULE_PREDICATES))
    def test_accept_table_matches_label_predicate(self, name):
        table = accept_table(RULE_MASKS[name])
        for tag_d1, tag_d2 in TAG_PAIRS:
            expected = RULE_PREDICATES[name](label_from_click(0, tag_d1), label_from_click(1, tag_d2))
            assert table[4 * tag_d1 + tag_d2] is expected, (tag_d1, tag_d2)

    @pytest.mark.parametrize("name", sorted(RULE_PREDICATES))
    def test_reject_reasons_match_label_oracle(self, name):
        # D1 and D2 click k, both at 1000 * k ps, carry the k-th tag pair
        t = np.repeat(1000 * np.arange(16), 2)
        flags = np.array(TAG_PAIRS).ravel()
        stream = TagStream.from_fields(t, np.tile([0, 1], 16), flags, t // 1000)
        with selection_rule(name):
            out = match_coincidences(stream, 10)
        assert len(out) == 16
        for row, (tag_d1, tag_d2) in zip(out, TAG_PAIRS):
            label_d1, label_d2 = label_from_click(0, tag_d1), label_from_click(1, tag_d2)
            accepted = RULE_PREDICATES[name](label_d1, label_d2)
            assert bool(row["accepted"]) is accepted
            expected = "none" if accepted else reject_reason(label_d1, label_d2)
            assert REJECT_REASONS[row["reason"]] == expected, (tag_d1, tag_d2)


class TestHeterodyneProduct:
    def test_aligned_analyzers_quarter_amplitude(self):
        e_s, e_i = eraser_amplitudes(PairSetting(1e6, tau=1e-6), EraserSetting(0.0, 0.0))
        product = heterodyne_product(e_s, e_i)
        assert abs(product) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_sum_cancels(self):
        e_s, e_i = eraser_amplitudes(
            PairSetting(1e6, tau=1e-6), EraserSetting(math.radians(30), math.radians(60))
        )
        assert abs(heterodyne_product(e_s, e_i)) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_with_phase(self, rng):
        for _ in range(100):
            setting = PairSetting(float(rng.uniform(0, 2e6)), tau=float(rng.uniform(0, 1e-5)))
            eraser = EraserSetting(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            product = heterodyne_product(*eraser_amplitudes(setting, eraser))
            expected = 0.25j * cmath.exp(1j * setting.phase) * math.cos(eraser.xi + eraser.theta)
            assert product == pytest.approx(expected, abs=1e-12)

    def test_brute_force_expansion_oracle(self, rng):
        # the gated modulus-squared equals the sum over the accepted subset
        # of the explicitly expanded tagged monomials
        for _ in range(100):
            xi = float(rng.uniform(-3, 3))
            theta = float(rng.uniform(-3, 3))
            sigma = 1 if rng.random() < 0.5 else -1
            delta_f = float(rng.uniform(0, 2e6))
            tau = float(rng.uniform(0, 1e-5))
            setting = PairSetting(delta_f, sigma, tau)
            product = heterodyne_product(*eraser_amplitudes(setting, EraserSetting(xi, theta)))
            oracle = heterodyne_sum(xi, theta, sigma, setting.phase, default_accept)
            assert abs(product) ** 2 == pytest.approx(abs(oracle) ** 2, abs=1e-12)

    def test_inverted_rule_keeps_phase_dependence(self, rng):
        for _ in range(50):
            xi = float(rng.uniform(0.2, 1.2))
            theta = float(rng.uniform(0.2, 1.2))
            setting = PairSetting(1.3e6, tau=float(rng.uniform(0, 1e-5)))
            e_s, e_i = eraser_amplitudes(setting, EraserSetting(xi, theta))
            with selection_rule("inverted"):
                product = heterodyne_product(e_s, e_i)
            phi = setting.phase
            # hand expansion of the two rejected monomials
            expected = 0.25j * (
                math.cos(xi) * math.sin(theta) - math.sin(xi) * math.cos(theta) * cmath.exp(2j * phi)
            )
            assert product == pytest.approx(expected, abs=1e-12)

    def test_rejects_untagged_input(self):
        with pytest.raises(TypeError):
            heterodyne_product([0.5], [0.5j])

    def test_orientation_and_detuning_independence_exact(self):
        # |product|^2 identical across the full default grid and both orientations
        eraser = EraserSetting(math.radians(33), math.radians(12))
        reference = None
        for df in np.arange(-2e6, 2.2e6, 2e5):
            for sign in (1, -1):
                setting = PairSetting(abs(float(df)), sign, 3e-6)
                value = abs(heterodyne_product(*eraser_amplitudes(setting, eraser))) ** 2
                if reference is None:
                    reference = value
                assert value == pytest.approx(reference, abs=1e-12)


class TestCorrelationR:
    def test_peak(self):
        assert analytic_r(PairSetting(1e6), EraserSetting(0, 0), CoincidenceSetting()) == 1.0

    def test_orthogonal_zero(self):
        value = analytic_r(
            PairSetting(1e6), EraserSetting(math.radians(50), math.radians(40)), CoincidenceSetting(tau_si=2e-6)
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_envelope_value(self):
        xi = theta = math.radians(22.5)
        cs = CoincidenceSetting(tau_si=1e-6, tau_c=1e-6)
        value = analytic_r(PairSetting(1e6), EraserSetting(xi, theta), cs)
        assert value == pytest.approx(math.exp(-2) * 0.5, abs=1e-12)
        assert value == pytest.approx(0.06767, abs=5e-6)

    def test_strictly_monotone_in_tau_si(self):
        eraser = EraserSetting(0.2, 0.1)
        values = [
            analytic_r(PairSetting(1e6), eraser, CoincidenceSetting(tau_si=t, tau_c=1e-6))
            for t in np.linspace(0, 5e-6, 40)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_closed_form_oracle(self, rng):
        for _ in range(200):
            xi, theta = (float(x) for x in rng.uniform(-3, 3, 2))
            setting = PairSetting(float(rng.uniform(0, 2e6)), int(rng.choice((1, -1))), float(rng.uniform(0, 1e-5)))
            cs = CoincidenceSetting(tau_si=float(rng.uniform(0, 2e-6)), tau_c=1e-6)
            expected = correlation_r(xi, theta, cs.tau_si, cs.tau_c)
            assert analytic_r(setting, EraserSetting(xi, theta), cs) == pytest.approx(expected, abs=1e-12)

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            CoincidenceSetting(tau_c=0.0)
        with pytest.raises(ValueError):
            CoincidenceSetting(tau_si=-1e-9)
        assert CoincidenceSetting.for_bandwidth(2e6).tau_c == pytest.approx(5e-7)


class TestOutcomeDistribution:
    def test_sums_to_one_exactly_cross(self, rng):
        for _ in range(300):
            eraser = EraserSetting(float(rng.uniform(-7, 7)), float(rng.uniform(-7, 7)))
            assert math.fsum(class_table(eraser).classes[0]) == 1.0

    @given(st.floats(-7, 7), st.floats(-7, 7))
    def test_sums_to_one_hypothesis(self, xi, theta):
        dist = class_table(EraserSetting(xi, theta)).classes[0]
        assert sum(dist) == pytest.approx(1.0, abs=1e-15)
        assert all(p >= 0 for p in dist)

    def test_same_path_never_accepts(self, rng):
        for _ in range(50):
            eraser = EraserSetting(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            dist = class_table(eraser).classes[1]
            assert dist[Outcome.COINCIDENCE] == 0.0
            assert math.fsum(dist) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_analyzers_kill_acceptance(self):
        dist = class_table(EraserSetting(math.radians(30), math.radians(60))).classes[0]
        assert dist[Outcome.COINCIDENCE] == pytest.approx(0.0, abs=1e-32)

    def test_aligned_acceptance_pinned_by_oracle(self):
        dist = class_table(EraserSetting(0.0, 0.0)).classes[0]
        oracle = cross_pair_classes(0.0, 0.0)
        assert dist[Outcome.COINCIDENCE] == pytest.approx(oracle["coincidence"], abs=1e-15)
        assert dist[Outcome.COINCIDENCE] == pytest.approx(0.25, abs=1e-15)

    def test_cross_distribution_matches_enumeration_oracle(self, rng):
        mapping = {
            Outcome.COINCIDENCE: "coincidence",
            Outcome.ONLY_D1: "only_d1",
            Outcome.ONLY_D2: "only_d2",
            Outcome.NO_CLICKS: "no_clicks",
            Outcome.SAME_PORT_A: "same_port_a",
            Outcome.SAME_PORT_B: "same_port_b",
        }
        for _ in range(100):
            xi, theta = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            dist = class_table(EraserSetting(xi, theta)).classes[0]
            oracle = cross_pair_classes(xi, theta, phi=float(rng.uniform(0, 6)))
            for outcome, key in mapping.items():
                assert dist[outcome] == pytest.approx(oracle[key], abs=1e-12), (xi, theta, outcome)

    def test_same_path_distribution_matches_enumeration_oracle(self, rng):
        mapping = {
            Outcome.REJECTED_COINCIDENCE: "rejected_coincidence",
            Outcome.ONLY_D1: "only_d1",
            Outcome.ONLY_D2: "only_d2",
            Outcome.NO_CLICKS: "no_clicks",
            Outcome.SAME_PORT_A: "same_port_a",
            Outcome.SAME_PORT_B: "same_port_b",
        }
        for arm in (1, 2):
            for _ in range(50):
                xi, theta = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
                dist = class_table(EraserSetting(xi, theta)).classes[arm]
                oracle = same_pair_classes(arm, xi, theta)
                for outcome, key in mapping.items():
                    assert dist[outcome] == pytest.approx(oracle[key], abs=1e-12)


@given(
    st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi),
)
def test_route_split_matches_the_split_oracles(xi, theta):
    eraser = EraserSetting(xi, theta)
    split = class_table(eraser).splits
    assert split[Outcome.COINCIDENCE] == pytest.approx(accepted_route_split(eraser), abs=1e-15)
    assert split[Outcome.ONLY_D1] == pytest.approx(lone_click_route_split(eraser, 0), abs=1e-15)
    assert split[Outcome.ONLY_D2] == pytest.approx(lone_click_route_split(eraser, 1), abs=1e-15)
    assert len(split) == len(Outcome)


@given(
    st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi),
    st.sampled_from([1, 2]),
    st.sampled_from([0, 1]),
    st.sampled_from([-1, 1]),
)
def test_transmissions_and_mode_tags_match_the_oracles(xi, theta, arm, port, sign):
    transmission = class_table(EraserSetting(xi, theta)).transmission[arm - 1][port]
    assert transmission == pytest.approx(analyzer_transmission(arm, port, xi, theta), abs=1e-15)
    assert mode_tag(arm, port, sign) == photon_tag(arm, port, sign)


@given(st.floats(-7, 7), st.floats(-7, 7))
def test_structurally_impossible_classes_are_exactly_zero(xi, theta):
    classes = class_table(EraserSetting(xi, theta)).classes
    assert classes[0][Outcome.REJECTED_COINCIDENCE] == 0.0
    assert classes[1][Outcome.COINCIDENCE] == classes[2][Outcome.COINCIDENCE] == 0.0
    assert all(math.fsum(row) == 1.0 and min(row) >= 0.0 for row in classes)


def test_planted_splitter_sign_fault_moves_both_sides(monkeypatch):
    """Both sides of the ``both`` check read one network, so a network
    fault must move the closed form and the Monte Carlo class together, off
    cos^2(xi + theta), where the acceptance gate sees it."""
    import cesim.interferometer as interferometer

    def pbs_route_without_sign_flip(fld):
        z = 0j
        return (z, z, fld[2], fld[3], fld[4], fld[5], z, z), (fld[0], fld[1], z, z, z, z, fld[6], fld[7])

    def offsets(eraser):
        expected = math.cos(eraser.xi + eraser.theta) ** 2
        accepted = 4 * class_table(eraser).classes[0][Outcome.COINCIDENCE]
        return abs(analytic_r(PairSetting(1e6), eraser) - expected), abs(accepted - expected)

    eraser = EraserSetting(math.radians(22.5), math.radians(22.5))
    assert max(offsets(eraser)) < 1e-15
    monkeypatch.setattr(interferometer, "pbs_route", pbs_route_without_sign_flip)
    assert min(offsets(eraser)) > 0.4  # both read cos^2(xi - theta) = 1 instead of 1/2


class TestSelectionEfficiency:
    def test_quarter_at_1e5(self):
        batch = sample_n_pairs(SourceConfig(seed=21), 100_000)
        eff = selection_efficiency(batch)
        assert abs(eff - 0.25) < 0.004

    def test_gating_disabled_half(self):
        batch = sample_n_pairs(SourceConfig(seed=22), 100_000)
        with selection_rule("cross_port_only"):
            eff = selection_efficiency(batch)
        assert abs(eff - 0.5) < 0.005

    def test_same_path_only_zero(self):
        assert selection_efficiency(make_batch(100, route1=1, route2=1, port1=0, port2=1)) == 0.0

    def test_empty_stream_error(self):
        with pytest.raises(ValueError):
            selection_efficiency(make_batch(0))

    @pytest.mark.parametrize("name", sorted(RULE_PREDICATES))
    def test_every_rule_matches_per_pair_oracle(self, name):
        batch = sample_n_pairs(SourceConfig(seed=24), 4_000)
        accepted = sum(
            pair_accepted(
                int(batch.route1[i]), int(batch.route2[i]), int(batch.port1[i]), int(batch.port2[i]),
                int(batch.orientation_sign[i]), RULE_PREDICATES[name],
            )
            for i in range(len(batch))
        )
        with selection_rule(name):
            assert selection_efficiency(batch) == accepted / len(batch)

    def test_event_level_sampler_matches_law(self):
        rng = np.random.default_rng(31)
        n = 200_000
        n_acc = sample_coincidence_counts(n, EraserSetting(0.0, 0.0), rng)
        assert abs(n_acc / n - 0.125) < 3 * math.sqrt(0.125 * 0.875 / n)


class TestVisibility:
    def test_cos_squared_full_contrast(self):
        series = [(d, math.cos(math.radians(d)) ** 2) for d in range(0, 360, 5)]
        assert visibility(series) == pytest.approx(1.0, abs=1e-9)

    def test_constant_series_zero(self):
        assert visibility([(0, 0.3), (1, 0.3), (2, 0.3)]) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            visibility([(0, 0.0), (1, 0.0)])

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            visibility([(0, 1.0)])

    def test_bare_values_accepted(self):
        assert visibility([0.0, 1.0]) == 1.0


class TestCorrelationEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationEstimate(0.5, 10, 11, 0.1)
        with pytest.raises(ValueError):
            CorrelationEstimate(-0.1, 10, 1, 0.1)
        with pytest.raises(ValueError):
            CorrelationEstimate(2.0, 10, 1, 0.01)
        CorrelationEstimate(1.004, 10**6, 125_000, 0.004)  # peak-noise excursion is fine
