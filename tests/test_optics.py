import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cesim.optics import (
    FLAG_BRANCH_PLUS,
    FLAG_POL_V,
    N_SLOTS,
    aom_tag,
    bs_transform,
    field,
    hwp_22_5,
    mirror,
    pbs_route,
    power,
)

from _oracles import splitter_matrix_apply

SQ = math.sqrt(0.5)


def slot(arm, pol_v, branch_plus):
    """Slot of the (arm, polarization, branch) mode; arm 0 is arm 1."""
    return 4 * arm + FLAG_POL_V * pol_v + FLAG_BRANCH_PLUS * branch_plus


H1P, V1P, H1M, V1M = slot(0, 0, 1), slot(0, 1, 1), slot(0, 0, 0), slot(0, 1, 0)
H2P, V2P, H2M, V2M = slot(1, 0, 1), slot(1, 1, 1), slot(1, 0, 0), slot(1, 1, 0)


def random_state(rng):
    """Random network-like field: one frequency branch per arm, so element
    applications never merge physically distinct modes."""
    terms = {}
    for arm in (0, 1):
        plus = rng.random() < 0.5
        for pol_v in (0, 1):
            if rng.random() < 0.85:
                terms[slot(arm, pol_v, plus)] = complex(rng.normal(), rng.normal())
    return field(terms)


finite_amp = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6)


class TestFieldState:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            field({H1P: complex("inf")})

    @given(st.dictionaries(st.integers(0, N_SLOTS - 1), finite_amp, max_size=N_SLOTS))
    def test_power_is_sum_of_squares(self, terms):
        state = field(terms)
        expected = sum(abs(a) ** 2 for a in state)
        assert power(state) == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestSplitter:
    def test_single_input_split(self):
        out_a, out_b = bs_transform(1.0, 0.0)
        assert out_a == pytest.approx(SQ)
        assert out_b == pytest.approx(1j * SQ)
        assert abs(out_a) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out_b) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_zero_input(self):
        assert bs_transform(0.0, 0.0) == (0.0, 0.0)

    def test_in_phase_recombination(self):
        # matched inputs steer all power to one port
        out_a, out_b = bs_transform(SQ, -1j * SQ)
        assert abs(out_a) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(out_b) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_matrix_oracle(self, rng):
        for _ in range(100):
            in_a = complex(rng.normal(), rng.normal())
            in_b = complex(rng.normal(), rng.normal())
            assert bs_transform(in_a, in_b) == splitter_matrix_apply(in_a, in_b)


class TestWavePlate:
    def test_pure_h(self):
        out = hwp_22_5(field({H1P: 1.0}))
        assert out[H1P] == pytest.approx(SQ)
        assert out[V1P] == pytest.approx(SQ)

    def test_pure_v(self):
        out = hwp_22_5(field({V1P: 1.0}))
        assert out[H1P] == pytest.approx(SQ)
        assert out[V1P] == pytest.approx(-SQ)

    def test_involution(self, rng):
        for _ in range(50):
            state = random_state(rng)
            twice = hwp_22_5(hwp_22_5(state))
            for k in range(N_SLOTS):
                assert twice[k] == pytest.approx(state[k], abs=1e-12)


class TestPbs:
    def test_arm1_routing(self):
        port_a, port_b = pbs_route(field({H1P: 0.3 + 0.1j, V1P: 0.7 - 0.2j}))
        assert port_a[V1P] == -(0.7 - 0.2j)
        assert port_b[H1P] == 0.3 + 0.1j
        assert sum(1 for a in port_a if a) == 1 and sum(1 for a in port_b if a) == 1

    def test_arm2_routing(self):
        port_a, port_b = pbs_route(field({H2M: 0.5j, V2M: -0.25}))
        assert port_a[H2M] == 0.5j
        assert port_b[V2M] == -0.25

    def test_empty(self):
        port_a, port_b = pbs_route(field())
        assert not any(port_a) and not any(port_b)

    def test_power_split_exact(self, rng):
        for _ in range(200):
            state = random_state(rng)
            port_a, port_b = pbs_route(state)
            assert power(port_a) + power(port_b) == pytest.approx(power(state), rel=1e-13)


class TestAom:
    def test_tag_and_phase(self):
        phi = 0.4
        out = aom_tag(field({H1P: 1.0}), 0, True, phi)
        assert out[H1P] == pytest.approx(cmath.exp(1j * phi))

    def test_zero_phase_only_relabels(self):
        out = aom_tag(field({V2P: 0.5 - 0.5j}), 1, False, 0.0)
        assert out[V2M] == 0.5 - 0.5j
        assert out[V2P] == 0

    def test_pi_phase_negates(self):
        out = aom_tag(field({V1M: 1.0}), 0, False, math.pi)
        amp = out[V1M]
        assert amp == pytest.approx(-1.0, abs=1e-12)
        assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonfinite_phase(self):
        with pytest.raises(ValueError):
            aom_tag(field({H1P: 1.0}), 0, True, math.nan)

    def test_untouched_arm_preserved(self, rng):
        state = random_state(rng)
        out = aom_tag(state, 0, False, 1.2)
        assert out[4:] == state[4:]


class TestUnitarity:
    def test_lossless_elements_preserve_power(self, rng):
        for _ in range(1000):
            state = random_state(rng)
            p = power(state)
            in_a, in_b = state[H1P], state[H2P]
            out_a, out_b = bs_transform(in_a, in_b)
            assert abs(out_a) ** 2 + abs(out_b) ** 2 == pytest.approx(
                abs(in_a) ** 2 + abs(in_b) ** 2, abs=1e-12
            )
            assert power(hwp_22_5(state)) == pytest.approx(p, rel=1e-12, abs=1e-12)
            assert power(mirror(state)) == pytest.approx(p, rel=1e-12, abs=1e-12)
            assert power(aom_tag(state, 0, False, rng.uniform(0, 7))) == pytest.approx(
                p, rel=1e-12, abs=1e-12
            )

    def test_composition_determinism(self, rng):
        state = random_state(rng)
        first = pbs_route(hwp_22_5(mirror(state, 0)))
        second = pbs_route(hwp_22_5(mirror(state, 0)))
        assert first[0] == second[0] and first[1] == second[1]
