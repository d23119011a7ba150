import cmath
import math

import numpy as np
import pytest

from cesim.interferometer import (
    BEAT_HARMONIC,
    EraserSetting,
    PairSetting,
    eraser_amplitudes,
    eraser_intensity,
    local_intensity,
    output_fields,
    pair_phase,
    port_intensities,
)
from cesim.detection import mode_tag
from cesim.optics import TAG_BITS, field, power

from _oracles import eraser_bracket, visibility

# slot 4 * arm + tag, tag = branch_plus + 2 * pol_v; arm 1 on the plus branch
V1, H2, H1, V2 = 3, 4, 1, 6


def occupied(fld):
    return {k for k, amp in enumerate(fld) if amp}


def test_phase_constant():
    assert BEAT_HARMONIC == 2
    assert pair_phase(1e6, 3e-6) == pytest.approx(2 * math.pi * 2 * 1e6 * 3e-6)


class TestOutputFields:
    def test_term_structure(self):
        setting = PairSetting(1e6, tau=1.7e-7)
        port_a, port_b = output_fields(setting)
        assert occupied(port_a) == {V1, H2}
        assert occupied(port_b) == {H1, V2}
        phi = setting.phase
        assert port_a[V1] == pytest.approx(-0.5 * cmath.exp(1j * phi), abs=1e-12)
        assert port_a[H2] == pytest.approx(0.5, abs=1e-12)
        assert port_b[H1] == pytest.approx(0.5 * cmath.exp(1j * phi), abs=1e-12)
        assert port_b[V2] == pytest.approx(0.5, abs=1e-12)

    def test_orientation_flips_branch_labels(self):
        port_a, port_b = output_fields(PairSetting(1e6, -1, 1e-7))
        assert occupied(port_a) == {V1 - 1, H2 + 1}  # arm 1 minus, arm 2 plus

    def test_tau_zero_real_amplitudes(self):
        port_a, port_b = output_fields(PairSetting(1e6, tau=0.0))
        for fld in (port_a, port_b):
            for amp in fld:
                assert amp.imag == pytest.approx(0.0, abs=1e-12)
        assert port_a[V1].real == pytest.approx(-0.5, abs=1e-12)

    def test_total_power_unity(self):
        port_a, port_b = output_fields(PairSetting(0.5e6, tau=4.2e-6))
        assert power(port_a) + power(port_b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_tag_is_the_wire_tag(self, sign):
        # the analytic slot of each photon and the flags tag the click
        # synthesizer writes for it are the same two bits
        ports = output_fields(PairSetting(1e6, sign, 1.7e-7))
        for port, fld in enumerate(ports):
            for route in (1, 2):
                (k,) = {k for k in occupied(fld) if k >> 2 == route - 1}
                assert k & TAG_BITS == mode_tag(route, port, sign)

    def test_negative_delta_f_rejected(self):
        with pytest.raises(ValueError):
            PairSetting(-1.0)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_orientation_sign_outside_pm1_rejected(self, sign):
        with pytest.raises(ValueError):
            PairSetting(1e6, sign)


class TestLocalIntensity:
    @pytest.mark.parametrize("tau", [0.0, 3e-6, 1e-5])
    @pytest.mark.parametrize("delta_f", [0.0, 1e6, 2e6])
    def test_uniform_one_half(self, tau, delta_f):
        port_a, port_b = output_fields(PairSetting(delta_f, tau=tau))
        assert local_intensity(port_a) == pytest.approx(0.5, abs=1e-12)
        assert local_intensity(port_b) == pytest.approx(0.5, abs=1e-12)

    def test_independent_of_everything(self, rng):
        values = set()
        for _ in range(200):
            setting = PairSetting(
                float(rng.uniform(0, 2e6)),
                1 if rng.random() < 0.5 else -1,
                float(rng.uniform(0, 1e-4)),
            )
            port_a, _ = output_fields(setting)
            values.add(round(local_intensity(port_a), 13))
        assert values == {0.5}

    def test_empty_field(self):
        assert local_intensity(field()) == 0.0


class TestEraserAmplitudes:
    def test_xi_zero_keeps_only_arm2(self):
        e_s, _ = eraser_amplitudes(PairSetting(1e6, tau=1e-6), EraserSetting(0.0, 0.3))
        assert occupied(e_s) == {H2}
        assert e_s[H2] == pytest.approx(0.5, abs=1e-12)

    def test_xi_ninety_keeps_only_arm1(self):
        e_s, _ = eraser_amplitudes(PairSetting(1e6, tau=1e-6), EraserSetting(math.pi / 2, 0.3))
        assert abs(e_s[V1]) == pytest.approx(0.5, abs=1e-12)
        assert abs(e_s[H2]) == pytest.approx(0.0, abs=1e-12)

    def test_port_b_structure(self):
        setting = PairSetting(1e6, tau=2.3e-7)
        theta = math.radians(37.0)
        _, e_i = eraser_amplitudes(setting, EraserSetting(0.1, theta))
        assert e_i[H1] == pytest.approx(
            0.5j * math.cos(theta) * cmath.exp(1j * setting.phase), abs=1e-12
        )
        assert e_i[V2] == pytest.approx(0.5j * math.sin(theta), abs=1e-12)

    def test_orientation_conjugates_phases(self, rng):
        # flipping the branch orientation conjugates the relative phase
        # between the arm terms and leaves every magnitude unchanged
        for _ in range(25):
            delta_f = float(rng.uniform(1e5, 2e6))
            tau = float(rng.uniform(0, 1e-5))
            eraser = EraserSetting(float(rng.uniform(0.1, 1.4)), float(rng.uniform(0.1, 1.4)))
            s_plus = eraser_amplitudes(PairSetting(delta_f, 1, tau), eraser)
            s_minus = eraser_amplitudes(PairSetting(delta_f, -1, tau), eraser)
            for f_plus, f_minus in zip(s_plus, s_minus):
                amps_p = [a for a in f_plus if a]  # slot order: arm 1, then arm 2
                amps_m = [a for a in f_minus if a]
                for a_p, a_m in zip(amps_p, amps_m):
                    assert abs(a_p) == pytest.approx(abs(a_m), abs=1e-12)
                ratio_p = amps_p[0] / amps_p[1]
                ratio_m = amps_m[0] / amps_m[1]
                assert ratio_m == pytest.approx(ratio_p.conjugate(), abs=1e-12)


class TestEraserIntensity:
    def test_dark_fringe(self):
        e_s, _ = eraser_amplitudes(PairSetting(1e6, tau=0.0), EraserSetting(math.pi / 4, 0.0))
        assert eraser_intensity(e_s) == pytest.approx(0.0, abs=1e-12)

    def test_bright_fringe_port_b(self):
        _, e_i = eraser_amplitudes(PairSetting(1e6, tau=0.0), EraserSetting(0.0, math.pi / 4))
        assert eraser_intensity(e_i) == pytest.approx(0.5, abs=1e-12)

    def test_22_5_value(self):
        xi = math.radians(22.5)
        e_s, _ = eraser_amplitudes(PairSetting(1e6, tau=0.0), EraserSetting(xi, 0.0))
        assert eraser_intensity(e_s) == pytest.approx(0.25 * (1 - math.sqrt(2) / 2), abs=1e-12)

    def test_matches_closed_form(self, rng):
        for _ in range(200):
            setting = PairSetting(float(rng.uniform(0, 2e6)), tau=float(rng.uniform(0, 1e-5)))
            eraser = EraserSetting(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            e_s, e_i = eraser_amplitudes(setting, eraser)
            i_s, i_i = port_intensities(eraser.xi, eraser.theta, setting.phase)
            assert eraser_intensity(e_s) == pytest.approx(float(i_s), abs=1e-12)
            assert eraser_intensity(e_i) == pytest.approx(float(i_i), abs=1e-12)

    def test_brackets_as_written(self, rng):
        # expanding the conjugate products term by term reproduces
        # 1 -+ sin(2 angle) cos(phi) at 100 random settings
        for _ in range(100):
            xi = float(rng.uniform(-math.pi, math.pi))
            theta = float(rng.uniform(-math.pi, math.pi))
            phi = float(rng.uniform(0, 20))
            assert eraser_bracket(xi, phi) == pytest.approx(1 - math.sin(2 * xi) * math.cos(phi), abs=1e-12)
            assert eraser_bracket(theta, phi, port_b=True) == pytest.approx(
                1 + math.sin(2 * theta) * math.cos(phi), abs=1e-12
            )

    def test_energy_accounting_with_orthogonal_analyzers(self, rng):
        # analyzer at xi plus analyzer at xi + 90 deg recover the bare port power
        for _ in range(50):
            setting = PairSetting(float(rng.uniform(0, 2e6)), tau=float(rng.uniform(0, 1e-5)))
            xi = float(rng.uniform(0, math.pi))
            port_a, _ = output_fields(setting)
            i_1 = eraser_intensity(eraser_amplitudes(setting, EraserSetting(xi, 0.0))[0])
            i_2 = eraser_intensity(eraser_amplitudes(setting, EraserSetting(xi + math.pi / 2, 0.0))[0])
            assert i_1 + i_2 == pytest.approx(local_intensity(port_a), abs=1e-12)


class TestVisibilityLaw:
    @pytest.mark.parametrize("xi_deg", [0.0, 15.0, 22.5, 30.0, 45.0])
    def test_port_a_visibility(self, xi_deg):
        xi = math.radians(xi_deg)
        delta_f = 1e6
        taus = np.linspace(0.0, 1.0 / delta_f, 161)  # two full fringes
        series = []
        for tau in taus:
            e_s, _ = eraser_amplitudes(PairSetting(delta_f, tau=float(tau)), EraserSetting(xi, 0.0))
            series.append((tau, eraser_intensity(e_s)))
        if xi_deg == 0.0:
            values = [v for _, v in series]
            assert max(values) - min(values) < 1e-12
        else:
            assert visibility(series) == pytest.approx(abs(math.sin(2 * xi)), abs=1e-9)
