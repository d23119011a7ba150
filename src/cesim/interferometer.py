"""The two-arm network and its closed-form local observables.

The carrier enters horizontally polarized, is rotated onto the diagonal by
the 22.5 degree wave plate, split across the two arms, tagged with opposite
frequency branches by the arm modulators, folded (arm 1 crosses one extra
mirror before recombination) and recombined on the polarizing splitter.

Normalization: all intensities reported here derive from squaring the
unit-carrier amplitudes, so each output port carries 1/2 before any
analyzer and at most 1/4 behind one. The per-port global phase is fixed by
convention (arm-2 term real and positive); global phases carry no
observable content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import (
    FLAG_BRANCH_PLUS,
    FLAG_POL_V,
    Field,
    aom_tag,
    bs_transform,
    field,
    hwp_22_5,
    mirror,
    pbs_route,
)

# The two arms are detuned by +delta_f and -delta_f, so their interference
# beats at twice the detuning magnitude.  The 2*pi makes the phase
# dimensionally consistent for delta_f in Hz and tau in seconds.
BEAT_HARMONIC = 2


def pair_phase(delta_f: float, tau: float) -> float:
    """Interferometric phase accumulated over the arm delay ``tau``."""
    return 2.0 * math.pi * BEAT_HARMONIC * delta_f * tau


@dataclass(frozen=True, slots=True)
class PairSetting:
    """Physical knobs of one frequency-tagged pair: detuning magnitude,
    branch orientation (+1 when arm 1 carries the positive branch, -1 when
    arm 2 does) and arm delay."""

    delta_f: float
    orientation_sign: int = 1
    tau: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.delta_f) or self.delta_f < 0:
            raise ValueError("delta_f must be finite and non-negative")
        if self.orientation_sign not in (1, -1):
            raise ValueError("orientation_sign must be +1 or -1")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")

    @property
    def phase(self) -> float:
        return pair_phase(self.delta_f, self.tau)


@dataclass(frozen=True, slots=True)
class EraserSetting:
    """Analyzer angles in radians: ``xi`` at port A, ``theta`` at port B."""

    xi: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and math.isfinite(self.theta)):
            raise ValueError("analyzer angles must be finite")


def _split_into_arms(fld: Field) -> Field:
    """Balanced splitter across the arm pair, per polarization and branch."""
    out = list(fld)
    for tag in range(4):
        out[tag], out[4 + tag] = bs_transform(fld[tag], fld[4 + tag])
    return tuple(out)


def _anchor_phase(fld: Field) -> Field:
    """Rotate the global phase so the arm-2 term is real and positive."""
    for amp in fld[4:]:
        if amp != 0:
            factor = (amp / abs(amp)).conjugate()
            return tuple(a * factor for a in fld)
    return fld


_CARRIER = field({FLAG_BRANCH_PLUS: 1.0})  # arm 1, H, positive branch


def output_fields(setting: PairSetting) -> tuple[Field, Field]:
    """Propagate a unit carrier through the network.

    Returns the port A and port B fields. Port A holds the arm-1 V term
    (amplitude -e^{i s phi}/2) and the arm-2 H term (+1/2); port B holds
    the arm-1 H term (+e^{i s phi}/2) and the arm-2 V term (+1/2), with
    s the orientation sign. The arm carrying the positive branch has tag
    bit 0 set. Both ports carry power 1/2.
    """
    sign = setting.orientation_sign
    split = _split_into_arms(hwp_22_5(_CARRIER))
    tagged = aom_tag(split, 0, sign > 0, sign * setting.phase)
    tagged = aom_tag(tagged, 1, sign < 0, 0.0)
    folded = mirror(tagged, 0)  # arm 1 crosses one extra fold
    port_a, port_b = pbs_route(folded)
    return _anchor_phase(port_a), _anchor_phase(port_b)


def eraser_amplitudes(setting: PairSetting, eraser: EraserSetting) -> tuple[Field, Field]:
    """Common-basis amplitudes behind the two analyzers.

    Each slot keeps its (arm, polarization-origin, branch) index and its
    amplitude is scaled by the projection of its original polarization onto
    the analyzer axis. The port B field carries a conventional global i.
    """
    port_a, port_b = output_fields(setting)
    c, s = math.cos(eraser.xi), math.sin(eraser.xi)
    e_s = tuple(amp * (s if k & FLAG_POL_V else c) for k, amp in enumerate(port_a))
    c, s = math.cos(eraser.theta), math.sin(eraser.theta)
    e_i = tuple(1j * amp * (s if k & FLAG_POL_V else c) for k, amp in enumerate(port_b))
    return e_s, e_i


def eraser_intensity(fld: Field) -> float:
    """Intensity behind an analyzer: all slots share the analyzer axis and
    interfere, so this is the squared modulus of the coherent sum."""
    return abs(sum(fld, 0j)) ** 2


def port_intensities(xi, theta, phi):
    """Closed forms of the analyzer-passed intensities at both ports.

    I_s = (1 - sin(2 xi) cos(phi)) / 4 and I_i = (1 + sin(2 theta) cos(phi)) / 4.
    Accepts scalars or numpy arrays; cross-checked against the structural
    amplitude path in the test suite.
    """
    cos_phi = np.cos(phi)
    i_s = 0.25 * (1.0 - np.sin(2.0 * np.asarray(xi)) * cos_phi)
    i_i = 0.25 * (1.0 + np.sin(2.0 * np.asarray(theta)) * cos_phi)
    return i_s, i_i
