"""Gated coincidence selection and the joint correlation it induces.

The selection rule keeps exactly the cross-port pairs that share a
polarization basis at opposite frequency branches; bunched (same-port) and
cross-polarization outcomes are discarded.  Behind both analyzers the two
surviving product terms add coherently, which turns two independent local
angles into the joint fringe cos^2(xi + theta) with the detuning phase
cancelled.

The Monte Carlo side assigns each generated pair an outcome class whose
probabilities come from squaring the summed route amplitudes; the test
suite pins these constants against an independent brute-force enumeration
of the routing tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .interferometer import EraserSetting
from .optics import FLAG_BRANCH_PLUS, FLAG_POL_V, N_SLOTS, TAG_BITS, Field
from .source import PairBatch


# A detected photon's mode tag is the low two bits of its CESIMTT1 flags
# byte (the bits are defined with the field slots in ``optics``).  The arm
# of origin is not part of it: port A sees the arm-1 photon as V and the
# arm-2 photon as H, port B the reverse, so on a cross-port pair (port,
# polarization) already names the arm.


def mode_tag(route, port, sign):
    """Tag of the photon from arm ``route`` (1 or 2) that exits ``port``
    (0 = A, 1 = B) of a pair whose arm 1 carries branch ``sign``.

    Works on ints and, elementwise, on numpy arrays.
    """
    arm1 = route == 1
    return ((sign > 0) == arm1) * FLAG_BRANCH_PLUS + (arm1 == (port == 0)) * FLAG_POL_V


@dataclass(frozen=True)
class SelectionRule:
    """Accept table over the detected tags of a cross-port pair.

    Bit ``4 * tag_d1 + tag_d2`` of ``mask`` is set when a pair with those
    D1 (port A) and D2 (port B) tags is kept.
    """

    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= 0xFFFF:
            raise ValueError("selection mask must fit in 16 bits")

    def accepts(self, tag_d1: int, tag_d2: int) -> bool:
        return bool(self.mask >> (4 * tag_d1 + tag_d2) & 1)

    @classmethod
    def heterodyne(cls) -> "SelectionRule":
        """Same polarization at opposite branches.  Across the two ports a
        shared polarization means opposite arms of origin."""
        return cls(sum(1 << (4 * tag + (tag ^ FLAG_BRANCH_PLUS)) for tag in range(4)))


_HETERODYNE = SelectionRule.heterodyne()


@dataclass(frozen=True, slots=True)
class CoincidenceSetting:
    """Electronic side of the coincidence measurement: tau_si is the fixed
    delay between the two detector pulses, tau_c the ensemble coherence
    time (the inverse modulation bandwidth by default).  The acceptance
    window is the matcher's integer ``window_ps``."""

    tau_si: float = 0.0
    tau_c: float = 1.0e-6

    def __post_init__(self):
        if not math.isfinite(self.tau_si) or self.tau_si < 0:
            raise ValueError("tau_si must be finite and non-negative")
        if not math.isfinite(self.tau_c) or self.tau_c <= 0:
            raise ValueError("tau_c must be positive")

    @classmethod
    def for_bandwidth(cls, delta_big: float, **kwargs) -> "CoincidenceSetting":
        return cls(tau_c=1.0 / delta_big, **kwargs)


@dataclass(frozen=True, slots=True)
class CorrelationEstimate:
    """Normalized coincidence rate with counting statistics.

    ``stat_error`` is one standard deviation; the consistency check against
    the physical range [0, 1] uses a six sigma band so that legitimate
    statistical excursions above 1 at the fringe peak do not raise.
    """

    r_normalized: float
    n_generated: int
    n_accepted: int
    stat_error: float

    def __post_init__(self):
        if self.n_accepted > self.n_generated:
            raise ValueError("accepted count cannot exceed generated count")
        if self.r_normalized < 0 or not math.isfinite(self.r_normalized):
            raise ValueError("normalized rate must be finite and non-negative")
        if self.stat_error < 0 or not math.isfinite(self.stat_error):
            raise ValueError("statistical error must be finite and non-negative")
        if self.r_normalized - 6.0 * self.stat_error > 1.0:
            raise ValueError("normalized rate is inconsistent with the range [0, 1]")


def heterodyne_product(e_s: Field, e_i: Field, rule: SelectionRule | None = None) -> complex:
    """Coherent sum of the rule-accepted terms of the two-port product.

    ``e_s`` is the port A (D1) field and ``e_i`` the port B (D2) field; the
    low two bits of a slot index are that term's tag.  For the network
    fields this equals (i/4) e^{i s phi} cos(xi + theta): both surviving
    terms carry the same detuning phase, so the modulus is detuning-free.
    """
    if not all(isinstance(f, tuple) and len(f) == N_SLOTS for f in (e_s, e_i)):
        raise TypeError("heterodyne_product needs two 8-slot fields")
    rule = rule or _HETERODYNE
    terms_b = [(k & TAG_BITS, amp) for k, amp in enumerate(e_i) if amp]
    total = 0j
    for k, amp_a in enumerate(e_s):
        if amp_a:
            for tag_b, amp_b in terms_b:
                if rule.accepts(k & TAG_BITS, tag_b):
                    total += amp_a * amp_b
    return total


class Outcome(IntEnum):
    """Joint detection outcome classes of one generated pair, numbered in
    the order the click synthesizer draws them."""

    COINCIDENCE = 0           # one click each detector, rule-accepted
    REJECTED_COINCIDENCE = 1  # one click each detector, rule-rejected
    ONLY_D1 = 2
    ONLY_D2 = 3
    NO_CLICKS = 4
    SAME_PORT_A = 5
    SAME_PORT_B = 6


def outcome_probabilities(shared_path: int | None, eraser: EraserSetting | None) -> tuple[float, ...]:
    """Outcome-class probabilities, indexed by ``Outcome``, of a pair whose
    photons share the arm ``shared_path`` (1 or 2), or take different arms
    when it is None.

    Same-path pairs never produce an accepted cross-detector coincidence;
    cross-path pairs reach the accepted class with probability
    cos^2(xi + theta) / 4 behind analyzers and 1/2 without them. The
    weights sum to one exactly.
    """
    if eraser is None:
        if shared_path is None:
            return (0.5, 0.0, 0.0, 0.0, 0.0, 0.25, 0.25)
        return (0.0, 0.5, 0.0, 0.0, 0.0, 0.25, 0.25)
    if shared_path is None:
        # The two cross-port routes land in the same final mode pair and
        # add coherently; squaring the summed route amplitudes yields this split.
        c2 = math.cos(eraser.xi + eraser.theta) ** 2
        s2 = 1.0 - c2
        return (0.25 * c2, 0.0, 0.25 * s2, 0.25 * s2, 0.25 * c2, 0.25, 0.25)
    if shared_path == 1:
        t_a = math.sin(eraser.xi) ** 2
        t_b = math.cos(eraser.theta) ** 2
    else:
        t_a = math.cos(eraser.xi) ** 2
        t_b = math.sin(eraser.theta) ** 2
    p_rej = 0.5 * t_a * t_b
    p_d1 = 0.5 * t_a * (1.0 - t_b)
    p_d2 = 0.5 * (1.0 - t_a) * t_b
    # complement keeps the class weights summing to exactly 1
    p_none = max(0.5 - p_rej - p_d1 - p_d2, 0.0)
    return (0.0, p_rej, p_d1, p_d2, p_none, 0.25, 0.25)


def route_split(eraser: EraserSetting) -> tuple[float, ...]:
    """P(the arm-1 photon sits at port A | the outcome of a cross-path
    pair), indexed by ``Outcome``; 1/2 where the clicks do not depend on it."""
    s_xi, c_xi, s_th, c_th = (f(a) for a in (eraser.xi, eraser.theta) for f in (math.sin, math.cos))
    splits = [0.5] * len(Outcome)
    for outcome, w1, w2 in (
        (Outcome.COINCIDENCE, (s_xi * s_th) ** 2, (c_xi * c_th) ** 2),
        (Outcome.ONLY_D1, (s_xi * c_th) ** 2, (c_xi * s_th) ** 2),
        (Outcome.ONLY_D2, (c_xi * s_th) ** 2, (s_xi * c_th) ** 2),
    ):
        if w1 + w2 != 0:
            splits[outcome] = w1 / (w1 + w2)
    return tuple(splits)


def _pair_state(route1, route2, port1, port2, sign):
    """Index 0..31 of a pair's (route1, route2, port1, port2, sign) state;
    works on ints and, elementwise, on numpy arrays."""
    return (route1 - 1) + 2 * (route2 - 1) + 4 * port1 + 8 * port2 + 16 * (sign > 0)


def _pair_accepted(route1, route2, port1, port2, sign, rule: SelectionRule) -> bool:
    if port1 == port2:
        return False
    tag1, tag2 = mode_tag(route1, port1, sign), mode_tag(route2, port2, sign)
    return rule.accepts(tag1, tag2) if port1 == 0 else rule.accepts(tag2, tag1)


def selection_efficiency(batch: PairBatch, rule: SelectionRule | None = None) -> float:
    """Fraction of generated pairs in the rule-accepted class, before any
    analyzer.  With the heterodyne rule the expectation is 1/4: half of
    the pairs split across the arms and half of those exit distinct ports.
    """
    rule = rule or _HETERODYNE
    states = _pair_state(batch.route1, batch.route2, batch.port1, batch.port2, batch.orientation_sign)
    counts = np.bincount(np.asarray(states, dtype=np.intp), minlength=32)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("selection efficiency is undefined for an empty stream")
    accepted = 0
    for state in itertools.product((1, 2), (1, 2), (0, 1), (0, 1), (-1, 1)):
        if _pair_accepted(*state, rule):
            accepted += int(counts[_pair_state(*state)])
    return accepted / n


def sample_coincidence_counts(
    n_pairs: int, eraser: EraserSetting | None, rng: np.random.Generator
) -> tuple[int, int]:
    """Event-level draw of (cross-path count, accepted-coincidence count)
    for ``n_pairs`` generated pairs."""
    route1 = rng.integers(0, 2, n_pairs)
    route2 = rng.integers(0, 2, n_pairs)
    n_cross = int(np.count_nonzero(route1 != route2))
    p_accept = outcome_probabilities(None, eraser)[Outcome.COINCIDENCE]
    hits = rng.random(n_cross) < p_accept
    return n_cross, int(np.count_nonzero(hits))
