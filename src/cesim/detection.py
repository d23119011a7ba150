"""Gated coincidence selection and the joint correlation it induces.

The selection rule keeps exactly the cross-port pairs that share a
polarization basis at opposite frequency branches; bunched (same-port) and
cross-polarization outcomes are discarded.  Behind both analyzers the two
surviving product terms add coherently, which turns two independent local
angles into the joint fringe cos^2(xi + theta) with the detuning phase
cancelled.

The Monte Carlo side reads what it draws off the same network: a
per-photon table built from ``interferometer.output_fields`` gives the
mode tags and, by the Born rule, the outcome classes, route splits and
same-port transmissions.  Their closed forms live in the test oracles.

This module is the one detector model: ``click_table`` says which
detector each photon of a pair clicks, with which tag, and ``bare_state``
indexes a pair's pre-analyzer state in it.  The click synthesizer and
``selection_efficiency`` both read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .interferometer import EraserSetting, PairSetting, output_fields
from .optics import FLAG_BRANCH_PLUS, FLAG_POL_V, N_SLOTS, TAG_BITS, Field
from .source import PairBatch


def _photon_table(eraser: EraserSetting) -> list:
    """``table[arm - 1][port][plus]`` is (slot tag, pass factors, absorb
    factors) of the photon from arm ``arm`` at ``port`` (0 = A, 1 = B) when
    arm 1 carries the positive branch iff ``plus``.  The factors multiply
    to its amplitude on the analyzer's pass axis (cos a, sin a) or absorb
    axis (-sin a, cos a): sqrt(2) times its arm's slot (an arm holds half
    the carrier), then the projection of the slot's polarization."""
    table = [[[None, None], [None, None]] for _arm in (1, 2)]
    for plus, sign in enumerate((-1, 1)):
        ports = output_fields(PairSetting(0.0, sign))
        for port, (fld, angle) in enumerate(zip(ports, (eraser.xi, eraser.theta))):
            c, s = math.cos(angle), math.sin(angle)
            for k, amp in enumerate(fld):
                if amp:
                    amp, axes = math.sqrt(2.0) * amp, ((s, c) if k & FLAG_POL_V else (c, -s))
                    table[k >> 2][port][plus] = (k & TAG_BITS, *((amp, proj) for proj in axes))
    return table


# A detected photon's mode tag, the low two bits of its CESIMTT1 flags
# byte, is the tag of its slot in the network's port field.  The arm of
# origin is not part of it: port A sees the arm-1 photon as V and the
# arm-2 photon as H, port B the reverse, so on a cross-port pair (port,
# polarization) already names the arm.  Indexed [arm - 1, port, plus].
_SLOT_TAGS = np.array([[[r[0] for r in port] for port in arm] for arm in _photon_table(EraserSetting(0, 0))])


def mode_tag(route, port, sign):
    """Tag of the photon from arm ``route`` (1 or 2) that exits ``port``
    (0 = A, 1 = B) of a pair whose arm 1 carries branch ``sign``.

    Works on ints and, elementwise, on numpy arrays.
    """
    tag = _SLOT_TAGS[route - 1, port, (sign > 0) * 1]
    return tag if tag.ndim else int(tag)


def _born(*orderings) -> float:
    """|sum over ``orderings`` of the product of each one's factors|^2,
    exact and rounded once, so cancelling orderings leave no residue: each
    float is an integer over a power of two, so the sum is one over 2**top."""
    terms = []
    for factors in orderings:
        re, im, exp = 1, 0, 0
        for z in map(complex, factors):
            (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
            d = max(da, db)
            a, b = a * (d // da), b * (d // db)
            re, im, exp = re * a - im * b, re * b + im * a, exp + d.bit_length() - 1
        terms.append((re, im, exp))
    top = max(exp for _, _, exp in terms)
    re, im = (sum(term[part] << (top - term[2]) for term in terms) for part in (0, 1))
    return (re * re + im * im) / (1 << 2 * top)


# The selection rule: entry 4 * tag_d1 + tag_d2 keeps a cross-port pair
# with those D1 (port A) and D2 (port B) tags when they share a polarization
# (across the ports, opposite arms) at opposite branches.  Read at call time
# by heterodyne_product, selection_efficiency and match_coincidences.
HETERODYNE_ACCEPT = tuple((key >> 2) ^ (key & TAG_BITS) == FLAG_BRANCH_PLUS for key in range(16))


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


def heterodyne_product(e_s: Field, e_i: Field) -> complex:
    """Coherent sum of the rule-accepted terms of the two-port product.

    ``e_s`` is the port A (D1) field and ``e_i`` the port B (D2) field; the
    low two bits of a slot index are that term's tag.  For the network
    fields this equals (i/4) e^{i s phi} cos(xi + theta): both surviving
    terms carry the same detuning phase, so the modulus is detuning-free.
    """
    if not all(isinstance(f, tuple) and len(f) == N_SLOTS for f in (e_s, e_i)):
        raise TypeError("heterodyne_product needs two 8-slot fields")
    accept = HETERODYNE_ACCEPT
    terms_b = [(k & TAG_BITS, amp) for k, amp in enumerate(e_i) if amp]
    total = 0j
    for k, amp_a in enumerate(e_s):
        if amp_a:
            row = (k & TAG_BITS) << 2
            for tag_b, amp_b in terms_b:
                if accept[row | tag_b]:
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


class ClassTable(NamedTuple):
    """What the stochastic twin draws behind analyzers."""
    classes: tuple  # [shared arm, 0 for a cross-path pair][Outcome]: class probabilities
    splits: tuple  # [Outcome]: P(arm-1 photon at port A | outcome) of a cross-path pair, else 1/2
    transmission: tuple  # [arm - 1][port]: P(a photon there passes its analyzer)


def class_table(eraser: EraserSetting) -> ClassTable:
    """The Born rule on the per-photon table.  A cross-path pair's classes
    come from the symmetrized two-photon amplitude, a same-path pair's
    from independent photons.  Structurally impossible classes are exactly
    0, and the last class of a row is one minus the others."""
    # on[arm - 1][port][axis]: factors on the pass (0) or absorb (1) axis,
    # a1/b1 those of the arm-1 photon at port A/B; the sign moves only tags
    on = [[port[1][1:] for port in arm] for arm in _photon_table(eraser)]
    prob = [[[abs(amp * proj) ** 2 for amp, proj in port] for port in arm] for arm in on]
    (a1, b1), (a2, b2) = on
    cross, splits = [0.0] * len(Outcome), [0.5] * len(Outcome)
    for outcome, x, y in ((Outcome.COINCIDENCE, 0, 0), (Outcome.ONLY_D1, 0, 1), (Outcome.ONLY_D2, 1, 0),
                          (Outcome.NO_CLICKS, 1, 1)):
        # axis x at port A and y at port B; arm 1 at A, or arm 1 at B
        cross[outcome] = _born((*a1[x], *b2[y]), (*b1[y], *a2[x]))
        w1, w2 = prob[0][0][x] * prob[1][1][y], prob[0][1][y] * prob[1][0][x]
        if w1 + w2 != 0:
            splits[outcome] = w1 / (w1 + w2)
    # both photons at port A, where a doubly occupied axis counts twice
    (pass1, abs1), (pass2, abs2) = prob[0][0], prob[1][0]
    mixed = _born((*a1[0], *a2[1]), (*a1[1], *a2[0]))
    cross[Outcome.SAME_PORT_A] = 2 * pass1 * pass2 + 2 * abs1 * abs2 + mixed
    rows = [cross]
    for (pass_a, abs_a), (pass_b, abs_b) in prob:
        clicks = (2 * pass_a * pass_b, 2 * pass_a * abs_b, 2 * abs_a * pass_b, 2 * abs_a * abs_b)
        rows.append([0.0, *clicks, (pass_a + abs_a) ** 2, 0.0])
    for row in rows:
        row[Outcome.SAME_PORT_B] = 1.0 - math.fsum(row[: Outcome.SAME_PORT_B])
    transmission = tuple(tuple(2 * pass_ for pass_, _ in arm) for arm in prob)
    return ClassTable(tuple(map(tuple, rows)), tuple(splits), transmission)


def _analyzer_slots(outcome: Outcome, route1: int, route2: int, arm1_at_a: int, transmission):
    """The two photon slots of a pair behind the analyzers.  A click's rank
    is 4 * outcome plus the block that wrote it: a cross-path pair's
    arm-1-at-A block, its other block, then the shared-arm-1 and
    shared-arm-2 blocks; or a bunched pair's photon, 1 before 2."""
    if outcome in (Outcome.SAME_PORT_A, Outcome.SAME_PORT_B):
        # both photons on one detector, independent transmissions
        channel = outcome - Outcome.SAME_PORT_A
        return tuple(
            (arm, channel, 4 * outcome + k, transmission[arm - 1][channel])
            for k, arm in enumerate((route1, route2))
        )
    if route1 != route2:  # of a cross-path pair only the photons at clicking ports
        arm_at, block, both = ((1, 2) if arm1_at_a else (2, 1)), 1 - arm1_at_a, Outcome.COINCIDENCE
    else:
        arm_at, block, both = (route1, route1), 1 + route1, Outcome.REJECTED_COINCIDENCE
    clicks = (outcome in (both, Outcome.ONLY_D1), outcome in (both, Outcome.ONLY_D2))
    return tuple((arm_at[ch], ch, 4 * outcome + block, 1.0) if clicks[ch] else None for ch in (0, 1))


def click_table(transmission) -> np.ndarray:
    """The one click table: row 4 * state + 2 * plus + slot holds the
    channel, mode tag, emit rank and click probability of photon slot
    ``slot`` of a pair in ``state`` whose arm 1 carries the positive
    branch when ``plus`` is 1.  With arms = 2 * route1 + route2 - 3, the
    state is arms + 4 * port1 + 8 * port2 without analyzers (no
    ``transmission``), where every photon clicks at its port, and
    2 * (4 * outcome + arms) + arm1_at_a behind them."""
    if transmission is None:
        ports = ((p1, p2) for p2 in (0, 1) for p1 in (0, 1))
        states = [((r1, p1, 0, 1.0), (r2, p2, 1, 1.0)) for p1, p2 in ports for r1 in (1, 2) for r2 in (1, 2)]
    else:
        states = [
            _analyzer_slots(outcome, r1, r2, arm1_at_a, transmission)
            for outcome in Outcome for r1 in (1, 2) for r2 in (1, 2) for arm1_at_a in (0, 1)
        ]
    rows = [slot or (1, 0, 0, 0.0) for slots in states for _ in (-1, 1) for slot in slots]
    arm, channel, rank, p_click = (np.array(column) for column in zip(*rows))
    table = np.empty(len(rows), dtype=[("channel", "u1"), ("tag", "u1"), ("rank", "u1"), ("p_click", "<f8")])
    table["channel"], table["rank"], table["p_click"] = channel, rank, p_click
    table["tag"] = mode_tag(arm, channel, np.tile([-1, -1, 1, 1], len(states)))
    return table


def bare_state(route1, route2, port1, port2, sign):
    """``2 * state + plus``, the pair's row pair in ``click_table(None)``:
    0..31 for (route1, route2, port1, port2, sign).  Works on ints and,
    elementwise, on numpy arrays."""
    return 2 * (2 * route1 + route2 - 3 + 4 * port1 + 8 * port2) + (sign > 0)


def selection_efficiency(batch: PairBatch) -> float:
    """Fraction of generated pairs in the rule-accepted class, before any
    analyzer: both photons click, on different detectors, with D1 and D2
    tags the rule keeps.  With the heterodyne rule the expectation is 1/4:
    half of the pairs split across the arms and half of those exit
    distinct ports.
    """
    states = bare_state(batch.route1, batch.route2, batch.port1, batch.port2, batch.orientation_sign)
    counts = np.bincount(states, minlength=32)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("selection efficiency is undefined for an empty stream")
    accept = np.zeros(32, dtype=bool)
    for state, slots in enumerate(click_table(None)[["channel", "tag"]].reshape(32, 2).tolist()):
        (channel1, tag1), (channel2, tag2) = sorted(slots)  # D1 first when the channels differ
        accept[state] = channel1 != channel2 and HETERODYNE_ACCEPT[4 * tag1 + tag2]
    return int(counts[accept].sum()) / n


def sample_coincidence_counts(n_pairs: int, eraser: EraserSetting, rng: np.random.Generator) -> int:
    """Event-level draw of the accepted-coincidence count of ``n_pairs``
    generated pairs: each cross-path one is accepted with its COINCIDENCE class."""
    route1 = rng.integers(0, 2, n_pairs)
    route2 = rng.integers(0, 2, n_pairs)
    n_cross = int(np.count_nonzero(route1 != route2))
    p_accept = class_table(eraser).classes[0][Outcome.COINCIDENCE]
    return int(np.count_nonzero(rng.random(n_cross) < p_accept))
