"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written from first principles with raw
complex arithmetic and exhaustive enumeration, sharing no code with the
package internals it checks.  The package reads its Monte Carlo class
table, route splits, same-port transmissions and mode tags off the 8-slot
network; the closed forms of those numbers live here, as their oracles.

The exception is ``reference_synthesize``, the click synthesizer's earlier
block-by-block form, which pins the order in which the table-driven
synthesizer writes clicks.  It shares the package's mode tag, the class
probabilities of ``class_table(...).classes`` and the stream type, but
draws its route splits and same-port transmissions from the closed forms
here.  Those agree with the package's
network-derived thresholds to about 1e-16, so the two synthesizers write
the same bytes unless a uniform draw falls between the two thresholds.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from cesim import detection
from cesim.detection import FLAG_POL_V, CoincidenceSetting, Outcome, class_table, mode_tag
from cesim.eventstream import StreamFormatError, TagStream

SQ = math.sqrt(0.5)


def splitter_matrix_apply(in_a: complex, in_b: complex) -> tuple[complex, complex]:
    """Hand-multiplied 2x2 unitary [[1, i], [i, 1]] / sqrt(2)."""
    return (in_a + 1j * in_b) * SQ, (1j * in_a + in_b) * SQ


def eraser_bracket(xi: float, phi: float, port_b: bool = False) -> float:
    """Product-of-brackets evaluation of the analyzer-passed intensity.

    Expands (-sin(xi) e^{i phi} + cos(xi)) times its conjugate term by term
    for port A, and (cos(theta) e^{i phi} + sin(theta)) times conjugate for
    port B, retaining all cross terms.
    """
    if port_b:
        u = [math.cos(xi) * cmath.exp(1j * phi), math.sin(xi)]
    else:
        u = [-math.sin(xi) * cmath.exp(1j * phi), math.cos(xi)]
    total = 0j
    for a in u:
        for b in u:
            total += a * b.conjugate()
    return total.real


def heterodyne_terms(xi: float, theta: float, sigma: int, phi: float):
    """All four tagged monomials of the two-port amplitude product.

    Returns a list of (tag_a, tag_b, amplitude) where tags are
    (arm, polarization, branch_sign) triples; arm 1 terms carry the branch
    phase, port B carries a global i.
    """
    e = cmath.exp(1j * sigma * phi)
    e_s = [
        ((1, "V", sigma), -0.5 * math.sin(xi) * e),
        ((2, "H", -sigma), 0.5 * math.cos(xi)),
    ]
    e_i = [
        ((1, "H", sigma), 0.5j * math.cos(theta) * e),
        ((2, "V", -sigma), 0.5j * math.sin(theta)),
    ]
    return [(ta, tb, aa * ab) for ta, aa in e_s for tb, ab in e_i]


def heterodyne_sum(xi: float, theta: float, sigma: int, phi: float, accept) -> complex:
    """Coherent sum of the monomials selected by ``accept(tag_a, tag_b)``."""
    return sum((amp for ta, tb, amp in heterodyne_terms(xi, theta, sigma, phi) if accept(ta, tb)), 0j)


def default_accept(tag_a, tag_b) -> bool:
    """The heterodyne predicate on full (arm, polarization, branch) labels:
    same polarization, opposite branch, opposite arm."""
    return tag_a[1] == tag_b[1] and tag_a[2] != tag_b[2] and tag_a[0] != tag_b[0]


# Three selection rules as predicates on the D1 and D2 labels, and as
# accept masks over 4 * tag_d1 + tag_d2: the heterodyne rule, its
# complement, and a rule that keeps every cross-port pair.
RULE_PREDICATES = {
    "heterodyne": default_accept,
    "inverted": lambda tag_a, tag_b: not default_accept(tag_a, tag_b),
    "cross_port_only": lambda tag_a, tag_b: True,
}
RULE_MASKS = {"heterodyne": 0x4812, "inverted": 0xB7ED, "cross_port_only": 0xFFFF}


def accept_table(mask: int) -> tuple[bool, ...]:
    """A 16-bit accept mask as the 16-entry table over 4 * tag_d1 + tag_d2."""
    return tuple(bool(mask >> key & 1) for key in range(16))


@contextlib.contextmanager
def selection_rule(name: str):
    """Run the package under the rule ``RULE_MASKS[name]``: its functions
    read ``detection.HETERODYNE_ACCEPT`` at call time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detection, "HETERODYNE_ACCEPT", accept_table(RULE_MASKS[name]))
        yield


def reject_reason(tag_a, tag_b) -> str:
    """Reason a rule gives for rejecting an in-window D1/D2 candidate."""
    if tag_a[1] != tag_b[1]:
        return "cross-polarization"
    if tag_a[2] == tag_b[2]:
        return "same-detuning"
    return "none"


def label_from_click(channel: int, flags: int):
    """Full (arm, polarization, branch sign) label of a serialized click.

    Flags bit 0 is the positive branch, bit 1 is V. The arm follows from
    (port, polarization): port A (channel 0) sees arm 1 as V and arm 2 as
    H, port B the reverse.
    """
    pol = "V" if flags & 0b10 else "H"
    sign = 1 if flags & 0b01 else -1
    if channel == 0:
        arm = 1 if pol == "V" else 2
    else:
        arm = 1 if pol == "H" else 2
    return arm, pol, sign


def photon_label(arm: int, port: int, orientation_sign: int):
    """Label of the photon from ``arm`` exiting ``port`` (0 = A, 1 = B) of
    a pair whose arm 1 carries the branch ``orientation_sign``."""
    pol = "V" if (arm == 1) == (port == 0) else "H"
    return arm, pol, orientation_sign if arm == 1 else -orientation_sign


def photon_tag(arm: int, port: int, orientation_sign: int) -> int:
    """The two-bit wire tag of ``photon_label``: bit 0 the positive branch,
    bit 1 V polarization."""
    _, pol, branch = photon_label(arm, port, orientation_sign)
    return (branch > 0) + 2 * (pol == "V")


def pair_accepted(route1, route2, port1, port2, orientation_sign, accept) -> bool:
    """Per-pair selection: a cross-port pair whose D1 and D2 labels pass."""
    if port1 == port2:
        return False
    label1 = photon_label(route1, port1, orientation_sign)
    label2 = photon_label(route2, port2, orientation_sign)
    return accept(label1, label2) if port1 == 0 else accept(label2, label1)


@dataclass(frozen=True, slots=True)
class CoincidenceRecord:
    t1_ps: int
    t2_ps: int
    tau_si_ps: int
    accepted: bool
    reject_reason: str
    pair_id_1: int
    pair_id_2: int


def reference_match(array, window_ps: int, accept) -> list[CoincidenceRecord]:
    """The straightforward nearest-free-D2 matcher, one record per candidate.

    ``array`` has the wire fields ``t_ps``, ``channel``, ``flags`` and
    ``pair_id``; ``accept[4 * tag_d1 + tag_d2]`` is the selection rule.  Each
    D1 click, in time order, walks outward over consumed D2 clicks to the
    nearest unconsumed one on each side, ties going to the earlier D2; an
    in-window candidate the rule accepts consumes its D2 click.  The walks
    make this quadratic when most D2 clicks get consumed.
    """
    mask2 = array["channel"] == 1
    d1 = array[~mask2]
    d2 = array[mask2]
    t1 = d1["t_ps"].astype(np.int64)
    t2 = d2["t_ps"].astype(np.int64)
    t1_list = t1.tolist()
    t2_list = t2.tolist()
    n2 = len(t2_list)
    insert = np.searchsorted(t2, t1).tolist()
    used = bytearray(n2)
    out = []
    for i, ti in enumerate(t1_list):
        j_right = insert[i]
        while j_right < n2 and used[j_right]:
            j_right += 1
        j_left = insert[i] - 1
        while j_left >= 0 and used[j_left]:
            j_left -= 1
        if j_left < 0 and j_right >= n2:
            continue
        if j_left < 0:
            j = j_right
        elif j_right >= n2:
            j = j_left
        else:
            j = j_left if ti - t2_list[j_left] <= t2_list[j_right] - ti else j_right
        dt = t2_list[j] - ti
        tag1, tag2 = int(d1["flags"][i]) & 0b11, int(d2["flags"][j]) & 0b11
        ids = int(d1["pair_id"][i]), int(d2["pair_id"][j])
        if abs(dt) > window_ps:
            out.append(CoincidenceRecord(ti, t2_list[j], dt, False, "out-of-window", *ids))
        elif accept[4 * tag1 + tag2]:
            used[j] = 1
            out.append(CoincidenceRecord(ti, t2_list[j], dt, True, "none", *ids))
        else:
            reason = reject_reason(label_from_click(0, tag1), label_from_click(1, tag2))
            out.append(CoincidenceRecord(ti, t2_list[j], dt, False, reason, *ids))
    return out


# Final detection modes behind the analyzers: (port, axis) with axis "pass"
# (transmitted onto the analyzer axis) or "abs" (absorbed orthogonal axis).
_MODES = (("A", "pass"), ("A", "abs"), ("B", "pass"), ("B", "abs"))


def _arm_mode_vectors(xi: float, theta: float, phi: float):
    """Single-photon final-mode amplitudes for an arm-1 and an arm-2 photon.

    Arm 1 reaches port A as V (with the splitter sign flip) and port B as
    H, carrying the branch phase; arm 2 reaches port A as H and port B as
    V. The analyzer at angle a passes V with sin(a) and H with cos(a) and
    absorbs the orthogonal projections (V: cos(a), H: -sin(a)).
    """
    e = cmath.exp(1j * phi)
    arm1 = {
        ("A", "pass"): -SQ * e * math.sin(xi),
        ("A", "abs"): -SQ * e * math.cos(xi),
        ("B", "pass"): SQ * e * math.cos(theta),
        ("B", "abs"): -SQ * e * math.sin(theta),
    }
    arm2 = {
        ("A", "pass"): SQ * math.cos(xi),
        ("A", "abs"): -SQ * math.sin(xi),
        ("B", "pass"): SQ * math.sin(theta),
        ("B", "abs"): SQ * math.cos(theta),
    }
    return arm1, arm2


def cross_pair_classes(xi: float, theta: float, phi: float = 0.0) -> dict[str, float]:
    """Outcome-class probabilities for one photon per arm, behind analyzers.

    The joint state is the mode-operator product of the two single-photon
    superpositions; unordered mode pairs accumulate both orderings and a
    doubly occupied mode contributes twice its squared coefficient.
    """
    arm1, arm2 = _arm_mode_vectors(xi, theta, phi)
    amp: dict[tuple, complex] = {}
    for m1, a1 in arm1.items():
        for m2, a2 in arm2.items():
            key = tuple(sorted((m1, m2)))
            amp[key] = amp.get(key, 0j) + a1 * a2
    classes = {
        "coincidence": 0.0,
        "only_d1": 0.0,
        "only_d2": 0.0,
        "no_clicks": 0.0,
        "same_port_a": 0.0,
        "same_port_b": 0.0,
    }
    for (m1, m2), c in amp.items():
        p = abs(c) ** 2 * (2.0 if m1 == m2 else 1.0)
        ports = {m1[0], m2[0]}
        if ports == {"A"}:
            classes["same_port_a"] += p
        elif ports == {"B"}:
            classes["same_port_b"] += p
        else:
            axes = {m[0]: m[1] for m in (m1, m2)}
            if axes["A"] == "pass" and axes["B"] == "pass":
                classes["coincidence"] += p
            elif axes["A"] == "pass":
                classes["only_d1"] += p
            elif axes["B"] == "pass":
                classes["only_d2"] += p
            else:
                classes["no_clicks"] += p
    return classes


def analyzer_transmission(arm: int, port: int, xi: float, theta: float) -> float:
    """Chance that a photon from ``arm`` at ``port`` (0 = A, 1 = B) passes
    its analyzer: arm 1 reaches A as V and B as H, arm 2 the reverse."""
    angle = xi if port == 0 else theta
    pol_v = (arm == 1) == (port == 0)
    return math.sin(angle) ** 2 if pol_v else math.cos(angle) ** 2


def same_pair_classes(arm: int, xi: float, theta: float) -> dict[str, float]:
    """Outcome-class probabilities for two photons in the same arm.

    Photons are routed and transmitted independently (no bunching
    interference); a cross-port double click exists but fails the
    same-branch gating, so it lands in its own class.
    """
    t_a, t_b = (analyzer_transmission(arm, port, xi, theta) for port in (0, 1))
    one = {
        ("A", True): 0.5 * t_a,
        ("A", False): 0.5 * (1 - t_a),
        ("B", True): 0.5 * t_b,
        ("B", False): 0.5 * (1 - t_b),
    }
    classes = {
        "rejected_coincidence": 0.0,
        "only_d1": 0.0,
        "only_d2": 0.0,
        "no_clicks": 0.0,
        "same_port_a": 0.0,
        "same_port_b": 0.0,
    }
    for (p1, pass1), w1 in one.items():
        for (p2, pass2), w2 in one.items():
            w = w1 * w2
            if p1 == p2 == "A":
                classes["same_port_a"] += w
            elif p1 == p2 == "B":
                classes["same_port_b"] += w
            else:
                a_pass = pass1 if p1 == "A" else pass2
                b_pass = pass2 if p2 == "B" else pass1
                if a_pass and b_pass:
                    classes["rejected_coincidence"] += w
                elif a_pass:
                    classes["only_d1"] += w
                elif b_pass:
                    classes["only_d2"] += w
                else:
                    classes["no_clicks"] += w
    return classes


def chsh_e(alpha: float, beta: float) -> float:
    """Correlation value of the cos^2 joint fringe at one analyzer pair."""
    r = lambda a, b: math.cos(a + b) ** 2
    q = math.pi / 2
    num = r(alpha, beta) + r(alpha + q, beta + q) - r(alpha + q, beta) - r(alpha, beta + q)
    return num / 2.0


def correlation_r(xi: float, theta: float, tau_si: float, tau_c: float) -> float:
    """Normalized joint correlation exp(-2 tau_si / tau_c) cos^2(xi + theta).

    Normalized so the zero-delay, aligned-analyzer value is 1; no detuning
    or branch orientation enters, since the branch phase is a common factor
    of the surviving terms and cancels in the modulus.
    """
    return math.exp(-2.0 * tau_si / tau_c) * math.cos(xi + theta) ** 2


def visibility(series: Sequence) -> float:
    """Fringe contrast (max - min) / (max + min) of a sampled series.

    Accepts (setting, value) pairs or bare values; needs at least two
    samples and a nonzero extremal sum.
    """
    values = []
    for item in series:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            values.append(float(item[1]))
        else:
            values.append(float(item))
    if len(values) < 2:
        raise ValueError("visibility needs at least two samples")
    hi, lo = max(values), min(values)
    if hi + lo == 0:
        raise ValueError("visibility is undefined for an all-zero series")
    return (hi - lo) / (hi + lo)


# The click synthesizer as it was written before the table-driven one: one
# emit block per outcome class, filled in emit order, so that the stable
# sort leaves the clicks that share a timestamp and a channel in block
# order, then in pair order.  It pins the table's emit ranks byte for byte.


def accepted_route_split(eraser) -> float:
    """P(the arm-1 photon sits at port A | accepted coincidence)."""
    w1 = (math.sin(eraser.xi) * math.sin(eraser.theta)) ** 2
    w2 = (math.cos(eraser.xi) * math.cos(eraser.theta)) ** 2
    return 0.5 if w1 + w2 == 0 else w1 / (w1 + w2)


def lone_click_route_split(eraser, port: int) -> float:
    """P(the arm-1 photon sits at port A | exactly one cross-port click, at
    ``port`` 0 (A) or 1 (B))."""
    if port == 0:
        w1 = (math.sin(eraser.xi) * math.cos(eraser.theta)) ** 2
        w2 = (math.cos(eraser.xi) * math.sin(eraser.theta)) ** 2
    else:
        w1 = (math.cos(eraser.xi) * math.sin(eraser.theta)) ** 2
        w2 = (math.sin(eraser.xi) * math.cos(eraser.theta)) ** 2
    return 0.5 if w1 + w2 == 0 else w1 / (w1 + w2)


def reference_synthesize(batch, eraser=None, coincidence=None, jitter: bool = False, seed=0):
    """Realize detector clicks for a batch of generated pairs, block by block."""
    cs = coincidence if coincidence is not None else CoincidenceSetting()
    rng = np.random.default_rng(seed)
    n = len(batch)
    t_emit = batch.t_emit_ps.astype(np.int64)
    delay_s = np.full(n, cs.tau_si)
    if jitter:
        delay_s = delay_s + rng.exponential(cs.tau_c / 2.0, n)
    delay_ps = np.rint(delay_s * 1e12).astype(np.int64)

    s1 = batch.orientation_sign.astype(np.int8)  # branch sign of arm 1

    # Each photon clicks at most once, so 2 * n rows hold every click.  They
    # fill in emit order, which fixes the order of clicks that share a
    # timestamp and a channel, and with it the stream's bytes.
    key = np.empty(2 * n, dtype=np.uint64)  # (t_ps << 1) | channel
    tags = np.empty(2 * n, dtype=np.uint8)
    pair_id = np.empty(2 * n, dtype=np.uint32)
    filled = 0

    def emit(idx, channel, route):
        """Clicks at detector ``channel`` of the photons from arm ``route``."""
        nonlocal filled
        t = t_emit[idx] + (delay_ps[idx] if channel == 1 else 0)
        if np.any(t < 0):  # wrapped around the int64 range
            raise StreamFormatError("timestamp at or above 2**63 ps")
        rows = slice(filled, filled + len(idx))
        key[rows] = (t.astype(np.uint64) << 1) | channel
        tags[rows] = mode_tag(route, channel, s1[idx])
        pair_id[rows] = batch.pair_id[idx]
        filled = rows.stop

    def build():
        # Below 2**63, t_ps << 1 fits the unsigned key, whose order is time,
        # then D1 before D2; the stable sort keeps emit order within a tie.
        order = np.argsort(key[:filled], kind="stable")
        sorted_key = key[order]
        channel = (sorted_key & 1).astype(np.uint8)
        sorted_key >>= 1
        return TagStream.from_fields(sorted_key, channel, tags[order], pair_id[order])

    if eraser is None:
        for route, port in ((batch.route1, batch.port1), (batch.route2, batch.port2)):
            for channel in (0, 1):
                idx = np.flatnonzero(port == channel)
                emit(idx, channel, route[idx])
        return build()

    u_class = rng.random(n)
    u_route = rng.random(n)
    u_m1 = rng.random(n)
    u_m2 = rng.random(n)

    cross = batch.cross_mask
    cls = np.full(n, -1, dtype=np.int64)  # an Outcome per pair

    classes = class_table(eraser).classes

    def classify(mask, shared_path):
        edges = np.cumsum(classes[shared_path])[:-1]
        cls[mask] = np.searchsorted(edges, u_class[mask], side="right")

    classify(cross, 0)
    classify(~cross & (batch.route1 == 1), 1)
    classify(~cross & (batch.route1 == 2), 2)

    def cls_idx(outcome, extra_mask=None):
        m = cls == outcome
        if extra_mask is not None:
            m &= extra_mask
        return np.flatnonzero(m)

    # accepted coincidences: the route choice decides the shared polarization
    idx = cls_idx(Outcome.COINCIDENCE, cross)
    arm1_at_a = u_route[idx] < accepted_route_split(eraser)
    emit(idx[arm1_at_a], 0, 1)
    emit(idx[arm1_at_a], 1, 2)
    rest = idx[~arm1_at_a]
    emit(rest, 0, 2)
    emit(rest, 1, 1)

    # rejected coincidences (same-path pairs behind analyzers)
    for path_value in (1, 2):
        idx = cls_idx(Outcome.REJECTED_COINCIDENCE, ~cross & (batch.route1 == path_value))
        emit(idx, 0, path_value)
        emit(idx, 1, path_value)

    # lone clicks; of a cross-path pair only the photon at the clicking
    # port is detected
    for outcome, channel in ((Outcome.ONLY_D1, 0), (Outcome.ONLY_D2, 1)):
        idx = cls_idx(outcome, cross)
        arm1_at_a = u_route[idx] < lone_click_route_split(eraser, channel)
        emit(idx[arm1_at_a], channel, 1 if channel == 0 else 2)
        emit(idx[~arm1_at_a], channel, 2 if channel == 0 else 1)
        for path_value in (1, 2):
            emit(cls_idx(outcome, ~cross & (batch.route1 == path_value)), channel, path_value)

    # bunched outcomes: both photons on one detector, independent transmissions
    for outcome, channel, angle in (
        (Outcome.SAME_PORT_A, 0, eraser.xi),
        (Outcome.SAME_PORT_B, 1, eraser.theta),
    ):
        c2 = math.cos(angle) ** 2
        s2 = math.sin(angle) ** 2
        idx = cls_idx(outcome)
        for route, u_m in ((batch.route1, u_m1), (batch.route2, u_m2)):
            pol_v = mode_tag(route[idx], channel, s1[idx]) & FLAG_POL_V
            p_pass = np.where(pol_v, s2, c2)
            passed = idx[u_m[idx] < p_pass]
            emit(passed, channel, route[passed])

    return build()
