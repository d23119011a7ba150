"""Bit-exact time-tag serialization and windowed coincidence matching.

Wire format ``CESIMTT1``, version 1
-----------------------------------
header (10 bytes):
    bytes 0..7   magic ``b"CESIMTT1"``
    bytes 8..9   little-endian u16 version, currently 1
records (16 bytes each, little-endian, packed):
    u64  t_ps       timestamp in integer picoseconds
    u8   channel    0 = D1 (port A), 1 = D2 (port B); nothing else
    u8   flags      bit0: frequency branch of the detected component
                    (1 = positive branch); bit1: polarization at the
                    analyzer input (0 = H, 1 = V); bit2+ reserved
    u32  pair_id    ground-truth pair identifier, 0xFFFFFFFF if absent
    u16  reserved   written as 0, ignored on read

Timestamps must be below 2**63 and non-decreasing per channel within one
file.  The two low flag bits are the click's detected mode tag, the only
input of the selection rule.

In hardware the frequency branch of a click would be inferred from the
heterodyne beat; here it rides in the flags because the simulator, not the
detector, produces the events.

Besides the wire format this module holds the matcher, the delay
histogram and the click synthesizer's draws and sort; which detector
clicks, with which tag, comes from ``detection.click_table``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import detection
from .detection import (
    FLAG_BRANCH_PLUS,
    FLAG_POL_V,
    TAG_BITS,
    CoincidenceSetting,
    bare_state,
    class_table,
    click_table,
)
from .experiments import Table, emit_csv
from .interferometer import EraserSetting
from .source import T_PS_LIMIT, PairBatch

MAGIC = b"CESIMTT1"
VERSION = 1

RECORD_DTYPE = np.dtype(
    [
        ("t_ps", "<u8"),
        ("channel", "u1"),
        ("flags", "u1"),
        ("pair_id", "<u4"),
        ("reserved", "<u2"),
    ]
)
RECORD_SIZE = RECORD_DTYPE.itemsize  # 16
HEADER_SIZE = len(MAGIC) + 2  # 10


class StreamFormatError(ValueError):
    """A time-tag stream breaks a wire-format rule; the message names it."""


class TagStream:
    """Decoded click stream backed by a structured numpy array, valid by
    construction: building one runs ``validate``."""

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray):
        if array.dtype != RECORD_DTYPE:
            array = array.astype(RECORD_DTYPE)
        self._array = np.ascontiguousarray(array)  # encode_stream reads its buffer
        self.validate()

    @classmethod
    def from_fields(cls, t_ps, channel, flags, pair_id) -> "TagStream":
        n = len(t_ps)
        array = np.zeros(n, dtype=RECORD_DTYPE)
        array["t_ps"] = t_ps
        array["channel"] = channel
        array["flags"] = flags
        array["pair_id"] = pair_id
        return cls(array)

    @property
    def array(self) -> np.ndarray:
        return self._array

    def validate(self) -> None:
        """Raise StreamFormatError naming the first broken wire-format rule:
        channels in {0, 1}, timestamps below 2**63, time order per channel."""
        channel = self._array["channel"]
        t = self._array["t_ps"]
        if np.any(channel > 1):
            raise StreamFormatError("channel outside {0 = D1, 1 = D2}")
        if np.any(t >= T_PS_LIMIT):
            raise StreamFormatError("timestamp at or above 2**63 ps")
        if np.all(t[1:] >= t[:-1]):
            return  # in time order overall, so in time order per channel
        for ch in (0, 1):
            t_ch = t[channel == ch]
            if np.any(t_ch[1:] < t_ch[:-1]):
                raise StreamFormatError("timestamps must be non-decreasing per channel")

    def __len__(self) -> int:
        return len(self._array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TagStream):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self._array == other._array))

    def __repr__(self) -> str:
        return f"TagStream({len(self)} records)"


def encode_stream(stream: TagStream) -> bytes:
    """Serialize a (valid by construction) stream to the wire format,
    copying the record array once."""
    return b"".join((MAGIC, VERSION.to_bytes(2, "little"), stream.array.data))


def decode_stream(data: bytes) -> TagStream:
    """Parse the wire format back into a stream, validating as it goes."""
    if len(data) < HEADER_SIZE or data[: len(MAGIC)] != MAGIC:
        raise StreamFormatError("not a CESIMTT1 stream")
    version = int.from_bytes(data[len(MAGIC) : HEADER_SIZE], "little")
    if version != VERSION:
        raise StreamFormatError(f"unsupported stream version {version}")
    body_size = len(data) - HEADER_SIZE
    if body_size % RECORD_SIZE != 0:
        raise StreamFormatError(
            f"stream body of {body_size} bytes is not a whole number of {RECORD_SIZE}-byte records"
        )
    array = np.frombuffer(data, dtype=RECORD_DTYPE, offset=HEADER_SIZE).copy()
    array["flags"] &= TAG_BITS  # the reserved bits are ignored on read
    array["reserved"] = 0
    return TagStream(array)


# One row per D1 click that meets a D2 click; ``reason`` indexes REJECT_REASONS.
COINCIDENCE_DTYPE = np.dtype(
    [
        ("t1_ps", "<i8"),
        ("t2_ps", "<i8"),
        ("tau_si_ps", "<i8"),
        ("accepted", "?"),
        ("reason", "u1"),
        ("pair_id_1", "<u4"),
        ("pair_id_2", "<u4"),
    ]
)
REJECT_REASONS = ("none", "cross-polarization", "same-detuning", "out-of-window")
OUT_OF_WINDOW = REJECT_REASONS.index("out-of-window")


def _reject_reason(key: int) -> int:
    """Why a rule-rejected pair with tag key 4 * tag_d1 + tag_d2 fails."""
    differ = (key >> 2 ^ key) & TAG_BITS
    if differ & FLAG_POL_V:
        return REJECT_REASONS.index("cross-polarization")
    if not differ & FLAG_BRANCH_PLUS:
        return REJECT_REASONS.index("same-detuning")
    return REJECT_REASONS.index("none")  # tag-compatible: only an edited accept table rejects it


_REJECT_REASON_CODES = np.array([_reject_reason(key) for key in range(16)], dtype=np.uint8)


def match_coincidences(stream: TagStream, window_ps: int) -> np.ndarray:
    """Single pass over the two detector channels.

    Every D1 click is paired with its nearest unconsumed D2 click, ties
    breaking toward the earlier D2.  Candidates beyond the window are
    reported as out-of-window; candidates inside it are checked against the
    selection rule on the two clicks' flag tags.  Only accepted pairs
    consume their clicks, so each click joins at most one accepted
    coincidence.  Returns a COINCIDENCE_DTYPE array, one row per candidate
    in D1 order; it stops at the first D1 click that finds every D2 click
    consumed.
    """
    if window_ps < 0:
        raise ValueError("window must be non-negative")
    accept = np.array(detection.HETERODYNE_ACCEPT)

    arr = stream.array
    is_d2 = arr["channel"].astype(bool)  # a valid channel is 0 or 1

    def split(field):
        """The field's D1 and D2 columns, each in time order."""
        return arr[field].compress(~is_d2), arr[field].compress(is_d2)

    t1, t2 = (t.view(np.int64) for t in split("t_ps"))
    key1, tag2 = split("flags")
    key1 &= TAG_BITS
    key1 <<= 2  # 4 * tag, so key1 + tag2 indexes accept
    tag2 &= TAG_BITS
    if len(t2):
        j, m = _nearest_free(t1, key1, t2, tag2, window_ps, accept)
    else:
        j, m = np.zeros(0, dtype=np.intp), 0

    # the dels free each column before the next allocation: a 1M-pair
    # stream's columns are 8 MB each, its output 34 MB
    j = j[:m]
    key = key1[:m] + tag2[j]
    t2_met = t2[j]
    del t2
    tau = t2_met - t1[:m]
    in_window = np.abs(tau) <= window_ps
    out = np.empty(m, dtype=COINCIDENCE_DTYPE)  # every field is written below
    out["t1_ps"] = t1[:m]
    out["t2_ps"] = t2_met
    out["tau_si_ps"] = tau
    del t1, t2_met, tau
    out["accepted"] = in_window & accept[key]
    reasons = np.where(accept, 0, _REJECT_REASON_CODES)  # code 0 is "none"
    out["reason"] = np.where(in_window, reasons[key], OUT_OF_WINDOW)
    id1, id2 = split("pair_id")
    out["pair_id_1"] = id1[:m]
    out["pair_id_2"] = id2[j]
    return out


def _nearer(t, t2, below, above):
    """The nearer to ``t`` of D2 slots ``below`` < ``above``, the earlier on a
    tie; ``below`` -1 and ``above`` len(t2) mean there is none on that side,
    and len(t2) comes back when there is none on either."""
    n2 = len(t2)
    pick_below = t - t2[np.maximum(below, 0)] <= t2[np.minimum(above, n2 - 1)] - t
    pick_below |= above >= n2
    pick_below &= below >= 0
    return np.where(pick_below, below, above)


def _nearest_free(t1, key1, t2, tag2, window_ps, accept):
    """The D2 slot each D1 click meets, and how many D1 clicks meet one (a
    prefix: after the first that finds every D2 consumed, none does).

    Phase 1, numpy over every click.  ``j0`` is the nearest D2 slot ignoring
    consumption.  It never decreases with the click index, and a click
    meets its ``j0`` unless an earlier accepted click took it.  Such
    deviators are the clicks after the first accepted one in a run of equal
    ``j0`` (static), plus the clicks of a run whose ``j0`` a deviator takes
    on its right (found in phase 2).  Below its ``j0`` a deviator sees the
    non-deviators' takes and what earlier deviators took, from ``j0 + 1`` up
    only what earlier deviators took.  So until some deviator takes a slot,
    the first-order answer computed here from the non-deviators' takes is
    exact; phase 2 (``_replay``) goes on from the first deviator that takes
    one.
    """

    def fits(i, j):
        """In the window and kept by the rule: the pair consumes j."""
        return (np.abs(t2[j] - t1[i]) <= window_ps) & accept[key1[i] + tag2[j]]

    n1, n2 = len(t1), len(t2)
    r = np.searchsorted(t2, t1)
    j0 = _nearer(t1, t2, r - 1, r)
    taken = fits(slice(None), j0)
    before = np.cumsum(taken)
    before -= taken  # accepted clicks before i
    run_start = np.ones(n1, dtype=bool)
    run_start[1:] = j0[1:] != j0[:-1]
    run_before = np.where(run_start, before, 0)
    np.maximum.accumulate(run_before, out=run_before)  # ... before i's run
    deviates = before > run_before
    del before, run_start, run_before
    taken &= ~deviates
    # free_below[k]: the last slot below k that no non-deviator takes
    free_below = np.full(n2 + 1, -1, dtype=np.intp)
    free_below[1:] = np.arange(n2)
    free_below[1:][j0[taken]] = -1
    np.maximum.accumulate(free_below, out=free_below)
    del taken

    dev = np.flatnonzero(deviates)
    below = free_below[r[dev]]
    c = j0[dev]
    j1 = _nearer(t1[dev], t2, below, c + 1)
    met = j1 < n2
    take = met.copy()
    take[met] = fits(dev[met], j1[met])
    stop = np.flatnonzero(take | ~met)
    if not len(stop):
        j0[dev] = j1
        return j0, n1
    first = int(stop[0])
    if not met[first]:
        j0[dev[:first]] = j1[:first]
        return j0, int(dev[first])
    # the slot a first-order answer consumes: -1 for none, n2 when it meets none
    claim = np.where(take | ~met, j1, -1)
    static = [memoryview(a[first:]) for a in (dev, below, c, claim)]
    run_lo = np.zeros(n2 + 1, dtype=np.intp)  # run_lo[k]: the first click whose j0 >= k
    np.cumsum(np.bincount(j0, minlength=n2), out=run_lo[1:])
    j = j0  # the phase-1 answers overwrite j0 only at deviators
    j[dev[met]] = j1[met]
    return j, _replay(static, j, r, t1, key1, t2, tag2, window_ps, accept, free_below, deviates, run_lo)


def _replay(static, j, r, t1, key1, t2, tag2, window_ps, accept, free_below, deviates, run_lo) -> int:
    """Phase 2: replay the deviators in click order and correct their slots
    in ``j``; returns how many D1 clicks meet a D2 click.

    ``static`` holds the columns (click, below, j0, claim) of the static
    deviators' first-order answers.  One holds unless an earlier deviator
    took its ``below`` slot or the slot after its ``j0``; then
    next-free-slot union-find (Tarjan 1975) finds the nearest free slot on
    each side.  ``left`` links a deviator-taken slot down and ``right``
    links it up, every find compresses its path, and the non-deviators'
    takes are skipped through ``free_below``, so the replay stays
    near-linear however many slots get consumed.  A deviator that takes a
    slot on its right queues the run of clicks whose j0 that slot is in
    ``pending``; a click not yet settled still holds its j0 in ``j``.
    """
    n1, n2 = len(j), len(t2)
    accept = accept.tolist()
    # memoryviews read and write single elements as Python ints, without a copy
    at_j, t1, key1, t2, tag2, r, free_below, deviates, run_lo = map(
        memoryview, (j, t1, key1, t2, tag2, r, free_below, deviates, run_lo)
    )
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    pending: list[int] = []  # clicks whose j0 a deviator took, as a heap
    push, pop = heapq.heappush, heapq.heappop

    def find_left(k):
        """The last free slot below ``k``, a slot a deviator took."""
        path = [k]
        k = free_below[left[k] + 1]
        while k in left:
            path.append(k)
            k = free_below[left[k] + 1]
        for p in path:
            left[p] = k
        return k

    def find_right(k):
        """The first free slot above ``k``, a slot a deviator took."""
        path = [k]
        k = right[k]
        while k in right:
            path.append(k)
            k = right[k]
        for p in path:
            right[p] = k
        return k

    def consume(jj, c):
        left[jj] = jj - 1
        right[jj] = jj + 1
        if jj > c and run_lo[jj] < run_lo[jj + 1]:  # the clicks whose j0 is jj deviate now
            push(pending, run_lo[jj])

    def settle(i, lo, c) -> bool:
        """Move deviator i to its nearest free slot; False when there is none."""
        ti = t1[i]
        hi = c + 1
        if lo in left:
            lo = find_left(lo)
        if hi in right:
            hi = find_right(hi)
        if hi < n2 and (lo < 0 or ti - t2[lo] > t2[hi] - ti):
            jj = hi
        elif lo >= 0:
            jj = lo
        else:
            return False
        at_j[i] = jj
        if abs(t2[jj] - ti) <= window_ps and accept[key1[i] + tag2[jj]]:
            consume(jj, c)
        return True

    def settle_pending(limit):
        """Settle the pending clicks before ``limit``; the first that finds
        every D2 consumed, or None."""
        while pending and pending[0] < limit:
            i = pop(pending)
            c = at_j[i]
            if i + 1 < run_lo[c + 1] and not deviates[i + 1]:
                push(pending, i + 1)
            if not settle(i, free_below[r[i]], c):
                return i
        return None

    for i, lo, c, claim in zip(*static):
        if pending and pending[0] < i:
            m = settle_pending(i)
            if m is not None:
                return m
        if lo in left or c + 1 in right:
            if not settle(i, lo, c):
                return i
        elif claim == n2:
            return i  # every D2 click is consumed, for this and all later D1
        elif claim >= 0:
            consume(claim, c)
    m = settle_pending(n1)
    return n1 if m is None else m


@dataclass(frozen=True, slots=True)
class TauHistogram:
    bin_lo_ps: np.ndarray
    bin_hi_ps: np.ndarray
    counts: np.ndarray

    @property
    def centers_ps(self) -> np.ndarray:
        return 0.5 * (self.bin_lo_ps + self.bin_hi_ps)


MAX_HIST_BINS = 2**20


def histogram_tau_si(coincidences: np.ndarray, bin_ps: float, range_ps: float) -> TauHistogram:
    """Histogram of the inter-detector delays of accepted coincidences.

    Bins are centered on zero so a delta-distributed delay lands entirely
    in the central bin; delays beyond +-range_ps are dropped.  A range
    that needs more than ``MAX_HIST_BINS`` bins raises ValueError.
    """
    if bin_ps <= 0 or not math.isfinite(bin_ps):
        raise ValueError("bin width must be positive")
    if range_ps <= 0 or not math.isfinite(range_ps):
        raise ValueError("histogram range must be positive")
    if not np.all(coincidences["accepted"]):
        raise ValueError("histogram expects accepted coincidences only")
    n_side = math.ceil(min(range_ps / bin_ps, MAX_HIST_BINS))  # the ratio may overflow to inf
    n_bins = 2 * n_side + 1
    if n_bins > MAX_HIST_BINS:
        raise ValueError(f"a {range_ps} ps range at {bin_ps} ps bins needs more than {MAX_HIST_BINS} bins")
    counts = np.zeros(n_bins, dtype=np.int64)
    if len(coincidences):
        taus = coincidences["tau_si_ps"].astype(np.float64)
        k = np.floor(taus / bin_ps + 0.5).astype(np.int64)
        keep = (k >= -n_side) & (k <= n_side)
        counts = np.bincount((k[keep] + n_side).astype(np.int64), minlength=n_bins)
    k_axis = np.arange(-n_side, n_side + 1)
    lo = (k_axis - 0.5) * bin_ps
    hi = (k_axis + 0.5) * bin_ps
    return TauHistogram(lo, hi, counts.astype(np.int64))


FIT_MIN_COUNT = 50  # a bin with fewer counts has too noisy a log to fit


def fit_decay_ps(hist: TauHistogram) -> float:
    """Decay constant of the positive-side exponential envelope, fitted as a
    weighted straight line through the log counts of the bins holding at
    least ``FIT_MIN_COUNT``."""
    centers = hist.centers_ps
    mask = (centers > 0) & (hist.counts >= FIT_MIN_COUNT)
    if int(mask.sum()) < 2:
        raise ValueError("not enough populated bins to fit a decay")
    x = centers[mask]
    y = np.log(hist.counts[mask].astype(np.float64))
    w = np.sqrt(hist.counts[mask].astype(np.float64))
    slope, _ = np.polyfit(x, y, 1, w=w)
    if slope >= 0:
        raise ValueError("histogram envelope does not decay")
    return -1.0 / slope


def synthesize_stream(
    batch: PairBatch,
    eraser: EraserSetting | None = None,
    coincidence: CoincidenceSetting | None = None,
    jitter: bool = False,
    seed=0,
) -> TagStream:
    """Realize detector clicks for a batch of generated pairs.

    Without analyzers every photon clicks at its recorded splitter port.
    With analyzers each pair draws one outcome class from its
    distribution; the class dictates which detectors click and with which
    mode tags.  D2 clicks trail D1 by the fixed electronic delay, plus an
    exponential spread of scale tau_c / 2 per pair when ``jitter`` is on.
    Clicks that share a timestamp and a channel appear in emit-rank order,
    then in pair order, so a fixed seed gives a fixed file.
    """
    cs = coincidence if coincidence is not None else CoincidenceSetting()
    rng = np.random.default_rng(seed)
    n = len(batch)
    t_emit = batch.t_emit_ps.astype(np.int64)
    delay_s = np.full(n, cs.tau_si)
    with np.errstate(over="ignore"):  # an overflow gives inf, which the check below rejects
        if jitter:
            delay_s = delay_s + rng.exponential(cs.tau_c / 2.0, n)
        delay_ps = np.rint(delay_s * 1e12)
    del delay_s
    if not delay_ps.max(initial=0.0) < T_PS_LIMIT:  # checked before the cast, which would wrap
        raise StreamFormatError("timestamp at or above 2**63 ps")
    delay_ps = delay_ps.astype(np.int64)

    if eraser is None:
        table = click_table(None)
        state = bare_state(batch.route1, batch.route2, batch.port1, batch.port2, batch.orientation_sign)
    else:
        born = class_table(eraser)
        table = click_table(born.transmission)
        # A pair's outcome is the number of its arms' class edges at or
        # below u_class (searchsorted, side="right").  That number is fixed
        # between two neighbouring cuts, the edges of all arms, so
        # outcome_at[arms, j] holds it for a draw with j cuts at or below it.
        edges = [np.cumsum(born.classes[shared])[:-1] for shared in (1, 0, 0, 2)]
        cuts = sorted(set(np.concatenate(edges).tolist()))
        outcome_at = np.array([np.searchsorted(e, [-1.0, *cuts], side="right") for e in edges], np.uint8)
        u = rng.random(n)  # u_class
        arms = 2 * batch.route1 + batch.route2 - 3  # (1, 1), (1, 2), (2, 1), (2, 2) -> 0..3
        at = arms * np.uint8(len(cuts) + 1)
        for cut in cuts:
            at += u >= cut
        outcome = outcome_at.ravel()[at]
        rng.random(out=u)  # u_route
        state = (4 * outcome + arms) * 2 + (u < np.array(born.splits)[outcome])
        state = 2 * state + (batch.orientation_sign > 0)
    code = (2 * state)[:, None] + np.arange(2, dtype=np.uint8)  # the rows of slots 0 and 1
    keep = np.ones((n, 2), dtype=bool)
    if eraser is not None:
        for slot in (0, 1):  # the u_m1, then the u_m2 draw
            rng.random(out=u)
            keep[:, slot] = u < table["p_click"][code[:, slot]]
        del u

    channel = table["channel"][code]
    key = np.empty((n, 2), dtype=np.int64)  # t_ps, then the sort key
    for slot in (0, 1):
        np.multiply(delay_ps, channel[:, slot], out=key[:, slot])
        key[:, slot] += t_emit
    del t_emit, delay_ps
    if np.any((key < 0) & keep):  # wrapped around the int64 range
        raise StreamFormatError("timestamp at or above 2**63 ps")
    # Below 2**63, t_ps << 1 fits the unsigned key, whose order is time,
    # then D1 before D2.
    key = key.view(np.uint64)
    key <<= 1
    key |= channel
    # Pair-major rows keep the stable sort's input nearly in order, and
    # its ties in pair order, which is emit order within a pair.
    rows = np.flatnonzero(keep)
    key = key.ravel()[rows]
    order = np.argsort(key, kind="stable")
    key, rows = key[order], rows[order]
    del order
    code = code.ravel()[rows]
    pair = rows
    pair >>= 1
    same = key[1:] == key[:-1]
    mixed = same & (pair[1:] != pair[:-1])
    if mixed.any():  # runs of equal keys that mix pairs go in (rank, pair) order
        run = np.concatenate(([0], np.cumsum(~same)))
        tied = np.flatnonzero(np.isin(run, run[1:][mixed]))
        by_rank = tied[np.lexsort((pair[tied], table["rank"][code[tied]], run[tied]))]
        code[tied], pair[tied] = code[by_rank], pair[by_rank]
    key >>= 1
    return TagStream.from_fields(key, table["channel"][code], table["tag"][code], batch.pair_id[pair])


def write_histogram_csv(hist: TauHistogram, path) -> None:
    rows = zip(hist.bin_lo_ps.tolist(), hist.bin_hi_ps.tolist(), hist.counts.tolist())
    emit_csv(Table(("bin_lo_ps", "bin_hi_ps", "count"), list(rows)), path)


# the ",accepted,reject_reason" end of a CSV row, indexed by 4 * accepted + reason
_CSV_ROW_ENDS = tuple(f",{accepted},{reason}" for accepted in (0, 1) for reason in REJECT_REASONS)


def write_coincidences_csv(coincidences: np.ndarray, path) -> None:
    lines = ["t1_ps,t2_ps,tau_si_ps,accepted,reject_reason"]
    ends = 4 * coincidences["accepted"].astype(np.uint8) + coincidences["reason"]
    columns = zip(
        coincidences["t1_ps"].tolist(),
        coincidences["t2_ps"].tolist(),
        coincidences["tau_si_ps"].tolist(),
        ends.tolist(),
    )
    lines += [f"{t1},{t2},{tau}{_CSV_ROW_ENDS[end]}" for t1, t2, tau, end in columns]
    FsPath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
