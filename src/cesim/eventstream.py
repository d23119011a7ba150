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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .detection import (
    FLAG_BRANCH_PLUS,
    FLAG_POL_V,
    TAG_BITS,
    CoincidenceSetting,
    Outcome,
    SelectionRule,
    accepted_route_split,
    lone_click_route_split,
    mode_tag,
    outcome_probabilities,
)
from .interferometer import EraserSetting
from .source import PairBatch

MAGIC = b"CESIMTT1"
VERSION = 1
T_PS_LIMIT = 2**63  # keeps every timestamp exact in the matcher's int64 arithmetic

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


class StreamFormatError(Exception):
    """Base class for time-tag serialization errors."""


class BadMagicError(StreamFormatError):
    pass


class VersionMismatchError(StreamFormatError):
    pass


class TruncatedRecordError(StreamFormatError):
    pass


class TimestampOrderError(StreamFormatError):
    pass


class UnknownChannelError(StreamFormatError):
    pass


class TimestampRangeError(StreamFormatError):
    pass


class TagStream:
    """Decoded click stream backed by a structured numpy array, valid by
    construction: building one runs ``validate``."""

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray):
        if array.dtype != RECORD_DTYPE:
            array = array.astype(RECORD_DTYPE)
        self._array = array
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
        """Raise the StreamFormatError of the first broken wire-format rule:
        channels in {0, 1}, timestamps below 2**63, time order per channel."""
        channel = self._array["channel"]
        t = self._array["t_ps"]
        if np.any(channel > 1):
            raise UnknownChannelError("channel outside {0 = D1, 1 = D2}")
        if np.any(t >= T_PS_LIMIT):
            raise TimestampRangeError("timestamp at or above 2**63 ps")
        if np.all(t[1:] >= t[:-1]):
            return  # in time order overall, so in time order per channel
        for ch in (0, 1):
            t_ch = t[channel == ch]
            if np.any(t_ch[1:] < t_ch[:-1]):
                raise TimestampOrderError("timestamps must be non-decreasing per channel")

    def __len__(self) -> int:
        return len(self._array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TagStream):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self._array == other._array))

    def __repr__(self) -> str:
        return f"TagStream({len(self)} records)"


def encode_stream(stream: TagStream) -> bytes:
    """Serialize a (valid by construction) stream to the wire format."""
    return MAGIC + VERSION.to_bytes(2, "little") + stream.array.tobytes()


def decode_stream(data: bytes) -> TagStream:
    """Parse the wire format back into a stream, validating as it goes."""
    if len(data) < HEADER_SIZE or data[: len(MAGIC)] != MAGIC:
        raise BadMagicError("not a CESIMTT1 stream")
    version = int.from_bytes(data[len(MAGIC) : HEADER_SIZE], "little")
    if version != VERSION:
        raise VersionMismatchError(f"unsupported stream version {version}")
    body = data[HEADER_SIZE:]
    if len(body) % RECORD_SIZE != 0:
        raise TruncatedRecordError(
            f"stream body of {len(body)} bytes is not a whole number of {RECORD_SIZE}-byte records"
        )
    return TagStream(np.frombuffer(body, dtype=RECORD_DTYPE).copy())


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
    return REJECT_REASONS.index("none")  # a custom rule rejected a tag-compatible pair


_REJECT_REASON_CODES = np.array([_reject_reason(key) for key in range(16)], dtype=np.uint8)


def _find_free(parent: list[int], k: int) -> int:
    """Root of slot ``k`` in a next-free-slot forest, compressing the path."""
    root = parent[k]
    while parent[root] != root:
        root = parent[root]
    while parent[k] != root:
        parent[k], k = root, parent[k]
    return root


def match_coincidences(
    stream: TagStream, window_ps: int, rule: SelectionRule | None = None
) -> np.ndarray:
    """Single pass over the two detector channels.

    Every D1 click is paired with its nearest unconsumed D2 click, ties
    breaking toward the earlier D2.  Candidates beyond the window are
    reported as out-of-window; candidates inside it are checked against the
    selection rule on the two clicks' flag tags.  Only accepted pairs
    consume their clicks, so each click joins at most one accepted
    coincidence.  Returns a COINCIDENCE_DTYPE array, one row per candidate
    in D1 order.
    """
    if window_ps < 0:
        raise ValueError("window must be non-negative")
    rule = rule or SelectionRule.heterodyne()

    arr = stream.array
    mask2 = arr["channel"] == 1
    d1 = arr[~mask2]
    d2 = arr[mask2]
    t1 = d1["t_ps"].astype(np.int64)
    t2 = d2["t_ps"].astype(np.int64)
    key1 = 4 * (d1["flags"] & TAG_BITS)
    tag2 = d2["flags"] & TAG_BITS
    accept = np.array([rule.accepts(key >> 2, key & TAG_BITS) for key in range(16)])

    # Next-free-slot union-find (Tarjan 1975): right[k] leads to the first
    # unconsumed D2 at or after k (n2 when none), left[k] to the last one
    # before k, shifted by one (0 when none).  A consumed slot links to its
    # neighbour and every find compresses its path, so skipping consumed
    # clicks stays near-linear even when most of them are consumed.
    n2 = len(t2)
    right = list(range(n2 + 1))
    left = right[:]
    t2_list = t2.tolist()
    tag2_list = tag2.tolist()
    accept_list = accept.tolist()
    met: list[int] = []  # the D2 click the i-th D1 click meets
    for ti, k1, r in zip(t1.tolist(), key1.tolist(), np.searchsorted(t2, t1).tolist()):
        lft = r
        if right[r] != r:
            r = _find_free(right, r)
        if left[lft] != lft:
            lft = _find_free(left, lft)
        if lft == 0:
            if r == n2:
                break  # every D2 click is consumed, for this and all later D1
            j = r
        elif r == n2 or ti - t2_list[lft - 1] <= t2_list[r] - ti:
            j = lft - 1  # the tie goes to the earlier D2
        else:
            j = r
        if abs(t2_list[j] - ti) <= window_ps and accept_list[k1 + tag2_list[j]]:
            right[j] = j + 1
            left[j + 1] = j
        met.append(j)

    # the D1 clicks that meet a D2 click are a prefix of the channel
    m = len(met)
    j = np.array(met, dtype=np.intp)
    out = np.zeros(m, dtype=COINCIDENCE_DTYPE)
    out["t1_ps"] = t1[:m]
    out["t2_ps"] = t2[j]
    out["tau_si_ps"] = out["t2_ps"] - out["t1_ps"]
    out["pair_id_1"] = d1["pair_id"][:m]
    out["pair_id_2"] = d2["pair_id"][j]
    key = key1[:m] + tag2[j]
    in_window = np.abs(out["tau_si_ps"]) <= window_ps
    out["accepted"] = in_window & accept[key]
    reasons = np.where(accept, 0, _REJECT_REASON_CODES)  # code 0 is "none"
    out["reason"] = np.where(in_window, reasons[key], OUT_OF_WINDOW)
    return out


@dataclass(frozen=True, slots=True)
class TauHistogram:
    bin_lo_ps: np.ndarray
    bin_hi_ps: np.ndarray
    counts: np.ndarray

    @property
    def centers_ps(self) -> np.ndarray:
        return 0.5 * (self.bin_lo_ps + self.bin_hi_ps)


def histogram_tau_si(coincidences: np.ndarray, bin_ps: float, range_ps: float) -> TauHistogram:
    """Histogram of the inter-detector delays of accepted coincidences.

    Bins are centered on zero so a delta-distributed delay lands entirely
    in the central bin; delays beyond +-range_ps are dropped.
    """
    if bin_ps <= 0 or not math.isfinite(bin_ps):
        raise ValueError("bin width must be positive")
    if range_ps <= 0 or not math.isfinite(range_ps):
        raise ValueError("histogram range must be positive")
    if not np.all(coincidences["accepted"]):
        raise ValueError("histogram expects accepted coincidences only")
    n_side = int(math.ceil(range_ps / bin_ps))
    n_bins = 2 * n_side + 1
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


def fit_decay_ps(hist: TauHistogram, min_count: int = 10) -> float:
    """Decay constant of the positive-side exponential envelope, fitted as a
    weighted straight line through the log counts."""
    centers = hist.centers_ps
    mask = (centers > 0) & (hist.counts >= min_count)
    if int(mask.sum()) < 2:
        raise ValueError("not enough populated bins to fit a decay")
    x = centers[mask]
    y = np.log(hist.counts[mask].astype(np.float64))
    w = np.sqrt(hist.counts[mask].astype(np.float64))
    slope, _ = np.polyfit(x, y, 1, w=w)
    if slope >= 0:
        raise ValueError("histogram envelope does not decay")
    return -1.0 / slope


class _ClickBuffer:
    def __init__(self):
        self.t: list[np.ndarray] = []
        self.ch: list[np.ndarray] = []
        self.fl: list[np.ndarray] = []
        self.id: list[np.ndarray] = []

    def add(self, t, channel, tags, pair_id):
        n = len(t)
        if n == 0:
            return
        self.t.append(np.asarray(t, dtype=np.int64))
        self.ch.append(np.full(n, channel, dtype=np.uint8))
        self.fl.append(np.asarray(tags, dtype=np.uint8))
        self.id.append(np.asarray(pair_id, dtype=np.uint32))

    def build(self) -> TagStream:
        if not self.t:
            return TagStream(np.zeros(0, dtype=RECORD_DTYPE))
        t = np.concatenate(self.t)
        ch = np.concatenate(self.ch)
        fl = np.concatenate(self.fl)
        pid = np.concatenate(self.id)
        order = np.lexsort((ch, t))
        return TagStream.from_fields(t[order].astype(np.uint64), ch[order], fl[order], pid[order])


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
    """
    cs = coincidence if coincidence is not None else CoincidenceSetting()
    rng = np.random.default_rng(seed)
    n = len(batch)
    t_emit = batch.t_emit_ps.astype(np.int64)
    delay_s = np.full(n, cs.tau_si)
    if jitter:
        delay_s = delay_s + rng.exponential(cs.tau_c / 2.0, n)
    delay_ps = np.rint(delay_s * 1e12).astype(np.int64)

    s1 = batch.orientation_sign.astype(np.int8)  # branch sign of arm 1
    buf = _ClickBuffer()

    # The order of the emit calls fixes the order of clicks that share a
    # timestamp and a channel, and with it the stream's bytes.
    def emit(idx, channel, route):
        """Clicks at detector ``channel`` of the photons from arm ``route``."""
        t = t_emit[idx] + (delay_ps[idx] if channel == 1 else 0)
        buf.add(t, channel, mode_tag(route, channel, s1[idx]), batch.pair_id[idx])

    if eraser is None:
        for route, port in ((batch.route1, batch.port1), (batch.route2, batch.port2)):
            for channel in (0, 1):
                idx = np.flatnonzero(port == channel)
                emit(idx, channel, route[idx])
        return buf.build()

    u_class = rng.random(n)
    u_route = rng.random(n)
    u_m1 = rng.random(n)
    u_m2 = rng.random(n)

    cross = batch.cross_mask
    cls = np.full(n, -1, dtype=np.int64)  # an Outcome per pair

    def classify(mask, shared_path):
        edges = np.cumsum(outcome_probabilities(shared_path, eraser))[:-1]
        cls[mask] = np.searchsorted(edges, u_class[mask], side="right")

    classify(cross, None)
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

    return buf.build()


def write_histogram_csv(hist: TauHistogram, path) -> None:
    lines = ["bin_lo_ps,bin_hi_ps,count"]
    for lo, hi, count in zip(hist.bin_lo_ps, hist.bin_hi_ps, hist.counts):
        lines.append(f"{format(lo, '.17g')},{format(hi, '.17g')},{int(count)}")
    FsPath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_coincidences_csv(coincidences: np.ndarray, path) -> None:
    lines = ["t1_ps,t2_ps,tau_si_ps,accepted,reject_reason"]
    columns = zip(
        coincidences["t1_ps"].tolist(),
        coincidences["t2_ps"].tolist(),
        coincidences["tau_si_ps"].tolist(),
        coincidences["accepted"].astype(np.uint8).tolist(),
        coincidences["reason"].tolist(),
    )
    lines += [f"{t1},{t2},{tau},{acc},{REJECT_REASONS[reason]}" for t1, t2, tau, acc, reason in columns]
    FsPath(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
