"""The four benchmark workloads: the CLI calls each one times, its set-up,
the work it does, and the checks that its outputs are correct.

Everything goes through ``cesim.cli.main`` argv lists and the output
formats README.md documents (the CESIMTT1 stream, the coincidence and
histogram CSVs, the table CSVs and the printed summary lines).  Nothing
reads an internal return type, so refactors inside the library cannot
break the benchmark; only a change of the CLI contract can.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the
# smoke test fast.  Host contention varies from second to second, so a
# run's median needs many iterations: the full sizes keep one iteration
# near a second (events_generate, at 1M pairs, under it) while each
# workload's dominant layer stays dominant.
SCALES = {
    "full": {"gen_pairs": 1_000_000, "match_pairs": 100_000, "grid": "-2e6:2e6:8e4",
             "mc_pairs": 200_000, "mc_grid": "-2e6:2e6:1e6"},
    "tiny": {"gen_pairs": 200_000, "match_pairs": 20_000, "grid": "-2e6:2e6:1e6",
             "mc_pairs": 20_000, "mc_grid": "-2e6:2e6:1e6"},
}

TAU_C_PS = 1.0e6  # 1 / delta-hz at the CLI default of 1e6 Hz
WINDOW_PS = 10_000_000
DEPHASING_SAMPLES = 100_000
DECAY_TOLERANCE = 0.10  # acceptance criterion 09
FRACTION_TOLERANCE = 0.004  # acceptance criterion 07
FIT_MIN_COUNT = 50

# CESIMTT1 as README.md specifies it, independent of cesim.eventstream.
MAGIC = b"CESIMTT1"
HEADER_SIZE = 10
RECORD = np.dtype([("t_ps", "<u8"), ("channel", "u1"), ("flags", "u1"),
                   ("pair_id", "<u4"), ("reserved", "<u2")])
FLAG_BRANCH_PLUS = 0x01
FLAG_POL_V = 0x02

REJECT_REASONS = ("out-of-window", "cross-polarization", "same-detuning")


@dataclass(frozen=True)
class Params:
    seed: int
    scale: str
    dir: Path

    def size(self, key: str):
        return SCALES[self.scale][key]

    def path(self, name: str) -> Path:
        return self.dir / name


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_errors(p: Params, workload: str, files) -> list[str]:
    """On the recorded default seed, every pinned output must be
    byte-identical to the one recorded in reference.json."""
    if p.seed != REFERENCE["default_seed"]:
        return []
    pinned = REFERENCE["digests"].get(p.scale, {}).get(workload, {})
    errors = []
    for name in files:
        want = pinned.get(name)
        got = sha256(p.path(name))
        if want != got:
            errors.append(f"{name}: sha256 {got} differs from the recorded {want}")
    return errors


def read_stream(path: Path) -> np.ndarray:
    """Decode a CESIMTT1 file; raise ValueError on any format violation."""
    data = path.read_bytes()
    if len(data) < HEADER_SIZE or data[:8] != MAGIC:
        raise ValueError("bad magic")
    if int.from_bytes(data[8:10], "little") != 1:
        raise ValueError("unsupported version")
    if (len(data) - HEADER_SIZE) % RECORD.itemsize:
        raise ValueError("truncated record")
    records = np.frombuffer(data, dtype=RECORD, offset=HEADER_SIZE)
    if np.any(records["channel"] > 1):
        raise ValueError("channel outside {0, 1}")
    for ch in (0, 1):
        t = records["t_ps"][records["channel"] == ch]
        if np.any(t[1:] < t[:-1]):
            raise ValueError(f"timestamp regression on channel {ch}")
    return records


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def read_coincidences(path: Path) -> dict:
    """Candidate counts by outcome, and the accepted rows' timestamps."""
    text = path.read_text(encoding="utf-8")
    candidates = text.count("\n") - 1
    counts = {reason: text.count(f",0,{reason}\n") for reason in REJECT_REASONS}
    cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 3),
                      dtype=np.int64, ndmin=2)
    accepted = cols[:, 2] == 1
    return {"candidates": candidates, "accepted": int(accepted.sum()), "rejected": counts,
            "t1": cols[accepted, 0], "t2": cols[accepted, 1]}


def clicks_at(records: np.ndarray, channel: int, t_ps: np.ndarray):
    """The first and last click of one channel at each timestamp, and
    whether one exists.  A pair whose photons leave by one port clicks
    twice at one time, so a timestamp can name two clicks."""
    clicks = records[records["channel"] == channel]
    t = t_ps.astype(np.uint64)
    if len(clicks) == 0:
        none = np.zeros(len(t), RECORD)
        return none, none, np.zeros(len(t), bool)
    first = np.searchsorted(clicks["t_ps"], t, "left")
    last = np.searchsorted(clicks["t_ps"], t, "right") - 1
    found = last >= first
    return clicks[np.minimum(first, len(clicks) - 1)], clicks[np.maximum(last, 0)], found


def selection_violations(records: np.ndarray, coinc: dict) -> int:
    """Accepted rows that break the README's selection rule: both clicks
    must exist, share the polarization bit, sit on opposite branches and
    lie within the window."""
    a_first, a_last, found_a = clicks_at(records, 0, coinc["t1"])
    b_first, b_last, found_b = clicks_at(records, 1, coinc["t2"])
    rule = np.zeros(len(found_a), bool)
    for a in (a_first, a_last):
        for b in (b_first, b_last):
            rule |= (((a["flags"] & FLAG_POL_V) == (b["flags"] & FLAG_POL_V))
                     & ((a["flags"] & FLAG_BRANCH_PLUS) != (b["flags"] & FLAG_BRANCH_PLUS)))
    ok = found_a & found_b & rule & (np.abs(coinc["t2"] - coinc["t1"]) <= WINDOW_PS)
    return int(np.count_nonzero(~ok))


def join_ground_truth(records: np.ndarray, coinc: dict) -> tuple[float, float]:
    """(recovery, purity) of the accepted coincidences against pair ids.

    A true pair has exactly one D1 and one D2 click with the same
    polarization bit and opposite branch bits.  Recovery is the share of
    true pairs that some accepted row joins; purity is the share of
    accepted rows whose two clicks carry the same pair id.
    """
    d1 = records[records["channel"] == 0]
    d2 = records[records["channel"] == 1]
    ids1, first1, n1 = np.unique(d1["pair_id"], return_index=True, return_counts=True)
    ids2, first2, n2 = np.unique(d2["pair_id"], return_index=True, return_counts=True)
    both, i1, i2 = np.intersect1d(ids1, ids2, assume_unique=True, return_indices=True)
    f1 = d1["flags"][first1[i1]]
    f2 = d2["flags"][first2[i2]]
    true = ((n1[i1] == 1) & (n2[i2] == 1)
            & ((f1 & FLAG_POL_V) == (f2 & FLAG_POL_V))
            & ((f1 & FLAG_BRANCH_PLUS) != (f2 & FLAG_BRANCH_PLUS)))
    true_ids = both[true]
    a, _, found_a = clicks_at(records, 0, coinc["t1"])
    b, _, found_b = clicks_at(records, 1, coinc["t2"])
    same = found_a & found_b & (a["pair_id"] == b["pair_id"])
    recovered = np.intersect1d(a["pair_id"][same], true_ids)
    recovery = len(recovered) / len(true_ids) if len(true_ids) else 0.0
    purity = float(same.mean()) if len(same) else 0.0
    return recovery, purity


def fit_decay_ps(path: Path) -> float:
    """Decay constant of the positive-side envelope of a histogram CSV,
    fitted as a weighted straight line through the log counts."""
    _, rows = read_table(path)
    centers = 0.5 * (rows[:, 0] + rows[:, 1])
    counts = rows[:, 2]
    keep = (centers > 0) & (counts >= FIT_MIN_COUNT)
    if keep.sum() < 2:
        raise ValueError("too few populated bins to fit a decay")
    slope, _ = np.polyfit(centers[keep], np.log(counts[keep]), 1, w=np.sqrt(counts[keep]))
    if slope >= 0:
        raise ValueError("histogram envelope does not decay")
    return -1.0 / slope


class Workload:
    """Defaults shared by the workloads; each subclass names its CLI calls."""

    name = ""
    pinned: tuple[str, ...] = ()
    # The calibration kernel child.py times around each call, as (integer
    # loop steps, float rows formatted, sorts of 200k floats): a mix like the
    # workload's own, so that a slow phase of the host slows both alike.
    # Mostly interpreter work by default.
    calibration = (50_000, 6_000, 2)

    def warmup(self, p: Params) -> list[list[str]]:
        return []

    def setup(self, p: Params) -> list[list[str]]:
        return []

    def calls(self, p: Params) -> list[list[str]]:
        raise NotImplementedError

    def work(self, p: Params) -> float:
        """Work units one timed iteration performs."""
        raise NotImplementedError

    def check(self, p: Params, stdout: str) -> list[str]:
        """Error messages for one iteration's outputs; empty when correct."""
        return digest_errors(p, self.name, self.pinned)

    def join(self, p: Params) -> tuple[float, float]:
        # No workload but events_match joins clicks; nothing true was missed
        # and no accepted row is impure, so both shares are 1 by convention.
        return 1.0, 1.0

    def layer_counts(self, p: Params) -> dict[str, float]:
        """Per-layer counts read from the output files."""
        return {}

    def arrays(self, p: Params) -> dict[str, int]:
        """Bytes of the main arrays one iteration works on."""
        return {}


class EventsGenerate(Workload):
    name = "events_generate"
    pinned = ("stream.bin",)
    # whole-array numpy work over 1M pairs; the interpreter-heavy default
    # kernel swings further than this workload does in a slow phase
    calibration = (150_000, 0, 4)

    def _argv(self, p, pairs, out):
        return ["events-generate", "--pairs", str(pairs), "--xi-deg", "22.5",
                "--theta-deg", "22.5", "--seed", str(p.seed), "--out", out]

    def warmup(self, p):
        return [self._argv(p, 1000, "warmup.bin")]

    def calls(self, p):
        return [self._argv(p, p.size("gen_pairs"), "stream.bin")]

    def work(self, p):
        return p.size("gen_pairs")

    def check(self, p, stdout):
        errors = []
        try:
            records = read_stream(p.path("stream.bin"))
        except ValueError as exc:
            return [f"stream.bin does not decode: {exc}"]
        m = re.search(r"(\d+) records from (\d+) pairs \(pre-analyzer accepted fraction ([0-9.]+)\)",
                      stdout)
        if m is None:
            return [f"unexpected events-generate output: {stdout!r}"]
        if int(m.group(1)) != len(records) or int(m.group(2)) != p.size("gen_pairs"):
            errors.append(f"printed counts {m.group(1)}/{m.group(2)} disagree with the stream")
        fraction = float(m.group(3))
        if abs(fraction - 0.25) > FRACTION_TOLERANCE:
            errors.append(f"pre-analyzer fraction {fraction} is not within "
                          f"{FRACTION_TOLERANCE} of 0.25")
        return errors + super().check(p, stdout)

    def layer_counts(self, p):
        return {"eventstream.encode_stream.bytes_out": p.path("stream.bin").stat().st_size}

    def arrays(self, p):
        n = p.size("gen_pairs")
        return {"stream_records": p.path("stream.bin").stat().st_size - HEADER_SIZE,
                "pair_batch_columns": n * 25}  # bytes per pair over PairBatch's eight columns


class EventsMatch(Workload):
    name = "events_match"
    pinned = ("input.bin", "coinc.csv", "hist.csv")

    def warmup(self, p):
        return [["events-generate", "--pairs", "1000", "--jitter", "--seed", str(p.seed),
                 "--out", "warmup.bin"],
                ["events-match", "--in", "warmup.bin", "--window-ps", str(WINDOW_PS),
                 "--out", "warmup.csv", "--hist-out", "warmup_hist.csv"]]

    def setup(self, p):
        return [["events-generate", "--pairs", str(p.size("match_pairs")), "--jitter",
                 "--seed", str(p.seed), "--out", "input.bin"]]

    def calls(self, p):
        return [["events-match", "--in", "input.bin", "--window-ps", str(WINDOW_PS),
                 "--out", "coinc.csv", "--hist-out", "hist.csv"]]

    def work(self, p):
        return p.size("match_pairs")

    def check(self, p, stdout):
        errors = []
        try:
            decay = fit_decay_ps(p.path("hist.csv"))
            rel = abs(decay - TAU_C_PS / 2) / (TAU_C_PS / 2)
            if rel > DECAY_TOLERANCE:
                errors.append(f"fitted decay {decay:.1f} ps is {rel:.1%} off tau_c/2")
        except ValueError as exc:
            errors.append(f"hist.csv: {exc}")
        m = re.search(r"(\d+) candidates, (\d+) accepted", stdout)
        if m is None:
            return errors + [f"unexpected events-match output: {stdout!r}"]
        coinc = read_coincidences(p.path("coinc.csv"))
        if (coinc["candidates"], coinc["accepted"]) != (int(m.group(1)), int(m.group(2))):
            errors.append("coinc.csv row counts disagree with the printed summary")
        if coinc["accepted"] + sum(coinc["rejected"].values()) != coinc["candidates"]:
            errors.append("accepted and rejected rows do not add up to the candidates")
        bad = selection_violations(read_stream(p.path("input.bin")), coinc)
        if bad:
            errors.append(f"{bad} accepted rows break the selection rule")
        return errors + super().check(p, stdout)

    def join(self, p):
        return join_ground_truth(read_stream(p.path("input.bin")),
                                 read_coincidences(p.path("coinc.csv")))

    def layer_counts(self, p):
        coinc = read_coincidences(p.path("coinc.csv"))
        _, hist = read_table(p.path("hist.csv"))
        m = "eventstream.match_coincidences."
        counts = {m + "candidates": coinc["candidates"], m + "accepted": coinc["accepted"],
                  m + "accept_ratio": coinc["accepted"] / max(coinc["candidates"], 1)}
        for reason, n in coinc["rejected"].items():
            counts[m + "rejected_" + reason.replace("-", "_")] = n
        counts["eventstream.write_coincidences_csv.bytes_out"] = p.path("coinc.csv").stat().st_size
        counts["eventstream.histogram_tau_si.in_range_frac"] = (
            hist[:, 2].sum() / max(coinc["accepted"], 1))
        return counts

    def arrays(self, p):
        return {"stream_records": p.path("input.bin").stat().st_size - HEADER_SIZE,
                "coincidence_csv": p.path("coinc.csv").stat().st_size}


def _grid_points(grid: str) -> int:
    lo, hi, step = (float(v) for v in grid.split(":"))
    return int(round((hi - lo) / step)) + 1


def _rows(path: Path) -> int:
    return path.read_text(encoding="utf-8").count("\n") - 1


class TablesAnalytic(Workload):
    name = "tables_analytic"
    pinned = ("fig2b.csv", "fig2a.csv", "chsh.csv", "local.csv")

    def warmup(self, p):
        return [["correlation", "--xi-deg", "22.5", "--theta-deg", "22.5"]]

    def calls(self, p):
        # --grid=LO:HI:STEP: argparse takes "-2e6:..." after a space for a flag
        grid = "--grid=" + p.size("grid")
        return [["fig2b", grid, "--out", "fig2b.csv"], ["fig2a", grid, "--out", "fig2a.csv"],
                ["chsh", "--out", "chsh.csv"], ["local", "--out", "local.csv"]]

    def work(self, p):
        # network propagations: each analytic_r value propagates the setting
        # and the aligned reference; a CHSH correlation takes four values
        # and a local row one propagation
        n_grid = _grid_points(p.size("grid"))
        return (2 * (_rows(p.path("fig2b.csv")) * n_grid + _rows(p.path("fig2a.csv")))
                + 8 * _rows(p.path("chsh.csv")) + _rows(p.path("local.csv")))

    def check(self, p, stdout):
        header, rows = read_table(p.path("fig2b.csv"))
        angle = rows[:, header.index("xi_plus_theta_deg")]
        r = rows[:, header.index("r_si")]
        worst = float(np.max(np.abs(r - np.cos(np.radians(angle)) ** 2)))
        errors = [] if worst <= 1e-12 else [f"fig2b departs from cos^2(xi+theta) by {worst:.3g}"]
        return errors + super().check(p, stdout)

    def arrays(self, p):
        return {"grid_values": 8 * _grid_points(p.size("grid"))}


class TablesMc(Workload):
    name = "tables_mc"
    tables = ("fig2b", "fig2a", "chsh", "local", "dephasing")

    def warmup(self, p):
        return [["chsh", "--mode", "mc", "--pairs", "1000", "--seed", str(p.seed)]]

    def calls(self, p):
        # --mode mc rather than both: see the known bugs in reference.json
        argv = {t: [t, "--mode", "mc", "--pairs", str(p.size("mc_pairs")), "--seed", str(p.seed),
                    "--out", f"{t}.csv"] for t in self.tables}
        argv["fig2b"].append("--grid=" + p.size("mc_grid"))
        argv["fig2a"].append("--grid=" + p.size("mc_grid"))
        argv["dephasing"] += ["--samples", str(DEPHASING_SAMPLES)]
        return list(argv.values())

    def work(self, p):
        # simulated pairs: one draw of n pairs per fig2 row plus its
        # reference run, four per CHSH correlation and per local row, and
        # two draws of the detuning samples per dephasing row
        n = p.size("mc_pairs")
        rows = {t: _rows(p.path(f"{t}.csv")) for t in self.tables}
        return (n * (rows["fig2b"] + 1 + rows["fig2a"] + 1 + 4 * rows["chsh"] + 4 * rows["local"])
                + 2 * DEPHASING_SAMPLES * rows["dephasing"])

    def check(self, p, stdout):
        m = re.search(r"S_mc = (\S+) \+- (\S+)", stdout)
        if m is None:
            return [f"no S_mc line in the chsh output: {stdout!r}"]
        s_mc, err = float(m.group(1)), float(m.group(2))
        if abs(s_mc - 2 * math.sqrt(2)) > 3 * err:
            return [f"S_mc = {s_mc} +- {err} is not within 3 sigma of 2 sqrt 2"]
        return []

    def arrays(self, p):
        return {"mc_draws": 8 * p.size("mc_pairs")}


WORKLOADS = {w.name: w for w in (EventsGenerate(), EventsMatch(), TablesAnalytic(), TablesMc())}
