import dataclasses
import gc
import hashlib
import math
import statistics
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesim.detection import CoincidenceSetting, mode_tag, selection_efficiency
from cesim.eventstream import (
    COINCIDENCE_DTYPE,
    HEADER_SIZE,
    MAGIC,
    MAX_HIST_BINS,
    RECORD_DTYPE,
    RECORD_SIZE,
    REJECT_REASONS,
    StreamFormatError,
    TagStream,
    decode_stream,
    encode_stream,
    fit_decay_ps,
    histogram_tau_si,
    match_coincidences,
    synthesize_stream,
    write_coincidences_csv,
    write_histogram_csv,
)
from cesim.interferometer import EraserSetting
from cesim.source import PairBatch, SourceConfig, sample_n_pairs

from _oracles import (
    RULE_MASKS,
    accept_table,
    label_from_click,
    photon_label,
    reference_match,
    reference_synthesize,
    selection_rule,
)

V_PLUS = 0b11   # V polarization, positive branch
V_MINUS = 0b10
H_PLUS = 0b01
H_MINUS = 0b00
# the analyzer edges 0, pi/4 and pi/2, where outcome classes and route
# splits vanish, and any angle in between
ANALYZER_ANGLES = st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(-math.pi, math.pi)


def make_stream(rows):
    """A stream of (t_ps, channel, flags, pair_id) rows."""
    return TagStream.from_fields(*(zip(*rows) if rows else ([],) * 4))


def stream_rows(stream):
    return [row[:4] for row in stream.array.tolist()]


def coincidence_rows(coincidences):
    """The matcher's rows with the reason spelled out, as the oracle writes them."""
    return [(*row[:4], REJECT_REASONS[row[4]], *row[5:]) for row in coincidences.tolist()]


def accepted_coincidences(n, tau_ps=0):
    out = np.zeros(n, dtype=COINCIDENCE_DTYPE)
    out["t2_ps"] = out["tau_si_ps"] = tau_ps
    out["accepted"] = True
    return out


class TestWireFormat:
    def test_empty_stream_is_header_only(self):
        data = encode_stream(make_stream([]))
        assert len(data) == HEADER_SIZE == 10
        assert decode_stream(data) == make_stream([])

    def test_single_record_exact_bytes(self):
        data = encode_stream(make_stream([(1, 0, 0, 7)]))
        assert len(data) == 26
        assert data[:8] == MAGIC
        assert data[8:10] == (1).to_bytes(2, "little")
        assert data[10:18] == (1).to_bytes(8, "little")  # t_ps
        assert data[18] == 0  # channel
        assert data[19] == 0  # flags
        assert data[20:24] == (7).to_bytes(4, "little")  # pair_id
        assert data[24:26] == b"\x00\x00"  # reserved
        assert stream_rows(decode_stream(data)) == [(1, 0, 0, 7)]

    def test_encode_copies_the_body_once(self):
        n = 500_000
        stream = TagStream.from_fields(
            np.arange(n, dtype=np.uint64), np.arange(n) % 2, np.arange(n) % 4, np.arange(n, dtype=np.uint32)
        )
        tracemalloc.start()
        try:
            data = encode_stream(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        body = n * RECORD_SIZE
        assert data[HEADER_SIZE:] == stream.array.tobytes()
        assert peak <= 1.1 * body

    def test_encode_reads_a_strided_array(self):
        array = np.zeros(6, dtype=RECORD_DTYPE)
        array["t_ps"] = np.arange(6)
        stream = TagStream(array[::2])
        assert decode_stream(encode_stream(stream)) == stream

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError, match="not a CESIMTT1 stream"):
            decode_stream(b"NOTMAGIC" + b"\x01\x00")
        with pytest.raises(StreamFormatError, match="not a CESIMTT1 stream"):
            decode_stream(b"CESIM")  # short header

    def test_version_mismatch(self):
        with pytest.raises(StreamFormatError, match="unsupported stream version"):
            decode_stream(MAGIC + (2).to_bytes(2, "little"))

    def test_truncated_record(self):
        data = encode_stream(make_stream([(1, 0, 0, 7)]))
        with pytest.raises(StreamFormatError, match="not a whole number of 16-byte records"):
            decode_stream(data[:-3])

    def test_timestamp_regression(self):
        good = encode_stream(make_stream([(100, 0, 0, 0), (50, 1, 0, 1)]))
        assert len(decode_stream(good)) == 2  # regression across channels is fine
        raw = bytearray(good)
        raw[HEADER_SIZE + RECORD_SIZE + 8] = 0  # second record onto channel 0 -> regression
        with pytest.raises(StreamFormatError, match="non-decreasing per channel"):
            decode_stream(bytes(raw))

    def test_encode_rejects_unsorted(self):
        # a stream is validated when it is built, so there is none to encode
        with pytest.raises(StreamFormatError, match="non-decreasing per channel"):
            encode_stream(make_stream([(100, 0, 0, 0), (50, 0, 0, 1)]))

    def test_unknown_channel_rejected(self):
        # a channel-7 click used to decode and match as a D1 click
        rows = [(1000, 7, V_MINUS, 1), (1400, 1, V_PLUS, 1)]
        with pytest.raises(StreamFormatError, match="channel outside"):
            encode_stream(make_stream(rows))
        raw = bytearray(encode_stream(make_stream([(1000, 0, V_MINUS, 1), (1400, 1, V_PLUS, 1)])))
        raw[HEADER_SIZE + 8] = 7
        with pytest.raises(StreamFormatError, match="channel outside"):
            decode_stream(bytes(raw))
        with pytest.raises(StreamFormatError, match="channel outside"):
            match_coincidences(make_stream(rows), 1000)

    def test_timestamp_at_2_63_rejected(self):
        # a 20 ps pair straddling 2**63 used to wrap to a negative t2_ps
        rows = [(2**63 - 10, 0, V_MINUS, 1), (2**63 + 10, 1, V_PLUS, 1)]
        with pytest.raises(StreamFormatError, match=r"at or above 2\*\*63 ps"):
            encode_stream(make_stream(rows))
        raw = bytearray(encode_stream(make_stream([(2**63 - 10, 0, V_MINUS, 1)])))
        raw[HEADER_SIZE : HEADER_SIZE + 8] = (2**63).to_bytes(8, "little")
        with pytest.raises(StreamFormatError, match=r"at or above 2\*\*63 ps"):
            decode_stream(bytes(raw))
        last = encode_stream(make_stream([(2**63 - 1, 0, 0, 0)]))  # the largest valid timestamp
        assert stream_rows(decode_stream(last)) == [(2**63 - 1, 0, 0, 0)]

    def test_decode_clears_reserved_bits(self):
        # the reserved u16 and flag bits 2-7 are ignored on read
        record = np.zeros(1, dtype=RECORD_DTYPE)
        record[0] = (1000, 1, 0x82, 7, 7)
        stream = decode_stream(MAGIC + (1).to_bytes(2, "little") + record.tobytes())
        assert stream == TagStream.from_fields([1000], [1], [0b10], [7])
        data = encode_stream(stream)
        assert data[HEADER_SIZE + 9] == 0b10  # flags
        assert data[HEADER_SIZE + 14 :] == b"\x00\x00"  # reserved

    def test_roundtrip_1000_random_streams(self, rng):
        for _ in range(1000):
            n = int(rng.integers(0, 40))
            t = np.sort(rng.integers(0, 10**12, n).astype(np.uint64))
            stream = TagStream.from_fields(
                t,
                rng.integers(0, 2, n).astype(np.uint8),
                rng.integers(0, 4, n).astype(np.uint8),
                rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
            )
            assert decode_stream(encode_stream(stream)) == stream

    def test_roundtrip_million_records(self, rng):
        n = 1_000_000
        stream = TagStream.from_fields(
            np.sort(rng.integers(0, 10**14, n).astype(np.uint64)),
            rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, 4, n).astype(np.uint8),
            rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        )
        blob = encode_stream(stream)
        assert len(blob) == HEADER_SIZE + n * RECORD_SIZE
        decoded = decode_stream(blob)
        assert decoded == stream
        assert encode_stream(decoded) == blob

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**40),
                st.integers(0, 1),
                st.integers(0, 7),
                st.integers(0, 2**32 - 1),
            ),
            max_size=30,
        )
    )
    def test_roundtrip_property(self, rows):
        rows = sorted(rows)
        decoded = decode_stream(encode_stream(make_stream(rows)))
        # flag bit 2 is reserved and cleared on read
        tagged = make_stream([(t, ch, flags & 0b11, pid) for t, ch, flags, pid in rows])
        assert decoded == tagged
        # re-encode is byte-stable
        assert encode_stream(decoded) == encode_stream(tagged)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=80))
    def test_decode_arbitrary_bytes(self, data):
        assert_decodes_or_format_error(data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=80),
            # whole records, so channel, range and order checks are reached
            st.lists(
                st.tuples(
                    st.integers(0, 2**64 - 1),
                    st.integers(0, 2),
                    st.integers(0, 255),
                    st.integers(0, 2**32 - 1),
                    st.integers(0, 2**16 - 1),
                ),
                max_size=8,
            ).map(lambda rows: np.array(rows, dtype=RECORD_DTYPE).tobytes()),
        )
    )
    def test_decode_arbitrary_body(self, body):
        assert_decodes_or_format_error(MAGIC + (1).to_bytes(2, "little") + body)


def assert_decodes_or_format_error(data):
    """Decoding either yields one record per 16 body bytes or raises a
    StreamFormatError; no other exception may escape."""
    try:
        stream = decode_stream(data)
    except StreamFormatError:
        return
    assert len(stream) == (len(data) - HEADER_SIZE) // RECORD_SIZE


class TestLabelReconstruction:
    def test_all_combinations(self):
        # the oracle's truth table: (port, polarization) names the arm
        assert label_from_click(0, V_PLUS) == (1, "V", 1)
        assert label_from_click(0, H_MINUS) == (2, "H", -1)
        assert label_from_click(1, H_PLUS) == (1, "H", 1)
        assert label_from_click(1, V_MINUS) == (2, "V", -1)
        # the tag a click carries decodes back to its photon's full label
        for route in (1, 2):
            for channel in (0, 1):
                for sign in (-1, 1):
                    flags = mode_tag(route, channel, sign)
                    assert label_from_click(channel, flags) == photon_label(route, channel, sign)
                    as_array = mode_tag(np.array([route]), np.array([channel]), np.array([sign], np.int8))
                    assert as_array.tolist() == [flags]


class TestMatcher:
    def test_empty(self):
        out = match_coincidences(make_stream([]), 1000)
        assert len(out) == 0 and out.dtype == COINCIDENCE_DTYPE

    def test_documented_example(self):
        stream = make_stream([(1000, 0, V_MINUS, 1), (1400, 1, V_PLUS, 1)])
        out = match_coincidences(stream, 1000)
        assert len(out) == 1
        assert coincidence_rows(out) == [(1000, 1400, 400, True, "none", 1, 1)]

    def test_out_of_window(self):
        stream = make_stream([(1000, 0, V_MINUS, 1), (2500, 1, V_PLUS, 1)])
        out = match_coincidences(stream, 1000)
        assert len(out) == 1 and not out["accepted"][0]
        assert REJECT_REASONS[out["reason"][0]] == "out-of-window"

    def test_zero_window_exact_equality_only(self):
        stream = make_stream([(1000, 0, V_MINUS, 1), (1000, 1, V_PLUS, 1), (2000, 0, V_MINUS, 2), (2001, 1, V_PLUS, 2)])
        out = match_coincidences(stream, 0)
        assert out["t1_ps"][out["accepted"]].tolist() == [1000]

    def test_cross_polarization_rejected(self):
        stream = make_stream([(1000, 0, V_MINUS, 1), (1100, 1, H_PLUS, 1)])
        out = match_coincidences(stream, 1000)
        assert not out["accepted"][0]
        assert REJECT_REASONS[out["reason"][0]] == "cross-polarization"

    def test_same_detuning_rejected(self):
        stream = make_stream([(1000, 0, V_PLUS, 1), (1100, 1, V_PLUS, 1)])
        out = match_coincidences(stream, 1000)
        assert REJECT_REASONS[out["reason"][0]] == "same-detuning"

    def test_nearest_tie_breaks_earlier(self):
        stream = make_stream([(1000, 0, V_MINUS, 5), (900, 1, V_PLUS, 4), (1100, 1, V_PLUS, 6)])
        out = match_coincidences(stream, 1000)
        assert out["t2_ps"][out["accepted"]].tolist() == [900]

    def test_accepted_clicks_consumed_once(self):
        stream = make_stream(
            [
                (1000, 0, V_MINUS, 1),
                (1001, 0, V_MINUS, 2),
                (1000, 1, V_PLUS, 1),
            ]
        )
        out = match_coincidences(stream, 1000)
        assert np.count_nonzero(out["accepted"]) == 1

    def test_unsorted_input_rejected(self):
        arr = np.zeros(2, dtype=RECORD_DTYPE)
        arr[0] = (1000, 0, 0, 0, 0)
        arr[1] = (900, 0, 0, 0, 0)
        with pytest.raises(StreamFormatError, match="non-decreasing per channel"):
            match_coincidences(TagStream(arr), 10)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            match_coincidences(make_stream([]), -1)

    def test_streaming_equals_batch(self, rng):
        batch = sample_n_pairs(SourceConfig(seed=303), 5_000)
        stream = synthesize_stream(batch, seed=304)
        blob = encode_stream(stream)
        whole = match_coincidences(decode_stream(blob), 1000)
        # decode in chunks, concatenate, re-sort, match again
        body = blob[HEADER_SIZE:]
        pieces = []
        step = 977 * RECORD_SIZE
        for lo in range(0, len(body), step):
            piece = MAGIC + (1).to_bytes(2, "little") + body[lo : lo + step]
            pieces.append(decode_stream(piece).array)
        merged = np.concatenate(pieces)
        merged = merged[np.lexsort((merged["channel"], merged["t_ps"]))]
        chunked = match_coincidences(TagStream(merged), 1000)
        assert np.array_equal(chunked, whole)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 5, 50, 103, 104]),
                st.integers(0, 1),
                st.integers(0, 7),
                st.integers(0, 3),
            ),
            max_size=60,
        ),
        st.sampled_from([0, 3, 100]),
        st.sampled_from(sorted(RULE_MASKS)),
    )
    def test_matches_reference_matcher(self, rows, window_ps, rule_name):
        # few distinct timestamps: many ties on both channels; the stable
        # sort keeps the drawn order among equal timestamps
        stream = make_stream(sorted(rows, key=lambda row: row[0]))
        expected = reference_match(stream.array, window_ps, accept_table(RULE_MASKS[rule_name]))
        with selection_rule(rule_name):
            got = match_coincidences(stream, window_ps)
        assert coincidence_rows(got) == [dataclasses.astuple(rec) for rec in expected]

    def test_deviator_takes_a_later_runs_nearest(self):
        # The second click at t=0 finds D2 slot 0 taken and takes slot 1 on
        # its right, the nearest D2 of the click at t=3; that click then
        # takes slot 2, the nearest of the click at t=4, which takes slot 3.
        stream = make_stream(
            [
                (0, 0, V_MINUS, 1),
                (0, 0, V_MINUS, 2),
                (1, 1, V_PLUS, 1),
                (3, 0, V_MINUS, 3),
                (3, 1, V_PLUS, 2),
                (4, 0, V_MINUS, 4),
                (4, 1, V_PLUS, 3),
                (10, 1, V_PLUS, 4),
            ]
        )
        got = coincidence_rows(match_coincidences(stream, 100))
        assert got == [
            (0, 1, 1, True, "none", 1, 1),
            (0, 3, 3, True, "none", 2, 2),
            (3, 4, 1, True, "none", 3, 3),
            (4, 10, 6, True, "none", 4, 4),
        ]
        expected = reference_match(stream.array, 100, accept_table(RULE_MASKS["heterodyne"]))
        assert got == [dataclasses.astuple(rec) for rec in expected]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 40, 41, 1000, 10**6]),
                st.integers(0, 1),
                st.integers(0, 7),
                st.integers(0, 3),
            ),
            max_size=400,
        ),
        st.sampled_from([0, 1, 40, 10**9]),
        st.sampled_from(sorted(RULE_MASKS)),
    )
    def test_matches_reference_matcher_on_long_tied_streams(self, rows, window_ps, rule_name):
        # long runs of clicks with one nearest D2: most clicks deviate, and
        # deviators take the nearest D2 of later runs
        stream = make_stream(sorted(rows, key=lambda row: row[0]))
        expected = reference_match(stream.array, window_ps, accept_table(RULE_MASKS[rule_name]))
        with selection_rule(rule_name):
            got = match_coincidences(stream, window_ps)
        assert coincidence_rows(got) == [dataclasses.astuple(rec) for rec in expected]


class TestSynthesizedStreams:
    def test_deterministic(self):
        batch = sample_n_pairs(SourceConfig(seed=7), 2_000)
        s1 = synthesize_stream(batch, seed=8)
        s2 = synthesize_stream(batch, seed=8)
        assert s1 == s2
        assert encode_stream(s1) == encode_stream(s2)

    def test_stream_bytes_pinned(self):
        # clicks that share a timestamp and a channel keep the synthesizer's
        # emit order, so a fixed seed gives a fixed file
        batch = sample_n_pairs(SourceConfig(seed=3), 20_000)
        digest = hashlib.sha256()
        for eraser in (None, EraserSetting(0.4, 1.1)):
            digest.update(encode_stream(synthesize_stream(batch, eraser=eraser, jitter=True, seed=4)))
        assert digest.hexdigest() == "226857f9785f1415a7128bb0d8015f527e98d3c2ac9e61a315635cf5e03bb92d"

    def test_no_analyzer_two_clicks_per_pair(self):
        batch = sample_n_pairs(SourceConfig(seed=7), 2_000)
        stream = synthesize_stream(batch, seed=8)
        assert len(stream) == 2 * len(batch)

    def test_ground_truth_recovery(self):
        batch = sample_n_pairs(SourceConfig(seed=41), 100_000)
        stream = synthesize_stream(batch, seed=42)
        out = match_coincidences(decode_stream(encode_stream(stream)), 1000)
        accepted = out[out["accepted"]]
        joined = accepted["pair_id_1"] == accepted["pair_id_2"]
        assert np.all(joined)
        truth = int(np.count_nonzero(batch.cross_mask & (batch.port1 != batch.port2)))
        assert np.count_nonzero(joined) / truth >= 0.999

    def test_accepted_fraction_matches_selection_efficiency(self):
        batch = sample_n_pairs(SourceConfig(seed=43), 50_000)
        stream = synthesize_stream(batch, seed=44)
        accepted = np.count_nonzero(match_coincidences(stream, 1000)["accepted"])
        # both count the same batch's accepted pairs, and at this rate no
        # two pairs overlap in the window
        assert accepted / len(batch) == selection_efficiency(batch)

    @pytest.mark.parametrize("xi_deg,theta_deg", [(0, 0), (22.5, 22.5), (15, 30), (45, 45)])
    def test_eraser_stream_rate(self, xi_deg, theta_deg):
        eraser = EraserSetting(math.radians(xi_deg), math.radians(theta_deg))
        # low source rate keeps accidental coincidences between the many
        # lone clicks of this configuration far below one per run
        batch = sample_n_pairs(SourceConfig(seed=45, rate=1e4), 50_000)
        stream = synthesize_stream(batch, eraser=eraser, seed=46)
        accepted = np.count_nonzero(match_coincidences(stream, 1000)["accepted"])
        expected = math.cos(eraser.xi + eraser.theta) ** 2 / 8.0
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / len(batch))
        assert abs(accepted / len(batch) - expected) <= 4.0 * sigma

    def test_fixed_electronic_delay_shifts_d2(self):
        batch = sample_n_pairs(SourceConfig(seed=47), 5_000)
        cs = CoincidenceSetting(tau_si=5e-9)
        stream = synthesize_stream(batch, coincidence=cs, seed=48)
        out = match_coincidences(stream, 10_000)
        taus = out["tau_si_ps"][out["accepted"]]
        assert len(taus) and np.all(taus == 5000)

    def test_click_order_near_the_top_of_the_time_range(self):
        # emission times straddling 2**62 overflow a signed 2 * t + channel
        # sort key; the stream must be the low-time stream shifted up
        rng = np.random.default_rng(62)
        n = 20_000
        t_low = np.sort(rng.integers(0, n, n)).astype(np.uint64) * np.uint64(100)  # shared times
        low = PairBatch(
            pair_id=np.arange(n, dtype=np.uint32),
            delta_f=np.zeros(n),
            orientation_sign=(2 * rng.integers(0, 2, n) - 1).astype(np.int8),
            route1=rng.integers(1, 3, n, dtype=np.uint8),
            route2=rng.integers(1, 3, n, dtype=np.uint8),
            port1=rng.integers(0, 2, n, dtype=np.uint8),
            port2=rng.integers(0, 2, n, dtype=np.uint8),
            t_emit_ps=t_low,
        )
        offset = np.uint64(2**62 - 50 * n)
        high = dataclasses.replace(low, t_emit_ps=t_low + offset)
        kwargs = dict(
            eraser=EraserSetting(0.3, 0.5), coincidence=CoincidenceSetting(tau_c=2e-10), jitter=True, seed=63
        )
        expected = synthesize_stream(low, **kwargs).array.copy()
        expected["t_ps"] += offset
        stream = synthesize_stream(high, **kwargs)
        t = stream.array["t_ps"]
        assert t.min() < 2**62 <= t.max()
        assert stream == TagStream(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        spacing=st.sampled_from([0, 1, 100]),
        in_order=st.booleans(),
        eraser=st.none() | st.builds(EraserSetting, ANALYZER_ANGLES, ANALYZER_ANGLES),
        jitter=st.booleans(),
    )
    def test_bytes_match_the_block_by_block_synthesizer(self, seed, n, spacing, in_order, eraser, jitter):
        # Few distinct emission times, so clicks of different pairs share a
        # timestamp and a channel in every outcome class; with tau_c at
        # 2e-10 s the jittered D2 delays are a few hundred ps and tie too.
        rng = np.random.default_rng(seed)
        t_emit = rng.integers(0, max(n // 16, 1), n).astype(np.uint64) * np.uint64(spacing)
        batch = PairBatch(
            pair_id=np.arange(n, dtype=np.uint32),
            delta_f=np.zeros(n),
            orientation_sign=(2 * rng.integers(0, 2, n) - 1).astype(np.int8),
            route1=rng.integers(1, 3, n, dtype=np.uint8),
            route2=rng.integers(1, 3, n, dtype=np.uint8),
            port1=rng.integers(0, 2, n, dtype=np.uint8),
            port2=rng.integers(0, 2, n, dtype=np.uint8),
            t_emit_ps=np.sort(t_emit) if in_order else t_emit,
        )
        kwargs = dict(eraser=eraser, coincidence=CoincidenceSetting(tau_c=2e-10), jitter=jitter, seed=seed)
        expected = encode_stream(reference_synthesize(batch, **kwargs))
        assert encode_stream(synthesize_stream(batch, **kwargs)) == expected


class TestHistogram:
    def test_empty(self):
        hist = histogram_tau_si(accepted_coincidences(0), 100, 1000)
        assert hist.counts.sum() == 0
        assert len(hist.counts) == 21

    def test_delta_at_zero_lands_centrally(self):
        hist = histogram_tau_si(accepted_coincidences(50), 100, 1000)
        center = len(hist.counts) // 2
        assert hist.counts[center] == 50
        assert hist.counts.sum() == 50
        assert hist.bin_lo_ps[center] == -50.0 and hist.bin_hi_ps[center] == 50.0

    def test_rejects_bad_bins(self):
        none = accepted_coincidences(0)
        with pytest.raises(ValueError):
            histogram_tau_si(none, 0, 1000)
        with pytest.raises(ValueError):
            histogram_tau_si(none, -5, 1000)
        with pytest.raises(ValueError):
            histogram_tau_si(none, 10, 0)

    def test_bin_count_is_bounded(self):
        none = accepted_coincidences(0)
        n_side = (MAX_HIST_BINS - 1) // 2
        assert len(histogram_tau_si(none, 1, n_side).counts) == 2 * n_side + 1 <= MAX_HIST_BINS
        for bin_ps, range_ps in ((1, n_side + 1), (1, 10**9), (1e-300, 1e308)):  # the last ratio is inf
            with pytest.raises(ValueError, match="needs more than"):
                histogram_tau_si(none, bin_ps, range_ps)

    def test_rejects_unaccepted_records(self):
        rejected = accepted_coincidences(1)
        rejected["accepted"] = False
        rejected["reason"] = REJECT_REASONS.index("same-detuning")
        with pytest.raises(ValueError):
            histogram_tau_si(rejected, 100, 1000)

    def test_jitter_envelope_decay(self):
        # the fitted decay must recover the generator's own tau_c / 2 law
        batch = sample_n_pairs(SourceConfig(seed=51, rate=1e5), 200_000)
        cs = CoincidenceSetting(tau_c=1e-6)
        stream = synthesize_stream(batch, coincidence=cs, jitter=True, seed=52)
        out = match_coincidences(stream, 10_000_000)
        hist = histogram_tau_si(out[out["accepted"]], 50_000, 8_000_000)
        decay = fit_decay_ps(hist)
        assert decay == pytest.approx(0.5e6, rel=0.1)


class TestCsvOutputs:
    def test_histogram_csv(self, tmp_path):
        hist = histogram_tau_si(accepted_coincidences(1, tau_ps=40), 100, 300)
        out = tmp_path / "hist.csv"
        write_histogram_csv(hist, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lo_ps,bin_hi_ps,count"
        assert len(lines) == 1 + len(hist.counts)

    def test_coincidence_csv(self, tmp_path):
        rows = np.array(
            [(10, 20, 10, True, 0, 1, 1), (30, 25, -5, False, REJECT_REASONS.index("same-detuning"), 2, 3)],
            dtype=COINCIDENCE_DTYPE,
        )
        out = tmp_path / "c.csv"
        write_coincidences_csv(rows, out)
        assert out.read_text().splitlines() == [
            "t1_ps,t2_ps,tau_si_ps,accepted,reject_reason",
            "10,20,10,1,none",
            "30,25,-5,0,same-detuning",
        ]


class TestPerformance:
    def test_matcher_scales_linearly(self):
        def stream_of(n):
            return synthesize_stream(sample_n_pairs(SourceConfig(seed=61), n), seed=62)

        match_coincidences(stream_of(2_000), 1000)  # warm-up
        streams = {n: stream_of(n) for n in (60_000, 120_000)}
        best = dict.fromkeys(streams, math.inf)
        # the two sizes alternate, so a drift in host speed hits both; a
        # collection pass inside a timed call would be charged to one size
        for _ in range(7):
            for n, stream in streams.items():
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    match_coincidences(stream, 1000)
                    best[n] = min(best[n], time.perf_counter() - t0)
                finally:
                    gc.enable()
        assert best[120_000] < 2.0 * best[60_000] * 1.25

    def test_matcher_all_accepted_scales_linearly(self):
        # every D2 click is consumed: a matcher that walks over consumed
        # clicks to find a free one is quadratic here
        def stream_of(n):
            t1 = 1000 * np.arange(n)
            return TagStream.from_fields(
                np.ravel([t1, t1 + 10], order="F"), np.tile([0, 1], n), np.tile([V_MINUS, V_PLUS], n), 0
            )

        assert np.all(match_coincidences(stream_of(2_000), 100)["accepted"])  # and warm-up
        streams = {n: stream_of(n) for n in (20_000, 80_000)}
        best = dict.fromkeys(streams, math.inf)
        for _ in range(5):
            for n, stream in streams.items():
                t0 = time.perf_counter()
                match_coincidences(stream, 100)
                best[n] = min(best[n], time.perf_counter() - t0)
        # linear is 4x, quadratic 16x
        assert best[80_000] < 4.0 * best[20_000] * 1.5

    def test_matcher_replay_scales_linearly(self):
        # 20 bursts, each of n/20 D1 clicks on one timestamp followed by as
        # many D2 clicks: every D1 click after a burst's first finds its
        # nearest D2 taken and takes the next free one on its right, so the
        # replay settles nearly every click; a replay that walks over taken
        # slots one by one is quadratic here
        def stream_of(n):
            k = n // 20
            burst = 10 * k * np.arange(20)
            t1 = np.repeat(burst, k)
            t2 = (burst[:, None] + 1 + np.arange(k)).ravel()
            order = np.argsort(np.concatenate([t1, t2]), kind="stable")
            return TagStream.from_fields(
                np.concatenate([t1, t2])[order], np.repeat([0, 1], n)[order], 0, 0
            )

        with selection_rule("cross_port_only"):  # every pair is accepted
            assert np.all(match_coincidences(stream_of(2_000), 10**12)["accepted"])  # and warm-up
            streams = {n: stream_of(n) for n in (5_000, 20_000)}
            # Each round times 20k clicks per size (four calls on the small
            # stream) back to back, so host noise mostly hits both sides of one
            # round's ratio, and the median drops the rounds it does not; the
            # replay's union-find dicts hold a slot per click, so a collection
            # pass inside a timed interval would be charged to one size.
            ratios = []
            for _ in range(9):
                per_call = {}
                for n, stream in streams.items():
                    calls = 20_000 // n
                    gc.disable()
                    try:
                        t0 = time.perf_counter()
                        for _ in range(calls):
                            match_coincidences(stream, 10**12)
                        per_call[n] = (time.perf_counter() - t0) / calls
                    finally:
                        gc.enable()
                ratios.append(per_call[20_000] / per_call[5_000])
        # linear is 4x, quadratic 16x
        assert statistics.median(ratios) < 4.0 * 1.5
