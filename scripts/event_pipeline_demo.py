#!/usr/bin/env python3
"""Run the full stochastic pipeline once and summarize it.

Generates pairs, synthesizes the binary time-tag stream, serializes and
re-parses it, matches coincidences, and reports the selection efficiency
alongside the ground-truth recovery rate.  With --jitter the delay
histogram and its fitted decay are reported as well.
"""

import argparse

import numpy as np

from cesim.detection import CoincidenceSetting, selection_efficiency
from cesim.eventstream import (
    decode_stream,
    encode_stream,
    fit_decay_ps,
    histogram_tau_si,
    match_coincidences,
    synthesize_stream,
    write_histogram_csv,
)
from cesim.source import SourceConfig, sample_n_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20230730)
    parser.add_argument("--rate", type=float, default=1e6, help="emission attempts per second")
    parser.add_argument("--jitter", action="store_true", help="exponential inter-detector delay")
    parser.add_argument("--window-ps", type=int, default=None)
    parser.add_argument("--hist-out", default=None)
    args = parser.parse_args()

    cfg = SourceConfig(seed=args.seed, rate=args.rate)
    batch = sample_n_pairs(cfg, args.pairs)
    coincidence = CoincidenceSetting(tau_c=1.0 / cfg.delta_big)
    stream = synthesize_stream(
        batch, coincidence=coincidence, jitter=args.jitter, seed=args.seed + 1
    )
    blob = encode_stream(stream)
    print(f"{len(batch)} pairs -> {len(stream)} records -> {len(blob)} bytes")

    window = args.window_ps
    if window is None:
        window = 10_000_000 if args.jitter else 1_000
    coincidences = match_coincidences(decode_stream(blob), window)
    accepted = coincidences[coincidences["accepted"]]
    joins = int(np.count_nonzero(accepted["pair_id_1"] == accepted["pair_id_2"]))
    truth = int(np.count_nonzero(batch.cross_mask & (batch.port1 != batch.port2)))
    print(f"window {window} ps: {len(accepted)} accepted of {len(coincidences)} candidates")
    print(f"selection efficiency {selection_efficiency(batch):.4f} (expected 0.25)")
    print(f"ground-truth recovery {joins / truth:.5f} over {truth} true pairs")

    if args.jitter:
        hist = histogram_tau_si(accepted, 50_000, 8_000_000)
        decay = fit_decay_ps(hist)
        print(f"histogram decay {decay * 1e-6:.4f} us (generator scale {coincidence.tau_c / 2 * 1e6:.4f} us)")
        if args.hist_out:
            write_histogram_csv(hist, args.hist_out)
            print(f"wrote {args.hist_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
