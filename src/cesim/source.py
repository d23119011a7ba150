"""Poisson pair source with randomized detunings and stochastic routing.

Generated events are the ground truth of the stochastic pipeline: each one
records the detuning drawn for the pair, the branch orientation, the
first-splitter routing of both photons and the pre-analyzer splitter port
each photon would exit.  Emission times live on an integer picosecond grid
so the serialized stream is exact.

Determinism contract: a fixed seed yields a bit-identical batch.  The
random draws happen in a fixed order (emission times, detunings,
orientations, route 1, route 2, port 1, port 2) from a single generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def poisson_pair_probability(mu: float) -> float:
    """Probability that an emission window holds exactly two photons."""
    if not math.isfinite(mu) or mu < 0:
        raise ValueError("mean photon number must be non-negative")
    return math.exp(-mu) * mu * mu / 2.0


@dataclass(frozen=True, slots=True)
class DetuningGrid:
    """Detuning law: uniform over the grid lo, lo + step, ..., hi, or over
    the continuous interval [lo, hi) when ``step`` is None."""

    lo: float
    hi: float
    step: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise ValueError("detuning bounds must be finite with lo <= hi")
        if self.step is None:
            return
        if not math.isfinite(self.step) or self.step <= 0:
            raise ValueError("a grid step must be positive")
        n = (self.hi - self.lo) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValueError("grid span must be an integer number of steps")

    @classmethod
    def default_grid(cls, delta_big: float) -> "DetuningGrid":
        """21 points spanning -2*delta_big .. +2*delta_big in steps of delta_big/5."""
        return cls(-2.0 * delta_big, 2.0 * delta_big, delta_big / 5.0)

    def values(self) -> np.ndarray:
        if self.step is None:
            raise ValueError("only a stepped grid has discrete values")
        n = int(round((self.hi - self.lo) / self.step)) + 1
        return self.lo + self.step * np.arange(n)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.step is None:
            return rng.uniform(self.lo, self.hi, n)
        values = self.values()
        return values[rng.integers(0, len(values), n)]


@dataclass(frozen=True, slots=True)
class SourceConfig:
    mu: float = 0.1
    rate: float = 1.0e6
    delta_big: float = 1.0e6
    grid: DetuningGrid | None = None
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError("mu must be positive")
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise ValueError("rate must be positive")
        if not math.isfinite(self.delta_big) or self.delta_big <= 0:
            raise ValueError("delta_big must be positive")

    @property
    def effective_grid(self) -> DetuningGrid:
        return self.grid if self.grid is not None else DetuningGrid.default_grid(self.delta_big)

    @property
    def pair_rate(self) -> float:
        """Two-photon emission rate: attempts thinned by the window statistics."""
        return self.rate * poisson_pair_probability(self.mu)


@dataclass(slots=True)
class PairBatch:
    """Column-wise batch of pair events (numpy arrays, one row per pair).

    The routing columns hold the integers the rest of the pipeline indexes
    by: a route is the arm of origin, 1 or 2, and a port is the detector
    channel the photon would reach, 0 (port A, D1) or 1 (port B, D2).
    """

    pair_id: np.ndarray       # uint32
    delta_f: np.ndarray       # float64, signed sample from the detuning law
    orientation_sign: np.ndarray  # int8, +1 if arm 1 carries the positive branch
    route1: np.ndarray        # uint8, 1 or 2
    route2: np.ndarray        # uint8
    port1: np.ndarray         # uint8, 0 = port A (D1), 1 = port B (D2)
    port2: np.ndarray         # uint8
    t_emit_ps: np.ndarray     # uint64

    def __len__(self) -> int:
        return len(self.pair_id)

    @property
    def cross_mask(self) -> np.ndarray:
        return self.route1 != self.route2


def sample_n_pairs(cfg: SourceConfig, n: int) -> PairBatch:
    """Exactly ``n`` pair events with exponential inter-emission times."""
    if n < 0:
        raise ValueError("pair count must be non-negative")
    rng = np.random.default_rng(cfg.seed)
    gaps = rng.exponential(1.0 / cfg.pair_rate, n)
    t_emit_s = np.cumsum(gaps)
    delta_f = cfg.effective_grid.sample(rng, n)
    orientation = (rng.integers(0, 2, n, dtype=np.int8) * 2 - 1).astype(np.int8)
    route1 = rng.integers(1, 3, n, dtype=np.uint8)
    route2 = rng.integers(1, 3, n, dtype=np.uint8)
    port1 = rng.integers(0, 2, n, dtype=np.uint8)
    port2 = rng.integers(0, 2, n, dtype=np.uint8)
    return PairBatch(
        pair_id=np.arange(n, dtype=np.uint32),
        delta_f=delta_f,
        orientation_sign=orientation,
        route1=route1,
        route2=route2,
        port1=port1,
        port2=port2,
        t_emit_ps=np.rint(t_emit_s * 1e12).astype(np.uint64),
    )
