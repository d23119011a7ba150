"""Elementary optical elements acting on an 8-slot field of complex mode amplitudes.

Conventions, fixed once for the whole package:

- A field is a tuple of 8 complex amplitudes. Slot ``k = 4 * arm + tag``
  holds the mode of arm ``arm`` (0 for arm 1, 1 for arm 2) whose mode tag
  is ``tag = branch_plus + 2 * pol_v``: the same two bits a detected click
  carries in its flags byte (``detection.mode_tag``). Slots are orthogonal
  modes and every sum over a field runs in slot order.
- Field amplitudes are dimensionless and normalized to the source field
  (E0 = 1), so squared moduli are intensities in units of the source
  intensity.
- The balanced splitter transmits with coefficient 1 and reflects with i.
- A mirror fold multiplies the folded amplitude by i.
- The polarizing splitter routes the V component of arm 1 to port A with a
  sign flip and its H component to port B; arm 2 sends H to port A and V
  to port B.
- Port A feeds detector D1 and port B feeds D2; a port is stored as the
  detector channel, 0 for A and 1 for B.
- Analyzer angles are radians. The transmission axis at angle ``a`` has
  projection cos(a) on H and sin(a) on V.

Every operation is a pure function of immutable tuples: identical inputs
give bit-identical outputs.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping

SQRT_HALF = math.sqrt(0.5)

# The mode-tag bits; the CESIMTT1 flags byte stores a click's tag in them.
FLAG_BRANCH_PLUS = 0x01  # positive frequency branch
FLAG_POL_V = 0x02  # V polarization at the analyzer input
TAG_BITS = FLAG_BRANCH_PLUS | FLAG_POL_V
N_SLOTS = 8

Field = tuple[complex, ...]


def field(amplitudes: Mapping[int, complex] | None = None) -> Field:
    """The 8-slot field with the given ``{slot: amplitude}`` entries and
    vacuum in every other slot."""
    out = [0j] * N_SLOTS
    for k, amp in (amplitudes or {}).items():
        z = complex(amp)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("field amplitudes must be finite")
        out[k] = z
    return tuple(out)


def power(fld: Field) -> float:
    """Total power, the slots being orthogonal modes."""
    return math.fsum(a.real * a.real + a.imag * a.imag for a in fld)


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")


def bs_transform(in_a: complex, in_b: complex) -> tuple[complex, complex]:
    """Balanced splitter: transmit with 1, reflect with i, each times 1/sqrt(2)."""
    out_a = (in_a + 1j * in_b) * SQRT_HALF
    out_b = (1j * in_a + in_b) * SQRT_HALF
    return out_a, out_b


def hwp_22_5(fld: Field) -> Field:
    """Half-wave plate at 22.5 degrees.

    Per (arm, branch) the (H, V) pair transforms by
    [[cos45, sin45], [sin45, -cos45]]; the matrix is its own inverse.
    """
    out = list(fld)
    for h in (0, 1, 4, 5):
        a_h, a_v = fld[h], fld[h + FLAG_POL_V]
        out[h] = (a_h + a_v) * SQRT_HALF
        out[h + FLAG_POL_V] = (a_h - a_v) * SQRT_HALF
    return tuple(out)


def pbs_route(fld: Field) -> tuple[Field, Field]:
    """Polarizing splitter of the recombination stage.

    Port A collects arm 1's V slots (with a reflection sign flip) and arm
    2's H slots; port B collects arm 1's H and arm 2's V. Power is
    conserved exactly because every slot lands on exactly one port.
    """
    z = 0j
    port_a = (z, z, -fld[2], -fld[3], fld[4], fld[5], z, z)
    port_b = (fld[0], fld[1], z, z, z, z, fld[6], fld[7])
    return port_a, port_b


def aom_tag(fld: Field, arm: int, branch_plus: bool, phase: float) -> Field:
    """Move every mode of arm ``arm`` (0 or 1) onto one detuning branch and
    multiply it by the phase factor e^{i phase}."""
    _require_finite(phase, "modulator phase")
    factor = cmath.exp(1j * phase)
    out = list(fld)
    for h_or_v in (4 * arm, 4 * arm + FLAG_POL_V):
        total = fld[h_or_v] * factor + fld[h_or_v + 1] * factor
        out[h_or_v], out[h_or_v + 1] = (0j, total) if branch_plus else (total, 0j)
    return tuple(out)


def mirror(fld: Field, arm: int | None = None) -> Field:
    """Mirror fold: multiply by i, optionally restricted to arm ``arm`` (0 or 1)."""
    return tuple(a * 1j if arm is None or k >> 2 == arm else a for k, a in enumerate(fld))
