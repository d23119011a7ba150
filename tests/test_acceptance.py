"""Acceptance gate: the eleven criteria of ``cesim selftest``, one line each with ``-s``.

``BOUNDS`` pins every bound and comparison literally and each measured value is compared
with it here, so a bound loosened in ``cesim.selftest`` fails its test.
"""

import hashlib
import operator
from pathlib import Path

from cesim import selftest
from cesim.experiments import ExperimentConfig, emit_csv, run_fig2b

COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}
BOUNDS = {  # criterion: {quantity: (comparison, bound)}
    1: {"max|err|": ("<", 1e-12), "seconds": ("<", 1.0)},
    2: {"max spread": ("<", 1e-12)},
    3: {"max|err|": ("<", 1e-12), "byte-stable": ("==", True)},
    4: {"max variation": ("<", 1e-12), "|I_A - 1/2|": ("<", 1e-12)},
    5: {"max|err|": ("<", 1e-9)},
    6: {"max rel dev": ("<", 0.02), "seconds": ("<", 5.0)},
    7: {"|eff - 1/4|": ("<=", 0.004)},
    8: {"worst sigma": ("<=", 3.0), "seconds": ("<", 60.0)},
    9: {"rel err": ("<=", 0.10)},
    10: {"|S - 2 sqrt 2|": ("<=", 1e-9), "S_mc sigma": ("<=", 3.0)},
    11: {"roundtrip": ("==", True), "streaming=batch": ("==", True), "truth joins": ("==", True),
         "recovery": (">=", 0.999)},
}


def gate(number):
    """The test of criterion ``number``: each measured value meets its ``BOUNDS`` entry."""

    def test():
        result = selftest.CRITERIA[number - 1]()
        print(f"\n{result}")
        assert result.number == number
        assert {quantity: (op, bound) for quantity, _, op, bound in result.checks} == BOUNDS[number]
        for quantity, value, _, _ in result.checks:
            op, bound = BOUNDS[number][quantity]
            assert COMPARE[op](value, bound), f"criterion {number:02d} {quantity}: {value} {op} {bound} fails"

    return test


test_criterion_01_joint_fringe = gate(1)
test_criterion_02_detuning_independence = gate(2)


def test_criterion_03_fringe_table_and_golden(tmp_path):
    gate(3)()
    golden = (Path(__file__).parent / "data" / "fig2b_golden.csv").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == selftest.FIG2B_GOLDEN_SHA256
    emit_csv(run_fig2b(ExperimentConfig()), tmp_path / "fig2b.csv")
    assert (tmp_path / "fig2b.csv").read_bytes() == golden


test_criterion_04_local_uniformity = gate(4)
test_criterion_05_eraser_visibilities = gate(5)
test_criterion_06_classical_lower_bound = gate(6)
test_criterion_07_selection_efficiency = gate(7)
test_criterion_08_analytic_mc_agreement = gate(8)
test_criterion_09_envelope_decay = gate(9)
test_criterion_10_chsh = gate(10)
test_criterion_11_pipeline_integrity = gate(11)
