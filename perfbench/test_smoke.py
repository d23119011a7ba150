"""Smoke test of the benchmark at the tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py

Covers every workload traced and untraced, the self-time arithmetic of
the span recorder, the failure of every correctness check on a corrupted
output, and the refusal to run without the cesim sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from child import invoke  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = workloads.REFERENCE["default_seed"]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_self_time_is_duration_minus_direct_children():
    spans_ = [["root", -1, 0.0, 10.0, 0], ["a", 0, 1.0, 3.0, 0],
              ["b", 0, 4.0, 8.0, 0], ["a", 2, 5.0, 6.0, 0]]
    out = spans.self_times(spans_)
    assert out["root"]["self_s"] == pytest.approx(10 - 2 - 4)
    assert out["b"]["self_s"] == pytest.approx(4 - 1)
    assert out["a"] == {"self_s": pytest.approx(3.0), "calls": 2, "units": 0.0}


def test_traced_self_times_add_up_to_the_root(tmp_path, monkeypatch):
    import cesim.cli as cli

    monkeypatch.chdir(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, _ = invoke(cli, ["fig2b", "--grid=-1e6:1e6:1e6", "--mode", "mc", "--pairs", "2000",
                               "--out", "fig2b.csv"])
    finally:
        tracer.uninstall()
    assert code == 0
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    summary = spans.self_times(tracer.spans)
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(roots[0][3] - roots[0][2])
    assert summary["detection.sample_coincidence_counts"]["units"] == 2000 * (37 + 1)
    assert summary["interferometer.eraser_amplitudes"]["calls"] == 2 * 37 * 3
    assert cli.main.__name__ == "main"  # uninstall restored the original


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, context_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    context = json.loads(context_line)["context"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, context["errors"]
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert context["seed"] == SEED and context["blas_threads"] == 1
    if not trace:
        assert all(values[m["name"]] > 0 for m in group)
    elif workload == "events_match":
        m = "eventstream.match_coincidences."
        assert values[m + "candidates"] == values[m + "accepted"] + sum(
            values[m + "rejected_" + r] for r in
            ("out_of_window", "cross_polarization", "same_detuning"))
        assert values[m + "self_s"] > 0 and values[m + "rss_delta_mb"] > 0
    elif workload == "tables_analytic":
        assert values["interferometer.eraser_amplitudes.calls"] == 2 * (37 * 5 + 4 * 5) + 8 * 4 + 81
        assert values["detection.sample_coincidence_counts.calls"] == 0


def _run_calls(wl, p, argv_lists):
    import cesim.cli as cli

    stdout = []
    for argv in argv_lists:
        code, text = invoke(cli, argv)
        assert code == 0, argv
        stdout.append(text)
    return "".join(stdout)


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01  # stays printable in the CSVs
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_fail_on_corrupted_outputs(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.WORKLOADS[workload]
    p = workloads.Params(SEED, "tiny", tmp_path)
    _run_calls(wl, p, wl.setup(p))
    stdout = _run_calls(wl, p, wl.calls(p))
    assert wl.check(p, stdout) == []
    for name in wl.pinned:  # a changed byte breaks the recorded digest
        saved = p.path(name).read_bytes()
        _flip_byte(p.path(name), len(saved) - 2)
        assert any(name in e and "sha256" in e for e in wl.check(p, stdout))
        p.path(name).write_bytes(saved)

    # another seed skips the digests, so each content check is seen alone
    unpinned = workloads.Params(SEED + 1, "tiny", tmp_path)
    if workload == "events_generate":
        assert "fraction 0.3" in wl.check(unpinned, stdout.replace("fraction 0.2", "fraction 0.3"))[0]
        _flip_byte(p.path("stream.bin"), 0)
        assert "does not decode" in wl.check(unpinned, stdout)[0]
    elif workload == "events_match":
        header, rows = workloads.read_table(p.path("hist.csv"))
        flat = [",".join(header)] + [f"{float(lo)!r},{float(hi)!r},100" for lo, hi, _ in rows]
        p.path("hist.csv").write_text("\n".join(flat) + "\n", encoding="utf-8")
        assert "decay" in wl.check(unpinned, stdout)[0]
        _run_calls(wl, p, wl.calls(p))
        text = p.path("coinc.csv").read_text(encoding="utf-8")
        p.path("coinc.csv").write_text(text.replace(",0,cross-polarization\n", ",1,none\n", 1),
                                       encoding="utf-8")
        assert any("selection rule" in e for e in wl.check(unpinned, stdout))
    elif workload == "tables_analytic":
        lines = p.path("fig2b.csv").read_text(encoding="utf-8").splitlines()
        *head, value = lines[2].split(",")
        lines[2] = ",".join(head + [repr(float(value) + 1e-9)])
        p.path("fig2b.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "cos^2" in wl.check(unpinned, stdout)[0]
    elif workload == "tables_mc":
        corrupted = re.sub(r"S_mc = \S+", "S_mc = 2.0", stdout)
        assert "3 sigma" in wl.check(unpinned, corrupted)[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("events_generate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
