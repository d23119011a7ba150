import math
import re
import shlex
from pathlib import Path

import pytest

from cesim.cli import OPTIONS, SUBCOMMANDS, TABLES, CliInvocation, build_parser, main, parse_args
from cesim.eventstream import TagStream, decode_stream, encode_stream

_BY_NAME = {opt.name: opt for opt in OPTIONS}


# a valid two-record stream: one D1 and one D2 click of one pair
OK_STREAM = encode_stream(TagStream.from_fields([1000, 1400], [0, 1], [0b10, 0b11], [1, 1]))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_defaults(self):
        inv = parse_args(["fig2b"])
        assert isinstance(inv, CliInvocation)
        assert inv.subcommand == "fig2b"
        assert inv.options["mode"] == "analytic"
        assert inv.options["delta-hz"] == 1e6
        assert inv.options["pairs"] == 200_000

    def test_chsh_canonical_defaults(self):
        inv = parse_args(["chsh"])
        assert (
            inv.options["a-deg"],
            inv.options["a2-deg"],
            inv.options["b-deg"],
            inv.options["b2-deg"],
        ) == (0.0, 45.0, -22.5, -67.5)

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["no-such-thing"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fig2b", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_lists_only_the_options_taken(self, subcommand, capsys):
        with pytest.raises(SystemExit):
            parse_args([subcommand, "--help"])
        listed = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out)) - {"help"}
        assert listed == {opt.name for opt in OPTIONS if subcommand in opt.subcommands}

    @pytest.mark.parametrize(
        "argv", [["fig2b", "--format", "csv"], ["fig2b", "--xi-deg", "10"], ["events-generate", "--grid=0:1:1"],
                 ["correlation", "--mode", "mc"], ["selftest", "--pairs", "10"], ["selftest", "--seed", "3"]],
        ids=" ".join,
    )
    def test_option_not_taken_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        for argv in (["--help"],) + tuple([name, "--help"] for name in (
            "local", "correlation", "fig2a", "fig2b", "dephasing", "chsh",
            "events-generate", "events-match", "selftest",
        )):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 0
            capsys.readouterr()

    def test_config_file_and_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 111\npairs = 5000\n", encoding="utf-8")
        monkeypatch.setenv("CESIM_SEED", "222")
        inv = parse_args(["--config", str(cfg), "fig2b"])
        assert inv.options["seed"] == 111  # file beats environment
        assert inv.options["pairs"] == 5000
        inv = parse_args(["--config", str(cfg), "fig2b", "--seed", "333"])
        assert inv.options["seed"] == 333  # flag beats file

    def test_env_seed_lowest_precedence(self, monkeypatch):
        monkeypatch.setenv("CESIM_SEED", "444")
        assert parse_args(["fig2b"]).options["seed"] == 444
        assert parse_args(["fig2b", "--seed", "9"]).options["seed"] == 9

    def test_config_shared_by_two_subcommands(self, tmp_path, capsys):
        # raw only fig2b reads, samples only dephasing: each uses its own keys
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("raw = yes\nsamples = 500\ntheta-deg = 10\n", encoding="utf-8")
        fig2b = parse_args(["--config", str(cfg), "fig2b"]).options
        dephasing = parse_args(["--config", str(cfg), "dephasing"]).options
        assert (fig2b["raw"], fig2b["theta-deg"], "samples" in fig2b) == (True, 10.0, False)
        assert (dephasing["samples"], dephasing["theta-deg"], "raw" in dephasing) == (500, 10.0, False)
        for subcommand in ("fig2b", "dephasing"):
            assert run_cli(["--config", str(cfg), subcommand], capsys)[0] == 0
        cfg.write_text("raw = yes\nsamples = 500\nnonsense = 1\n", encoding="utf-8")
        for subcommand in ("fig2b", "dephasing"):
            code, _, err = run_cli(["--config", str(cfg), subcommand], capsys)
            assert code == 2 and "unknown option 'nonsense'" in err

    def test_env_seed_ignored_without_a_seed_option(self, monkeypatch, capsys):
        # CESIM_SEED seeds only the subcommands that take --seed
        reference = run_cli(["correlation", "--xi-deg", "10"], capsys)
        monkeypatch.setenv("CESIM_SEED", "not-an-int")
        assert "seed" not in parse_args(["correlation"]).options
        assert run_cli(["correlation", "--xi-deg", "10"], capsys) == reference
        assert run_cli(["fig2b"], capsys)[0] == 2

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        code, _, err = run_cli(["--config", str(cfg), "fig2b"], capsys)
        assert code == 2
        assert "unknown option" in err

    @pytest.mark.parametrize("line", ["mode = foo", "jitter = ture"])
    def test_config_value_outside_choices(self, tmp_path, capsys, line):
        # the flag's choices hold for a config line too
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli(["--config", str(cfg), "fig2b"], capsys)
        assert code == 2
        assert "bad value" in err

    def test_grid_parsing(self):
        inv = parse_args(["fig2a", "--grid=-1e6:1e6:2e5"])
        assert inv.options["grid"] == "-1e6:1e6:2e5"

    def test_grid_negative_value_after_a_space(self, capsys):
        # argparse alone reads '-2e6:...' as a flag and exits 2
        inv = parse_args(["fig2a", "--grid", "-2e6:2e6:1e6"])
        assert inv.options == parse_args(["fig2a", "--grid=-2e6:2e6:1e6"]).options
        code, out, _ = run_cli(["fig2a", "--grid", "-2e6:2e6:1e6", "--xi-deg", "0"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 5

    def test_grid_flows_into_table(self, capsys):
        code, out, _ = run_cli(
            ["fig2a", "--grid=-1e6:1e6:5e5", "--xi-deg", "0", "--theta-deg", "0"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 5  # header + 5 grid points

    def test_malformed_grid_rejected(self, capsys):
        code, _, err = run_cli(["fig2a", "--grid=1:2"], capsys)
        assert code == 2

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("CESIM_SEED", "not-an-int")
        code, _, err = run_cli(["fig2b"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2b", "--pairs", "0"],
            ["events-generate", "--pairs", "-5", "--out", "x.bin"],
            ["events-generate", "--pairs", "10", "--mu", "0", "--out", "x.bin"],
            ["fig2b", "--delta-hz", "0"],
            ["fig2b", "--tau-s", "nan"],
            ["correlation", "--xi-deg", "nan"],
            ["fig2b", "--mode", "mc", "--seed", "-1"],
            ["correlation", "--tau-si-s", "-1"],
            ["correlation", "--delta-hz", "1e300", "--tau-s", "1e10"],
            ["local", "--delta-hz", "1e308"],
            ["chsh", "--tau-si-s", "-1"],
            ["chsh", "--mode", "mc", "--tau-si-s", "1e-6"],
            ["dephasing", "--samples", "0"],
            ["dephasing", "--samples", "-1"],
            ["events-match", "--in", "empty.bin"],
            ["events-match", "--in", "short.bin"],
            ["events-match", "--in", "ok.bin", "--window-ps", "-1"],
            ["events-match", "--in", "ok.bin", "--hist-out", "h.csv", "--bin-ps", "0", "--out", "x.csv"],
            ["events-match", "--in", "ok.bin", "--hist-out", "h.csv", "--range-ps", "0"],
            ["events-match", "--in", "ok.bin", "--hist-out", "h.csv", "--bin-ps", "1", "--range-ps", "1000000000"],
            ["fig2b", "--mode", "both", "--pairs", "3"],
            ["fig2a", "--mode", "both", "--pairs", "64"],
            ["fig2a", "--mode", "both", "--pairs", "128"],
            ["local", "--mode", "both", "--pairs", "1"],
            ["dephasing", "--mode", "both", "--samples", "1"],
            ["events-generate", "--pairs", "10", "--delta-hz", "1e308", "--out", "x.bin"],
            ["events-generate", "--pairs", "10", "--tau-si-s", "1e300", "--out", "x.bin"],
            ["events-generate", "--pairs", "1000", "--rate", "1e-6", "--out", "x.bin"],
            ["events-generate", "--pairs", "10", "--mu", "1e-200", "--out", "x.bin"],
            ["events-generate", "--pairs", "4294967296", "--out", "x.bin"],
            ["fig2b", "--mode", "mc", "--pairs", "1"],
            ["chsh", "--mode", "mc", "--pairs", "1"],
            ["fig2b", "--grid=0:1e300:1e-300"],
        ],
        ids=" ".join,
    )
    def test_bad_value_is_a_one_line_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.bin").write_bytes(b"")
        (tmp_path / "ok.bin").write_bytes(OK_STREAM)
        (tmp_path / "short.bin").write_bytes(OK_STREAM[:-3])
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.bin").exists()
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "h.csv").exists()

    def test_negative_seed_rejected_from_config_and_environment(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -2\n", encoding="utf-8")
        assert run_cli(["--config", str(cfg), "fig2b"], capsys)[0] == 2
        monkeypatch.setenv("CESIM_SEED", "-3")
        code, _, err = run_cli(["fig2b"], capsys)
        assert code == 2
        assert "seed must be non-negative" in err


# every subcommand but selftest with each extreme value of each numeric option, taken or not
_EXTREME = {float: ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "-1e308"), int: ("0", "-1", str(2**63))}
_BASE_ARGV = {"events-generate": ["--pairs=10", "--out=x.bin"], "events-match": ["--in=ok.bin", "--hist-out=h.csv"]}
_SWEEP = [
    [name, f"--{opt.name}={value}"]
    for name in SUBCOMMANDS
    if name != "selftest"
    for opt in OPTIONS
    if opt.cast in _EXTREME
    for value in (("0", "-1", "1") if opt.name in ("pairs", "samples") else _EXTREME[opt.cast])
]


@pytest.mark.parametrize("argv", _SWEEP, ids=" ".join)
def test_extreme_value_runs_or_is_a_one_line_error(argv, tmp_path, monkeypatch, capsys):
    """A taken option runs or ends in one ``error:`` line; an option the
    subcommand does not take is an argparse error.  Either error writes
    nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.bin").write_bytes(OK_STREAM)
    name, flag = argv[0], argv[1].split("=")[0]
    base = [arg for arg in _BASE_ARGV.get(name, []) if arg.split("=")[0] != flag]
    if name not in _BY_NAME[flag[2:]].subcommands:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *base])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.bin"]
        return
    code, out, err = run_cli([*argv, *base], capsys)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.bin"]
    else:
        assert "nan" not in out.lower()


# (subcommand, option) pairs whose value moves no output byte, and why
_INERT = {
    **{(name, "tau-s"): "the detuning phase cancels in the gated product (criterion 02)"
       for name in ("correlation", "fig2a", "fig2b", "chsh")},
    **{(name, "delta-hz"): "the detuning phase cancels in the gated product (criterion 02)"
       for name in ("correlation", "fig2b", "chsh")},
    ("dephasing", "pairs"): "not read; the tables_mc workload of perfbench passes it",
}
_ACTS_BASE = {"dephasing": ["--samples=2000"], "events-generate": ["--pairs=2000", "--out=x.bin"],
              "events-match": ["--in=run.bin"]}
_MOVED = {"xi-deg": "10", "theta-deg": "10", "tau-si-s": "1e-7", "delta-hz": "2e6", "grid": "-1e6:1e6:1e6",
          "pairs": "1000", "seed": "7", "mode": "mc", "window-ps": "10000000", "out": "moved.out",
          "samples": "1000", "a-deg": "10", "a2-deg": "10", "b-deg": "10", "b2-deg": "10", "mu": "0.2",
          "rate": "2e6", "in": "ok.bin", "hist-out": "h.csv", "bin-ps": "1000", "range-ps": "100000"}
_ACTING = [pytest.param(name, opt.name, id=f"{name} --{opt.name}")
           for opt in OPTIONS for name in opt.subcommands if (name, opt.name) not in _INERT]


def _alongside(name, option):
    """The options that ``option`` acts only next to."""
    if name == "events-generate" and option == "delta-hz":
        return ["--jitter"]  # the bandwidth sets the jitter's scale
    if name == "events-match" and option in ("bin-ps", "range-ps"):
        return ["--hist-out=h.csv"]
    if name in TABLES and option in ("pairs", "seed"):
        return ["--mode=mc", "--pairs=2000"]  # the analytic path draws nothing
    if name in TABLES and option == "mode":
        return ["--pairs=2000"]
    return []


@pytest.fixture(scope="module")
def jitter_stream(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "run.bin"
    assert main(["events-generate", "--pairs=2000", "--jitter", f"--out={path}"]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("name, option", _ACTING)
def test_every_taken_option_acts(name, option, jitter_stream, tmp_path, monkeypatch, capsys):
    """Each taken option, set away from its default, moves a byte of the
    output (stdout and the files written), apart from the pairs in
    ``_INERT``."""
    monkeypatch.chdir(tmp_path)
    inputs = {"run.bin": jitter_stream, "ok.bin": OK_STREAM}

    def output(argv):
        for file_name, data in inputs.items():
            (tmp_path / file_name).write_bytes(data)
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.name not in inputs}
        for path in tmp_path.iterdir():
            path.unlink()
        return out, written

    base = [name, *_ACTS_BASE.get(name, []), *_alongside(name, option)]
    value = _MOVED.get(option)
    assert output(base) != output([*base, f"--{option}" if value is None else f"--{option}={value}"])


@pytest.mark.parametrize("name", TABLES)
def test_runner_settings_not_taken_do_not_act(name, capsys):
    """A table runner reads no ExperimentConfig field its subcommand does
    not take: handed one anyway, the output is the same."""
    _, handler = SUBCOMMANDS[name]
    argv = [name, *_ACTS_BASE.get(name, [])]
    handler(parse_args(argv).options)
    reference = capsys.readouterr().out
    untaken = {"tau-s": 1e-7, "grid": "-1e6:1e6:1e6", "raw": True}
    for key, value in untaken.items():
        options = parse_args(argv).options
        if key not in options:
            handler({**options, key: value})
            assert capsys.readouterr().out == reference, key


def _readme_command_line():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _readme_examples():
    """The ``cesim ...`` lines of README's command-line block."""
    block = _readme_command_line().split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("cesim ")]


def test_readme_option_table_is_the_option_table():
    rows = [line.split("|")[1:-1] for line in _readme_command_line().splitlines() if line.startswith("| `--")]
    header = next(line for line in _readme_command_line().splitlines() if line.startswith("| option |"))
    names = [cell.strip(" `") for cell in header.split("|")[2:-1]]
    documented = {
        option: tuple(name for name, mark in zip(names, marks) if mark.strip())
        for first, *marks in rows
        for option in re.findall(r"`--([a-z0-9-]+)`", first)
    }
    assert documented == {opt.name: tuple(n for n in SUBCOMMANDS if n in opt.subcommands) for opt in OPTIONS}


def test_readme_examples_parse():
    examples = _readme_examples()
    assert len(examples) >= 8
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])  # exits 2 on an option the subcommand does not take


def _sample_value(opt):
    """A value for ``opt`` as written on a command line or a config line."""
    if opt.choices:
        return opt.choices[-1]
    return {float: "-2.5", int: "7", str: "some/file.bin"}.get(opt.cast)


@pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.name)
def test_option_table_flag_and_config_agree(opt, tmp_path):
    subcommand = opt.subcommands[0]
    value = _sample_value(opt)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{opt.name} = {value if value is not None else 'true'}\n", encoding="utf-8")
    flag = [f"--{opt.name}"] if value is None else [f"--{opt.name}={value}"]
    from_flag = parse_args([subcommand, *flag]).options[opt.name]
    from_config = parse_args(["--config", str(cfg), subcommand]).options[opt.name]
    assert from_flag == from_config
    assert type(from_flag) is type(from_config)
    assert from_flag != opt.default


class TestCommands:
    def test_correlation_orthogonal_prints_zero(self, capsys):
        code, out, _ = run_cli(["correlation", "--xi-deg", "45", "--theta-deg", "45"], capsys)
        assert code == 0
        assert out.startswith("R_normalized = ")
        assert abs(float(out.split("=")[1])) < 1e-12

    def test_correlation_peak(self, capsys):
        code, out, _ = run_cli(["correlation", "--xi-deg", "0", "--theta-deg", "0"], capsys)
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_fig2b_default_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "fig2b.csv"
        code, _, _ = run_cli(["fig2b", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 38  # header + 0..180 step 5
        assert lines[0] == "xi_deg,theta_deg,xi_plus_theta_deg,r_si"

    def test_stdout_is_the_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "fig2b.csv"
        assert run_cli(["fig2b", "--out", str(out_path)], capsys)[0] == 0
        code, out, _ = run_cli(["fig2b"], capsys)
        assert code == 0
        assert out.encode("utf-8") == out_path.read_bytes()

    def test_chsh_prints_tsirelson(self, capsys):
        code, out, _ = run_cli(["chsh"], capsys)
        assert code == 0
        s_line = [l for l in out.splitlines() if l.startswith("S = ")][0]
        assert float(s_line.split("=")[1]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_local_stdout(self, capsys):
        code, out, _ = run_cli(["local", "--xi-deg", "45", "--theta-deg", "45"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("tau_s,")

    def test_dephasing(self, tmp_path, capsys):
        out_path = tmp_path / "deph.csv"
        code, _, _ = run_cli(
            ["dephasing", "--samples", "20000", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.exists()

    def test_events_roundtrip_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for path in (a, b):
            code, out, _ = run_cli(
                ["events-generate", "--pairs", "20000", "--seed", "5", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()  # identical invocation, identical bytes

        match_out = tmp_path / "coinc.csv"
        hist_out = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            [
                "events-match",
                "--in", str(a),
                "--window-ps", "1000",
                "--out", str(match_out),
                "--hist-out", str(hist_out),
                "--bin-ps", "100",
                "--range-ps", "2000",
            ],
            capsys,
        )
        assert code == 0
        assert "accepted coincidences" in out
        accepted = int(out.split(" candidates, ")[1].split(" accepted")[0])
        assert len(decode_stream(a.read_bytes())) == 2 * 20000
        assert abs(accepted / 20000 - 0.25) < 0.01
        assert match_out.exists() and hist_out.exists()
        assert hist_out.read_text().splitlines()[0] == "bin_lo_ps,bin_hi_ps,count"

    def test_events_generate_needs_out(self, capsys):
        code, _, err = run_cli(["events-generate", "--pairs", "10"], capsys)
        assert code == 2
        assert "needs --out" in err

    def test_events_match_missing_file_reports_io(self, tmp_path, capsys):
        code, _, err = run_cli(["events-match", "--in", str(tmp_path / "nope.bin")], capsys)
        assert code == 1
        assert "i/o error" in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (BrokenPipeError(32, "Broken pipe"), "i/o error: Broken pipe\n"),
            (OSError(28, "No space left on device", "out.csv"), "i/o error on out.csv: No space left on device\n"),
        ],
    )
    def test_io_error_names_the_file_only_when_there_is_one(self, exc, message, capsys, monkeypatch):
        def handler(options):
            raise exc

        monkeypatch.setitem(SUBCOMMANDS, "chsh", ("", handler))
        code, _, err = run_cli(["chsh"], capsys)
        assert code == 1
        assert err == message

    def test_eraser_stream_via_cli(self, tmp_path, capsys):
        path = tmp_path / "er.bin"
        code, out, _ = run_cli(
            [
                "events-generate", "--pairs", "20000", "--seed", "6",
                "--xi-deg", "22.5", "--theta-deg", "22.5", "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["events-match", "--in", str(path), "--window-ps", "1000"], capsys)
        assert code == 0
        accepted = int(out.split(" candidates, ")[1].split(" accepted")[0])
        expected = math.cos(math.radians(45)) ** 2 / 8
        sigma = math.sqrt(expected * (1 - expected) / 20000)
        assert abs(accepted / 20000 - expected) < 4 * sigma

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert [line[:19] for line in lines[:-1]] == [f"[PASS] criterion {n:02d}" for n in range(1, 12)]
        assert lines[-1] == "selftest: 11/11 criteria passed"

    def test_selftest_fails_on_a_failing_or_raising_criterion(self, monkeypatch, capsys):
        from cesim import selftest

        def failing():
            return selftest.Result(1, "planted", (("x", 1.0, "<", 0.5),), "x=1")

        def raising():
            raise RuntimeError("planted")

        monkeypatch.setattr(selftest, "CRITERIA", (failing, selftest.criterion_02_detuning_independence, raising))
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "[FAIL] criterion 01 planted: x=1"
        assert lines[1].startswith("[PASS] criterion 02 ")
        assert lines[2:] == ["[FAIL] raising: RuntimeError: planted", "selftest: 1/3 criteria passed"]

    def test_same_seed_same_csv_bytes(self, tmp_path, capsys):
        paths = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                ["fig2b", "--mode", "mc", "--pairs", "20000", "--seed", "11", "--out", str(path)],
                capsys,
            )
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_raw_flag_reports_unnormalized_peak(self, capsys):
        code, out, _ = run_cli(["correlation", "--xi-deg", "0", "--theta-deg", "0", "--raw"], capsys)
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(1.0 / 16.0, abs=1e-12)

    @pytest.mark.parametrize("subcommand", ["fig2a", "fig2b"])
    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_raw_needs_analytic_mode(self, subcommand, mode, capsys):
        # the twin is normalized by a reference run, so it has no raw form
        code, out, err = run_cli([subcommand, "--raw", "--mode", mode, "--pairs", "2000"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_raw_analytic_table(self, capsys):
        code, out, _ = run_cli(["fig2b", "--raw"], capsys)
        assert code == 0
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_local_mode_both_passes_on_default_seed(self, capsys):
        # 324 cells: a per-cell 3-sigma check fails this run on a correct simulator
        code, out, err = run_cli(["local", "--mode", "both"], capsys)
        assert code == 0, err
        assert out.splitlines()[0].endswith("i_i,i_a_mc,i_b_mc,i_s_mc,i_i_mc")

    def test_fig2b_mode_both_passes_on_default_seed(self, capsys):
        code, out, err = run_cli(["fig2b", "--mode", "both"], capsys)
        assert code == 0, err
        assert out.splitlines()[0].endswith("r_si_mc,r_si_mc_err,discrepancy_sigma")

    def test_mode_both_runs(self, tmp_path, capsys):
        out_path = tmp_path / "f.csv"
        code, _, _ = run_cli(
            ["fig2a", "--mode", "both", "--pairs", "20000", "--xi-deg", "30",
             "--theta-deg", "0", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert "r_si_mc" in header and "discrepancy_sigma" in header
        # the default fig2a table's rarest cells expect 16 accepted coincidences at 256 pairs, above 10
        assert run_cli(["fig2a", "--mode", "both", "--pairs", "256"], capsys)[0] == 0
