import math

import pytest

from cesim.cli import OPTIONS, SUBCOMMANDS, CliInvocation, main, parse_args
from cesim.eventstream import TagStream, decode_stream, encode_stream


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

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        code, _, err = run_cli(["--config", str(cfg), "fig2b"], capsys)
        assert code == 2
        assert "unknown option" in err

    @pytest.mark.parametrize("line", ["mode = foo", "format = tsv", "jitter = ture"])
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
            ["events-generate", "--pairs", "10", "--delta-hz", "1e308", "--out", "x.bin"],
            ["events-generate", "--pairs", "10", "--tau-si-s", "1e300", "--out", "x.bin"],
            ["events-generate", "--pairs", "1000", "--rate", "1e-6", "--out", "x.bin"],
            ["events-generate", "--pairs", "10", "--mu", "1e-200", "--out", "x.bin"],
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


# every subcommand but selftest with each value of each numeric option it takes
_EXTREME = {float: ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "-1e308"), int: ("0", "-1", str(2**63))}
_BASE_ARGV = {"events-generate": ["--pairs=10", "--out=x.bin"], "events-match": ["--in=ok.bin"]}
_SWEEP = [
    [name, f"--{opt.name}={value}"]
    for name in SUBCOMMANDS
    if name != "selftest"
    for opt in OPTIONS
    if opt.cast in _EXTREME and (not opt.subcommands or name in opt.subcommands)
    for value in (("0", "-1", "1") if opt.name in ("pairs", "samples") else _EXTREME[opt.cast])
]


@pytest.mark.parametrize("argv", _SWEEP, ids=" ".join)
def test_extreme_value_runs_or_is_a_one_line_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.bin").write_bytes(OK_STREAM)
    name = argv[0]
    base = [arg for arg in _BASE_ARGV.get(name, []) if arg.split("=")[0] != argv[1].split("=")[0]]
    code, out, err = run_cli([*argv, *base], capsys)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.bin"]
    else:
        assert "nan" not in out.lower()


def _sample_value(opt):
    """A value for ``opt`` as written on a command line or a config line."""
    if opt.choices:
        return opt.choices[-1]
    return {float: "-2.5", int: "7", str: "some/file.bin"}.get(opt.cast)


@pytest.mark.parametrize("opt", OPTIONS, ids=lambda opt: opt.name)
def test_option_table_flag_and_config_agree(opt, tmp_path):
    subcommand = opt.subcommands[0] if opt.subcommands else next(iter(SUBCOMMANDS))
    value = _sample_value(opt)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{opt.name} = {value if value is not None else 'true'}\n", encoding="utf-8")
    flag = [f"--{opt.name}"] if value is None else [f"--{opt.name}={value}"]
    from_flag = parse_args([subcommand, *flag]).options[opt.name]
    from_config = parse_args(["--config", str(cfg), subcommand]).options[opt.name]
    assert from_flag == from_config
    assert type(from_flag) is type(from_config)
    if opt.name != "format":  # csv is its only value
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
        code, out, _ = run_cli(["selftest", "--seed", "3"], capsys)
        assert code == 0
        assert "[FAIL]" not in out

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
