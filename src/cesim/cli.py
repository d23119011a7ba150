"""Command-line entry point.

Angles are accepted in degrees on the boundary and converted to radians
internally.  Option precedence, lowest first: built-in defaults, the
``CESIM_SEED`` environment variable (seed only), the ``--config`` file,
explicit flags.  The config file is plain text, one ``key = value`` pair
per line, ``#`` comments allowed; keys are the long option names without
the leading dashes (for example ``xi-deg = 22.5``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable

import numpy as np

from . import eventstream, experiments
from .detection import CoincidenceSetting, selection_efficiency
from .experiments import ExperimentConfig, RunMode, SelfCheckError, Table, emit_csv
from .interferometer import EraserSetting
from .source import DetuningGrid, SourceConfig, sample_n_pairs

ENV_SEED = "CESIM_SEED"

SUBCOMMANDS = {
    "local": "local intensities against the arm delay",
    "correlation": "print the normalized joint correlation for one setting",
    "fig2a": "per-detuning zero-delay correlation table",
    "fig2b": "correlation fringe against the summed analyzer angle",
    "dephasing": "ensemble-averaged intensities against the arm delay",
    "chsh": "CHSH combination of the joint fringe",
    "events-generate": "synthesize a binary time-tag stream",
    "events-match": "match coincidences in a binary time-tag stream",
    "selftest": "run the built-in invariant battery",
}


def _truthy(text: str) -> bool:
    word = str(text).strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a yes/no value: {text!r}")
    return word in ("1", "true", "yes", "on")


@dataclass(frozen=True, slots=True)
class Option:
    """One long option.  ``cast`` reads its config-file value (a ``_truthy``
    option is a bare flag on the command line); ``subcommands`` lists the
    subcommands that take the flag, all of them when empty."""

    name: str
    cast: Callable[[str], object]
    default: object
    help: str | None = None
    subcommands: tuple[str, ...] = ()
    choices: tuple[str, ...] | None = None
    metavar: str | None = None


OPTIONS = (
    Option("xi-deg", float, None, "port A analyzer angle in degrees"),
    Option("theta-deg", float, None, "port B analyzer angle in degrees"),
    Option("tau-s", float, 3.0e-6, "arm delay in seconds"),
    Option("tau-si-s", float, 0.0, "electronic inter-detector delay in seconds"),
    Option("delta-hz", float, 1.0e6, "modulation bandwidth in Hz (default 1e6)"),
    Option("grid", str, None, "detuning grid in Hz", metavar="LO:HI:STEP"),
    Option("pairs", int, 200_000, "generated pairs per stochastic point"),
    Option("seed", int, 20230730, "random seed"),
    Option("mode", str, "analytic", choices=("analytic", "mc", "both")),
    Option("window-ps", int, 1000, "coincidence window in ps"),
    Option("out", str, None, "output file path"),
    Option("format", str, "csv", choices=("csv",)),
    Option("raw", _truthy, False, "report raw squared amplitudes instead of peak-normalized values"),
    Option("samples", int, 100_000, "detuning samples for the average", ("dephasing",)),
    Option("a-deg", float, 0.0, subcommands=("chsh",)),
    Option("a2-deg", float, 45.0, subcommands=("chsh",)),
    Option("b-deg", float, -22.5, subcommands=("chsh",)),
    Option("b2-deg", float, -67.5, subcommands=("chsh",)),
    Option("mu", float, 0.1, "mean photon number per window", ("events-generate",)),
    Option("rate", float, 1.0e6, "emission attempts per second", ("events-generate",)),
    Option("jitter", _truthy, False, "exponential inter-detector delay of scale tau_c/2",
           ("events-generate",)),
    Option("in", str, None, "input stream path", ("events-match",)),
    Option("hist-out", str, None, "write the delay histogram CSV here", ("events-match",)),
    Option("bin-ps", int, 50_000, subcommands=("events-match",)),
    Option("range-ps", int, 8_000_000, subcommands=("events-match",)),
)
_BY_NAME = {opt.name: opt for opt in OPTIONS}


class CliError(Exception):
    pass


@dataclass(slots=True)
class CliInvocation:
    subcommand: str
    options: dict


def _add_flag(parser: argparse.ArgumentParser, opt: Option) -> None:
    if opt.cast is _truthy:
        parser.add_argument(f"--{opt.name}", action="store_const", const=True, default=None, help=opt.help)
    else:
        parser.add_argument(f"--{opt.name}", type=opt.cast, default=None, help=opt.help,
                            choices=opt.choices, metavar=opt.metavar)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesim",
        description="Interferometric polarization-path correlation simulator",
        epilog="Config file: one 'key = value' per line, '#' comments; keys are long "
        "option names without dashes prefix, e.g. 'xi-deg = 22.5'. Flags override "
        "the file; the CESIM_SEED environment variable seeds runs at lowest precedence.",
    )
    parser.add_argument("--config", default=None, help="key=value option file")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        for opt in OPTIONS:
            if not opt.subcommands or name in opt.subcommands:
                _add_flag(p, opt)
    return parser


def _read_config(path: str) -> dict:
    entries = {}
    text = FsPath(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _BY_NAME:
            raise CliError(f"{path}:{lineno}: unknown option '{key}'")
        opt = _BY_NAME[key]
        try:
            entries[key] = opt.cast(value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
        if opt.choices and entries[key] not in opt.choices:
            raise CliError(
                f"{path}:{lineno}: bad value for '{key}': {value} (choose from {', '.join(opt.choices)})"
            )
    return entries


def _join_grid_value(argv: list[str]) -> list[str]:
    """Rewrite ``--grid LO:HI:STEP`` as ``--grid=LO:HI:STEP``; argparse
    would read a negative LO as an option and report a missing value."""
    argv = list(argv)
    while "--grid" in argv[:-1]:
        i = argv.index("--grid")
        argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
    return argv


def parse_args(argv=None) -> CliInvocation:
    parser = build_parser()
    ns = parser.parse_args(_join_grid_value(sys.argv[1:] if argv is None else argv))
    cli_values = vars(ns)
    subcommand = cli_values.pop("subcommand")
    config_path = cli_values.pop("config", None)

    options = {opt.name: opt.default for opt in OPTIONS}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            options["seed"] = int(env_seed)
        except ValueError as exc:
            raise CliError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from exc
    if config_path is not None:
        options.update(_read_config(config_path))
    for key, value in cli_values.items():
        if value is not None:
            options[key.replace("_", "-")] = value
    if options["seed"] < 0:
        raise CliError(f"seed must be non-negative, got {options['seed']}")
    return CliInvocation(subcommand, options)


def _build(make, **fields):
    """``make(**fields)``, with a ValueError reported as a CliError."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_grid(text: str | None) -> DetuningGrid | None:
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--grid expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"--grid expects numeric LO:HI:STEP, got {text!r}") from exc
    return _build(DetuningGrid, lo=lo, hi=hi, step=step)


def _experiment_config(options: dict) -> ExperimentConfig:
    return _build(
        ExperimentConfig,
        delta_big=options["delta-hz"],
        grid=_parse_grid(options["grid"]),
        tau=options["tau-s"],
        n_pairs=options["pairs"],
        seed=options["seed"],
        mode=RunMode(options["mode"]),
        raw_values=bool(options["raw"]),
    )


def _eraser(options: dict, default_xi=45.0, default_theta=45.0) -> EraserSetting:
    xi = options["xi-deg"] if options["xi-deg"] is not None else default_xi
    theta = options["theta-deg"] if options["theta-deg"] is not None else default_theta
    return _build(EraserSetting, xi=math.radians(xi), theta=math.radians(theta))


def _deliver(table: Table, options: dict) -> None:
    if options["out"] is not None:
        emit_csv(table, options["out"])
        print(f"wrote {options['out']} ({len(table.rows)} rows)")
    else:
        print(",".join(table.columns))
        for row in table.rows:
            print(",".join(experiments._fmt(v) for v in row))


def _cmd_local(options: dict) -> int:
    cfg = _experiment_config(options)
    table = experiments.run_local(cfg, _eraser(options))
    _deliver(table, options)
    return 0


def _cmd_correlation(options: dict) -> int:
    cfg = _experiment_config(options)
    eraser = _eraser(options, default_xi=0.0, default_theta=0.0)
    cs = _build(CoincidenceSetting.for_bandwidth, delta_big=cfg.delta_big, tau_si=options["tau-si-s"])
    setting = experiments.setting_for(cfg.delta_big, cfg.tau)
    value = experiments.analytic_r(setting, eraser, cs, raw=cfg.raw_values)
    print(f"R_normalized = {format(value, '.17g')}")
    return 0


def _cmd_fig2a(options: dict) -> int:
    cfg = _experiment_config(options)
    if options["xi-deg"] is not None or options["theta-deg"] is not None:
        xi = options["xi-deg"] if options["xi-deg"] is not None else 0.0
        theta = options["theta-deg"] if options["theta-deg"] is not None else 0.0
        table = experiments.run_fig2a(cfg, angles_deg=[(xi, theta)])
    else:
        table = experiments.run_fig2a(cfg)
    _deliver(table, options)
    return 0


def _cmd_fig2b(options: dict) -> int:
    cfg = _experiment_config(options)
    theta = options["theta-deg"] if options["theta-deg"] is not None else 0.0
    table = experiments.run_fig2b(cfg, theta_deg=theta)
    _deliver(table, options)
    return 0


def _cmd_dephasing(options: dict) -> int:
    cfg = _experiment_config(options)
    table = experiments.run_dephasing(cfg, _eraser(options), n_samples=options["samples"])
    _deliver(table, options)
    return 0


def _cmd_chsh(options: dict) -> int:
    cfg = _experiment_config(options)
    angles = (options["a-deg"], options["a2-deg"], options["b-deg"], options["b2-deg"])
    result = _build(experiments.run_chsh, cfg=cfg, angles_deg=angles, tau_si=options["tau-si-s"])
    _deliver(result.table, options)
    print(f"S = {format(result.s_analytic, '.17g')}")
    if result.s_mc is not None:
        print(f"S_mc = {format(result.s_mc, '.17g')} +- {format(result.s_mc_err, '.17g')}")
    return 0


def _cmd_events_generate(options: dict) -> int:
    if options["out"] is None:
        raise CliError("events-generate needs --out")
    if options["pairs"] <= 0:
        raise CliError("events-generate needs --pairs above 0")
    grid = _parse_grid(options["grid"])
    src = _build(
        SourceConfig,
        mu=options["mu"],
        rate=options["rate"],
        delta_big=options["delta-hz"],
        grid=grid,
        seed=options["seed"],
    )
    batch = sample_n_pairs(src, options["pairs"])
    eraser = None
    if options["xi-deg"] is not None or options["theta-deg"] is not None:
        eraser = _eraser(options, default_xi=0.0, default_theta=0.0)
    cs = _build(CoincidenceSetting.for_bandwidth, delta_big=src.delta_big, tau_si=options["tau-si-s"])
    stream = eventstream.synthesize_stream(
        batch, eraser=eraser, coincidence=cs, jitter=bool(options["jitter"]),
        seed=np.random.SeedSequence(options["seed"]).spawn(1)[0],
    )
    FsPath(options["out"]).write_bytes(eventstream.encode_stream(stream))
    efficiency = selection_efficiency(batch)
    print(
        f"wrote {options['out']}: {len(stream)} records from {len(batch)} pairs "
        f"(pre-analyzer accepted fraction {efficiency:.4f})"
    )
    return 0


def _cmd_events_match(options: dict) -> int:
    if options["in"] is None:
        raise CliError("events-match needs --in")
    data = FsPath(options["in"]).read_bytes()
    stream = eventstream.decode_stream(data)
    coincidences = eventstream.match_coincidences(stream, options["window-ps"])
    accepted = coincidences[coincidences["accepted"]]
    print(
        f"{len(stream)} records, {len(coincidences)} candidates, {len(accepted)} accepted coincidences"
    )
    if options["out"] is not None:
        eventstream.write_coincidences_csv(coincidences, options["out"])
        print(f"wrote {options['out']}")
    if options["hist-out"] is not None:
        hist = eventstream.histogram_tau_si(accepted, options["bin-ps"], options["range-ps"])
        eventstream.write_histogram_csv(hist, options["hist-out"])
        print(f"wrote {options['hist-out']}")
    return 0


def _cmd_selftest(options: dict) -> int:
    from .selftest import run_selftest

    return run_selftest(seed=options["seed"])


_DISPATCH = {
    "local": _cmd_local,
    "correlation": _cmd_correlation,
    "fig2a": _cmd_fig2a,
    "fig2b": _cmd_fig2b,
    "dephasing": _cmd_dephasing,
    "chsh": _cmd_chsh,
    "events-generate": _cmd_events_generate,
    "events-match": _cmd_events_match,
    "selftest": _cmd_selftest,
}


def run(invocation: CliInvocation) -> int:
    handler = _DISPATCH[invocation.subcommand]
    try:
        return handler(invocation.options)
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error on {getattr(exc, 'filename', '?')}: {exc.strerror or exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        invocation = parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(invocation)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
