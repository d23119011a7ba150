"""Command-line entry point.

Angles are accepted in degrees on the boundary and converted to radians
internally.  A subcommand takes only the options ``OPTIONS`` names for
it; any other flag is an argparse error (exit 2).  Option precedence,
lowest first: built-in defaults, the ``CESIM_SEED`` environment variable
(seed only), the ``--config`` file, explicit flags.  The config file is
plain text, one ``key = value`` pair per line, ``#`` comments allowed;
keys are the long option names without the leading dashes (for example
``xi-deg = 22.5``).  Every key must name an option; a subcommand ignores
the file's keys, and ``CESIM_SEED``, when it does not take the option.

``main`` is the one error boundary: a ``ValueError`` from parsing or from
the library (a value the run cannot use) ends the run with one
``error:`` line and exit 2; a failed self-check or an I/O error ends it
with exit 1.
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
from .experiments import CANONICAL_CHSH_DEG, ExperimentConfig, RunMode, SelfCheckError, Table, emit_csv
from .interferometer import EraserSetting
from .source import DetuningGrid, SourceConfig, sample_n_pairs

ENV_SEED = "CESIM_SEED"

def _truthy(text: str) -> bool:
    word = str(text).strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a yes/no value: {text!r}")
    return word in ("1", "true", "yes", "on")


@dataclass(frozen=True, slots=True)
class Option:
    """One long option, taken by exactly the ``subcommands`` that read it.
    ``cast`` reads its config-file value (a ``_truthy`` option is a bare
    flag on the command line)."""

    name: str
    cast: Callable[[str], object]
    default: object
    subcommands: tuple[str, ...]
    help: str | None = None
    choices: tuple[str, ...] | None = None
    metavar: str | None = None


TABLES = ("local", "fig2a", "fig2b", "dephasing", "chsh")  # the table runners
GEN, MATCH = "events-generate", "events-match"
_RUN, _SRC = ExperimentConfig(), SourceConfig()  # the defaults the library declares

OPTIONS = (
    Option("xi-deg", float, None, ("local", "correlation", "fig2a", "dephasing", GEN),
           "port A analyzer angle in degrees"),
    Option("theta-deg", float, None, ("local", "correlation", "fig2a", "fig2b", "dephasing", GEN),
           "port B analyzer angle in degrees"),
    Option("tau-s", float, _RUN.tau, ("correlation", "fig2a", "fig2b", "chsh"), "arm delay in seconds"),
    Option("tau-si-s", float, CoincidenceSetting().tau_si, ("correlation", "chsh", GEN),
           "electronic inter-detector delay in seconds"),
    Option("delta-hz", float, _RUN.delta_big,
           ("local", "correlation", "fig2a", "fig2b", "dephasing", "chsh", GEN),
           "modulation bandwidth in Hz"),
    Option("grid", str, None, ("fig2a", "fig2b"), "detuning grid in Hz", metavar="LO:HI:STEP"),
    # dephasing does not read --pairs; the tables_mc workload of perfbench passes it
    Option("pairs", int, _RUN.n_pairs, (*TABLES, GEN), "generated pairs per stochastic point"),
    Option("seed", int, _RUN.seed, (*TABLES, GEN), "random seed"),
    Option("mode", str, _RUN.mode.value, TABLES, choices=("analytic", "mc", "both")),
    Option("window-ps", int, 1000, (MATCH,), "coincidence window in ps"),
    Option("out", str, None, (*TABLES, GEN, MATCH), "output file path"),
    Option("raw", _truthy, _RUN.raw_values, ("correlation", "fig2a", "fig2b"),
           "report raw squared amplitudes instead of peak-normalized values"),
    Option("samples", int, 100_000, ("dephasing",), "detuning samples for the average"),
    *(Option(name, float, deg, ("chsh",))
      for name, deg in zip(("a-deg", "a2-deg", "b-deg", "b2-deg"), CANONICAL_CHSH_DEG)),
    Option("mu", float, _SRC.mu, (GEN,), "mean photon number per window"),
    Option("rate", float, _SRC.rate, (GEN,), "emission attempts per second"),
    Option("jitter", _truthy, False, (GEN,), "exponential inter-detector delay of scale tau_c/2"),
    Option("in", str, None, (MATCH,), "input stream path"),
    Option("hist-out", str, None, (MATCH,), "write the delay histogram CSV here"),
    Option("bin-ps", int, 50_000, (MATCH,)),
    Option("range-ps", int, 8_000_000, (MATCH,)),
)
_BY_NAME = {opt.name: opt for opt in OPTIONS}


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
        allow_abbrev=False,
        description="Interferometric polarization-path correlation simulator",
        epilog="Config file: one 'key = value' per line, '#' comments; keys are long "
        "option names without dashes prefix, e.g. 'xi-deg = 22.5'; a subcommand uses the "
        "keys it takes. Flags override the file; the CESIM_SEED environment variable seeds "
        "the subcommands that take --seed at lowest precedence.",
    )
    parser.add_argument("--config", default=None, help="key=value option file")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, _) in SUBCOMMANDS.items():
        # no abbreviations: --tau-s must not become --tau-si-s where only that is taken
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for opt in OPTIONS:
            if name in opt.subcommands:
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
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _BY_NAME:
            raise ValueError(f"{path}:{lineno}: unknown option '{key}'")
        opt = _BY_NAME[key]
        try:
            entries[key] = opt.cast(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for '{key}': {value}") from exc
        if opt.choices and entries[key] not in opt.choices:
            raise ValueError(
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
    """The subcommand and the values of exactly the options it takes."""
    parser = build_parser()
    ns = parser.parse_args(_join_grid_value(sys.argv[1:] if argv is None else argv))
    cli_values = vars(ns)
    subcommand = cli_values.pop("subcommand")
    config_path = cli_values.pop("config", None)

    options = {opt.name: opt.default for opt in OPTIONS if subcommand in opt.subcommands}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None and "seed" in options:
        try:
            options["seed"] = int(env_seed)
        except ValueError as exc:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from exc
    if config_path is not None:
        options.update((key, value) for key, value in _read_config(config_path).items() if key in options)
    for key, value in cli_values.items():
        if value is not None:
            options[key.replace("_", "-")] = value
    if options.get("seed", 0) < 0:
        raise ValueError(f"seed must be non-negative, got {options['seed']}")
    return CliInvocation(subcommand, options)


def _parse_grid(text: str | None) -> DetuningGrid | None:
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"--grid expects numeric LO:HI:STEP, got {text!r}") from exc
    return DetuningGrid(lo, hi, step)


# option: (the ExperimentConfig field it sets, how its value is read)
_CONFIG_FIELDS = {"delta-hz": ("delta_big", float), "grid": ("grid", _parse_grid), "tau-s": ("tau", float),
                  "pairs": ("n_pairs", int), "seed": ("seed", int), "mode": ("mode", RunMode),
                  "raw": ("raw_values", bool)}


def _experiment_config(options: dict) -> ExperimentConfig:
    """The runner settings the subcommand takes; a field it does not take
    keeps its default, which its runner does not read."""
    taken = {key: spec for key, spec in _CONFIG_FIELDS.items() if key in options}
    return ExperimentConfig(**{field: read(options[key]) for key, (field, read) in taken.items()})


def _eraser(options: dict, default_xi=45.0, default_theta=45.0) -> EraserSetting:
    xi = options["xi-deg"] if options["xi-deg"] is not None else default_xi
    theta = options["theta-deg"] if options["theta-deg"] is not None else default_theta
    return EraserSetting(math.radians(xi), math.radians(theta))


def _deliver(table: Table, options: dict) -> None:
    if options["out"] is not None:
        emit_csv(table, options["out"])
        print(f"wrote {options['out']} ({len(table.rows)} rows)")
    else:
        sys.stdout.write(experiments.csv_text(table))


def _cmd_local(options: dict) -> int:
    cfg = _experiment_config(options)
    table = experiments.run_local(cfg, _eraser(options))
    _deliver(table, options)
    return 0


def _cmd_correlation(options: dict) -> int:
    cfg = _experiment_config(options)
    eraser = _eraser(options, default_xi=0.0, default_theta=0.0)
    cs = CoincidenceSetting.for_bandwidth(cfg.delta_big, tau_si=options["tau-si-s"])
    setting = experiments.setting_for(cfg.delta_big, cfg.tau)
    value = experiments.analytic_r(setting, eraser, cs, raw=cfg.raw_values)
    print(f"R_normalized = {format(value, '.17g')}")
    return 0


def _cmd_fig2a(options: dict) -> int:
    cfg = _experiment_config(options)
    if options["xi-deg"] is not None or options["theta-deg"] is not None:
        xi = options["xi-deg"] if options["xi-deg"] is not None else 0.0
        theta = options["theta-deg"] if options["theta-deg"] is not None else 0.0
        table = experiments.run_fig2a(cfg, [(xi, theta)])
    else:
        table = experiments.run_fig2a(cfg)
    _deliver(table, options)
    return 0


def _cmd_fig2b(options: dict) -> int:
    cfg = _experiment_config(options)
    theta = options["theta-deg"] if options["theta-deg"] is not None else 0.0
    table = experiments.run_fig2b(cfg, theta)
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
    result = experiments.run_chsh(cfg, angles, tau_si=options["tau-si-s"])
    _deliver(result.table, options)
    print(f"S = {format(result.s_analytic, '.17g')}")
    if result.s_mc is not None:
        print(f"S_mc = {format(result.s_mc, '.17g')} +- {format(result.s_mc_err, '.17g')}")
    return 0


def _cmd_events_generate(options: dict) -> int:
    if options["out"] is None:
        raise ValueError("events-generate needs --out")
    if options["pairs"] <= 0:
        raise ValueError("events-generate needs --pairs above 0")
    src = SourceConfig(
        mu=options["mu"], rate=options["rate"], delta_big=options["delta-hz"], seed=options["seed"]
    )
    batch = sample_n_pairs(src, options["pairs"])
    eraser = None
    if options["xi-deg"] is not None or options["theta-deg"] is not None:
        eraser = _eraser(options, default_xi=0.0, default_theta=0.0)
    cs = CoincidenceSetting.for_bandwidth(src.delta_big, tau_si=options["tau-si-s"])
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
        raise ValueError("events-match needs --in")
    data = FsPath(options["in"]).read_bytes()
    try:
        stream = eventstream.decode_stream(data)
    except eventstream.StreamFormatError as exc:
        raise ValueError(f"{options['in']}: {exc}") from exc
    coincidences = eventstream.match_coincidences(stream, options["window-ps"])
    accepted = coincidences[coincidences["accepted"]]
    hist = None
    if options["hist-out"] is not None:  # before any output, so bad bins write nothing
        hist = eventstream.histogram_tau_si(accepted, options["bin-ps"], options["range-ps"])
    print(
        f"{len(stream)} records, {len(coincidences)} candidates, {len(accepted)} accepted coincidences"
    )
    if options["out"] is not None:
        eventstream.write_coincidences_csv(coincidences, options["out"])
        print(f"wrote {options['out']}")
    if hist is not None:
        eventstream.write_histogram_csv(hist, options["hist-out"])
        print(f"wrote {options['hist-out']}")
    return 0


def _cmd_selftest(options: dict) -> int:
    from .selftest import run_selftest

    return run_selftest()


# name -> (help text, handler)
SUBCOMMANDS = {
    "local": ("local intensities against the arm delay", _cmd_local),
    "correlation": ("print the normalized joint correlation for one setting", _cmd_correlation),
    "fig2a": ("per-detuning zero-delay correlation table", _cmd_fig2a),
    "fig2b": ("correlation fringe against the summed analyzer angle", _cmd_fig2b),
    "dephasing": ("ensemble-averaged intensities against the arm delay", _cmd_dephasing),
    "chsh": ("CHSH combination of the joint fringe", _cmd_chsh),
    "events-generate": ("synthesize a binary time-tag stream", _cmd_events_generate),
    "events-match": ("match coincidences in a binary time-tag stream", _cmd_events_match),
    "selftest": ("run the eleven acceptance criteria", _cmd_selftest),
}


def main(argv=None) -> int:
    """Run one subcommand; a value the run cannot use ends it with exit 2."""
    try:
        invocation = parse_args(argv)
        _, handler = SUBCOMMANDS[invocation.subcommand]
        return handler(invocation.options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f" on {exc.filename}"
        print(f"i/o error{where}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
