"""Command-line front end: one positional argument names the experiment.

Examples:

    fermiwire dispersion --set N=64 --out disp.csv
    fermiwire rate-fit --config sweep.cfg --out fit.json --format json
    fermiwire oracle-bounds --set N=10 --set M=2 --seed 7

Values come from an optional config file first, then repeated
``--set key=value`` overrides, then dedicated flags.  Without ``--out``
the table is printed to stdout.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    EXPERIMENTS,
    ConfigError,
    build_config,
    parse_config_text,
    emit,
    render_csv,
    render_json,
    run,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiwire",
        description="wavepacket wire transmission experiments",
    )
    parser.add_argument("command", choices=list(EXPERIMENTS), help="the experiment to run")
    parser.add_argument("--config", help="config file of key = value lines")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, help="integer seed recorded in output")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    return parser


def _collect_values(args) -> dict:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    overrides: dict = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        overrides.update(parse_config_text(f"{key.strip()} = {raw.strip()}"))
    experiment = EXPERIMENTS[args.command].name
    # neither the config file nor a --set may name another experiment
    for named in (values.get("experiment"), overrides.get("experiment")):
        if named not in (None, experiment):
            raise ConfigError(
                f"config names experiment {named!r} but the subcommand selects {experiment!r}"
            )
    values.update(overrides, experiment=experiment)
    if args.seed is not None:
        values["seed"] = args.seed
    return values


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = build_config(_collect_values(args))
        table = run(config)
        destination = args.out or config.output
        if destination:
            emit(table, destination, args.format)
        else:
            text = render_csv(table) if args.format == "csv" else render_json(table)
            sys.stdout.write(text)
    except (ConfigError, RuntimeError, ValueError) as exc:
        print(f"fermiwire: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
