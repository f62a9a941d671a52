"""Command-line front end: one positional argument names the experiment.

Examples:

    fermiwire dispersion --set N=64 --out disp.csv
    fermiwire rate-fit --config sweep.cfg --out fit.json --format json
    fermiwire oracle-bounds --set N=10 --set M=2 --seed 7

Values come from an optional config file first, then repeated
``--set key=value`` overrides, then dedicated flags.  Without ``--out``
the table is printed to stdout.

``parse_args`` reads this one fixed grammar without argparse, whose parser
build and ``locale`` import cost every command a few ms.  Usage errors exit
2, config and run errors exit 1.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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

_USAGE = ("usage: fermiwire [-h] [--config CONFIG] [--out OUT] [--format {csv,json}] "
          "[--seed SEED] [--set KEY=VALUE] {" + ",".join(EXPERIMENTS) + "}\n")
_HELP = """
options, each as --flag value or --flag=value, before or after the command:
  --config CONFIG      config file of key = value lines
  --out OUT            output path (stdout when omitted)
  --format {csv,json}  output format, csv by default
  --seed SEED          integer seed recorded in output
  --set KEY=VALUE      override one config key (repeatable)
"""
# the values each argument accepts; () accepts any
_CHOICES = {"command": tuple(EXPERIMENTS), "--config": (), "--out": (),
            "--format": ("csv", "json"), "--seed": (), "--set": ()}


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}fermiwire: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """Read ``[options] command [options]``; exit 0 after help, 2 on a usage error."""
    args = SimpleNamespace(command=None, config=None, out=None, format="csv",
                           seed=None, overrides=[])
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            sys.stdout.write(_USAGE + _HELP)
            raise SystemExit(0)
        flag, eq, value = word.partition("=") if word.startswith("-") else ("command", "=", word)
        if flag not in _CHOICES or (flag == "command" and args.command is not None):
            _usage_error(f"unrecognized arguments: {word}")
        # without "=" the value is the next word, which must not be an option
        if not eq and (value := next(words, "--")).startswith("--"):
            _usage_error(f"argument {flag}: expected one argument")
        if _CHOICES[flag] and value not in _CHOICES[flag]:
            _usage_error(f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, _CHOICES[flag]))})")
        if flag == "--seed":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: {value!r}")
        if flag == "--set":
            args.overrides.append(value)
        else:
            setattr(args, flag.lstrip("-"), value)
    if args.command is None:
        _usage_error("the following arguments are required: command")
    return args


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
        key, eq, raw = item.partition("=")
        text = f"{key.strip()} = {raw.strip()}"
        # a line break would add a key and a leading '#' would comment it out
        parsed = parse_config_text(text) if eq and len(text.splitlines()) == 1 else {}
        if len(parsed) != 1:
            raise ConfigError(f"--set expects one KEY=VALUE, got {item!r}")
        overrides.update(parsed)
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
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
