"""Benchmark workloads: CLI inputs made from a seed, and output checks.

Each workload is one ``fermiwire`` subcommand at a fixed size.  Seed 0
runs exactly the fixed command; other seeds vary only free inputs that
keep the amount of work the same (``epsilon`` for the rate fit, the
sequential-regime wait ``t`` for the protocol oracle).

A check reads the emitted CSV and its ``.meta.json`` sidecar and returns
a list of problems; an empty list means the sample is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Criterion 10's acceptance band for the t* ~ N^(1/3) exponent.
EXPONENT_BAND = (0.26, 0.40)

# min_wait_time refines t* until (hi - lo) / hi <= 1%, so each t* sits at
# most -log(0.99) = 0.01005 above the true crossing in log space.  Two
# implementations that both honour that tolerance differ by at most that
# much per point, and a least-squares slope over six log-spaced sizes
# (spacing log 2) moves by at most sum|x - mean| / sum (x - mean)^2 =
# 9 / (17.5 log 2) = 0.742 times a per-point shift: 0.742 * 0.01005.
EXPONENT_TOLERANCE = 0.0075

# Exponents of rate-fit 256..8192, M=4, per epsilon, as emitted by the
# commit that defined this benchmark.
RATEFIT_EXPONENTS = {
    "0.01": 0.34764597948296821,
    "0.008": 0.3489687308057196,
    "0.009": 0.34830735514434397,
    "0.0095": 0.3463925985036918,
    "0.0105": 0.34573122284231605,
    "0.011": 0.34698460382159274,
    "0.012": 0.346323228160217,
    "0.007": 0.34806558066006615,
}


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN / Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    experiment: str
    fixed: dict
    free_inputs: Callable[[int], dict]
    check: Callable[["Workload", dict, list, dict], list]
    reference: dict = field(default_factory=dict)

    def settings(self, seed: int) -> dict:
        """Config keys of this workload for a seed (fixed keys first)."""
        out = dict(self.fixed)
        if seed != 0:
            out.update(self.free_inputs(seed))
        return out

    def cli_argv(self, seed: int, out_path: str) -> list:
        argv = [self.subcommand]
        for key, value in self.settings(seed).items():
            argv += ["--set", f"{key}={value}"]
        if seed != 0:
            argv += ["--seed", str(seed)]
        return argv + ["--out", out_path]

    def config_text(self, seed: int) -> str:
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{k} = {v}" for k, v in self.settings(seed).items()]
        if seed != 0:
            lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def verify(self, seed: int, csv_text: str, meta_text: str) -> list:
        """Problems found in one sample's output; empty when correct."""
        try:
            meta = strict_json(meta_text)
        except ValueError as exc:
            return [f"sidecar is not strict JSON: {exc}"]
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        settings = self.settings(seed)
        problems = _check_config_echo(self, seed, settings, meta)
        try:
            problems += self.check(self, settings, rows, meta)
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return problems


def _check_config_echo(workload, seed, settings, meta) -> list:
    config = meta.get("config", {})
    problems = []
    if config.get("experiment") != workload.experiment:
        problems.append(f"meta names experiment {config.get('experiment')!r}")
    if config.get("seed") != seed:
        problems.append(f"meta records seed {config.get('seed')!r}, ran {seed}")
    for key, value in settings.items():
        if key not in config or float(config[key]) != float(value):
            problems.append(f"meta echoes {key}={config.get(key)!r}, ran {value}")
    return problems


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _check_ratefit(workload, settings, rows, meta) -> list:
    ref = workload.reference
    problems = []
    if meta["failed_points"] != []:
        problems.append(f"failed points {meta['failed_points']}")
    if len(rows) != 1:
        return problems + [f"expected one fit row, got {len(rows)}"]
    row = rows[0]
    if int(row["n_samples"]) != ref["n_samples"]:
        problems.append(f"n_samples {row['n_samples']} != {ref['n_samples']}")
    exponent = _finite(row["exponent"])
    lo, hi = ref["band"]
    if not lo <= exponent <= hi:
        problems.append(f"exponent {exponent} outside [{lo}, {hi}]")
    epsilon = str(settings.get("epsilon", "0.01"))
    expected = ref["exponents"][epsilon]
    if abs(exponent - expected) > EXPONENT_TOLERANCE:
        problems.append(
            f"exponent {exponent} differs from reference {expected} by more "
            f"than {EXPONENT_TOLERANCE}"
        )
    return problems


def _check_oracle_protocol(workload, settings, rows, meta) -> list:
    ref = workload.reference
    problems = []
    if len(rows) != 6 * ref["registers"]:
        problems.append(f"expected {6 * ref['registers']} rows, got {len(rows)}")
    per_register: dict = {}
    for row in rows:
        f = _finite(row["fidelity"])
        if not -1e-12 <= f <= 1.0 + 1e-12:
            problems.append(f"fidelity {f} of {row['register']}/{row['input']} outside [0, 1]")
        per_register.setdefault(row["register"], []).append(f)
    average = meta["average_fidelity"]
    for reg, values in per_register.items():
        if abs(sum(values) / len(values) - average[reg]) > 1e-12:
            problems.append(f"register {reg} rows do not average to the meta value")
    if meta["bound_satisfied"] is not True:
        problems.append("bound_satisfied is not true")
    # one signal in the wire at a time: register 1 sees only the decode
    # deficit, whose six-state average has this closed form
    alpha = 1.0 - meta["eps_d"]
    closed = 0.5 + alpha / 3.0 + alpha**2 / 6.0
    if abs(average["1"] - closed) > ref["closed_form_tol"]:
        problems.append(f"register 1 fidelity {average['1']} != closed form {closed}")
    return problems


def _check_oracle_bounds(workload, settings, rows, meta) -> list:
    ref = workload.reference
    problems = []
    if meta["all_satisfied"] is not True:
        problems.append("all_satisfied is not true")
    if len(rows) != ref["rows"]:
        problems.append(f"expected {ref['rows']} rows, got {len(rows)}")
    for row in rows:
        resid, bound = _finite(row["residual_norm"]), _finite(row["bound"])
        if not resid <= bound:
            problems.append(f"residual {resid} exceeds bound {bound} at t={row['t']}")
    return problems


def ratefit_epsilon(seed: int) -> dict:
    keys = list(RATEFIT_EXPONENTS)
    return {"epsilon": keys[seed % len(keys)]}


def oracle_wait(lo: float, hi: float) -> Callable[[int], dict]:
    """Seeded wait t in [lo, hi]; lo must exceed the decode time so the
    wire holds one signal at a time and the event count stays fixed."""

    def free(seed: int) -> dict:
        return {"t": f"{lo + (hi - lo) * random.Random(seed).random():.6f}"}

    return free


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ring-ratefit",
            "rate-fit",
            "RateFit",
            {"n_min": 256, "n_max": 8192, "M": 4},
            ratefit_epsilon,
            _check_ratefit,
            {"n_samples": 6, "band": EXPONENT_BAND, "exponents": RATEFIT_EXPONENTS},
        ),
        Workload(
            "oracle-protocol",
            "oracle-protocol",
            "OracleProtocol",
            {"N": 16, "M": 3},
            # decode time at N=16 is 3.5 and the default wait is 4.5
            oracle_wait(4.0, 6.0),
            _check_oracle_protocol,
            {"registers": 3, "closed_form_tol": 1e-9},
        ),
        Workload(
            "oracle-bounds",
            "oracle-bounds",
            "OracleBounds",
            {"N": 14, "M": 3},
            lambda seed: {},
            _check_oracle_bounds,
            {"rows": 20},
        ),
    )
}
