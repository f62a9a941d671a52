"""Batch harness: flat-file configs, experiment dispatch, tabular output.

``EXPERIMENTS`` is the one table of experiments: config validation, the
dispatch in ``run`` and the CLI subcommands all read it.

Config files hold one ``key = value`` pair per line with ``#`` comments.
Every run echoes its full effective configuration (defaults applied) in
the output metadata, and identical (config, seed) pairs produce byte
identical data rows; wall time lives in a separate metadata field so it
never perturbs the data bytes.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, replace
from math import ceil
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .lattice import dispersion, group_velocity, propagate, transit_time
from .wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    carrier_mode,
    centroid_shift,
    circular_centroid,
    gaussian_packet,
    measured_width,
    overlap,
    sigma_for_budget,
    spectral_leakage,
    width_report,
)
from .protocol import (
    angular_distance,
    encoding_error_bound,
    error_budget,
    fit_rate_scaling,
    line_fit,
    min_wait_time,
    plan_protocol,
    receiver_region,
)
from . import fock

_INT_KEYS = {"N", "M", "seed", "n_min", "n_max"}
_FLOAT_KEYS = {"c", "kappa", "epsilon", "t", "s", "J"}
_STR_KEYS = {"experiment", "output"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_DEFAULTS = {"c": 9.0, "kappa": 1.0, "epsilon": 0.01}
# amplitudes per oracle-bounds column block: M <= 5 runs all 20 points as one
# block and M = 6 blocks of 6; from M = 7 on a block saves no time and holds
# more memory, so each point runs alone as a vector
_MAX_BLOCK = 2**14

class ConfigError(ValueError):
    pass


class Experiment(NamedTuple):
    name: str
    required: set
    optional: set  # read when given; experiment, seed and output are always accepted
    runner: Callable
    carrier: bool  # its packets ride the carrier k0 = 3N/4, so N % 4 == 0


@dataclass
class RunConfig:
    experiment: str
    params: dict
    seed: int = 0
    output: str | None = None
    applied_defaults: dict = field(default_factory=dict)

    def effective(self) -> dict:
        out = {"experiment": self.experiment, "seed": self.seed}
        out.update(self.params)
        return out


@dataclass
class ResultTable:
    columns: list
    rows: list
    meta: dict


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects an integer, got {raw!r}") from None
    if key in _FLOAT_KEYS:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}") from None
        if not np.isfinite(value):
            raise ConfigError(f"key {key!r} expects a finite number, got {raw!r}")
        return value
    return raw


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; unknown or duplicate keys fail loudly."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(values: dict) -> RunConfig:
    """Validate a raw key map, left unchanged, into a RunConfig with echoed defaults."""
    values = dict(values)
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    experiment = values.pop("experiment")
    spec = _experiment(experiment)
    seed = int(values.pop("seed", 0))
    output = values.pop("output", None)
    missing = spec.required - set(values)
    if missing:
        raise ConfigError(
            f"experiment {experiment} is missing required keys: {sorted(missing)}"
        )
    unread = set(values) - spec.required - spec.optional
    if unread:
        raise ConfigError(f"experiment {experiment} does not read keys: {sorted(unread)}")
    applied = {
        key: v for key, v in _DEFAULTS.items() if key in spec.optional and key not in values
    }
    values.update(applied)
    if spec.carrier:
        for key in ("N", "n_min", "n_max"):
            if key in values and values[key] % 4:
                raise ConfigError(
                    f"experiment {experiment} needs {key} divisible by 4, "
                    f"got {values[key]}"
                )
    for key, least in (("N", 4), ("n_min", 4), ("n_max", 4), ("M", 1)):
        if key in values and values[key] < least:
            raise ConfigError(f"{key} must be at least {least}, got {values[key]}")
    if "epsilon" in values and not 0.0 < values["epsilon"] < 1.0:
        raise ConfigError(f"key 'epsilon' must lie in (0, 1), got {values['epsilon']}")
    for key in ("c", "kappa", "t"):
        if key in values and values[key] <= 0.0:
            raise ConfigError(f"key {key!r} must be positive, got {values[key]}")
    return RunConfig(experiment, values, seed, output, applied)


def _experiment(name: str) -> Experiment:
    for spec in EXPERIMENTS.values():
        if spec.name == name:
            return spec
    names = ", ".join(spec.name for spec in EXPERIMENTS.values())
    raise ConfigError(f"unknown experiment {name!r}; choose from {names}")


def _budget(params: dict) -> PacketBudget:
    return PacketBudget(c=params["c"], kappa=params["kappa"])


def _sweep_sizes(params: dict) -> list[int]:
    n_min, n_max = params["n_min"], params["n_max"]
    if n_min > n_max:
        raise ConfigError(f"n_min = {n_min} exceeds n_max = {n_max}")
    # n_min * 2^i for every i with 2^i <= n_max // n_min
    return [n_min << i for i in range((n_max // n_min).bit_length())]


def _run_dispersion(params):
    n = params["N"]
    rows = [[k, dispersion(k, n), group_velocity(k, n)] for k in range(1, n + 1)]
    return ["k", "omega", "group_velocity"], rows, {}


def _run_packet(params):
    n = params["N"]
    budget = _budget(params)
    pk = sigma_for_budget(n, budget)
    state = gaussian_packet(pk, n)
    rows = [
        [j, j / n, state[j - 1].real, state[j - 1].imag, abs(state[j - 1]) ** 2]
        for j in range(1, n + 1)
    ]
    meta = {
        "sigma_sites": pk.sigma_sites,
        "region_start": pk.region.start,
        "region_stop": pk.region.stop,
        "center": pk.center,
        "wavenumber": pk.wavenumber,
        "width": measured_width(state),
        "spectral_leakage": spectral_leakage(state, pk.wavenumber, budget.cutoff(n)),
    }
    return ["j", "x", "re", "im", "density"], rows, meta


def _run_transit(params):
    n = params["N"]
    budget = _budget(params)
    pk = sigma_for_budget(n, budget)
    g0 = gaussian_packet(pk, n)
    t_nominal = transit_time(n)
    k0 = pk.wavenumber
    bob_center = receiver_region(n, len(pk.region)).center_site
    arrival = angular_distance(n, pk.center, bob_center) / abs(group_velocity(k0, n))
    times = np.linspace(0.0, arrival, 9)
    rows = []
    start = circular_centroid(g0)
    for t in times:
        gt = propagate(g0, float(t))
        shift = centroid_shift(g0, gt)
        rows.append(
            [
                float(t),
                circular_centroid(gt),
                2.0 * np.pi * shift,
                measured_width(gt),
            ]
        )
    quarter = t_nominal / 4.0
    g_quarter = propagate(g0, quarter)
    speed = 2.0 * np.pi * centroid_shift(g0, g_quarter) / quarter
    meta = {
        "transit_nominal": t_nominal,
        "arrival_time": arrival,
        "bob_center_site": bob_center,
        "start_centroid": start,
        "angular_speed_measured": speed,
        "angular_speed_formula": abs(group_velocity(k0, n)),
    }
    return ["t", "centroid_x", "shift_angle", "width"], rows, meta


def _run_broadening(params):
    n = params["N"]
    budget = _budget(params)
    pk = sigma_for_budget(n, budget)
    t_ref = transit_time(n)
    rows = []
    for t in np.linspace(t_ref / 4.0, t_ref, 4):
        rep = width_report(pk, float(t), n, budget)
        rel = abs(rep.measured_ratio - rep.predicted_ratio) / rep.predicted_ratio
        rows.append([float(t), rep.measured_ratio, rep.predicted_ratio, rel])
    return ["t", "measured_ratio", "predicted_ratio", "rel_difference"], rows, {}


def _run_overlapdecay(params):
    budget = _budget(params)
    rows = []
    xs, ys = [], []
    for n in _sweep_sizes(params):
        g0 = gaussian_packet(sigma_for_budget(n, budget), n)
        for x1 in np.linspace(0.6, 2.4, 10):
            t = 0.5 * float(x1) * n ** (1.0 / 3.0)
            mag = abs(overlap(g0, propagate(g0, t)))
            xval = t**2 * n ** (-2.0 / 3.0)
            rows.append([n, t, xval, mag, -np.log(mag)])
            xs.append(xval)
            ys.append(-np.log(mag))
    slope, intercept, r2 = line_fit(xs, ys)
    meta = {"slope": slope, "intercept": intercept, "r_squared": r2}
    return ["N", "t", "t2_scaled", "overlap_abs", "minus_log_overlap"], rows, meta


def _run_errorbudget(params):
    budget = _budget(params)
    plan = plan_protocol(params["N"], params["M"], budget, params["epsilon"])
    rep = error_budget(plan)
    cols = ["N", "M", "wait", "decode_time", "eps_e", "eps_d", "fidelity_bound",
            "clamped"]
    row = [plan.n, plan.m_signals, plan.wait, plan.decode_time,
           rep.eps_e, rep.eps_d, rep.fidelity_bound, rep.clamped]
    return cols, [row], {}


def _min_wait_rows(params):
    budget = _budget(params)
    m = params["M"]
    target = params["epsilon"]
    rows = []
    for n in _sweep_sizes(params):
        try:
            rows.append([n, *min_wait_time(n, m, budget, target), ""])
        except (RuntimeError, ValueError) as exc:
            rows.append([n, float("nan"), float("nan"), str(exc)])
    return rows


def _run_minwaitsweep(params):
    return ["N", "t_star", "bound_at_t_star", "error"], _min_wait_rows(params), {}


def _run_ratefit(params):
    rows = _min_wait_rows(params)
    good = [(int(r[0]), float(r[1])) for r in rows if r[3] == ""]
    fit = fit_rate_scaling(good)
    out = [[fit.exponent, fit.intercept, fit.r_squared, len(good)]]
    meta = {"failed_points": [r[0] for r in rows if r[3] != ""]}
    return ["exponent", "intercept", "r_squared", "n_samples"], out, meta


def _oracle_sizes(params):
    n, m = params["N"], params["M"]
    if m > n:
        raise ConfigError(f"M = {m} exceeds N = {n}; the oracle needs a site per signal")
    return n, m


def _oracle_plan(params):
    n, m = _oracle_sizes(params)
    # regions of ceil(2 N^(1/3)) sites, ceil(N^(1/3)) below N = 12: the
    # budget packet's support does not fit on an exact-diagonalization ring
    width = ceil((2.0 if n >= 12 else 1.0) * n ** (1.0 / 3.0) - 1e-9)
    plan = plan_protocol(n, m, _budget(params), wait=1.0, width=width)
    # sequential operation: at exact-diagonalization scale the wire holds
    # one signal at a time, so later signals do not sit under a decode
    return replace(plan, wait=params.get("t", plan.decode_time + 1.0))


def _run_oracleprotocol(params):
    plan = _oracle_plan(params)
    engine = fock.ProtocolEngine(plan)
    outputs, fids, raw_fids = fock.two_design_fidelities(engine)
    rep = error_budget(plan)
    rows = []
    for alpha in sorted(outputs):
        for label in fock.SIX_DESIGN_STATES:
            psi = fock.SIX_DESIGN_STATES[label]
            f = float(np.real(psi.conj() @ outputs[alpha][label] @ psi))
            rows.append([alpha, label, f])
    bound = rep.fidelity_bound
    meta = {
        "average_fidelity": {str(a): fids[a] for a in fids},
        "average_fidelity_raw": {str(a): raw_fids[a] for a in raw_fids},
        "exchange_cz_pairs": [list(p) for p in fock.exchange_pairs(plan)],
        "eps_e": rep.eps_e,
        "eps_d": rep.eps_d,
        "fidelity_bound": bound,
        "bound_satisfied": all(fids[a] >= bound - 1e-6 for a in fids),
        "bound_vacuous": rep.clamped,
        "wait": plan.wait,
        "decode_time": plan.decode_time,
        "orbitals": engine.basis.n_sites,
        "fock_dim": len(engine.basis),
    }
    return ["register", "input", "fidelity"], rows, meta


def _run_oraclebounds(params):
    n, m = _oracle_sizes(params)
    # the encodings run on the M orbitals of the current-time modes
    basis = fock.oracle_basis(m, m, 0)
    k0 = carrier_mode(n)
    region = Region(1, min(5, n // 2))
    center = region.center_site
    coeff_pairs = [
        (complex(np.sqrt(1 - 0.4 * a / m), 0.0), complex(0.0, np.sqrt(0.4 * a / m)))
        for a in range(1, m + 1)
    ]
    waits = np.array([0.3, 0.8, 1.3, 1.8, 2.3])
    # signal alpha has moved for (M - alpha) waits when the last is encoded
    times = (m - np.arange(1, m + 1))[:, None] * waits
    points, coeffs = [], []
    for sigma in (0.6, 1.0, 1.4, 1.8):
        g0 = gaussian_packet(PacketParams(sigma, center, k0, region), n)
        # the (M, N) current-time modes of each wait, on their M orbitals
        modes = propagate(g0, times.ravel()).reshape(m, len(waits), n).swapaxes(0, 1)
        coeffs.append(fock.orbital_frame(modes))
        points += [(t, sigma, b) for t, b in zip(waits, encoding_error_bound(g0, waits, m))]
    # every point is one amplitude column: (M, M, K) orbital coefficients,
    # run in blocks of at most _MAX_BLOCK amplitudes, one column as a vector
    coeffs = np.moveaxis(np.concatenate(coeffs), 0, -1)
    width, residuals = max(1, _MAX_BLOCK // len(basis)), []
    for k in range(0, len(points), width):
        block = coeffs[..., k:k + width] if width > 1 else coeffs[..., k]
        state = fock.run_encoding_sequence(coeff_pairs, block, basis)
        residuals += np.atleast_1d(fock.encoding_residual_norm(state, coeff_pairs, block)).tolist()
    rows = [[t, sigma, r, b, r <= b + 1e-8] for (t, sigma, b), r in zip(points, residuals)]
    meta = {"all_satisfied": all(r[4] for r in rows)}
    return ["t", "sigma_sites", "residual_norm", "bound", "satisfied"], rows, meta


def separating_pair(n: int):
    """Two packet parameter sets that drift apart under free evolution.

    Both are one site wide on five sites, centered three sites apart.  The
    first rides the negative-velocity carrier near N/4, the second the
    positive one near 3N/4, so their initial contact only decays; this is
    the regime where the first-order interaction bound is meaningful.
    """
    ca = max(3, n // 3)
    cb = ca + 3
    if cb + 2 > n:
        raise ValueError(f"lattice of {n} sites too small for the packet pair")
    pa = PacketParams(1.0, ca, carrier_mode(n, -1), Region(ca - 2, ca + 2))
    pb = PacketParams(1.0, cb, carrier_mode(n), Region(cb - 2, cb + 2))
    return pa, pb


def _run_tjcheck(params):
    n = params["N"]
    j_coupling = params["J"]
    basis = fock.fock_basis(n, 2)
    pa, pb = separating_pair(n)
    state = fock.two_packet_state(basis, pa, pb)
    eps_i = fock.tj_interaction_error(state)
    grid = [params["s"]] if "s" in params else [0.1, 0.5, 1.0]
    rows = []
    for s, diff in zip(grid, fock.evolution_difference(state, grid, j_coupling)):
        bound = abs(s * j_coupling) * eps_i
        rows.append([s, diff, bound, diff <= bound + 1e-6])
    meta = {
        "eps_i": eps_i,
        "centers": [pa.center, pb.center],
        "violations": [r[0] for r in rows if not r[3]],
    }
    return ["s", "norm_difference", "s_times_eps_i", "satisfied"], rows, meta


_BUDGET_KEYS = {"c", "kappa"}
_PLAN_KEYS = _BUDGET_KEYS | {"epsilon"}
# subcommand -> experiment, in the order of the CLI help and the error texts
EXPERIMENTS = {
    "dispersion": Experiment("Dispersion", {"N"}, set(), _run_dispersion, False),
    "packet": Experiment("Packet", {"N"}, _BUDGET_KEYS, _run_packet, True),
    "transit": Experiment("Transit", {"N"}, _BUDGET_KEYS, _run_transit, True),
    "broadening": Experiment("Broadening", {"N"}, _BUDGET_KEYS, _run_broadening, True),
    "overlap-decay": Experiment(
        "OverlapDecay", {"n_min", "n_max"}, _BUDGET_KEYS, _run_overlapdecay, True
    ),
    "error-budget": Experiment("ErrorBudget", {"N", "M"}, _PLAN_KEYS, _run_errorbudget, True),
    "min-wait-sweep": Experiment(
        "MinWaitSweep", {"n_min", "n_max", "M"}, _PLAN_KEYS, _run_minwaitsweep, True
    ),
    "rate-fit": Experiment(
        "RateFit", {"n_min", "n_max", "M"}, _PLAN_KEYS, _run_ratefit, True
    ),
    "oracle-protocol": Experiment(
        "OracleProtocol", {"N", "M"}, _BUDGET_KEYS | {"t"}, _run_oracleprotocol, False
    ),
    "oracle-bounds": Experiment("OracleBounds", {"N", "M"}, set(), _run_oraclebounds, False),
    "tj-check": Experiment("TJCheck", {"N", "J"}, {"s"}, _run_tjcheck, False),
}


def run(config: RunConfig) -> ResultTable:
    """Execute the configured experiment; identical config and seed give
    identical data rows."""
    runner = _experiment(config.experiment).runner
    started = time.perf_counter()
    try:
        columns, rows, extra = runner(config.params)
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeError(f"experiment {config.experiment} failed: {exc}") from exc
    meta = {
        "experiment": config.experiment,
        "version": __version__,
        "config": config.effective(),
        "applied_defaults": config.applied_defaults,
    }
    meta.update(extra)
    meta["wall_time_s"] = time.perf_counter() - started
    return ResultTable(columns=list(columns), rows=rows, meta=meta)


def _format_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def render_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        # strict JSON has no NaN or Infinity
        return float(value) if np.isfinite(value) else None
    return value


def _dumps(value) -> str:
    return json.dumps(_json_safe(value), indent=2, sort_keys=True, allow_nan=False)


def render_json(table: ResultTable) -> str:
    columns = {
        name: [row[i] for row in table.rows] for i, name in enumerate(table.columns)
    }
    return _dumps({"meta": table.meta, "columns": columns})


def emit(table: ResultTable, path, fmt: str = "csv"):
    """Write a table to disk; CSV gets a JSON metadata sidecar at
    ``<path>.meta.json`` so the data bytes stay reproducible."""
    path = Path(path)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; use csv or json")
    try:
        if fmt == "json":
            path.write_text(render_json(table), encoding="utf-8")
        else:
            path.write_text(render_csv(table), encoding="utf-8", newline="")
            sidecar = path.with_name(path.name + ".meta.json")
            sidecar.write_text(_dumps(table.meta), encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
