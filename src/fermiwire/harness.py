"""Batch harness: flat-file configs, experiment dispatch, tabular output.

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
from pathlib import Path

import numpy as np

from . import __version__
from .lattice import (
    Lattice,
    dispersion,
    group_velocity,
    propagate,
    ring_spectrum,
    transit_time,
)
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
    region_size,
)
from . import fock

EXPERIMENTS = (
    "Dispersion",
    "Packet",
    "Transit",
    "Broadening",
    "OverlapDecay",
    "ErrorBudget",
    "MinWaitSweep",
    "RateFit",
    "OracleProtocol",
    "OracleBounds",
    "TJCheck",
)

_INT_KEYS = {"N", "M", "seed", "n_min", "n_max"}
_FLOAT_KEYS = {"c", "kappa", "nu", "epsilon", "t", "s", "J"}
_STR_KEYS = {"experiment", "output"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_DEFAULTS = {"c": 9.0, "kappa": 1.0, "nu": 2.0, "epsilon": 0.01}

_REQUIRED = {
    "Dispersion": {"N"},
    "Packet": {"N"},
    "Transit": {"N"},
    "Broadening": {"N"},
    "OverlapDecay": {"n_min", "n_max"},
    "ErrorBudget": {"N", "M"},
    "MinWaitSweep": {"n_min", "n_max", "M"},
    "RateFit": {"n_min", "n_max", "M"},
    "OracleProtocol": {"N", "M"},
    "OracleBounds": {"N", "M"},
    "TJCheck": {"N", "J"},
}

# experiments whose packets ride the maximal-velocity carrier k0 = 3N/4
_K0_DEPENDENT = {
    "Packet",
    "Transit",
    "Broadening",
    "OverlapDecay",
    "ErrorBudget",
    "MinWaitSweep",
    "RateFit",
}


class ConfigError(ValueError):
    pass


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
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}") from None
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
    """Validate a raw key map into a RunConfig, filling echoed defaults."""
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    experiment = values.pop("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    seed = int(values.pop("seed", 0))
    output = values.pop("output", None)
    missing = _REQUIRED[experiment] - set(values)
    if missing:
        raise ConfigError(
            f"experiment {experiment} is missing required keys: {sorted(missing)}"
        )
    applied = {}
    for key, default in _DEFAULTS.items():
        if key not in values:
            values[key] = default
            applied[key] = default
    if experiment in _K0_DEPENDENT:
        for key in ("N", "n_min", "n_max"):
            if key in values and values[key] % 4:
                raise ConfigError(
                    f"experiment {experiment} needs {key} divisible by 4, "
                    f"got {values[key]}"
                )
    for key in ("N", "n_min", "n_max"):
        if key in values and values[key] < 4:
            raise ConfigError(f"{key} must be at least 4, got {values[key]}")
    return RunConfig(experiment, values, seed, output, applied)


def load_config(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    return build_config(parse_config_text(text))


def _budget(params: dict) -> PacketBudget:
    return PacketBudget(c=params["c"], kappa=params["kappa"], nu=params["nu"])


def _sweep_sizes(params: dict) -> list[int]:
    n_min, n_max = params["n_min"], params["n_max"]
    if n_min > n_max:
        raise ConfigError(f"n_min = {n_min} exceeds n_max = {n_max}")
    sizes = []
    n = n_min
    while n <= n_max:
        sizes.append(n)
        n *= 2
    return sizes


def _run_dispersion(params):
    n = params["N"]
    rows = [[k, dispersion(k, n), group_velocity(k, n)] for k in range(1, n + 1)]
    return ["k", "omega", "group_velocity"], rows, {}


def _run_packet(params):
    n = params["N"]
    budget = _budget(params)
    pk = sigma_for_budget(n, budget)
    lattice = Lattice(n)
    state = gaussian_packet(pk, lattice)
    spectrum = ring_spectrum(n)
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
        "spectral_leakage": spectral_leakage(
            state, spectrum, pk.wavenumber, budget.cutoff(n)
        ),
    }
    return ["j", "x", "re", "im", "density"], rows, meta


def _run_transit(params):
    n = params["N"]
    budget = _budget(params)
    pk = sigma_for_budget(n, budget)
    lattice = Lattice(n)
    spectrum = ring_spectrum(n)
    g0 = gaussian_packet(pk, lattice)
    t_nominal = transit_time(n)
    k0 = pk.wavenumber
    start_b = n // 2
    bob_center = Region(start_b, start_b + region_size(n, budget.nu) - 1).center_site
    arrival = angular_distance(n, pk.center, bob_center) / abs(group_velocity(k0, n))
    times = np.linspace(0.0, arrival, 9)
    rows = []
    start = circular_centroid(g0)
    for t in times:
        gt = propagate(g0, float(t), spectrum)
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
    g_quarter = propagate(g0, quarter, spectrum)
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
    lattice = Lattice(n)
    spectrum = ring_spectrum(n)
    t_ref = transit_time(n)
    rows = []
    for t in np.linspace(t_ref / 4.0, t_ref, 4):
        rep = width_report(pk, float(t), lattice, spectrum, budget)
        rel = abs(rep.measured_ratio - rep.predicted_ratio) / rep.predicted_ratio
        rows.append([float(t), rep.measured_ratio, rep.predicted_ratio, rel])
    return ["t", "measured_ratio", "predicted_ratio", "rel_difference"], rows, {}


def _run_overlapdecay(params):
    budget = _budget(params)
    rows = []
    xs, ys = [], []
    for n in _sweep_sizes(params):
        lattice = Lattice(n)
        spectrum = ring_spectrum(n)
        g0 = gaussian_packet(sigma_for_budget(n, budget), lattice)
        for x1 in np.linspace(0.6, 2.4, 10):
            t = 0.5 * float(x1) * n ** (1.0 / 3.0)
            mag = abs(overlap(g0, propagate(g0, t, spectrum)))
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
    rows = [
        [
            plan.n,
            plan.m_signals,
            plan.wait,
            plan.decode_time,
            rep.eps_e,
            rep.eps_p,
            rep.eps_d,
            rep.fidelity_bound,
            rep.clamped,
        ]
    ]
    cols = [
        "N",
        "M",
        "wait",
        "decode_time",
        "eps_e",
        "eps_p",
        "eps_d",
        "fidelity_bound",
        "clamped",
    ]
    return cols, rows, {}


def _min_wait_rows(params):
    budget = _budget(params)
    m = params["M"]
    target = params["epsilon"]
    rows = []
    for n in _sweep_sizes(params):
        spectrum = ring_spectrum(n)
        try:
            t_star = min_wait_time(n, m, budget, target, spectrum)
            g0 = gaussian_packet(sigma_for_budget(n, budget), Lattice(n))
            rows.append([n, t_star, encoding_error_bound(g0, t_star, m, spectrum), ""])
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


def _oracle_plan(params):
    budget = _budget(params)
    n, m = params["N"], params["M"]
    nu = min(budget.nu, 2.0 if n >= 12 else 1.0)
    plan = plan_protocol(n, m, replace(budget, nu=nu), params["epsilon"], wait=1.0)
    # sequential operation: at exact-diagonalization scale the wire holds
    # one signal at a time, so later signals do not sit under a decode
    return replace(plan, wait=params.get("t", plan.decode_time + 1.0))


def _run_oracleprotocol(params):
    plan = _oracle_plan(params)
    basis = fock.fock_basis(plan.n, plan.m_signals)
    outputs, fids = fock.two_design_fidelities(plan, basis)
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
        "eps_e": rep.eps_e,
        "eps_p": rep.eps_p,
        "eps_d": rep.eps_d,
        "fidelity_bound": bound,
        "bound_satisfied": all(fids[a] >= bound - 1e-6 for a in fids),
        "wait": plan.wait,
        "decode_time": plan.decode_time,
    }
    return ["register", "input", "fidelity"], rows, meta


def _run_oraclebounds(params):
    n, m = params["N"], params["M"]
    lattice = Lattice(n)
    spectrum = ring_spectrum(n)
    basis = fock.fock_basis(n, m)
    k0 = carrier_mode(n)
    region = Region(1, min(5, n // 2))
    center = region.center_site
    coeff_pairs = [
        (complex(np.sqrt(1 - 0.4 * a / m), 0.0), complex(0.0, np.sqrt(0.4 * a / m)))
        for a in range(1, m + 1)
    ]
    rows = []
    for sigma in (0.6, 1.0, 1.4, 1.8):
        for t in (0.3, 0.8, 1.3, 1.8, 2.3):
            pk = PacketParams(sigma, center, k0, region)
            g0 = gaussian_packet(pk, lattice)
            actual = fock.run_encoding_sequence(
                coeff_pairs, [g0] * m, [t] * (m - 1), basis, lattice
            )
            modes_now = [
                propagate(g0, (m - alpha) * t, spectrum) for alpha in range(1, m + 1)
            ]
            resid = fock.encoding_residual_norm(actual, coeff_pairs, modes_now, basis)
            bound = encoding_error_bound(g0, t, m, spectrum)
            rows.append([t, sigma, resid, bound, resid <= bound + 1e-8])
    meta = {"all_satisfied": all(r[4] for r in rows)}
    return ["t", "sigma_sites", "residual_norm", "bound", "satisfied"], rows, meta


def separating_pair(n: int, sigma: float = 1.0, gap: int = 3):
    """Two packet parameter sets that drift apart under free evolution.

    The first rides the negative-velocity carrier near N/4, the second the
    positive one near 3N/4, so their initial contact only decays; this is
    the regime where the first-order interaction bound is meaningful.
    """
    k_minus, k_plus = carrier_mode(n, -1), carrier_mode(n)
    ca = max(3, n // 3)
    cb = ca + gap
    if cb + 2 > n:
        raise ValueError(f"lattice of {n} sites too small for the packet pair")
    pa = PacketParams(sigma, ca, k_minus, Region(ca - 2, ca + 2))
    pb = PacketParams(sigma, cb, k_plus, Region(cb - 2, cb + 2))
    return pa, pb


def _run_tjcheck(params):
    n = params["N"]
    j_coupling = params["J"]
    lattice = Lattice(n)
    basis = fock.fock_basis(n, 2)
    pa, pb = separating_pair(n)
    state = fock.two_packet_state(basis, lattice, pa, pb)
    eps_i = fock.tj_interaction_error(state, lattice)
    grid = [params["s"]] if "s" in params else [0.1, 0.5, 1.0]
    rows = []
    for s in grid:
        diff = fock.evolution_difference(state, s, 1.0, j_coupling, lattice)
        bound = abs(s) * j_coupling * eps_i
        rows.append([s, diff, bound, diff <= bound + 1e-6])
    meta = {
        "eps_i": eps_i,
        "centers": [pa.center, pb.center],
        "violations": [r[0] for r in rows if not r[3]],
    }
    return ["s", "norm_difference", "s_times_eps_i", "satisfied"], rows, meta


_RUNNERS = {
    "Dispersion": _run_dispersion,
    "Packet": _run_packet,
    "Transit": _run_transit,
    "Broadening": _run_broadening,
    "OverlapDecay": _run_overlapdecay,
    "ErrorBudget": _run_errorbudget,
    "MinWaitSweep": _run_minwaitsweep,
    "RateFit": _run_ratefit,
    "OracleProtocol": _run_oracleprotocol,
    "OracleBounds": _run_oraclebounds,
    "TJCheck": _run_tjcheck,
}


def run(config: RunConfig) -> ResultTable:
    """Execute the configured experiment; identical config and seed give
    identical data rows."""
    started = time.perf_counter()
    try:
        columns, rows, extra = _RUNNERS[config.experiment](config.params)
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
