"""Protocol planning and closed-form error accounting.

A plan fixes the sender/receiver regions (ceil(nu*N^(1/3)) sites each, the
receiver starting at site N/2), the encoding packet, the inter-signal wait
t and the decode time T.  The decode time is the center-to-center angular
distance divided by the packet's angular speed |v(k0)|, so the packet
centroid actually sits on the receiver's region when decoding happens.

Error channels:

* encoding: 3 * sum_{j=1}^{M-1} (M-j) |<g(0)|g(j t)>|, the closed-form
  bound on the residual left behind by earlier signals, evaluated from the
  packet's mode weights (one FFT per packet, O(N) per wait);
* propagation: shape-retention deficit 1 - |<ideal|g(T)>| against the
  analytically translated and broadened envelope;
* decoding: amplitude deficit 1 - sqrt(weight of g(T) in R_B).

The fidelity lower bound is 1 minus their sum, clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .lattice import (
    Lattice,
    Spectrum,
    dispersion_third_derivative,
    group_velocity,
    propagate,
    require_normalized,
    ring_spectrum,
)
from .wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    broadening_prediction,
    carrier_mode,
    gaussian_packet,
    overlap,
    region_weight,
    sigma_for_budget,
    sigma_sites_for_budget,
)


@dataclass(frozen=True)
class ProtocolPlan:
    """Full parameter set of one M-signal transmission run."""

    n: int
    m_signals: int
    wait: float
    decode_time: float
    region_a: Region
    region_b: Region
    packet: PacketParams
    budget: PacketBudget
    epsilon: float

    def __post_init__(self):
        if self.m_signals < 1:
            raise ValueError("need at least one signal")
        if self.wait <= 0 or self.decode_time <= 0:
            raise ValueError("wait and decode time must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class ErrorBudgetReport:
    """Per-channel error magnitudes and the resulting fidelity lower bound."""

    eps_e: float
    eps_p: float
    eps_d: float
    fidelity_bound: float
    clamped: bool
    eps_i: float | None = None


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least-squares fit of minimal wait times against N."""

    samples: tuple[tuple[int, float], ...]
    exponent: float
    intercept: float
    r_squared: float


def region_size(n: int, nu: float) -> int:
    """Access-region width ceil(nu * N^(1/3)) in sites."""
    return ceil(nu * n ** (1.0 / 3.0) - 1e-9)


def angular_distance(n: int, site_from: int, site_to: int) -> float:
    """Forward angular distance 2*pi*((site_to - site_from) mod N)/N."""
    return 2.0 * np.pi * ((site_to - site_from) % n) / n


def plan_protocol(
    n: int,
    m: int,
    budget: PacketBudget,
    epsilon: float,
    wait: float | None = None,
) -> ProtocolPlan:
    """Plan an M-signal run on an N-site ring.

    Regions are ceil(nu*N^(1/3)) sites; the sender holds sites 1.. and the
    receiver starts at site N/2.  The packet carrier is carrier_mode(N),
    the mode nearest 3N/4, so it drifts toward the receiver through
    increasing position.  The decode time is the center-to-center angular
    offset over |v(k0)| rather than the bare half-ring figure, since the
    finite region widths shift the arrival.  The wait defaults to the
    smallest time pushing the encoding bound below epsilon/3 (an even
    split of the error budget), which needs N divisible by 4; with an
    explicit wait any N >= 4 whose regions fit is planned.
    """
    if wait is None and n % 4:
        raise ValueError(f"N = {n} is not divisible by 4")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    w = region_size(n, budget.nu)
    region_a = Region(1, w)
    start_b = n // 2
    if start_b + w - 1 > n or w >= start_b:
        raise ValueError(
            f"regions of {w} sites overlap on an N = {n} ring; "
            f"reduce nu = {budget.nu}"
        )
    region_b = Region(start_b, start_b + w - 1)
    k0 = carrier_mode(n)
    sigma = sigma_sites_for_budget(n, budget)
    packet = PacketParams(sigma, region_a.center_site, k0, region_a)
    t_decode = angular_distance(n, region_a.center_site, region_b.center_site) / abs(
        group_velocity(k0, n)
    )
    if wait is None:
        wait = min_wait_time(n, m, budget, epsilon / 3.0, ring_spectrum(n))
    return ProtocolPlan(
        n=n,
        m_signals=m,
        wait=wait,
        decode_time=t_decode,
        region_a=region_a,
        region_b=region_b,
        packet=packet,
        budget=budget,
        epsilon=epsilon,
    )


def encoding_error_bound(
    g0: np.ndarray,
    t: float,
    m: int,
    spectrum: Spectrum,
) -> float:
    """Closed-form residual bound 3 * sum_{j<M} (M-j) |<g(0)|g(j t)>|."""
    if m < 1:
        raise ValueError("need at least one signal")
    if t <= 0:
        raise ValueError(f"wait must be positive, got {t}")
    return _bound_from_weights(_mode_weights(g0, spectrum), spectrum.eigenvalues, t, m)


def _mode_weights(g0: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    return np.abs(spectrum.mode_amplitudes(require_normalized(g0))) ** 2


def _bound_from_weights(weights: np.ndarray, omega: np.ndarray, t: float, m: int) -> float:
    """The bound from the mode weights |c_k|^2 of g(0), whose overlaps are
    <g(0)|g(j t)> = sum_k |c_k|^2 z_k^j with z_k = exp(-i omega_k t)."""
    z, zj, total = np.exp(-1j * t * omega), 1.0, 0.0
    for j in range(1, m):
        zj = zj * z
        total += (m - j) * abs(weights @ zj)
    return 3.0 * float(total)


def decode_mode(gT: np.ndarray, region_b: Region) -> tuple[np.ndarray, float]:
    """Receiver mode and decode deficit for an arrived packet.

    The mode is g(T) restricted to the receiver region and renormalized;
    the deficit is eps_d = 1 - |<g(T)|h>| = 1 - sqrt(region weight), zero
    exactly when the packet sits entirely inside the region.
    """
    gT = np.asarray(gT, dtype=complex)
    weight = region_weight(gT, region_b)
    if weight < 1e-30:
        raise ValueError(
            f"packet carries no weight in region "
            f"[{region_b.start}, {region_b.stop}]; decode is degenerate"
        )
    h = np.zeros_like(gT)
    idx = region_b.indices()
    h[idx] = gT[idx]
    h /= np.linalg.norm(h)
    eps_d = 1.0 - abs(overlap(gT, h))
    return h, max(eps_d, 0.0)


def translated_envelope(
    packet: PacketParams,
    t: float,
    lattice: Lattice,
    velocity: float | None = None,
    omega3: float | None = None,
) -> np.ndarray:
    """Analytic prediction for the evolved packet: translate and broaden.

    The packet's clipped envelope is carried along the ring by the angular
    drift v(k0)*t (support shifted by the rounded site offset, center by
    the exact drift) and its width is scaled by the cubic broadening
    prediction; the carrier phase is kept.  At t = 0 this reproduces the
    packet exactly.  velocity and omega3 default to the ring dispersion
    at the packet carrier; tests may override them to match a toy
    dispersion.
    """
    n = lattice.n_sites
    v = group_velocity(packet.wavenumber, n) if velocity is None else velocity
    if omega3 is None:
        omega3 = dispersion_third_derivative(n, packet.wavenumber)
    sigma_angle = 2.0 * np.pi * packet.sigma_sites / n
    ratio = broadening_prediction(sigma_angle / np.sqrt(2.0), t, omega3)
    drift_sites = v * t * n / (2.0 * np.pi)
    support = (packet.region.indices() + int(round(drift_sites))) % n
    j = support + 1
    theta = 2.0 * np.pi * j / n
    mu = 2.0 * np.pi * packet.center / n + v * t
    d = (theta - mu + np.pi) % (2.0 * np.pi) - np.pi
    ideal = np.zeros(n, dtype=complex)
    ideal[support] = np.exp(-(d**2) / (2.0 * (sigma_angle * ratio) ** 2)) * np.exp(
        2j * np.pi * packet.wavenumber * j / n
    )
    return ideal / np.linalg.norm(ideal)


def propagation_error(
    packet: PacketParams,
    t: float,
    lattice: Lattice,
    spectrum: Spectrum,
    velocity: float | None = None,
    omega3: float | None = None,
) -> float:
    """Shape-retention deficit of the evolved packet after time t.

    Returns 1 - |<ideal|g(t)>| against the translated-and-broadened
    envelope of the same packet: zero for dispersionless transport, and
    growing with the chirp, asymmetry and shed ripple of the real
    evolution.  velocity/omega3 overrides follow translated_envelope.
    """
    g0 = gaussian_packet(packet, lattice)
    gt = propagate(g0, t, spectrum)
    ideal = translated_envelope(packet, t, lattice, velocity, omega3)
    return max(0.0, 1.0 - abs(overlap(ideal, gt)))


def error_budget(plan: ProtocolPlan) -> ErrorBudgetReport:
    """Evaluate all three error channels of a plan and the fidelity bound."""
    lattice = Lattice(plan.n)
    spectrum = ring_spectrum(plan.n)
    g0 = gaussian_packet(plan.packet, lattice)
    eps_e = (
        encoding_error_bound(g0, plan.wait, plan.m_signals, spectrum)
        if plan.m_signals > 1
        else 0.0
    )
    eps_p = propagation_error(plan.packet, plan.decode_time, lattice, spectrum)
    gT = propagate(g0, plan.decode_time, spectrum)
    _, eps_d = decode_mode(gT, plan.region_b)
    return _with_bound(eps_e, eps_p, eps_d)


def _with_bound(
    eps_e: float, eps_p: float, eps_d: float, eps_i: float | None = None
) -> ErrorBudgetReport:
    raw = 1.0 - eps_e - eps_p - eps_d
    return ErrorBudgetReport(
        eps_e=eps_e,
        eps_p=eps_p,
        eps_d=eps_d,
        fidelity_bound=max(0.0, raw),
        clamped=raw < 0.0,
        eps_i=eps_i,
    )


def accumulate_error(report: ErrorBudgetReport, lam: float) -> ErrorBudgetReport:
    """Scale the encoding error linearly for M = lambda * N^(2/3) signals."""
    if lam < 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    return _with_bound(report.eps_e * lam, report.eps_p, report.eps_d, report.eps_i)


def min_wait_time(
    n: int,
    m: int,
    budget: PacketBudget,
    epsilon_e_target: float,
    spectrum: Spectrum,
    packet: PacketParams | None = None,
) -> float:
    """Smallest inter-signal wait meeting an encoding-error target.

    Scans a geometric grid of waits up to the ring-recurrence guard N/4,
    takes the first grid point whose bound is at or below the target, and
    refines against the nearest bracketing point above to 1% relative.
    Monotonicity of the bound is not assumed.
    """
    if not 0.0 < epsilon_e_target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {epsilon_e_target}")
    if m < 1:
        raise ValueError("need at least one signal")
    if packet is None:
        packet = sigma_for_budget(n, budget)
    weights = _mode_weights(gaussian_packet(packet, Lattice(n)), spectrum)
    omega = spectrum.eigenvalues
    cap = n / 4.0
    grid = np.geomspace(max(0.05, 0.02 * n ** (1.0 / 3.0)), cap, 64)
    best = np.inf
    for i, t in enumerate(grid):
        value = _bound_from_weights(weights, omega, float(t), m)
        best = min(best, value)
        if value <= epsilon_e_target:
            if i == 0:
                return float(t)
            lo, hi = float(grid[i - 1]), float(t)
            while (hi - lo) / hi > 0.01:
                mid = float(np.sqrt(lo * hi))
                if _bound_from_weights(weights, omega, mid, m) <= epsilon_e_target:
                    hi = mid
                else:
                    lo = mid
            return hi
    raise RuntimeError(
        f"no wait below the recurrence guard N/4 = {cap} meets the "
        f"encoding target {epsilon_e_target} (best bound {best:.3e})"
    )


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept: (slope, intercept, R^2).

    R^2 is 1 when y has zero variance and is clamped to [0, 1].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst < 1e-300:
        r2 = 1.0
    else:
        r2 = 1.0 - float(np.sum(resid**2)) / sst
    return float(slope), float(intercept), min(1.0, max(0.0, r2))


def fit_rate_scaling(samples: list[tuple[int, float]]) -> ScalingFit:
    """Least-squares fit of log(t_star) against log(N)."""
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    ns = np.array([s[0] for s in samples], dtype=float)
    ts = np.array([s[1] for s in samples], dtype=float)
    if len(set(int(v) for v in ns)) != len(ns):
        raise ValueError("sample N values must be distinct")
    if np.any(ns <= 0) or np.any(ts <= 0) or not np.all(np.isfinite(ts)):
        raise ValueError("samples must be positive and finite")
    slope, intercept, r2 = line_fit(np.log(ns), np.log(ts))
    return ScalingFit(
        samples=tuple((int(a), float(b)) for a, b in samples),
        exponent=slope,
        intercept=intercept,
        r_squared=r2,
    )
