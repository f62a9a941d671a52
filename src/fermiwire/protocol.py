"""Protocol planning and closed-form error accounting.

A plan fixes one packet, the sender/receiver regions, the inter-signal
wait t and the decode time T.  The packet is the budget packet
``sigma_for_budget(N, budget)`` and both regions are its support, the
receiver starting at site N/2; the exact oracle passes narrower regions.
The decode time is the center-to-center angular distance divided by the
packet's angular speed |v(k0)|, so the packet centroid actually sits on
the receiver's region when decoding happens.

Error channels:

* encoding: 3 * sum_{j=1}^{M-1} (M-j) |<g(0)|g(j t)>|, the closed-form
  bound on the residual left behind by earlier signals, evaluated from the
  packet's mode weights (one FFT per packet, O(N) per wait);
* decoding: amplitude deficit 1 - sqrt(weight of g(T) in R_B).

The fidelity lower bound is 1 minus their sum, clamped at zero.  The
receiver decodes h = g(T) restricted to R_B, so whatever shape g(T) has,
the amplitude it receives is exactly 1 - eps_d: dispersion costs only
through the weight it pushes out of R_B, and needs no channel of its own.
That argument covers one signal in the wire; a signal decoded while a
later one is in the ring can fall below the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    group_velocity,
    mode_amplitudes,
    propagate,
    require_normalized,
    ring_energies,
)
from .wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    carrier_mode,
    gaussian_packet,
    overlap,
    region_weight,
    sigma_for_budget,
    sigma_sites_for_budget,
)


@dataclass(frozen=True)
class ProtocolPlan:
    """Full parameter set of one M-signal transmission run; the sender's
    region is ``packet.region``."""

    n: int
    m_signals: int
    wait: float
    decode_time: float
    region_b: Region
    packet: PacketParams

    def __post_init__(self):
        if self.m_signals < 1:
            raise ValueError("need at least one signal")
        if not (0 < self.wait < np.inf and 0 < self.decode_time < np.inf):
            raise ValueError("wait and decode time must be finite and positive")


@dataclass(frozen=True)
class ErrorBudgetReport:
    """Per-channel error magnitudes and the resulting fidelity lower bound."""

    eps_e: float
    eps_d: float
    fidelity_bound: float
    clamped: bool


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least-squares fit of minimal wait times against N."""

    samples: tuple[tuple[int, float], ...]
    exponent: float
    intercept: float
    r_squared: float


def angular_distance(n: int, site_from: int, site_to: int) -> float:
    """Forward angular distance 2*pi*((site_to - site_from) mod N)/N."""
    return 2.0 * np.pi * ((site_to - site_from) % n) / n


def receiver_region(n: int, width: int) -> Region:
    """The receiver's access region: ``width`` sites from site N/2."""
    return Region(n // 2, n // 2 + width - 1)


def plan_protocol(
    n: int,
    m: int,
    budget: PacketBudget,
    epsilon: float,
    wait: float | None = None,
    width: int | None = None,
) -> ProtocolPlan:
    """Plan an M-signal run on an N-site ring.

    With ``width`` omitted the plan's packet is the budget packet
    ``sigma_for_budget(n, budget)`` and both regions are its support,
    2*ceil((sqrt(2c) + 2) sigma) + 1 sites (45 at N = 128, 87 at N = 1024
    for c = 9), so c sets the region width.  An explicit ``width`` gives
    regions of that many sites and clips the packet's envelope to the
    sender's; the exact oracle uses it for rings too small for the budget
    support.  The sender holds sites 1.. and the receiver
    ``receiver_region(n, width)``.  The carrier is carrier_mode(N), the
    mode nearest 3N/4, so the packet drifts toward the receiver through
    increasing position.  The decode time is the center-to-center angular
    offset over |v(k0)| rather than the bare half-ring figure, since the
    finite region widths shift the arrival.  The wait defaults to the t*
    of ``min_wait_time(n, m, budget, epsilon/3)``, searched for the budget
    packet and needing N divisible by 4.  With an explicit wait and width
    any N >= 4 whose regions fit is planned.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if width is None:
        packet = sigma_for_budget(n, budget)
        region_a = packet.region
    else:
        region_a = Region(1, width)
        sigma = sigma_sites_for_budget(n, budget)
        packet = PacketParams(sigma, region_a.center_site, carrier_mode(n), region_a)
    w = len(region_a)
    region_b = receiver_region(n, w)
    if region_b.stop > n or w >= region_b.start:
        hint = f"; lower c = {budget.c} or raise N" if width is None else ""
        raise ValueError(f"regions of {w} sites overlap on an N = {n} ring{hint}")
    t_decode = angular_distance(n, region_a.center_site, region_b.center_site) / abs(
        group_velocity(packet.wavenumber, n)
    )
    if wait is None:
        wait, _ = min_wait_time(n, m, budget, epsilon / 3.0)
    return ProtocolPlan(
        n=n,
        m_signals=m,
        wait=wait,
        decode_time=t_decode,
        region_b=region_b,
        packet=packet,
    )


def encoding_error_bound(g0: np.ndarray, t: float | np.ndarray, m: int) -> float | np.ndarray:
    """Closed-form residual bound 3 * sum_{j<M} (M-j) |<g(0)|g(j t)>| on the
    ring of g0's length.  A 1-D array of waits gives one bound per wait from
    one set of mode weights, each the value of the call with that wait alone."""
    if m < 1:
        raise ValueError("need at least one signal")
    waits = np.asarray(t, dtype=float)
    if not np.all((waits > 0) & (waits < np.inf)):
        raise ValueError(f"wait must be positive and finite, got {t}")
    weights = _mode_weights(g0)
    omega = ring_energies(len(weights))
    values = [_bound_from_weights(weights, omega, float(w), m) for w in waits.ravel()]
    return np.reshape(values, waits.shape) if waits.ndim else values[0]


def _mode_weights(g0: np.ndarray) -> np.ndarray:
    return np.abs(mode_amplitudes(require_normalized(g0))) ** 2


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


def error_budget(plan: ProtocolPlan) -> ErrorBudgetReport:
    """Evaluate both error channels of a plan and the fidelity bound."""
    g0 = gaussian_packet(plan.packet, plan.n)
    eps_e = encoding_error_bound(g0, plan.wait, plan.m_signals) if plan.m_signals > 1 else 0.0
    _, eps_d = decode_mode(propagate(g0, plan.decode_time), plan.region_b)
    raw = 1.0 - eps_e - eps_d
    return ErrorBudgetReport(
        eps_e=eps_e,
        eps_d=eps_d,
        fidelity_bound=max(0.0, raw),
        clamped=raw < 0.0,
    )


def min_wait_time(
    n: int, m: int, budget: PacketBudget, target: float
) -> tuple[float, float]:
    """Smallest inter-signal wait t* at which the budget packet
    ``sigma_for_budget(n, budget)`` on the N-site ring meets an
    encoding-error target, and the full-spectrum bound at t* (the value
    ``encoding_error_bound`` gives there).

    Scans a geometric grid of waits up to the ring-recurrence guard N/4,
    takes the first grid point whose bound is at or below the target, and
    refines against the nearest bracketing point above to 1% relative.
    Monotonicity of the bound is not assumed.

    The search sums the bound only over the packet's spectral support, the
    modes of weight at least eps/N (eps the machine epsilon), and decides
    each ``value <= target`` on that sum unless it lies within a certified
    margin of the target, where it takes the full sum; so every decision,
    and t*, is the one the full sum gives.  The margin: the dropped weights
    total delta < eps, since each is below eps/N, so dropping them moves
    each overlap S_j = <g(0)|g(j t)> by at most delta.  The weights sum to
    1 and |z_k| = 1, so rounding moves each float S_j by at most 2N*eps,
    on either sum.  The bound adds 3(M-j) values |S_j|, and
    3 * sum_{j<M} (M-j) = 1.5 M(M-1), so the two sums differ by at most
    1.5 M(M-1) (delta + 4N*eps).

    The scan starts at the first grid wait that L(t) = 3 sum_{j<M} (M-j)
    max(0, W - V j^2 t^2 / 2) cannot rule out, W = sum_k w_k and V =
    sum_k w_k (omega_k - mu)^2 for any real mu: cos x >= 1 - x^2/2 gives
    |S_j(t)| >= W - V (j t)^2 / 2.  Rounding moves L, whose W and V sum N
    terms, by at most 1.5 M(M-1) (N+M+9) eps, and each float sum lies within
    slack of the exact bound, so where L exceeds the target by 2 slack plus
    that allowance the support sum exceeds target + slack: a certified miss.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    if m < 1:
        raise ValueError("need at least one signal")
    g0 = gaussian_packet(sigma_for_budget(n, budget), n)
    weights, omega = _mode_weights(g0), ring_energies(n)
    eps = np.finfo(float).eps
    keep = weights >= eps / n
    slack = 1.5 * m * (m - 1) * (weights[~keep].sum() + 4 * n * eps)
    support = weights[keep], omega[keep]

    def meets_target(t: float) -> bool:
        value = _bound_from_weights(*support, t, m)
        if abs(value - target) <= slack:
            value = _bound_from_weights(weights, omega, t, m)
        return value <= target

    cap = n / 4.0
    grid = np.geomspace(max(0.05, 0.02 * n ** (1.0 / 3.0)), cap, 64)
    j, total = np.arange(1, m), weights.sum()
    spread = weights @ (omega - weights @ omega / total) ** 2
    lower = 3.0 * np.maximum(0.0, total - spread * np.outer(grid, j) ** 2 / 2) @ (m - j)
    skip = lower > target + 2 * slack + 1.5 * m * (m - 1) * (n + m + 9) * eps
    start = int(np.argmin(np.append(skip, False)))  # the leading ruled-out waits
    for i, t in enumerate(grid[start:], start):
        if meets_target(float(t)):
            hi = float(t)
            if i > 0:
                lo = float(grid[i - 1])
                while (hi - lo) / hi > 0.01:
                    mid = float(np.sqrt(lo * hi))
                    if meets_target(mid):
                        hi = mid
                    else:
                        lo = mid
            return hi, _bound_from_weights(weights, omega, hi, m)
    # the message reports the full-spectrum bound, as encoding_error_bound does
    best = min(_bound_from_weights(weights, omega, float(t), m) for t in grid)
    raise RuntimeError(
        f"no wait below the recurrence guard N/4 = {cap} meets the "
        f"encoding target {target} (best bound {best:.3e})"
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
