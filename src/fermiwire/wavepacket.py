"""Gaussian encoding modes and their dispersion diagnostics.

A packet is a normalized single-particle state

    g_j = gamma * exp(-(j - l)^2 / (2*sigma^2)) * exp(2*pi*i*k*j/N)

supported on a contiguous site region, with gamma fixing the squared
amplitude sum to one.  The module also provides the width-budget formulas
that pick sigma and the region from a momentum cutoff Lambda = kappa*N^(2/3),
the cubic-dispersion broadening prediction, and overlap estimators
(closed-form Gaussian decay and the numerically integrated Gaussian-cubic
Fourier integral).

Width and position measurements use the circular embedding x -> e^{2*pi*i*x}
so that packets wrapping the ring are handled; reported widths are in ring
fractions, and the broadening formula takes its initial width in ring
angle (radians), the unit conjugate to the integer mode index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .lattice import (
    Lattice,
    Spectrum,
    dispersion_third_derivative,
    propagate,
)


@dataclass(frozen=True)
class Region:
    """Contiguous 1-based inclusive site interval [start, stop]."""

    start: int
    stop: int

    def __post_init__(self):
        if self.start < 1 or self.stop < self.start:
            raise ValueError(f"invalid region [{self.start}, {self.stop}]")

    def __len__(self) -> int:
        return self.stop - self.start + 1

    def sites(self) -> np.ndarray:
        return np.arange(self.start, self.stop + 1)

    def indices(self) -> np.ndarray:
        """0-based array indices of the region sites."""
        return np.arange(self.start - 1, self.stop)

    def contains(self, site: int) -> bool:
        return self.start <= site <= self.stop

    @property
    def center_site(self) -> int:
        return self.start + (len(self) - 1) // 2


@dataclass(frozen=True)
class PacketParams:
    """Gaussian packet: width in sites, center site, carrier mode, support."""

    sigma_sites: float
    center: int
    wavenumber: int
    region: Region

    def __post_init__(self):
        if self.sigma_sites <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma_sites}")
        if not self.region.contains(self.center):
            raise ValueError(
                f"center {self.center} outside region "
                f"[{self.region.start}, {self.region.stop}]"
            )


@dataclass(frozen=True)
class PacketBudget:
    """Error-budget knobs: exponent c, momentum-cutoff kappa, region nu.

    c sets the tolerated exponential error scale e^(-c); kappa scales the
    momentum cutoff Lambda = kappa*N^(2/3); nu scales protocol region
    sizes, |R| = ceil(nu*N^(1/3)).
    """

    c: float
    kappa: float
    nu: float = 2.0

    def __post_init__(self):
        if self.c <= 0 or self.kappa <= 0 or self.nu <= 0:
            raise ValueError("budget parameters must be strictly positive")

    def cutoff(self, n: int) -> float:
        return self.kappa * n ** (2.0 / 3.0)


@dataclass(frozen=True)
class WidthReport:
    """Initial and evolved packet widths with the predicted growth ratio."""

    l0: float
    lt: float
    predicted_ratio: float
    measured_ratio: float


def gaussian_packet(params: PacketParams, lattice: Lattice) -> np.ndarray:
    """Build the normalized Gaussian mode on its support region.

    Amplitudes are exp(-(j-l)^2/(2 sigma^2)) * exp(2 pi i k j / N) inside
    the region and zero elsewhere; the normalization is recomputed from
    the clipped envelope, so the returned state has unit norm exactly.
    """
    n = lattice.n_sites
    region = params.region
    if region.stop > n:
        raise ValueError(f"region [{region.start}, {region.stop}] exceeds N = {n}")
    if len(region) == 1:
        warnings.warn(
            "packet region has a single site; the mode degenerates to a "
            "basis state",
            RuntimeWarning,
            stacklevel=2,
        )
    j = region.sites()
    envelope = np.exp(-((j - params.center) ** 2) / (2.0 * params.sigma_sites**2))
    phase = np.exp(2j * np.pi * params.wavenumber * j / n)
    amps = np.zeros(n, dtype=complex)
    amps[region.indices()] = envelope * phase
    return amps / np.linalg.norm(amps)


def sigma_sites_for_budget(n: int, budget: PacketBudget) -> float:
    """Packet width in sites, N*sqrt(c/(2 pi^2 kappa^2 N^(4/3)))."""
    return n * np.sqrt(budget.c / (2.0 * np.pi**2 * budget.kappa**2 * n ** (4.0 / 3.0)))


def characteristic_width(n: int, budget: PacketBudget) -> float:
    """Characteristic real-space width L(0) = N^(-2/3)*sqrt(c)/(2 pi kappa).

    In ring fractions; multiply by 2*pi for the ring-angle width used by
    the broadening prediction.  Equals the density RMS of the budget
    packet (sigma/sqrt(2) in the amplitude convention).
    """
    return n ** (-2.0 / 3.0) * np.sqrt(budget.c) / (2.0 * np.pi * budget.kappa)


def carrier_mode(n: int, direction: int = +1) -> int:
    """Carrier mode nearest 3N/4 for direction >= 0, nearest N/4 otherwise.

    3N/4 and N/4 are the modes of maximal angular speed, moving toward
    increasing and decreasing site index respectively; halves round up.
    """
    return (3 * n + 2) // 4 if direction >= 0 else (n + 2) // 4


def sigma_for_budget(
    n: int,
    budget: PacketBudget,
    direction: int = +1,
    center: int | None = None,
) -> PacketParams:
    """Default packet parameters for a budget on an N-site ring.

    The width comes from the momentum-cutoff condition (amplitude e^(-c)
    at Lambda = kappa*N^(2/3)).  The support half-width is
    ceil((sqrt(2c) + 2) * sigma), which clips the envelope at amplitude
    e^(-(c+2)) or below so truncation artifacts stay under the momentum
    cutoff error scale; the region width is then O(c)*N^(1/3) sites.
    The carrier is carrier_mode(n, direction).
    """
    if n % 4:
        raise ValueError(f"N = {n} is not divisible by 4")
    sigma = sigma_sites_for_budget(n, budget)
    half = ceil((np.sqrt(2.0 * budget.c) + 2.0) * sigma - 1e-9)
    k = carrier_mode(n, direction)
    if center is None:
        width = min(2 * half + 1, n)
        region = Region(1, width)
        return PacketParams(sigma, region.center_site, k, region)
    lo, hi = center - half, center + half
    if lo < 1 or hi > n:
        raise ValueError(
            f"default region around site {center} (half-width {half}) "
            f"does not fit in 1..{n}"
        )
    return PacketParams(sigma, center, k, Region(lo, hi))


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product sum_j conj(a_j) * b_j."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def region_weight(state: np.ndarray, region: Region) -> float:
    """Total squared amplitude carried by the region's sites."""
    state = np.asarray(state, dtype=complex)
    if region.stop > state.shape[0]:
        raise ValueError("region exceeds the lattice")
    return float(np.sum(np.abs(state[region.indices()]) ** 2))


def _intensity_resultant(state: np.ndarray) -> complex:
    state = np.asarray(state, dtype=complex)
    n = state.shape[0]
    p = np.abs(state) ** 2
    p = p / p.sum()
    theta = 2.0 * np.pi * np.arange(1, n + 1) / n
    return complex(np.sum(p * np.exp(1j * theta)))


def circular_centroid(state: np.ndarray) -> float:
    """Intensity-weighted circular mean position, in ring fractions [0, 1)."""
    z = _intensity_resultant(state)
    return float((np.angle(z) / (2.0 * np.pi)) % 1.0)


def centroid_shift(before: np.ndarray, after: np.ndarray) -> float:
    """Signed centroid displacement in ring fractions, wrapped to (-1/2, 1/2]."""
    d = circular_centroid(after) - circular_centroid(before)
    return float((d + 0.5) % 1.0 - 0.5)


def measured_width(state: np.ndarray) -> float:
    """Equivalent Gaussian width of the intensity profile, in ring fractions.

    Computed from the circular resultant R = |sum_j p_j e^{i theta_j}| as
    sqrt(2) * sqrt(2*(1-R)) / (2*pi), which handles ring wraparound.  For
    a narrow packet with amplitude envelope exp(-(x-l)^2/(2 w^2)) this
    returns w; a point-supported state gives 0 and the uniform state gives
    the maximal value 1/pi.
    """
    r = abs(_intensity_resultant(state))
    return float(np.sqrt(2.0) * np.sqrt(2.0 * (1.0 - r)) / (2.0 * np.pi))


def broadening_prediction(l0: float, t: float, omega3: float) -> float:
    """Cubic-dispersion width-growth ratio.

    Returns [1 + ((omega3 * t) / (sqrt(2) * l0^3))^2 / 2]^(1/2) where l0
    is the initial characteristic width in ring angle (radians) and
    omega3 the third mode-index derivative of the dispersion, so the
    bracket is dimensionless.
    """
    if l0 <= 0:
        raise ValueError(f"width must be positive, got {l0}")
    bracket = omega3 * t / (np.sqrt(2.0) * l0**3)
    return float(np.sqrt(1.0 + 0.5 * bracket**2))


def width_report(
    params: PacketParams,
    t: float,
    lattice: Lattice,
    spectrum: Spectrum,
    budget: PacketBudget,
) -> WidthReport:
    """Measured versus predicted width growth of a budget packet after t."""
    g0 = gaussian_packet(params, lattice)
    gt = propagate(g0, t, spectrum)
    w0 = measured_width(g0)
    wt = measured_width(gt)
    omega3 = dispersion_third_derivative(lattice.n_sites, params.wavenumber)
    l0_angle = 2.0 * np.pi * characteristic_width(lattice.n_sites, budget)
    return WidthReport(
        l0=w0,
        lt=wt,
        predicted_ratio=broadening_prediction(l0_angle, t, omega3),
        measured_ratio=wt / w0,
    )


def overlap_decay_estimate(x1: float, budget: PacketBudget) -> float:
    """Closed-form overlap decay shape exp(-pi^2 kappa^2 x1^2 / (2c)).

    x1 is the rescaled separation, t = x1 * N^(1/3) / 2.  The undetermined
    constant prefactor is not modelled; treat the value as a shape to be
    fit-normalized, invalid for x1 below order one.
    """
    return float(np.exp(-np.pi**2 * budget.kappa**2 * x1**2 / (2.0 * budget.c)))


def fourier_airy_overlap(
    budget: PacketBudget,
    n: int,
    t: float,
    include_cubic: bool = True,
) -> complex:
    """Gaussian-cubic Fourier integral approximating <g(0)|g(t)>.

    Evaluates 2*sigma*sqrt(pi) * integral of
    exp(-4 pi^2 sigma^2 k^2) * exp(i(4 pi/N) t k - i (2/3!) (2 pi/N)^3 t k^3)
    by adaptive quadrature over |k| <= 6/(2 pi sigma); the Gaussian weight
    beyond that support is below 1e-15.  With the cubic term dropped the
    result is the exact Gaussian transform.
    """
    sigma = sigma_sites_for_budget(n, budget) / n
    cut = 6.0 / (2.0 * np.pi * sigma)
    lin = 4.0 * np.pi * t / n
    cub = (2.0 / 6.0) * (2.0 * np.pi / n) ** 3 * t if include_cubic else 0.0
    pref = 2.0 * sigma * np.sqrt(np.pi)

    def integrand(k: float) -> complex:
        return pref * np.exp(-4.0 * np.pi**2 * sigma**2 * k**2) * np.exp(
            1j * (lin * k - cub * k**3)
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            re = quad(lambda k: integrand(k).real, -cut, cut, epsabs=1e-10, limit=400)[0]
            im = quad(lambda k: integrand(k).imag, -cut, cut, epsabs=1e-10, limit=400)[0]
        except IntegrationWarning as exc:
            raise RuntimeError(f"overlap quadrature did not converge: {exc}") from exc
    return complex(re, im)


def spectral_leakage(
    state: np.ndarray,
    spectrum: Spectrum,
    k0: int,
    cutoff: float,
) -> float:
    """Squared amplitude on modes with ring distance |k - k0| > cutoff."""
    n = spectrum.n_sites
    if not 1 <= k0 <= n:
        raise ValueError(f"mode index {k0} outside 1..{n}")
    amps = spectrum.mode_amplitudes(state)
    k = np.arange(1, n + 1)
    dist = np.minimum((k - k0) % n, (k0 - k) % n)
    return float(np.sum(np.abs(amps[dist > cutoff]) ** 2))
