"""Single-particle tight-binding lattice: hopping matrix, spectrum, evolution.

Sites are numbered 1..N and site j sits at ring fraction x_j = j/N, so the
lattice has unit circumference in ring-fraction units and circumference
2*pi in ring-angle units (theta = 2*pi*x).

The nearest-neighbour hopping matrix has unit couplings and wraps around
on a ring.  Its ring eigenmodes are the discrete plane waves

    w_j(k) = exp(2*pi*i*j*k/N) / sqrt(N),      k = 1..N,

with dispersion omega(k) = 2*cos(2*pi*k/N).  States evolve spectrally as
exp(-i*t*H), exact for this quadratic model; no time-stepping is involved.

Unit convention used throughout the package: the mode index k is the
momentum conjugate to the ring angle theta, so d(omega)/dk is an angular
velocity in radians per unit time.  Divide by 2*pi for ring fractions per
unit time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import numpy.fft  # noqa: F401  every ring path transforms; load it at import

NORM_TOL = 1e-8


class Boundary(Enum):
    RING = "ring"
    CHAIN = "chain"


@dataclass(frozen=True)
class Lattice:
    """One-dimensional lattice of n_sites atoms, periodic ring or open chain."""

    n_sites: int
    boundary: Boundary = Boundary.RING

    def __post_init__(self):
        if self.n_sites < 4:
            raise ValueError(f"need at least 4 sites, got {self.n_sites}")

    @property
    def bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour site pairs (j, j+1), plus (N, 1) on a ring."""
        n = self.n_sites
        bonds = [(j, j + 1) for j in range(1, n)]
        return bonds + [(n, 1)] if self.boundary is Boundary.RING else bonds


@dataclass(frozen=True)
class Spectrum:
    """Eigenmodes of a hopping matrix, indexed by mode number k = 1..N.

    ``eigenvalues[i]`` is the energy of mode k = i + 1.  For a ring the
    eigenvectors are the closed-form plane waves and are generated on
    demand; for a chain the dense eigenvector matrix is stored (column i
    is mode k = i + 1, modes ordered by decreasing energy).
    """

    lattice: Lattice
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def eigenvector(self, k: int) -> np.ndarray:
        n = self.n_sites
        _check_mode(k, n)
        if self.eigenvectors is not None:
            return self.eigenvectors[:, k - 1]
        j = np.arange(1, n + 1)
        return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)

    def mode_amplitudes(self, state: np.ndarray) -> np.ndarray:
        """Coefficients <w(k)|state> for k = 1..N (index i holds k = i+1)."""
        state = np.asarray(state, dtype=complex)
        n = self.n_sites
        if state.shape != (n,):
            raise ValueError("state length does not match the lattice")
        if self.eigenvectors is not None:
            return self.eigenvectors.conj().T @ state
        f = np.fft.fft(state)
        k = np.arange(1, n + 1)
        return np.exp(-2j * np.pi * k / n) * f[k % n] / np.sqrt(n)


def _check_mode(k, n: int) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"mode index {k} outside 1..{n}")
    return k


def require_normalized(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized (norm = {nrm!r})")
    return state


def build_hopping(lattice: Lattice) -> np.ndarray:
    """Unit nearest-neighbour coupling matrix; ring wraps indices mod N."""
    m = np.zeros((lattice.n_sites,) * 2)
    for p, q in lattice.bonds:
        m[p - 1, q - 1] = m[q - 1, p - 1] = 1.0
    return m


def dispersion(k: int, n: int) -> float:
    """Ring mode energy omega(k) = 2*cos(2*pi*k/N)."""
    k = _check_mode(k, n)
    return 2.0 * np.cos(2.0 * np.pi * k / n)


def group_velocity(k: int, n: int) -> float:
    """Angular packet velocity v(k) = -(4*pi/N)*sin(2*pi*k/N).

    This is d(omega)/dk, the exact drift rate of a narrow packet's
    centroid measured in ring angle (radians per unit time); divide by
    2*pi for ring fractions per unit time.
    """
    k = _check_mode(k, n)
    return -(4.0 * np.pi / n) * np.sin(2.0 * np.pi * k / n)


def dispersion_third_derivative(n: int, k: int) -> float:
    """Third mode-index derivative of the dispersion, 2*(2*pi/N)^3*sin(2*pi*k/N)."""
    k = _check_mode(k, n)
    return 2.0 * (2.0 * np.pi / n) ** 3 * np.sin(2.0 * np.pi * k / n)


def transit_time(n: int) -> float:
    """Nominal transit-time scale N/(8*pi) of a maximal-velocity packet.

    Equals the time for the packet centroid to advance 0.5 radians of ring
    angle at the peak angular speed 4*pi/N; used as the canonical time
    scale for the width and overlap diagnostics.
    """
    if n % 4:
        raise ValueError(f"N = {n} is not divisible by 4")
    return n / (8.0 * np.pi)


def diagonalize(lattice: Lattice) -> Spectrum:
    """Spectral decomposition of a lattice's hopping matrix.

    Ring: closed-form Fourier modes, no matrix is built.  Chain: dense
    symmetric eigensolver, modes relabelled k = 1..N by decreasing energy
    so k = 1 is the fastest long-wavelength mode on either boundary.
    """
    n = lattice.n_sites
    if lattice.boundary is Boundary.RING:
        k = np.arange(1, n + 1)
        return Spectrum(lattice, 2.0 * np.cos(2.0 * np.pi * k / n))
    try:
        vals, vecs = np.linalg.eigh(build_hopping(lattice))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"chain eigensolver failed for N = {n}: {exc}") from exc
    order = np.argsort(-vals)
    return Spectrum(lattice, vals[order], vecs[:, order].astype(complex))


def ring_spectrum(n: int) -> Spectrum:
    """Closed-form spectrum of the N-site ring."""
    return diagonalize(Lattice(n))


def propagate(state: np.ndarray, t: float, spectrum: Spectrum) -> np.ndarray:
    """Evolve a normalized single-particle state by exp(-i*t*H).

    Ring spectra use the FFT fast path (identical to the spectral sum);
    chain spectra use the stored eigenbasis.  Norm is preserved exactly up
    to rounding.
    """
    n = spectrum.n_sites
    state = np.asarray(state, dtype=complex)
    if state.shape != (n,):
        raise ValueError("state length does not match the spectrum")
    require_normalized(state)
    if spectrum.eigenvectors is None:
        # fft bin m carries mode k = m for m >= 1 and k = N for m = 0
        omega = np.empty(n)
        omega[1:] = spectrum.eigenvalues[: n - 1]
        omega[0] = spectrum.eigenvalues[n - 1]
        return np.fft.ifft(np.fft.fft(state) * np.exp(-1j * omega * t))
    coeffs = spectrum.eigenvectors.conj().T @ state
    return spectrum.eigenvectors @ (np.exp(-1j * spectrum.eigenvalues * t) * coeffs)

