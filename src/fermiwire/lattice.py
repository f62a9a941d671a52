"""Single-particle tight-binding ring: bonds, spectrum, evolution.

Sites are numbered 1..N and site j sits at ring fraction x_j = j/N, so the
ring has unit circumference in ring-fraction units and circumference
2*pi in ring-angle units (theta = 2*pi*x).

The nearest-neighbour hopping has unit couplings and wraps around the
ring.  Its eigenmodes are the discrete plane waves

    w_j(k) = exp(2*pi*i*j*k/N) / sqrt(N),      k = 1..N,

with dispersion omega(k) = 2*cos(2*pi*k/N).  States evolve spectrally as
exp(-i*t*H), exact for this quadratic model; no time-stepping is involved
and no N x N matrix is built.  Every state is a 1-D array of N site
amplitudes, and N is read from its length.

Unit convention used throughout the package: the mode index k is the
momentum conjugate to the ring angle theta, so d(omega)/dk is an angular
velocity in radians per unit time.  Divide by 2*pi for ring fractions per
unit time.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # noqa: F401  every ring path transforms; load it at import

NORM_TOL = 1e-8


def ring_bonds(n: int) -> list[tuple[int, int]]:
    """Nearest-neighbour site pairs (j, j+1) and the wrap bond (N, 1)."""
    if n < 4:
        raise ValueError(f"need at least 4 sites, got {n}")
    return [(j, j + 1) for j in range(1, n)] + [(n, 1)]


def _check_mode(k, n: int) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"mode index {k} outside 1..{n}")
    return k


def _site_amplitudes(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"state must be 1-D, one amplitude per site; got shape {state.shape}")
    return state


def require_normalized(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    nrm = np.linalg.norm(state)
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized (norm = {nrm!r})")
    return state


def _omega(k, n: int):
    # the one spelling of the dispersion, for a mode index or an array of them
    return 2.0 * np.cos(2.0 * np.pi * k / n)


def dispersion(k: int, n: int) -> float:
    """Ring mode energy omega(k) = 2*cos(2*pi*k/N)."""
    return _omega(_check_mode(k, n), n)


def ring_energies(n: int) -> np.ndarray:
    """omega(k) for k = 1..N; index i holds mode k = i + 1."""
    return _omega(np.arange(1, n + 1), n)


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


def mode_amplitudes(state: np.ndarray) -> np.ndarray:
    """Coefficients <w(k)|state> for k = 1..N (index i holds k = i+1)."""
    state = _site_amplitudes(state)
    n = state.shape[0]
    f = np.fft.fft(state)
    k = np.arange(1, n + 1)
    return np.exp(-2j * np.pi * k / n) * f[k % n] / np.sqrt(n)


def propagate(state: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Evolve a normalized state by exp(-i*t*H) on the ring of its length.

    One FFT each way, identical to the spectral sum over the plane waves.
    Norm is preserved exactly up to rounding.  A 1-D array of times gives
    one row per time, each the bytes of the call with that time alone.
    """
    state = require_normalized(_site_amplitudes(state))
    if not np.all(np.isfinite(t)):
        raise ValueError(f"need finite times, got t = {t!r}")
    # fft bin m carries mode k = m for m >= 1 and k = N for m = 0
    omega = np.roll(ring_energies(state.shape[0]), 1)
    return np.fft.ifft(np.fft.fft(state) * np.exp(-1j * omega * np.asarray(t)[..., None]))
