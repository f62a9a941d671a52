"""Independent references and checks that the tests compare fermiwire against.

None of these is run by an experiment: they are random inputs, closed
forms, a quadrature and dense or per-register forms of what the package
computes, written apart from the package code they check.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse
from scipy.integrate import IntegrationWarning, quad

from fermiwire.fock import (
    ExactEvolver,
    FockBasis,
    FockVector,
    ModeOperator,
    _run_events,
    build_encoder,
    exchange_correction,
    exchange_pairs,
    schedule,
    tj_hamiltonian,
    vacuum_vector,
)
from fermiwire.lattice import propagate, ring_energies
from fermiwire.protocol import (
    _bound_from_weights,
    _mode_weights,
    decode_mode,
    encoding_error_bound,
)
from fermiwire.wavepacket import (
    PacketBudget,
    gaussian_packet,
    sigma_for_budget,
    sigma_sites_for_budget,
)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random normalized state on N sites."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def build_hopping(n: int) -> np.ndarray:
    """Dense N x N hopping matrix of the N-site ring: unit couplings between
    sites j and j+1 mod N, the matrix that the spectral paths never build."""
    j = np.arange(n)
    m = np.zeros((n, n))
    m[j, (j + 1) % n] = m[(j + 1) % n, j] = 1.0
    return m


def plane_wave(n: int, k: int) -> np.ndarray:
    """Ring eigenmode w_j(k) = exp(2 pi i j k / N) / sqrt(N), j = 1..N."""
    return np.exp(2j * np.pi * np.arange(1, n + 1) * k / n) / np.sqrt(n)


def basis_index(basis: FockBasis) -> dict[int, int]:
    """Position of each bitmask in the basis."""
    return {s: i for i, s in enumerate(basis.masks.tolist())}


def total_excitation_operator(basis: FockBasis, n_a: int, n_b: int) -> np.ndarray:
    """Diagonal of (fermion number + raised-register count) on the global
    tensor, shape (2,)*n_a + (F,) + (2,)*n_b."""
    shape = (2,) * n_a + (len(basis),) + (2,) * n_b
    occ = basis.particle_counts.reshape((1,) * n_a + (-1,) + (1,) * n_b)
    diag = np.zeros(shape) + occ
    for axis in range(n_a + n_b):
        pos = axis if axis < n_a else axis + 1
        qub = np.array([0.0, 1.0]).reshape(
            tuple(2 if i == pos else 1 for i in range(len(shape)))
        )
        diag = diag + qub
    return diag


def reduced_qubit(fv: FockVector, side: str, idx: int) -> np.ndarray:
    """2x2 reduced density matrix of one ancilla register."""
    axis = fv.register_axis(side, idx)
    x = np.moveaxis(fv.tensor, axis, 0).reshape(2, -1)
    return x @ x.conj().T


class SectorEvolver:
    """exp(-i t H) from one dense ``eigh`` per particle-number sector.

    Takes the same (basis, j_coupling) as ``fock.ExactEvolver`` and is a
    drop-in replacement for it; it diagonalizes where the evolver sums a
    Chebyshev series, so it is the reference for that series.
    """

    def __init__(self, basis: FockBasis, j_coupling: float = 0.0):
        self.basis = basis
        h = tj_hamiltonian(basis, j_coupling)
        counts = basis.particle_counts
        k_row, k_col = counts[h.row], counts[h.col]
        self.eigen = []
        for k, s in enumerate(basis.sectors):
            on = (k_row == k) & (k_col == k)
            block = np.zeros((s.stop - s.start,) * 2)
            np.add.at(block, (h.row[on] - s.start, h.col[on] - s.start), h.data[on])
            self.eigen.append(np.linalg.eigh(block))

    def apply(self, fv: FockVector, t: float) -> FockVector:
        x = np.moveaxis(fv.tensor, fv.fock_axis, 0)
        cols = x.reshape(x.shape[0], -1)
        y = np.zeros(cols.shape, dtype=complex)
        for s, (w, v) in zip(self.basis.sectors, self.eigen):
            y[s] = v @ (np.exp(-1j * t * w)[:, None] * (v.conj().T @ cols[s]))
        tensor = np.moveaxis(y.reshape(x.shape), 0, fv.fock_axis)
        return FockVector(tensor, fv.basis, fv.n_a, fv.n_b)


def ring_translation(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with T|masks[i]> = sign[i] |masks[index[i]]>.

    T is the ring translation a_j^dag -> a_{j+1}^dag, a_N^dag -> a_1^dag:
    it rotates the mask by one site, and a particle wrapping from site N
    to site 1 moves past the k-1 others to the front of the creation
    string, which adds the sign (-1)^(k-1).
    """
    masks, n = basis.masks, basis.n_sites
    wraps = masks >> np.uint64(n - 1)
    rotated = ((masks << np.uint64(1)) & np.uint64((1 << n) - 1)) | wraps
    sign = np.where((wraps == 1) & (basis.particle_counts % 2 == 0), -1, 1)
    return basis._find(rotated), sign.astype(np.int8)


def symmetry_defects(basis: FockBasis, matrix) -> tuple[float, float]:
    """max |H - H^dag| and max |T H - H T| of a (row, col, data) matrix on the
    basis, T the signed permutation ``ring_translation``, by sparse products."""
    f = len(basis)
    h = sparse.coo_matrix((matrix.data, (matrix.row, matrix.col)), shape=(f, f)).tocsr()
    index, sign = ring_translation(basis)
    t = sparse.csr_matrix((sign.astype(float), (index, np.arange(f))), shape=(f, f))
    gaps = (h - h.conj().T, t @ h - h @ t)
    return tuple(float(abs(g).max()) for g in gaps)


def operational_ladder_defect(basis: FockBasis) -> float:
    """Largest entry of {a, a^dag} - 1 and of (a^dag)^2 below the top sector.

    Taken for one fixed mode with no zero coefficient, on identity columns
    in blocks of 64.  Off the diagonal each entry is one pair of sites
    times a sum of ladder signs, so zero certifies the signs for every
    mode; it is the operational counterpart of ``FockBasis.ladder_defect``.
    """
    n, sec, worst = basis.n_sites, basis.sectors, 0.0
    op = ModeOperator(np.exp(1j * np.arange(n)) / np.sqrt(n), basis)
    for k in range(basis.max_particles):
        d = sec[k].stop - sec[k].start
        for lo in range(0, d, 64):
            eye = np.eye(d, min(64, d - lo), -lo, dtype=complex)
            up = op.lift(k + 1, eye)
            anti = op.lower(k + 1, up) - eye + (op.lift(k, op.lower(k, eye)) if k else 0)
            square = op.lift(k + 2, up) if k + 2 <= basis.max_particles else 0
            worst = max(worst, np.abs(anti).max(), np.abs(square).max())
    return float(worst)


def run_site_events(fv: FockVector, events, evolver) -> FockVector:
    """Apply (gap, operator, side, register) events in order on the lattice
    sites: evolve exactly for the gap unless it is at most 1e-12, then swap
    the register with the operator's mode under ``fock._run_events``'s
    norm check."""
    for gap, op, side, idx in events:
        if gap > 1e-12:
            fv = evolver.apply(fv, gap)
        fv = _run_events(fv, [(op, side, idx)])
    return fv


def site_frame_encoding(coeff_pairs, g0: np.ndarray, wait: float,
                        evolver: ExactEvolver) -> FockVector:
    """The timed encode/evolve sequence on the lattice sites of evolver's basis.

    Register alpha is swapped with g0 at (alpha - 1) * wait, and the whole
    state evolves exactly for the wait between consecutive swaps: the
    sequence that ``fock.run_encoding_sequence`` runs without evolution on
    the current-time modes.
    """
    basis = evolver.basis
    messages = [np.array(pair, dtype=complex) for pair in coeff_pairs]
    encoder = build_encoder(g0, basis)
    events = [(wait if alpha > 1 else 0.0, encoder, "A", alpha)
              for alpha in range(1, len(coeff_pairs) + 1)]
    return run_site_events(vacuum_vector(basis, len(messages), 0, messages), events, evolver)


class SiteFrameEngine:
    """The timed protocol on the N lattice sites of a basis.

    Swaps with g0 and the receiver mode h at their event times, exact
    evolution between the events and Bob's CZ gates at the end: what
    ``fock.ProtocolEngine`` runs without evolution on the orbitals of its
    back-propagated modes.  It has the engine's ``plan``, ``basis`` and
    ``run``, so ``fock.two_design_fidelities`` takes it too; evolver is
    ``ExactEvolver`` or ``SectorEvolver``.
    """

    def __init__(self, plan, basis: FockBasis, evolver=ExactEvolver):
        if plan.m_signals > basis.max_particles or basis.n_sites != plan.n:
            raise ValueError(f"a basis of {basis.n_sites} sites and {basis.max_particles} "
                             f"particles cannot run a plan of N={plan.n}, M={plan.m_signals}")
        self.plan, self.basis = plan, basis
        g0 = gaussian_packet(plan.packet, plan.n)
        h, _ = decode_mode(propagate(g0, plan.decode_time), plan.region_b)
        self.encoder, self.decoder = build_encoder(g0, basis), build_encoder(h, basis)
        self.evolver = evolver(basis)

    def run(self, messages) -> FockVector:
        m, events, now = self.plan.m_signals, [], 0.0
        for tau, kind, idx in schedule(self.plan):
            events.append((tau - now, (self.encoder, self.decoder)[kind], "AB"[kind], idx))
            now = tau
        fv = vacuum_vector(self.basis, m, m, messages)
        fv = run_site_events(fv, events, self.evolver)
        return exchange_correction(fv, exchange_pairs(self.plan))


def residual_norm_per_point(actual: FockVector, coeff_pairs, modes) -> float:
    """Norm distance from the ideal product (c_M + d_M a^dag(f_M)) ...
    (c_1 + d_1 a^dag(f_1)) |vac> with every register in |0>, modes of shape
    (M, n) in the frame of actual's basis: one ``ModeOperator(f).create``
    per mode and the norm of the full difference tensor."""
    basis = actual.basis
    state = np.zeros(len(basis), dtype=complex)
    state[0] = 1.0
    for (c, d), mode in zip(coeff_pairs, modes):
        state = c * state + d * ModeOperator(mode, basis).create(state)
    ideal = np.zeros_like(actual.tensor)
    ideal[(0,) * actual.n_a + (slice(None),) + (0,) * actual.n_b] = state
    return float(np.linalg.norm(actual.tensor - ideal))


def validate_qubit_state(rho: np.ndarray, atol: float = 1e-10):
    """Raise ValueError unless rho is a 2x2 density matrix."""
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix trace is not one")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")


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


def wait_grid(n: int) -> np.ndarray:
    """The geometric grid of waits the minimal-wait search scans."""
    return np.geomspace(max(0.05, 0.02 * n ** (1.0 / 3.0)), n / 4.0, 64)


def spread_lower_bound(weights: np.ndarray, omega: np.ndarray, t: float, m: int) -> float:
    """L(t) = 3 sum_{j<M} (M-j) max(0, W - V (j t)^2 / 2), with W the sum of
    the mode weights and V their second moment about the weighted mean
    frequency: cos x >= 1 - x^2/2 puts it below the encoding bound."""
    total = float(np.sum(weights))
    mean = float(np.sum(weights * omega)) / total
    spread = float(np.sum(weights * (omega - mean) ** 2))
    return 3.0 * sum((m - j) * max(0.0, total - spread * (j * t) ** 2 / 2) for j in range(1, m))


def full_spectrum_bounds(n: int, m: int, budget: PacketBudget):
    """The encoding bound of the budget packet as a function of the wait,
    summed over all N ring modes."""
    g0 = gaussian_packet(sigma_for_budget(n, budget), n)
    weights, omega = _mode_weights(g0), ring_energies(n)
    return lambda t: _bound_from_weights(weights, omega, t, m)


def _encoding_bound_at(n: int, m: int, budget: PacketBudget, t: float) -> float:
    g0 = gaussian_packet(sigma_for_budget(n, budget), n)
    return encoding_error_bound(g0, t, m)


def min_wait_full_spectrum(
    n: int, m: int, budget: PacketBudget, target: float
) -> tuple[float, float]:
    """The minimal-wait search deciding every step on the full-spectrum
    bound: first grid point at or below the target, then bisection in log
    space against the grid point before it to 1% relative.  Returns t* and
    ``encoding_error_bound`` at t*."""
    bound = full_spectrum_bounds(n, m, budget)
    grid = wait_grid(n)
    best = np.inf
    for i, t in enumerate(grid):
        value = bound(float(t))
        best = min(best, value)
        if value <= target:
            if i == 0:
                return float(t), _encoding_bound_at(n, m, budget, float(t))
            lo, hi = float(grid[i - 1]), float(t)
            while (hi - lo) / hi > 0.01:
                mid = float(np.sqrt(lo * hi))
                if bound(mid) <= target:
                    hi = mid
                else:
                    lo = mid
            return hi, _encoding_bound_at(n, m, budget, hi)
    raise RuntimeError(
        f"no wait below the recurrence guard N/4 = {n / 4.0} meets the "
        f"encoding target {target} (best bound {best:.3e})"
    )
