"""Independent references and checks that the tests compare fermiwire against.

None of these is run by an experiment: they are random inputs, closed
forms, a quadrature and dense or per-register forms of what the package
computes, written apart from the package code they check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import IntegrationWarning, quad

from fermiwire.fock import (
    SIX_DESIGN_STATES,
    ExactEvolver,
    FockBasis,
    FockVector,
    ModeOperator,
    average_fidelity,
    exchange_pairs,
    fock_basis,
    schedule,
    tj_hamiltonian,
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
    """Diagonal of (fermion number + raised-register count) on a
    ``RegisterTensor``'s tensor, shape (2,)*n_a + (F,) + (2,)*n_b."""
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


def reduced_qubit(fv: RegisterTensor, side: str, idx: int) -> np.ndarray:
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
        cols = fv.amplitudes.reshape(len(fv.basis), -1)
        y = np.zeros(cols.shape, dtype=complex)
        for s, (w, v) in zip(self.basis.sectors, self.eigen):
            y[s] = v @ (np.exp(-1j * t * w)[:, None] * (v.conj().T @ cols[s]))
        return FockVector(y.reshape(fv.amplitudes.shape), fv.basis)


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
    """Largest entry of {a, a^dag} - 1 below the top excitation and of (a^dag)^2.

    Taken for one fixed mode with no zero coefficient, on identity columns
    in blocks of 64.  Off the diagonal each entry is one pair of sites
    times a sum of ladder signs, so zero certifies the signs for every
    mode; it is the operational counterpart of ``FockBasis.ladder_defect``.
    """
    n, f, worst = basis.n_sites, len(basis), 0.0
    op = ModeOperator(np.exp(1j * np.arange(n)) / np.sqrt(n), basis)
    below = basis.particle_counts < basis.max_particles
    for lo in range(0, f, 64):
        eye = np.eye(f, min(64, f - lo), -lo, dtype=complex)
        up = op.create(eye)
        anti = op.annihilate(up) + op.create(op.annihilate(eye)) - eye
        worst = max(worst, np.abs(anti[:, below[lo:lo + 64]]).max(initial=0.0),
                    np.abs(op.create(up)).max())
    return float(worst)


@dataclass
class RegisterTensor:
    """The oracle state with its registers as tensor axes: amplitudes of
    shape (2,)*n_a + (F,) + (2,)*n_b over the sender registers, a
    register-free occupation basis and the receiver registers.  The
    package keeps the registers as mask bits; this layout is the
    reference it is checked against."""

    tensor: np.ndarray
    basis: FockBasis
    n_a: int
    n_b: int

    @property
    def fock_axis(self) -> int:
        return self.n_a

    def register_axis(self, side: str, idx: int) -> int:
        count = self.n_a if side == "A" else self.n_b
        if not 1 <= idx <= count:
            raise ValueError(f"register {side}{idx} does not exist")
        return idx - 1 if side == "A" else self.n_a + 1 + (idx - 1)


def to_register_tensor(fv: FockVector) -> RegisterTensor:
    """A state of the package's excitation basis in the register-axis
    layout, over ``fock_basis`` of its sites, one mask at a time."""
    b = fv.basis
    small = fock_basis(b.n_sites, min(b.max_particles, b.n_sites))
    index, sites = basis_index(small), (1 << b.n_sites) - 1
    tensor = np.zeros((2,) * b.n_a + (len(small),) + (2,) * b.n_b, dtype=complex)
    for amp, s in zip(fv.amplitudes, b.masks.tolist()):
        regs = [(s >> (b.n_sites + q)) & 1 for q in range(b.n_a + b.n_b)]
        tensor[tuple(regs[:b.n_a]) + (index[s & sites],) + tuple(regs[b.n_a:])] = amp
    return RegisterTensor(tensor, small, b.n_a, b.n_b)


def register_vacuum(basis: FockBasis, n_a: int, n_b: int, messages) -> RegisterTensor:
    """Message qubits x lattice vacuum x receiver |0> qubits as one outer product."""
    amp = np.ones((), dtype=complex)
    for psi in messages:
        amp = np.multiply.outer(amp, np.asarray(psi, dtype=complex))
    tensor = np.zeros((2,) * n_a + (len(basis),) + (2,) * n_b, dtype=complex)
    tensor[(Ellipsis, 0) + (0,) * n_b] = amp * (1.0 + 0.0j)
    return RegisterTensor(tensor, basis, n_a, n_b)


def loop_annihilator(coeffs, basis: FockBasis) -> sparse.csr_matrix:
    """sum_j conj(c_j) a_j as a sparse matrix, walking the occupied sites of
    every basis state with the sign (-1)^(occupied sites below the site)."""
    index, rows, cols, data = basis_index(basis), [], [], []
    for col, s in enumerate(basis.masks.tolist()):
        rest = s & ((1 << basis.n_sites) - 1)
        while rest:
            bit = rest & -rest
            rest ^= bit
            cj = coeffs[bit.bit_length() - 1]
            if cj == 0:
                continue
            sign = -1.0 if (s & (bit - 1)).bit_count() & 1 else 1.0
            rows.append(index[s ^ bit])
            cols.append(col)
            data.append(sign * np.conj(cj))
    f = len(basis)
    return sparse.csr_matrix((np.array(data, dtype=complex), (rows, cols)), shape=(f, f))


def register_swap(fv: RegisterTensor, a, side: str, idx: int) -> RegisterTensor:
    """The five-term swap of one register with the mode whose annihilator
    is the sparse matrix a: x0 - a^dag a x0 + a^dag x1 and
    x1 - a a^dag x1 + a x0 on the register and Fock axes, every other axis
    a column."""
    axes = (fv.register_axis(side, idx), fv.fock_axis)
    x = np.moveaxis(fv.tensor, axes, (0, 1))
    x0, x1 = x.reshape(2, x.shape[1], -1)
    ad = a.conj().T.tocsr()
    y = np.stack([x0 - ad @ (a @ x0) + ad @ x1, x1 - a @ (ad @ x1) + a @ x0])
    return RegisterTensor(np.moveaxis(y.reshape(x.shape), (0, 1), axes),
                          fv.basis, fv.n_a, fv.n_b)


def evolve_register_tensor(fv: RegisterTensor, evolver, t: float) -> RegisterTensor:
    """The evolver on the Fock axis, the register axes as its columns."""
    x = np.moveaxis(fv.tensor, fv.fock_axis, 0)
    y = evolver.apply(FockVector(x, fv.basis), t).amplitudes
    return RegisterTensor(np.moveaxis(y, 0, fv.fock_axis), fv.basis, fv.n_a, fv.n_b)


def run_site_events(fv: RegisterTensor, events, evolver) -> RegisterTensor:
    """Apply (gap, annihilator, side, register) events in order on the
    lattice sites: evolve exactly for the gap unless it is at most 1e-12,
    then swap the register with the mode; the norm must stay 1 to 1e-10."""
    for gap, a, side, idx in events:
        if gap > 1e-12:
            fv = evolve_register_tensor(fv, evolver, gap)
        fv = register_swap(fv, a, side, idx)
        nrm = float(np.linalg.norm(fv.tensor))
        if not abs(nrm - 1.0) <= 1e-10:
            raise RuntimeError(f"norm drifted to {nrm!r} after {side}{idx}")
    return fv


def register_exchange_correction(fv: RegisterTensor, pairs) -> RegisterTensor:
    """CZ(B_alpha, B_beta) for each pair, on the register axes."""
    tensor = fv.tensor.copy()
    for alpha, beta in pairs:
        idx = [slice(None)] * tensor.ndim
        idx[fv.register_axis("B", alpha)] = idx[fv.register_axis("B", beta)] = 1
        tensor[tuple(idx)] *= -1
    return RegisterTensor(tensor, fv.basis, fv.n_a, fv.n_b)


def site_frame_encoding(coeff_pairs, g0: np.ndarray, wait: float,
                        evolver: ExactEvolver) -> RegisterTensor:
    """The timed encode/evolve sequence on the lattice sites of evolver's basis.

    Register alpha is swapped with g0 at (alpha - 1) * wait, and the whole
    state evolves exactly for the wait between consecutive swaps: the
    sequence that ``fock.run_encoding_sequence`` runs without evolution on
    the current-time modes.
    """
    basis = evolver.basis
    a = loop_annihilator(g0, basis)
    events = [(wait if alpha > 1 else 0.0, a, "A", alpha)
              for alpha in range(1, len(coeff_pairs) + 1)]
    fv = register_vacuum(basis, len(coeff_pairs), 0, coeff_pairs)
    return run_site_events(fv, events, evolver)


class SiteFrameEngine:
    """The timed protocol on the N lattice sites of a register-free basis.

    Swaps with g0 and the receiver mode h at their event times, exact
    evolution between the events and Bob's CZ gates at the end: what
    ``fock.ProtocolEngine`` runs without evolution on the orbitals of its
    back-propagated modes.  ``run`` returns a ``RegisterTensor``, which
    ``register_two_design`` reads; evolver is ``ExactEvolver`` or
    ``SectorEvolver``.
    """

    def __init__(self, plan, basis: FockBasis, evolver=ExactEvolver):
        if plan.m_signals > basis.max_particles or basis.n_sites != plan.n:
            raise ValueError(f"a basis of {basis.n_sites} sites and {basis.max_particles} "
                             f"particles cannot run a plan of N={plan.n}, M={plan.m_signals}")
        self.plan, self.basis = plan, basis
        g0 = gaussian_packet(plan.packet, plan.n)
        h, _ = decode_mode(propagate(g0, plan.decode_time), plan.region_b)
        self.encoder, self.decoder = loop_annihilator(g0, basis), loop_annihilator(h, basis)
        self.evolver = evolver(basis)

    def run(self, messages) -> RegisterTensor:
        m, events, now = self.plan.m_signals, [], 0.0
        for tau, kind, idx in schedule(self.plan):
            events.append((tau - now, (self.encoder, self.decoder)[kind], "AB"[kind], idx))
            now = tau
        fv = register_vacuum(self.basis, m, m, messages)
        fv = run_site_events(fv, events, self.evolver)
        return register_exchange_correction(fv, exchange_pairs(self.plan))


class OrbitalRegisterEngine:
    """``fock.ProtocolEngine``'s protocol in the register-axis layout: the
    swaps with its 2M event modes in ``schedule`` order over the
    register-free ``fock_basis`` of its r orbitals, with loop-built sparse
    annihilators, then Bob's CZ gates."""

    def __init__(self, engine):
        self.plan, m = engine.plan, engine.plan.m_signals
        self.basis = fock_basis(engine.basis.n_sites, m)
        self.ops = [loop_annihilator(f, self.basis) for f in engine.modes]

    def run(self, messages) -> RegisterTensor:
        m = self.plan.m_signals
        events = [(0.0, self.ops[kind * m + idx - 1], "AB"[kind], idx)
                  for _, kind, idx in schedule(self.plan)]
        fv = run_site_events(register_vacuum(self.basis, m, m, messages), events, None)
        return register_exchange_correction(fv, exchange_pairs(self.plan))


def register_two_design(engine):
    """``fock.two_design_fidelities`` on the register-axis layout: outputs,
    corrected and raw fidelities of an engine whose ``run`` returns a
    ``RegisterTensor``, from one |+>^M run split by excitation number."""
    plan, basis = engine.plan, engine.basis
    m, dim = plan.m_signals, 2**plan.m_signals
    # column alpha-1 holds B_alpha's bit of each register basis state
    bits = (np.arange(dim)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    weight = bits.sum(axis=1)
    cz = np.ones(dim)
    for a, b in exchange_pairs(plan):
        cz[(bits[:, a - 1] & bits[:, b - 1]) == 1] *= -1
    x = engine.run([SIX_DESIGN_STATES["x+"]] * m).tensor.reshape(dim, len(basis), dim)
    gram = np.zeros((m + 1, dim, dim), dtype=complex)
    for k, s in enumerate(basis.sectors):
        for p in range(m + 1 - k):
            y = x[weight == p, s].reshape(-1, dim)
            gram[p + k] += y.T @ y.conj()
    excitation = np.minimum(np.arange(m + 1)[:, None] + weight, m + 1)
    n = np.arange(m + 1)
    outputs = {a: {} for a in range(1, m + 1)}
    raw = {a: {} for a in range(1, m + 1)}
    for label, psi in SIX_DESIGN_STATES.items():
        c = np.append(2.0 ** (m / 2) * psi[0] ** (m - n) * psi[1] ** n, 0.0)[excitation]
        joint = np.einsum("rb,rc,rbc->bc", c, c.conj(), gram)
        for rho, out in ((joint, outputs), (joint * np.outer(cz, cz), raw)):
            for alpha in range(1, m + 1):
                r = rho.reshape(2 ** (alpha - 1), 2, 2 ** (m - alpha),
                                2 ** (alpha - 1), 2, 2 ** (m - alpha))
                out[alpha][label] = np.einsum("aibajb->ij", r)
    fids = {a: average_fidelity(outputs[a]) for a in outputs}
    return outputs, fids, {a: average_fidelity(raw[a]) for a in raw}


def residual_norm_per_point(actual: RegisterTensor, coeff_pairs, modes) -> float:
    """Norm distance from the ideal product (c_M + d_M a^dag(f_M)) ...
    (c_1 + d_1 a^dag(f_1)) |vac> with every register in |0>, modes of shape
    (M, n) in the frame of actual's basis: one sparse creator per mode and
    the norm of the full difference tensor."""
    basis = actual.basis
    state = np.zeros(len(basis), dtype=complex)
    state[0] = 1.0
    for (c, d), mode in zip(coeff_pairs, modes):
        state = c * state + d * (loop_annihilator(mode, basis).conj().T @ state)
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
