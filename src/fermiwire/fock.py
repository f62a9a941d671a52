"""Exact many-body verification on small lattices.

The occupation basis is the set of bitstrings |n_1 .. n_N> with at most
m_max set bits, ordered by particle number and then lexicographically on
(n_1, .., n_N); the creation-string convention

    |n_1 .. n_N> = (a_1^dag)^{n_1} (a_2^dag)^{n_2} ... |vac>

fixes the fermionic sign of a_j to (-1)^(number of occupied sites left of j).

Ancilla registers are ordinary qubits tensored outside the Fock factor:
the global state tensor has shape (2,)*M x (fock_dim,) x (2,)*M for the
sender registers, the lattice, and the receiver registers.  Swap unitaries
between a register and a lattice mode g use the five-term form

    U = I - s+ s- g g^dag - s- s+ g^dag g + s+ g + s- g^dag,

which is exactly unitary on the excitation-conserving sector reachable by
the transmission sequence (total fermions plus raised registers at most
m_max); the equivalent two-exponential product is kept as a test oracle.

Time evolution never forms an F x F propagator: ``ExactEvolver`` applies
exp(-iHt) to the state in H's eigenbasis, one particle-number sector (a
contiguous run of the basis) at a time, and is built once per Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .lattice import Boundary, Lattice, ring_spectrum, propagate
from .protocol import ProtocolPlan, decode_mode
from .wavepacket import gaussian_packet

_MAX_DIM = 1 << 20

SIX_DESIGN_STATES: dict[str, np.ndarray] = {
    "z+": np.array([1.0, 0.0], dtype=complex),
    "z-": np.array([0.0, 1.0], dtype=complex),
    "x+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "y+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "y-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


@dataclass(frozen=True)
class FockBasis:
    """Truncated occupation basis: bitmasks with at most max_particles bits.

    Site j occupies bit j-1.  ``states[0]`` is the vacuum; ``index`` maps a
    bitmask back to its position; it and the arrays below are cached per basis.
    """

    n_sites: int
    max_particles: int
    states: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def index(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def masks(self) -> np.ndarray:
        return np.array(self.states, dtype=np.uint64)

    @cached_property
    def particle_counts(self) -> np.ndarray:
        return np.bitwise_count(self.masks).astype(np.int64)

    @cached_property
    def annihilation_table(self) -> tuple[np.ndarray, ...]:
        """(rows, cols, sites, signs) with a_site |states[col]> = sign |states[row]>,
        one entry per occupied site of each state (state first, site ascending);
        int32 rows and cols, uint8 sites, int8 signs."""
        masks = self.masks
        bits = np.uint64(1) << np.arange(self.n_sites, dtype=np.uint64)
        occ = np.column_stack([(masks & b) != 0 for b in bits])
        # an odd count of occupied sites up to the site leaves an even count left of it
        odd = np.logical_xor.accumulate(occ, axis=1)[occ]
        signs = np.where(odd, np.int8(1), np.int8(-1))
        cols = np.repeat(np.arange(len(masks), dtype=np.int32), self.particle_counts)
        sites = np.broadcast_to(np.arange(self.n_sites, dtype=np.uint8), occ.shape)[occ]
        order = np.argsort(masks).astype(np.int32)
        target = masks[cols] ^ bits[sites]
        return order[np.searchsorted(masks[order], target)], cols, sites, signs


def fock_basis(n_sites: int, max_particles: int) -> FockBasis:
    if not 1 <= max_particles <= n_sites:
        raise ValueError(
            f"max_particles must lie in 1..{n_sites}, got {max_particles}"
        )
    dim = sum(comb(n_sites, k) for k in range(max_particles + 1))
    if dim > _MAX_DIM or n_sites > 64:
        raise ValueError(f"exact basis for N={n_sites}, max_particles={max_particles} "
                         f"has {dim} states; limit {_MAX_DIM} states on <= 64 sites")
    # reversed combinations run each particle number in ascending (n_1, .., n_N)
    masks = [sum(1 << j for j in occ) for k in range(max_particles + 1)
             for occ in reversed(list(combinations(range(n_sites), k)))]
    return FockBasis(
        n_sites=n_sites,
        max_particles=max_particles,
        states=tuple(masks),
    )


@dataclass
class FockVector:
    """Amplitudes over sender registers x occupation basis x receiver registers."""

    tensor: np.ndarray
    basis: FockBasis
    n_a: int
    n_b: int

    def __post_init__(self):
        expected = (2,) * self.n_a + (len(self.basis),) + (2,) * self.n_b
        if self.tensor.shape != expected:
            raise ValueError(f"tensor shape {self.tensor.shape} != {expected}")

    @property
    def fock_axis(self) -> int:
        return self.n_a

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def register_axis(self, side: str, idx: int) -> int:
        count = self.n_a if side == "A" else self.n_b
        if not 1 <= idx <= count:
            raise ValueError(f"register {side}{idx} does not exist")
        return idx - 1 if side == "A" else self.n_a + 1 + (idx - 1)


def mode_annihilator(coeffs: np.ndarray, basis: FockBasis) -> sparse.csr_matrix:
    """Annihilator of the mode whose creator makes the state sum_j c_j |j>.

    coeffs are single-particle state amplitudes: the returned matrix is
    sum_j conj(c_j) a_j, so its adjoint applied to the vacuum reproduces
    exactly those amplitudes and {mode(f), mode(g)^dag} = <f|g> * identity
    away from the truncation boundary.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.n_sites,):
        raise ValueError(
            f"coefficient length {coeffs.shape} does not match {basis.n_sites} sites"
        )
    rows, cols, sites, signs = basis.annihilation_table
    c = coeffs[sites]
    keep = c != 0
    data = signs[keep] * np.conj(c[keep])
    return sparse.csr_matrix((data, (rows[keep], cols[keep])), shape=(len(basis),) * 2)


def _adjoint(m: sparse.spmatrix) -> sparse.csr_matrix:
    return m.conjugate().transpose().tocsr()


def _bonds(lattice: Lattice) -> list[tuple[int, int]]:
    n = lattice.n_sites
    bonds = [(j, j + 1) for j in range(1, n)]
    if lattice.boundary is Boundary.RING:
        bonds.append((n, 1))
    return bonds


def kinetic_matrix(basis: FockBasis, lattice: Lattice) -> sparse.csr_matrix:
    """Nearest-neighbour hopping sum a_j^dag a_{j+1} + h.c. (unit coupling)."""
    rows, cols, sites, signs = basis.annihilation_table
    signs = signs.astype(float)
    a = [
        sparse.csr_matrix((signs[on], (rows[on], cols[on])), shape=(len(basis),) * 2)
        for on in (sites == j for j in range(basis.n_sites))
    ]
    k = sum(a[p - 1].T @ a[q - 1] for p, q in _bonds(lattice))
    return (k + k.T).tocsr()


def adjacent_pair_counts(basis: FockBasis, lattice: Lattice) -> np.ndarray:
    """Per-basis-state count of occupied nearest-neighbour pairs."""
    masks, counts = basis.masks, np.zeros(len(basis))
    for p, q in _bonds(lattice):
        counts += (masks >> np.uint64(p - 1)) & (masks >> np.uint64(q - 1)) & 1
    return counts


@dataclass(frozen=True)
class ManyBodyHamiltonian:
    """Lattice Hamiltonian on a truncated basis.

    kind "tight-binding" is the unit-coupling kinetic term; kind "t-J"
    adds a density-density interaction, t_hop * kinetic + j_coupling *
    sum_bonds n_j n_{j+1}, with bonds following the lattice boundary.  The
    kinetic sign is fixed to match the tight-binding anchor, so t_hop = 1,
    J = 0 reproduces it exactly.
    """

    kind: str
    basis: FockBasis
    matrix: sparse.csr_matrix
    t_hop: float = 1.0
    j_coupling: float = 0.0


def tight_binding_hamiltonian(basis: FockBasis, lattice: Lattice) -> ManyBodyHamiltonian:
    return ManyBodyHamiltonian("tight-binding", basis, kinetic_matrix(basis, lattice))


def tj_hamiltonian(
    basis: FockBasis,
    lattice: Lattice,
    t_hop: float = 1.0,
    j_coupling: float = 0.0,
) -> ManyBodyHamiltonian:
    mat = (
        t_hop * kinetic_matrix(basis, lattice)
        + j_coupling * sparse.diags(adjacent_pair_counts(basis, lattice))
    ).tocsr()
    return ManyBodyHamiltonian("t-J", basis, mat, t_hop, j_coupling)


class ExactEvolver:
    """exp(-i t H) applied to states in H's eigenbasis, sector by sector.

    The sectors are the particle-number runs of the ordered basis, each
    diagonalized once; H must be Hermitian with no entries between them.
    """

    def __init__(self, hamiltonian: ManyBodyHamiltonian):
        h = hamiltonian.matrix.tocsr()
        if abs(h - h.conj().T).max() > 1e-12:
            raise ValueError("Hamiltonian is not Hermitian (max |H - H^dag| > 1e-12)")
        self.basis = hamiltonian.basis
        occ = self.basis.particle_counts
        starts = (np.flatnonzero(np.diff(occ)) + 1).tolist()
        sector = np.searchsorted(starts, np.arange(len(occ)), side="right")
        coo = h.tocoo()
        if np.any((sector[coo.row] != sector[coo.col]) & (coo.data != 0)):
            raise ValueError("Hamiltonian has entries between particle-number sectors")
        edges = [0, *starts, len(occ)]
        self.sectors = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self.eigen = [np.linalg.eigh(h[s, s].toarray()) for s in self.sectors]

    def apply(self, fv: FockVector, t: float) -> FockVector:
        """exp(-i t H) on the Fock axis; register axes ride along as columns."""
        x = np.moveaxis(fv.tensor, fv.fock_axis, 0)
        cols = x.reshape(x.shape[0], -1)
        y = np.empty(cols.shape, dtype=complex)
        for s, (w, v) in zip(self.sectors, self.eigen):
            y[s] = v @ (np.exp(-1j * w * t)[:, None] * (v.conj().T @ cols[s]))
        tensor = np.moveaxis(y.reshape(x.shape), 0, fv.fock_axis)
        return FockVector(tensor, fv.basis, fv.n_a, fv.n_b)


def _apply_register_block(
    fv: FockVector, block: sparse.spmatrix, side: str, idx: int
) -> FockVector:
    axes = (fv.register_axis(side, idx), fv.fock_axis)
    x = np.moveaxis(fv.tensor, axes, (0, 1))
    y = np.asarray(block @ x.reshape(2 * x.shape[1], -1)).reshape(x.shape)
    return FockVector(np.moveaxis(y, (0, 1), axes), fv.basis, fv.n_a, fv.n_b)


def _swap_block(mode_coeffs: np.ndarray, basis: FockBasis) -> sparse.csr_matrix:
    a = mode_annihilator(mode_coeffs, basis)
    ad = _adjoint(a)
    eye = sparse.identity(len(basis), dtype=complex, format="csr")
    return sparse.bmat([[eye - ad @ a, ad], [a, eye - a @ ad]], format="csr")


def _check_sector_unitary(u: sparse.csr_matrix, basis: FockBasis, tol: float = 1e-10):
    total = np.concatenate([basis.particle_counts, basis.particle_counts + 1])
    keep = np.flatnonzero(total <= basis.max_particles)
    defect = (_adjoint(u) @ u - sparse.identity(u.shape[0], dtype=complex)).tocsr()
    sub = defect[keep][:, keep]
    worst = 0.0 if sub.nnz == 0 else float(np.max(np.abs(sub.data)))
    if worst > tol:
        raise RuntimeError(
            f"register swap is not unitary on the reachable sector "
            f"(defect {worst:.3e})"
        )


def build_encoder(g_coeffs: np.ndarray, basis: FockBasis) -> sparse.csr_matrix:
    """Swap unitary between one qubit register and the lattice mode g.

    Returned as a 2F x 2F block over qubit (|0>, |1>) x Fock; it maps
    |1>|vac> to |0> g^dag |vac> and leaves |0>|vac> alone.  Unitarity on
    the excitation-conserving reachable sector is verified at build time.
    The receiver's decoder is the same swap on its mode h.
    """
    g_coeffs = np.asarray(g_coeffs, dtype=complex)
    nrm = np.linalg.norm(g_coeffs)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"mode coefficients must be normalized (norm {nrm!r})")
    u = _swap_block(g_coeffs, basis)
    _check_sector_unitary(u, basis)
    return u


def swap_block_exponential(mode_coeffs: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Two-exponential form of the register swap, as a dense oracle.

    exp(-i pi/2 (s+ s- g g^dag + s- s+ g^dag g)) exp(i pi/2 (s+ g + s- g^dag)),
    evaluated by dense matrix exponentials; used to cross-check the closed
    five-term construction on small instances.
    """
    from scipy.linalg import expm

    a = mode_annihilator(mode_coeffs, basis).toarray()
    ad = a.conj().T
    f = len(basis)
    zero = np.zeros((f, f), dtype=complex)
    # qubit blocks: s+ = |1><0| puts g in the lower-left block
    x = np.block([[zero, ad], [a, zero]])
    p = np.block([[ad @ a, zero], [zero, a @ ad]])
    return expm(-0.5j * np.pi * p) @ expm(0.5j * np.pi * x)


def vacuum_vector(
    basis: FockBasis, n_a: int, n_b: int, messages: Sequence[np.ndarray] | None = None
) -> FockVector:
    """Product state: message qubits x lattice vacuum x receiver |0> qubits."""
    if messages is None:
        messages = [np.array([1.0, 0.0], dtype=complex)] * n_a
    if len(messages) != n_a:
        raise ValueError(f"expected {n_a} message states, got {len(messages)}")
    amp = np.array([1.0 + 0.0j])
    for psi in messages:
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (2,):
            raise ValueError("message states must be qubit 2-vectors")
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError("message states must be normalized")
        amp = np.kron(amp, psi)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    amp = np.kron(amp, vac)
    for _ in range(n_b):
        amp = np.kron(amp, np.array([1.0, 0.0], dtype=complex))
    shape = (2,) * n_a + (len(basis),) + (2,) * n_b
    return FockVector(amp.reshape(shape), basis, n_a, n_b)


def total_excitation_operator(basis: FockBasis, n_a: int, n_b: int) -> np.ndarray:
    """Diagonal of (fermion number + raised-register count) on the global tensor."""
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


class ProtocolEngine:
    """Cached operators for repeated runs of one plan on one basis."""

    def __init__(self, plan: ProtocolPlan, basis: FockBasis):
        if plan.m_signals > basis.max_particles:
            raise ValueError(
                f"basis truncated at {basis.max_particles} particles cannot "
                f"carry {plan.m_signals} signals"
            )
        if basis.n_sites != plan.n:
            raise ValueError("basis and plan lattice sizes differ")
        self.plan = plan
        self.basis = basis
        self.lattice = Lattice(plan.n)
        spectrum = ring_spectrum(plan.n)
        self.g0 = gaussian_packet(plan.packet, self.lattice)
        gT = propagate(self.g0, plan.decode_time, spectrum)
        self.h, self.eps_d = decode_mode(gT, plan.region_b)
        self.encoder = build_encoder(self.g0, basis)
        self.decoder = build_encoder(self.h, basis)
        self.evolver = ExactEvolver(tight_binding_hamiltonian(basis, self.lattice))

    def events(self) -> list[tuple[float, int, int]]:
        m = self.plan.m_signals
        enc = [((alpha - 1) * self.plan.wait, 0, alpha) for alpha in range(1, m + 1)]
        dec = [
            (self.plan.decode_time + (beta - 1) * self.plan.wait, 1, beta)
            for beta in range(1, m + 1)
        ]
        return sorted(enc + dec)

    def run(self, messages: Sequence[np.ndarray]) -> FockVector:
        """Run the full timed encode/evolve/decode sequence exactly.

        Signal alpha is encoded at (alpha-1)*wait and decoded at
        decode_time + (alpha-1)*wait, so every signal propagates for the
        same duration; events are applied in global time order.  Evolution
        uses the exact eigendecomposition of the truncated Hamiltonian, and
        any amplitude leakage out of the excitation-conserving sector
        aborts the run.
        """
        m = self.plan.m_signals
        if len(messages) != m:
            raise ValueError(f"expected {m} messages, got {len(messages)}")
        fv = vacuum_vector(self.basis, m, m, messages)
        now = 0.0
        for tau, kind, idx in self.events():
            if tau > now + 1e-12:
                fv = self.evolver.apply(fv, tau - now)
                now = tau
            op = self.encoder if kind == 0 else self.decoder
            side = "A" if kind == 0 else "B"
            fv = _apply_register_block(fv, op, side, idx)
            if abs(fv.norm() - 1.0) > 1e-10:
                raise RuntimeError(
                    f"norm drifted to {fv.norm()!r} after {side}{idx}; "
                    "amplitude leaked out of the truncated sector"
                )
        return fv


def reduced_qubit(fv: FockVector, side: str, idx: int) -> np.ndarray:
    """2x2 reduced density matrix of one ancilla register."""
    axis = fv.register_axis(side, idx)
    x = np.moveaxis(fv.tensor, axis, 0).reshape(2, -1)
    return x @ x.conj().T


def validate_qubit_state(rho: np.ndarray, atol: float = 1e-10):
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix trace is not one")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")


def average_fidelity(channel_outputs: Mapping[str, np.ndarray]) -> float:
    """Uniform average of <psi|rho|psi> over the six Pauli-axis inputs.

    The six axis states average any quadratic functional exactly as the
    full Bloch-sphere integral does, so this equals the continuous average
    fidelity of the channel.
    """
    total = 0.0
    for label, psi in SIX_DESIGN_STATES.items():
        if label not in channel_outputs:
            raise ValueError(f"missing channel output for input state {label!r}")
        rho = np.asarray(channel_outputs[label], dtype=complex)
        total += float(np.real(psi.conj() @ rho @ psi))
    return total / 6.0


def two_design_fidelities(
    plan: ProtocolPlan, basis: FockBasis
) -> tuple[dict[int, dict[str, np.ndarray]], dict[int, float]]:
    """Protocol channel outputs and average fidelity per receiver register.

    Feeds each of the six axis states into every message register at once
    and collects the reduced receiver states.
    """
    engine = ProtocolEngine(plan, basis)
    m = plan.m_signals
    outputs: dict[int, dict[str, np.ndarray]] = {a: {} for a in range(1, m + 1)}
    for label, psi in SIX_DESIGN_STATES.items():
        fv = engine.run([psi] * m)
        for alpha in range(1, m + 1):
            outputs[alpha][label] = reduced_qubit(fv, "B", alpha)
    fids = {a: average_fidelity(outputs[a]) for a in outputs}
    return outputs, fids


def run_encoding_sequence(
    coeff_pairs: Sequence[tuple[complex, complex]],
    encoders: Sequence[sparse.spmatrix],
    waits: Sequence[float],
    evolver: ExactEvolver,
) -> FockVector:
    """Apply the encode/evolve sequence only (no receiver registers).

    coeff_pairs are the (c, d) amplitudes of each message qubit;
    encoders are the ``build_encoder`` blocks applied to each register in
    turn; waits are the M-1 gaps between consecutive encodings, evolved
    under ``evolver``, whose basis the run uses.
    """
    m = len(coeff_pairs)
    if len(encoders) != m or len(waits) != m - 1:
        raise ValueError("need one encoder per signal and M-1 waits")
    messages = [np.array([c, d], dtype=complex) for c, d in coeff_pairs]
    fv = vacuum_vector(evolver.basis, m, 0, messages)
    for alpha in range(1, m + 1):
        fv = _apply_register_block(fv, encoders[alpha - 1], "A", alpha)
        if alpha <= m - 1:
            fv = evolver.apply(fv, waits[alpha - 1])
    return fv


def encoding_residual_norm(
    actual: FockVector,
    coeff_pairs: Sequence[tuple[complex, complex]],
    modes_now: Sequence[np.ndarray],
    basis: FockBasis,
) -> float:
    """Norm distance from the ideal independent-mode product state.

    The ideal keeps every message register in |0> and builds
    (c_M + d_M op_M^dag) ... (c_1 + d_1 op_1^dag) |vac> from the supplied
    current-time mode vectors (signal 1 applied first); it is deliberately
    not renormalized.
    """
    m = len(coeff_pairs)
    if actual.n_a != m or len(modes_now) != m:
        raise ValueError("coefficient, mode and register counts must agree")
    state = np.zeros(len(basis), dtype=complex)
    state[0] = 1.0
    for (c, d), mode in zip(coeff_pairs, modes_now):
        creator = _adjoint(mode_annihilator(np.asarray(mode), basis))
        state = c * state + d * (creator @ state)
    ideal = np.zeros_like(actual.tensor)
    ideal[(0,) * actual.n_a + (slice(None),) + (0,) * actual.n_b] = state
    return float(np.linalg.norm(actual.tensor - ideal))


def tj_interaction_error(fv: FockVector, lattice: Lattice) -> float:
    """Norm of the density-density interaction applied to the state.

    The interaction sum_bonds n_j n_{j+1} is diagonal in the occupation
    basis, so this is the RMS adjacent-pair count; it vanishes identically
    on single-particle states.
    """
    counts = adjacent_pair_counts(fv.basis, lattice)
    weighted = fv.tensor * counts.reshape((1,) * fv.n_a + (-1,) + (1,) * fv.n_b)
    return float(np.linalg.norm(weighted))


def evolution_difference(
    fv: FockVector,
    s: float,
    t_hop: float,
    j_coupling: float,
    lattice: Lattice,
) -> float:
    """Norm difference between interacting and free evolution of a state.

    Evolves under t_hop * kinetic + J * interaction and under the plain
    tight-binding kinetic term, both exactly, and returns the norm of the
    difference; compare against |s| times the interaction norm.
    """
    free = ExactEvolver(tight_binding_hamiltonian(fv.basis, lattice))
    inter = ExactEvolver(tj_hamiltonian(fv.basis, lattice, t_hop, j_coupling))
    a = inter.apply(fv, s)
    b = free.apply(fv, s)
    return float(np.linalg.norm(a.tensor - b.tensor))


def two_packet_state(
    basis: FockBasis,
    lattice: Lattice,
    params_a,
    params_b,
) -> FockVector:
    """Normalized two-fermion state from two packet modes (no registers)."""
    ga = gaussian_packet(params_a, lattice)
    gb = gaussian_packet(params_b, lattice)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    state = _adjoint(mode_annihilator(ga, basis)) @ (
        _adjoint(mode_annihilator(gb, basis)) @ vac
    )
    nrm = np.linalg.norm(state)
    if nrm < 1e-12:
        raise ValueError("packet modes coincide; two-particle state vanishes")
    fv = FockVector((state / nrm).reshape(len(basis)), basis, 0, 0)
    return fv
