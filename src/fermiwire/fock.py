"""Exact many-body verification on small lattices.

The occupation basis is the set of bitstrings |n_1 .. n_N> with at most
m_max set bits, ordered by particle number and then lexicographically on
(n_1, .., n_N); the creation-string convention

    |n_1 .. n_N> = (a_1^dag)^{n_1} (a_2^dag)^{n_2} ... |vac>

fixes the fermionic sign of a_j to (-1)^(number of occupied sites left of j).

No operator is stored as a matrix.  ``FockBasis.ladder`` holds one table
per site, built from the masks, so a mode's a and a^dag (``ModeOperator``)
are one gather and one scatter-add per site on the whole vector.  The one
Hamiltonian is the ring t-J form, hopping plus J sum_j n_j n_{j+1}, as
(row, col, data) triplets (``CooMatrix``, built per bond from the masks);
``ExactEvolver`` builds it from J.

Ancilla registers are bits of the same masks: above the N site bits sit
n_a sender and then n_b receiver register bits (``FockBasis.register_bit``),
and the masks with at most m_max set bits in all are the basis.  Every
step conserves the total excitation, fermions plus raised registers, so
the oracle state is one amplitude vector (``FockVector``) on that basis
and no step leaves it.  Registers lie above every site, so a_j's sign
still counts only the sites below j and a register carries no string.
The swap between a register and a lattice mode g is the five-term form

    U = I - s+ s- g g^dag - s- s+ g^dag g + s+ g + s- g^dag,

a few gathers of the whole vector (``ModeOperator.swap``).  U is
Hermitian, so it is unitary on the excitation-conserving sector exactly
when U^2 = 1 there: when {g, g^dag} = 1 below the top excitation and
(g^dag)^2 = 0.  The signs behind both are checked once per basis
(``FockBasis.ladder_defect``), the norm of g per encoder; the tests keep
the equivalent two-exponential product as a reference.

The protocol needs no evolution.  On the free wire a mode moves linearly,
e^{-iHt} a^dag(f) e^{iHt} = a^dag(U_t f), so a swap with mode f at time
tau is U(tau) S(U(-tau) f) U(-tau), and H|vac> = 0: the timed protocol is
its swaps with the back-propagated modes in time order, with no evolution
between them, then the free evolution after the last event.  That is a
number-conserving unitary on the sites alone; it changes no register
matrix and no excitation sector below, so it is left out.  The 2M event
modes span r = min(N, 2M) orbitals (``orbital_frame``), so
``ProtocolEngine`` runs on ``fock_basis(r, M, M, M)`` at any N, and
``run_encoding_sequence`` the encodings alone on the M orbitals of their
current-time modes (fermionic linear optics: Terhal & DiVincenzo, PRA 65,
032325 (2002); Knill, quant-ph/0108033).

Time evolution is needed only with J != 0 (``evolution_difference``, the
t-J check): ``ExactEvolver`` sums the Chebyshev series of exp(-iHt) per
sector on the live columns, with no propagator and no eigenbasis.

Registers carry no Jordan-Wigner string, so when signal beta is still in
the wire as signal alpha < beta is decoded, a_h anticommutes past beta's
creator and B_alpha picks up (-1)^{n_beta}.  The receiver undoes this with
CZ(B_alpha, B_beta) after decoding, for every pair with
(beta - alpha) * wait <= decode_time (``exchange_pairs``).

Every step conserves the total excitation: raised A registers plus
fermions plus raised B registers.  The six product inputs psi^M of the
two-design average therefore need one run, not six: the |+>^M run's
excitation-n part is, up to the factor 2^(-M/2), the run of every input's
components with n raised registers, and ``two_design_fidelities`` weights
those parts per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .lattice import propagate, ring_bonds
from .protocol import ProtocolPlan, decode_mode
from .wavepacket import gaussian_packet

_MAX_DIM = 2_000_000

SIX_DESIGN_STATES: dict[str, np.ndarray] = {
    "z+": np.array([1.0, 0.0], dtype=complex),
    "z-": np.array([0.0, 1.0], dtype=complex),
    "x+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "y+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "y-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Truncated occupation basis: uint64 bitmasks with at most max_particles bits.

    Site j occupies bit j-1; above the n_sites site bits sit n_a sender and
    then n_b receiver register bits (``register_bit``).  ``masks[0]`` is
    the vacuum; the arrays and tables below are cached per basis.
    """

    n_sites: int
    max_particles: int
    masks: np.ndarray
    n_a: int = 0
    n_b: int = 0

    def __len__(self) -> int:
        return len(self.masks)

    def register_bit(self, side: str, idx: int) -> int:
        count = self.n_a if side == "A" else self.n_b
        if not 1 <= idx <= count:
            raise ValueError(f"register {side}{idx} does not exist")
        return self.n_sites + idx - 1 + (self.n_a if side == "B" else 0)

    @cached_property
    def particle_counts(self) -> np.ndarray:
        """Set bits per state: fermions plus raised registers."""
        return np.bitwise_count(self.masks).astype(np.int64)

    @cached_property
    def sectors(self) -> tuple[slice, ...]:
        """sectors[k] is the run of states with k set bits, k = 0..max_particles."""
        ks = np.arange(self.max_particles + 2)
        edges = np.searchsorted(self.particle_counts, ks).tolist()
        return tuple(slice(a, b) for a, b in zip(edges, edges[1:]))

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.masks)
        return order, self.masks[order]

    def _find(self, masks: np.ndarray) -> np.ndarray:
        """Positions of a 1-D array of bitmasks that all lie in the basis."""
        order, ordered = self._sorted
        # searched in ascending order, each search starts where the last ended
        by_value, found = np.argsort(masks), np.empty(len(masks), dtype=np.intp)
        found[by_value] = order[np.searchsorted(ordered, masks[by_value])]
        return found

    @cached_property
    def ladder(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """ladder[j] = (on, off, sign) for site j+1, built from the masks.

        on lists the states with the site occupied, ascending, as int32;
        off[i] is state on[i] with the site emptied, and the int8 sign that
        of a_site between them.  a_site maps x[on] to off, a_site^dag x[off]
        to on.
        """
        masks, one = self.masks, np.uint64(1)
        odd = np.zeros(len(masks), dtype=bool)  # parity of the occupied sites below j
        rungs = []
        for j in range(self.n_sites):
            occupied = (masks >> np.uint64(j)) & one == one
            on = np.flatnonzero(occupied)
            off = self._find(masks[on] ^ (one << np.uint64(j)))
            rungs.append((on.astype(np.int32), off.astype(np.int32),
                          np.where(odd[on], np.int8(-1), np.int8(1))))
            odd ^= occupied
        return tuple(rungs)

    @cached_property
    def ladder_defect(self) -> int:
        """Count of ladder entries and rungs that break the Jordan-Wigner rule.

        An entry empties a site occupied in its source, with sign
        (-1)^(occupied sites below it); a rung's sources ascend strictly and
        are as many as the states with the site occupied, so it lists them
        all.  Zero makes each a_j the exact Jordan-Wigner operator, entry by
        entry, so every mode sum_j conj(c_j) a_j has {a, a^dag} = |c|^2 below
        the top excitation and (a^dag)^2 = 0.
        """
        masks, bad, one = self.masks, 0, np.uint64(1)
        for j, (on, off, sign) in enumerate(self.ladder):
            source, bit = masks[on], one << np.uint64(j)
            odd = np.bitwise_count(source & (bit - one)) & 1
            ok = ((masks[off] == source ^ bit) & ((source & bit) != 0)
                  & (sign == np.where(odd, -1, 1)))
            bad += (np.count_nonzero(~ok) + np.count_nonzero(np.diff(on) <= 0)
                    + abs(len(on) - np.count_nonzero(masks & bit)))
        return int(bad)

    @cached_property
    def register_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """register_pairs[q] = (raised, lowered) for register bit n_sites + q:
        the int32 states with the bit set and the same states with it clear."""
        masks, pairs = self.masks, []
        for q in range(self.n_sites, self.n_sites + self.n_a + self.n_b):
            bit = np.uint64(1) << np.uint64(q)
            raised = np.flatnonzero(masks & bit)
            pairs.append((raised.astype(np.int32),
                          self._find(masks[raised] ^ bit).astype(np.int32)))
        return tuple(pairs)


def fock_basis(n_sites: int, max_particles: int, n_a: int = 0, n_b: int = 0) -> FockBasis:
    """Every mask of n_sites site bits and n_a + n_b register bits with at
    most max_particles set, by count and then ascending (n_1, .., n_N, A, B)."""
    bits = n_sites + n_a + n_b
    if bits > 64:
        raise ValueError(f"{n_sites} sites, {n_a} sender and {n_b} receiver registers "
                         f"need {bits} mask bits; a uint64 mask holds 64")
    if not 1 <= max_particles <= bits:
        raise ValueError(f"max_particles must lie in 1..{bits}, got {max_particles}")
    dim = sum(comb(bits, k) for k in range(max_particles + 1))
    if dim > _MAX_DIM:
        raise ValueError(f"exact basis for N={n_sites}, max_particles={max_particles} "
                         f"has {dim} states; limit {_MAX_DIM} states")
    # level k sets one bit b below the lowest set bit of a level k-1 mask,
    # b descending.  Along a level the lowest bit never rises, so the masks
    # whose lowest bit lies above b are a prefix of it, and each level runs
    # in ascending (n_1, .., n_N)
    levels, low = [np.zeros(1, dtype=np.uint64)], np.array([bits])
    for _ in range(max_particles):
        counts = np.searchsorted(-low, -np.arange(bits - 1, -1, -1))
        low = np.repeat(np.arange(bits - 1, -1, -1), counts)
        prefix = np.arange(len(low)) - np.repeat(np.cumsum(counts) - counts, counts)
        levels.append(levels[-1][prefix] | (np.uint64(1) << low.astype(np.uint64)))
    return FockBasis(n_sites, max_particles, np.concatenate(levels), n_a, n_b)


@dataclass
class FockVector:
    """Amplitudes over a basis: axis 0 runs over its states, and any further
    axes hold independent columns (which ``ExactEvolver`` evolves alike).
    The swaps take one trailing column axis, with one mode per column."""

    amplitudes: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        if self.amplitudes.shape[:1] != (len(self.basis),):
            raise ValueError(f"amplitudes of shape {self.amplitudes.shape} do not start "
                             f"with the {len(self.basis)} basis states")


class ModeOperator:
    """The annihilator a = sum_j conj(c_j) a_j of one mode, and its adjoint.

    coeffs are single-particle state amplitudes, so a^dag |vac> reproduces
    exactly the state sum_j c_j |j> and {a(f), a(g)^dag} = <f|g> * identity
    away from the truncation boundary; (n_sites, K) coeffs are K modes, mode k
    acting on column k of (dim, K) amplitudes.  Both act through the basis
    ladder: for each site with some c_j != 0 (found once), one gather of the
    amplitudes along axis 0 and one scatter-add, weighted conj(c_j) * sign
    (for a) or c_j * sign (for a^dag).  Register bits are spectators.
    """

    def __init__(self, coeffs: np.ndarray, basis: FockBasis):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[:1] != (basis.n_sites,) or coeffs.ndim > 2:
            raise ValueError(
                f"coefficient length {coeffs.shape} does not match {basis.n_sites} sites"
            )
        self.basis, self.coeffs = basis, coeffs
        live = coeffs if coeffs.ndim == 1 else coeffs.any(axis=1)
        self._sites = [j for j, c in enumerate(live.tolist()) if c]

    def _hop(self, x: np.ndarray, create: bool) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if self.coeffs.ndim > 1 and x.shape[1:] != self.coeffs.shape[1:]:
            raise ValueError(f"{self.coeffs.shape[1]} modes need amplitudes of shape (dim, "
                             f"{self.coeffs.shape[1]}); got {x.shape}")
        y, shape = np.zeros(x.shape, dtype=complex), (-1,) + (1,) * (x.ndim - 1)
        coeffs = self.coeffs if create else self.coeffs.conj()
        if coeffs.ndim == 1:
            coeffs = coeffs.tolist()  # a Python scalar multiplies faster than a numpy one
        for j in self._sites:
            on, off, sign = self.basis.ladder[j]
            src, dst = (off, on) if create else (on, off)
            y[dst] += coeffs[j] * (sign.reshape(shape) * x[src])
        return y

    def annihilate(self, x: np.ndarray) -> np.ndarray:
        """a on amplitudes x whose axis 0 is the basis."""
        return self._hop(x, False)

    def create(self, x: np.ndarray) -> np.ndarray:
        """a^dag on amplitudes x whose axis 0 is the basis; no image above
        the top excitation."""
        return self._hop(x, True)

    def swap(self, x: np.ndarray, bit: int) -> np.ndarray:
        """The five-term swap of register ``bit`` with the mode on amplitudes x
        whose axis 0 is the basis.

        With x0 and x1 the parts with the register lowered and raised, and
        s-, s+ its lowering and raising, it returns
            y0 = x0 - g^dag g x0 + g^dag s- x1,   y1 = g^dag g x1 + s+ g x0,
        using g g^dag = 1 - g^dag g on x1: g^dag acts only after s- or g,
        so no intermediate holds more than the excitation of x.
        """
        q = bit - self.basis.n_sites
        if not 0 <= q < len(self.basis.register_pairs):
            raise ValueError(f"bit {bit} is not a register bit of the basis")
        raised, lowered = self.basis.register_pairs[q]
        w = self.annihilate(x)  # g x0 on lowered states, g x1 on raised ones
        # t = g x1 - g x0 + s- x1, so that y = x0 + g^dag t + s+ g x0
        t = -w
        t[raised] = w[raised]
        t[lowered] += x[raised]
        y = x.copy()
        y[raised] = 0.0
        y += self.create(t)
        y[raised] += w[lowered]
        return y


def _gather(index: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    # row r of the result is sum_j weights[r, j] * x[index[r, j]]
    return np.matmul(weights[:, None, :], np.take(x, index, axis=0))[:, 0]


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """Sparse matrix as (row, col, data) triplets; repeated entries add."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)


def kinetic_matrix(basis: FockBasis) -> CooMatrix:
    """Ring hopping sum a_j^dag a_{j+1} + h.c. (unit coupling, a_{N+1} = a_1).

    Per bond, each state with exactly one end occupied hops to the state
    with the other end occupied, signed by the parity of the occupied sites
    strictly between the ends.
    """
    masks, cols, hops, data = basis.masks, [], [], []
    for p, q in ring_bonds(basis.n_sites):
        lo, hi = sorted((p, q))
        ends = np.uint64((1 << (p - 1)) | (1 << (q - 1)))
        col = np.flatnonzero(np.bitwise_count(masks & ends) == 1)
        inside = np.bitwise_count(masks[col] & np.uint64((1 << (hi - 1)) - (1 << lo)))
        cols.append(col)
        hops.append(masks[col] ^ ends)
        data.append(1.0 - 2.0 * (inside & 1))
    rows = basis._find(np.concatenate(hops))
    return CooMatrix(rows, np.concatenate(cols), np.concatenate(data), (len(basis),) * 2)


def adjacent_pair_counts(basis: FockBasis) -> np.ndarray:
    """Per-basis-state count of occupied nearest-neighbour pairs on the ring."""
    masks, counts = basis.masks, np.zeros(len(basis))
    for p, q in ring_bonds(basis.n_sites):
        counts += (masks >> np.uint64(p - 1)) & (masks >> np.uint64(q - 1)) & 1
    return counts


def tj_hamiltonian(basis: FockBasis, j_coupling: float) -> CooMatrix:
    """Kinetic term plus j_coupling * sum_bonds n_j n_{j+1}.

    The hopping is the unit of energy and the bonds are the ring's, so
    J = 0 reproduces ``kinetic_matrix`` exactly.
    """
    k = kinetic_matrix(basis)
    diag = np.arange(len(basis))
    pairs = adjacent_pair_counts(basis)
    return CooMatrix(np.concatenate([k.row, diag]), np.concatenate([k.col, diag]),
                     np.concatenate([k.data, j_coupling * pairs]), k.shape)


class ExactEvolver:
    """exp(-i t H) of the ring t-J Hamiltonian as a Chebyshev series per sector.

    ``rows[k]`` is sector k of H = ``tj_hamiltonian(basis, j_coupling)``,
    checked Hermitian to 1e-12, as (index, weight, mid, half): [mid - half,
    mid + half] is its Gershgorin interval, and row r of ``_gather(index,
    weight, v)`` is (2 X v)_r for X = (H - mid) / half, padded with weight-0
    gathers to one width, at most 2k + 1 (k particles hop 2k ways).
    """

    def __init__(self, basis: FockBasis, j_coupling: float = 0.0):
        if not np.isfinite(j_coupling):
            raise ValueError(f"j_coupling must be finite, got {float(j_coupling)}")
        self.basis, self.rows = basis, []
        h = tj_hamiltonian(basis, j_coupling)
        row, col, data = h.row, h.col, h.data
        del h
        # sorted by row once, each row's entries in build order, so sector k
        # is one run of entries; every state has its diagonal entry
        order = np.argsort(row, kind="stable")
        row, col, data = row[order], col[order], data[order]
        del order
        edges = np.searchsorted(row, [s.start for s in basis.sectors] + [len(basis)])
        for k, (s, a, b) in enumerate(zip(basis.sectors, edges, edges[1:])):
            size, rs, cs, ds = s.stop - s.start, row[a:b], col[a:b], data[a:b]
            rs -= s.start
            cs -= s.start
            # H - H^dag with duplicates summed; an entry without a mirror meets a 0
            key = rs * size + cs
            by_key = np.argsort(key)
            key = key[by_key]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            key, value = key[first], np.add.reduceat(ds[by_key], first)
            del by_key, first
            mirror = key % size * size + key // size
            at = np.minimum(np.searchsorted(key, mirror), len(key) - 1)
            gap = np.abs(value - np.where(key[at] == mirror, value[at], 0.0)).max()
            del key, value, mirror, at
            if gap > 1e-12:
                raise RuntimeError(f"sector {k} of the t-J Hamiltonian is not Hermitian "
                                   f"(max |H - H^dag| = {gap:.3e} > 1e-12)")
            hop = (rs != cs) & (ds != 0)
            centre = np.bincount(rs[~hop], ds[~hop], size)
            radius = np.bincount(rs[hop], np.abs(ds[hop]), size)
            lo, hi = float(np.min(centre - radius)), float(np.max(centre + radius))
            mid, half = (lo + hi) / 2, max((hi - lo) / 2, 1e-12)  # vacuum sector: 1 x 1 zero
            rs, cs, ds = rs[hop], cs[hop], ds[hop]
            slot = 1 + np.arange(len(rs)) - np.searchsorted(rs, rs)
            index = np.repeat(np.arange(size)[:, None], slot.max(initial=0) + 1, axis=1)
            weight = np.zeros(index.shape)
            index[rs, slot], weight[rs, slot], weight[:, 0] = cs, ds, centre - mid
            del rs, cs, ds, slot
            weight *= 2.0 / half
            self.rows.append((index, weight, mid, half))

    def apply(self, fv: FockVector, t: float) -> FockVector:
        """exp(-i t H) on axis 0 of the amplitudes for one finite time t; per
        sector only the nonzero columns move, through
        e^{-i t mid} sum_k (2 - delta_k0) (-i)^k J_k(half t) T_k(X) (Tal-Ezer &
        Kosloff, J. Chem. Phys. 81, 3967 (1984)) in about half |t| + 11
        (half |t|)^{1/3} products: the cost grows with |t| times the spectral width.
        """
        if np.ndim(t) or not np.isfinite(t):
            raise ValueError(f"need one finite time, got t = {t!r}")
        got, own = (f"N={b.n_sites}, max_particles={b.max_particles}"
                    + (f", registers {b.n_a}+{b.n_b}" if b.n_a + b.n_b else "")
                    for b in (fv.basis, self.basis))
        if got != own:
            raise ValueError(f"state on a basis of {got}; the evolver's basis has {own}")
        cols = fv.amplitudes.reshape(len(fv.basis), -1).astype(complex, copy=False)
        y = np.zeros(cols.shape, dtype=complex)
        for s, (index, weight, mid, half) in zip(self.basis.sectors, self.rows):
            live = np.flatnonzero(np.any(cols[s] != 0, axis=0))
            if live.size == 0:
                continue
            j = _bessel_j(half * t)
            c = np.where(np.arange(len(j)) > 0, 2.0, 1.0) * j * (-1j) ** (np.arange(len(j)) % 4)
            # T_{-1} = T_1 starts the recurrence T_{k+1} = 2 X T_k - T_{k-1}
            v = cols[s, live]
            prev, cur, acc = 0.5 * _gather(index, weight, v), v, c[0] * v
            for ck in c[1:]:
                prev, cur = cur, np.subtract(_gather(index, weight, cur), prev, out=prev)
                acc += ck * cur
            y[s, live] = np.exp(-1j * t * mid) * acc
        return FockVector(y.reshape(fv.amplitudes.shape), fv.basis)


def _bessel_j(z: float) -> np.ndarray:
    """J_0(z) .. J_K(z), K the last order with |J_K(z)| > 1e-17.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    past the cut and normalized by J_0 + 2 sum J_{2k} = 1.  As |T_k(X)| <= 1,
    the cut moves exp(-i z X) v by at most 2 sum_{k>K} |J_k| |v|.  K >= |z|,
    since J_k(|z|) ~ 0.45 |z|^{-1/3} at k = ceil(|z|), and there on J_k > 0
    with J_{k+1}/J_k < |z| / (2k + 2 - |z|) (the recurrence as a continued
    fraction): the sum is below 1e-17 (2K + 4 - |z|) / (2K + 4 - 2|z|), or
    1e-15 at |z| = 1e5, far under the rounding of K recurrence steps.
    """
    a = abs(float(z))
    if a == 0.0:
        return np.ones(1)
    j = np.zeros(int(a + 12.0 * a ** (1.0 / 3.0)) + 22)
    j[-2] = 1.0
    for k in range(len(j) - 2, 0, -1):
        j[k - 1] = 2.0 * k / a * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] *= 1e-250
    j /= j[0] + 2.0 * j[2::2].sum()
    j = j[:np.flatnonzero(np.abs(j) > 1e-17)[-1] + 1]
    return j * np.sign(z) ** np.arange(len(j))


def build_encoder(g_coeffs: np.ndarray, basis: FockBasis) -> ModeOperator:
    """Mode operator of g, whose ``swap`` is the register/mode swap unitary.

    The swap maps |1>|vac> to |0> g^dag |vac> and leaves |0>|vac> alone.
    Its unitarity on the excitation-conserving reachable sector (ladder
    signs and the norm of g) is verified at build time.  The receiver's
    decoder is the same swap on its mode h.  (n, K) coefficients are K
    modes, one per amplitude column, each checked alone.
    """
    g_coeffs = np.asarray(g_coeffs, dtype=complex)
    for k, nrm in enumerate(_column_norms(g_coeffs)):
        excess = nrm**2 - 1.0
        if not abs(excess) <= 1e-10:  # a NaN norm fails too
            column = f" in column {k}" if g_coeffs.ndim > 1 else ""
            raise ValueError(f"mode coefficients must be normalized{column} "
                             f"(|g|^2 - 1 = {excess:.3e}, limit 1e-10)")
    if basis.ladder_defect:
        raise RuntimeError(
            f"register swap is not unitary on the reachable sector ({basis.ladder_defect} "
            f"ladder entries break the Jordan-Wigner rule)"
        )
    return ModeOperator(g_coeffs, basis)


def vacuum_vector(basis: FockBasis, messages: Sequence[np.ndarray]) -> FockVector:
    """Product state: message qubits x lattice vacuum x receiver |0> qubits.

    Only the masks with sender bits alone set are nonzero: each holds the
    product of its registers' message amplitudes times the vacuum amplitude 1.
    """
    if len(messages) > basis.max_particles:
        raise ValueError(f"basis truncated at {basis.max_particles} particles cannot carry "
                         f"{len(messages)} signals")
    if len(messages) != basis.n_a:
        raise ValueError(f"expected {basis.n_a} message states, got {len(messages)}")
    amp, masks = np.ones(1, dtype=complex), np.zeros(1, dtype=np.uint64)
    for alpha, psi in enumerate(messages, 1):
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (2,):
            raise ValueError("message states must be qubit 2-vectors")
        nrm = np.linalg.norm(psi)
        if not abs(nrm - 1.0) <= 1e-8:  # a NaN norm fails too
            raise ValueError(f"message states must be normalized, got norm {float(nrm)!r}")
        bit = np.uint64(1) << np.uint64(basis.register_bit("A", alpha))
        amp = np.concatenate([amp * psi[0], amp * psi[1]])
        masks = np.concatenate([masks, masks | bit])
    x = np.zeros(len(basis), dtype=complex)
    # the factor is the vacuum amplitude; multiplying by it signs zero parts
    # as the full tensor product would
    x[basis._find(masks)] = amp * (1.0 + 0.0j)
    return FockVector(x, basis)


def schedule(plan: ProtocolPlan) -> list[tuple[float, int, int]]:
    """(time, kind, signal) events in global order; kind 0 encodes, 1 decodes.

    Encodings sort before decodings at equal times.
    """
    m = plan.m_signals
    enc = [((alpha - 1) * plan.wait, 0, alpha) for alpha in range(1, m + 1)]
    dec = [(plan.decode_time + (b - 1) * plan.wait, 1, b) for b in range(1, m + 1)]
    return sorted(enc + dec)


def exchange_pairs(plan: ProtocolPlan) -> list[tuple[int, int]]:
    """Receiver pairs (alpha, beta) that Bob corrects with CZ(B_alpha, B_beta).

    Signal beta > alpha is still in the wire when alpha is decoded exactly
    when (beta - alpha) * wait <= decode_time; the decoder's a_h then
    anticommutes with beta's creator and puts (-1)^{n_beta} on B_alpha.
    """
    in_wire, pairs = [], []
    for _, kind, idx in schedule(plan):
        if kind == 0:
            in_wire.append(idx)
        else:
            in_wire.remove(idx)
            pairs += [(idx, beta) for beta in in_wire]
    return pairs


def exchange_correction(fv: FockVector, pairs: Sequence[tuple[int, int]]) -> FockVector:
    """CZ(B_alpha, B_beta) for each pair; it is its own inverse."""
    x, masks = fv.amplitudes.copy(), fv.basis.masks
    for alpha, beta in pairs:
        both = np.uint64((1 << fv.basis.register_bit("B", alpha))
                         | (1 << fv.basis.register_bit("B", beta)))
        x[masks & both == both] *= -1
    return FockVector(x, fv.basis)


class ProtocolEngine:
    """The timed protocol of one plan on the orbitals of its 2M event modes.

    g0 at each encoding time and the receiver mode h at each decoding time
    (``schedule``), propagated back to time 0 (see the module docstring):
    ``modes`` holds their (2M, r) coefficients on the r = min(N, 2M)
    orbitals of ``orbital_frame``, encodings 1..M then decodings 1..M.
    ``run`` works on ``basis``, ``fock_basis(r, M, M, M)`` unless replaced.
    """

    def __init__(self, plan: ProtocolPlan):
        self.plan = plan
        g0 = gaussian_packet(plan.packet, plan.n)
        h, _ = decode_mode(propagate(g0, plan.decode_time), plan.region_b)
        # each kind's times ascend with its signal index
        tau = [np.array([t for t, k, _ in schedule(plan) if k == kind]) for kind in (0, 1)]
        self.modes = orbital_frame(np.concatenate([propagate(g0, -tau[0]), propagate(h, -tau[1])]))
        m = plan.m_signals
        self.basis = oracle_basis(self.modes.shape[1], m, m)

    def run(self, messages: Sequence[np.ndarray]) -> FockVector:
        """The 2M register swaps in ``schedule`` order on ``basis``, with no
        evolution between them, then Bob's ``exchange_pairs`` CZ gates.

        Amplitude leaking out of the excitation-conserving sector aborts
        the run, and so does a basis that cannot hold M particles.
        """
        m = self.plan.m_signals
        if len(messages) != m:
            raise ValueError(f"expected {m} messages, got {len(messages)}")
        ops = [build_encoder(f, self.basis) for f in self.modes]
        events = [(ops[kind * m + idx - 1], "AB"[kind], idx)
                  for _, kind, idx in schedule(self.plan)]
        fv = _run_events(vacuum_vector(self.basis, messages), events)
        return exchange_correction(fv, exchange_pairs(self.plan))


def _run_events(fv: FockVector, events) -> FockVector:
    """Swap each (operator, side, register) event's register with the operator's
    mode, in order; amplitude leaking out of the excitation-conserving sector,
    in any column, aborts."""
    x = fv.amplitudes
    for op, side, idx in events:
        x = op.swap(x, fv.basis.register_bit(side, idx))
        for k, nrm in enumerate(_column_norms(x)):
            if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm fails too
                column = f" in column {k}" if x.ndim > 1 else ""
                raise RuntimeError(f"norm drifted to {nrm!r} after {side}{idx}{column}; "
                                   f"amplitude leaked out of the truncated sector")
    return FockVector(x, fv.basis)


def _column_norms(x: np.ndarray) -> list[float]:
    # the norm of each column along axis 0; a vector is one column
    return np.linalg.norm(x, axis=0).tolist() if x.ndim > 1 else [float(np.linalg.norm(x))]


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
    engine: ProtocolEngine,
) -> tuple[dict[int, dict[str, np.ndarray]], dict[int, float], dict[int, float]]:
    """Channel outputs and average fidelity per receiver register of an
    engine's protocol.

    Feeds each of the six axis states into every message register at once
    and reads every receiver state from the B registers' 2^M x 2^M density
    matrix.  Returns the outputs and fidelities of the exchange-corrected
    channel, then the fidelities without Bob's CZ gates, which are a sign
    pattern on that matrix.

    One run with input |+>^M serves all six inputs.  Every step conserves
    the total excitation (raised A registers + fermions + raised B
    registers): the swap trades a raised register for a fermion and the
    CZ gates are diagonal.  The
    input psi^M is sum_a psi_0^(M-|a|) psi_1^|a| |a>, so its final state is
    sum_n c_n T_n with T_n the excitation-n part of the |+>^M run's final
    state T and c_n = 2^(M/2) psi_0^(M-n) psi_1^n.  Read T as a matrix
    whose row is a mask's site and sender bits and whose column b is its
    receiver bits; a row has excitation r, its set bits, and with G_r[b, b']
    the sum of T[row, b] conj(T[row, b']) over the rows of excitation r,
    each input's B-register matrix is
    sum_r c_(r+|b|) conj(c_(r+|b'|)) G_r[b, b'], where c_n = 0 above n = M.
    """
    plan = engine.plan
    m, dim = plan.m_signals, 2**plan.m_signals
    # column alpha-1 holds B_alpha's bit of each receiver index b: bit alpha-1
    bits = (np.arange(dim)[:, None] >> np.arange(m)) & 1
    weight = bits.sum(axis=1)
    cz = np.ones(dim)
    for a, b in exchange_pairs(plan):
        cz[(bits[:, a - 1] & bits[:, b - 1]) == 1] *= -1
    fv = engine.run([SIX_DESIGN_STATES["x+"]] * m)
    shift = np.uint64(fv.basis.n_sites + fv.basis.n_a)
    row = fv.basis.masks & ((np.uint64(1) << shift) - np.uint64(1))
    col, excited = (fv.basis.masks >> shift).astype(np.intp), np.bitwise_count(row)
    gram = np.zeros((m + 1, dim, dim), dtype=complex)
    for r in range(m + 1):
        # a basis capped above M excitations holds zeros past the cap
        on, cols = (excited == r) & (weight[col] <= m - r), np.flatnonzero(weight <= m - r)
        rows, at = np.unique(row[on], return_inverse=True)
        y = np.zeros((len(rows), len(cols)), dtype=complex)
        y[at, np.searchsorted(cols, col[on])] = fv.amplitudes[on]
        gram[r][np.ix_(cols, cols)] = y.T @ y.conj()
    # excitation r + |b| of each (r, b), capped at M + 1 where c_n is 0
    excitation = np.minimum(np.arange(m + 1)[:, None] + weight, m + 1)
    n = np.arange(m + 1)
    outputs: dict[int, dict[str, np.ndarray]] = {a: {} for a in range(1, m + 1)}
    raw: dict[int, dict[str, np.ndarray]] = {a: {} for a in range(1, m + 1)}
    for label, psi in SIX_DESIGN_STATES.items():
        c = np.append(2.0 ** (m / 2) * psi[0] ** (m - n) * psi[1] ** n, 0.0)[excitation]
        joint = np.einsum("rb,rc,rbc->bc", c, c.conj(), gram)
        for rho, out in ((joint, outputs), (joint * np.outer(cz, cz), raw)):
            for alpha in range(1, m + 1):
                r = rho.reshape(2 ** (m - alpha), 2, 2 ** (alpha - 1),
                                2 ** (m - alpha), 2, 2 ** (alpha - 1))
                out[alpha][label] = np.einsum("aibajb->ij", r)
    fids = {a: average_fidelity(outputs[a]) for a in outputs}
    return outputs, fids, {a: average_fidelity(raw[a]) for a in raw}


def orbital_frame(modes: np.ndarray) -> np.ndarray:
    """Coefficients of K single-particle modes (K, N) on min(N, K) orbitals that span them.

    One reduced QR of the (N, K) mode matrix: Q's orthonormal columns are
    the orbitals and column e of R, row e of the result, is mode e on them.
    Q is an isometry, so each row keeps its mode's norm and overlaps, and
    every product of the modes' creators keeps its norm.  Only R is formed.
    Leading axes are independent sets of modes, all in one batched QR.
    """
    r = np.linalg.qr(np.asarray(modes, dtype=complex).swapaxes(-1, -2), mode="r")
    return r.swapaxes(-1, -2)


def oracle_basis(orbitals: int, m: int, n_b: int) -> FockBasis:
    """``fock_basis(orbitals, m, m, n_b)``, with a size error that names M and the orbitals."""
    try:
        return fock_basis(orbitals, m, m, n_b)
    except ValueError:
        raise ValueError(f"M = {m} is past the exact oracle's reach: {orbitals} orbitals and "
                         f"{m + n_b} registers exceed its basis limit ({_MAX_DIM} states, "
                         f"64 bits)") from None


def run_encoding_sequence(
    coeff_pairs: Sequence[tuple[complex, complex]], modes: np.ndarray, basis: FockBasis
) -> FockVector:
    """Swap each message register with its signal's mode in turn.

    coeff_pairs are the (c, d) amplitudes of each message qubit and modes
    the (M, n) coefficients of each signal's mode on the basis's n sites or
    orbitals, or (M, n, K) for K independent runs, one amplitude column
    each; the basis has the M sender registers and no evolution runs
    between the swaps.  With the current-time modes f_alpha =
    U((M - alpha) wait) g0, ``orbital_frame`` of them and
    ``basis = fock_basis(M, M, M)``, this is the timed free-wire encoding
    sequence exactly (see the module docstring).
    Like ``ProtocolEngine.run`` it aborts when amplitude leaks out of the
    truncated sector.
    """
    m, modes = len(coeff_pairs), np.asarray(modes, dtype=complex)
    if modes.shape[:2] != (m, basis.n_sites) or modes.ndim > 3:
        raise ValueError(f"need one mode per signal, shape {(m, basis.n_sites)}; "
                         f"got {modes.shape}")
    messages = [np.array([c, d], dtype=complex) for c, d in coeff_pairs]
    events = [(build_encoder(f, basis), "A", alpha) for alpha, f in enumerate(modes, 1)]
    x = vacuum_vector(basis, messages).amplitudes
    x = np.repeat(x[:, None], modes.shape[2], axis=1) if modes.ndim > 2 else x
    return _run_events(FockVector(x, basis), events)


def encoding_residual_norm(
    actual: FockVector,
    coeff_pairs: Sequence[tuple[complex, complex]],
    modes: np.ndarray,
) -> float:
    """Norm distance from the ideal independent-mode product state.

    The ideal, on the basis of ``actual``, keeps every register in |0> and
    builds (c_M + d_M a^dag(f_M)) ... (c_1 + d_1 a^dag(f_1)) |vac> from the
    (M, n) modes f in the basis's frame, as ``run_encoding_sequence`` takes
    them (signal 1 applied first); it is deliberately not renormalized.
    With (M, n, K) modes and (dim, K) amplitudes it returns the K column
    residuals, each the norm of its column alone.
    """
    basis, modes = actual.basis, np.asarray(modes, dtype=complex)
    shape = (basis.n_a, basis.n_sites) + actual.amplitudes.shape[1:]
    if len(coeff_pairs) != basis.n_a or modes.shape != shape:
        raise ValueError(f"need {basis.n_a} coefficient pairs and modes of shape "
                         f"{shape}; got {len(coeff_pairs)}, {modes.shape}")
    state = np.zeros(actual.amplitudes.shape, dtype=complex)
    state[0] = 1.0
    for (c, d), f in zip(coeff_pairs, modes):
        state = c * state + d * ModeOperator(f, basis).create(state)
    diff = (actual.amplitudes - state).reshape(len(state), -1)
    norms = [float(np.linalg.norm(col)) for col in diff.T]
    return norms[0] if state.ndim == 1 else np.array(norms)


def tj_interaction_error(fv: FockVector) -> float:
    """Norm of the density-density interaction applied to the state.

    The interaction sum_bonds n_j n_{j+1} is diagonal in the occupation
    basis, so this is the RMS adjacent-pair count; it vanishes identically
    on single-particle states.
    """
    return float(np.linalg.norm(fv.amplitudes * adjacent_pair_counts(fv.basis)))


def evolution_difference(
    fv: FockVector, times: Sequence[float], j_coupling: float
) -> list[float]:
    """Norm difference between interacting and free evolution of a state.

    For each time s, evolves under kinetic + J * interaction and under the
    plain kinetic term, both exactly, and returns the norm of the
    difference; compare against |s| |J| times the interaction norm.  Each
    Hamiltonian's evolver is built once for all the times.
    """
    free, inter = ExactEvolver(fv.basis), ExactEvolver(fv.basis, j_coupling)
    return [float(np.linalg.norm(inter.apply(fv, s).amplitudes - free.apply(fv, s).amplitudes))
            for s in times]


def two_packet_state(basis: FockBasis, params_a, params_b) -> FockVector:
    """Normalized two-fermion state from two packet modes (no registers)."""
    ga = gaussian_packet(params_a, basis.n_sites)
    gb = gaussian_packet(params_b, basis.n_sites)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    state = ModeOperator(ga, basis).create(ModeOperator(gb, basis).create(vac))
    nrm = np.linalg.norm(state)
    if nrm < 1e-12:
        raise ValueError("packet modes coincide; two-particle state vanishes")
    return FockVector(state / nrm, basis)
