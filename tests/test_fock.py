import dataclasses
import gc
import tracemalloc
from math import ceil

import numpy as np
import pytest
from scipy import sparse
from references import (
    OrbitalRegisterEngine,
    RegisterTensor,
    SectorEvolver,
    SiteFrameEngine,
    basis_index,
    loop_annihilator,
    operational_ladder_defect,
    reduced_qubit,
    register_exchange_correction,
    register_two_design,
    residual_norm_per_point,
    ring_translation,
    site_frame_encoding,
    symmetry_defects,
    to_register_tensor,
    total_excitation_operator,
    validate_qubit_state,
)

from fermiwire.lattice import propagate, ring_bonds
from fermiwire.protocol import encoding_error_bound, error_budget, plan_protocol
from fermiwire.wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    carrier_mode,
    gaussian_packet,
)
from fermiwire import fock
from fermiwire.fock import (
    ExactEvolver,
    FockVector,
    ModeOperator,
    ProtocolEngine,
    SIX_DESIGN_STATES,
    average_fidelity,
    build_encoder,
    encoding_residual_norm,
    evolution_difference,
    fock_basis,
    kinetic_matrix,
    run_encoding_sequence,
    tj_hamiltonian,
    tj_interaction_error,
    two_design_fidelities,
    two_packet_state,
    vacuum_vector,
)

BUDGET = PacketBudget(c=9.0, kappa=1.0)


def random_mode(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def dense(op):
    # the production annihilator applied to identity columns
    return op.annihilate(np.eye(len(op.basis), dtype=complex))


def dense_dag(op):
    # the production creator applied to identity columns
    return op.create(np.eye(len(op.basis), dtype=complex))


def dense_swap(op, register=("A", 1)):
    # the production swap of one register with the mode, on identity columns
    return op.swap(np.eye(len(op.basis), dtype=complex), op.basis.register_bit(*register))


def raising(basis, bit):
    # s+ of one register bit as a dense matrix, from the masks
    index, out = basis_index(basis), np.zeros((len(basis),) * 2)
    for i, s in enumerate(basis.masks.tolist()):
        if not s >> bit & 1 and (s | 1 << bit) in index:
            out[index[s | 1 << bit], i] = 1.0
    return out


def csr(m):
    # a production (row, col, data) matrix as scipy CSR
    return sparse.coo_matrix((m.data, (m.row, m.col)), shape=m.shape).tocsr()


# ---------------------------------------------------------------- basis


def _sorted_scan_basis(n, m_max):
    # the original construction: every mask of 2^n, sorted by particle
    # number and then lexicographically on (n_1, .., n_N)
    masks = [s for s in range(1 << n) if s.bit_count() <= m_max]
    masks.sort(key=lambda s: (s.bit_count(), tuple((s >> i) & 1 for i in range(n))))
    return masks


def test_basis_matches_sorted_scan_and_dimension_guard():
    for n in range(1, 11):
        for m_max in range(1, n + 1):
            assert fock_basis(n, m_max).masks.tolist() == _sorted_scan_basis(n, m_max)
    big = fock_basis(24, 3)
    assert len(big) == 2325
    assert big.masks[0] == 0 and basis_index(big)[big.masks.tolist()[-1]] == 2324
    with pytest.raises(ValueError, match=r"N=21, max_particles=21"):
        fock_basis(21, 21)
    with pytest.raises(ValueError, match=r"N=40, max_particles=6"):
        fock_basis(40, 6)
    assert big.particle_counts.tolist() == [s.bit_count() for s in big.masks.tolist()]
    # register bits sit above the sites and order like further sites
    assert fock_basis(4, 3, 2, 1).masks.tolist() == _sorted_scan_basis(7, 3)


def test_basis_rejects_more_than_64_mask_bits():
    # sites and registers share one uint64 mask, so a site-frame basis with
    # registers reaches only N + 2M <= 64
    assert len(fock_basis(60, 1, 2, 2)) == 65
    with pytest.raises(ValueError, match=r"^60 sites, 3 sender and 2 receiver registers need "
                                         r"65 mask bits; a uint64 mask holds 64$"):
        fock_basis(60, 1, 3, 2)
    with pytest.raises(ValueError, match=r"^65 sites, 0 sender and 0 receiver registers"):
        fock_basis(65, 1)


def test_basis_ordering_and_vacuum():
    basis = fock_basis(4, 2)
    assert basis.masks[0] == 0
    counts = [s.bit_count() for s in basis.masks.tolist()]
    assert counts == sorted(counts)
    assert len(basis) == 1 + 4 + 6
    # index maps both directions
    index = basis_index(basis)
    for i, s in enumerate(basis.masks.tolist()):
        assert index[s] == i
    # within a particle number, lexicographic on (n_1, .., n_N)
    occupations = [tuple((s >> i) & 1 for i in range(4)) for s in basis.masks.tolist()]
    assert occupations == sorted(occupations, key=lambda o: (sum(o), o))
    assert occupations[index[0b0110]] == (0, 1, 1, 0)


# ---------------------------------------------------------------- operators


def _assert_same_csr_bytes(got, want):
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n, m_max", [(6, 2), (8, 3), (8, 8), (14, 3)])
def test_mode_annihilator_matches_loop_reference_bytes(n, m_max):
    basis = fock_basis(n, m_max)
    rng = np.random.default_rng(n * 10 + m_max)
    for _ in range(3):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[rng.random(n) < 0.3] = 0.0
        c[0] = 0.0
        got = sparse.csr_matrix(dense(ModeOperator(c, basis)))
        _assert_same_csr_bytes(got, loop_annihilator(c, basis))


def _ref_bonds(n):
    return [(j, j + 1) for j in range(1, n)] + [(n, 1)]


def _loop_kinetic(basis):
    # independent reference: hop each occupied site of every state onto an
    # empty neighbour, signing by the occupied sites passed over
    index, rows, cols, data = basis_index(basis), [], [], []
    for col, s in enumerate(basis.masks.tolist()):
        for p, q in _ref_bonds(basis.n_sites):
            for src, dst in ((q, p), (p, q)):
                bs, bd = 1 << (src - 1), 1 << (dst - 1)
                if s & bs and not s & bd:
                    sign = -1.0 if (s & (bs - 1)).bit_count() & 1 else 1.0
                    s1 = s ^ bs
                    if (s1 & (bd - 1)).bit_count() & 1:
                        sign = -sign
                    rows.append(index[s1 | bd])
                    cols.append(col)
                    data.append(sign)
    f = len(basis)
    return sparse.csr_matrix((np.array(data), (rows, cols)), shape=(f, f))


@pytest.mark.parametrize("n, m_max", [(6, 2), (8, 3), (8, 8), (14, 3)])
def test_kinetic_and_pair_counts_match_loop_reference(n, m_max):
    basis = fock_basis(n, m_max)
    assert ring_bonds(n) == _ref_bonds(n)
    _assert_same_csr_bytes(csr(kinetic_matrix(basis)), _loop_kinetic(basis))
    pairs = [
        sum(s >> (p - 1) & s >> (q - 1) & 1 for p, q in _ref_bonds(n))
        for s in basis.masks.tolist()
    ]
    assert fock.adjacent_pair_counts(basis).tolist() == pairs


def _loop_ladder(basis):
    # independent reference: walk every state's sites; the sign of a_site is
    # (-1)^(occupied sites below it) in both directions
    index, ladder = basis_index(basis), []
    masks = basis.masks.tolist()
    for j in range(basis.n_sites):
        on = [i for i, s in enumerate(masks) if s >> j & 1]
        off = [index[masks[i] ^ (1 << j)] for i in on]
        sign = [-1 if (masks[i] & ((1 << j) - 1)).bit_count() % 2 else 1 for i in on]
        ladder.append(tuple(np.array(a, dtype=dt) for a, dt in
                            ((on, np.int32), (off, np.int32), (sign, np.int8))))
    return ladder


@pytest.mark.parametrize("n, m_max", [(6, 3), (8, 8)])
def test_ladder_matches_loop_reference_bytes(n, m_max):
    # with and without register bits above the sites
    for basis in (fock_basis(n, m_max), fock_basis(n, m_max, 2, 1)):
        want = _loop_ladder(basis)
        assert len(basis.ladder) == len(want) == n
        for got, ref in zip(basis.ladder, want, strict=True):
            for g, w in zip(got, ref, strict=True):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        assert basis.ladder_defect == 0


def test_annihilation_table_memory():
    # one (on, off, sign) rung per site: an int32, an int32 and an int8 per
    # (state, occupied site) entry.  The per-sector int64/float64 tables with
    # two F x N uint64 temporaries peaked at 39.3 MB (37.5 MiB) on this basis
    basis = fock_basis(16, 16)
    basis._sorted
    tracemalloc.start()
    try:
        ladder = basis.ladder
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(on.size for on, _, _ in ladder)
    assert entries == 16 * 2**15
    assert sum(a.nbytes for rung in ladder for a in rung) / entries == 9
    assert peak <= 8.0 * 2**20


def test_ladder_memory():
    # the ladder and the register pairs of an excitation basis keep 9 B per
    # (state, occupied site) and 8 B per (state, raised register), and build
    # them with a few per-state temporaries at a time
    basis = fock_basis(10, 5, 3, 3)
    basis._sorted
    counts = (basis.masks[:, None] >> np.arange(16, dtype=np.uint64)) & np.uint64(1)
    sites, registers = int(counts[:, :10].sum()), int(counts[:, 10:].sum())
    tracemalloc.start()
    try:
        tables = basis.ladder, basis.register_pairs
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables[0]) == 10 and len(tables[1]) == 6
    assert kept <= 9 * sites + 8 * registers + 2**14
    assert peak <= kept + 3 * 8 * len(basis)


def test_basis_keeps_only_its_masks():
    # the basis is its uint64 masks, 8 B per state (0.5 MiB here); a tuple
    # of Python ints beside them kept 3.0 MiB in all.  A full collection
    # empties the interpreter's free lists, which would count as kept otherwise
    tracemalloc.start()
    try:
        basis = fock_basis(16, 16)
        masks = basis.masks
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.dtype == np.uint64 and len(basis) == 2**16
    assert kept <= 1.5 * 2**20


def test_mode_annihilator_nilpotent():
    basis = fock_basis(5, 3)
    rng = np.random.default_rng(0)
    a = dense(ModeOperator(random_mode(5, rng), basis))
    assert abs(a @ a).max() < 1e-14


def test_creation_antisymmetry_sign():
    basis = fock_basis(4, 2)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    a1d = ModeOperator(np.eye(4)[0], basis).create
    a2d = ModeOperator(np.eye(4)[1], basis).create
    left = a1d(a2d(vac))
    right = a2d(a1d(vac))
    assert np.allclose(left, -right, atol=1e-14)


def test_anticommutator_matches_overlap_below_truncation():
    n, m_max = 6, 3
    basis = fock_basis(n, m_max)
    rng = np.random.default_rng(2)
    f_mode = random_mode(n, rng)
    g_mode = random_mode(n, rng)
    fa = dense(ModeOperator(f_mode, basis))
    gd = dense_dag(ModeOperator(g_mode, basis))
    anti = fa @ gd + gd @ fa
    want = np.vdot(f_mode, g_mode)
    # exact identity away from the top particle-number sector, where the
    # raising half of the anticommutator is cut off by the truncation
    keep = [i for i, s in enumerate(basis.masks.tolist()) if s.bit_count() < m_max]
    sub = anti[np.ix_(keep, keep)]
    assert np.max(np.abs(sub - want * np.eye(len(keep)))) < 1e-12


def test_self_anticommutator_is_identity_full_space():
    n = 5
    basis = fock_basis(n, n)
    rng = np.random.default_rng(3)
    op = ModeOperator(random_mode(n, rng), basis)
    g, gd = dense(op), dense_dag(op)
    assert np.array_equal(gd, g.conj().T)
    anti = g @ gd + gd @ g
    assert np.max(np.abs(anti - np.eye(len(basis)))) < 1e-12


def test_mode_creator_reproduces_amplitudes():
    n = 6
    basis = fock_basis(n, 2)
    rng = np.random.default_rng(4)
    v = random_mode(n, rng)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    created = ModeOperator(v, basis).create(vac)
    amps = np.zeros(n, dtype=complex)
    for i, s in enumerate(basis.masks.tolist()):
        if s.bit_count() == 1:
            amps[s.bit_length() - 1] = created[i]
    assert np.allclose(amps, v, atol=1e-14)


def test_jordan_wigner_cross_check():
    # independent dense construction of a_j via Pauli strings
    n = 4
    basis = fock_basis(n, n)
    id2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    low = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0| in (vacant, occupied) order

    def jw_annihilator(j):
        ops = [z] * (j - 1) + [low.T] + [id2] * (n - j)
        m = np.array([[1.0]])
        for op in ops:
            m = np.kron(m, op)
        return m

    # map bitmask basis to kron-ordered binary index (site 1 most significant)
    def kron_index(mask):
        idx = 0
        for site in range(1, n + 1):
            idx = 2 * idx + ((mask >> (site - 1)) & 1)
        return idx

    perm = np.zeros((2**n, len(basis)))
    for i, s in enumerate(basis.masks.tolist()):
        perm[kron_index(s), i] = 1.0
    for j in range(1, n + 1):
        ours = dense(ModeOperator(np.eye(n)[j - 1], basis))
        theirs = perm.T @ jw_annihilator(j) @ perm
        assert np.max(np.abs(ours - theirs)) < 1e-14


# ---------------------------------------------------------------- encoder


def encoder_fixture(n=6, m_max=2):
    # one sender register above n sites, at most m_max excitations in all
    basis = fock_basis(n, m_max, 1)
    g = gaussian_packet(PacketParams(1.0, 2, 4, Region(1, 3)), n)
    return basis, g, build_encoder(g, basis)


def unit(basis, mask):
    vec = np.zeros(len(basis), dtype=complex)
    vec[basis_index(basis)[mask]] = 1.0
    return vec


def test_encoder_creates_mode_from_raised_register():
    basis, g, u = encoder_fixture()
    out = dense_swap(u) @ unit(basis, 1 << 6)  # |1> x vacuum
    created = ModeOperator(g, basis).create(unit(basis, 0))
    # register lowered, mode created; created has no register bit set
    assert np.allclose(out, created, atol=1e-12)
    assert np.linalg.norm(out[basis.masks >> np.uint64(6) != 0]) < 1e-12


def test_encoder_leaves_lowered_register_alone():
    basis, g, u = encoder_fixture()
    out = dense_swap(u) @ unit(basis, 0)  # |0> x vacuum
    assert abs(out[0] - 1.0) < 1e-12
    assert np.linalg.norm(out[1:]) < 1e-12


def test_encoder_unitary_on_reachable_sector():
    # the excitation basis is the reachable sector, its top excitation included
    basis, g, u = encoder_fixture()
    u = dense_swap(u)
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(basis)))) < 1e-10


def swap_block_exponential(mode_coeffs, basis, bit):
    # independent reference for the five-term swap: the two-exponential form
    # exp(-i pi/2 (s+ s- g g^dag + s- s+ g^dag g)) exp(i pi/2 (s+ g + s- g^dag))
    # by dense matrix exponentials, from the loop-built annihilator and the
    # register's raising matrix
    from scipy.linalg import expm

    a = loop_annihilator(mode_coeffs, basis).toarray()
    ad, up = a.conj().T, raising(basis, bit)
    x = up @ a + up.T @ ad
    p = up @ up.T @ a @ ad + up.T @ up @ ad @ a
    return expm(-0.5j * np.pi * p) @ expm(0.5j * np.pi * x)


def test_encoder_matches_exponential_form_full_space():
    n = 5
    basis = fock_basis(n, n + 1, 1)  # all 2^6 masks
    g = gaussian_packet(PacketParams(1.2, 2, 4, Region(1, 4)), n)
    u5 = dense_swap(build_encoder(g, basis))
    ue = swap_block_exponential(g, basis, n)
    assert np.max(np.abs(u5 - ue)) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_swap_at_the_excitation_cap_matches_the_exponential_form(m):
    # states at the cap with a raised register: g^dag acts only after s- or
    # g, since applied to them first it leaves the basis and is cut off
    n, rng = 5, np.random.default_rng(40 + m)
    capped, full = fock_basis(n, m, 2), fock_basis(n, n + 2, 2)
    registers = np.uint64(3 << n)
    at_cap = (capped.particle_counts == m) & (capped.masks & registers != 0)
    x = rng.standard_normal(len(capped)) + 1j * rng.standard_normal(len(capped))
    x[~at_cap] = 0.0
    x /= np.linalg.norm(x)
    embed = [basis_index(full)[s] for s in capped.masks.tolist()]
    outside = np.setdiff1d(np.arange(len(full)), embed)
    g = random_mode(n, rng)
    op = build_encoder(g, capped)
    for idx in (1, 2):
        bit = capped.register_bit("A", idx)
        want = swap_block_exponential(g, full, bit)[:, embed] @ x
        assert np.abs(want[outside]).max() < 1e-12
        assert np.abs(op.swap(x, bit) - want[embed]).max() < 1e-12


def test_decoder_swaps_matched_mode():
    basis, g, _ = encoder_fixture()
    v = dense_swap(build_encoder(g, basis))
    created = ModeOperator(g, basis).create(unit(basis, 0))  # |0> x h^dag|vac>
    out = v @ created
    assert np.linalg.norm(out - unit(basis, 1 << 6)) < 1e-12  # |1> x vacuum
    out0 = v @ unit(basis, 0)
    assert abs(out0[0] - 1.0) < 1e-12


def test_encoder_rejects_unnormalized_mode():
    basis = fock_basis(4, 2)
    with pytest.raises(ValueError):
        build_encoder(np.ones(4, dtype=complex), basis)
    # one norm check: |g|^2 - 1 = 4e-9 is a bad mode, not a bad basis
    g = np.full(4, 0.5 * (1 + 2e-9), dtype=complex)
    with pytest.raises(ValueError, match=r"normalized \(\|g\|\^2 - 1 = 4\.000e-09, limit 1e-10\)$"):
        build_encoder(g, basis)
    with pytest.raises(ValueError, match=r"\|g\|\^2 - 1 = nan"):
        build_encoder(np.full(4, np.nan), basis)
    with pytest.raises(ValueError, match=r"coefficient length \(3,\) does not match 4 sites"):
        ModeOperator(np.ones(3), basis)


@pytest.mark.parametrize("n", [10, 14])
def test_ladder_certificate_agrees_with_the_operational_check(n):
    basis = fock_basis(n, 3)
    assert basis.ladder_defect == 0
    assert operational_ladder_defect(basis) <= 1e-12


@pytest.mark.parametrize("part", ["sign", "target", "missing"])
@pytest.mark.parametrize("rung", [0, 1])
def test_one_corrupted_ladder_entry_fails_the_unitarity_check(part, rung):
    # rung j is the table of site j + 1 on a basis with two registers
    basis = fock_basis(6, 3, 1, 1)
    g = random_mode(6, np.random.default_rng(6))
    build_encoder(g, basis)
    ladder = [[a.copy() for a in r] for r in basis.ladder]
    on, off, sign = ladder[rung]
    if part == "sign":
        sign[0] *= -1
    elif part == "target":
        off[0] = (off[0] + 1) % len(basis)
    else:
        ladder[rung] = [a[1:] for a in ladder[rung]]
    bad = dataclasses.replace(basis)
    bad.__dict__["ladder"] = tuple(tuple(r) for r in ladder)
    assert bad.ladder_defect == 1
    with pytest.raises(RuntimeError, match=r"not unitary on the reachable sector \(1 ladder"):
        build_encoder(g, bad)


def test_swap_skips_zero_blocks_and_matches_dense_reference():
    # the whole-vector swap against the register-axis form on the 2F space,
    # [[1 - a^dag a, a^dag], [a, 1 - a a^dag]] with the loop-built a, on
    # columns with whole excitation sectors zero; those stay exactly zero
    basis = fock_basis(8, 3, 1)
    op = build_encoder(random_mode(8, np.random.default_rng(8)), basis)
    sites = fock_basis(8, 3)
    a = loop_annihilator(op.coeffs, sites).toarray()
    ad, eye = a.conj().T, np.eye(len(sites))
    reference = np.block([[eye - ad @ a, ad], [a, eye - a @ ad]])
    rng = np.random.default_rng(9)
    x = rng.standard_normal((len(basis), 5)) + 1j * rng.standard_normal((len(basis), 5))
    # (excitation, column) pairs set to zero; column 4 keeps all of them
    counts = basis.particle_counts
    unreached = [(1, 0), (2, 0), (3, 0), (1, 1), (3, 2), (2, 3), (3, 3)]
    for e, c in unreached:
        x[counts == e, c] = 0.0
    y = op.swap(x, 8)
    for c in range(5):
        before, after = (to_register_tensor(FockVector(v[:, c], basis)).tensor.ravel()
                         for v in (x, y))
        assert np.max(np.abs(after - reference @ before)) < 1e-12
    for e, c in unreached:
        assert np.all(y[counts == e, c] == 0)
    assert np.all(y[:, 4] != 0)


# ---------------------------------------------------------------- evolution


def test_excitation_conservation_commutators():
    n, m_max = 6, 2
    basis = fock_basis(n, m_max, 1)
    g = gaussian_packet(PacketParams(1.0, 2, 4, Region(1, 3)), n)
    u = dense_swap(build_encoder(g, basis))
    number = np.diag([float(s.bit_count()) for s in basis.masks.tolist()])
    assert np.max(np.abs(u @ number - number @ u)) < 1e-10
    sites = fock_basis(n, m_max)
    ham = csr(kinetic_matrix(sites)).toarray()
    number_f = np.diag([float(s.bit_count()) for s in sites.masks.tolist()])
    assert np.max(np.abs(ham @ number_f - number_f @ ham)) < 1e-12


def test_total_excitation_conserved_through_protocol():
    plan = plan_protocol(10, 2, BUDGET, 0.1, wait=4.0, width=3)
    engine = ProtocolEngine(plan)
    diag = total_excitation_operator(fock_basis(engine.basis.n_sites, 2), 2, 2)
    msgs = [np.array([0.6, 0.8]), np.array([0.0, 1.0])]
    expect = sum(abs(m[1]) ** 2 for m in msgs)
    before = fock.vacuum_vector(engine.basis, msgs)
    after = engine.run(msgs)
    for fv in (before, after):
        value = float(np.sum(diag * np.abs(to_register_tensor(fv).tensor) ** 2))
        assert abs(value - expect) < 1e-10


@pytest.mark.parametrize("n, m, fraction", [(10, 2, 0.5), (12, 3, 0.6)])
def test_protocol_run_has_no_weight_above_m_excitations(n, m, fraction):
    plan = plan_protocol(n, m, BUDGET, 0.1, wait=1.0, width=3)
    plan = dataclasses.replace(plan, wait=fraction * plan.decode_time)
    msgs = [SIX_DESIGN_STATES["x+"], SIX_DESIGN_STATES["y-"], SIX_DESIGN_STATES["z-"]][:m]
    # on a basis that holds up to 2M excitations
    engine = ProtocolEngine(plan)
    engine.basis = fock_basis(engine.basis.n_sites, 2 * m, m, m)
    fv = engine.run(msgs)
    assert np.sum(np.abs(fv.amplitudes[fv.basis.particle_counts > m]) ** 2) == 0.0
    assert abs(np.linalg.norm(fv.amplitudes) - 1.0) < 1e-10
    # and the receiver states read from it are those of the capped basis
    outputs = two_design_fidelities(engine)[0]
    for a, rhos in two_design_fidelities(ProtocolEngine(plan))[0].items():
        for label, rho in rhos.items():
            assert np.abs(outputs[a][label] - rho).max() < 1e-14


def test_exchange_pairs_follow_the_schedule():
    plan = plan_protocol(12, 3, BUDGET, 0.1, wait=1.0, width=3)
    t_dec = plan.decode_time
    pairs = {
        frac: fock.exchange_pairs(dataclasses.replace(plan, wait=frac * t_dec))
        for frac in (0.4, 0.5, 0.6, 1.0, 1.2)
    }
    # beta is in the wire at alpha's decode when (beta - alpha) * wait <= T;
    # at a tie the encoding sorts first
    assert pairs[0.4] == [(1, 2), (1, 3), (2, 3)]
    assert pairs[0.5] == [(1, 2), (1, 3), (2, 3)]
    assert pairs[0.6] == [(1, 2), (2, 3)]
    assert pairs[1.0] == [(1, 2), (2, 3)]
    assert pairs[1.2] == []


def test_exchange_correction_is_cz_on_receivers():
    basis = fock_basis(4, 4, 2, 2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    fv = FockVector(x, basis)
    got = to_register_tensor(fock.exchange_correction(fv, [(1, 2)])).tensor
    sign = np.array([1.0, 1.0, 1.0, -1.0]).reshape(1, 1, 1, 2, 2)
    assert np.array_equal(got, to_register_tensor(fv).tensor * sign)
    assert np.array_equal(fock.exchange_correction(fv, []).amplitudes, x)


def test_hamiltonian_hermitian_and_block_diagonal():
    basis = fock_basis(6, 3)
    h = csr(kinetic_matrix(basis)).toarray()
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    occ = np.array([s.bit_count() for s in basis.masks.tolist()])
    coupling = h[np.not_equal.outer(occ, occ)]
    assert np.max(np.abs(coupling)) == 0.0


def test_many_body_single_particle_sector_matches_lattice():
    n = 8
    basis = fock_basis(n, 1)
    g = gaussian_packet(PacketParams(1.35, 2, 6, Region(1, 3)), n)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    f1 = ModeOperator(g, basis).create(vac)
    ev = ExactEvolver(basis)
    t = 1.9
    fT = ev.apply(FockVector(f1, basis), t).amplitudes
    amps = np.zeros(n, dtype=complex)
    for i, s in enumerate(basis.masks.tolist()):
        if s.bit_count() == 1:
            amps[s.bit_length() - 1] = fT[i]
    assert np.max(np.abs(amps - propagate(g, t))) < 1e-12


def _assert_matches_dense_expm(ev, ham, x, zero=(), tol=lambda t: 1e-11,
                               times=(-2.0, 0.0, 0.7, 5.3, 60.0)):
    # independent reference: dense expm of the whole truncated H on (F, 2, 2)
    # amplitudes; the (sector, column, column) blocks listed in zero must stay
    # exactly zero
    from scipy.linalg import expm

    basis = ev.basis
    fv = FockVector(x, basis)
    for t in times:
        got = ev.apply(fv, t).amplitudes
        want = np.einsum("fg,gab->fab", expm(-1j * t * csr(ham).toarray()), x)
        assert np.max(np.abs(got - want)) < tol(t)
        for k, a, b in zero:
            assert np.all(got[basis.sectors[k], a, b] == 0)


def _random_columns(basis, seed):
    rng = np.random.default_rng(seed)
    shape = (len(basis), 2, 2)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("m_max", [3, 8])
@pytest.mark.parametrize("j_coupling", [None, 1.3, -1.3])
def test_exact_evolver_matches_dense_expm(m_max, j_coupling):
    # four columns on N = 8; m_max = 8 is the full
    # Fock space, whose even sectors wrap with a sign
    n = 8
    basis = fock_basis(n, m_max)
    if j_coupling is None:
        ham, ev = kinetic_matrix(basis), ExactEvolver(basis)
    else:
        ham, ev = tj_hamiltonian(basis, j_coupling), ExactEvolver(basis, j_coupling)
    _assert_matches_dense_expm(ev, ham, _random_columns(basis, 7))


@pytest.mark.parametrize("n, m_max", [(7, 7), (9, 4)])
@pytest.mark.parametrize("j_coupling", [None, -0.8])
def test_exact_evolver_matches_dense_expm_on_odd_lattices(n, m_max, j_coupling):
    basis = fock_basis(n, m_max)
    j_coupling = 0.0 if j_coupling is None else j_coupling
    ham = tj_hamiltonian(basis, j_coupling)
    _assert_matches_dense_expm(ExactEvolver(basis, j_coupling), ham, _random_columns(basis, 3),
                               times=(0.0, 0.7, 5.3))


def test_exact_evolver_matches_dense_expm_at_strong_coupling():
    # J = 100 puts up to 200 on the top sector's diagonal, so its series runs
    # to 6444 terms at t = 60; the rounding of both sides grows with |t| times
    # the spectral width (|H| <= 202 by rows here)
    basis = fock_basis(8, 3)
    ham = tj_hamiltonian(basis, 100.0)
    width = np.abs(csr(ham)).sum(axis=1).max()
    _assert_matches_dense_expm(ExactEvolver(basis, 100.0), ham, _random_columns(basis, 5),
                               tol=lambda t: 5e-15 * (1.0 + abs(t) * width))


def test_bessel_coefficients_match_scipy():
    from scipy.special import jv

    # scipy's jv itself drifts by 8e-15 at z = 400 (against 40-digit values)
    for z in (0.0, 1e-3, 0.5, 3.0, 40.0, 400.0):
        for signed in (z, -z):
            got = fock._bessel_j(signed)
            k = np.arange(len(got) + 200)
            want = jv(k, signed)
            assert np.max(np.abs(got - want[:len(got)])) < 5e-14
            # every dropped term is below the cut, and so is their sum
            assert np.sum(np.abs(want[len(got):])) < 1e-16
            assert abs(got[-1]) > 1e-17
    assert fock._bessel_j(0.0).tolist() == [1.0]


def test_exact_evolver_rejects_a_state_of_another_basis():
    # a state of 3 particles came back with norm 0 from an evolver of 2, and a
    # 10-site state with norm 1 and the wrong physics from an 8-site one
    evolver = ExactEvolver(fock_basis(8, 2))
    for n, m in ((8, 3), (10, 2)):
        basis = fock_basis(n, m)
        fv = FockVector(np.eye(len(basis))[3], basis)
        with pytest.raises(ValueError, match=rf"state on a basis of N={n}, max_particles={m}; "
                                             r"the evolver's basis has N=8, max_particles=2$"):
            evolver.apply(fv, 0.5)
    # an equal basis built apart is accepted
    other = fock_basis(8, 2)
    fv = FockVector(np.eye(len(other))[3], other)
    assert abs(np.linalg.norm(evolver.apply(fv, 0.5).amplitudes) - 1.0) < 1e-14
    # nor a basis whose registers differ
    regs = fock_basis(8, 2, 1)
    with pytest.raises(ValueError, match=r"N=8, max_particles=2, registers 1\+0; the evolver's"):
        evolver.apply(FockVector(np.eye(len(regs))[3], regs), 0.5)


def test_exact_evolver_memory():
    # padded rows of width <= 2k + 1 per sector keep 16 B per slot (0.6 MiB
    # here), and the set-up peaks at 5.3 MiB
    basis = fock_basis(32, 3)
    basis.particle_counts, basis.sectors
    tracemalloc.start()
    try:
        evolver = ExactEvolver(basis, 1.0)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(evolver.rows) == 4
    assert kept <= 2 * 2**20
    assert peak <= 8 * 2**20


def test_exact_evolver_set_up_peak_at_four_particles():
    # 331,113 Hamiltonian entries, sorted by row once, each sector's mirror
    # entries found by searchsorted: the set-up peaks near 23 MiB, where a
    # mask per sector and a unique over 2 nnz keys peaked at 49.5 MiB
    basis = fock_basis(32, 4)
    basis.particle_counts, basis.sectors
    tracemalloc.start()
    try:
        evolver = ExactEvolver(basis, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(index.size for index, _, _, _ in evolver.rows) <= 9 * len(basis)
    assert peak <= 25 * 2**20


def test_translation_moves_each_creator_one_site():
    # T a_j^dag T^dag = a_{j+1}^dag (a_N^dag -> a_1^dag), checked against the
    # dense production creators on the full Fock space of an odd and an even ring
    for n in (5, 6):
        basis = fock_basis(n, n)
        index, sign = ring_translation(basis)
        t = np.zeros((len(basis),) * 2)
        t[index, np.arange(len(basis))] = sign
        assert np.allclose(t @ t.T, np.eye(len(basis)), atol=0)
        creators = [dense_dag(ModeOperator(np.eye(n)[j], basis)) for j in range(n)]
        for j in range(n):
            assert np.array_equal(t @ creators[j], creators[(j + 1) % n] @ t)


@pytest.mark.parametrize("n, m_max", [(5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (16, 4)])
@pytest.mark.parametrize("j_coupling", [0.0, 1.3, -1.3])
def test_tj_hamiltonian_is_hermitian_and_translation_invariant(n, m_max, j_coupling):
    # Hermiticity, which the Chebyshev series rests on, and translation
    # invariance, which checks the sign of the wrap bond's hops, exactly
    basis = fock_basis(n, m_max)
    assert symmetry_defects(basis, tj_hamiltonian(basis, j_coupling)) == (0.0, 0.0)


_MODELS = {"tight-binding": 0.0, "t-J": 1.3, "t-J at -J": -1.3}


@pytest.mark.parametrize("model", list(_MODELS))
def test_exact_evolver_keeps_zero_blocks_and_matches_dense_expm(model):
    j_coupling = _MODELS[model]
    basis = fock_basis(8, 3)
    ev = ExactEvolver(basis, j_coupling)
    x = _random_columns(basis, 11)
    # (sector, column, column) blocks set exactly to zero; sector 1 entirely
    zero = [(0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 1),
            (3, 1, 0)]
    for k, a, b in zero:
        x[basis.sectors[k], a, b] = 0.0
    _assert_matches_dense_expm(ev, tj_hamiltonian(basis, j_coupling), x, zero)
    # sector k's rows hold at most 2k hops and a diagonal entry, padded to
    # one width over the sector's states
    basis = fock_basis(16, 3)
    rows = ExactEvolver(basis, j_coupling).rows
    assert [len(index) for index, _, _, _ in rows] == [1, 16, 120, 560]
    for k, (index, weight, _, _) in enumerate(rows):
        assert weight.shape == index.shape
        assert index.shape[1] <= 2 * k + 1


def test_exact_evolver_rejects_a_one_sided_entry_and_a_non_finite_j(monkeypatch):
    basis = fock_basis(6, 3)
    sector = basis.sectors[2]
    build = fock.tj_hamiltonian

    def nudged(size):
        # one entry into the sector's first state, without its mirror
        def ham(b, j):
            h = build(b, j)
            return fock.CooMatrix(np.append(h.row, sector.start + 4),
                                  np.append(h.col, sector.start),
                                  np.append(h.data, size), h.shape)
        return ham

    monkeypatch.setattr(fock, "tj_hamiltonian", nudged(1e-14))
    ExactEvolver(basis)
    monkeypatch.setattr(fock, "tj_hamiltonian", nudged(1e-9))
    with pytest.raises(RuntimeError, match=r"sector 2 of the t-J Hamiltonian is not Hermitian "
                                           r"\(max \|H - H\^dag\| = 1\.000e-09 > 1e-12\)$"):
        ExactEvolver(basis)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"j_coupling must be finite, got {bad}$"):
            ExactEvolver(basis, bad)


# ---------------------------------------------------------------- protocol


def test_protocol_engine_vacuum_message_leaves_receiver_cold():
    plan = plan_protocol(8, 1, BUDGET, 0.1, wait=2.0, width=2)
    fv = ProtocolEngine(plan).run([np.array([1.0, 0.0])])
    rho = reduced_qubit(to_register_tensor(fv), "B", 1)
    assert abs(rho[0, 0] - 1.0) < 1e-12
    assert abs(rho[1, 1]) < 1e-12


def test_protocol_engine_perfect_transport_toy():
    plan = plan_protocol(8, 1, BUDGET, 0.1, wait=2.0, width=2)
    toy = dataclasses.replace(plan, region_b=Region(1, 8))
    _, fids, _ = two_design_fidelities(ProtocolEngine(toy))
    assert fids[1] > 1.0 - 1e-8


def test_protocol_engine_rejects_oversubscribed_basis():
    plan = plan_protocol(8, 2, BUDGET, 0.1, wait=2.0, width=2)
    engine = ProtocolEngine(plan)
    assert (engine.basis.n_sites, engine.basis.max_particles) == (4, 2)
    engine.basis = fock_basis(4, 1)
    with pytest.raises(ValueError, match=r"truncated at 1 particles cannot carry 2 signals$"):
        engine.run([SIX_DESIGN_STATES["z+"]] * 2)


def test_collision_residual_positive_and_bounded():
    n = 10
    g0 = gaussian_packet(PacketParams(1.0, 3, 8, Region(1, 5)), n)
    t = 0.4  # deliberate collision
    pairs = [(0.6 + 0j, 0.8j), (1 / np.sqrt(2) + 0j, 1 / np.sqrt(2) + 0j)]
    coeffs = fock.orbital_frame([propagate(g0, t), g0])
    actual = run_encoding_sequence(pairs, coeffs, fock_basis(2, 2, 2))
    resid = encoding_residual_norm(actual, pairs, coeffs)
    bound = encoding_error_bound(g0, t, 2)
    assert resid > 1e-3
    assert resid <= bound + 1e-8


def test_residual_zero_for_orthogonal_modes():
    n = 8
    g1 = gaussian_packet(PacketParams(0.8, 2, 6, Region(1, 3)), n)
    g2 = gaussian_packet(PacketParams(0.8, 6, 6, Region(5, 7)), n)
    pairs = [(0.6 + 0j, 0.8j), (0.8 + 0j, 0.6 + 0j)]
    # disjoint supports: exact product of independent modes, on the sites
    # and on the two orbitals that span the modes
    for modes, basis in (([g1, g2], fock_basis(n, 2, 2)),
                         (fock.orbital_frame([g1, g2]), fock_basis(2, 2, 2))):
        actual = run_encoding_sequence(pairs, modes, basis)
        assert encoding_residual_norm(actual, pairs, modes) < 1e-10


def test_orbital_frame_keeps_norms_and_overlaps():
    rng = np.random.default_rng(4)
    modes = np.array([random_mode(16, rng) for _ in range(4)])
    modes[2] = modes[0]  # a repeated mode leaves R with a zero on its diagonal
    coeffs = fock.orbital_frame(modes)
    assert coeffs.shape == (4, 4)
    gram = modes.conj() @ modes.T
    assert np.abs(coeffs.conj() @ coeffs.T - gram).max() <= 1e-14


@pytest.mark.parametrize("n", [8, 10, 14, 16])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_residuals_match_the_per_point_reference(n, m):
    # the oracle-bounds table (4 widths x 5 waits, each run on the M
    # orbitals of its current-time modes) against the timed encode/evolve
    # sequence on the N sites, point by point
    from fermiwire.harness import build_config, run

    table = run(build_config({"experiment": "OracleBounds", "N": n, "M": m}))
    assert len(table.rows) == 20
    evolver = ExactEvolver(fock_basis(n, m))
    pairs = [(complex(np.sqrt(1 - 0.4 * a / m)), complex(0, np.sqrt(0.4 * a / m)))
             for a in range(1, m + 1)]
    region = Region(1, min(5, n // 2))
    for t, sigma, resid, _, _ in table.rows:
        g0 = gaussian_packet(PacketParams(sigma, region.center_site, carrier_mode(n), region), n)
        site = site_frame_encoding(pairs, g0, t, evolver)
        modes = [propagate(g0, (m - a) * t) for a in range(1, m + 1)]
        assert abs(resid - residual_norm_per_point(site, pairs, modes)) <= 1e-12


@pytest.mark.parametrize("m, block", [(6, None), (8, 2**18)])
def test_column_blocks_match_the_per_point_vectors(m, block, monkeypatch):
    # oracle-bounds runs its 20 points as amplitude columns, several blocks
    # of 6 here (2,510 states at M = 6 under the default block size, 39,203
    # at M = 8 under 2^18 amplitudes); every row must equal, bit for bit,
    # the point run alone as a 1-D vector on its own QR
    from fermiwire import harness

    if block is not None:
        monkeypatch.setattr(harness, "_MAX_BLOCK", block)
    widths, run_sequence = [], fock.run_encoding_sequence

    def counted(pairs, modes, basis):
        widths.append(np.shape(modes)[2])
        return run_sequence(pairs, modes, basis)

    monkeypatch.setattr(fock, "run_encoding_sequence", counted)
    n = 64
    table = harness.run(harness.build_config({"experiment": "OracleBounds", "N": n, "M": m}))
    assert widths == [6, 6, 6, 2]
    basis = fock_basis(m, m, m)
    pairs = [(complex(np.sqrt(1 - 0.4 * a / m), 0.0), complex(0.0, np.sqrt(0.4 * a / m)))
             for a in range(1, m + 1)]
    region = Region(1, 5)
    for t, sigma, resid, bound, ok in table.rows:
        g0 = gaussian_packet(PacketParams(sigma, region.center_site, carrier_mode(n), region), n)
        coeffs = fock.orbital_frame([propagate(g0, (m - a) * t) for a in range(1, m + 1)])
        state = run_sequence(pairs, coeffs, basis)
        assert state.amplitudes.ndim == 1
        assert resid == encoding_residual_norm(state, pairs, coeffs)
        assert ok == (resid <= bound + 1e-8)


def test_columns_run_alike_with_one_mode_set_each():
    # three columns, each with its own modes, against three 1-D runs
    rng = np.random.default_rng(11)
    basis = fock_basis(3, 3, 3)
    pairs = [(0.6 + 0j, 0.8j), (0.8 + 0j, 0.6 + 0j), (1j, 0j)]
    coeffs = fock.orbital_frame(rng.standard_normal((3, 3, 9)) + 1j * rng.standard_normal(9))
    coeffs /= np.linalg.norm(coeffs, axis=-1, keepdims=True)
    block = np.moveaxis(coeffs, 0, -1)
    state = run_encoding_sequence(pairs, block, basis)
    assert state.amplitudes.shape == (len(basis), 3)
    resid = encoding_residual_norm(state, pairs, block)
    for k in range(3):
        alone = run_encoding_sequence(pairs, coeffs[k], basis)
        assert np.array_equal(state.amplitudes[:, k], alone.amplitudes)
        assert resid[k] == encoding_residual_norm(alone, pairs, coeffs[k])


def test_encoder_names_the_unnormalized_column():
    rng = np.random.default_rng(12)
    basis = fock_basis(4, 2, 1)
    block = np.stack([random_mode(4, rng) for _ in range(3)], axis=1)
    assert build_encoder(block, basis).coeffs.shape == (4, 3)
    block[:, 1] *= 1 + 1e-8
    with pytest.raises(ValueError, match=r"normalized in column 1 \(\|g\|\^2 - 1 = 2\.000e-08, "
                                         r"limit 1e-10\)$"):
        build_encoder(block, basis)
    block[:, 1] = np.nan
    with pytest.raises(ValueError, match=r"in column 1 \(\|g\|\^2 - 1 = nan"):
        build_encoder(block, basis)
    with pytest.raises(ValueError, match=r"coefficient length \(4, 3, 1\) does not match"):
        ModeOperator(block[..., None], basis)
    # three modes act on three columns, not on a vector of three states
    op = ModeOperator(np.ones((4, 3)), fock_basis(4, 1))
    for x, got in ((np.ones(5), r"\(5,\)"), (np.ones((5, 2)), r"\(5, 2\)")):
        with pytest.raises(ValueError, match=r"3 modes need amplitudes of shape \(dim, 3\); "
                                             r"got " + got + "$"):
            op.annihilate(x)


def test_norm_check_reads_each_column(monkeypatch):
    # two unit columns have a joint norm of sqrt(2); each column is judged
    # alone, and a drift in one of them names it
    basis = fock_basis(4, 2, 2)
    rng = np.random.default_rng(13)
    modes = np.stack([[random_mode(4, rng) for _ in range(2)] for _ in range(2)], axis=2)
    pairs = [(0.6 + 0j, 0.8j), (0.8 + 0j, 0.6 + 0j)]
    state = run_encoding_sequence(pairs, modes, basis)
    assert np.allclose(np.linalg.norm(state.amplitudes, axis=0), 1.0, atol=1e-12)
    swap = fock.ModeOperator.swap

    def leaky(op, x, bit):
        y = swap(op, x, bit)
        y[:, 1] *= 1.001
        return y

    monkeypatch.setattr(fock.ModeOperator, "swap", leaky)
    with pytest.raises(RuntimeError, match=r"norm drifted to 1\.00\d+ after A1 in column 1; "):
        run_encoding_sequence(pairs, modes, basis)


def test_residual_reads_every_register_slice():
    # amplitude on every mask, a receiver register, random modes and a
    # strided (non-contiguous) amplitude vector
    rng = np.random.default_rng(5)
    basis = fock_basis(8, 3, 2, 1)
    x = rng.standard_normal(2 * len(basis)) + 1j * rng.standard_normal(2 * len(basis))
    fv = FockVector(x[::2], basis)
    assert not fv.amplitudes.flags.c_contiguous
    pairs = [(0.6 + 0j, 0.8j), (0.8 + 0j, 0.6 + 0j)]
    modes = np.array([random_mode(8, rng) for _ in range(2)])
    got = encoding_residual_norm(fv, pairs, modes)
    expected = residual_norm_per_point(to_register_tensor(fv), pairs, modes)
    assert abs(got - expected) <= 1e-14 * expected


def test_residual_rejects_modes_of_another_shape():
    basis = fock_basis(10, 2, 2)
    g0 = gaussian_packet(PacketParams(1.0, 3, 8, Region(1, 5)), 10)
    pairs = [(0.6 + 0j, 0.8j), (0.8 + 0j, 0.6 + 0j)]
    actual = run_encoding_sequence(pairs, [g0, g0], basis)
    with pytest.raises(ValueError, match=r"need one mode per signal, shape \(2, 10\); "
                                         r"got \(2, 2\)$"):
        run_encoding_sequence(pairs, fock.orbital_frame([g0, g0]), basis)
    with pytest.raises(ValueError, match=r"shape \(2, 10\); got \(1, 10\)$"):
        run_encoding_sequence(pairs, [g0], basis)
    shape = r"need 2 coefficient pairs and modes of shape \(2, 10\); got "
    with pytest.raises(ValueError, match=shape + r"2, \(2, 1, 10\)$"):
        encoding_residual_norm(actual, pairs, [[g0], [g0]])
    with pytest.raises(ValueError, match=shape + r"1, \(1, 10\)$"):
        encoding_residual_norm(actual, pairs[:1], [g0])


def _leaky_engine(factor, monkeypatch):
    # a two-signal plan, signal 2 encoded before signal 1 is decoded, whose
    # swap of register A2 also scales the state by factor
    plan = plan_protocol(10, 2, BUDGET, 0.1, wait=1.0, width=3)
    swap = fock.ModeOperator.swap

    def leaky(op, x, bit):
        scale = factor if bit == op.basis.register_bit("A", 2) else 1.0
        return swap(op, x, bit) * scale

    monkeypatch.setattr(fock.ModeOperator, "swap", leaky)
    return ProtocolEngine(plan)


def test_norm_drift_aborts_the_protocol_run(monkeypatch):
    with pytest.raises(RuntimeError, match=r"norm drifted to 1\.00\d+ after A2; amplitude"):
        _leaky_engine(1.001, monkeypatch).run([SIX_DESIGN_STATES["x+"]] * 2)


def test_encoding_sequence_and_evolver_reject_bad_inputs():
    basis = fock_basis(10, 3)
    evolver = ExactEvolver(basis)
    g0 = gaussian_packet(PacketParams(1.0, 3, 8, Region(1, 5)), 10)
    pairs = [(0.6 + 0j, 0.8j)] * 3
    with pytest.raises(ValueError, match=r"mode coefficients must be normalized"):
        run_encoding_sequence(pairs, [g0, g0, 2 * g0], fock_basis(10, 3, 3))
    # three raised registers do not fit under a cap of two excitations
    with pytest.raises(ValueError, match=r"truncated at 2 particles cannot carry 3 signals$"):
        run_encoding_sequence(pairs, [g0] * 3, fock_basis(10, 2, 3))
    single = FockVector(np.eye(len(basis))[3], basis)
    with pytest.raises(ValueError, match=r"bit 9 is not a register bit of the basis$"):
        ModeOperator(g0, basis).swap(single.amplitudes, 9)
    # axis 0 is the basis: no leading axis, no other length
    for bad in (single.amplitudes[None], single.amplitudes[:-1]):
        with pytest.raises(ValueError, match=rf"amplitudes of shape \({bad.shape[0]}, ?\d*\) do "
                                             r"not start with the 176 basis states$"):
            FockVector(bad, basis)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"need one finite time, got t = {bad}$"):
            evolver.apply(single, bad)
    # one time per call: an array of times is refused, a length-one array too
    for bad in ([0.1, 0.2], np.array([0.7])):
        with pytest.raises(ValueError, match=r"need one finite time, got t = "):
            evolver.apply(single, bad)


def test_non_finite_inputs_fail_loudly(monkeypatch):
    # NaN compares false, so a check written as abs(x - 1) > tol or x > tol
    # would let each of these through
    basis = fock_basis(8, 2, 2)
    g0 = gaussian_packet(PacketParams(1.0, 3, 6, Region(1, 5)), 8)
    pairs = [(0.6 + 0j, 0.8j), (1.0 + 0j, 0j)]
    with pytest.raises(ValueError, match=r"message states must be normalized, got norm nan$"):
        run_encoding_sequence([(np.nan, 0), (1, 0)], [g0, g0], basis)
    with pytest.raises(ValueError, match=r"must be normalized \(\|g\|\^2 - 1 = nan"):
        run_encoding_sequence(pairs, [g0, np.full(8, np.nan)], basis)
    # a NaN amplitude after a step fails the norm check
    with pytest.raises(RuntimeError, match=r"norm drifted to nan after A2"):
        _leaky_engine(np.nan, monkeypatch).run([SIX_DESIGN_STATES["x+"]] * 2)


def test_residual_t0_matches_direct_product_evaluation():
    # with zero wait the sequence is U2 U1 |psi psi vac>; rebuild it from
    # dense matrix products as an independent path
    n = 8
    basis = fock_basis(n, 2, 2)
    g0 = gaussian_packet(PacketParams(1.0, 3, 6, Region(1, 5)), n)
    pairs = [(0.6 + 0j, 0.8j), (0.0j, 1.0 + 0j)]
    actual = run_encoding_sequence(pairs, [g0, g0], basis)
    resid = encoding_residual_norm(actual, pairs, [g0, g0])

    op = build_encoder(g0, basis)
    psi = sum(pairs[0][a1] * pairs[1][a2] * unit(basis, a1 << n | a2 << (n + 1))
              for a1 in (0, 1) for a2 in (0, 1))
    final = dense_swap(op, ("A", 2)) @ (dense_swap(op, ("A", 1)) @ psi)
    creator = dense_dag(ModeOperator(g0, basis))
    ideal = unit(basis, 0)  # both registers |0>
    for c, d in pairs:
        ideal = c * ideal + d * (creator @ ideal)
    assert np.isclose(resid, np.linalg.norm(final - ideal), atol=1e-10)


def test_truncated_matches_full_space():
    # the M-excitation basis over the 2M orbitals and 2M registers against
    # all of their 2^(4M) masks
    plan = plan_protocol(8, 2, BUDGET, 0.1, wait=3.0, width=2)
    msgs = [np.array([0.6, 0.8j]), np.array([1, -1j]) / np.sqrt(2)]
    engine = ProtocolEngine(plan)
    small = engine.run(msgs)
    engine.basis = fock_basis(4, 8, 2, 2)
    full = engine.run(msgs)
    assert (len(small.basis), len(full.basis)) == (37, 256)
    small_index, full_index = basis_index(small.basis), basis_index(full.basis)
    worst = max(abs(small.amplitudes[i] - full.amplitudes[full_index[s]])
                for s, i in small_index.items())
    assert worst < 1e-10
    leftover = max(abs(full.amplitudes[i]) for s, i in full_index.items() if s not in small_index)
    assert leftover < 1e-10


# ---------------------------------------------------------------- reduction


def test_reduced_qubit_product_state():
    psi = np.array([0.6, 0.8j])
    fv = to_register_tensor(vacuum_vector(fock_basis(4, 1, 1, 1), [psi]))
    rho = reduced_qubit(fv, "A", 1)
    validate_qubit_state(rho)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_reduced_qubit_entangled_register():
    basis = fock_basis(4, 1)
    # entangle A1 with the lattice: (|0, vac> + |1, site1>)/sqrt(2)
    tensor = np.zeros((2, len(basis), 2), dtype=complex)
    tensor[0, 0, 0] = 1 / np.sqrt(2)
    tensor[1, basis_index(basis)[1], 0] = 1 / np.sqrt(2)
    ent = RegisterTensor(tensor, basis, 1, 1)
    rho = reduced_qubit(ent, "A", 1)
    validate_qubit_state(rho)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
    assert abs(np.trace(rho) - 1.0) < 1e-12


# ---------------------------------------------------------------- fidelity


def test_average_fidelity_identity_channel():
    outputs = {k: np.outer(v, v.conj()) for k, v in SIX_DESIGN_STATES.items()}
    assert np.isclose(average_fidelity(outputs), 1.0, atol=1e-14)


def test_average_fidelity_depolarizing_channel():
    outputs = {k: np.eye(2) / 2 for k in SIX_DESIGN_STATES}
    assert np.isclose(average_fidelity(outputs), 0.5, atol=1e-14)


def test_average_fidelity_requires_all_inputs():
    outputs = {k: np.eye(2) / 2 for k in list(SIX_DESIGN_STATES)[:5]}
    with pytest.raises(ValueError):
        average_fidelity(outputs)


def test_two_design_equals_haar_monte_carlo():
    # amplitude-damping style channel as the test subject
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])

    def channel(rho):
        return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T

    outputs = {
        k: channel(np.outer(v, v.conj())) for k, v in SIX_DESIGN_STATES.items()
    }
    exact = average_fidelity(outputs)
    rng = np.random.default_rng(42)
    samples = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    fids = np.array(
        [np.real(np.vdot(psi, channel(np.outer(psi, psi.conj())) @ psi))
         for psi in samples]
    )
    se = fids.std(ddof=1) / np.sqrt(len(fids))
    assert abs(exact - fids.mean()) < 3 * se


def _oracle_test_plan(n, m, wait):
    # wait maps the decode time T to the wait between signals; the regions
    # are ceil(N^(1/3)) sites
    plan = plan_protocol(n, m, BUDGET, 0.1, wait=1.0, width=ceil(n ** (1 / 3) - 1e-9))
    return dataclasses.replace(plan, wait=wait(plan.decode_time))


RECEIVER_CASES = [
    pytest.param(8, 1, lambda t_dec: t_dec + 1.0, id="N8-M1-sequential"),
    pytest.param(12, 2, lambda t_dec: t_dec / 2, id="N12-M2-half-T"),
    pytest.param(12, 3, lambda t_dec: 0.4 * t_dec, id="N12-M3-0.4T"),
    pytest.param(12, 4, lambda t_dec: 1.0, id="N12-M4-t1"),
]


@pytest.mark.parametrize("n, m, wait", RECEIVER_CASES)
def test_two_design_reads_receivers_from_the_b_register_state(n, m, wait):
    # corrected and raw receiver states against six separate engine runs,
    # one reduced_qubit per register, with and without Bob's CZ gates
    plan = _oracle_test_plan(n, m, wait)
    pairs = fock.exchange_pairs(plan)
    engine = ProtocolEngine(plan)
    outputs, fids, raw_fids = two_design_fidelities(engine)
    raw = {a: {} for a in range(1, m + 1)}
    for label, psi in SIX_DESIGN_STATES.items():
        fv = engine.run([psi] * m)
        undone = to_register_tensor(fock.exchange_correction(fv, pairs))
        fv = to_register_tensor(fv)
        for a in range(1, m + 1):
            assert np.max(np.abs(outputs[a][label] - reduced_qubit(fv, "B", a))) < 1e-14
            raw[a][label] = reduced_qubit(undone, "B", a)
    paired = {a for pair in pairs for a in pair}
    for a in range(1, m + 1):
        # a register in a corrected pair has a different raw channel
        assert (abs(raw_fids[a] - fids[a]) > 1e-3) == (a in paired)
        assert abs(raw_fids[a] - average_fidelity(raw[a])) < 1e-14
        assert abs(fids[a] - average_fidelity(outputs[a])) < 1e-14


FRAME_CASES = [
    pytest.param(8, 4, lambda t_dec: t_dec + 1.0, id="N8-M4-sequential"),
    pytest.param(8, 2, lambda t_dec: 0.3 * t_dec, id="N8-M2-0.3T"),
    pytest.param(12, 1, lambda t_dec: t_dec + 1.0, id="N12-M1-sequential"),
    pytest.param(12, 4, lambda t_dec: 0.4 * t_dec, id="N12-M4-0.4T"),
    pytest.param(16, 3, lambda t_dec: t_dec + 1.0, id="N16-M3-sequential"),
    pytest.param(16, 2, lambda t_dec: t_dec / 2, id="N16-M2-half-T"),
    pytest.param(20, 2, lambda t_dec: t_dec + 1.0, id="N20-M2-sequential"),
    pytest.param(20, 3, lambda t_dec: 0.3 * t_dec, id="N20-M3-0.3T"),
    pytest.param(24, 3, lambda t_dec: t_dec + 1.0, id="N24-M3-sequential"),
    pytest.param(24, 3, lambda t_dec: t_dec / 2, id="N24-M3-half-T"),
]


def _b_register_matrix(fv):
    # the receivers' joint 2^M x 2^M state of a RegisterTensor; every
    # reduced B-register matrix is a partial trace of it
    x = fv.tensor.reshape(-1, 2**fv.n_b)
    return x.T @ x.conj()


def _assert_frames_agree(plan, engine, site, tol=1e-12):
    """Receiver states of the orbital-frame engine against the site-frame
    reference in the register-axis layout: corrected and raw, for seeded
    random messages and for the six design inputs."""
    m, pairs = plan.m_signals, fock.exchange_pairs(plan)
    rng = np.random.default_rng(plan.n * 10 + m)
    msgs = [random_mode(2, rng) for _ in range(m)]
    a, b = engine.run(msgs), site.run(msgs)
    for x, y in ((to_register_tensor(a), b),
                 (to_register_tensor(fock.exchange_correction(a, pairs)),
                  register_exchange_correction(b, pairs))):
        assert np.abs(_b_register_matrix(x) - _b_register_matrix(y)).max() <= tol
    (outputs, fids, raw), (ref_out, ref_fids, ref_raw) = (
        two_design_fidelities(engine), register_two_design(site))
    for alpha in range(1, m + 1):
        for label in SIX_DESIGN_STATES:
            assert np.abs(outputs[alpha][label] - ref_out[alpha][label]).max() <= tol
        assert abs(fids[alpha] - ref_fids[alpha]) <= tol
        assert abs(raw[alpha] - ref_raw[alpha]) <= tol


@pytest.mark.parametrize("n, m, wait", FRAME_CASES)
def test_orbital_frame_matches_the_site_frame(n, m, wait):
    # the 2M swaps on fock_basis(min(N, 2M), M, M, M) with no evolution against
    # the timed protocol on the N sites with exact evolution between events
    plan = _oracle_test_plan(n, m, wait)
    engine = ProtocolEngine(plan)
    assert (engine.basis.n_sites, engine.basis.max_particles) == (min(n, 2 * m), m)
    assert (engine.basis.n_a, engine.basis.n_b) == (m, m)
    assert engine.modes.shape == (2 * m, min(n, 2 * m))
    pipelined = plan.wait <= plan.decode_time
    assert bool(fock.exchange_pairs(plan)) == (pipelined and m > 1)
    _assert_frames_agree(plan, engine, SiteFrameEngine(plan, fock_basis(n, m)))
    # and the same orbital-frame swaps with the registers as tensor axes
    _assert_frames_agree(plan, engine, OrbitalRegisterEngine(engine))


@pytest.mark.parametrize("n", [6, 7])
def test_oracle_protocol_below_2m_sites_matches_the_site_frame(n):
    # N < 2M: the event modes span all N sites, so the frame has N orbitals
    from fermiwire.harness import _oracle_plan, build_config, run

    m = 4
    table = run(build_config({"experiment": "OracleProtocol", "N": n, "M": m}))
    plan = _oracle_plan(table.meta["config"])
    # fock_dim is the size of the excitation basis over N sites and 2M registers
    assert (table.meta["orbitals"], table.meta["fock_dim"]) == (n, len(fock_basis(n, m, m, m)))
    site = SiteFrameEngine(plan, fock_basis(n, m))
    _assert_frames_agree(plan, ProtocolEngine(plan), site)
    ref_out, ref_fids, ref_raw = register_two_design(site)
    for alpha, label, f in table.rows:
        psi = SIX_DESIGN_STATES[label]
        assert abs(f - float(np.real(psi.conj() @ ref_out[alpha][label] @ psi))) <= 1e-12
    for alpha in range(1, m + 1):
        assert abs(table.meta["average_fidelity"][str(alpha)] - ref_fids[alpha]) <= 1e-12
        assert abs(table.meta["average_fidelity_raw"][str(alpha)] - ref_raw[alpha]) <= 1e-12


def test_plus_run_splits_into_the_axis_runs_by_excitation_number():
    # psi^M = sum_a psi_0^(M-|a|) psi_1^|a| |a> and every step conserves
    # the total excitation, so the |+>^M run's excitation-n part, times
    # 2^(M/2), is the run of the input with only that part: z+ for n = 0
    # and z- for n = M
    m = 3
    plan = _oracle_test_plan(12, m, lambda t_dec: 0.4 * t_dec)
    assert fock.exchange_pairs(plan) == [(1, 2), (1, 3), (2, 3)]
    engine = ProtocolEngine(plan)
    plus = engine.run([SIX_DESIGN_STATES["x+"]] * m).amplitudes
    excitation = np.array([s.bit_count() for s in engine.basis.masks.tolist()])
    for label, n in (("z+", 0), ("z-", m)):
        part = np.where(excitation == n, plus, 0.0) * 2.0 ** (m / 2)
        axis_run = engine.run([SIX_DESIGN_STATES[label]] * m).amplitudes
        assert np.max(np.abs(part - axis_run)) < 1e-14


def test_two_design_runs_the_protocol_once(monkeypatch):
    calls = []
    run = ProtocolEngine.run

    def counted(self, messages):
        calls.append(len(messages))
        return run(self, messages)

    monkeypatch.setattr(ProtocolEngine, "run", counted)
    plan = _oracle_test_plan(12, 3, lambda t_dec: 0.4 * t_dec)
    two_design_fidelities(ProtocolEngine(plan))
    assert calls == [3]


def test_vacuum_vector_matches_the_kron_product():
    sites = fock_basis(8, 3)
    rng = np.random.default_rng(13)
    states = list(SIX_DESIGN_STATES.values()) + [random_mode(2, rng) for _ in range(3)]
    for n_a, n_b in ((0, 0), (1, 0), (1, 1), (2, 3), (3, 3)):
        for k in range(len(states)):
            messages = [states[(k + i) % len(states)] for i in range(n_a)]
            amp = np.array([1.0 + 0.0j])
            for psi in messages:
                amp = np.kron(amp, psi)
            vac = np.zeros(len(sites), dtype=complex)
            vac[0] = 1.0
            amp = np.kron(amp, vac)
            for _ in range(n_b):
                amp = np.kron(amp, np.array([1.0, 0.0], dtype=complex))
            shape = (2,) * n_a + (len(sites),) + (2,) * n_b
            ref = amp.reshape(shape)
            got = to_register_tensor(vacuum_vector(fock_basis(8, 3, n_a, n_b), messages)).tensor
            # equal everywhere; the kron chain leaves -0.0 on some zeros
            assert np.array_equal(got, ref)
            live = (Ellipsis, 0) + (0,) * n_b
            assert got[live].tobytes() == ref[live].tobytes()
    with pytest.raises(ValueError, match="expected 2 message states, got 1"):
        vacuum_vector(fock_basis(8, 3, 2), states[:1])
    with pytest.raises(ValueError, match="qubit 2-vectors"):
        vacuum_vector(fock_basis(8, 3, 1), [np.ones(3) / np.sqrt(3)])
    with pytest.raises(ValueError, match="must be normalized"):
        vacuum_vector(fock_basis(8, 3, 1), [np.array([1.0, 1.0])])


def test_pipelined_oracle_at_n24_matches_one_eigh_per_sector():
    # N=24, M=3 at wait T/2 (top sector 2024 states): corrected and raw
    # fidelities of the site frame with the Chebyshev evolver against the
    # dense reference, and of the orbital frame
    plan = plan_protocol(24, 3, BUDGET, 0.01, wait=1.0, width=6)
    plan = dataclasses.replace(plan, wait=plan.decode_time / 2)
    assert fock.exchange_pairs(plan) == [(1, 2), (1, 3), (2, 3)]
    basis = fock_basis(24, 3)
    _, fids, raw = register_two_design(SiteFrameEngine(plan, basis))
    _, ref_fids, ref_raw = register_two_design(SiteFrameEngine(plan, basis, SectorEvolver))
    _, orb_fids, orb_raw = two_design_fidelities(ProtocolEngine(plan))
    for a in range(1, 4):
        assert abs(fids[a] - ref_fids[a]) < 1e-10
        assert abs(raw[a] - ref_raw[a]) < 1e-10
        assert abs(orb_fids[a] - ref_fids[a]) < 1e-10
        assert abs(orb_raw[a] - ref_raw[a]) < 1e-10
    bound = error_budget(plan).fidelity_bound
    assert bound > 0.5
    assert all(f >= bound for f in fids.values())


# ---------------------------------------------------------------- t-J


def test_two_packet_state_rejects_coincident_modes():
    basis = fock_basis(8, 2)
    params = PacketParams(1.0, 4, 6, Region(2, 6))
    with pytest.raises(ValueError):
        two_packet_state(basis, params, params)


def test_interaction_error_single_particle_zero():
    n = 8
    basis = fock_basis(n, 2)
    g = gaussian_packet(PacketParams(1.0, 4, 6, Region(2, 6)), n)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    one = ModeOperator(g, basis).create(vac)
    fv = FockVector(one, basis)
    assert tj_interaction_error(fv) == 0.0


def test_interaction_error_adjacent_pair_eigenstate():
    n = 6
    basis = fock_basis(n, 2)
    state = np.zeros(len(basis), dtype=complex)
    state[basis_index(basis)[0b11]] = 1.0  # sites 1 and 2 occupied
    fv = FockVector(state, basis)
    assert np.isclose(tj_interaction_error(fv), 1.0, atol=1e-14)


def test_interaction_error_shrinks_with_separation():
    n = 10
    basis = fock_basis(n, 2)
    k_minus, k_plus = 3, 8
    near_b = PacketParams(0.8, 5, k_plus, Region(3, 7))
    far_b = PacketParams(0.8, 7, k_plus, Region(5, 9))
    pa = PacketParams(0.8, 3, k_minus, Region(1, 5))
    eps_near = tj_interaction_error(two_packet_state(basis, pa, near_b))
    eps_far = tj_interaction_error(two_packet_state(basis, pa, far_b))
    assert eps_near >= 10 * eps_far


def test_evolution_difference_trivial_cases():
    n = 10
    basis = fock_basis(n, 2)
    from fermiwire.harness import separating_pair

    pa, pb = separating_pair(n)
    st = two_packet_state(basis, pa, pb)
    assert evolution_difference(st, [0.8], 0.0)[0] < 1e-10
    g = gaussian_packet(PacketParams(1.0, 4, 8, Region(2, 6)), n)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    one = ModeOperator(g, basis).create(vac)
    fv = FockVector(one, basis)
    assert evolution_difference(fv, [0.8], 3.0)[0] < 1e-10


def test_evolution_difference_bounded_for_separating_pair():
    n = 10
    basis = fock_basis(n, 2)
    from fermiwire.harness import separating_pair

    pa, pb = separating_pair(n)
    st = two_packet_state(basis, pa, pb)
    eps_i = tj_interaction_error(st)
    assert eps_i > 0
    grid = (0.1, 0.5, 1.0)
    for s, diff in zip(grid, evolution_difference(st, grid, 1.0), strict=True):
        assert diff <= s * eps_i + 1e-6


def test_evolution_difference_builds_each_evolver_once(monkeypatch):
    built = []

    class Counted(ExactEvolver):
        def __init__(self, basis, j_coupling=0.0):
            built.append(j_coupling)
            super().__init__(basis, j_coupling)

    monkeypatch.setattr(fock, "ExactEvolver", Counted)
    basis = fock_basis(8, 2)
    fv = FockVector(np.eye(len(basis))[3], basis)
    assert len(evolution_difference(fv, [0.1, 0.5, 1.0, 2.0], 1.0)) == 4
    assert built == [0.0, 1.0]


def test_evolution_difference_violation_is_detectable():
    # approaching packets break the first-order bound; the quantities
    # still expose it honestly rather than hiding it
    n = 10
    basis = fock_basis(n, 2)
    pa = PacketParams(1.0, 3, 8, Region(1, 5))  # moving +theta
    pb = PacketParams(1.0, 6, 2, Region(4, 8))  # moving -theta, toward pa
    st = two_packet_state(basis, pa, pb)
    eps_i = tj_interaction_error(st)
    diff = evolution_difference(st, [1.0], 1.0)[0]
    assert diff > eps_i + 1e-6


# ---------------------------------------------------------------- bound


def test_fidelity_bound_holds_on_small_grid():
    # (N, region width, M, wait as a function of the decode time T): one
    # signal in the wire at a time, then N=24 pipelined at T/2 and at T
    sequential = [
        (n, width, m, lambda t_dec: t_dec + 1.0)
        for n, width in ((8, 2), (10, 3), (12, 5))
        for m in (1, 2)
    ]
    pipelined = [(24, 6, 2, lambda t_dec: t_dec / 2), (24, 6, 2, lambda t_dec: t_dec)]
    for n, width, m, wait in sequential + pipelined:
        plan = plan_protocol(n, m, BUDGET, 0.1, wait=1.0, width=width)
        plan = dataclasses.replace(plan, wait=wait(plan.decode_time))
        outputs, fids, _ = two_design_fidelities(ProtocolEngine(plan))
        rep = error_budget(plan)
        assert rep.fidelity_bound == max(0.0, 1.0 - rep.eps_e - rep.eps_d)
        if n == 24:  # the pipelined bounds are far from vacuous
            assert rep.fidelity_bound > 0.85
        for alpha in fids:
            assert fids[alpha] >= rep.fidelity_bound - 1e-6
            for rho in outputs[alpha].values():
                validate_qubit_state(rho)


@pytest.mark.xfail(strict=True, reason="the two-channel bound is argued for one signal "
                   "in the wire; decoded while signal 2 is in the ring, register 1 "
                   "reads 0.9685 against a bound of 0.9763")
def test_fidelity_bound_holds_with_an_exchange_pair_at_n28():
    # wait exactly T: signal 2 is encoded as signal 1 is decoded, so Bob
    # corrects the pair (1, 2); just past T register 1 reads the one-signal
    # closed form 0.9847
    plan = plan_protocol(28, 2, BUDGET, 0.1, wait=1.0, width=7)
    plan = dataclasses.replace(plan, wait=plan.decode_time)
    assert fock.exchange_pairs(plan) == [(1, 2)]
    _, fids, _ = two_design_fidelities(ProtocolEngine(plan))
    bound = error_budget(plan).fidelity_bound
    assert all(f >= bound - 1e-6 for f in fids.values())
