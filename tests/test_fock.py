import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from fermiwire.lattice import Boundary, Lattice, propagate, ring_spectrum
from fermiwire.protocol import encoding_error_bound, plan_protocol
from fermiwire.wavepacket import PacketBudget, PacketParams, Region, gaussian_packet
from fermiwire import fock
from fermiwire.fock import (
    ExactEvolver,
    FockVector,
    ProtocolEngine,
    SIX_DESIGN_STATES,
    average_fidelity,
    build_encoder,
    encoding_residual_norm,
    evolution_difference,
    fock_basis,
    kinetic_matrix,
    mode_annihilator,
    reduced_qubit,
    run_encoding_sequence,
    swap_block_exponential,
    tight_binding_hamiltonian,
    tj_hamiltonian,
    tj_interaction_error,
    total_excitation_operator,
    two_design_fidelities,
    two_packet_state,
    vacuum_vector,
    validate_qubit_state,
)

BUDGET = PacketBudget(c=9.0, kappa=1.0)


def random_mode(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


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
            assert list(fock_basis(n, m_max).states) == _sorted_scan_basis(n, m_max)
    big = fock_basis(24, 3)
    assert len(big) == 2325
    assert big.states[0] == 0 and big.index[big.states[-1]] == 2324
    with pytest.raises(ValueError, match=r"N=21, max_particles=21"):
        fock_basis(21, 21)
    with pytest.raises(ValueError, match=r"N=40, max_particles=6"):
        fock_basis(40, 6)
    assert big.particle_counts.tolist() == [s.bit_count() for s in big.states]


def test_basis_ordering_and_vacuum():
    basis = fock_basis(4, 2)
    assert basis.states[0] == 0
    counts = [s.bit_count() for s in basis.states]
    assert counts == sorted(counts)
    assert len(basis) == 1 + 4 + 6
    # index maps both directions
    for i, s in enumerate(basis.states):
        assert basis.index[s] == i
    # within a particle number, lexicographic on (n_1, .., n_N)
    occupations = [tuple((s >> i) & 1 for i in range(4)) for s in basis.states]
    assert occupations == sorted(occupations, key=lambda o: (sum(o), o))
    assert occupations[basis.index[0b0110]] == (0, 1, 1, 0)


# ---------------------------------------------------------------- operators


def _assert_same_csr_bytes(got, want):
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _loop_annihilator(coeffs, basis):
    # independent reference: walk the occupied sites of every basis state
    rows, cols, data = [], [], []
    for col, s in enumerate(basis.states):
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            cj = coeffs[bit.bit_length() - 1]
            if cj == 0:
                continue
            sign = -1.0 if (s & (bit - 1)).bit_count() & 1 else 1.0
            rows.append(basis.index[s ^ bit])
            cols.append(col)
            data.append(sign * np.conj(cj))
    f = len(basis)
    return sparse.csr_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(f, f)
    )


@pytest.mark.parametrize("n, m_max", [(6, 2), (8, 3), (8, 8), (14, 3)])
def test_mode_annihilator_matches_loop_reference_bytes(n, m_max):
    basis = fock_basis(n, m_max)
    rng = np.random.default_rng(n * 10 + m_max)
    for _ in range(3):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[rng.random(n) < 0.3] = 0.0
        c[0] = 0.0
        _assert_same_csr_bytes(mode_annihilator(c, basis), _loop_annihilator(c, basis))


def _ref_bonds(lattice):
    n = lattice.n_sites
    wrap = [(n, 1)] if lattice.boundary is Boundary.RING else []
    return [(j, j + 1) for j in range(1, n)] + wrap


def _loop_kinetic(basis, lattice):
    # independent reference: hop each occupied site of every state onto an
    # empty neighbour, signing by the occupied sites passed over
    rows, cols, data = [], [], []
    for col, s in enumerate(basis.states):
        for p, q in _ref_bonds(lattice):
            for src, dst in ((q, p), (p, q)):
                bs, bd = 1 << (src - 1), 1 << (dst - 1)
                if s & bs and not s & bd:
                    sign = -1.0 if (s & (bs - 1)).bit_count() & 1 else 1.0
                    s1 = s ^ bs
                    if (s1 & (bd - 1)).bit_count() & 1:
                        sign = -sign
                    rows.append(basis.index[s1 | bd])
                    cols.append(col)
                    data.append(sign)
    f = len(basis)
    return sparse.csr_matrix((np.array(data), (rows, cols)), shape=(f, f))


@pytest.mark.parametrize("n, m_max", [(6, 2), (8, 3), (8, 8), (14, 3)])
def test_kinetic_and_pair_counts_match_loop_reference(n, m_max):
    basis = fock_basis(n, m_max)
    for boundary in (Boundary.RING, Boundary.CHAIN):
        lattice = Lattice(n, boundary)
        want = _loop_kinetic(basis, lattice)
        _assert_same_csr_bytes(kinetic_matrix(basis, lattice), want)
        pairs = [
            sum(s >> (p - 1) & s >> (q - 1) & 1 for p, q in _ref_bonds(lattice))
            for s in basis.states
        ]
        assert fock.adjacent_pair_counts(basis, lattice).tolist() == pairs


def test_annihilation_table_memory():
    # the int64/float64 table with two F x N uint64 temporaries kept
    # 33 B per entry and peaked at 39.3 MB (37.5 MiB) on this basis
    basis = fock_basis(16, 16)
    tracemalloc.start()
    try:
        rows = basis.annihilation_table[0]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 16 * 2**15
    assert kept / len(rows) <= 18
    assert peak < 37.5 * 2**20


def test_mode_annihilator_nilpotent():
    basis = fock_basis(5, 3)
    rng = np.random.default_rng(0)
    a = mode_annihilator(random_mode(5, rng), basis)
    assert abs(a @ a).max() < 1e-14


def test_creation_antisymmetry_sign():
    basis = fock_basis(4, 2)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    a1d = mode_annihilator(np.eye(4)[0], basis).conjugate().transpose()
    a2d = mode_annihilator(np.eye(4)[1], basis).conjugate().transpose()
    left = a1d @ (a2d @ vac)
    right = a2d @ (a1d @ vac)
    assert np.allclose(np.asarray(left).ravel(), -np.asarray(right).ravel(),
                       atol=1e-14)


def test_anticommutator_matches_overlap_below_truncation():
    n, m_max = 6, 3
    basis = fock_basis(n, m_max)
    rng = np.random.default_rng(2)
    f_mode = random_mode(n, rng)
    g_mode = random_mode(n, rng)
    fa = mode_annihilator(f_mode, basis)
    ga = mode_annihilator(g_mode, basis)
    anti = (fa @ ga.conjugate().transpose()
            + ga.conjugate().transpose() @ fa).toarray()
    want = np.vdot(f_mode, g_mode)
    # exact identity away from the top particle-number sector, where the
    # raising half of the anticommutator is cut off by the truncation
    keep = [i for i, s in enumerate(basis.states) if s.bit_count() < m_max]
    sub = anti[np.ix_(keep, keep)]
    assert np.max(np.abs(sub - want * np.eye(len(keep)))) < 1e-12


def test_self_anticommutator_is_identity_full_space():
    n = 5
    basis = fock_basis(n, n)
    rng = np.random.default_rng(3)
    g = mode_annihilator(random_mode(n, rng), basis)
    anti = (g @ g.conjugate().transpose() + g.conjugate().transpose() @ g).toarray()
    assert np.max(np.abs(anti - np.eye(len(basis)))) < 1e-12


def test_mode_creator_reproduces_amplitudes():
    n = 6
    basis = fock_basis(n, 2)
    rng = np.random.default_rng(4)
    v = random_mode(n, rng)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    created = np.asarray(
        mode_annihilator(v, basis).conjugate().transpose() @ vac
    ).ravel()
    amps = np.zeros(n, dtype=complex)
    for i, s in enumerate(basis.states):
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
    for i, s in enumerate(basis.states):
        perm[kron_index(s), i] = 1.0
    for j in range(1, n + 1):
        ours = mode_annihilator(np.eye(n)[j - 1], basis).toarray()
        theirs = perm.T @ jw_annihilator(j) @ perm
        assert np.max(np.abs(ours - theirs)) < 1e-14


# ---------------------------------------------------------------- encoder


def encoder_fixture(n=6, m_max=2):
    basis = fock_basis(n, m_max)
    lat = Lattice(n)
    g = gaussian_packet(PacketParams(1.0, 2, 4, Region(1, 3)), lat)
    return basis, lat, g, build_encoder(g, basis)


def test_encoder_creates_mode_from_raised_register():
    basis, lat, g, u = encoder_fixture()
    f = len(basis)
    vec = np.zeros(2 * f, dtype=complex)
    vec[f] = 1.0  # |1> x vacuum
    out = u @ vec
    vac = np.zeros(f, dtype=complex)
    vac[0] = 1.0
    created = np.asarray(
        mode_annihilator(g, basis).conjugate().transpose() @ vac
    ).ravel()
    assert np.allclose(out[:f], created, atol=1e-12)
    assert np.linalg.norm(out[f:]) < 1e-12


def test_encoder_leaves_lowered_register_alone():
    basis, lat, g, u = encoder_fixture()
    f = len(basis)
    vec = np.zeros(2 * f, dtype=complex)
    vec[0] = 1.0  # |0> x vacuum
    out = u @ vec
    assert abs(out[0] - 1.0) < 1e-12
    assert np.linalg.norm(out[1:]) < 1e-12


def test_encoder_unitary_on_reachable_sector():
    basis, lat, g, u = encoder_fixture()
    occ = np.array([s.bit_count() for s in basis.states])
    total = np.concatenate([occ, occ + 1])
    keep = total <= basis.max_particles
    defect = (u.conjugate().transpose() @ u
              - sparse.identity(2 * len(basis))).toarray()
    assert np.max(np.abs(defect[np.ix_(keep, keep)])) < 1e-10


def test_encoder_matches_exponential_form_full_space():
    n = 5
    basis = fock_basis(n, n)
    lat = Lattice(n)
    g = gaussian_packet(PacketParams(1.2, 2, 4, Region(1, 4)), lat)
    u5 = build_encoder(g, basis).toarray()
    ue = swap_block_exponential(g, basis)
    assert np.max(np.abs(u5 - ue)) < 1e-10


def test_decoder_swaps_matched_mode():
    basis, lat, g, _ = encoder_fixture()
    v = build_encoder(g, basis)
    f = len(basis)
    vac = np.zeros(f, dtype=complex)
    vac[0] = 1.0
    created = np.asarray(
        mode_annihilator(g, basis).conjugate().transpose() @ vac
    ).ravel()
    vec = np.zeros(2 * f, dtype=complex)
    vec[:f] = created  # |0> x h^dag|vac>
    out = v @ vec
    assert abs(out[f] - 1.0) < 1e-12  # |1> x vacuum
    assert np.linalg.norm(np.delete(out, f)) < 1e-12
    vec0 = np.zeros(2 * f, dtype=complex)
    vec0[0] = 1.0
    out0 = v @ vec0
    assert abs(out0[0] - 1.0) < 1e-12


def test_encoder_rejects_unnormalized_mode():
    basis = fock_basis(4, 2)
    with pytest.raises(ValueError):
        build_encoder(np.ones(4, dtype=complex), basis)


# ---------------------------------------------------------------- evolution


def test_excitation_conservation_commutators():
    n, m_max = 6, 2
    basis = fock_basis(n, m_max)
    lat = Lattice(n)
    g = gaussian_packet(PacketParams(1.0, 2, 4, Region(1, 3)), lat)
    u = build_encoder(g, basis).toarray()
    f = len(basis)
    occ = np.array([s.bit_count() for s in basis.states], dtype=float)
    number = np.diag(np.concatenate([occ, occ + 1.0]))
    assert np.max(np.abs(u @ number - number @ u)) < 1e-10
    ham = tight_binding_hamiltonian(basis, lat).matrix.toarray()
    number_f = np.diag(occ)
    assert np.max(np.abs(ham @ number_f - number_f @ ham)) < 1e-12


def test_total_excitation_conserved_through_protocol():
    plan = plan_protocol(10, 2, dataclasses.replace(BUDGET, nu=1.0), 0.1, wait=4.0)
    basis = fock_basis(10, 2)
    diag = total_excitation_operator(basis, 2, 2)
    msgs = [np.array([0.6, 0.8]), np.array([0.0, 1.0])]
    expect = sum(abs(m[1]) ** 2 for m in msgs)
    before = fock.vacuum_vector(basis, 2, 2, msgs)
    after = ProtocolEngine(plan, basis).run(msgs)
    for fv in (before, after):
        value = float(np.sum(diag * np.abs(fv.tensor) ** 2))
        assert abs(value - expect) < 1e-10


def test_hamiltonian_hermitian_and_block_diagonal():
    basis = fock_basis(6, 3)
    lat = Lattice(6)
    h = kinetic_matrix(basis, lat).toarray()
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    occ = np.array([s.bit_count() for s in basis.states])
    coupling = h[np.not_equal.outer(occ, occ)]
    assert np.max(np.abs(coupling)) == 0.0


def test_many_body_single_particle_sector_matches_lattice():
    n = 8
    basis = fock_basis(n, 1)
    lat = Lattice(n)
    spec = ring_spectrum(n)
    g = gaussian_packet(PacketParams(1.35, 2, 6, Region(1, 3)), lat)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    f1 = np.asarray(mode_annihilator(g, basis).conjugate().transpose() @ vac).ravel()
    ev = ExactEvolver(tight_binding_hamiltonian(basis, lat))
    t = 1.9
    fT = ev.apply(FockVector(f1, basis, 0, 0), t).tensor
    amps = np.zeros(n, dtype=complex)
    for i, s in enumerate(basis.states):
        if s.bit_count() == 1:
            amps[s.bit_length() - 1] = fT[i]
    assert np.max(np.abs(amps - propagate(g, t, spec))) < 1e-12


@pytest.mark.parametrize("m_max", [3, 8])
@pytest.mark.parametrize("j_coupling", [None, 1.3])
def test_exact_evolver_matches_dense_expm(m_max, j_coupling):
    # independent reference: dense expm of the whole truncated H, applied
    # to a random state with one sender and one receiver register
    from scipy.linalg import expm

    n = 8
    basis = fock_basis(n, m_max)
    lat = Lattice(n)
    if j_coupling is None:
        ham = tight_binding_hamiltonian(basis, lat)
    else:
        ham = tj_hamiltonian(basis, lat, 1.0, j_coupling)
    ev = ExactEvolver(ham)
    rng = np.random.default_rng(7)
    shape = (2, len(basis), 2)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fv = FockVector(x, basis, 1, 1)
    for t in (0.0, 0.7, 5.3):
        want = np.einsum("fg,agb->afb", expm(-1j * t * ham.matrix.toarray()), x)
        assert np.max(np.abs(ev.apply(fv, t).tensor - want)) < 1e-11


def test_exact_evolver_rejects_non_hermitian_and_number_changing():
    n = 4
    basis = fock_basis(n, 2)
    k = kinetic_matrix(basis, Lattice(n))
    nudge = sparse.csr_matrix(([1.0], ([1], [2])), shape=k.shape)
    # a one-sided entry within the one-particle sector, below and above tolerance
    ExactEvolver(fock.ManyBodyHamiltonian("nudged", basis, (k + 1e-14 * nudge).tocsr()))
    with pytest.raises(ValueError, match="not Hermitian"):
        ExactEvolver(fock.ManyBodyHamiltonian("skewed", basis, (k + 1e-9 * nudge).tocsr()))
    # Hermitian, but a + a^dag changes the particle number
    a = mode_annihilator(np.eye(n)[0], basis)
    mixing = (k + a + a.conjugate().transpose()).tocsr()
    with pytest.raises(ValueError, match="between particle-number sectors"):
        ExactEvolver(fock.ManyBodyHamiltonian("pairing", basis, mixing))


# ---------------------------------------------------------------- protocol


def test_protocol_engine_vacuum_message_leaves_receiver_cold():
    plan = plan_protocol(8, 1, dataclasses.replace(BUDGET, nu=1.0), 0.1, wait=2.0)
    basis = fock_basis(8, 1)
    fv = ProtocolEngine(plan, basis).run([np.array([1.0, 0.0])])
    rho = reduced_qubit(fv, "B", 1)
    assert abs(rho[0, 0] - 1.0) < 1e-12
    assert abs(rho[1, 1]) < 1e-12


def test_protocol_engine_perfect_transport_toy():
    plan = plan_protocol(8, 1, dataclasses.replace(BUDGET, nu=1.0), 0.1, wait=2.0)
    toy = dataclasses.replace(plan, region_b=Region(1, 8))
    basis = fock_basis(8, 1)
    _, fids = two_design_fidelities(toy, basis)
    assert fids[1] > 1.0 - 1e-8


def test_protocol_engine_rejects_oversubscribed_basis():
    plan = plan_protocol(8, 2, dataclasses.replace(BUDGET, nu=1.0), 0.1, wait=2.0)
    with pytest.raises(ValueError):
        ProtocolEngine(plan, fock_basis(8, 1)).run([SIX_DESIGN_STATES["z+"]] * 2)


def test_collision_residual_positive_and_bounded():
    n = 10
    lat = Lattice(n)
    spec = ring_spectrum(n)
    basis = fock_basis(n, 2)
    g0 = gaussian_packet(PacketParams(1.0, 3, 8, Region(1, 5)), lat)
    t = 0.4  # deliberate collision
    pairs = [(0.6 + 0j, 0.8j), (1 / np.sqrt(2) + 0j, 1 / np.sqrt(2) + 0j)]
    evolver = ExactEvolver(tight_binding_hamiltonian(basis, lat))
    enc = build_encoder(g0, basis)
    actual = run_encoding_sequence(pairs, [enc, enc], [t], evolver)
    modes_now = [propagate(g0, t, spec), g0]
    resid = encoding_residual_norm(actual, pairs, modes_now, basis)
    bound = encoding_error_bound(g0, t, 2, spec)
    assert resid > 1e-3
    assert resid <= bound + 1e-8


def test_residual_zero_for_orthogonal_modes():
    n = 8
    lat = Lattice(n)
    basis = fock_basis(n, 2)
    g1 = gaussian_packet(PacketParams(0.8, 2, 6, Region(1, 3)), lat)
    g2 = gaussian_packet(PacketParams(0.8, 6, 6, Region(5, 7)), lat)
    pairs = [(0.6 + 0j, 0.8j), (0.8 + 0j, 0.6 + 0j)]
    # zero wait, disjoint supports: exact product of independent modes
    evolver = ExactEvolver(tight_binding_hamiltonian(basis, lat))
    encoders = [build_encoder(g1, basis), build_encoder(g2, basis)]
    actual = run_encoding_sequence(pairs, encoders, [0.0], evolver)
    resid = encoding_residual_norm(actual, pairs, [g1, g2], basis)
    assert resid < 1e-10


def test_residual_t0_matches_direct_product_evaluation():
    # with zero wait the sequence is U2 U1 |psi psi vac>; rebuild it from
    # dense matrix products as an independent path
    n = 8
    lat = Lattice(n)
    basis = fock_basis(n, 2)
    g0 = gaussian_packet(PacketParams(1.0, 3, 6, Region(1, 5)), lat)
    pairs = [(0.6 + 0j, 0.8j), (0.0j, 1.0 + 0j)]
    evolver = ExactEvolver(tight_binding_hamiltonian(basis, lat))
    enc = build_encoder(g0, basis)
    actual = run_encoding_sequence(pairs, [enc, enc], [0.0], evolver)
    resid = encoding_residual_norm(actual, pairs, [g0, g0], basis)

    f = len(basis)
    u = build_encoder(g0, basis).toarray()
    eye2 = np.eye(2)
    eyef = np.eye(f)
    u1 = np.einsum("ac,bd,xy->abxcdy", eye2, eye2, eyef).reshape(4 * f, 4 * f)
    # build U acting on (A1, fock) and (A2, fock) inside (2,2,f) layout
    u_a1 = np.einsum("axby,cd->acxbdy", u.reshape(2, f, 2, f), eye2).reshape(
        4 * f, 4 * f
    )
    u_a2 = np.einsum("ab,cxdy->acxbdy", eye2, u.reshape(2, f, 2, f)).reshape(
        4 * f, 4 * f
    )
    vac = np.zeros(f, dtype=complex)
    vac[0] = 1.0
    psi = np.kron(np.array(pairs[0]), np.kron(np.array(pairs[1]), vac))
    final = u_a2 @ (u_a1 @ psi)
    creator = mode_annihilator(g0, basis).conjugate().transpose()
    ideal_fock = vac.copy()
    for c, d in pairs:
        ideal_fock = c * ideal_fock + d * np.asarray(creator @ ideal_fock).ravel()
    ideal = np.zeros(4 * f, dtype=complex)
    ideal[:f] = ideal_fock  # A registers both |0>
    assert np.isclose(resid, np.linalg.norm(final - ideal), atol=1e-10)


def test_truncated_matches_full_space():
    plan = plan_protocol(8, 2, dataclasses.replace(BUDGET, nu=1.0), 0.1, wait=3.0)
    msgs = [np.array([0.6, 0.8j]), np.array([1, -1j]) / np.sqrt(2)]
    small = ProtocolEngine(plan, fock_basis(8, 2)).run(msgs)
    full = ProtocolEngine(plan, fock_basis(8, 8)).run(msgs)
    sb, fb = small.basis, full.basis
    worst = 0.0
    for i, s in enumerate(sb.states):
        delta = small.tensor[:, :, i, :, :] - full.tensor[:, :, fb.index[s], :, :]
        worst = max(worst, float(np.max(np.abs(delta))))
    assert worst < 1e-10
    leftover = max(
        (
            float(np.max(np.abs(full.tensor[:, :, i, :, :])))
            for i, s in enumerate(fb.states)
            if s not in sb.index
        ),
        default=0.0,
    )
    assert leftover < 1e-10


# ---------------------------------------------------------------- reduction


def test_reduced_qubit_product_state():
    basis = fock_basis(4, 1)
    psi = np.array([0.6, 0.8j])
    fv = vacuum_vector(basis, 1, 1, [psi])
    rho = reduced_qubit(fv, "A", 1)
    validate_qubit_state(rho)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_reduced_qubit_entangled_register():
    basis = fock_basis(4, 1)
    fv = vacuum_vector(basis, 1, 1)
    # entangle A1 with the lattice: (|0, vac> + |1, site1>)/sqrt(2)
    tensor = np.zeros_like(fv.tensor)
    tensor[0, 0, 0] = 1 / np.sqrt(2)
    tensor[1, basis.index[1], 0] = 1 / np.sqrt(2)
    ent = FockVector(tensor, basis, 1, 1)
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


# ---------------------------------------------------------------- t-J


def test_chain_boundary_drops_wrap_bond():
    from fermiwire.lattice import Boundary
    from fermiwire.fock import adjacent_pair_counts

    basis = fock_basis(6, 2)
    chain = Lattice(6, Boundary.CHAIN)
    ring = Lattice(6, Boundary.RING)
    ends_occupied = basis.index[0b100001]  # sites 1 and 6
    assert adjacent_pair_counts(basis, chain)[ends_occupied] == 0.0
    assert adjacent_pair_counts(basis, ring)[ends_occupied] == 1.0
    kc = kinetic_matrix(basis, chain)
    kr = kinetic_matrix(basis, ring)
    assert kc.nnz < kr.nnz


def test_two_packet_state_rejects_coincident_modes():
    basis = fock_basis(8, 2)
    lat = Lattice(8)
    params = PacketParams(1.0, 4, 6, Region(2, 6))
    with pytest.raises(ValueError):
        two_packet_state(basis, lat, params, params)


def test_interaction_error_single_particle_zero():
    n = 8
    basis = fock_basis(n, 2)
    lat = Lattice(n)
    g = gaussian_packet(PacketParams(1.0, 4, 6, Region(2, 6)), lat)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    one = np.asarray(mode_annihilator(g, basis).conjugate().transpose() @ vac).ravel()
    fv = FockVector(one, basis, 0, 0)
    assert tj_interaction_error(fv, lat) == 0.0


def test_interaction_error_adjacent_pair_eigenstate():
    n = 6
    basis = fock_basis(n, 2)
    lat = Lattice(n)
    state = np.zeros(len(basis), dtype=complex)
    state[basis.index[0b11]] = 1.0  # sites 1 and 2 occupied
    fv = FockVector(state, basis, 0, 0)
    assert np.isclose(tj_interaction_error(fv, lat), 1.0, atol=1e-14)


def test_interaction_error_shrinks_with_separation():
    n = 10
    basis = fock_basis(n, 2)
    lat = Lattice(n)
    k_minus, k_plus = 3, 8
    near_b = PacketParams(0.8, 5, k_plus, Region(3, 7))
    far_b = PacketParams(0.8, 7, k_plus, Region(5, 9))
    pa = PacketParams(0.8, 3, k_minus, Region(1, 5))
    eps_near = tj_interaction_error(two_packet_state(basis, lat, pa, near_b), lat)
    eps_far = tj_interaction_error(two_packet_state(basis, lat, pa, far_b), lat)
    assert eps_near >= 10 * eps_far


def test_evolution_difference_trivial_cases():
    n = 10
    basis = fock_basis(n, 2)
    lat = Lattice(n)
    from fermiwire.harness import separating_pair

    pa, pb = separating_pair(n)
    st = two_packet_state(basis, lat, pa, pb)
    assert evolution_difference(st, 0.8, 1.0, 0.0, lat) < 1e-10
    g = gaussian_packet(PacketParams(1.0, 4, 8, Region(2, 6)), lat)
    vac = np.zeros(len(basis), dtype=complex)
    vac[0] = 1.0
    one = np.asarray(mode_annihilator(g, basis).conjugate().transpose() @ vac).ravel()
    fv = FockVector(one, basis, 0, 0)
    assert evolution_difference(fv, 0.8, 1.0, 3.0, lat) < 1e-10


def test_evolution_difference_bounded_for_separating_pair():
    n = 10
    basis = fock_basis(n, 2)
    lat = Lattice(n)
    from fermiwire.harness import separating_pair

    pa, pb = separating_pair(n)
    st = two_packet_state(basis, lat, pa, pb)
    eps_i = tj_interaction_error(st, lat)
    assert eps_i > 0
    for s in (0.1, 0.5, 1.0):
        diff = evolution_difference(st, s, 1.0, 1.0, lat)
        assert diff <= s * eps_i + 1e-6


def test_evolution_difference_violation_is_detectable():
    # approaching packets break the first-order bound; the quantities
    # still expose it honestly rather than hiding it
    n = 10
    basis = fock_basis(n, 2)
    lat = Lattice(n)
    pa = PacketParams(1.0, 3, 8, Region(1, 5))  # moving +theta
    pb = PacketParams(1.0, 6, 2, Region(4, 8))  # moving -theta, toward pa
    st = two_packet_state(basis, lat, pa, pb)
    eps_i = tj_interaction_error(st, lat)
    diff = evolution_difference(st, 1.0, 1.0, 1.0, lat)
    assert diff > eps_i + 1e-6


# ---------------------------------------------------------------- bound


def test_fidelity_bound_holds_on_small_grid():
    from fermiwire.protocol import error_budget

    for n, nu in ((8, 1.0), (10, 1.0), (12, 2.0)):
        for m in (1, 2):
            budget = dataclasses.replace(BUDGET, nu=nu)
            plan = plan_protocol(n, m, budget, 0.1, wait=1.0)
            plan = dataclasses.replace(plan, wait=plan.decode_time + 1.0)
            basis = fock_basis(n, m)
            outputs, fids = two_design_fidelities(plan, basis)
            rep = error_budget(plan)
            for alpha in fids:
                assert fids[alpha] >= rep.fidelity_bound - 1e-6
                for rho in outputs[alpha].values():
                    validate_qubit_state(rho)
