import numpy as np
import pytest
import scipy.linalg
from references import random_state

from fermiwire.lattice import (
    Boundary,
    Lattice,
    Spectrum,
    build_hopping,
    diagonalize,
    dispersion,
    dispersion_third_derivative,
    group_velocity,
    propagate,
    ring_spectrum,
    transit_time,
)


def test_lattice_rejects_tiny():
    with pytest.raises(ValueError):
        Lattice(3)


def test_build_hopping_ring_row_sums():
    h = build_hopping(Lattice(4))
    assert np.array_equal(h, h.T)
    assert np.all(h.sum(axis=1) == 2)
    assert np.all(np.diag(h) == 0)


def test_build_hopping_ring_eigenvalues_n4():
    h = build_hopping(Lattice(4))
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_build_hopping_chain_eigenvalues_n4():
    # dense eigensolve of the open 4-site chain as the oracle
    lat = Lattice(4, Boundary.CHAIN)
    h = build_hopping(lat)
    assert h[0, 3] == 0 and h[3, 0] == 0
    golden = (1 + np.sqrt(5)) / 2
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-golden, -1 / golden, 1 / golden, golden], atol=1e-10)


def test_chain_spectrum_matches_sine_modes():
    lat = Lattice(5, Boundary.CHAIN)
    spec = diagonalize(lat)
    expected = np.array([2 * np.cos(np.pi * k / 6) for k in range(1, 6)])
    assert np.allclose(spec.eigenvalues, expected, atol=1e-10)


def test_diagonalize_ring_examples():
    spec = ring_spectrum(8)
    assert np.isclose(spec.eigenvalues[0], np.sqrt(2.0), atol=1e-12)  # k = 1
    assert np.isclose(spec.eigenvalues[3], -2.0, atol=1e-12)  # k = N/2
    assert np.isclose(spec.eigenvalues.sum(), 0.0, atol=1e-12)


def test_ring_eigenvalue_multiset():
    n = 12
    h = build_hopping(Lattice(n))
    numeric = np.sort(np.linalg.eigvalsh(h))
    formula = np.sort([dispersion(k, n) for k in range(1, n + 1)])
    assert np.allclose(numeric, formula, atol=1e-10)


@pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.CHAIN])
def test_spectrum_orthonormal_and_eigen(boundary):
    lat = Lattice(9, boundary)
    h = build_hopping(lat)
    spec = diagonalize(lat)
    vecs = []
    for k in range(1, 10):
        vec, omega = spec.eigenvector(k), spec.eigenvalues[k - 1]
        assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-10)
        assert np.allclose(h @ vec, omega * vec, atol=1e-10)
        vecs.append(vec)
    vecs = np.array(vecs).T
    gram = vecs.conj().T @ vecs
    assert np.allclose(gram, np.eye(9), atol=1e-10)


def test_dispersion_examples():
    assert np.isclose(dispersion(16, 64), 0.0, atol=1e-12)  # k = N/4
    assert np.isclose(dispersion(64, 64), 2.0, atol=1e-12)  # k = N
    assert np.isclose(dispersion(2, 12), 1.0, atol=1e-12)


def test_dispersion_range_check():
    with pytest.raises(ValueError):
        dispersion(0, 8)
    with pytest.raises(ValueError):
        dispersion(9, 8)


def test_group_velocity_examples():
    n = 256
    assert np.isclose(group_velocity(64, n), -4 * np.pi / n, atol=1e-14)
    assert np.isclose(group_velocity(64, n), -0.0490874, atol=1e-7)
    assert np.isclose(group_velocity(128, n), 0.0, atol=1e-12)  # k = N/2


def test_dispersion_third_derivative_at_quarter():
    n = 64
    assert np.isclose(
        dispersion_third_derivative(n, n // 4), 2 * (2 * np.pi / n) ** 3, atol=1e-15
    )


def test_transit_time_values():
    assert np.isclose(transit_time(256), 10.18592, atol=5e-6)
    assert np.isclose(transit_time(1024), 40.74366, atol=5e-6)
    with pytest.raises(ValueError):
        transit_time(10)


def test_propagate_identity_at_zero():
    spec = ring_spectrum(8)
    rng = np.random.default_rng(5)
    state = random_state(8, rng)
    assert np.allclose(propagate(state, 0.0, spec), state, atol=1e-12)


def test_propagate_linear_spectrum_translates_exactly():
    # a toy spectrum linear in the mode index shifts every state by a
    # whole number of sites
    n, shift, t = 128, 16, 4.0
    lat = Lattice(n)
    toy = Spectrum(lat, 2.0 * np.pi * shift * np.arange(1, n + 1) / (n * t))
    state = random_state(n, np.random.default_rng(7))
    assert np.max(np.abs(propagate(state, t, toy) - np.roll(state, shift))) < 1e-10


def test_propagate_eigenmode_phase():
    spec = ring_spectrum(8)
    for k in (1, 3, 8):
        vec = spec.eigenvector(k)
        out = propagate(vec, 2.3, spec)
        assert np.allclose(out, np.exp(-1j * spec.eigenvalues[k - 1] * 2.3) * vec,
                           atol=1e-12)


def test_propagate_matches_dense_exponential():
    n, t = 8, 3.7
    spec = ring_spectrum(n)
    h = build_hopping(Lattice(n))
    u = scipy.linalg.expm(-1j * t * h)
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = random_state(n, rng)
        assert np.max(np.abs(propagate(state, t, spec) - u @ state)) < 1e-8


def test_propagate_basis_state_dense_oracle():
    n, t = 8, 3.7
    spec = ring_spectrum(n)
    h = build_hopping(Lattice(n))
    vals, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    state = np.eye(n, dtype=complex)[0]
    assert np.max(np.abs(propagate(state, t, spec) - u @ state)) < 1e-8


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_ring_spectral_vs_dense_small(n):
    spec = ring_spectrum(n)
    h = build_hopping(Lattice(n))
    rng = np.random.default_rng(n)
    for t in (0.9, 4.2):
        u = scipy.linalg.expm(-1j * t * h)
        state = random_state(n, rng)
        assert np.max(np.abs(propagate(state, t, spec) - u @ state)) < 1e-8


def test_propagate_unitarity_random_times():
    n = 64
    spec = ring_spectrum(n)
    rng = np.random.default_rng(3)
    for _ in range(6):
        state = random_state(n, rng)
        t = rng.uniform(0, n)
        assert abs(np.linalg.norm(propagate(state, t, spec)) - 1.0) < 1e-10


def test_propagate_group_property_and_reversal():
    n = 32
    spec = ring_spectrum(n)
    rng = np.random.default_rng(7)
    state = random_state(n, rng)
    t1, t2 = 1.7, 2.9
    two_step = propagate(propagate(state, t1, spec), t2, spec)
    one_step = propagate(state, t1 + t2, spec)
    assert np.max(np.abs(two_step - one_step)) < 1e-9
    back = propagate(propagate(state, t1, spec), -t1, spec)
    assert np.max(np.abs(back - state)) < 1e-9


def test_propagate_rejects_unnormalized():
    spec = ring_spectrum(8)
    with pytest.raises(ValueError):
        propagate(np.ones(8, dtype=complex), 1.0, spec)


def test_chain_propagate_matches_dense_exponential():
    lat = Lattice(9, Boundary.CHAIN)
    spec = diagonalize(lat)
    rng = np.random.default_rng(8)
    state = random_state(9, rng)
    u = scipy.linalg.expm(-1j * 2.7 * build_hopping(lat))
    out = propagate(state, 2.7, spec)
    assert np.max(np.abs(out - u @ state)) < 1e-10
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_mode_amplitudes_recover_coefficients():
    n = 16
    spec = ring_spectrum(n)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[2] = 0.6
    coeffs[9] = 0.8j
    state = sum(c * spec.eigenvector(k + 1) for k, c in enumerate(coeffs) if c)
    assert np.allclose(spec.mode_amplitudes(state), coeffs, atol=1e-12)
