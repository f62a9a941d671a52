import numpy as np
import pytest
import scipy.linalg
from references import build_hopping, plane_wave, random_state

import fermiwire.lattice
from fermiwire.lattice import (
    dispersion,
    dispersion_third_derivative,
    group_velocity,
    mode_amplitudes,
    propagate,
    ring_bonds,
    ring_energies,
    transit_time,
)


def test_lattice_rejects_tiny():
    with pytest.raises(ValueError, match="need at least 4 sites, got 3"):
        ring_bonds(3)
    assert ring_bonds(4) == [(1, 2), (2, 3), (3, 4), (4, 1)]


def test_state_must_be_one_dimensional():
    # a normalized 2-D array is not a ring state: N is read from a 1-D length
    square = np.eye(4, dtype=complex)[:1]
    with pytest.raises(ValueError, match="1-D"):
        propagate(square, 1.0)
    with pytest.raises(ValueError, match="1-D"):
        mode_amplitudes(square)
    with pytest.raises(ValueError, match="1-D"):
        mode_amplitudes(np.complex128(1.0))


def test_build_hopping_ring_row_sums():
    h = build_hopping(4)
    assert np.array_equal(h, h.T)
    assert np.all(h.sum(axis=1) == 2)
    assert np.all(np.diag(h) == 0)


def test_build_hopping_ring_eigenvalues_n4():
    h = build_hopping(4)
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_ring_energies_examples():
    energies = ring_energies(8)
    assert np.isclose(energies[0], np.sqrt(2.0), atol=1e-12)  # k = 1
    assert np.isclose(energies[3], -2.0, atol=1e-12)  # k = N/2
    assert np.isclose(energies.sum(), 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 7, 12, 1000, 4096])
def test_ring_energies_are_the_dispersion_bit_for_bit(n):
    assert ring_energies(n).tolist() == [dispersion(k, n) for k in range(1, n + 1)]


def test_ring_eigenvalue_multiset():
    n = 12
    h = build_hopping(n)
    numeric = np.sort(np.linalg.eigvalsh(h))
    formula = np.sort([dispersion(k, n) for k in range(1, n + 1)])
    assert np.allclose(numeric, formula, atol=1e-10)


def test_spectrum_orthonormal_and_eigen():
    h = build_hopping(9)
    energies = ring_energies(9)
    vecs = []
    for k in range(1, 10):
        vec, omega = plane_wave(9, k), energies[k - 1]
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
    rng = np.random.default_rng(5)
    state = random_state(8, rng)
    assert np.allclose(propagate(state, 0.0), state, atol=1e-12)


def test_propagate_linear_spectrum_translates_exactly(monkeypatch):
    # a toy spectrum linear in the mode index shifts every state by a
    # whole number of sites, which pins the FFT bin of every mode
    n, shift, t = 128, 16, 4.0
    toy = 2.0 * np.pi * shift * np.arange(1, n + 1) / (n * t)
    monkeypatch.setattr(fermiwire.lattice, "ring_energies", lambda size: toy[:size])
    state = random_state(n, np.random.default_rng(7))
    assert np.max(np.abs(propagate(state, t) - np.roll(state, shift))) < 1e-10


def test_propagate_eigenmode_phase():
    energies = ring_energies(8)
    for k in (1, 3, 8):
        vec = plane_wave(8, k)
        out = propagate(vec, 2.3)
        assert np.allclose(out, np.exp(-1j * energies[k - 1] * 2.3) * vec, atol=1e-12)


def test_propagate_matches_dense_exponential():
    n, t = 8, 3.7
    u = scipy.linalg.expm(-1j * t * build_hopping(n))
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = random_state(n, rng)
        assert np.max(np.abs(propagate(state, t) - u @ state)) < 1e-8


def test_propagate_basis_state_dense_oracle():
    n, t = 8, 3.7
    vals, vecs = np.linalg.eigh(build_hopping(n))
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    state = np.eye(n, dtype=complex)[0]
    assert np.max(np.abs(propagate(state, t) - u @ state)) < 1e-8


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_ring_spectral_vs_dense_small(n):
    h = build_hopping(n)
    rng = np.random.default_rng(n)
    for t in (0.9, 4.2):
        u = scipy.linalg.expm(-1j * t * h)
        state = random_state(n, rng)
        assert np.max(np.abs(propagate(state, t) - u @ state)) < 1e-8


def test_propagate_unitarity_random_times():
    n = 64
    rng = np.random.default_rng(3)
    for _ in range(6):
        state = random_state(n, rng)
        t = rng.uniform(0, n)
        assert abs(np.linalg.norm(propagate(state, t)) - 1.0) < 1e-10


def test_propagate_group_property_and_reversal():
    n = 32
    rng = np.random.default_rng(7)
    state = random_state(n, rng)
    t1, t2 = 1.7, 2.9
    two_step = propagate(propagate(state, t1), t2)
    one_step = propagate(state, t1 + t2)
    assert np.max(np.abs(two_step - one_step)) < 1e-9
    back = propagate(propagate(state, t1), -t1)
    assert np.max(np.abs(back - state)) < 1e-9


def test_propagate_rejects_unnormalized():
    # NaN fails every comparison, so the norm check must not pass on one
    for state in (np.ones(8, dtype=complex), np.full(8, np.nan, dtype=complex)):
        with pytest.raises(ValueError, match="not normalized"):
            propagate(state, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan])])
def test_propagate_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="need finite times, got t = "):
        propagate(random_state(8, np.random.default_rng(3)), bad)


def test_mode_amplitudes_recover_coefficients():
    n = 16
    coeffs = np.zeros(n, dtype=complex)
    coeffs[2] = 0.6
    coeffs[9] = 0.8j
    state = sum(c * plane_wave(n, k + 1) for k, c in enumerate(coeffs) if c)
    assert np.allclose(mode_amplitudes(state), coeffs, atol=1e-12)


@pytest.mark.parametrize("n", [8, 14, 64, 1024])
def test_propagate_times_array_rows_are_the_scalar_bytes(n):
    state = random_state(n, np.random.default_rng(n))
    times = np.array([0.0, 0.3, 0.8, 2.3, 4.6, -1.7, 0.1 * n])
    rows = propagate(state, times)
    assert rows.shape == (len(times), n)
    for row, t in zip(rows, times):
        assert row.tobytes() == propagate(state, float(t)).tobytes()
