import numpy as np
import pytest

from fermiwire.lattice import Lattice, propagate, ring_spectrum, transit_time
from fermiwire.wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    broadening_prediction,
    carrier_mode,
    centroid_shift,
    characteristic_width,
    circular_centroid,
    fourier_airy_overlap,
    gaussian_packet,
    measured_width,
    overlap,
    overlap_decay_estimate,
    region_weight,
    sigma_for_budget,
    sigma_sites_for_budget,
    spectral_leakage,
    width_report,
)

BUDGET = PacketBudget(c=9.0, kappa=1.0)


def default_packet(n, budget=BUDGET):
    lattice = Lattice(n)
    params = sigma_for_budget(n, budget)
    return gaussian_packet(params, lattice), params, lattice


# ---------------------------------------------------------------- packets


def test_single_site_region_is_basis_state():
    lat = Lattice(16)
    params = PacketParams(2.0, 5, 4, Region(5, 5))
    with pytest.warns(RuntimeWarning):
        state = gaussian_packet(params, lat)
    assert np.isclose(abs(state[4]), 1.0, atol=1e-12)
    assert np.isclose(np.linalg.norm(state), 1.0, atol=1e-12)


def test_packet_normalized():
    state, _, _ = default_packet(64)
    assert np.isclose(np.linalg.norm(state), 1.0, atol=1e-14)


def test_packet_envelope_ratio_at_one_sigma():
    lat = Lattice(64)
    params = PacketParams(4.0, 8, 16, Region(1, 16))
    g = gaussian_packet(params, lat)
    ratio = abs(g[8 + 4 - 1]) / abs(g[8 - 1])
    assert np.isclose(ratio, np.exp(-0.5), atol=1e-12)


def test_packet_rejects_bad_sigma_and_center():
    with pytest.raises(ValueError):
        PacketParams(-1.0, 5, 4, Region(1, 10))
    with pytest.raises(ValueError):
        PacketParams(1.0, 11, 4, Region(1, 10))


def test_sigma_for_budget_values():
    sigma = sigma_sites_for_budget(512, PacketBudget(c=4.0, kappa=1.0))
    assert np.isclose(sigma, (2.0 / (np.sqrt(2.0) * np.pi)) * 512 ** (1 / 3),
                      rtol=1e-12)
    assert np.isclose(sigma, 3.6013, atol=2e-4)
    # doubling kappa halves the width
    assert np.isclose(
        sigma_sites_for_budget(512, PacketBudget(c=4.0, kappa=2.0)), sigma / 2,
        rtol=1e-12)


def test_characteristic_width_value():
    l0 = characteristic_width(4096, PacketBudget(c=9.0, kappa=1.0))
    assert np.isclose(l0, 4096 ** (-2 / 3) * 3.0 / (2 * np.pi), rtol=1e-12)
    assert np.isclose(l0, 0.0018652, atol=2e-7)


def test_carrier_mode_nearest_quarter_modes():
    for n in (8, 64, 1024):
        assert carrier_mode(n) == 3 * n // 4
        assert carrier_mode(n, direction=-1) == n // 4
    assert [carrier_mode(n) for n in (10, 14, 9)] == [8, 11, 7]
    assert [carrier_mode(n, -1) for n in (10, 14, 9)] == [3, 4, 2]


def test_sigma_for_budget_directions():
    p_fwd = sigma_for_budget(64, BUDGET, direction=+1)
    p_bwd = sigma_for_budget(64, BUDGET, direction=-1)
    assert p_fwd.wavenumber == 48
    assert p_bwd.wavenumber == 16


# ---------------------------------------------------------------- overlaps


def test_overlap_self_and_disjoint():
    lat = Lattice(64)
    a = gaussian_packet(PacketParams(2.0, 8, 16, Region(1, 16)), lat)
    b = gaussian_packet(PacketParams(2.0, 40, 16, Region(33, 48)), lat)
    assert np.isclose(overlap(a, a), 1.0, atol=1e-12)
    assert overlap(a, b) == 0.0
    with pytest.raises(ValueError):
        overlap(a, np.zeros(32, dtype=complex))


def test_overlap_regression_fixture_transit_time():
    n = 1024
    state, _, _ = default_packet(n)
    spec = ring_spectrum(n)
    value = abs(overlap(state, propagate(state, transit_time(n), spec)))
    assert value < 0.01


def test_overlap_unitary_invariance():
    n = 64
    lat = Lattice(n)
    spec = ring_spectrum(n)
    a = gaussian_packet(PacketParams(2.0, 8, 16, Region(1, 16)), lat)
    b = gaussian_packet(PacketParams(3.0, 20, 48, Region(12, 30)), lat)
    before = abs(overlap(a, b))
    after = abs(overlap(propagate(a, 5.1, spec), propagate(b, 5.1, spec)))
    assert np.isclose(before, after, atol=1e-10)


# ---------------------------------------------------------------- weights


def test_region_weight_trivial_cases():
    state, params, _ = default_packet(64)
    assert np.isclose(region_weight(state, Region(1, 64)), 1.0, atol=1e-12)
    far = Region(40, 50)
    assert region_weight(state, far) < 1e-20
    assert region_weight(state, params.region) >= 1.0 - np.exp(-BUDGET.c)


def test_raw_gaussian_weight_outside_default_region():
    # the untruncated envelope leaves only an exponentially small tail
    # outside the default support, decreasing in c
    n = 256
    lat = Lattice(n)
    leftovers = []
    for c in (1.0, 4.0, 9.0, 16.0):
        budget = PacketBudget(c=c, kappa=1.0)
        params = sigma_for_budget(n, budget, center=n // 2)
        full = PacketParams(
            params.sigma_sites, params.center, params.wavenumber, Region(1, n)
        )
        raw = gaussian_packet(full, lat)
        leftovers.append(1.0 - region_weight(raw, params.region))
    # strictly decreasing until the tail sinks below double precision
    for x, y in zip(leftovers, leftovers[1:]):
        assert y <= x
        if x > 1e-15:
            assert y < x
    assert leftovers[-1] < 1e-10


# ---------------------------------------------------------------- widths


def test_measured_width_point_and_uniform():
    state = np.zeros(32, dtype=complex)
    state[7] = 1.0
    assert measured_width(state) == 0.0
    uniform = np.ones(32, dtype=complex) / np.sqrt(32)
    assert np.isclose(measured_width(uniform), 1.0 / np.pi, atol=1e-12)


def test_measured_width_matches_sigma():
    n, s = 256, 8.0
    lat = Lattice(n)
    g = gaussian_packet(PacketParams(s, 128, 192, Region(80, 176)), lat)
    assert np.isclose(measured_width(g), s / n, rtol=0.05)


def test_centroid_tracks_packet_center():
    state, params, _ = default_packet(512)
    assert np.isclose(circular_centroid(state), params.center / 512, atol=1e-3)


def test_centroid_motion_matches_group_velocity():
    # angular advance v(k0)*t within 3 percent up to the nominal transit
    from fermiwire.lattice import group_velocity

    for n in (512, 1024):
        state, params, _ = default_packet(n)
        spec = ring_spectrum(n)
        t = transit_time(n)
        shift_angle = 2 * np.pi * centroid_shift(state, propagate(state, t, spec))
        expected = group_velocity(params.wavenumber, n) * t
        assert abs(shift_angle - expected) / abs(expected) < 0.03


# ---------------------------------------------------------------- broadening


def test_broadening_prediction_values():
    assert broadening_prediction(1.0, 0.0, 1.0) == 1.0
    # bracket equal to one gives sqrt(1.5)
    l0 = 1.0
    omega3_t = np.sqrt(2.0) * l0**3
    assert np.isclose(broadening_prediction(l0, 1.0, omega3_t), np.sqrt(1.5),
                      rtol=1e-12)
    with pytest.raises(ValueError):
        broadening_prediction(0.0, 1.0, 1.0)


def test_broadening_prediction_constant_across_n():
    from fermiwire.lattice import dispersion_third_derivative

    ratios = []
    for n in (512, 1024, 2048):
        l0_angle = 2 * np.pi * characteristic_width(n, BUDGET)
        omega3 = dispersion_third_derivative(n, 3 * n // 4)
        ratios.append(broadening_prediction(l0_angle, transit_time(n), omega3))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.10


def test_width_report_agreement():
    for n in (512, 2048):
        lat = Lattice(n)
        spec = ring_spectrum(n)
        params = sigma_for_budget(n, BUDGET)
        rep = width_report(params, transit_time(n), lat, spec, BUDGET)
        assert rep.l0 > 0 and rep.lt > 0
        rel = abs(rep.measured_ratio - rep.predicted_ratio) / rep.predicted_ratio
        assert rel < 0.15


# ---------------------------------------------------------------- decay


def test_overlap_decay_estimate_shape():
    assert overlap_decay_estimate(0.0, BUDGET) == 1.0
    # scaling collapse: only kappa^2 x1^2 / c matters
    a = overlap_decay_estimate(2.0, PacketBudget(c=9.0, kappa=1.0))
    b = overlap_decay_estimate(1.0, PacketBudget(c=9.0 / 4.0, kappa=1.0))
    assert np.isclose(a, b, rtol=1e-12)


def test_overlap_decay_fit_is_linear():
    xs, ys = [], []
    for n in (512, 1024, 2048):
        state, _, _ = default_packet(n)
        spec = ring_spectrum(n)
        for x1 in np.linspace(0.8, 2.2, 6):
            t = 0.5 * x1 * n ** (1 / 3)
            mag = abs(overlap(state, propagate(state, t, spec)))
            xs.append(t**2 * n ** (-2 / 3))
            ys.append(-np.log(mag))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = np.array(ys) - (slope * np.array(xs) + intercept)
    r2 = 1 - resid @ resid / np.sum((ys - np.mean(ys)) ** 2)
    assert r2 >= 0.95


# ---------------------------------------------------------------- quadrature


def test_fourier_airy_normalization_at_zero():
    assert abs(fourier_airy_overlap(BUDGET, 1024, 0.0) - 1.0) < 1e-9


def test_fourier_airy_gaussian_term_closed_form():
    n = 1024
    for x1 in (0.5, 1.0, 2.0):
        t = 0.5 * x1 * n ** (1 / 3)
        got = fourier_airy_overlap(BUDGET, n, t, include_cubic=False)
        assert abs(abs(got) - overlap_decay_estimate(x1, BUDGET)) < 1e-8


def test_fourier_airy_matches_lattice():
    n = 1024
    state, _, _ = default_packet(n)
    spec = ring_spectrum(n)
    for x1 in (1.0, 2.0):
        t = 0.5 * x1 * n ** (1 / 3)
        lattice_val = abs(overlap(state, propagate(state, t, spec)))
        quad_val = abs(fourier_airy_overlap(BUDGET, n, t))
        assert abs(lattice_val - quad_val) / quad_val < 0.05


# ---------------------------------------------------------------- leakage


def test_spectral_leakage_trivial_cases():
    n = 64
    spec = ring_spectrum(n)
    vec = spec.eigenvector(48)
    assert spectral_leakage(vec, spec, 48, 1.0) < 1e-24
    state, params, _ = default_packet(n)
    assert spectral_leakage(state, spec, params.wavenumber, n / 2) == 0.0


def test_spectral_leakage_budget_packet():
    n = 512
    leaks = []
    for c in (1.0, 4.0, 9.0, 16.0):
        budget = PacketBudget(c=c, kappa=1.0)
        state, params, _ = default_packet(n, budget)
        spec = ring_spectrum(n)
        leak = spectral_leakage(state, spec, params.wavenumber, budget.cutoff(n))
        leaks.append(leak)
        assert leak <= np.exp(-c) * 1.5
    assert all(x > y for x, y in zip(leaks, leaks[1:]))
