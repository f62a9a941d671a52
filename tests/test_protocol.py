from dataclasses import replace

import numpy as np
import pytest

import fermiwire.lattice
from fermiwire.lattice import (
    Boundary,
    Lattice,
    Spectrum,
    diagonalize,
    propagate,
    ring_spectrum,
)
from fermiwire.protocol import (
    accumulate_error,
    angular_distance,
    decode_mode,
    encoding_error_bound,
    error_budget,
    fit_rate_scaling,
    line_fit,
    min_wait_time,
    plan_protocol,
    propagation_error,
    region_size,
    translated_envelope,
)
from fermiwire.wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    gaussian_packet,
    overlap,
    region_weight,
    sigma_for_budget,
)

BUDGET = PacketBudget(c=9.0, kappa=1.0)


# ---------------------------------------------------------------- planning


def test_plan_region_sizes():
    plan = plan_protocol(512, 2, PacketBudget(9.0, 1.0, nu=2.0), 0.01, wait=10.0)
    assert len(plan.region_a) == 16
    assert len(plan.region_b) == 16
    assert plan.region_a.start == 1
    assert plan.region_b.start == 256


def test_plan_region_start_large_n():
    plan = plan_protocol(4096, 1, PacketBudget(9.0, 1.0, nu=2.0), 0.01, wait=10.0)
    assert len(plan.region_a) == 32
    assert plan.region_b.start == 2048


def test_plan_rejects_overlapping_regions():
    with pytest.raises(ValueError):
        plan_protocol(16, 1, PacketBudget(9.0, 1.0, nu=4.0), 0.01, wait=1.0)


def test_plan_m1_report_has_zero_encoding_error():
    plan = plan_protocol(256, 1, BUDGET, 0.01, wait=5.0)
    rep = error_budget(plan)
    assert rep.eps_e == 0.0


@pytest.mark.parametrize(
    "n, nu, region_a, region_b, k0, decode_time",
    [
        (10, 1.0, (1, 3), (5, 7), 8, 2.1029244484765344),
        (14, 2.0, (1, 5), (7, 11), 11, 3.077150589817661),
    ],
    ids=["N10", "N14"],
)
def test_plan_small_ring_not_divisible_by_four(
    n, nu, region_a, region_b, k0, decode_time
):
    plan = plan_protocol(n, 3, replace(BUDGET, nu=nu), 0.01, wait=1.0)
    assert (plan.region_a.start, plan.region_a.stop) == region_a
    assert (plan.region_b.start, plan.region_b.stop) == region_b
    assert plan.packet.wavenumber == k0
    assert plan.decode_time == decode_time


def test_plan_default_wait_needs_n_divisible_by_four():
    with pytest.raises(ValueError, match="divisible by 4"):
        plan_protocol(10, 2, replace(BUDGET, nu=1.0), 0.01)


def test_ring_paths_build_no_dense_matrix(monkeypatch):
    def refuse(lattice):
        raise AssertionError(f"dense hopping matrix built for N = {lattice.n_sites}")

    monkeypatch.setattr(fermiwire.lattice, "build_hopping", refuse)
    n = 1024
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), Lattice(n))
    assert abs(np.linalg.norm(propagate(g0, 3.0, spec)) - 1.0) < 1e-10
    rep = error_budget(plan_protocol(n, 4, BUDGET, 0.01))
    assert 0.0 <= rep.fidelity_bound <= 1.0


def test_plan_decode_time_is_angular_distance_over_speed():
    n = 1024
    plan = plan_protocol(n, 1, BUDGET, 0.01, wait=5.0)
    from fermiwire.lattice import group_velocity

    d = angular_distance(n, plan.region_a.center_site, plan.region_b.center_site)
    assert np.isclose(plan.decode_time, d / abs(group_velocity(3 * n // 4, n)),
                      rtol=1e-12)
    # roughly a quarter of the ring loop, i.e. order N/4
    assert 0.2 * n < plan.decode_time < 0.3 * n


# ---------------------------------------------------------------- encoding


def test_encoding_bound_m1_empty_sum():
    spec = ring_spectrum(256)
    g0 = gaussian_packet(sigma_for_budget(256, BUDGET), Lattice(256))
    assert encoding_error_bound(g0, 3.0, 1, spec) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
@pytest.mark.parametrize(
    "n, boundary", [(64, Boundary.RING), (1024, Boundary.RING), (40, Boundary.CHAIN)],
    ids=["ring-64", "ring-1024", "chain-40"],
)
def test_encoding_bound_matches_propagate_reference(n, boundary, m):
    # independent reference: propagate the packet to every earlier signal's age
    spec = diagonalize(Lattice(n, boundary))
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), Lattice(n))
    for t in (0.05, 1.0, 7.3, n / 4):
        expected = 3.0 * sum(
            (m - j) * abs(overlap(g0, propagate(g0, j * t, spec))) for j in range(1, m)
        )
        value = encoding_error_bound(g0, t, m, spec)
        assert type(value) is float
        assert abs(value - expected) <= 1e-12
    with pytest.raises(ValueError, match="norm"):
        encoding_error_bound(1.001 * g0, 1.0, m, spec)
    with pytest.raises(ValueError):
        encoding_error_bound(g0[:-1] / np.linalg.norm(g0[:-1]), 1.0, m, spec)


def test_encoding_bound_fixture_m4():
    n = 1024
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), Lattice(n))
    value = encoding_error_bound(g0, 4.0 * n ** (1 / 3), 4, spec)
    assert value < 0.05


def test_encoding_bound_global_phase_invariance():
    n = 256
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), Lattice(n))
    a = encoding_error_bound(g0, 2.5, 3, spec)
    b = encoding_error_bound(np.exp(0.7j) * g0, 2.5, 3, spec)
    assert np.isclose(a, b, atol=1e-12)


def test_encoding_bound_drops_below_any_target_before_recurrence():
    n = 512
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), Lattice(n))
    assert encoding_error_bound(g0, n / 4.0, 2, spec) < 1e-4


# ---------------------------------------------------------------- decoding


def test_decode_mode_full_support():
    n = 64
    lat = Lattice(n)
    g = gaussian_packet(PacketParams(2.0, 32, 48, Region(24, 40)), lat)
    h, eps_d = decode_mode(g, Region(24, 40))
    assert eps_d < 1e-12
    assert np.allclose(h, g, atol=1e-12)


def test_decode_mode_quarter_weight():
    state = np.zeros(16, dtype=complex)
    state[0] = 0.5
    state[8] = np.sqrt(1 - 0.25)
    h, eps_d = decode_mode(state, Region(1, 4))
    assert np.isclose(eps_d, 0.5, atol=1e-12)


def test_decode_mode_consistency_with_region_weight():
    n = 512
    plan = plan_protocol(n, 1, BUDGET, 0.01, wait=5.0)
    g0 = gaussian_packet(plan.packet, Lattice(n))
    gT = propagate(g0, plan.decode_time, ring_spectrum(n))
    h, eps_d = decode_mode(gT, plan.region_b)
    assert np.isclose(
        eps_d, 1.0 - np.sqrt(region_weight(gT, plan.region_b)), atol=1e-12
    )


def test_decode_mode_rejects_zero_weight():
    state = np.zeros(16, dtype=complex)
    state[0] = 1.0
    with pytest.raises(ValueError):
        decode_mode(state, Region(8, 12))


def test_decode_error_shrinks_with_region_coefficient():
    n = 1024
    lat = Lattice(n)
    spec = ring_spectrum(n)
    values = []
    for nu in (1.0, 2.0, 3.0):
        budget = PacketBudget(9.0, 1.0, nu=nu)
        plan = plan_protocol(n, 1, budget, 0.01, wait=5.0)
        g0 = gaussian_packet(plan.packet, lat)
        gT = propagate(g0, plan.decode_time, spec)
        _, eps_d = decode_mode(gT, plan.region_b)
        values.append(eps_d)
    # each extra nu*N^(1/3) of receiver width cuts the deficit hard
    assert values[1] < 0.5 * values[0]
    assert values[2] < 0.5 * values[1]


# ---------------------------------------------------------------- propagation


def test_propagation_error_zero_for_linear_dispersion():
    # toy spectrum linear in the mode index: exact lattice translation
    n = 128
    lat = Lattice(n)
    params = sigma_for_budget(n, BUDGET, center=n // 4)
    shift_sites = 16
    t0 = 4.0
    eigenvalues = np.array(
        [2.0 * np.pi * shift_sites * k / (n * t0) for k in range(1, n + 1)]
    )
    toy = Spectrum(lat, eigenvalues)
    g0 = gaussian_packet(params, lat)
    assert np.max(np.abs(propagate(g0, t0, toy) - np.roll(g0, shift_sites))) < 1e-10
    # d omega/dk of the toy dispersion, and no cubic term
    toy_velocity = 2.0 * np.pi * shift_sites / (n * t0)
    eps_p = propagation_error(
        params, t0, lat, toy, velocity=toy_velocity, omega3=0.0
    )
    assert eps_p < 1e-8


def test_propagation_error_fixture_default_packet():
    n = 2048
    lat = Lattice(n)
    spec = ring_spectrum(n)
    params = sigma_for_budget(n, BUDGET)
    from fermiwire.lattice import transit_time

    assert propagation_error(params, transit_time(n), lat, spec) <= 0.05


def test_propagation_error_zero_at_time_zero():
    n = 512
    lat = Lattice(n)
    spec = ring_spectrum(n)
    params = sigma_for_budget(n, BUDGET)
    assert propagation_error(params, 0.0, lat, spec) < 1e-12


def test_propagation_error_monotone_in_c():
    n = 512
    lat = Lattice(n)
    spec = ring_spectrum(n)
    values = []
    for c in (4.0, 9.0, 16.0):
        budget = PacketBudget(c, 1.0)
        params = sigma_for_budget(n, budget)
        w = region_size(n, 2.0)
        bob = n // 2 + (w - 1) // 2
        from fermiwire.lattice import group_velocity

        t = angular_distance(n, params.center, bob) / abs(
            group_velocity(params.wavenumber, n)
        )
        values.append(propagation_error(params, t, lat, spec))
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------- reports


def test_error_budget_identity_and_clamp():
    plan = plan_protocol(512, 2, BUDGET, 0.01, wait=10.0)
    rep = error_budget(plan)
    if not rep.clamped:
        assert np.isclose(
            rep.fidelity_bound + rep.eps_e + rep.eps_p + rep.eps_d, 1.0, atol=1e-12
        )
    assert rep.fidelity_bound >= 0.0


def test_accumulate_error_scaling():
    plan = plan_protocol(512, 2, BUDGET, 0.01, wait=10.0)
    rep = error_budget(plan)
    same = accumulate_error(rep, 1.0)
    assert same.eps_e == rep.eps_e
    doubled = accumulate_error(rep, 2.0)
    assert np.isclose(doubled.eps_e, 2 * rep.eps_e, rtol=1e-12)
    assert doubled.eps_p == rep.eps_p
    huge = accumulate_error(rep, 1e9)
    assert huge.fidelity_bound == 0.0 and huge.clamped
    with pytest.raises(ValueError):
        accumulate_error(rep, 0.5)


# ---------------------------------------------------------------- min wait


def test_min_wait_consistency_with_bound():
    n = 256
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), Lattice(n))
    t0 = 1.5 * n ** (1 / 3)
    target = 3.0 * abs(overlap(g0, propagate(g0, t0, spec)))
    t_star = min_wait_time(n, 2, BUDGET, target, spec)
    assert t_star <= t0 * 1.02


def test_min_wait_sweep_finite():
    for n in (256, 512, 1024):
        spec = ring_spectrum(n)
        t_star = min_wait_time(n, 4, BUDGET, 0.01, spec)
        assert np.isfinite(t_star) and 0 < t_star < n / 4


def test_min_wait_doubling_m_less_than_doubles():
    n = 512
    spec = ring_spectrum(n)
    t4 = min_wait_time(n, 4, BUDGET, 0.01, spec)
    t8 = min_wait_time(n, 8, BUDGET, 0.01, spec)
    assert t4 <= t8 < 2 * t4


def test_min_wait_unreachable_target_raises():
    # below the numerical noise floor of the overlap sums
    n = 256
    spec = ring_spectrum(n)
    with pytest.raises(RuntimeError):
        min_wait_time(n, 4, BUDGET, 1e-20, spec)


def test_min_wait_exponent_converges_to_one_third():
    # The 1% bisection moves each log t* by at most -log(0.99) = 0.01005.
    # For five log2-spaced sizes the least-squares slope moves by at most
    # sum|x - mean| / sum (x - mean)^2 = 6 / (10 ln 2) = 0.866 times that,
    # 0.0087; the local exponents are 0.334 from 2^15 upward, so a band of
    # 0.01 around 1/3 holds the fit over 2^13..2^17.
    samples = [
        (n, min_wait_time(n, 4, BUDGET, 0.01, ring_spectrum(n)))
        for n in (2**13, 2**14, 2**15, 2**16, 2**17)
    ]
    fit = fit_rate_scaling(samples)
    assert abs(fit.exponent - 1.0 / 3.0) <= 0.01


# ---------------------------------------------------------------- scaling fit


def test_fit_recovers_planted_power_law():
    samples = [(n, 7.0 * n ** (1 / 3)) for n in (256, 512, 1024, 2048)]
    fit = fit_rate_scaling(samples)
    assert abs(fit.exponent - 1 / 3) < 1e-9
    assert abs(fit.intercept - np.log(7.0)) < 1e-9
    assert fit.r_squared > 1 - 1e-12


def test_line_fit_exact_line_and_constant():
    slope, intercept, r2 = line_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert np.isclose(slope, 2.0) and np.isclose(intercept, 1.0)
    assert r2 == pytest.approx(1.0)
    assert line_fit([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])[2] == 1.0


def test_fit_constant_series():
    fit = fit_rate_scaling([(256, 5.0), (512, 5.0), (1024, 5.0)])
    assert abs(fit.exponent) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_rejects_degenerate_samples():
    with pytest.raises(ValueError):
        fit_rate_scaling([(256, 1.0), (512, 2.0)])
    with pytest.raises(ValueError):
        fit_rate_scaling([(256, 1.0), (256, 2.0), (512, 3.0)])
    with pytest.raises(ValueError):
        fit_rate_scaling([(256, 1.0), (512, -2.0), (1024, 3.0)])


def test_translated_envelope_matches_packet_at_zero():
    n = 256
    lat = Lattice(n)
    params = sigma_for_budget(n, BUDGET)
    g0 = gaussian_packet(params, lat)
    ideal = translated_envelope(params, 0.0, lat)
    assert np.max(np.abs(ideal - g0)) < 1e-12
