import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from references import (
    full_spectrum_bounds,
    min_wait_full_spectrum,
    spread_lower_bound,
    wait_grid,
)

import fermiwire.protocol
from fermiwire.lattice import propagate, ring_energies
from fermiwire.protocol import (
    angular_distance,
    decode_mode,
    encoding_error_bound,
    error_budget,
    fit_rate_scaling,
    line_fit,
    min_wait_time,
    plan_protocol,
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
    plan = plan_protocol(512, 2, BUDGET, 0.01, wait=10.0, width=16)
    assert len(plan.packet.region) == 16
    assert len(plan.region_b) == 16
    assert plan.packet.region.start == 1
    assert plan.region_b.start == 256


def test_plan_region_start_large_n():
    plan = plan_protocol(4096, 1, BUDGET, 0.01, wait=10.0, width=32)
    assert len(plan.packet.region) == 32
    assert plan.region_b.start == 2048


@pytest.mark.parametrize("n, sites", [(128, 45), (512, 69), (1024, 87), (4096, 137)])
def test_plan_carries_the_budget_packet_and_its_support(n, sites):
    plan = plan_protocol(n, 4, BUDGET, 0.01, wait=10.0)
    assert plan.packet == sigma_for_budget(n, BUDGET)
    assert plan.packet.region == Region(1, sites)
    assert plan.region_b == Region(n // 2, n // 2 + sites - 1)


def test_plan_rejects_overlapping_regions():
    with pytest.raises(ValueError, match="regions of 11 sites overlap on an N = 16 ring$"):
        plan_protocol(16, 1, BUDGET, 0.01, wait=1.0, width=11)


def test_plan_m1_report_has_zero_encoding_error():
    plan = plan_protocol(256, 1, BUDGET, 0.01, wait=5.0)
    rep = error_budget(plan)
    assert rep.eps_e == 0.0


@pytest.mark.parametrize(
    "n, width, region_a, region_b, k0, decode_time",
    [
        (10, 3, (1, 3), (5, 7), 8, 2.1029244484765344),
        (14, 5, (1, 5), (7, 11), 11, 3.077150589817661),
    ],
    ids=["N10", "N14"],
)
def test_plan_small_ring_not_divisible_by_four(
    n, width, region_a, region_b, k0, decode_time
):
    plan = plan_protocol(n, 3, BUDGET, 0.01, wait=1.0, width=width)
    assert (plan.packet.region.start, plan.packet.region.stop) == region_a
    assert (plan.region_b.start, plan.region_b.stop) == region_b
    assert plan.packet.wavenumber == k0
    assert plan.decode_time == decode_time


def test_plan_default_wait_needs_n_divisible_by_four():
    with pytest.raises(ValueError, match="divisible by 4"):
        plan_protocol(10, 2, BUDGET, 0.01, width=3)
    with pytest.raises(ValueError, match="divisible by 4"):
        plan_protocol(10, 2, BUDGET, 0.01, wait=1.0)


def test_ring_paths_build_no_dense_matrix():
    # packet, evolution, wait search and budget in O(N) memory: about 6.5 MB
    # at N = 65536, where one N x N float64 array would take 32 GB
    n = 65536
    tracemalloc.start()
    try:
        g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
        norm = np.linalg.norm(propagate(g0, 3.0))
        rep = error_budget(plan_protocol(n, 4, BUDGET, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(norm - 1.0) < 1e-10
    assert 0.0 <= rep.fidelity_bound <= 1.0
    assert peak < 64 << 20


def test_plan_decode_time_is_angular_distance_over_speed():
    n = 1024
    plan = plan_protocol(n, 1, BUDGET, 0.01, wait=5.0)
    from fermiwire.lattice import group_velocity

    d = angular_distance(n, plan.packet.region.center_site, plan.region_b.center_site)
    assert np.isclose(plan.decode_time, d / abs(group_velocity(3 * n // 4, n)),
                      rtol=1e-12)
    # roughly a quarter of the ring loop, i.e. order N/4
    assert 0.2 * n < plan.decode_time < 0.3 * n


# ---------------------------------------------------------------- encoding


def test_encoding_bound_m1_empty_sum():
    g0 = gaussian_packet(sigma_for_budget(256, BUDGET), 256)
    assert encoding_error_bound(g0, 3.0, 1) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("n", [64, 1024], ids=["ring-64", "ring-1024"])
def test_encoding_bound_matches_propagate_reference(n, m):
    # independent reference: propagate the packet to every earlier signal's age
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
    for t in (0.05, 1.0, 7.3, n / 4):
        expected = 3.0 * sum(
            (m - j) * abs(overlap(g0, propagate(g0, j * t))) for j in range(1, m)
        )
        value = encoding_error_bound(g0, t, m)
        assert type(value) is float
        assert abs(value - expected) <= 1e-12
    with pytest.raises(ValueError, match="norm"):
        encoding_error_bound(1.001 * g0, 1.0, m)
    with pytest.raises(ValueError, match="1-D"):
        encoding_error_bound(g0[None, :], 1.0, m)


def test_encoding_bound_fixture_m4():
    n = 1024
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
    value = encoding_error_bound(g0, 4.0 * n ** (1 / 3), 4)
    assert value < 0.05


def test_encoding_bound_global_phase_invariance():
    n = 256
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
    a = encoding_error_bound(g0, 2.5, 3)
    b = encoding_error_bound(np.exp(0.7j) * g0, 2.5, 3)
    assert np.isclose(a, b, atol=1e-12)


def test_encoding_bound_drops_below_any_target_before_recurrence():
    n = 512
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
    assert encoding_error_bound(g0, n / 4.0, 2) < 1e-4


# ---------------------------------------------------------------- decoding


def test_decode_mode_full_support():
    n = 64
    g = gaussian_packet(PacketParams(2.0, 32, 48, Region(24, 40)), n)
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
    g0 = gaussian_packet(plan.packet, n)
    gT = propagate(g0, plan.decode_time)
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
    values = []
    # ceil(a * N^(1/3)) sites for a = 1, 2, 3
    for width in (11, 21, 31):
        plan = plan_protocol(n, 1, BUDGET, 0.01, wait=5.0, width=width)
        g0 = gaussian_packet(plan.packet, n)
        gT = propagate(g0, plan.decode_time)
        _, eps_d = decode_mode(gT, plan.region_b)
        values.append(eps_d)
    # each extra N^(1/3) sites of receiver width cuts the deficit hard
    assert values[1] < 0.5 * values[0]
    assert values[2] < 0.5 * values[1]


# ---------------------------------------------------------------- reports


@pytest.mark.parametrize("field", ["wait", "decode_time"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_plan_rejects_non_finite_times(field, value):
    plan = plan_protocol(512, 2, BUDGET, 0.01, wait=10.0)
    with pytest.raises(ValueError, match="finite and positive"):
        replace(plan, **{field: value})


def test_error_budget_identity_and_clamp():
    plan = plan_protocol(512, 2, BUDGET, 0.01, wait=10.0)
    rep = error_budget(plan)
    if not rep.clamped:
        assert np.isclose(
            rep.fidelity_bound + rep.eps_e + rep.eps_d, 1.0, atol=1e-12
        )
    assert rep.fidelity_bound >= 0.0


@pytest.mark.parametrize("n", [128, 1024, 8192])
def test_default_wait_meets_the_encoding_share(n):
    # the wait is searched for the packet the plan carries
    epsilon = 0.01
    plan = plan_protocol(n, 4, BUDGET, epsilon)
    rep = error_budget(plan)
    assert rep.eps_e <= epsilon / 3.0
    assert rep.fidelity_bound >= 1.0 - epsilon


# ---------------------------------------------------------------- min wait


def test_min_wait_consistency_with_bound():
    n = 256
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
    t0 = 1.5 * n ** (1 / 3)
    target = 3.0 * abs(overlap(g0, propagate(g0, t0)))
    t_star, _ = min_wait_time(n, 2, BUDGET, target)
    assert t_star <= t0 * 1.02


def test_min_wait_sweep_finite():
    for n in (256, 512, 1024):
        t_star, _ = min_wait_time(n, 4, BUDGET, 0.01)
        assert np.isfinite(t_star) and 0 < t_star < n / 4


def test_min_wait_doubling_m_less_than_doubles():
    n = 512
    t4, _ = min_wait_time(n, 4, BUDGET, 0.01)
    t8, _ = min_wait_time(n, 8, BUDGET, 0.01)
    assert t4 <= t8 < 2 * t4


def test_min_wait_unreachable_target_raises():
    # below the numerical noise floor of the overlap sums
    n = 256
    with pytest.raises(RuntimeError):
        min_wait_time(n, 4, BUDGET, 1e-20)


def _search_outcome(search, n, m, target, budget=BUDGET):
    try:
        return search(n, m, budget, target)
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_min_wait_matches_full_spectrum_search(m):
    # neither the support sum nor the waits the spread bound skips change
    # a decision of the search: t*, and the message of a size no wait
    # serves, match the full sum
    outcomes = [
        (_search_outcome(min_wait_time, n, m, target, budget),
         _search_outcome(min_wait_full_spectrum, n, m, target, budget))
        for budget in (PacketBudget(c=4.0, kappa=1.0), BUDGET, PacketBudget(c=16.0, kappa=1.0))
        for n in (4 << i for i in range(13))  # 4 .. 16384
        for target in (0.01 / 3, 0.01, 0.1)
    ]
    assert [ours for ours, _ in outcomes] == [ref for _, ref in outcomes]
    # one signal leaves no residual, so every size meets every target
    assert any(isinstance(ours, str) for ours, _ in outcomes) == (m > 1)


@pytest.mark.parametrize("n, m", [(256, 2), (256, 4), (1024, 2), (1024, 4),
                                  (8192, 2), (8192, 4)])
def test_min_wait_ties_fall_back_to_the_full_sum(n, m):
    # a target equal to the full-spectrum bound at a grid point is met
    # there exactly; the support sum alone can land just above it
    bound = full_spectrum_bounds(n, m, BUDGET)
    targets = [v for v in (bound(float(t)) for t in wait_grid(n)) if 0.0 < v < 1.0]
    assert len(targets) >= 10
    for target in targets:
        assert (_search_outcome(min_wait_time, n, m, target)
                == _search_outcome(min_wait_full_spectrum, n, m, target)), target


def test_readme_min_wait_search_sums_only_the_spectral_support(monkeypatch):
    lengths = []
    bound = fermiwire.protocol._bound_from_weights

    def counted(weights, omega, t, m):
        lengths.append(len(omega))
        return bound(weights, omega, t, m)

    monkeypatch.setattr(fermiwire.protocol, "_bound_from_weights", counted)
    for n in (256, 512, 1024, 2048, 4096, 8192):
        lengths.clear()
        min_wait_time(n, 4, BUDGET, 0.01)
        # every decision on the support; the full sum only for the bound at t*
        assert len(lengths) > 1 and max(lengths[:-1]) < n and lengths[-1] == n, n
        # the spread bound skips the early waits, where the packet still
        # overlaps itself and the bound lies far above the target
        assert len(lengths) <= 16, (n, len(lengths))


def _spread_bound_cases():
    for n in (4 << i for i in range(13)):  # 4 .. 16384: the budget packets
        g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
        yield n, fermiwire.protocol._mode_weights(g0)
    rng = np.random.default_rng(2024)
    for n in (16, 256, 4096):
        yield n, rng.random(n)  # every mode
        band = np.zeros(n)
        start, width = rng.integers(n), rng.integers(1, n // 8 + 2)
        band[(start + np.arange(width)) % n] = rng.random(width)
        yield n, band  # a random band of modes, one mode at width 1
        single = np.zeros(n)
        single[rng.integers(n)] = 1.0
        yield n, single  # V = 0: L equals the bound up to rounding


@pytest.mark.parametrize("m", [2, 4, 8])
def test_spread_lower_bound_never_exceeds_the_full_spectrum_bound(m):
    eps = np.finfo(float).eps
    for n, weights in _spread_bound_cases():
        weights = weights / weights.sum()
        omega = ring_energies(n)
        # rounding of L (the allowance min_wait_time documents) and of the
        # full sum, 2N eps per overlap
        tol = 1.5 * m * (m - 1) * (3 * n + m + 9) * eps
        for t in wait_grid(n):
            lower = spread_lower_bound(weights, omega, float(t), m)
            full = fermiwire.protocol._bound_from_weights(weights, omega, float(t), m)
            assert lower <= full + tol, (n, m, float(t), lower, full)


def test_min_wait_exponent_converges_to_one_third():
    # The 1% bisection moves each log t* by at most -log(0.99) = 0.01005.
    # For five log2-spaced sizes the least-squares slope moves by at most
    # sum|x - mean| / sum (x - mean)^2 = 6 / (10 ln 2) = 0.866 times that,
    # 0.0087; the local exponents are 0.334 from 2^15 upward, so a band of
    # 0.01 around 1/3 holds the fit over 2^13..2^17.
    samples = [
        (n, min_wait_time(n, 4, BUDGET, 0.01)[0])
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


@pytest.mark.parametrize("m", [1, 2, 4])
def test_encoding_bound_waits_array_is_the_scalar_bytes(m):
    n = 256
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), n)
    waits = np.array([0.3, 0.8, 2.3, 7.5, n / 4.0])
    values = encoding_error_bound(g0, waits, m)
    assert values.shape == waits.shape
    for value, t in zip(values, waits):
        assert value.tobytes() == np.float64(encoding_error_bound(g0, float(t), m)).tobytes()
    with pytest.raises(ValueError, match="wait must be positive"):
        encoding_error_bound(g0, np.array([0.3, 0.0]), m)
    for bad in (np.nan, np.inf, [0.3, np.nan]):
        with pytest.raises(ValueError, match=r"wait must be positive and finite, got \[?(0.3, )?(nan|inf)"):
            encoding_error_bound(g0, bad, m)
