"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines and timings.  Criterion 3 is marked as a strict expected failure:
it asks the packet centroid to sit on the receiver region (pi radians
away) at time N/(8*pi), but under exp(-i*t*H) the peak angular speed is
4*pi/N, so the centroid advances exactly 0.5 radians by then; no
measurement convention closes that gap.  The companion check 3b verifies
that the centroid does reach the receiver at the planned decode time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from fermiwire.lattice import (
    Lattice,
    build_hopping,
    group_velocity,
    propagate,
    random_state,
    ring_spectrum,
    transit_time,
)
from fermiwire.wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    centroid_shift,
    characteristic_width,
    circular_centroid,
    fourier_airy_overlap,
    gaussian_packet,
    overlap,
    sigma_for_budget,
    width_report,
)
from fermiwire.protocol import (
    encoding_error_bound,
    error_budget,
    fit_rate_scaling,
    min_wait_time,
    plan_protocol,
)
from fermiwire import fock

BUDGET = PacketBudget(c=9.0, kappa=1.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>3} {'PASS' if ok else 'FAIL'}  {detail}")


def timed():
    return time.perf_counter()


def test_acceptance_01_spectral_vs_dense_propagator():
    t0 = timed()
    n, t = 8, 3.7
    spec = ring_spectrum(n)
    dense = scipy.linalg.expm(-1j * t * build_hopping(Lattice(n)))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        state = random_state(n, rng)
        diff = np.max(np.abs(propagate(state, t, spec) - dense @ state))
        worst = max(worst, float(diff))
    ok = worst < 1e-8
    report(1, ok, f"max componentwise diff {worst:.2e} (< 1e-8), "
                  f"{timed()-t0:.2f}s")
    assert ok


def test_acceptance_02_group_velocity():
    t0 = timed()
    n = 1024
    params = sigma_for_budget(n, BUDGET)
    assert params.wavenumber == 3 * n // 4
    lattice = Lattice(n)
    spec = ring_spectrum(n)
    g0 = gaussian_packet(params, lattice)
    quarter = transit_time(n) / 4.0
    shift_angle = 2 * np.pi * centroid_shift(g0, propagate(g0, quarter, spec))
    speed = abs(shift_angle) / quarter
    target = 4 * np.pi / n
    rel = abs(speed - target) / target
    ok = rel < 0.03
    report(2, ok, f"angular speed {speed:.6f} vs 4*pi/N {target:.6f}, "
                  f"rel err {rel:.2%} (< 3%), {timed()-t0:.2f}s")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable under exp(-i*t*H): the receiver center is ~pi radians "
        "from the sender, but in time N/(8*pi) the maximal centroid advance "
        "is (4*pi/N)*(N/(8*pi)) = 0.5 radians; the packet arrives at the "
        "planned decode time ~N/4 instead (see check 3b)"
    ),
)
def test_acceptance_03_transit_time_nominal():
    t0 = timed()
    n = 1024
    plan = plan_protocol(n, 1, replace(BUDGET, nu=2.0), 0.1, wait=1.0)
    lattice = Lattice(n)
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), lattice)
    t_nominal = transit_time(n)
    centroid = circular_centroid(propagate(g0, t_nominal, spec))
    bob = plan.region_b.center_site / n
    dist = abs((centroid - bob + 0.5) % 1.0 - 0.5)
    tol = 2 * characteristic_width(n, BUDGET)
    ok = dist <= tol
    report(3, ok, f"centroid at T=N/(8*pi) is {dist:.4f} of the ring from "
                  f"the receiver center (tol {tol:.4f}), {timed()-t0:.2f}s")
    assert ok


def test_acceptance_03b_arrival_at_planned_decode_time():
    t0 = timed()
    n = 1024
    plan = plan_protocol(n, 1, replace(BUDGET, nu=2.0), 0.1, wait=1.0)
    lattice = Lattice(n)
    spec = ring_spectrum(n)
    params = sigma_for_budget(n, BUDGET)
    g0 = gaussian_packet(params, lattice)
    bob = plan.region_b.center_site
    from fermiwire.protocol import angular_distance

    arrival = angular_distance(n, params.center, bob) / abs(
        group_velocity(params.wavenumber, n)
    )
    centroid = circular_centroid(propagate(g0, arrival, spec))
    dist = abs((centroid - bob / n + 0.5) % 1.0 - 0.5)
    tol = 2 * characteristic_width(n, BUDGET)
    ok = dist <= tol
    report("3b", ok, f"centroid at decode time {arrival:.1f} is {dist:.5f} "
                     f"from the receiver center (tol {tol:.4f}), "
                     f"{timed()-t0:.2f}s")
    assert ok


def test_acceptance_04_broadening():
    t0 = timed()
    ratios = []
    ok = True
    details = []
    for n in (512, 2048):
        lattice = Lattice(n)
        spec = ring_spectrum(n)
        rep = width_report(
            sigma_for_budget(n, BUDGET), transit_time(n), lattice, spec, BUDGET
        )
        rel = abs(rep.measured_ratio - rep.predicted_ratio) / rep.predicted_ratio
        ok = ok and rel < 0.15
        ratios.append(rep.measured_ratio)
        details.append(f"N={n}: measured {rep.measured_ratio:.4f} vs "
                       f"predicted {rep.predicted_ratio:.4f} ({rel:.1%})")
    cross = abs(ratios[0] - ratios[1]) / ratios[1]
    ok = ok and cross < 0.10
    report(4, ok, "; ".join(details) + f"; cross-N spread {cross:.2%}, "
                  f"{timed()-t0:.2f}s")
    assert ok


def test_acceptance_05_overlap_decay_scaling():
    t0 = timed()
    xs, ys = [], []
    for n in (512, 1024, 2048, 4096):
        lattice = Lattice(n)
        spec = ring_spectrum(n)
        g0 = gaussian_packet(sigma_for_budget(n, BUDGET), lattice)
        for x1 in np.linspace(0.6, 2.4, 10):
            t = 0.5 * float(x1) * n ** (1 / 3)
            mag = abs(overlap(g0, propagate(g0, t, spec)))
            xs.append(t**2 * n ** (-2 / 3))
            ys.append(-np.log(mag))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = np.array(ys) - (slope * np.array(xs) + intercept)
    r2 = 1 - float(resid @ resid) / float(np.sum((ys - np.mean(ys)) ** 2))
    ok = r2 >= 0.95
    report(5, ok, f"-log|overlap| vs t^2 N^(-2/3): slope {slope:.3f}, "
                  f"R^2 {r2:.5f} (>= 0.95), {timed()-t0:.2f}s")
    assert ok


def test_acceptance_06_encoding_residual_bound():
    t0 = timed()
    n = 10
    lattice = Lattice(n)
    spec = ring_spectrum(n)
    region = Region(1, 5)
    k0 = 8
    worst_gap = -np.inf
    points = 0
    ok = True
    for m in (2, 3):
        basis = fock.fock_basis(n, m)
        pairs = [
            (complex(np.sqrt(1 - 0.3 * a)), complex(0, np.sqrt(0.3 * a)))
            for a in np.linspace(0.5, 1.0, m)
        ]
        for sigma in (0.6, 1.0, 1.4, 1.8):
            for t in (0.3, 0.8, 1.3, 1.8, 2.3):
                params = PacketParams(sigma, region.center_site, k0, region)
                g0 = gaussian_packet(params, lattice)
                actual = fock.run_encoding_sequence(
                    pairs, [g0] * m, [t] * (m - 1), basis, lattice
                )
                modes_now = [
                    propagate(g0, (m - a) * t, spec) for a in range(1, m + 1)
                ]
                resid = fock.encoding_residual_norm(actual, pairs, modes_now, basis)
                bound = encoding_error_bound(g0, t, m, spec)
                points += 1
                worst_gap = max(worst_gap, resid - bound)
                ok = ok and resid <= bound + 1e-8
    report(6, ok, f"{points} grid points x M in (2,3): max(residual - bound) "
                  f"= {worst_gap:.3e} (<= 1e-8), {timed()-t0:.2f}s")
    assert ok


def test_acceptance_07_fidelity_lower_bound():
    t0 = timed()
    ok = True
    worst = np.inf
    for n, nu in ((8, 1.0), (10, 1.0), (12, 2.0)):
        for m in (1, 2, 3):
            plan = plan_protocol(n, m, replace(BUDGET, nu=nu), 0.1, wait=1.0)
            plan = replace(plan, wait=plan.decode_time + 1.0)
            basis = fock.fock_basis(n, m)
            _, fids = fock.two_design_fidelities(plan, basis)
            rep = error_budget(plan)
            for alpha in fids:
                margin = fids[alpha] - (rep.fidelity_bound - 1e-6)
                worst = min(worst, margin)
                ok = ok and margin >= 0.0
    report(7, ok, f"min margin of F_alpha over 1-eps_E-eps_P-eps_D-1e-6: "
                  f"{worst:+.4f} across N in (8,10,12), M <= 3, "
                  f"{timed()-t0:.2f}s")
    assert ok


def test_acceptance_08_truncation_equivalence():
    t0 = timed()
    n, m = 8, 2
    plan = plan_protocol(n, m, replace(BUDGET, nu=1.0), 0.1, wait=3.0)
    msgs = [np.array([0.6, 0.8j]), np.array([1.0, -1.0j]) / np.sqrt(2)]
    small = fock.ProtocolEngine(plan, fock.fock_basis(n, m)).run(msgs)
    full = fock.ProtocolEngine(plan, fock.fock_basis(n, n)).run(msgs)
    sb, fb = small.basis, full.basis
    worst = 0.0
    for i, s in enumerate(sb.states):
        delta = small.tensor[:, :, i, :, :] - full.tensor[:, :, fb.index[s], :, :]
        worst = max(worst, float(np.max(np.abs(delta))))
    for i, s in enumerate(fb.states):
        if s not in sb.index:
            worst = max(worst, float(np.max(np.abs(full.tensor[:, :, i, :, :]))))
    ok = worst < 1e-10
    report(8, ok, f"truncated (m_max=2) vs full 2^8 space: max componentwise "
                  f"diff {worst:.2e} (< 1e-10), {timed()-t0:.2f}s")
    assert ok


def test_acceptance_09_tj_interaction_bound():
    t0 = timed()
    n = 10
    lattice = Lattice(n)
    basis = fock.fock_basis(n, 2)
    from fermiwire.harness import separating_pair

    pa, pb = separating_pair(n)
    state = fock.two_packet_state(basis, lattice, pa, pb)
    eps_i = fock.tj_interaction_error(state, lattice)
    ok = eps_i > 0
    details = [f"eps_I {eps_i:.4f}"]
    for s in (0.1, 0.5, 1.0):
        diff = fock.evolution_difference(state, s, 1.0, 1.0, lattice)
        bound = s * eps_i
        good = diff <= bound + 1e-6
        ok = ok and good
        details.append(f"s={s}: {diff:.4f} <= {bound:.4f} [{good}]")
    report(9, ok, "; ".join(details) + f", {timed()-t0:.2f}s")
    assert ok


def test_acceptance_10_headline_scaling():
    t0 = timed()
    samples = []
    for n in (256, 512, 1024, 2048, 4096, 8192):
        spec = ring_spectrum(n)
        samples.append((n, min_wait_time(n, 4, BUDGET, 0.01, spec)))
    fit = fit_rate_scaling(samples)
    ok = 0.26 <= fit.exponent <= 0.40 and fit.r_squared >= 0.9
    report(10, ok, f"minimal wait ~ N^{fit.exponent:.4f} "
                   f"(target [0.26, 0.40]), R^2 {fit.r_squared:.5f} (>= 0.9), "
                   f"{timed()-t0:.2f}s")
    assert ok


def test_acceptance_11_average_fidelity_identity():
    t0 = timed()
    rng = np.random.default_rng(2026)

    # channel 3 is the actual wire channel, reconstructed as a linear map
    # on density matrices from four pure-input protocol runs
    plan = plan_protocol(8, 1, replace(BUDGET, nu=1.0), 0.1, wait=2.0)
    basis = fock.fock_basis(8, 1)
    engine = fock.ProtocolEngine(plan, basis)

    def wire_output(psi):
        fv = engine.run([np.asarray(psi, dtype=complex)])
        return fock.reduced_qubit(fv, "B", 1)

    e00 = wire_output([1.0, 0.0])
    e11 = wire_output([0.0, 1.0])
    eplus = wire_output(np.array([1.0, 1.0]) / np.sqrt(2))
    eiplus = wire_output(np.array([1.0, 1.0j]) / np.sqrt(2))
    a = eplus - (e00 + e11) / 2
    b = eiplus - (e00 + e11) / 2
    e01 = a + 1j * b
    e10 = a - 1j * b

    def wire_channel(rho):
        return (rho[0, 0] * e00 + rho[0, 1] * e01
                + rho[1, 0] * e10 + rho[1, 1] * e11)

    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    theta = 0.7
    u_rot = scipy.linalg.expm(-0.5j * theta * np.array([[0.0, 1.0], [1.0, 0.0]]))
    channels = {
        "rotation": lambda rho: u_rot @ rho @ u_rot.conj().T,
        "amplitude-damping": lambda rho: k0 @ rho @ k0.conj().T
        + k1 @ rho @ k1.conj().T,
        "wire-n8": wire_channel,
    }
    ok = True
    details = []
    for name, channel in channels.items():
        outputs = {
            lbl: channel(np.outer(v, v.conj()))
            for lbl, v in fock.SIX_DESIGN_STATES.items()
        }
        exact = fock.average_fidelity(outputs)
        samples = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal(
            (10_000, 2)
        )
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        fids = np.array(
            [
                np.real(np.vdot(psi, channel(np.outer(psi, psi.conj())) @ psi))
                for psi in samples
            ]
        )
        se = fids.std(ddof=1) / np.sqrt(len(fids))
        z = abs(exact - fids.mean()) / se
        good = z < 3.0
        ok = ok and good
        details.append(f"{name}: z={z:.2f}")
    report(11, ok, "six-state average vs 1e4 Haar samples, " + "; ".join(details)
           + f" (all < 3 s.e.), {timed()-t0:.2f}s")
    assert ok


def test_acceptance_12_fourier_airy_vs_lattice():
    t0 = timed()
    n = 1024
    lattice = Lattice(n)
    spec = ring_spectrum(n)
    g0 = gaussian_packet(sigma_for_budget(n, BUDGET), lattice)
    ok = True
    details = []
    for x1 in (1.0, 2.0, 4.0):
        t = 0.5 * x1 * n ** (1 / 3)
        lattice_val = abs(overlap(g0, propagate(g0, t, spec)))
        quad_val = abs(fourier_airy_overlap(BUDGET, n, t))
        rel = abs(lattice_val - quad_val) / quad_val
        good = rel <= 0.05
        ok = ok and good
        details.append(f"x1={x1:g}: rel {rel:.2%}")
    report(12, ok, "; ".join(details) + f" (all <= 5%), {timed()-t0:.2f}s")
    assert ok
