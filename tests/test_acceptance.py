"""Acceptance gate: one test per published claim, at stated tolerances.

Each test prints its measured numbers; the pytest -v line is the
pass/fail record.

* Power bound (criterion 5a): the exact power P_ED = W_B(t_max)/t_max
  must stay strictly below the two-level model's own power at its first
  maximum, wb_tlm(tau)/tau = n omega_B / tau_QSL.  W_C(0)/tau_QSL
  (tlm.power_tlm, the fig3a estimate) is no bound: the battery gains
  n omega_B per transfer while omega_C* < n omega_B on the n=5 grid, so
  even the two-level model exceeds it.  ED charges 4e-4 to 1e-2 more
  slowly than tau_QSL and stores n omega_B to within 3e-4, and stays
  at least 4e-4 relative below the first-maximum power at M=12.
* Double peak (criterion 9b): the charger falls from level 1 to 0, so
  the battery must reach an odd state.  Two bosons have an even relative
  wavefunction, so odd states carry an odd number of center-of-mass
  quanta; below 1.5 omega_B the only one is the Kohn mode at omega_B,
  at every g_B, and the n=1 window holds one peak.  The n=5 window is
  the lowest where g_B=3 splits the resonance: two full-transfer peaks
  (about 4.765 and 4.875) where the ideal battery has one (4.974).
  The test checks both counts.
* Cutoff doubling moves W_B(t_max) by slightly more than 1e-4 for two
  of the N_B=2 configurations (criterion 11 [N2-n1], [N2-n3]); these
  stay red.  The peak search is exact (offsets match a golden-section
  search to 1e-6); the drift is the slow, roughly M^(-1/2), convergence
  of the bare contact coupling in a truncated oscillator basis (Ernst
  et al., PRA 84, 023623 (2011)).  W_B(t_max) at fixed omega_C, N_B=2,
  n=1: 1.0009911 (M=12), 1.0010415 (16), 1.0010725 (20),
  1.0010939 (24).
"""

import math
import time

import numpy as np
import pytest

from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis)
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.experiments import (ScanConfig, convergence_check,
                                  find_resonance_peaks, fine_tune_resonance,
                                  power_scan)
from qbattery.hamiltonian import assemble_battery_only, build_hamiltonian_set
from qbattery.thermo import (battery_density_matrix, ergotropy,
                             variance_to_qsl)
from qbattery.tlm import (delta_poly, qsl_tlm, resonance_solve, tlm_params,
                          wb_tlm)

MODES = 12


def projected_two_level(n, num_particles, g_BC, omega_C, modes=MODES):
    """ED composite H1 projected on the uncharged/charged product pair."""
    battery = SpeciesConfig(Species.BATTERY, 1.0, modes, num_particles)
    charger = SpeciesConfig(Species.CHARGER, omega_C, modes, 1)
    basis = build_composite_basis(battery, charger, ParitySector.ODD)
    occ0 = tuple([num_particles] + [0] * (modes - 1))
    occ1 = list(occ0)
    occ1[0] -= 1
    occ1[n] += 1
    bi0 = basis.battery_states.index(occ0)
    bi1 = basis.battery_states.index(tuple(occ1))
    k0 = basis.index_matrix[bi0, 1]
    k1 = basis.index_matrix[bi1, 0]
    h1 = build_hamiltonian_set(basis, 0.0, g_BC, omega_C=omega_C).h1
    idx = np.array([k0, k1])
    return h1[np.ix_(idx, idx)]


def test_criterion_01_two_level_matrix_reproduction():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 3):
        for omega in (float(n), resonance_solve(n, 2, 0.1), n + 0.2):
            h2 = projected_two_level(n, 2, 0.1, omega)
            p = tlm_params(n, 2, 0.1, omega)
            want = np.array([[p.diag_initial, p.off_diag],
                             [p.off_diag, p.diag_charged]])
            worst = max(worst, float(np.abs(h2 - want).max()))
    elapsed = time.monotonic() - start
    print(f"criterion 1: max entry deviation {worst:.3e}, {elapsed:.2f} s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_02_resonant_perfect_transfer():
    start = time.monotonic()
    omega = resonance_solve(3, 2, 0.1)
    sim = QuenchSimulation(SimulationConfig(
        num_particles=2, omega_C=omega, g_BC=0.1,
        modes_battery=MODES, modes_charger=MODES, target_n=3))
    s = sim.summarize()
    elapsed = time.monotonic() - start
    ratio = s.stored_work / sim.charger_quantum
    gap = abs(s.ergotropy - s.stored_work)
    print(f"criterion 2: ratio {ratio:.5f}, |ergotropy-W_B| "
          f"{gap:.2e} (< {1e-2 * sim.charger_quantum:.2e}), "
          f"S_B {s.entropy:.4f}, {elapsed:.1f} s")
    assert ratio >= 0.99
    assert gap < 1e-2 * sim.charger_quantum
    assert s.entropy < 1e-2
    assert elapsed < 30.0


def test_criterion_03_even_channel_blockade():
    ratios = {}
    for nb in (1, 2):
        sim = QuenchSimulation(SimulationConfig(
            num_particles=nb, omega_C=2.0, g_BC=0.1,
            modes_battery=MODES, modes_charger=MODES, target_n=2))
        s = sim.summarize()
        ratios[nb] = s.stored_work / sim.charger_quantum
    print(f"criterion 3: blockade ratios {ratios}")
    assert all(r < 0.02 for r in ratios.values())


def test_criterion_04_qsl_scaling():
    details = []
    for n in (1, 3, 5):
        taus = {}
        for nb in (1, 2):
            omega = resonance_solve(n, nb, 0.1)
            h2 = projected_two_level(n, nb, 0.1, omega)
            # energy variance of the uncharged state |0>: <H^2> - <H>^2
            tau_num = variance_to_qsl(h2[0] @ h2[0] - h2[0, 0] ** 2)
            tau_tlm = qsl_tlm(tlm_params(n, nb, 0.1, omega))
            assert abs(tau_num / tau_tlm - 1.0) <= 0.02
            taus[nb] = tau_num
        ratio = taus[1] / taus[2]
        details.append(f"n={n}: tau1/tau2={ratio:.4f}")
        assert abs(ratio / math.sqrt(2.0) - 1.0) <= 0.02
    print("criterion 4:", "; ".join(details))


@pytest.fixture(scope="module")
def power_grid():
    start = time.monotonic()
    rows = {}
    for nb in (1, 2, 3):
        cfg = SimulationConfig(num_particles=nb, omega_C=5.0, g_BC=0.1,
                               modes_battery=MODES, modes_charger=MODES,
                               target_n=5)
        grid = tuple(np.round(np.arange(0.02, 0.101, 0.01), 10))
        rows[nb] = power_scan(ScanConfig("g_BC", grid, cfg, workers=4))
    return rows, time.monotonic() - start


def test_criterion_05a_power_upper_bound(power_grid):
    rows, elapsed = power_grid
    violations = []
    margin = math.inf
    for nb, rws in rows.items():
        for r in rws:
            assert r["error"] == ""
            p = tlm_params(5, nb, r["value"], r["omega_C"])
            tau = qsl_tlm(p)
            bound = wb_tlm(p, tau) / tau
            margin = min(margin, 1.0 - r["power_ED"] / bound)
            if r["power_ED"] > bound + 1e-12:
                rel = r["power_ED"] / bound - 1.0
                violations.append(f"N={nb} g={r['value']:.2f} (+{rel:.1e})")
    print(f"criterion 5a: {len(violations)} bound violations "
          f"{violations}, smallest relative margin {margin:.2e}, "
          f"grid in {elapsed:.0f} s")
    assert not violations, (
        f"power_ED exceeds the two-level first-maximum power at: "
        f"{violations}")


def test_criterion_05b_sqrtn_power_ratio(power_grid):
    rows, elapsed = power_grid
    p1 = rows[1][-1]["power_ED"]
    p2 = rows[2][-1]["power_ED"]
    ratio = p2 / p1
    print(f"criterion 5b: P(2)/P(1)={ratio:.4f} at g_BC=0.1, "
          f"grid in {elapsed:.0f} s")
    assert 1.34 <= ratio <= 1.48
    assert elapsed < 300.0


def test_criterion_06_irreversible_work_thresholds():
    wirr3 = {}
    for nb in (1, 2):
        omega = resonance_solve(3, nb, 0.1)
        sim = QuenchSimulation(SimulationConfig(
            num_particles=nb, omega_C=omega, g_BC=0.1,
            modes_battery=MODES, modes_charger=MODES, target_n=3))
        wirr3[nb] = sim.summarize().irreversible_work
    fractions = {}
    for nb in (1, 2, 3):
        omega = resonance_solve(9, nb, 0.1)
        sim = QuenchSimulation(SimulationConfig(
            num_particles=nb, omega_C=omega, g_BC=0.1,
            modes_battery=13, modes_charger=13, target_n=9))
        s = sim.summarize()
        fractions[nb] = s.irreversible_work / s.stored_work
    print(f"criterion 6: W_irr(n=3) N1={wirr3[1]:.5f} N2={wirr3[2]:.5f}; "
          f"n=9 W_irr/W_B {fractions}")
    assert wirr3[2] < wirr3[1]
    assert all(f < 0.01 for f in fractions.values())


def test_criterion_07_conservation_property_suite():
    rng = np.random.default_rng(42)
    from qbattery.thermo import reduced_charger_matrix, von_neumann_entropy
    worst = {"norm": 0.0, "h1": 0.0, "wirr": 0.0, "entropy": 0.0}
    for _ in range(50):
        nb = int(rng.integers(1, 4))
        modes = int(rng.integers(6, 10))
        cfg = SimulationConfig(
            num_particles=nb,
            omega_C=float(rng.uniform(0.6, 3.4)),
            g_BC=float(rng.uniform(0.02, 0.15)),
            g_B=float(rng.choice([0.0, 0.4, -0.4])),
            modes_battery=modes, modes_charger=modes,
            target_n=1)
        sim = QuenchSimulation(cfg)
        h1 = sim.h0 + sim.hint
        e0 = float(np.vdot(sim.state0, h1 @ sim.state0).real)
        eint0 = float(np.vdot(sim.state0, sim.hint @ sim.state0).real)
        for t in rng.uniform(0.0, 40.0, size=2):
            psi = sim.states_at([float(t)])[:, 0]
            worst["norm"] = max(worst["norm"],
                                abs(np.linalg.norm(psi) - 1.0))
            et = float(np.vdot(psi, h1 @ psi).real)
            worst["h1"] = max(worst["h1"], abs(et - e0))
            obs = sim.observables_at(float(t))
            eint_t = float(np.vdot(psi, sim.hint @ psi).real)
            worst["wirr"] = max(worst["wirr"],
                                abs(obs["W_irr"] - (eint0 - eint_t)))
            assert -1e-10 <= obs["ergotropy"] <= obs["W_B"] + 1e-9
            s_b = obs["S_B"]
            s_c = von_neumann_entropy(reduced_charger_matrix(psi, sim.basis))
            worst["entropy"] = max(worst["entropy"], abs(s_b - s_c))
    print(f"criterion 7: worst deviations {worst}")
    assert worst["norm"] <= 1e-10
    assert worst["h1"] <= 1e-10
    assert worst["wirr"] <= 1e-9
    assert worst["entropy"] <= 1e-8


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_08_ergotropy_against_random_unitaries():
    rng = np.random.default_rng(7)
    worst_slack = math.inf
    for dim in (4, 6):
        bat = assemble_battery_only(1, dim, 0.0, 1.0)
        h = bat.matrix
        for _ in range(6):
            rho = random_density(dim, rng)
            dm = battery_density_matrix(rho)
            erg = ergotropy(dm, bat)
            base = float(np.trace(rho @ h).real)
            best = -math.inf
            for _ in range(2000):
                u = haar_unitary(dim, rng)
                extracted = base - float(np.trace(
                    u @ rho @ u.conj().T @ h).real)
                best = max(best, extracted)
            stored = base - bat.ground_energy
            assert erg >= best - 1e-6
            assert erg <= stored + 1e-12
            worst_slack = min(worst_slack, erg - best)
    print(f"criterion 8: smallest ergotropy margin over sampled "
          f"unitaries {worst_slack:.3e}")


def test_criterion_09a_interacting_resonance_shifts():
    root = resonance_solve(1, 2, 0.1)
    peaks = {}
    for g_b in (0.5, -0.5):
        cfg = SimulationConfig(num_particles=2, omega_C=1.0, g_B=g_b,
                               g_BC=0.1, modes_battery=MODES,
                               modes_charger=MODES, target_n=1)
        peaks[g_b] = fine_tune_resonance((0.55, 1.45), cfg).omega_C
    print(f"criterion 9a: tlm root {root:.6f}, repulsive peak "
          f"{peaks[0.5]:.6f}, attractive peak {peaks[-0.5]:.6f}")
    assert peaks[0.5] < root
    assert peaks[-0.5] > root


def test_criterion_09b_strong_coupling_double_peak():
    located = {}
    for g_b in (3.0, 0.0):
        cfg = SimulationConfig(num_particles=2, omega_C=5.0, g_B=g_b,
                               g_BC=0.1, modes_battery=MODES,
                               modes_charger=MODES, target_n=5)
        peaks = find_resonance_peaks((4.5, 5.5), cfg, min_ratio=0.5)
        located[g_b] = [(round(p.omega_C, 4), round(p.ratio, 3))
                        for p in peaks]
    print(f"criterion 9b: peaks with ratio > 0.5 in the n=5 window "
          f"at g_B=3: {located[3.0]}; at g_B=0: {located[0.0]}")
    assert len(located[3.0]) >= 2, (
        f"only {len(located[3.0])} transfer peak(s) found at g_B=3: "
        f"{located[3.0]}")
    assert len(located[0.0]) == 1, (
        f"ideal battery should show one transfer peak: {located[0.0]}")


def test_criterion_10_detuning_polynomial_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 3, 5, 7, 9):
        for omega in np.linspace(0.3, n + 1.2, 50):
            diff = abs(delta_poly(n, 2, 0.1, float(omega))
                       - tlm_params(n, 2, 0.1, float(omega)).delta)
            worst = max(worst, diff)
    elapsed = time.monotonic() - start
    print(f"criterion 10: max |delta_poly - delta| {worst:.3e}, "
          f"{elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


CONVERGENCE_CONFIGS = [(1, 1), (1, 3), (1, 5), (2, 1), (2, 3), (2, 5),
                       (3, 5)]


@pytest.mark.parametrize("nb,n", CONVERGENCE_CONFIGS,
                         ids=[f"N{nb}-n{n}" for nb, n in
                              CONVERGENCE_CONFIGS])
def test_criterion_11_cutoff_convergence(nb, n):
    omega = resonance_solve(n, nb, 0.1)
    cfg = SimulationConfig(num_particles=nb, omega_C=omega, g_BC=0.1,
                           modes_battery=MODES, modes_charger=MODES,
                           target_n=n)
    res = convergence_check(cfg, factor=2, tune=True)
    print(f"criterion 11 [N={nb} n={n}]: rel diff {res['rel_diff']:.3e} "
          f"(W {res['W_low']:.8f} -> {res['W_high']:.8f})")
    assert res["rel_diff"] < 1e-4
