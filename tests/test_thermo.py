"""Thermodynamic observables against closed-form and brute-force references."""

import math

import numpy as np
import pytest

from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis)
from qbattery.dynamics import QuantumState, QuenchSimulation, SimulationConfig
from qbattery.errors import (HorizonWarning, NoTransferError,
                             NumericalBreakdownError)
from qbattery.hamiltonian import assemble_battery_only
from qbattery.thermo import (battery_density_matrix, ergotropy, find_t_max,
                             golden_section_max, irreversible_work,
                             partial_trace_charger, qsl_numeric,
                             reduced_charger_matrix, stored_work,
                             variance_to_qsl, von_neumann_entropy)


def test_battery_density_matrix_validates_spectrum():
    good = battery_density_matrix(np.diag([0.7, 0.3]))
    np.testing.assert_allclose(good.eigenvalues, [0.7, 0.3], atol=1e-14)
    with pytest.raises(NumericalBreakdownError):
        battery_density_matrix(np.diag([1.2, -0.2]))


def test_partial_trace_against_direct_reshape(rng):
    battery = SpeciesConfig(Species.BATTERY, 1.0, 5, 2)
    charger = SpeciesConfig(Species.CHARGER, 1.3, 5, 1)
    basis = build_composite_basis(battery, charger, ParitySector.ODD)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps /= np.linalg.norm(amps)
    state = QuantumState(amplitudes=amps, time=0.0)

    # independent reference: scatter into the rectangular (battery, charger)
    # wavefunction and contract each side
    psi = np.zeros((basis.battery_dim, basis.charger_dim), dtype=complex)
    for k, (bi, ci) in enumerate(basis.kept_pairs):
        psi[bi, ci] = amps[k]
    rho_b_ref = psi @ psi.conj().T
    rho_c_ref = psi.T @ psi.conj()

    rho_b = partial_trace_charger(state, basis)
    np.testing.assert_allclose(rho_b.rho, rho_b_ref, atol=1e-13)
    rho_c = reduced_charger_matrix(state, basis)
    np.testing.assert_allclose(rho_c, rho_c_ref, atol=1e-13)
    assert np.trace(rho_b.rho).real == pytest.approx(1.0, abs=1e-12)


def test_reduced_entropies_agree_for_pure_global_state(rng):
    battery = SpeciesConfig(Species.BATTERY, 1.0, 6, 2)
    charger = SpeciesConfig(Species.CHARGER, 0.9, 6, 1)
    basis = build_composite_basis(battery, charger, ParitySector.ODD)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps /= np.linalg.norm(amps)
    state = QuantumState(amplitudes=amps, time=0.0)
    s_b = von_neumann_entropy(partial_trace_charger(state, basis).eigenvalues)
    s_c = von_neumann_entropy(reduced_charger_matrix(state, basis))
    assert s_b == pytest.approx(s_c, abs=1e-10)


def test_stored_work_in_energy_eigenbasis():
    bat = assemble_battery_only(1, 4, 0.0, 1.0)
    # populate level 2 with probability 0.4, ground with 0.6
    rho = np.zeros((4, 4))
    rho[0, 0], rho[2, 2] = 0.6, 0.4
    w = stored_work(battery_density_matrix(rho), bat)
    assert w == pytest.approx(0.4 * 2.0, abs=1e-13)


def test_ergotropy_pure_eigenstate_and_passive_state():
    bat = assemble_battery_only(1, 4, 0.0, 1.0)
    # pure second excited state: everything above the ground is extractable
    rho = np.zeros((4, 4))
    rho[2, 2] = 1.0
    dm = battery_density_matrix(rho)
    assert ergotropy(dm, bat) == pytest.approx(2.0, abs=1e-12)
    assert stored_work(dm, bat) == pytest.approx(2.0, abs=1e-12)
    # passive state: descending populations with ascending energy
    passive = np.diag([0.5, 0.3, 0.15, 0.05])
    assert ergotropy(battery_density_matrix(passive), bat) == pytest.approx(
        0.0, abs=1e-12)


def test_ergotropy_two_level_population_inversion():
    bat = assemble_battery_only(1, 2, 0.0, 1.0)
    for p1 in (0.55, 0.8, 1.0):
        rho = np.diag([1.0 - p1, p1])
        want = (2.0 * p1 - 1.0) * 1.0  # (p1 - p0) * gap
        assert ergotropy(battery_density_matrix(rho), bat) == pytest.approx(
            want, abs=1e-12)


def test_von_neumann_entropy_limits():
    assert von_neumann_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(
        math.log(4.0), abs=1e-12)


def test_irreversible_work_is_h0_shift(rng):
    h0 = np.diag(rng.uniform(0.0, 3.0, size=5))
    v0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    v0 /= np.linalg.norm(v0)
    vt = rng.normal(size=5) + 1j * rng.normal(size=5)
    vt /= np.linalg.norm(vt)
    w = irreversible_work(QuantumState(vt, 1.0), QuantumState(v0, 0.0), h0)
    want = (np.vdot(vt, h0 @ vt) - np.vdot(v0, h0 @ v0)).real
    assert w == pytest.approx(want, abs=1e-13)


def test_qsl_numeric_two_level_closed_form():
    j = 0.031
    h = np.array([[0.0, j], [j, 0.0]])
    tau = qsl_numeric(np.array([1.0, 0.0]), h)
    assert tau == pytest.approx(math.pi / (2.0 * j), rel=1e-12)
    assert variance_to_qsl(j * j) == pytest.approx(math.pi / (2.0 * j),
                                                   rel=1e-12)
    assert variance_to_qsl(0.0) == math.inf


def test_golden_section_max_quadratic():
    t, val = golden_section_max(lambda t: -(t - 1.7) ** 2 + 4.0, 0.0, 5.0,
                                xtol=1e-9)
    assert t == pytest.approx(1.7, abs=1e-7)
    assert val == pytest.approx(4.0, abs=1e-12)


def test_golden_section_max_parabolic_steps_save_calls():
    calls = []

    def f(t):
        calls.append(t)
        return -(t - 1.7) ** 2 + 4.0

    t, val = golden_section_max(f, 0.0, 5.0, xtol=1e-6)
    assert t == pytest.approx(1.7, abs=1e-6)
    assert val == f(t)
    # pure golden section needs 36 calls here
    assert len(calls) <= 10


@pytest.mark.parametrize("f, a, b, xtol, want", [
    (lambda t: math.sin(t / 10.0) ** 2, 15.0, 16.5, 1e-6, 5.0 * math.pi),
    # monotone: the maximizer is the bracket edge, which find_resonance_peaks
    # recognises by a result within xtol of it
    (lambda t: t, 0.0, 1.0, 1e-5, 1.0),
])
def test_golden_section_max_within_xtol(f, a, b, xtol, want):
    t, val = golden_section_max(f, a, b, xtol=xtol)
    assert abs(t - want) <= xtol
    assert val == f(t)


def test_find_t_max_on_analytic_signal():
    # W(t) = sin^2(t/10): first peak at 5 pi
    res = find_t_max(lambda ts: np.sin(np.asarray(ts) / 10.0) ** 2, 40.0)
    assert res.t_max == pytest.approx(5.0 * math.pi, abs=1e-4)
    assert res.stored_work == pytest.approx(1.0, abs=1e-10)
    assert res.power == pytest.approx(1.0 / (5.0 * math.pi), rel=1e-4)


def test_find_t_max_extends_horizon():
    # peak at t = 50 pi, initial horizon far too short
    res = find_t_max(lambda ts: np.sin(np.asarray(ts) / 100.0) ** 2, 40.0)
    assert res.t_max == pytest.approx(50.0 * math.pi, rel=1e-4)


def test_find_t_max_warns_on_capped_horizon():
    # peak at t = 500 pi, beyond the 8 * 40 = 320 the doublings reach
    with pytest.warns(HorizonWarning, match="horizon 320"):
        res = find_t_max(lambda ts: np.sin(np.asarray(ts) / 1000.0) ** 2,
                         40.0)
    assert res.t_max == pytest.approx(320.0, rel=1e-6)


def test_find_t_max_doubling_reuses_grid():
    calls = []

    def work(ts):
        calls.append(np.array(ts))
        return np.sin(calls[-1] / 100.0) ** 2

    find_t_max(work, 40.0)
    # horizon 40 -> 80 -> 160: one full grid, then 601 new points per doubling
    assert [c.size for c in calls[:3]] == [1201, 601, 601]
    assert all(c.size == 1 for c in calls[3:])
    grid = calls[0]
    for h, new in zip((80.0, 160.0), calls[1:3]):
        # the even half of the old grid plus the new points is bit for bit
        # a fresh grid on [0, h], so the reused work values are exact
        grid = np.concatenate([grid[:-1:2], new])
        np.testing.assert_array_equal(grid, np.linspace(0.0, h, 1201))


def test_find_t_max_picks_earliest_equivalent_peak():
    # two equal-height peaks; the earlier one must win
    res = find_t_max(lambda ts: np.sin(np.asarray(ts)) ** 2, 10.0)
    assert res.t_max == pytest.approx(math.pi / 2.0, abs=1e-4)


def test_find_t_max_raises_without_transfer():
    with pytest.raises(NoTransferError):
        find_t_max(lambda ts: np.zeros_like(np.asarray(ts, dtype=float)),
                   10.0)


def test_find_t_max_populates_observables():
    sim = QuenchSimulation(SimulationConfig(
        num_particles=1, omega_C=1.0, g_BC=0.1,
        modes_battery=6, modes_charger=6, target_n=1))
    res = sim.summarize()
    obs = sim.observables_at(res.t_max)
    assert res.stored_work == pytest.approx(obs["W_B"], abs=1e-12)
    fields = {"ergotropy": "ergotropy", "entropy": "S_B",
              "irreversible_work": "W_irr", "interaction_energy": "E_int",
              "total_energy": "E_total"}
    # distinct values, so a swapped key cannot pass
    assert len({obs[key] for key in fields.values()}) == len(fields)
    for field, key in fields.items():
        assert getattr(res, field) == obs[key]
