"""Quench dynamics: unitarity, conservation laws, and weak-coupling limits."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qbattery import dynamics, thermo
from qbattery.basis import ParitySector
from qbattery.dynamics import (QuenchSimulation, SimulationConfig,
                               time_series)
from qbattery.errors import ConfigError, CutoffWarning, NumericalBreakdownError
from qbattery.tlm import resonance_solve, tlm_params, wb_tlm


def small_config(**kw):
    base = dict(num_particles=1, omega_C=1.0, g_BC=0.1,
                modes_battery=6, modes_charger=6, target_n=1)
    base.update(kw)
    return SimulationConfig(**base)


def test_initial_state_is_ground_times_first_level():
    sim = QuenchSimulation(small_config())
    amps = sim.state0.amplitudes
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)
    # the only populated pair is battery mode 0, charger level 1
    k = np.argmax(np.abs(amps))
    bi, ci = sim.basis.kept_pairs[k]
    assert tuple(sim.basis.battery_states[bi]) == (1, 0, 0, 0, 0, 0)
    assert ci == 1
    assert abs(amps[k]) == pytest.approx(1.0, abs=1e-14)


def test_charger_quantum_counts_level():
    sim = QuenchSimulation(small_config(omega_C=2.9))
    assert sim.charger_quantum == pytest.approx(2.9)
    sim3 = QuenchSimulation(small_config(omega_C=1.3, charger_level=3,
                                         target_n=3))
    assert sim3.charger_quantum == pytest.approx(3 * 1.3)


def test_evolution_matches_dense_expm():
    sim = QuenchSimulation(small_config(omega_C=1.01))
    h1 = sim.h0 + sim.hint
    for t in (0.7, 13.0):
        direct = expm(-1j * t * h1) @ sim.state0.amplitudes
        np.testing.assert_allclose(sim.state_at(t).amplitudes, direct,
                                   atol=1e-11)


def test_norm_and_total_energy_conserved():
    sim = QuenchSimulation(small_config(num_particles=2, omega_C=0.97,
                                        g_B=0.4))
    h1 = sim.h0 + sim.hint
    e0 = np.vdot(sim.state0.amplitudes, h1 @ sim.state0.amplitudes).real
    for t in (0.0, 3.0, 41.5):
        psi = sim.state_at(t).amplitudes
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        et = np.vdot(psi, h1 @ psi).real
        assert et == pytest.approx(e0, abs=1e-12)


def test_work_series_matches_pointwise_observables():
    sim = QuenchSimulation(small_config(omega_C=1.02))
    times = np.linspace(0.0, 30.0, 7)
    series = sim.work_series(times)
    for t, w in zip(times, series):
        obs = sim.observables_at(t)
        assert w == pytest.approx(obs["W_B"], abs=1e-12)
        assert sim.work_at(t) == pytest.approx(w, abs=1e-12)


def test_stored_work_zero_at_t0():
    sim = QuenchSimulation(small_config(num_particles=2, g_B=0.7,
                                        omega_C=1.1))
    assert sim.work_at(0.0) == pytest.approx(0.0, abs=1e-12)


def test_weak_coupling_follows_two_level_sine():
    # on resonance the stored work follows W_C(0) (2J/Omega)^2 sin^2(Omega t/2)
    n, N = 1, 1
    omega = resonance_solve(n, N, 0.1)
    sim = QuenchSimulation(small_config(omega_C=omega))
    params = tlm_params(n, N, 0.1, omega)
    times = np.linspace(0.0, 0.8 * np.pi / (2 * params.coupling), 9)
    for t, w in zip(times, sim.work_series(times)):
        assert w == pytest.approx(wb_tlm(params, float(t)), abs=2e-2 * omega)


def test_series_columns_are_consistent():
    sim = QuenchSimulation(small_config(omega_C=1.05))
    times = np.linspace(0.0, 20.0, 11)
    series = sim.series(times)
    np.testing.assert_allclose(series.times, times, atol=0)
    assert np.all(series.stored_work >= -1e-12)
    assert np.all(series.ergotropy <= series.stored_work + 1e-10)
    assert np.all(series.ergotropy >= -1e-10)
    # total energy is flat, interaction + irreversible sum to zero shift
    np.testing.assert_allclose(series.total_energy,
                               series.total_energy[0], atol=1e-11)
    # W_irr is the interaction-energy deficit relative to t=0
    np.testing.assert_allclose(
        series.irreversible_work,
        series.interaction_energy[0] - series.interaction_energy,
        atol=1e-10)


def test_series_csv_round_trip(tmp_path):
    sim = QuenchSimulation(small_config())
    series = sim.series(np.linspace(0.0, 5.0, 5))
    path = tmp_path / "series.csv"
    series.to_csv(path, meta={"tag": "unit"})
    with open(path) as fh:
        lines = fh.read().splitlines()
    skip = sum(1 for line in lines if line.startswith("#"))
    assert lines[0] == "# schema=qbattery.series.v1"
    raw = np.genfromtxt(path, delimiter=",", names=True, skip_header=skip)
    np.testing.assert_allclose(raw["W_B"], series.stored_work, rtol=1e-10)
    np.testing.assert_allclose(raw["S_B"], series.entropy, rtol=1e-9,
                               atol=1e-12)


def test_time_series_convenience_wrapper():
    cfg = small_config()
    series = time_series(cfg, points=16)
    assert len(series.times) == 16
    assert series.times[0] == 0.0


def test_default_times_cover_expected_peak():
    omega = resonance_solve(1, 1, 0.1)
    sim = QuenchSimulation(small_config(omega_C=omega))
    times = sim.default_times()
    # the default span must reach past the first transfer peak
    tau = np.pi / (2 * tlm_params(1, 1, 0.1, omega).coupling)
    assert times[-1] >= tau
    assert len(times) == 600


def test_summarize_reports_peak(resonant_sim_n3, resonant_summary_n3):
    res = resonant_summary_n3
    assert res.stored_work == pytest.approx(
        resonant_sim_n3.work_at(res.t_max), abs=1e-10)
    assert res.power == pytest.approx(res.stored_work / res.t_max, rel=1e-12)
    assert res.t_max > 0


def test_sector_full_agrees_with_odd_for_quench():
    # the initial state lives in the odd sector; evolving in the full
    # space must reproduce the sector-restricted answer
    cfg_odd = small_config(omega_C=1.03)
    cfg_full = small_config(omega_C=1.03, sector=ParitySector.FULL)
    sim_o = QuenchSimulation(cfg_odd)
    sim_f = QuenchSimulation(cfg_full)
    for t in (2.0, 17.0):
        assert sim_o.work_at(t) == pytest.approx(sim_f.work_at(t), abs=1e-11)


def test_config_validation_and_cutoff_warning():
    with pytest.raises(ConfigError):
        SimulationConfig(num_particles=0, omega_C=1.0, g_BC=0.1)
    with pytest.raises(ConfigError):
        SimulationConfig(num_particles=1, omega_C=-1.0, g_BC=0.1)
    with pytest.raises(ConfigError):
        SimulationConfig(num_particles=1, omega_C=1.0, g_BC=0.1,
                         modes_battery=1)
    with pytest.warns(CutoffWarning):
        SimulationConfig(num_particles=1, omega_C=9.0, g_BC=0.1,
                         modes_battery=12, modes_charger=12, target_n=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SimulationConfig(num_particles=1, omega_C=3.0, g_BC=0.1,
                         modes_battery=12, modes_charger=12, target_n=3)


def test_qsl_estimate_positive():
    sim = QuenchSimulation(small_config(omega_C=1.02))
    assert sim.qsl_estimate() > 0.0


def reference_row(sim, t):
    """One series row from the complex eigen-expansion and the dense
    matrices, one time at a time."""
    vectors = sim.spectral.vectors.astype(complex)
    coeff0 = vectors.conj().T @ sim.state0.amplitudes
    psi = vectors @ (np.exp(-1j * sim.spectral.energies * t) * coeff0)
    psi0 = sim.state0.amplitudes
    rho = thermo.partial_trace_charger(dynamics.QuantumState(psi, t),
                                       sim.basis)
    h0_now = np.vdot(psi, sim.h0 @ psi).real
    e_int = np.vdot(psi, sim.hint @ psi).real
    return [thermo.stored_work(rho, sim.battery_h),
            thermo.ergotropy(rho, sim.battery_h),
            thermo.von_neumann_entropy(rho.eigenvalues),
            e_int,
            h0_now - np.vdot(psi0, sim.h0 @ psi0).real,
            h0_now + e_int]


# N_B = 1 has D_B = D_C = 6; N_B = 2 and 3 have D_B = 21 and 56 > D_C
@pytest.mark.parametrize("num_particles, g_B", [
    (1, 0.0), (1, 0.6), (2, 0.0), (2, -0.4), (3, 0.5)])
def test_series_matches_per_time_reference(num_particles, g_B, monkeypatch):
    # small blocks, so the 11 times run as four chunks
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", 3)
    sim = QuenchSimulation(small_config(num_particles=num_particles,
                                        g_B=g_B, omega_C=1.04))
    times = np.linspace(0.0, 40.0, 11)
    series = sim.series(times)
    got = np.column_stack([series.stored_work, series.ergotropy,
                           series.entropy, series.interaction_energy,
                           series.irreversible_work, series.total_energy])
    want = np.array([reference_row(sim, t) for t in times])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    assert np.ptp(series.stored_work) > 1e-3

    one = sim.series([times[4]])
    obs = sim.observables_at(times[4])
    for name, column in zip(dynamics.SERIES_COLUMNS,
                            (one.times, one.stored_work, one.ergotropy,
                             one.entropy, one.interaction_energy,
                             one.irreversible_work, one.total_energy)):
        assert obs[name] == column[0]
    np.testing.assert_allclose(sim.work_series(times), series.stored_work,
                               rtol=0, atol=1e-12)


def test_norm_drift_raises():
    sim = QuenchSimulation(small_config(num_particles=2, g_B=0.4))
    sim.spectral.vectors *= 1.001
    for read in (sim.series, sim.work_series):
        with pytest.raises(NumericalBreakdownError, match="norm"):
            read(np.linspace(0.0, 5.0, 3))


def test_energy_drift_raises():
    # swapping the most populated eigenvector with the top one keeps the
    # columns orthonormal but moves the energy of the evolved state
    sim = QuenchSimulation(small_config(num_particles=2, g_B=0.4))
    k = int(np.argmax(np.abs(sim.spectral.vectors.T
                             @ sim.state0.amplitudes.real)))
    sim.spectral.vectors[:, [-1, k]] = sim.spectral.vectors[:, [k, -1]]
    with pytest.raises(NumericalBreakdownError, match="total energy"):
        sim.series(np.linspace(0.0, 5.0, 3))
