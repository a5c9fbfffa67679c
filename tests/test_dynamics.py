"""Quench dynamics: unitarity, conservation laws, and weak-coupling limits."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qbattery import cli, dynamics, hamiltonian, lapack, thermo
from qbattery.basis import ParitySector
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import ConfigError, CutoffWarning, NumericalBreakdownError
from qbattery.experiments import degeneracy_seeds
from qbattery.hamiltonian import build_hamiltonian_set, embed_battery_operator
from qbattery.tlm import resonance_solve, tlm_params, wb_tlm


def small_config(**kw):
    base = dict(num_particles=1, omega_C=1.0, g_BC=0.1,
                modes_battery=6, modes_charger=6, target_n=1)
    base.update(kw)
    return SimulationConfig(**base)


def test_initial_state_is_ground_times_first_level():
    sim = QuenchSimulation(small_config())
    amps = sim.state0
    assert amps.dtype == np.float64
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)
    # the only populated pair is battery mode 0, charger level 1
    k = np.argmax(np.abs(amps))
    bi, ci = sim.basis.kept_pairs[k]
    assert tuple(sim.basis.battery_states[bi]) == (1, 0, 0, 0, 0, 0)
    assert ci == 1
    assert abs(amps[k]) == pytest.approx(1.0, abs=1e-14)


def test_sector_defaults_to_charger_level_parity():
    assert small_config().sector is ParitySector.ODD
    assert small_config(charger_level=2).sector is ParitySector.EVEN
    QuenchSimulation(small_config(charger_level=2))
    # an explicit sector is honoured, and psi(0) must lie inside it
    cfg = small_config(charger_level=2, sector=ParitySector.ODD)
    assert cfg.sector is ParitySector.ODD
    with pytest.raises(ConfigError, match="weight 0.000000 inside the ODD"):
        QuenchSimulation(cfg)


def test_replaced_charger_level_moves_a_defaulted_sector():
    cfg = small_config()
    even = dataclasses.replace(cfg, charger_level=2)
    assert even.sector is ParitySector.EVEN
    QuenchSimulation(even)
    assert dataclasses.replace(even, charger_level=3).sector \
        is ParitySector.ODD
    # other replacements keep the sector, and the records do not change
    assert dataclasses.replace(cfg, omega_C=1.1).sector is ParitySector.ODD
    assert dataclasses.replace(cfg, sector=ParitySector.FULL,
                               charger_level=2).sector is ParitySector.FULL
    assert dataclasses.asdict(even) == dict(
        dataclasses.asdict(cfg), charger_level=2, sector=ParitySector.EVEN)
    assert even == small_config(charger_level=2)
    # a sector given when the config is built stays, and the guard fires
    pinned = dataclasses.replace(small_config(sector=ParitySector.ODD),
                                 charger_level=2)
    assert pinned.sector is ParitySector.ODD
    with pytest.raises(ConfigError, match="weight 0.000000 inside the ODD"):
        QuenchSimulation(pinned)


def test_charger_quantum_counts_level():
    sim = QuenchSimulation(small_config(omega_C=2.9))
    assert sim.charger_quantum == pytest.approx(2.9)
    sim3 = QuenchSimulation(small_config(omega_C=1.3, charger_level=3,
                                         target_n=3))
    assert sim3.charger_quantum == pytest.approx(3 * 1.3)


def test_evolution_matches_dense_expm():
    sim = QuenchSimulation(small_config(omega_C=1.01))
    h1 = (sim.h0 + sim.hint).toarray()
    for t in (0.7, 13.0):
        direct = expm(-1j * t * h1) @ sim.state0
        np.testing.assert_allclose(sim.states_at([t])[:, 0], direct,
                                   atol=1e-11)


def test_norm_and_total_energy_conserved():
    sim = QuenchSimulation(small_config(num_particles=2, omega_C=0.97,
                                        g_B=0.4))
    h1 = sim.h0 + sim.hint
    e0 = np.vdot(sim.state0, h1 @ sim.state0).real
    for t in (0.0, 3.0, 41.5):
        psi = sim.states_at([t])[:, 0]
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
        assert sim.work_series([t])[0] == pytest.approx(w, abs=1e-12)


def test_stored_work_zero_at_t0():
    sim = QuenchSimulation(small_config(num_particles=2, g_B=0.7,
                                        omega_C=1.1))
    assert sim.work_series([0.0])[0] == pytest.approx(0.0, abs=1e-12)


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
    # shortest-roundtrip floats: every cell reads back bit for bit
    sim = QuenchSimulation(small_config())
    path = tmp_path / "series.csv"
    series = cli.write_series_csv(path, sim, times=np.linspace(0.0, 5.0, 5))
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=qbattery-series-v1"
    raw = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
    for name, column in zip(dynamics.SERIES_COLUMNS,
                            (series.times, series.stored_work,
                             series.ergotropy, series.entropy,
                             series.interaction_energy,
                             series.irreversible_work, series.total_energy)):
        np.testing.assert_array_equal(raw[name], column)


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
        resonant_sim_n3.work_series([res.t_max])[0], abs=1e-10)
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
        assert sim_o.work_series([t])[0] == pytest.approx(
            sim_f.work_series([t])[0], abs=1e-11)


def test_config_validation_and_cutoff_warning():
    with pytest.raises(ConfigError):
        SimulationConfig(num_particles=0, omega_C=1.0, g_BC=0.1)
    with pytest.raises(ConfigError):
        SimulationConfig(num_particles=1, omega_C=-1.0, g_BC=0.1)
    with pytest.raises(ConfigError):
        SimulationConfig(num_particles=1, omega_C=1.0, g_BC=0.1,
                         modes_battery=1)
    for name in ("omega_B", "omega_C", "g_BC", "g_B"):
        for value in (math.nan, math.inf, -math.inf):
            fields = dict(num_particles=1, omega_C=1.0, g_BC=0.1)
            fields[name] = value
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                SimulationConfig(**fields)
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
    coeff0 = vectors.conj().T @ sim.state0
    psi = vectors @ (np.exp(-1j * sim.spectral.energies * t) * coeff0)
    psi0 = sim.state0
    rho = thermo.partial_trace_charger(psi, sim.basis)
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
                             @ sim.state0)))
    sim.spectral.vectors[:, [-1, k]] = sim.spectral.vectors[:, [k, -1]]
    with pytest.raises(NumericalBreakdownError, match="total energy"):
        sim.series(np.linspace(0.0, 5.0, 3))


def dense_work(sim, times):
    """<psi(t)|(H_B - E_0) (x) 1_C|psi(t)> from the dense embedded operator
    and the complex eigen-expansion, all times at once."""
    bat = sim.battery_h
    work = embed_battery_operator(
        sim.basis, bat.matrix - bat.ground_energy * np.eye(bat.dim)).toarray()
    vectors = sim.spectral.vectors
    coeff0 = vectors.T @ sim.state0
    psi = vectors @ (np.exp(-1j * np.outer(sim.spectral.energies, times))
                     * coeff0[:, None])
    return np.einsum("it,it->t", psi.conj(), work @ psi).real


# 600 evenly spaced times run as three blocks on the phase tables; the
# irregular ones take direct trig
@pytest.mark.parametrize("g_B, sector", [
    (0.0, ParitySector.ODD), (0.5, ParitySector.ODD),
    (-0.5, ParitySector.ODD), (3.0, ParitySector.ODD),
    (0.5, ParitySector.FULL)])
def test_work_series_matches_dense_work_operator(g_B, sector):
    sim = QuenchSimulation(small_config(num_particles=2, g_B=g_B,
                                        omega_C=1.04, sector=sector))
    even = np.linspace(0.0, 400.0, 600)
    irregular = np.sort(np.random.default_rng(7).uniform(0.0, 400.0, 40))
    for times in (even, irregular):
        want = dense_work(sim, times)
        np.testing.assert_allclose(sim.work_series(times), want,
                                   rtol=0, atol=1e-11)
    assert np.ptp(want) > 1e-3


def test_series_work_column_matches_work_series():
    sim = QuenchSimulation(small_config(num_particles=2, g_B=-0.5,
                                        omega_C=1.04))
    times = np.linspace(0.0, 300.0, 300)
    np.testing.assert_allclose(sim.series(times).stored_work,
                               sim.work_series(times), rtol=0, atol=1e-11)


def test_phase_tables_match_direct_trig():
    rng = np.random.default_rng(11)
    energies = np.sort(rng.uniform(-5.0, 5.0, 40))
    coeff = rng.normal(size=40)

    def direct(times):
        phase = np.outer(energies, times)
        return np.cos(phase) * coeff[:, None], -np.sin(phase) * coeff[:, None]

    # the upper half of a find_t_max grid; at |E t| up to 2e4 the argument
    # round-off of direct trig alone is about 2e-12
    grid = np.linspace(0.0, 4000.0, 1201)[600:]
    assert dynamics._evenly_spaced(grid)
    for times in (grid, np.linspace(3.0, 7.0, 17), grid[::-1]):
        for got, want in zip(dynamics._phases(energies, coeff, times),
                             direct(times)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
    # irregular or short grids take cos and sin as they are
    irregular = np.sort(rng.uniform(0.0, 100.0, 50))
    assert not dynamics._evenly_spaced(irregular)
    for times in (irregular, np.linspace(0.0, 5.0, 16)):
        for got, want in zip(dynamics._phases(energies, coeff, times),
                             direct(times)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("g_B", [0.0, -0.5])
def test_sparse_pieces_match_dense_assembly(g_B):
    """H0 and Hint as CSR, and the dense H1 the solver gets, hold the very
    numbers of the dense assembly."""
    cfg = small_config(num_particles=2, g_B=g_B, omega_C=1.07,
                       modes_battery=7, modes_charger=7)
    model = cfg.cutoff_model()
    sim_basis = dataclasses.replace(model.basis, charger=cfg.charger_config())
    h1, h0, hint = hamiltonian.quench_hamiltonians(
        sim_basis, model, cfg.g_BC)
    dense = build_hamiltonian_set(sim_basis, g_B, cfg.g_BC)
    assert np.array_equal(h0.toarray(), dense.h0)
    assert np.array_equal(hint.toarray(), dense.hint)
    assert np.array_equal(h1, dense.h1)


@pytest.mark.parametrize("g_B", [0.0, -0.5])
def test_cold_and_warm_model_cache_agree(g_B, monkeypatch):
    monkeypatch.setattr(hamiltonian, "_model_cache", {})
    cfg = small_config(num_particles=2, g_B=g_B, omega_C=1.03)
    cold = QuenchSimulation(cfg)
    warm = QuenchSimulation(cfg)
    assert warm.battery_h is cold.battery_h
    assert len(hamiltonian._model_cache) == 1
    times = np.linspace(0.0, 60.0, 41)
    assert np.array_equal(cold.work_series(times), warm.work_series(times))
    for name in ("stored_work", "ergotropy", "entropy", "interaction_energy",
                 "irreversible_work", "total_energy"):
        assert np.array_equal(getattr(cold.series(times), name),
                              getattr(warm.series(times), name))


def test_cache_hit_carries_the_configs_charger_frequency(monkeypatch):
    monkeypatch.setattr(hamiltonian, "_model_cache", {})
    first = QuenchSimulation(small_config(omega_C=1.0))
    cfg = small_config(omega_C=1.7)
    sim = QuenchSimulation(cfg)
    assert sim.battery_h is first.battery_h
    assert sim.basis.charger.omega == cfg.omega_C
    assert first.basis.charger.omega == 1.0
    assert cfg.cutoff_model().basis.charger.omega == 1.0
    # H0's charger diagonal uses the config's omega_C
    sim_diag = sim.h0.diagonal() - first.h0.diagonal()
    np.testing.assert_allclose(sim_diag,
                               0.7 * (sim.basis.charger_index + 0.5),
                               rtol=1e-14)


def test_degeneracy_seeds_share_the_simulation_model(monkeypatch):
    monkeypatch.setattr(hamiltonian, "_model_cache", {})
    cfg = small_config(num_particles=2, g_B=0.4, omega_C=2.0)
    degeneracy_seeds((1.0, 3.0), cfg)
    assert len(hamiltonian._model_cache) == 1
    assert QuenchSimulation(cfg).battery_h is cfg.cutoff_model().battery


def test_simulation_checks_hermiticity_of_h1(monkeypatch):
    cfg = small_config(num_particles=2, modes_battery=12, modes_charger=12)
    basis = cfg.cutoff_model().basis
    assert basis.size > 256
    hint = hamiltonian.assemble_Hint(basis, cfg.g_BC)
    hint[0, basis.size - 1] += 1e-11
    monkeypatch.setattr(hamiltonian, "assemble_Hint", lambda *args: hint)
    with pytest.raises(AssertionError, match="lost Hermiticity"):
        QuenchSimulation(cfg)


def test_memory_guard_refuses_before_allocating(monkeypatch):
    cfg = small_config(num_particles=2, modes_battery=12, modes_charger=12)
    cfg.cutoff_model()                          # warm: only the build is left
    calls = []
    monkeypatch.setattr(lapack, "_physical_memory", lambda: 10**6)
    monkeypatch.setattr(hamiltonian, "assemble_Hint",
                        lambda *args: calls.append("assemble_Hint"))
    monkeypatch.setattr(dynamics.SpectralDecomposition, "from_matrix",
                        lambda h: calls.append("from_matrix"))
    dim = cfg.cutoff_model().basis.size
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError,
                           match=f"needs {lapack.solve_bytes(dim)} bytes"):
            QuenchSimulation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 8 * dim * dim


def test_states_at_refuses_a_block_larger_than_memory(monkeypatch):
    sim = QuenchSimulation(small_config(num_particles=2))
    times = np.linspace(0.0, 10.0, 50)
    need = dynamics._STATES_BYTES * sim.basis.size * times.size
    monkeypatch.setattr(lapack, "_physical_memory", lambda: need)
    assert sim.states_at(times).shape == (sim.basis.size, times.size)
    monkeypatch.setattr(lapack, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(QuenchSimulation, "_block", lambda *args: 1 / 0)
    with pytest.raises(ConfigError, match=f"needs {need} bytes"):
        sim.states_at(times)


def exact_slope_terms(sim):
    """|c_k c_l A_kl (E_k - E_l)| with A = rows^T diag(gaps) rows, and the
    Cauchy-Schwarz bounds |c_k c_l| sqrt(A_kk A_ll) |E_k - E_l| on them."""
    rows, gaps = sim._work_rows
    coeff, energies = np.abs(sim._coeff0), sim.spectral.energies
    a_matrix = rows.T @ (gaps[:, None] * rows)
    spread = np.abs(energies[:, None] - energies[None, :])
    a = coeff * np.sqrt(np.diag(a_matrix))
    return (np.abs(np.outer(coeff, coeff) * a_matrix) * spread,
            np.outer(a, a) * spread)


@pytest.mark.parametrize("g_B", [0.0, -0.5, 3.0])
def test_work_slope_bounds_the_work_series(g_B):
    sim = QuenchSimulation(small_config(num_particles=2, g_B=g_B,
                                        omega_C=1.04))
    times = np.linspace(0.0, 4.0 * sim._horizon(), 20_001)
    work = sim.work_series(times)
    steepest = np.abs(np.diff(work) / np.diff(times)).max()
    exact = exact_slope_terms(sim)[0].sum()
    assert steepest <= sim._work_slope
    # with no tail column S is the exact sum, up to summation order
    assert (1.0 - 1e-12) * exact <= sim._work_slope <= 1.5 * exact


@pytest.mark.parametrize("tail", [0.0, 1e-6, 1.0])
def test_work_slope_is_exact_on_the_head_and_cauchy_schwarz_on_the_tail(
        tail, monkeypatch):
    # tail 0: the exact sum; 1: all Cauchy-Schwarz, which checks the prefix
    # sums over the energies; 1e-6: 38 of 63 columns in the tail
    sim = QuenchSimulation(small_config(num_particles=2, g_B=-0.5,
                                        omega_C=1.04))
    monkeypatch.setattr(dynamics, "_SLOPE_TAIL", tail)
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", 7)   # several blocks
    weight = sim._coeff0 ** 2
    order = np.argsort(weight)
    in_tail = np.zeros(weight.size, dtype=bool)
    in_tail[order] = np.cumsum(weight[order]) <= tail * weight.sum()
    head = ~in_tail
    exact, bounds = exact_slope_terms(sim)
    want = np.where(np.outer(head, head), exact, bounds).sum()
    assert QuenchSimulation._work_slope.func(sim) == pytest.approx(
        want, rel=1e-12)


def test_peak_is_the_summary_without_the_read_out():
    sim = QuenchSimulation(small_config(num_particles=2, g_B=3.0,
                                        omega_C=1.04))
    peak, summary = sim.peak(), sim.summarize()
    assert (peak.t_max, peak.stored_work, peak.power) == \
        (summary.t_max, summary.stored_work, summary.power)
    assert peak.ergotropy is None and peak.total_energy is None
    assert summary.ergotropy is not None


def test_summarize_prunes_the_grid_to_the_same_pick():
    sim = QuenchSimulation(small_config(num_particles=2, g_B=3.0,
                                        omega_C=1.04))
    points = []
    real = sim.work_series

    def counted(times):
        points.append(np.size(times))
        return real(times)

    sim.work_series = counted
    summary = sim.summarize()
    pruned = sum(points)
    points.clear()
    full = thermo.find_t_max(sim.work_series, sim._horizon())
    assert (summary.t_max, summary.stored_work) == \
        (full.t_max, full.stored_work)
    assert pruned < sum(points) / 3


def built_on(cfg, backend, monkeypatch):
    """QuenchSimulation(cfg) on the named backend: the rule's eigensolve
    cost is set to zero (spectral) or to a second per D^3 (walk, with a
    budget no read reaches)."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_EIGH_SECONDS",
                      1.0 if backend == "walk" else 0.0)
        sim = QuenchSimulation(cfg)
    assert sim.backend == backend
    return sim


BACKEND_CONFIGS = [
    pytest.param(dict(num_particles=2, g_B=g_B, omega_C=1.0,
                      modes_battery=12, modes_charger=12), id=f"N2-gB{g_B}")
    for g_B in (0.0, -0.5, 3.0)
] + [
    pytest.param(dict(num_particles=3, omega_C=1.0, modes_battery=10,
                      modes_charger=10), id="N3-M10"),
    # the QSL horizon undershoots this resonant peak: one doubling
    pytest.param(dict(num_particles=2, omega_C=resonance_solve(5, 2, 0.1),
                      modes_battery=12, modes_charger=12, target_n=5),
                 id="N2-n5-doubling"),
]


@pytest.mark.parametrize("fields", BACKEND_CONFIGS)
def test_walk_and_spectral_backends_agree(fields, monkeypatch):
    cfg = small_config(**fields)
    walk = built_on(cfg, "walk", monkeypatch)
    spectral = built_on(cfg, "spectral", monkeypatch)
    assert walk.qsl_estimate() == pytest.approx(spectral.qsl_estimate(),
                                                rel=1e-10)
    times = np.linspace(0.0, spectral._horizon(), 97)
    np.testing.assert_allclose(walk.work_series(times),
                               spectral.work_series(times), rtol=0,
                               atol=1e-10)
    got, want = walk.series(times), spectral.series(times)
    for name in ("stored_work", "ergotropy", "entropy", "interaction_energy",
                 "irreversible_work", "total_energy"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=1e-9, err_msg=name)
    peak_walk, peak_spectral = walk.peak(), spectral.peak()
    if fields.get("target_n") == 5:
        assert peak_spectral.t_max > spectral._horizon()
    assert abs(peak_walk.t_max - peak_spectral.t_max) <= 1e-5
    assert abs(peak_walk.stored_work - peak_spectral.stored_work) <= 1e-9
    np.testing.assert_allclose(walk.states_at(times[::16]),
                               spectral.states_at(times[::16]), rtol=0,
                               atol=1e-10)
    assert walk.backend == "walk"


def test_walk_past_its_budget_switches_to_the_eigensolve(monkeypatch):
    cfg = small_config(num_particles=3, omega_C=1.0, modes_battery=10,
                       modes_charger=10)
    sim = built_on(cfg, "walk", monkeypatch)
    times = np.linspace(0.0, 20.0, 41)
    first = sim.work_series(times)
    sim._budget = sim._walk.row_matvecs
    np.testing.assert_allclose(sim.work_series(times), first, rtol=0,
                               atol=1e-10)
    assert sim.backend == "spectral"


@pytest.mark.parametrize("fields, backend", [
    # the resonance workload's two windows (D = 275)
    (dict(num_particles=2, omega_C=5.0, g_B=3.0, modes_battery=10,
          modes_charger=10, target_n=5), "spectral"),
    (dict(num_particles=2, omega_C=1.0, g_B=-0.5, modes_battery=10,
          modes_charger=10, target_n=1), "spectral"),
    # the cutoff workload's dense low cutoff (D = 588)
    (dict(num_particles=2, omega_C=resonance_solve(3, 2, 0.1),
          modes_battery=13, modes_charger=13, target_n=3), "spectral"),
    # the series workload's two configurations (D = 2184)
    (dict(num_particles=3, omega_C=resonance_solve(5, 3, 0.1),
          modes_battery=12, modes_charger=12, target_n=5), "walk"),
    (dict(num_particles=3, omega_C=1.0, g_B=-0.5, modes_battery=12,
          modes_charger=12), "walk"),
    # the operator acts on one parity sector only
    (dict(num_particles=3, omega_C=1.0, modes_battery=10, modes_charger=10,
          sector=ParitySector.FULL), "spectral"),
])
def test_backend_rule_picks(fields, backend):
    assert QuenchSimulation(small_config(**fields)).backend == backend
