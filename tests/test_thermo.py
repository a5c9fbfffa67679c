"""Thermodynamic observables against closed-form and brute-force references."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis)
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import (HorizonWarning, NoTransferError,
                             NumericalBreakdownError)
from qbattery.hamiltonian import assemble_battery_only
from qbattery.thermo import (battery_density_matrix, ergotropy, find_t_max,
                             golden_section_max, partial_trace_charger,
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

    # independent reference: scatter into the rectangular (battery, charger)
    # wavefunction and contract each side
    psi = np.zeros((basis.battery_dim, basis.charger_dim), dtype=complex)
    for k, (bi, ci) in enumerate(basis.kept_pairs):
        psi[bi, ci] = amps[k]
    rho_b_ref = psi @ psi.conj().T
    rho_c_ref = psi.T @ psi.conj()

    rho_b = partial_trace_charger(amps, basis)
    np.testing.assert_allclose(rho_b.rho, rho_b_ref, atol=1e-13)
    rho_c = reduced_charger_matrix(amps, basis)
    np.testing.assert_allclose(rho_c, rho_c_ref, atol=1e-13)
    assert np.trace(rho_b.rho).real == pytest.approx(1.0, abs=1e-12)


def test_reduced_entropies_agree_for_pure_global_state(rng):
    battery = SpeciesConfig(Species.BATTERY, 1.0, 6, 2)
    charger = SpeciesConfig(Species.CHARGER, 0.9, 6, 1)
    basis = build_composite_basis(battery, charger, ParitySector.ODD)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    amps /= np.linalg.norm(amps)
    s_b = von_neumann_entropy(partial_trace_charger(amps, basis).eigenvalues)
    s_c = von_neumann_entropy(reduced_charger_matrix(amps, basis))
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


def test_qsl_numeric_two_level_closed_form():
    # a level coupled by j to another has energy variance j^2
    j = 0.031
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


def unimodal(kind, c, width):
    """A function with its one maximum at c: a parabola, a cosine arch of
    half-width pi width about c (-1 beyond it), or a Gaussian."""
    if kind == "parabola":
        return lambda t: -((t - c) / width) ** 2
    if kind == "arch":
        return lambda t: (math.cos((t - c) / (2.0 * width))
                          if abs(t - c) < math.pi * width else -1.0)
    return lambda t: math.exp(-((t - c) / width) ** 2)


def warm_and_cold(kind, c, size, left, right, inner, width, xtol):
    """(warm result, its calls, cold result, its calls, bracket triple)
    for a bracket [c - left size, c + right size] whose interior point is
    ``inner`` of the way from c to the nearer end."""
    f = unimodal(kind, c, width * size)
    a, b = c - left * size, c + right * size
    x = c + inner * min(c - a, b - c)
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    warm = golden_section_max(counted, a, b, xtol=xtol * size,
                              start=(x, f(x), f(a), f(b)))
    warm_calls = list(calls)
    calls.clear()
    cold = golden_section_max(counted, a, b, xtol=xtol * size)
    return warm, warm_calls, cold, calls, (a, x, b)


brackets = dict(
    c=st.floats(-1.0, 1.0), size=st.floats(1e-3, 10.0),
    left=st.floats(0.05, 1.0), right=st.floats(0.05, 1.0),
    inner=st.floats(-0.95, 0.95), width=st.floats(0.3, 3.0),
    xtol=st.floats(1e-6, 1e-3))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["parabola", "arch", "gaussian"]), **brackets)
def test_warm_started_golden_section_max_finds_the_maximizer(
        kind, c, size, left, right, inner, width, xtol):
    (t, val), calls, _, _, triple = warm_and_cold(kind, c, size, left, right,
                                                  inner, width, xtol)
    assert abs(t - c) <= xtol * size
    assert val == unimodal(kind, c, width * size)(t)
    assert not set(calls) & set(triple)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["parabola", "arch"]), **brackets)
def test_warm_start_on_a_smooth_peak_needs_no_more_calls(
        kind, c, size, left, right, inner, width, xtol):
    _, warm, _, cold, _ = warm_and_cold(kind, c, size, left, right, inner,
                                        width, xtol)
    assert len(warm) <= len(cold)


def test_warm_start_steps_to_the_parabola_vertex_first():
    calls = []

    def f(t):
        calls.append(t)
        return -(t - 1.7) ** 2 + 4.0

    golden_section_max(f, 1.0, 3.0, xtol=1e-6,
                       start=(2.0, f(2.0), f(1.0), f(3.0)))
    assert calls[3] == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ValueError, match="start"):
        golden_section_max(f, 1.0, 3.0, start=(2.8, f(2.8), f(1.0), f(3.0)))


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
    # then one read of the pick and its two neighbours, and Brent steps
    assert calls[3].size == 3
    assert all(c.size == 1 for c in calls[4:])
    grid = calls[0]
    for h, new in zip((80.0, 160.0), calls[1:3]):
        # the even half of the old grid plus the new points is bit for bit
        # a fresh grid on [0, h], so the reused work values are exact
        grid = np.concatenate([grid[:-1:2], new])
        np.testing.assert_array_equal(grid, np.linspace(0.0, h, 1201))
    pick = np.searchsorted(grid, calls[3][1])
    np.testing.assert_array_equal(calls[3], grid[pick - 1:pick + 2])


def test_find_t_max_picks_earliest_equivalent_peak():
    # two equal-height peaks; the earlier one must win
    res = find_t_max(lambda ts: np.sin(np.asarray(ts)) ** 2, 10.0)
    assert res.t_max == pytest.approx(math.pi / 2.0, abs=1e-4)


class Counted:
    """A work function that counts the grid points it is asked for."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        self.points += ts.size
        return self.f(ts)


@pytest.mark.parametrize("period, slope, horizon", [
    (10.0, 0.1, 40.0),        # one grid
    (100.0, 0.01, 40.0),      # two doublings
    (1000.0, 0.001, 40.0),    # HorizonWarning
    (1.0, 1.0, 10.0),         # two equal peaks: the earlier one
])
def test_find_t_max_pruned_by_exact_slope_matches_full_grid(period, slope,
                                                            horizon):
    # |d/dt sin^2(t/p)| = |sin(2t/p)| / p <= 1/p
    def signal(ts):
        return np.sin(ts / period) ** 2

    def search(work, **kw):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = find_t_max(work, horizon, **kw)
        return summary, [w.category for w in caught]

    full, pruned = Counted(signal), Counted(signal)
    assert search(pruned, slope=slope) == search(full)
    assert pruned.points < full.points


def two_peaks(ts):
    """A broad bump of 0.9 at t = 70 and a narrow one of 1.0 at t = 31.3,
    whose slope reaches sqrt(2 / e) / 0.3 = 2.86."""
    return (0.9 * np.exp(-((ts - 70.0) / 10.0) ** 2)
            + np.exp(-((ts - 31.3) / 0.3) ** 2))


def test_find_t_max_pruned_keeps_narrow_peak_with_true_slope():
    pruned = Counted(two_peaks)
    got = find_t_max(pruned, 100.0, slope=2.9)
    assert got == find_t_max(two_peaks, 100.0)
    assert got.t_max == pytest.approx(31.3, abs=1e-4)
    assert pruned.points < 1201


def test_find_t_max_pruned_keeps_an_earlier_near_peak():
    # two tents of slope 0.01: the earlier one, 5e-4 below the top, is the
    # pick. The top sits on a first-pass point, and the earlier tent's slope
    # bound is tight, so only the near-peak threshold, not the top, keeps
    # its grid points
    top = np.linspace(0.0, 100.0, 1201)[832]

    def tents(ts):
        return np.maximum(0.9995 - 0.01 * np.abs(ts - 30.3),
                          1.0 - 0.01 * np.abs(ts - top))

    got = find_t_max(tents, 100.0, slope=0.01)
    assert got == find_t_max(tents, 100.0)
    assert got.t_max == pytest.approx(30.3, abs=1e-4)


def test_find_t_max_slope_too_small_loses_the_pick():
    # negative control: a slope 10x below the true one prunes the narrow
    # peak between two first-pass points, so the search settles on the bump
    got = find_t_max(two_peaks, 100.0, slope=0.29)
    assert got.t_max == pytest.approx(70.0, abs=1e-2)


def test_find_t_max_rejects_negative_slope():
    with pytest.raises(ValueError, match="slope"):
        find_t_max(two_peaks, 100.0, slope=-1.0)


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
