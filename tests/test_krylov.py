"""Matrix-free propagation against the dense pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis, enumerate_fock_states)
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import ConfigError, NumericalBreakdownError
from qbattery import krylov
from qbattery.hamiltonian import build_hamiltonian_set
from qbattery.krylov import (ChebyshevWalk, ProductSpaceOperator,
                             chebyshev_evolve, propagate_work_series,
                             spectral_bounds, work_walk)
from scipy.special import jv


def make_operator(num_particles=2, mb=6, mc=6, g=0.1, wc=1.0,
                  sector=ParitySector.ODD, g_B=0.0):
    return ProductSpaceOperator(num_particles=num_particles,
                                modes_battery=mb, modes_charger=mc,
                                g_BC=g, g_B=g_B, omega_C=wc, sector=sector)


def sector_basis_map(op, sector):
    """The composite basis of ``sector`` and, for each operator entry, the
    index of its (battery state, charger mode) pair in that basis."""
    battery = SpeciesConfig(Species.BATTERY, 1.0, op.modes_battery,
                            op.num_particles)
    charger = SpeciesConfig(Species.CHARGER, op.omega_C, op.modes_charger, 1)
    basis = build_composite_basis(battery, charger, sector)
    return basis, basis.index_matrix[op.pairs[:, 0], op.pairs[:, 1]]


def test_dense_matches_assembled_hamiltonian():
    # each sector operator is its block of the full product-space matrix
    for sector in (ParitySector.ODD, ParitySector.EVEN):
        op = make_operator(num_particles=2, mb=5, mc=5, g=0.13, wc=1.7,
                           sector=sector)
        dense = op.dense()
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)
        basis, sel = sector_basis_map(op, ParitySector.FULL)
        hs = build_hamiltonian_set(basis, g_B=0.0, g_BC=0.13)
        np.testing.assert_allclose(hs.h1[np.ix_(sel, sel)], dense,
                                   atol=1e-12)


def test_matvec_rejects_complex_input(rng):
    op = make_operator(num_particles=1, mb=7, mc=5, g=0.2, wc=2.3)
    v = rng.normal(size=(2, op.dim))
    for c in (v[0] + 1j * v[1], v.astype(np.complex128)):
        with pytest.raises(ConfigError):
            op.matvec(c)


ODD, EVEN = ParitySector.ODD, ParitySector.EVEN


@pytest.mark.parametrize("num_particles,mb,mc,g_B,sector", [
    pytest.param(1, 8, 5, 0.0, ODD, id="1-8-5"),
    pytest.param(2, 5, 7, 0.0, ODD, id="2-5-7"),
    pytest.param(2, 5, 7, -0.5, ODD, id="2-5-7-gB-0.5"),
    pytest.param(2, 6, 5, 3.0, ODD, id="2-6-5-gB3"),
    pytest.param(2, 5, 7, 0.0, EVEN, id="2-5-7-even"),
    pytest.param(2, 6, 5, -0.5, EVEN, id="2-6-5-gB-0.5-even"),
    pytest.param(3, 5, 4, 3.0, EVEN, id="3-5-4-gB3-even")])
def test_matvec_real_rows_match_dense(rng, num_particles, mb, mc, g_B,
                                      sector):
    op = make_operator(num_particles=num_particles, mb=mb, mc=mc, g=0.17,
                       wc=1.9, sector=sector, g_B=g_B)
    dense = op.dense()
    v = rng.normal(size=op.dim)
    got = op.matvec(v)
    assert got.dtype == np.float64 and got.shape == (op.dim,)
    np.testing.assert_allclose(got, dense @ v, rtol=0, atol=1e-12)
    for k in (1, 2, 3):
        block = rng.normal(size=(k, op.dim))
        for rows in (block, np.asfortranarray(block)):
            out = np.full((k, op.dim), np.nan)
            assert op.matvec(rows, out=out) is out
            for got in (op.matvec(rows), out):
                assert got.shape == (k, op.dim)
                np.testing.assert_allclose(got, block @ dense.T, rtol=0,
                                           atol=1e-12)


def test_matvec_rejects_unusable_out(rng):
    op = make_operator(mb=5, mc=5)
    rows = rng.normal(size=(2, op.dim))
    for out in (np.empty((3, op.dim)), np.empty(op.dim),
                np.empty((2, op.dim), order="F"),
                np.empty((2, op.dim), dtype=np.float32)):
        with pytest.raises(ConfigError):
            op.matvec(rows, out=out)


def test_initial_state_layout():
    states = enumerate_fock_states(2, 5)
    for sector, level in ((ParitySector.ODD, 1), (ParitySector.EVEN, 2)):
        op = make_operator(num_particles=2, mb=5, mc=5, sector=sector)
        psi = op.initial_state(charger_level=level)
        assert psi.dtype == np.float64
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
        bi, ci = op.pairs[int(np.argmax(np.abs(psi)))]
        assert tuple(states[bi]) == (2, 0, 0, 0, 0)
        assert ci == level


def test_operator_rejects_full_sector_and_wrong_parity_level():
    with pytest.raises(ConfigError):
        make_operator(mb=4, mc=4, sector=ParitySector.FULL)
    odd = make_operator(mb=4, mc=4)
    even = make_operator(mb=4, mc=4, sector=ParitySector.EVEN)
    for op, level in ((odd, 0), (odd, 2), (even, 1), (odd, 5), (odd, -1)):
        with pytest.raises(ConfigError):
            op.initial_state(level)


def test_stored_work_counts_battery_quanta():
    # (1, 0, 1, 0) with the charger in mode 0 has even total parity
    op = make_operator(num_particles=2, mb=4, mc=4, sector=ParitySector.EVEN)
    states = enumerate_fock_states(2, 4)
    target = states.index((1, 0, 1, 0))   # one particle in mode 2
    psi = np.zeros(op.dim, dtype=complex)
    psi[np.flatnonzero((op.pairs == (target, 0)).all(axis=1))] = 1.0
    assert op.stored_work(psi) == pytest.approx(2.0, abs=1e-13)


def test_chebyshev_matches_dense_evolution_both_directions():
    op = make_operator(num_particles=2, mb=6, mc=6, g=0.1, wc=1.02)
    dense = op.dense()
    vals, vecs = np.linalg.eigh(dense)
    psi0 = op.initial_state()
    bounds = spectral_bounds(op)
    for t in (17.0, -17.0):
        ref = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi0))
        psi = chebyshev_evolve(op, psi0, t, bounds=bounds)
        np.testing.assert_allclose(psi, ref, atol=1e-10)
    # forward then backward returns the start
    mid = chebyshev_evolve(op, psi0, 11.0, bounds=bounds)
    back = chebyshev_evolve(op, mid, -11.0, bounds=bounds)
    np.testing.assert_allclose(back, psi0, atol=1e-10)


def test_chebyshev_real_and_complex_starts_match_dense(rng):
    for g_B in (0.0, -0.5):
        op = make_operator(num_particles=2, mb=6, mc=5, g=0.1, wc=1.02,
                           g_B=g_B)
        vals, vecs = np.linalg.eigh(op.dense())
        real = op.initial_state()
        mixed = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        mixed /= np.linalg.norm(mixed)
        bounds = spectral_bounds(op)
        for psi0 in (real, real.astype(np.complex128), mixed):
            for t in (17.0, -17.0):
                ref = vecs @ (np.exp(-1j * vals * t) * (vecs.T @ psi0))
                psi = chebyshev_evolve(op, psi0, t, bounds=bounds)
                np.testing.assert_allclose(psi, ref, rtol=0, atol=1e-10)


def test_chebyshev_raises_on_bounds_too_tight():
    op = make_operator(num_particles=1, mb=5, mc=5)
    lo, hi = spectral_bounds(op)
    middle = (lo + 0.4 * (hi - lo), hi - 0.4 * (hi - lo))
    psi0 = op.initial_state()
    # the norm is off by 12 % at t = 2, 1e41 at t = 40 and nan at t = 400
    for t in (2.0, 40.0, 400.0):
        with pytest.raises(NumericalBreakdownError), \
                np.errstate(over="ignore", invalid="ignore"):
            chebyshev_evolve(op, psi0, t, middle)
    chebyshev_evolve(op, psi0, 2.0, (lo, hi))


def test_spectral_bounds_enclose_true_spectrum():
    op = make_operator(num_particles=2, mb=5, mc=5, g=0.15, wc=1.3)
    lo, hi = spectral_bounds(op)
    vals = np.linalg.eigvalsh(op.dense())
    assert lo <= vals[0]
    assert hi >= vals[-1]


def lanczos_ritz_range(dense, steps):
    """Extremal Ritz values of ``steps`` fully reorthogonalized Lanczos
    steps on a dense matrix, from spectral_bounds' start vector."""
    v = np.random.default_rng(1905).standard_normal(dense.shape[0])
    basis = [v / np.linalg.norm(v)]
    for _ in range(steps - 1):
        w = dense @ basis[-1]
        for _ in range(2):
            q = np.array(basis)
            w -= q.T @ (q @ w)
        basis.append(w / np.linalg.norm(w))
    q = np.array(basis)
    ritz = np.linalg.eigvalsh(q @ dense @ q.T)
    return ritz[0], ritz[-1]


@pytest.mark.parametrize("num_particles,mb,mc", [(1, 5, 5), (2, 7, 7)])
def test_spectral_bounds_make_one_matvec_per_lanczos_step(num_particles, mb,
                                                          mc):
    op = make_operator(num_particles=num_particles, mb=mb, mc=mc, g=0.15,
                       wc=1.3)
    dense = op.dense()
    calls = []
    matvec = op.matvec
    op.matvec = lambda psi: calls.append(1) or matvec(psi)
    lo, hi = spectral_bounds(op)
    steps = min(krylov._RITZ_STEPS, op.dim)
    assert len(calls) == steps
    ritz_lo, ritz_hi = lanczos_ritz_range(dense, steps)
    pad = krylov._RITZ_PAD * (ritz_hi - ritz_lo)
    np.testing.assert_allclose([lo, hi], [ritz_lo - pad, ritz_hi + pad],
                               rtol=0, atol=1e-9)


def test_work_series_matches_dense_pipeline():
    times = np.linspace(0.0, 40.0, 9)
    for sector, level in ((ParitySector.ODD, 1), (ParitySector.EVEN, 2)):
        cfg = SimulationConfig(num_particles=2, omega_C=2.9867, g_BC=0.1,
                               modes_battery=8, modes_charger=8, target_n=3,
                               charger_level=level, sector=sector)
        ref = QuenchSimulation(cfg).work_series(times)
        op = make_operator(num_particles=2, mb=8, mc=8, g=0.1, wc=2.9867,
                           sector=sector)
        got = propagate_work_series(op, times, level, method="chebyshev")
        np.testing.assert_allclose(got, ref, atol=1e-9)
        # one walk visits the same grid backwards, then jumps forward again
        work = work_walk(op, level)
        order = [8, 3, 2, 0, 7, 5]
        np.testing.assert_allclose([work(times[i]) for i in order],
                                   ref[order], atol=1e-9)


def test_work_walk_raises_on_energy_drift(monkeypatch):
    # a norm-preserving step that moves the state to another energy
    op = make_operator(mb=5, mc=5)
    monkeypatch.setattr(krylov, "chebyshev_evolve",
                        lambda op, psi, t, bounds: np.roll(psi, 1))
    work = work_walk(op, 1)
    with pytest.raises(NumericalBreakdownError):
        work(1.0)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(num_particles=st.sampled_from([1, 2]), mb=st.integers(4, 7),
       mc=st.integers(4, 7), g=st.floats(0.02, 0.5), wc=st.floats(0.5, 3.5),
       sector=st.sampled_from([ParitySector.ODD, ParitySector.EVEN]),
       g_B=st.sampled_from([0.0, -0.5, 3.0]))
def test_operator_agrees_with_odd_sector_pipeline(num_particles, mb, mc, g,
                                                  wc, sector, g_B):
    op = make_operator(num_particles=num_particles, mb=mb, mc=mc, g=g, wc=wc,
                       sector=sector, g_B=g_B)
    basis, sel = sector_basis_map(op, sector)
    # the operator's entries are the sector's pairs, each once
    np.testing.assert_array_equal(np.sort(sel), np.arange(basis.size))
    hs = build_hamiltonian_set(basis, g_B=g_B, g_BC=g)
    np.testing.assert_allclose(op.dense(), hs.h1[np.ix_(sel, sel)], rtol=0,
                               atol=1e-12)
    level = 1 if sector is ParitySector.ODD else 2
    sim = QuenchSimulation(SimulationConfig(
        num_particles=num_particles, omega_C=wc, g_BC=g, g_B=g_B,
        modes_battery=mb, modes_charger=mc, charger_level=level,
        sector=sector))
    times = np.linspace(0.0, 30.0, 7)
    np.testing.assert_allclose(propagate_work_series(op, times, level),
                               sim.work_series(times), rtol=0, atol=1e-9)


def test_operator_rejects_bad_counts_and_unknown_method():
    with pytest.raises(ConfigError):
        ProductSpaceOperator(num_particles=0, modes_battery=4,
                             modes_charger=4, g_BC=0.1)
    with pytest.raises(ConfigError):
        ProductSpaceOperator(num_particles=1, modes_battery=1,
                             modes_charger=4, g_BC=0.1)
    op = make_operator(mb=4, mc=4)
    for method in ("magic", "lanczos", "auto"):
        with pytest.raises(ConfigError):
            propagate_work_series(op, [0.0, 1.0], method=method)


def test_work_series_rejects_empty_grid():
    op = make_operator(mb=4, mc=4)
    with pytest.raises(ConfigError):
        propagate_work_series(op, [])


def test_bessel_table_matches_scipy():
    z = np.concatenate([[0.0, 1e-30, 1e-8, 0.3, -2.5, -40.0],
                        np.linspace(1.0, 1700.0, 40)])
    table = krylov._bessel_table(z)
    want = jv(np.arange(table.shape[0])[:, None], z[None, :])
    np.testing.assert_allclose(table, want, rtol=0, atol=1e-13)


def test_chebyshev_walk_matches_the_exact_propagator():
    op = ProductSpaceOperator(num_particles=2, modes_battery=6,
                              modes_charger=6, g_BC=0.3, g_B=-0.5,
                              omega_C=1.1)
    energies, vectors = np.linalg.eigh(op.dense())
    psi0 = op.initial_state(1)
    coeff = vectors.T @ psi0
    walk = ChebyshevWalk(op, psi0, spectral_bounds(op))
    # a sparse grid, a dense one, an extension, single times forward and
    # back from a checkpoint, and a batch that revisits early times
    for times in (np.linspace(0.0, 30.0, 81), np.linspace(0.0, 6.0, 256),
                  np.linspace(30.0, 60.0, 151), [12.345], [12.3], [59.99],
                  np.linspace(0.0, 60.0, 7)):
        times = np.asarray(times, dtype=float)
        predicted, before = walk.cost(times), walk.row_matvecs
        states = walk.states(times)
        exact = vectors @ (np.exp(-1j * np.outer(energies, times))
                           * coeff[:, None])
        np.testing.assert_allclose(states[:, 0] + 1j * states[:, 1],
                                   exact.T, rtol=0, atol=1e-11)
        # the plan's estimate and the tables' cut differ by a few terms
        assert abs(walk.row_matvecs - before - predicted) \
            <= 20 + 0.05 * predicted
