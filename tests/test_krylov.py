"""Matrix-free propagation against the dense pipeline."""

import numpy as np
import pytest

from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis, enumerate_fock_states)
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import ConfigError, NumericalBreakdownError
from qbattery.hamiltonian import build_hamiltonian_set
from qbattery.krylov import (LanczosPropagator, ProductSpaceOperator,
                             chebyshev_evolve, propagate_work_series,
                             spectral_bounds)


def make_operator(num_particles=2, mb=6, mc=6, g=0.1, wc=1.0):
    return ProductSpaceOperator(num_particles=num_particles,
                                modes_battery=mb, modes_charger=mc,
                                g_BC=g, omega_C=wc)


def full_basis_map(op):
    """Map composite FULL-sector pairs onto the operator's layout."""
    battery = SpeciesConfig(Species.BATTERY, 1.0, op.modes_battery,
                            op.num_particles)
    charger = SpeciesConfig(Species.CHARGER, op.omega_C, op.modes_charger, 1)
    basis = build_composite_basis(battery, charger, ParitySector.FULL)
    sel = np.array([bi * op.modes_charger + ci
                    for bi, ci in basis.kept_pairs])
    return basis, sel


def test_dense_matches_assembled_hamiltonian():
    op = make_operator(num_particles=2, mb=5, mc=5, g=0.13, wc=1.7)
    dense = op.dense()
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)
    basis, sel = full_basis_map(op)
    hs = build_hamiltonian_set(basis, g_B=0.0, g_BC=0.13)
    np.testing.assert_allclose(dense[np.ix_(sel, sel)], hs.h1, atol=1e-12)


def test_matvec_matches_dense(rng):
    op = make_operator(num_particles=1, mb=7, mc=5, g=0.2, wc=2.3)
    dense = op.dense()
    for _ in range(4):
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        np.testing.assert_allclose(op.matvec(v), dense @ v, atol=1e-12)


@pytest.mark.parametrize("num_particles,mb,mc", [(1, 8, 5), (2, 5, 7)])
def test_matvec_real_rows_match_dense(rng, num_particles, mb, mc):
    op = make_operator(num_particles=num_particles, mb=mb, mc=mc, g=0.17,
                       wc=1.9)
    dense = op.dense()
    v = rng.normal(size=op.dim)
    got = op.matvec(v)
    assert got.dtype == np.float64 and got.shape == (op.dim,)
    np.testing.assert_allclose(got, dense @ v, rtol=0, atol=1e-12)
    block = rng.normal(size=(3, op.dim))
    got = op.matvec(block)
    assert got.shape == (3, op.dim)
    np.testing.assert_allclose(got, block @ dense.T, rtol=0, atol=1e-12)
    c = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    got = op.matvec(c)
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, dense @ c, rtol=0, atol=1e-12)
    cblock = block[:2] + 1j * block[1:]
    np.testing.assert_allclose(op.matvec(cblock), cblock @ dense.T, rtol=0,
                               atol=1e-12)


def test_initial_state_layout():
    op = make_operator(num_particles=2, mb=5, mc=5)
    psi = op.initial_state(charger_level=1)
    assert psi.dtype == np.float64
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
    k = int(np.argmax(np.abs(psi)))
    bi, ci = divmod(k, op.modes_charger)
    states = enumerate_fock_states(2, 5)
    assert tuple(states[bi]) == (2, 0, 0, 0, 0)
    assert ci == 1


def test_stored_work_counts_battery_quanta():
    op = make_operator(num_particles=2, mb=4, mc=4)
    states = enumerate_fock_states(2, 4)
    target = states.index((1, 0, 1, 0))   # one particle in mode 2
    psi = np.zeros(op.dim, dtype=complex)
    psi[target * op.modes_charger + 0] = 1.0
    assert op.stored_work(psi) == pytest.approx(2.0, abs=1e-13)


def test_lanczos_matches_dense_evolution(rng):
    op = make_operator(num_particles=2, mb=6, mc=6, g=0.1, wc=0.97)
    dense = op.dense()
    vals, vecs = np.linalg.eigh(dense)
    psi0 = op.initial_state()
    prop = LanczosPropagator(op)
    for t in (3.0, 25.0):
        ref = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ psi0))
        psi = prop.evolve(psi0, t)
        np.testing.assert_allclose(psi, ref, atol=1e-9)


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
    op = make_operator(num_particles=2, mb=6, mc=5, g=0.1, wc=1.02)
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


def test_lanczos_norm_drift_raises():
    class Leaky(LanczosPropagator):
        def step(self, psi, dt):
            out, info = super().step(psi, dt)
            return (None if out is None else out * (1.0 + 1e-6)), info

    op = make_operator(num_particles=1, mb=5, mc=5)
    with pytest.raises(NumericalBreakdownError):
        Leaky(op).evolve(op.initial_state(), 2.0)
    LanczosPropagator(op).evolve(op.initial_state(), 2.0)


def test_spectral_bounds_enclose_true_spectrum():
    op = make_operator(num_particles=2, mb=5, mc=5, g=0.15, wc=1.3)
    lo, hi = spectral_bounds(op)
    vals = np.linalg.eigvalsh(op.dense())
    assert lo <= vals[0]
    assert hi >= vals[-1]


def test_work_series_matches_dense_pipeline():
    cfg = SimulationConfig(num_particles=2, omega_C=2.9867, g_BC=0.1,
                           modes_battery=8, modes_charger=8, target_n=3)
    sim = QuenchSimulation(cfg)
    times = np.linspace(0.0, 40.0, 9)
    ref = sim.work_series(times)
    op = make_operator(num_particles=2, mb=8, mc=8, g=0.1, wc=2.9867)
    for method in ("lanczos", "chebyshev"):
        got = propagate_work_series(op, times, method=method)
        np.testing.assert_allclose(got, ref, atol=1e-9)


def test_operator_rejects_interacting_battery_misuse():
    with pytest.raises(ConfigError):
        ProductSpaceOperator(num_particles=0, modes_battery=4,
                             modes_charger=4, g_BC=0.1)
    with pytest.raises(ConfigError):
        ProductSpaceOperator(num_particles=1, modes_battery=1,
                             modes_charger=4, g_BC=0.1)
    op = make_operator(mb=4, mc=4)
    with pytest.raises(ConfigError):
        propagate_work_series(op, [0.0, 1.0], method="magic")


def test_work_series_rejects_empty_grid():
    op = make_operator(mb=4, mc=4)
    with pytest.raises(ConfigError):
        propagate_work_series(op, [])
