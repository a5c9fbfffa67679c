"""The in-place dsyevd eigensolver against np.linalg.eigh."""

import functools
import threading

import numpy as np
import pytest

from qbattery import lapack
from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis)
from qbattery.dynamics import (QuenchSimulation, SimulationConfig,
                               SpectralDecomposition)
from qbattery.hamiltonian import build_hamiltonian_set


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def sector_h1(num_particles=2, modes=12, g_B=0.0):
    battery = SpeciesConfig(Species.BATTERY, 1.0, modes, num_particles)
    charger = SpeciesConfig(Species.CHARGER, 3.1, modes, 1)
    basis = build_composite_basis(battery, charger, ParitySector.ODD)
    return build_hamiltonian_set(basis, g_B, 0.1).h1


def assert_matches_numpy(h):
    energies, vectors = np.linalg.eigh(h)
    buffer = h.copy()
    spectral = SpectralDecomposition.from_matrix(buffer)
    assert spectral.vectors is buffer
    assert np.array_equal(spectral.energies, energies)
    assert np.array_equal(spectral.vectors, vectors)


@pytest.mark.parametrize("n", [1, 2, 255, 300])
def test_from_matrix_bit_identical_on_random_symmetric(rng, n):
    # 300 spans two transpose tiles, with a ragged last one
    assert_matches_numpy(random_symmetric(rng, n))


@pytest.mark.parametrize("g_B", [0.0, -0.5])
def test_from_matrix_bit_identical_on_sector_h1(g_B):
    h1 = sector_h1(g_B=g_B)
    assert len(h1) == 468
    assert_matches_numpy(h1)


def test_two_threads_solve_at_once(rng):
    matrices = [random_symmetric(rng, 400) for _ in range(2)]
    results = [None, None]

    def solve(k):
        buffer = matrices[k].copy()
        results[k] = (lapack.eigh_in_place(buffer), buffer)

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for h, (energies, vectors) in zip(matrices, results):
        want_energies, want_vectors = np.linalg.eigh(h)
        assert np.array_equal(energies, want_energies)
        assert np.array_equal(vectors, want_vectors)


def test_scipy_pointer_when_numpy_lapack_is_not_found(rng, monkeypatch):
    monkeypatch.setattr(lapack, "_numpy_dsyevd", lambda: None)
    monkeypatch.setattr(lapack, "_dsyevd",
                        functools.cache(lapack._dsyevd.__wrapped__))
    monkeypatch.setattr(lapack, "workspace",
                        functools.cache(lapack.workspace.__wrapped__))
    assert lapack._dsyevd()[1] is np.intc
    h = random_symmetric(rng, 300)
    buffer = h.copy()
    energies = lapack.eigh_in_place(buffer)
    np.testing.assert_allclose(energies, np.linalg.eigvalsh(h), atol=1e-11)
    np.testing.assert_allclose(h @ buffer, buffer * energies, atol=1e-10)
    np.testing.assert_allclose(buffer.T @ buffer, np.eye(300), atol=1e-12)


def test_rejects_arrays_it_cannot_overwrite():
    h = np.eye(4)
    for bad in (np.asfortranarray(h[:, ::-1]), h.astype(np.float32),
                np.ones((3, 4))):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            lapack.eigh_in_place(bad)


def test_solve_bytes_counts_matrix_and_workspace():
    n = 500
    lwork, liwork = lapack.workspace(n)
    # dsyevd's documented minimum for jobz = "V"
    assert lwork >= 1 + 6 * n + 2 * n * n and liwork >= 3 + 5 * n
    assert lapack.solve_bytes(n) >= 8 * n * n + 8 * lwork + 4 * liwork


def test_workspace_is_queried_once_per_size(monkeypatch):
    calls = []
    real_call = lapack._call

    def counted(*args):
        calls.append(args[4])   # lwork: -1 marks a workspace query
        return real_call(*args)

    monkeypatch.setattr(lapack, "_call", counted)
    lapack.workspace.cache_clear()
    for _ in range(2):
        QuenchSimulation(SimulationConfig(
            num_particles=2, omega_C=3.1, g_BC=0.1, modes_battery=8,
            modes_charger=8, target_n=3))
    # check_memory and eigh_in_place share one query; then one solve each
    assert calls[0] == -1 and len(calls) == 3
    assert all(lwork > 0 for lwork in calls[1:])
