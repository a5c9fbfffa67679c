"""The in-place dsyevd eigensolver against np.linalg.eigh."""

import functools
import threading

import numpy as np
import pytest

from qbattery import experiments, lapack
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


class FakeBlasThreads:
    """Stands in for OpenBLAS's thread-count getter and setter, recording
    each call with the thread that made it."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def get(self):
        self.calls.append(("get", None, threading.get_ident()))
        return self.count

    def set(self, count):
        self.calls.append(("set", count, threading.get_ident()))
        self.count = count


@pytest.fixture
def fake_blas(monkeypatch):
    def install(count, cores):
        fake = FakeBlasThreads(count)
        monkeypatch.setattr(lapack, "_blas_threads",
                            lambda: (fake.get, fake.set))
        monkeypatch.setattr(lapack, "cores", lambda: cores)
        return fake
    return install


@pytest.mark.parametrize("count, cores, workers, during", [
    (2, 2, 2, 1),     # one BLAS thread per worker on two cores
    (2, 2, 4, 1),     # cores // workers = 0 still leaves one thread
    (4, 8, 2, 4),     # four cores per worker, and four threads allowed
    (2, 8, 2, 2),     # never above the count the user set
    (1, 2, 2, 1),
])
def test_pool_budget_set_once_from_the_caller(fake_blas, count, cores,
                                              workers, during):
    fake = fake_blas(count, cores)
    seen = experiments._indexed_map(lambda _: fake.count, range(6), workers)
    caller = threading.get_ident()
    assert seen == [(during, "")] * 6
    assert fake.calls == [("get", None, caller), ("set", during, caller),
                          ("set", count, caller)]
    assert fake.count == count


def test_pool_budget_restored_when_an_item_raises(fake_blas):
    class Stop(BaseException):
        """Escapes the per-item isolation, so it leaves the pool."""

    def item(k):
        if k == 1:
            raise ValueError("isolated")
        if k == 3:
            raise Stop
        return k

    fake = fake_blas(2, 2)
    rows = experiments._indexed_map(item, [0, 1, 2], 2)
    assert rows[1] == (None, "ValueError: isolated") and fake.count == 2
    with pytest.raises(Stop):
        experiments._indexed_map(item, [0, 3, 2], 2)
    assert fake.count == 2
    assert [call[:2] for call in fake.calls] == [
        ("get", None), ("set", 1), ("set", 2)] * 2


def test_serial_maps_leave_the_blas_count_alone(fake_blas):
    fake = fake_blas(2, 2)
    assert experiments._indexed_map(lambda k: k, [0, 1], 1) == [(0, ""),
                                                                (1, "")]
    assert experiments._indexed_map(lambda k: k, [0], 4) == [(0, "")]
    assert fake.calls == []


def test_map_nested_in_a_worker_runs_in_its_thread(fake_blas):
    fake = fake_blas(2, 2)

    def outer(k):
        home = threading.get_ident()
        inner = experiments._indexed_map(
            lambda _: (threading.get_ident(), lapack.pool_size()), [0, 1], 2)
        return home, [result for result, _ in inner]

    rows = experiments._indexed_map(outer, [0, 1, 2], 3)
    for (home, inner), err in rows:
        assert err == "" and home != threading.get_ident()
        # the inner map keeps the outer pool's size for the memory guard
        assert inner == [(home, 3), (home, 3)]
    assert [call[:2] for call in fake.calls] == [
        ("get", None), ("set", 1), ("set", 2)]
    assert lapack.pool_size() == 1


def test_missing_thread_symbols_make_the_budget_a_no_op(monkeypatch):
    monkeypatch.setattr(lapack, "_numpy_scope", lambda: object())
    monkeypatch.setattr(lapack, "_blas_threads",
                        functools.cache(lapack._blas_threads.__wrapped__))
    assert lapack._blas_threads() is None
    with lapack.blas_thread_budget(2):
        pass
    assert experiments._indexed_map(lambda k: 2 * k, [1, 2], 2) == [
        (2, ""), (4, "")]


def test_pool_restores_the_real_blas_count():
    symbols = lapack._blas_threads()
    if symbols is None:
        pytest.skip("numpy's BLAS exports no thread-count symbols")
    get, _ = symbols
    before = get()
    seen = experiments._indexed_map(lambda _: get(), range(4), 2)
    assert seen == [(max(1, min(before, lapack.cores() // 2)), "")] * 4
    assert get() == before
