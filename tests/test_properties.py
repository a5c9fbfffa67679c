"""Properties of the dense pipeline over small random configurations."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import thermo
from qbattery.basis import ParitySector
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import HorizonWarning, NoTransferError
from qbattery.hamiltonian import composite_parity_vector

configs = st.builds(
    SimulationConfig,
    num_particles=st.sampled_from([1, 2]),
    omega_C=st.floats(0.6, 3.4),
    g_BC=st.floats(0.02, 0.3),
    g_B=st.sampled_from([0.0, 0.4, -0.4]),
    modes_battery=st.integers(4, 7),
    modes_charger=st.integers(4, 7),
    sector=st.just(ParitySector.FULL),
    target_n=st.just(1))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(cfg=configs, times=st.lists(st.floats(0.0, 200.0), min_size=1,
                                   max_size=8))
def test_full_sector_run_keeps_parity_norm_and_ergotropy_bounds(cfg, times):
    sim = QuenchSimulation(cfg)
    times = np.array(times)
    psi = sim.states_at(times)
    parity = composite_parity_vector(sim.basis)
    start = parity[sim.state0 != 0]
    assert np.all(start == start[0])
    # H1 has exact zeros between the parities, but the eigensolver mixes
    # near-degenerate levels of opposite parity at round-off level; over
    # 150 random configs and t <= 200 the largest such amplitude was 2e-13
    assert np.abs(psi[parity != start[0]]).max(initial=0.0) <= 1e-11
    np.testing.assert_allclose(np.linalg.norm(psi, axis=0), 1.0, rtol=0,
                               atol=1e-12)
    series = sim.series(times)
    # ergotropy is a difference of two spectral sums: allow its round-off
    assert np.all(series.ergotropy >= -1e-12)
    assert np.all(series.ergotropy <= series.stored_work + 1e-9)


def outcome(search):
    """(t_max, W_B) of a t_max search, or the error it raised."""
    try:
        s = search()
    except NoTransferError as exc:
        return str(exc)
    return s.t_max, s.stored_work


@settings(derandomize=True, deadline=None, max_examples=30)
@given(cfg=configs)
def test_pruned_t_max_search_matches_the_full_grid(cfg):
    sim = QuenchSimulation(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        pruned = outcome(sim.summarize)
        full = outcome(lambda: thermo.find_t_max(sim.work_series,
                                                 sim._horizon()))
    assert pruned == full
