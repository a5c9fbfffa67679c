"""Mode functions, Fock enumeration, and parity-sector bookkeeping."""

import math

import numpy as np
import pytest

from qbattery.basis import (DEFAULT_BASIS_CAP, CompositeBasis, ParitySector,
                            Species, SpeciesConfig, build_composite_basis,
                            enumerate_fock_states, fock_dimension,
                            fock_parity, hermite_mode_values)
from qbattery.errors import ConfigError


def test_lowest_modes_match_closed_forms():
    x = np.linspace(-3.0, 3.0, 41)
    for omega in (1.0, 0.5, 2.7):
        vals = hermite_mode_values(2, omega, x)
        gauss = (omega / np.pi) ** 0.25 * np.exp(-0.5 * omega * x * x)
        np.testing.assert_allclose(vals[0], gauss, atol=1e-14)
        np.testing.assert_allclose(vals[1],
                                   np.sqrt(2.0 * omega) * x * gauss,
                                   atol=1e-14)
        herm2 = (2.0 * omega * x * x - 1.0) / math.sqrt(2.0)
        np.testing.assert_allclose(vals[2], herm2 * gauss, atol=1e-13)


def test_modes_orthonormal_under_quadrature():
    # Gauss-Hermite with enough nodes integrates phi_i phi_j exactly.
    # A product of two bare modes shares the Gaussian exp(-omega x^2);
    # raw weights live on the unit-width node axis, so the change of
    # variable to x = t / sqrt(omega) contributes one 1/sqrt factor.
    from qbattery.integrals import gauss_hermite_rule
    omega = 1.3
    n_max = 7
    rule = gauss_hermite_rule(2 * n_max, omega)
    vals = hermite_mode_values(n_max, omega, rule.positions,
                               bare_polynomial=True)
    gram = np.einsum("q,iq,jq->ij", rule.weights, vals, vals)
    gram /= math.sqrt(omega)
    np.testing.assert_allclose(gram, np.eye(n_max + 1), atol=1e-12)


def test_bare_polynomial_factors_out_gaussian():
    x = np.linspace(-2.0, 2.0, 17)
    omega = 0.9
    full = hermite_mode_values(4, omega, x)
    bare = hermite_mode_values(4, omega, x, bare_polynomial=True)
    gauss = np.exp(-0.5 * omega * x * x)
    np.testing.assert_allclose(bare * gauss, full, atol=1e-13)


def test_fock_dimension_binomial():
    for n, m in [(1, 5), (2, 12), (3, 12), (4, 7)]:
        assert fock_dimension(n, m) == math.comb(n + m - 1, n)


def test_enumerate_fock_states_counts_and_order():
    states = enumerate_fock_states(2, 4)
    assert len(states) == fock_dimension(2, 4)
    # all states unique, all sum to N
    seen = set()
    for s in states:
        assert sum(s) == 2
        assert len(s) == 4
        assert s not in seen
        seen.add(s)
    # enumeration is deterministic
    assert states == enumerate_fock_states(2, 4)


def test_enumerate_fock_states_respects_cap():
    with pytest.raises(ConfigError):
        enumerate_fock_states(10, 40, cap=1000)
    assert len(enumerate_fock_states(1, 4, cap=DEFAULT_BASIS_CAP)) == 4


def test_fock_parity_signs():
    # spatial parity (-1)^(sum_j j n_j)
    assert fock_parity((2, 0, 0)) == +1     # both particles even
    assert fock_parity((1, 1, 0)) == -1     # one quantum in mode 1
    assert fock_parity((0, 0, 2)) == +1     # 2*2 quanta
    assert fock_parity((0, 1, 1, 1)) == +1  # 1+2+3 = 6 quanta
    assert fock_parity((0, 0, 0, 1)) == -1  # 3 quanta


def test_composite_basis_odd_sector_partition():
    battery = SpeciesConfig(Species.BATTERY, omega=1.0, num_modes=6,
                            num_particles=2)
    charger = SpeciesConfig(Species.CHARGER, omega=1.0, num_modes=6,
                            num_particles=1)
    odd = build_composite_basis(battery, charger, ParitySector.ODD)
    even = build_composite_basis(battery, charger, ParitySector.EVEN)
    full_size = fock_dimension(2, 6) * 6
    assert odd.size + even.size == full_size
    # total parity = product of species parities
    for bi, ci in odd.kept_pairs:
        prod = (fock_parity(odd.battery_states[bi])
                * fock_parity(odd.charger_states[ci]))
        assert prod == -1
    for bi, ci in even.kept_pairs:
        prod = (fock_parity(even.battery_states[bi])
                * fock_parity(even.charger_states[ci]))
        assert prod == +1


def test_index_matrix_round_trip():
    battery = SpeciesConfig(Species.BATTERY, omega=1.0, num_modes=5,
                            num_particles=2)
    charger = SpeciesConfig(Species.CHARGER, omega=1.0, num_modes=5,
                            num_particles=1)
    basis = build_composite_basis(battery, charger, ParitySector.ODD)
    for k, (bi, c) in enumerate(basis.kept_pairs):
        assert basis.index_matrix[bi, c] == k
    # pairs outside the sector are absent
    assert (basis.index_matrix >= 0).sum() == basis.size


def test_species_config_validation():
    with pytest.raises(ConfigError):
        SpeciesConfig(Species.BATTERY, omega=-1.0, num_modes=4,
                      num_particles=1)
    with pytest.raises(ConfigError):
        SpeciesConfig(Species.BATTERY, omega=1.0, num_modes=0,
                      num_particles=1)
    with pytest.raises(ConfigError):
        SpeciesConfig(Species.CHARGER, omega=1.0, num_modes=4,
                      num_particles=2)  # charger holds one particle


def test_basis_cap_applies_to_composite():
    battery = SpeciesConfig(Species.BATTERY, omega=1.0, num_modes=8,
                            num_particles=3)
    charger = SpeciesConfig(Species.CHARGER, omega=1.0, num_modes=8,
                            num_particles=1)
    with pytest.raises(ConfigError):
        build_composite_basis(battery, charger, ParitySector.ODD, cap=100)
