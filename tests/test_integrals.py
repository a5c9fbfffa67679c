"""Contact integrals and mode overlaps against independent references.

The reference values below were produced with adaptive quadrature
(scipy.integrate.quad) over products of normalized oscillator
eigenfunctions, then frozen. The package itself never calls quad.
"""

import math

import numpy as np
import pytest

from qbattery.errors import ConfigError
from qbattery.integrals import (contact_tensor, fermionic_overlap,
                                gauss_hermite_rule, one_body_energy,
                                overlap_I00, overlap_I01, overlap_In,
                                overlap_In0, overlap_set, two_body_contact)

# (i, j, k, l, omega_a, omega_b) -> adaptive-quadrature value
CONTACT_ORACLES = {
    (0, 1, 0, 1, 1.0, 3.0): 0.366451883927,
    (2, 1, 4, 3, 1.0, 0.9867): 0.052498035638,
    (0, 3, 0, 3, 1.0, 2.9867): 0.239854818280,
    (3, 0, 1, 0, 1.7, 0.3): -0.044488828327,
    (1, 1, 1, 1, 0.5, 0.5): 0.211571093830,
    (5, 0, 5, 0, 1.0, 9.1): 0.067630494061,
    (0, 1, 3, 2, 2.5, 1.0): 0.083756831222,
}


def test_contact_against_adaptive_quadrature():
    for (i, j, k, l, wa, wb), ref in CONTACT_ORACLES.items():
        val = two_body_contact(i, j, k, l, wa, wb)
        assert val == pytest.approx(ref, abs=5e-12)


def test_contact_parity_zero_is_exact():
    # odd total Hermite index -> integrand is odd -> exactly zero
    assert two_body_contact(0, 0, 0, 1, 1.0, 2.0) == 0.0
    assert two_body_contact(1, 2, 3, 5, 0.7, 1.9) == 0.0
    assert two_body_contact(2, 2, 2, 1, 1.0, 1.0) == 0.0


def test_contact_index_symmetries(rng):
    # U_{ijkl} = U_{kjil} = U_{ilkj} (within-species exchange) and the
    # species swap U_{ijkl}(wa, wb) = U_{jilk}(wb, wa)
    for _ in range(12):
        i, j, k, l = (int(v) for v in rng.integers(0, 6, size=4))
        wa, wb = (float(v) for v in rng.uniform(0.3, 3.0, size=2))
        base = two_body_contact(i, j, k, l, wa, wb)
        assert two_body_contact(k, j, i, l, wa, wb) == pytest.approx(
            base, abs=1e-15)
        assert two_body_contact(i, l, k, j, wa, wb) == pytest.approx(
            base, abs=1e-15)
        assert two_body_contact(j, i, l, k, wb, wa) == pytest.approx(
            base, abs=1e-14)


def test_contact_tensor_matches_elementwise():
    # indices i, k run over species a; j, l over species b
    wa, wb = 1.0, 2.2
    tensor = contact_tensor(3, 4, wa, wb)
    assert tensor.shape == (3, 4, 3, 4)
    for i in range(3):
        for j in range(4):
            for k in range(3):
                for l in range(4):
                    assert tensor[i, j, k, l] == pytest.approx(
                        two_body_contact(i, j, k, l, wa, wb), abs=1e-14)


def test_equal_frequency_ground_contact_closed_form():
    for omega in (0.5, 1.0, 3.3):
        want = math.sqrt(omega / (2.0 * math.pi))
        assert two_body_contact(0, 0, 0, 0, omega, omega) == pytest.approx(
            want, abs=1e-14)


OVERLAP_ORACLES = [
    # (fn, args, quad value)
    (overlap_I00, (1.0, 1.0), 0.3989422804014327),
    (overlap_I01, (1.0, 1.0), 0.19947114020071632),
    (overlap_I00, (1.0, 2.9867), 0.488330765805),
    (overlap_I01, (1.0, 2.9867), 0.365840795201),
    (overlap_In, (3, 1.0, 1.0), -0.12215062797572998),
    (overlap_In, (5, 1.0, 1.0), 0.06828427691200499),
    (overlap_In, (7, 1.0, 1.0), -0.036877724370),
    (overlap_In, (9, 1.0, 1.0), 0.019557366733),
    (overlap_In, (1, 1.0, 2.9867), 0.211688044655),
    (overlap_In, (3, 1.0, 2.9867), -0.194231653225),
    (overlap_In, (5, 1.0, 2.9867), 0.162687078045),
    (overlap_In, (7, 1.0, 2.9867), -0.131645039655),
    (overlap_In, (9, 1.0, 2.9867), 0.104606532590),
    (overlap_In0, (1, 1.0, 1.0), 0.199471140201),
    (overlap_In0, (3, 1.0, 1.0), 0.124669462625),
    (overlap_In0, (5, 1.0, 1.0), 0.098177201818),
    (overlap_In0, (7, 1.0, 1.0), 0.083567499166),
    (overlap_In0, (9, 1.0, 1.0), 0.073992056553),
]


def test_overlaps_against_adaptive_quadrature():
    for fn, args, ref in OVERLAP_ORACLES:
        assert fn(*args) == pytest.approx(ref, abs=5e-12)


def test_overlap_In_matches_contact_integral():
    # In is U_{n100} up to index placement: battery (n,0), charger (1,0)
    for n in (1, 3, 5, 9):
        for wc in (1.0, 2.9867, 5.1):
            assert overlap_In(n, 1.0, wc) == pytest.approx(
                two_body_contact(n, 1, 0, 0, 1.0, wc), abs=1e-13)


def test_overlap_In_even_is_zero():
    assert overlap_In(2, 1.0, 1.7) == 0.0
    assert overlap_In(4, 1.0, 0.4) == 0.0


def test_overlap_In0_closed_forms_match_quadrature_branch():
    # n <= 9 uses polynomial closed forms; n = 11 falls back to quadrature.
    for n in (1, 3, 5, 7, 9):
        poly = overlap_In0(n, 1.0, 2.3)
        quadr = two_body_contact(n, 0, n, 0, 1.0, 2.3)
        assert poly == pytest.approx(quadr, abs=1e-13)
    assert overlap_In0(11, 1.0, 1.0) == pytest.approx(
        two_body_contact(11, 0, 11, 0, 1.0, 1.0), abs=1e-14)


def test_transfer_overlap_decays_with_n():
    # at the bare resonance omega_C = n the magnitude |I_n| decreases
    # while n |I_n| increases
    mags = [abs(overlap_In(n, 1.0, float(n))) for n in (1, 3, 5, 7, 9)]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    weighted = [n * m for n, m in zip((1, 3, 5, 7, 9), mags)]
    assert all(a < b for a, b in zip(weighted, weighted[1:]))


FERMI_ORACLES = [
    ((2, 1, 1.0, 1.0), 0.070523697943),
    ((2, 3, 1.0, 3.0), -0.024292557385),
    ((5, 3, 1.0, 3.0), -0.036490570295),
]


def test_fermionic_overlap_against_quadrature():
    for args, ref in FERMI_ORACLES:
        assert fermionic_overlap(*args) == pytest.approx(ref, abs=5e-12)


def test_overlap_set_bundles_components():
    s = overlap_set(3, 1.0, 2.9867)
    assert s.n == 3
    assert s.I00 == overlap_I00(1.0, 2.9867)
    assert s.I01 == overlap_I01(1.0, 2.9867)
    assert s.In0 == overlap_In0(3, 1.0, 2.9867)
    assert s.In == overlap_In(3, 1.0, 2.9867)


def test_one_body_energy():
    assert one_body_energy(1.0, 0) == 0.5
    assert one_body_energy(2.0, 3) == 7.0


def test_argument_validation():
    with pytest.raises(ConfigError):
        overlap_In(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        overlap_In0(-1, 1.0, 1.0)
    with pytest.raises(ConfigError):
        fermionic_overlap(0, 1, 1.0, 1.0)
    with pytest.raises(ConfigError):
        gauss_hermite_rule(4, 0.0)
