"""Contact-interaction integrals over oscillator eigenfunctions.

Every interaction matrix element reduces to integrals of products of four
real oscillator eigenfunctions,

    U_{ijkl} = int psi_i(x) psi_j(x) psi_k(x) psi_l(x) dx,

where (i, k) share one trap frequency and (j, l) another. The integrand is
a polynomial times exp(-(omega_a + omega_b) x^2), so Gauss-Hermite
quadrature with enough nodes is exact up to round-off.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .basis import hermite_mode_values
from .errors import ConfigError

QUADRATURE_PAD = 8


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights plus the Gaussian width they serve."""

    nodes: np.ndarray
    weights: np.ndarray
    total_width: float

    @property
    def positions(self):
        """Physical positions x = t / sqrt(total_width)."""
        return self.nodes / math.sqrt(self.total_width)


_rule_cache = {}
_rule_lock = threading.Lock()


def gauss_hermite_rule(max_degree, total_width):
    """Rule exact for polynomial degree max_degree under exp(-width x^2).

    Node count ceil(degree/2) + 1, padded by a fixed margin so small
    bookkeeping errors in the degree estimate stay harmless.
    """
    if total_width <= 0:
        raise ConfigError("total Gaussian width must be positive")
    npoints = max(1, math.ceil(max_degree / 2) + 1) + QUADRATURE_PAD
    with _rule_lock:
        cached = _rule_cache.get(npoints)
    if cached is None:
        cached = np.polynomial.hermite.hermgauss(npoints)
        with _rule_lock:
            _rule_cache[npoints] = cached
    nodes, weights = cached
    return QuadratureRule(nodes=nodes, weights=weights, total_width=total_width)


def one_body_energy(omega, i):
    """Oscillator single-particle energy (i + 1/2) omega."""
    if i < 0:
        raise ConfigError("mode index must be >= 0")
    return (i + 0.5) * omega


def two_body_contact(i, j, k, l, omega_a, omega_b):
    """Contact integral of psi_i psi_j psi_k psi_l; (i, k) at omega_a.

    Odd total index parity gives an odd integrand, hence an exact zero.
    """
    for idx in (i, j, k, l):
        if idx < 0:
            raise ConfigError("mode indices must be >= 0")
    if omega_a <= 0 or omega_b <= 0:
        raise ConfigError("frequencies must be positive")
    if (i + j + k + l) % 2:
        return 0.0
    total = omega_a + omega_b
    rule = gauss_hermite_rule(i + j + k + l, total)
    x = rule.positions
    pa = hermite_mode_values(max(i, k), 1.0, math.sqrt(omega_a) * x,
                             bare_polynomial=True)
    pb = hermite_mode_values(max(j, l), 1.0, math.sqrt(omega_b) * x,
                             bare_polynomial=True)
    return float(
        math.sqrt(omega_a * omega_b / total)
        * np.dot(rule.weights, pa[i] * pa[k] * pb[j] * pb[l])
    )


def contact_tensor(modes_a, modes_b, omega_a, omega_b):
    """Dense U[i, j, k, l] table for all modes below the two cutoffs.

    Built in one vectorized quadrature pass; entries with odd total index
    parity are zeroed exactly. The (i<->k) and (j<->l) symmetries hold to
    the bit because the node products are shared.  No pipeline stage
    calls it.
    """
    total = omega_a + omega_b
    max_degree = 2 * (modes_a - 1) + 2 * (modes_b - 1)
    rule = gauss_hermite_rule(max_degree, total)
    x = rule.positions
    pa = hermite_mode_values(modes_a - 1, 1.0, math.sqrt(omega_a) * x,
                             bare_polynomial=True)
    pb = hermite_mode_values(modes_b - 1, 1.0, math.sqrt(omega_b) * x,
                             bare_polynomial=True)
    pairs_a = pa[:, None, :] * pa[None, :, :]          # (i, k, q)
    pairs_b = pb[:, None, :] * pb[None, :, :]          # (j, l, q)
    qa = pairs_a.reshape(modes_a * modes_a, -1)
    qb = pairs_b.reshape(modes_b * modes_b, -1) * rule.weights
    flat = qa @ qb.T                                    # (ik, jl)
    tensor = (
        math.sqrt(omega_a * omega_b / total)
        * flat.reshape(modes_a, modes_a, modes_b, modes_b)
    ).transpose(0, 2, 1, 3)                             # -> (i, j, k, l)

    idx_a = np.arange(modes_a)
    idx_b = np.arange(modes_b)
    parity = (idx_a[:, None, None, None] + idx_b[None, :, None, None]
              + idx_a[None, None, :, None] + idx_b[None, None, None, :]) % 2
    tensor[parity == 1] = 0.0
    return tensor


def contact_nodes(modes_a, modes_b, omega_a, omega_b):
    """Node factors of the contact integrals below two mode cutoffs.

    Returns (w, pa, pb) with U_{ijkl} = sum_q w[q] pa[i, q] pb[j, q]
    pa[k, q] pb[l, q], exact on the rule contact_tensor uses.  pa and pb
    are bare-polynomial mode values, shapes (modes_a, Q) and (modes_b, Q):
    the shared Gaussian envelope is the Gauss-Hermite weight.
    """
    total = omega_a + omega_b
    rule = gauss_hermite_rule(2 * (modes_a - 1) + 2 * (modes_b - 1), total)
    x = rule.positions
    return (rule.weights / np.sqrt(total),
            hermite_mode_values(modes_a - 1, omega_a, x, bare_polynomial=True),
            hermite_mode_values(modes_b - 1, omega_b, x, bare_polynomial=True))


def overlap_I00(omega_B, omega_C):
    """int phi_0^2 phi_0^2 between the two species; closed Gaussian form."""
    return math.sqrt(omega_B * omega_C / (math.pi * (omega_B + omega_C)))


def overlap_I01(omega_B, omega_C):
    """int phi_0^2 (battery) phi_1^2 (charger)."""
    return (math.sqrt(omega_B * omega_C / math.pi)
            * omega_C / (omega_B + omega_C) ** 1.5)


_IN0_POLY = {
    1: (1.0, (1.0,)),
    3: (0.5, (3.0, 2.0)),
    5: (0.125, (15.0, 40.0, 8.0)),
    7: (1.0 / 16.0, (35.0, 210.0, 168.0, 16.0)),
    9: (1.0 / 128.0, (315.0, 3360.0, 6048.0, 2304.0, 128.0)),
}


def overlap_In0(n, omega_B, omega_C):
    """int phi_n^2 (battery) phi_0^2 (charger).

    Closed forms for odd n <= 9; general n falls back to quadrature.
    """
    if n < 0:
        raise ConfigError("n must be >= 0")
    entry = _IN0_POLY.get(n)
    if entry is None:
        return two_body_contact(n, 0, n, 0, omega_B, omega_C)
    scale, coeffs = entry
    m = len(coeffs) - 1
    poly = sum(c * omega_C ** (2 * (m - p)) * omega_B ** (2 * p)
               for p, c in enumerate(coeffs))
    return (scale * math.sqrt(1.0 / math.pi) * omega_B
            * math.sqrt(omega_B * omega_C) * poly
            / (omega_B + omega_C) ** ((2 * n + 1) / 2))


def overlap_In(n, omega_B, omega_C):
    """Transfer overlap int phi_n phi_1 phi_0 phi_0 dx ((n,0) battery, (1,0) charger).

    Exactly zero for even n by parity. The closed form

        (-1)^((n-1)/2) / ((n-1)/2)! * sqrt(n! / (2^(n-1) pi))
            * omega_B omega_C^((n+1)/2) / (omega_B + omega_C)^((n+2)/2)

    is evaluated through log-gamma to stay finite for large n.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if n % 2 == 0:
        return 0.0
    half = (n - 1) // 2
    log_mag = (
        0.5 * (math.lgamma(n + 1) - (n - 1) * math.log(2.0) - math.log(math.pi))
        - math.lgamma(half + 1)
        + math.log(omega_B)
        + 0.5 * (n + 1) * math.log(omega_C)
        - 0.5 * (n + 2) * math.log(omega_B + omega_C)
    )
    return (-1.0) ** half * math.exp(log_mag)


def fermionic_overlap(num_particles, n, omega_B, omega_C):
    """Overlap controlling transfer for N spin-polarized fermions.

    The Fermi sea promotes its top particle phi_{N-1} -> phi_{N+n-1} while
    the charger drops phi_1 -> phi_0. Zero for even n by parity.
    """
    if num_particles < 1:
        raise ConfigError("need at least one particle")
    if n < 1:
        raise ConfigError("n must be >= 1")
    return two_body_contact(num_particles - 1, 1, num_particles + n - 1, 0,
                            omega_B, omega_C)


@dataclass(frozen=True)
class OverlapSet:
    """The four overlaps entering the two-level reduction."""

    n: int
    omega_B: float
    omega_C: float
    I00: float
    I01: float
    In0: float
    In: float


def overlap_set(n, omega_B, omega_C):
    """Bundle I00, I01, In0, In for a target excitation n."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    return OverlapSet(
        n=n,
        omega_B=omega_B,
        omega_C=omega_C,
        I00=overlap_I00(omega_B, omega_C),
        I01=overlap_I01(omega_B, omega_C),
        In0=overlap_In0(n, omega_B, omega_C),
        In=overlap_In(n, omega_B, omega_C),
    )
