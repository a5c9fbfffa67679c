"""Harmonic-oscillator modes and bosonic Fock bases.

Natural units hbar = m = 1 throughout; a mode of index i and trap frequency
omega carries single-particle energy (i + 1/2) * omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError

DEFAULT_BASIS_CAP = 5_000_000


class Species(Enum):
    BATTERY = "battery"
    CHARGER = "charger"


class ParitySector(Enum):
    """Parity sector of the composite Hilbert space."""

    EVEN = 1
    ODD = -1
    FULL = 0


def hermite_mode_values(n_max, omega, x, bare_polynomial=False):
    """Table of oscillator eigenfunction values, shape (n_max + 1, len(x)).

    Uses the normalized three-term recurrence
        h_{n+1} = sqrt(2/(n+1)) xi h_n - sqrt(n/(n+1)) h_{n-1},
    with xi = sqrt(omega) x, which stays stable far beyond n ~ 85 where a
    naive Hermite-polynomial-times-factorial evaluation overflows.

    With bare_polynomial=True the Gaussian envelope exp(-xi^2/2) is left out;
    quadrature code absorbs it into the integration weight.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if omega <= 0:
        raise ConfigError("omega must be positive")
    xi = np.sqrt(omega) * np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((n_max + 1, xi.size))
    h0 = np.pi ** -0.25
    table[0] = h0 if bare_polynomial else h0 * np.exp(-0.5 * xi * xi)
    if n_max >= 1:
        table[1] = np.sqrt(2.0) * xi * table[0]
    for n in range(1, n_max):
        table[n + 1] = (
            np.sqrt(2.0 / (n + 1)) * xi * table[n]
            - np.sqrt(n / (n + 1.0)) * table[n - 1]
        )
    return omega ** 0.25 * table


def _occupation_vectors(total, modes):
    if modes == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _occupation_vectors(total - head, modes - 1):
            yield (head,) + rest


def fock_dimension(num_particles, num_modes):
    """Number of bosonic occupation vectors: C(N + M - 1, N)."""
    return math.comb(num_particles + num_modes - 1, num_particles)


def enumerate_fock_states(num_particles, num_modes, cap=DEFAULT_BASIS_CAP):
    """All occupation vectors with the given totals, first mode most occupied.

    Deterministic ordering: descending lexicographic in the occupation tuple,
    so (N, 0, ..., 0) always comes first.
    """
    if num_particles < 0 or num_modes < 1:
        raise ConfigError("need num_particles >= 0 and num_modes >= 1")
    count = fock_dimension(num_particles, num_modes)
    if count > cap:
        raise ConfigError(
            f"Fock basis with {count} states exceeds cap {cap}; "
            "reduce particle number or mode cutoff"
        )
    return [occ for occ in _occupation_vectors(num_particles, num_modes)]


def fock_parity(occupations):
    """Spatial parity (-1)^(sum_j j n_j) of a Fock state; +1 or -1."""
    return -1 if sum(j * n for j, n in enumerate(occupations)) % 2 else 1


def fock_energy(occupations, omega):
    """Non-interacting energy sum_j (j + 1/2) n_j omega."""
    return omega * sum((j + 0.5) * n for j, n in enumerate(occupations))


@dataclass(frozen=True)
class SpeciesConfig:
    """Mode-space description of one species."""

    label: Species
    omega: float
    num_modes: int
    num_particles: int

    def __post_init__(self):
        if self.omega <= 0:
            raise ConfigError(f"{self.label.value}: omega must be > 0")
        if self.num_modes < 2:
            raise ConfigError(f"{self.label.value}: need at least 2 modes")
        if self.num_particles < 1:
            raise ConfigError(f"{self.label.value}: need at least 1 particle")
        if self.label is Species.CHARGER and self.num_particles != 1:
            raise ConfigError("charger species must hold exactly one particle")


@dataclass(eq=False)
class CompositeBasis:
    """Battery (x) charger product basis restricted to one parity sector.

    kept_pairs lists (battery_state_index, charger_mode) in battery-major
    order; index_matrix maps (battery_state_index, charger_mode) back to the
    sector index, with -1 marking pairs outside the sector.
    """

    battery: SpeciesConfig
    charger: SpeciesConfig
    sector: ParitySector
    battery_states: tuple
    charger_states: tuple
    kept_pairs: tuple
    battery_index: np.ndarray = field(repr=False)
    charger_index: np.ndarray = field(repr=False)
    index_matrix: np.ndarray = field(repr=False)

    @property
    def size(self):
        return len(self.kept_pairs)

    @property
    def battery_dim(self):
        return len(self.battery_states)

    @property
    def charger_dim(self):
        return len(self.charger_states)

    def pair_index(self, battery_state, charger_mode):
        """Sector index of a (battery state, charger mode) pair, or -1."""
        return int(self.index_matrix[battery_state, charger_mode])


def build_composite_basis(battery, charger, sector=ParitySector.ODD,
                          cap=DEFAULT_BASIS_CAP):
    """Enumerate the product basis and keep the requested parity sector.

    The charger holds one particle, so its Fock states coincide with its
    mode index. Total parity of a pair is the product of the species
    parities; the contact interaction conserves it.
    """
    if not isinstance(sector, ParitySector):
        raise ConfigError(f"unknown parity sector {sector!r}")
    battery_states = tuple(enumerate_fock_states(
        battery.num_particles, battery.num_modes, cap=cap))
    charger_states = tuple(enumerate_fock_states(1, charger.num_modes, cap=cap))
    if len(battery_states) * len(charger_states) > cap:
        raise ConfigError("composite basis exceeds size cap")

    bat_par = np.array([fock_parity(s) for s in battery_states], dtype=np.int8)
    chg_par = np.array([fock_parity(s) for s in charger_states], dtype=np.int8)

    kept = []
    index_matrix = -np.ones((len(battery_states), len(charger_states)),
                            dtype=np.int64)
    for ib in range(len(battery_states)):
        for ic in range(len(charger_states)):
            if sector is ParitySector.FULL or \
                    int(bat_par[ib]) * int(chg_par[ic]) == sector.value:
                index_matrix[ib, ic] = len(kept)
                kept.append((ib, ic))
    if not kept:
        raise ConfigError("requested parity sector is empty")

    kept = tuple(kept)
    return CompositeBasis(
        battery=battery,
        charger=charger,
        sector=sector,
        battery_states=battery_states,
        charger_states=charger_states,
        kept_pairs=kept,
        battery_index=np.array([p[0] for p in kept], dtype=np.int64),
        charger_index=np.array([p[1] for p in kept], dtype=np.int64),
        index_matrix=index_matrix,
    )
