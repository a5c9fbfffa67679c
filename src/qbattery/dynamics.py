"""Quench dynamics by spectral decomposition.

The interacting Hamiltonian H1 is diagonalized once and states are
reconstructed at arbitrary times from

    |psi(t)> = sum_k <E_k|psi(0)> exp(-i E_k t) |E_k>,

so there is no time-step error to control.

Read-out works on a block of times at once. H1 and psi(0) are real, so
the eigenvectors V and the coefficients c0 = V^T psi(0) are real, and the
block psi = re + i im of D sector states by T times costs two real GEMMs,

    re = V (cos(E t) c0),    im = -V (sin(E t) c0),

O(D^2 T). Expectations of H0, Hint and the work operator are CSR (or,
when diagonal, elementwise) products against the block,
re.A.re + im.A.im, O(nnz T). The reduced battery state needs only its
spectrum, and the nonzero part of that comes from the Gram matrix of the
smaller side of the battery x charger amplitude matrix:
min(D_B, D_C)^3 per time instead of D_B^3. Battery-eigenbasis
populations are one D_B^2 D_C product per time. Long time grids run in
chunks of _BLOCK_COLUMNS, so no (D x T) block larger than that is held.
"""

from __future__ import annotations

import csv
import dataclasses
import warnings
from dataclasses import dataclass, asdict

import numpy as np
from scipy import sparse

from . import thermo
from .basis import (ParitySector, Species, SpeciesConfig,
                    build_composite_basis, DEFAULT_BASIS_CAP)
from .errors import ConfigError, CutoffWarning, NumericalBreakdownError
from .hamiltonian import (assemble_battery_only, build_hamiltonian_set,
                          embed_battery_operator)

SERIES_SCHEMA = "qbattery.series.v1"
SERIES_COLUMNS = ("t", "W_B", "ergotropy", "S_B", "E_int", "W_irr", "E_total")

_BLOCK_COLUMNS = 256     # times per read-out block
_IMAG_TOL = 1e-10        # imaginary residue of a real-operator expectation
_NORM_TOL = 1e-10        # | |psi(t)| - 1 | per column
_ENERGY_RTOL = 1e-8      # E_total drift, relative to max(1, |E_total(0)|)
# Horizon in QSL estimates: the variance bound undershoots the peak time by
# up to a factor of two at weak coupling.
_SPAN_FACTOR = 3.0


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a dense Hermitian matrix, energies ascending."""

    energies: np.ndarray
    vectors: np.ndarray

    @classmethod
    def from_matrix(cls, h):
        energies, vectors = np.linalg.eigh(h)
        return cls(energies=energies, vectors=vectors)

    @property
    def dim(self):
        return self.energies.size


@dataclass
class QuantumState:
    """State vector over a composite sector basis at one instant."""

    amplitudes: np.ndarray
    time: float = 0.0

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


def initial_state(basis, battery_h, charger_level=1):
    """Battery ground state times one charger quantum, embedded in the sector.

    Raises if the product state does not live entirely inside the requested
    parity sector (e.g. an even charger level in the odd sector).
    """
    if charger_level < 0 or charger_level >= basis.charger.num_modes:
        raise ConfigError("charger level outside the mode cutoff")
    ground = battery_h.ground_state
    amplitudes = np.zeros(basis.size)
    for b in range(basis.battery_dim):
        p = basis.index_matrix[b, charger_level]
        if p >= 0:
            amplitudes[p] = ground[b]
    weight = float(amplitudes @ amplitudes)
    if weight < 1.0 - 1e-9:
        raise ConfigError(
            f"initial state has weight {weight:.6f} inside the "
            f"{basis.sector.name} sector; wrong sector for this charger level")
    return QuantumState(amplitudes=amplitudes.astype(complex), time=0.0)


def expectation(operator, state):
    """Real expectation value, asserting the imaginary residue is noise."""
    v = state.amplitudes
    val = complex(np.vdot(v, operator @ v))
    if abs(val.imag) > _IMAG_TOL:
        raise AssertionError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def _expect(op, re, im):
    """<psi|op|psi> for each column of psi = re + i im.

    ``op`` is real symmetric: a sparse matrix, or a 1-D array holding its
    diagonal. The imaginary part re.op.im - im.op.re is zero in exact
    arithmetic and must stay below _IMAG_TOL.
    """
    if op.ndim == 1:
        return op @ (re * re + im * im)
    op_re, op_im = op @ re, op @ im
    residue = (np.einsum("it,it->t", re, op_im)
               - np.einsum("it,it->t", im, op_re))
    worst = float(np.abs(residue).max(initial=0.0))
    if worst > _IMAG_TOL:
        raise AssertionError(f"expectation has imaginary residue {worst:.3e}")
    return np.einsum("it,it->t", re, op_re) + np.einsum("it,it->t", im, op_im)


def _chunks(n):
    """Slices of at most _BLOCK_COLUMNS covering range(n)."""
    return [slice(k, k + _BLOCK_COLUMNS) for k in range(0, n, _BLOCK_COLUMNS)]


@dataclass
class ObservableSeries:
    """Charging observables on a time grid."""

    times: np.ndarray
    stored_work: np.ndarray
    ergotropy: np.ndarray
    entropy: np.ndarray
    interaction_energy: np.ndarray
    irreversible_work: np.ndarray
    total_energy: np.ndarray

    def to_csv(self, path, meta=None):
        meta = dict(meta or {})
        with open(path, "w", newline="") as fh:
            fh.write(f"# schema={SERIES_SCHEMA}\n")
            for k in sorted(meta):
                fh.write(f"# {k}={meta[k]}\n")
            writer = csv.writer(fh)
            writer.writerow(SERIES_COLUMNS)
            for row in zip(self.times, self.stored_work, self.ergotropy,
                           self.entropy, self.interaction_energy,
                           self.irreversible_work, self.total_energy):
                writer.writerow([f"{x:.12g}" for x in row])
        return path


@dataclass
class SimulationConfig:
    """Full description of one quench run."""

    num_particles: int
    omega_C: float
    g_BC: float
    g_B: float = 0.0
    omega_B: float = 1.0
    modes_battery: int = 12
    modes_charger: int = 12
    charger_level: int = 1
    sector: ParitySector = ParitySector.ODD
    basis_cap: int = DEFAULT_BASIS_CAP
    target_n: int | None = None

    def __post_init__(self):
        if self.num_particles < 1:
            raise ConfigError("need at least one battery particle")
        if self.omega_B <= 0 or self.omega_C <= 0:
            raise ConfigError("trap frequencies must be positive")
        if self.modes_battery < 2 or self.modes_charger < 2:
            raise ConfigError("need at least two modes per species")
        n_eff = self.target_n
        if n_eff is None:
            n_eff = int(round(self.omega_C / self.omega_B))
        if min(self.modes_battery, self.modes_charger) < n_eff + 4:
            warnings.warn(
                f"mode cutoffs ({self.modes_battery}, {self.modes_charger}) "
                f"are below target excitation + 4 = {n_eff + 4}; "
                "results may not be converged", CutoffWarning, stacklevel=2)

    def battery_config(self):
        return SpeciesConfig(Species.BATTERY, self.omega_B,
                             self.modes_battery, self.num_particles)

    def charger_config(self):
        return SpeciesConfig(Species.CHARGER, self.omega_C,
                             self.modes_charger, 1)

    def as_dict(self):
        d = asdict(self)
        d["sector"] = self.sector.name
        return d


class QuenchSimulation:
    """One assembled configuration: basis, Hamiltonians, spectral data.

    Bundles the repeated work (enumeration, assembly, diagonalization) so
    observable evaluations at many times stay cheap.
    """

    def __init__(self, config):
        self.config = config
        self.basis = build_composite_basis(
            config.battery_config(), config.charger_config(),
            sector=config.sector, cap=config.basis_cap)
        self.battery_h = assemble_battery_only(
            config.num_particles, config.modes_battery,
            config.g_B, config.omega_B)
        hams = build_hamiltonian_set(
            self.basis, config.g_B, config.g_BC,
            omega_B=config.omega_B, omega_C=config.omega_C)
        self.h0 = hams.h0
        self.hint = hams.hint
        self.spectral = SpectralDecomposition.from_matrix(hams.h1)
        self.state0 = initial_state(self.basis, self.battery_h,
                                    charger_level=config.charger_level)
        # H1 and psi(0) are real, so V and c0 are too
        psi0 = self.state0.amplitudes.real[:, None]
        self._coeff0 = self.spectral.vectors.T @ psi0[:, 0]
        self._h0_csr = sparse.csr_matrix(self.h0)
        self._hint_csr = sparse.csr_matrix(self.hint)
        zero = np.zeros_like(psi0)
        self._h0_initial = float(_expect(self._h0_csr, psi0, zero)[0])
        self._energy0 = self._h0_initial + float(
            _expect(self._hint_csr, psi0, zero)[0])
        self._work_op = self._work_operator()

    def _work_operator(self):
        """Battery energy above its ground state, embedded in the sector.

        Diagonal whenever g_B = 0; otherwise held as CSR.
        """
        bat, basis = self.battery_h, self.basis
        shifted = bat.matrix - bat.ground_energy * np.eye(bat.dim)
        if self.config.g_B == 0.0:
            return np.diag(shifted)[basis.battery_index]
        return embed_battery_operator(basis, shifted)

    @property
    def charger_quantum(self):
        """Energy initially stored in the charger, W_C(0)."""
        level = self.config.charger_level
        return level * self.config.omega_C

    def _block(self, times):
        """psi(t) = re + i im, one real column pair per time."""
        phase = np.outer(self.spectral.energies, times)
        c0 = self._coeff0[:, None]
        vectors = self.spectral.vectors
        re = vectors @ (np.cos(phase) * c0)
        im = vectors @ (np.sin(phase) * -c0)
        norm = np.einsum("it,it->t", re, re) + np.einsum("it,it->t", im, im)
        drift = float(np.abs(norm - 1.0).max(initial=0.0))
        if drift > _NORM_TOL:
            raise NumericalBreakdownError(
                f"state norm drifted by {drift:.3e} during propagation")
        return re, im

    def state_at(self, t):
        re, im = self._block([t])
        return QuantumState(amplitudes=re[:, 0] + 1j * im[:, 0], time=t)

    def states_at(self, times):
        """Batched reconstruction, one column per time."""
        re, im = self._block(np.asarray(times, dtype=float))
        return re + 1j * im

    def work_series(self, times):
        """Stored work W_B on a time grid (vectorized)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty(times.size)
        for part in _chunks(times.size):
            out[part] = _expect(self._work_op, *self._block(times[part]))
        return out

    def qsl_estimate(self):
        """Mandelstam-Tamm time from the initial-state energy variance."""
        w = np.abs(self._coeff0) ** 2
        mean = float(self.spectral.energies @ w)
        var = float((self.spectral.energies - mean) ** 2 @ w)
        return thermo.variance_to_qsl(var)

    def _scatter(self, cols):
        """(D, T) sector columns as T battery x charger matrices."""
        basis = self.basis
        x = np.zeros((cols.shape[1], basis.battery_dim, basis.charger_dim))
        x[:, basis.battery_index, basis.charger_index] = cols.T
        return x

    def _readout(self, times):
        """Every SERIES_COLUMNS observable but t, block by block.

        Raises NumericalBreakdownError when a state's norm or E_total
        drifts from its initial value.
        """
        out = {name: np.empty(times.size) for name in SERIES_COLUMNS[1:]}
        bat = self.battery_h
        vbt = bat.eigenvectors.T
        tol = _ENERGY_RTOL * max(1.0, abs(self._energy0))
        for part in _chunks(times.size):
            re, im = self._block(times[part])
            h0_now = _expect(self._h0_csr, re, im)
            e_int = _expect(self._hint_csr, re, im)
            e_total = h0_now + e_int
            drift = float(np.abs(e_total - self._energy0).max())
            if drift > tol:
                raise NumericalBreakdownError(
                    f"total energy drifted by {drift:.3e} during propagation")
            x_re, x_im = self._scatter(re), self._scatter(im)
            # populations p_i = sum_c |(V_B^T X)_ic|^2 in the battery eigenbasis
            pops = ((vbt @ x_re) ** 2 + (vbt @ x_im) ** 2).sum(axis=2)
            spectra = thermo.battery_spectra(x_re, x_im)
            out["W_B"][part] = _expect(self._work_op, re, im)
            out["ergotropy"][part] = (pops - spectra) @ bat.eigenvalues
            out["S_B"][part] = [thermo.von_neumann_entropy(lam)
                                for lam in spectra]
            out["E_int"][part] = e_int
            out["W_irr"][part] = h0_now - self._h0_initial
            out["E_total"][part] = e_total
        return out

    def observables_at(self, t):
        row = self._readout(np.array([float(t)]))
        return {"t": t, **{name: float(col[0]) for name, col in row.items()}}

    def series(self, times):
        times = np.asarray(times, dtype=float)
        out = self._readout(times)
        return ObservableSeries(
            times=times, stored_work=out["W_B"], ergotropy=out["ergotropy"],
            entropy=out["S_B"], interaction_energy=out["E_int"],
            irreversible_work=out["W_irr"], total_energy=out["E_total"])

    def _horizon(self):
        """_SPAN_FACTOR QSL estimates; 10 / omega_B when H1 does not move
        psi(0) (zero energy variance, no transfer)."""
        horizon = _SPAN_FACTOR * self.qsl_estimate()
        return horizon if np.isfinite(horizon) else 10.0 / self.config.omega_B

    def default_times(self, points=600):
        """points samples over [0, _SPAN_FACTOR * QSL estimate]."""
        return np.linspace(0.0, self._horizon(), points)

    def summarize(self):
        """Charging summary at the first stored-work maximum, with every
        observable read out at t_max."""
        s = thermo.find_t_max(self.work_series, self._horizon())
        obs = self.observables_at(s.t_max)
        return dataclasses.replace(
            s, ergotropy=obs["ergotropy"], entropy=obs["S_B"],
            irreversible_work=obs["W_irr"], interaction_energy=obs["E_int"],
            total_energy=obs["E_total"])


def time_series(config, times=None, points=600):
    """Convenience wrapper: build the pipeline and evaluate a series."""
    sim = QuenchSimulation(config)
    if times is None:
        times = sim.default_times(points=points)
    return sim.series(times)
