"""Quench dynamics on one of two backends, picked per build.

The spectral backend diagonalizes the interacting Hamiltonian H1 once and
reconstructs states at arbitrary times from

    |psi(t)> = sum_k <E_k|psi(0)> exp(-i E_k t) |E_k>,

so there is no time-step error to control. The walk backend never forms
H1: a krylov.ChebyshevWalk on the sector's matrix-free
ProductSpaceOperator returns psi(t) at any batch of times, in chunks of
one Chebyshev recursion each from a kept checkpoint (Tal-Ezer and
Kosloff), and agrees with the spectral states to about 1e-12.

Which backend. A build takes the walk when its predicted cost is below
the eigensolve's, _EIGH_SECONDS D^3: about 2 b T row-matvecs at
_row_seconds() each, with b the half-width of an enclosure of spec(H1)
(H0's spectrum from the battery levels and charger modes, widened on
the side of g_BC by a row-sum bound on ||Hint|| from its Gram blocks), T
the horizon, _SPAN_FACTOR QSL estimates from psi(0)'s energy variance,
and D the sector dimension. Nothing else picks a backend. The walk's
budget is the eigensolve's cost in rows: a read that would take the walk
past it (a maximum that needs repeated horizon doublings) switches the
build to the eigensolve, so such a build costs at most about twice a
spectral one. A FULL-sector config is always spectral. At one BLAS thread
the crossover lies between D = 588 (N_B = 2, M = 13: 2 b T / budget =
2.4) and D = 1100 (N_B = 3, M = 10: 0.34); the N_B = 3, M = 12 builds
(D = 2184) predict 0.1-0.3 of the budget and take 0.6-0.8 s for an
80-point series plus peak(), against 1.9 s spectral.

Memory. A spectral build holds one dense D x D matrix. H1 is assembled
into a single buffer, and LAPACK's dsyevd overwrites that buffer with the
eigenvectors V (``lapack.eigh_in_place``); its workspace, about 2 D^2
doubles, lives only during the solve. At g_B != 0 the first work_series
call adds V turned into the battery eigenbasis, a second D x D array. A
walk build holds the operator's node tables, up to krylov._CHECKPOINTS
+ 1 checkpoint states of 2 D doubles, two rings of krylov._RING_TERMS
terms and the states of one read-out block: about 24 MB at D = 2184,
against 114 MB for the spectral solve. H0 and Hint are CSR on
both; the walk sums Hint's Gram blocks straight into the CSR pattern
(``hamiltonian.quench_operators``). Before anything large is allocated,
the bytes the chosen backend will hold are checked against physical
memory.

Spectral read-out works on a block of times at once. H1 and psi(0) are
real, so the eigenvectors V and the coefficients c0 = V^T psi(0) are
real, and the block psi = re + i im of D sector states by T times costs
two real GEMMs,

    re = V (cos(E t) c0),    im = -V (sin(E t) c0),

O(D^2 T). On evenly spaced times the phases come from two exact trig
tables of _TABLE_STRIDE columns each and one complex product per entry,
so a block needs 4 _TABLE_STRIDE D trig evaluations instead of 2 D T.

The stored work needs nothing else. W = (H_B - E_0) (x) 1_C is diagonal
in the battery eigenbasis, so once per simulation the rows of V are turned
into that basis (one GEMM per battery parity, about (D_B / 2) D^2; none at
g_B = 0, where the Fock basis already is the eigenbasis), and
W_B(t) = (eps - eps_0) . (re^2 + im^2) on the turned rows, O(D T). On the
walk W_B is ProductSpaceOperator.row_work of the walked rows.

peak() on the spectral backend prunes the t_max search
(thermo.find_t_max) with a bound S on |dW_B/dt|, computed once per
simulation (_work_slope). The search reads W_B on every 16th of its 1201
grid points, then on the points whose slope bound can still reach the
near-peak threshold: about 250 points instead of 1670 per search on
N_B = 2, M = 10 resonance builds. S is exact on the columns of V that
carry all but 1e-12 of |c0|^2 and a Cauchy-Schwarz bound on the rest,
about D h^2 flops for h such columns: 0.15-0.35 s at D = 2184 on one BLAS
thread, against 0.6 s for the exact sum over all columns. It holds two
D x _BLOCK_COLUMNS column copies at a time, no more than a read-out
block. On the walk peak() reads the full grid (slope = inf), and
qsl_estimate uses ||(H - E) psi(0)||^2 instead of the spectrum.

The full read-out keeps the Fock-basis block, from either backend.
Expectations of H0 and Hint are CSR products against it, re.A.re +
im.A.im, O(nnz T). The reduced battery state needs only its spectrum, and
the nonzero part of that comes from the Gram matrix of the smaller side of
the battery x charger amplitude matrix: min(D_B, D_C)^3 per time instead
of D_B^3. Battery-eigenbasis populations p are one D_B^2 D_C product per
time, and W_B = p . (eps - eps_0). Long time grids run in chunks of
_BLOCK_COLUMNS, so no (D x T) block larger than that is held.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import lapack, thermo
from .basis import DEFAULT_BASIS_CAP, ParitySector, Species, SpeciesConfig
from .errors import ConfigError, CutoffWarning, NumericalBreakdownError
from .hamiltonian import (cutoff_model, hint_probe, quench_hamiltonians,
                          quench_operators)
from .krylov import _ENERGY_RTOL, ChebyshevWalk, ProductSpaceOperator

SERIES_COLUMNS = ("t", "W_B", "ergotropy", "S_B", "E_int", "W_irr", "E_total")

_BLOCK_COLUMNS = 256     # times per read-out block
_TABLE_STRIDE = 16       # columns of the fine phase table
_SPACING_ULPS = 4        # evenly spaced: t_j this many ulp from t_0 + j dt
_IMAG_TOL = 1e-10        # imaginary residue of a real-operator expectation
_NORM_TOL = 1e-10        # | |psi(t)| - 1 | per column
_SLOPE_TAIL = 1e-12      # share of |c0|^2 whose W_B slope terms are bounded
_STATES_BYTES = 64       # states_at bytes per block entry, peak
# Horizon in QSL estimates: the variance bound undershoots the peak time by
# up to a factor of two at weak coupling.
_SPAN_FACTOR = 3.0
# The backend rule's cost model, in seconds at one OpenBLAS thread on the
# reference machine (2-vCPU VM): a dense eigensolve costs _EIGH_SECONDS D^3,
# and the walk 2 b T rows of a matvec at _ROW_SECONDS[0] + D
# (_ROW_SECONDS[1] + _ROW_SECONDS[2] D_B [g_B != 0]) each.
_EIGH_SECONDS = 1.6e-10
_ROW_SECONDS = (1.5e-5, 2.0e-8, 6.0e-11)


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a dense Hermitian matrix, energies ascending."""

    energies: np.ndarray
    vectors: np.ndarray

    @classmethod
    def from_matrix(cls, h):
        """Eigenpairs of the symmetric C-order float64 array ``h``, solved
        in place: ``h`` becomes the eigenvector matrix."""
        energies = lapack.eigh_in_place(h)
        return cls(energies=energies, vectors=h)

    @property
    def dim(self):
        return self.energies.size


def initial_state(basis, battery_h, charger_level=1):
    """Battery ground state times one charger quantum, embedded in the
    sector: a real vector.

    Raises if the product state does not live entirely inside the requested
    parity sector (e.g. an even charger level in the odd sector).
    """
    if charger_level < 0 or charger_level >= basis.charger.num_modes:
        raise ConfigError("charger level outside the mode cutoff")
    psi = np.where(basis.charger_index == charger_level,
                   battery_h.ground_state[basis.battery_index], 0.0)
    weight = float(psi @ psi)
    if weight < 1.0 - 1e-9:
        raise ConfigError(
            f"initial state has weight {weight:.6f} inside the "
            f"{basis.sector.name} sector; wrong sector for this charger level")
    return psi


def expectation(operator, state):
    """Real expectation value of a state vector, asserting the imaginary
    residue is noise."""
    val = complex(np.vdot(state, operator @ state))
    if abs(val.imag) > _IMAG_TOL:
        raise AssertionError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def _expect(op, re, im):
    """<psi|op|psi> for each column of psi = re + i im.

    ``op`` is a real symmetric sparse matrix. The imaginary part
    re.op.im - im.op.re is zero in exact arithmetic and must stay below
    _IMAG_TOL.
    """
    op_re, op_im = op @ re, op @ im
    residue = (np.einsum("it,it->t", re, op_im)
               - np.einsum("it,it->t", im, op_re))
    worst = float(np.abs(residue).max(initial=0.0))
    if worst > _IMAG_TOL:
        raise AssertionError(f"expectation has imaginary residue {worst:.3e}")
    return np.einsum("it,it->t", re, op_re) + np.einsum("it,it->t", im, op_im)


def _check_norm(norm):
    """Raise when a squared state norm has drifted from 1 by more than
    _NORM_TOL."""
    drift = float(np.abs(norm - 1.0).max(initial=0.0))
    if drift > _NORM_TOL:
        raise NumericalBreakdownError(
            f"state norm drifted by {drift:.3e} during propagation")


def _chunks(n):
    """Slices of at most _BLOCK_COLUMNS covering range(n)."""
    return [slice(k, k + _BLOCK_COLUMNS) for k in range(0, n, _BLOCK_COLUMNS)]


def _evenly_spaced(times):
    """Whether times[j] = times[0] + j dt to within _SPACING_ULPS ulp."""
    dt = (times[-1] - times[0]) / (times.size - 1)
    ideal = times[0] + dt * np.arange(times.size)
    return bool(np.abs(times - ideal).max()
                <= _SPACING_ULPS * np.spacing(np.abs(times).max()))


def _phases(energies, coeff, times):
    """Real and imaginary parts of coeff exp(-i E t), one column per time.

    On more than _TABLE_STRIDE evenly spaced times t_j = t_0 + j dt, with
    j = S a + b and S = _TABLE_STRIDE, each column is the product of two
    exact trig tables, exp(-i E (t_0 + S a dt)) exp(-i E b dt), which
    differs from direct trig by the round-off of the argument E t. The
    product runs time-major, so its inner loops span all D energies. Other
    times take cos and sin directly.
    """
    n = times.size
    if n <= _TABLE_STRIDE or not _evenly_spaced(times):
        phase = np.outer(energies, times)
        return np.cos(phase) * coeff[:, None], np.sin(phase) * -coeff[:, None]
    dt = (times[-1] - times[0]) / (n - 1)
    rows = -(-n // _TABLE_STRIDE)
    coarse = np.outer(times[0] + dt * _TABLE_STRIDE * np.arange(rows),
                      energies)
    fine = np.outer(dt * np.arange(_TABLE_STRIDE), energies)
    a_re = (np.cos(coarse) * coeff)[:, None, :]
    a_im = (np.sin(coarse) * -coeff)[:, None, :]
    b_re, b_im = np.cos(fine), np.sin(fine)
    re = a_re * b_re
    re += a_im * b_im
    im = a_im * b_re
    im -= a_re * b_im
    dim = energies.size
    return re.reshape(-1, dim)[:n].T, im.reshape(-1, dim)[:n].T


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


@dataclass
class SimulationConfig:
    """Full description of one quench run. ``sector`` defaults to the
    parity (-1)^charger_level of psi(0), the only sector it reaches.

    A defaulted sector follows the charger level through
    ``dataclasses.replace``, which passes every field again: the level it
    was resolved from rides along as ``_sector_level``, and a sector still
    equal to that level's parity is resolved again from the new level. A
    sector given when the config is built stays as given."""

    num_particles: int
    omega_C: float
    g_BC: float
    g_B: float = 0.0
    omega_B: float = 1.0
    modes_battery: int = 12
    modes_charger: int = 12
    charger_level: int = 1
    sector: ParitySector | None = None
    basis_cap: int = DEFAULT_BASIS_CAP
    target_n: int | None = None
    _sector_level: dataclasses.InitVar[int | None] = None

    def __post_init__(self, _sector_level):
        if _sector_level is not None \
                and self.sector is ParitySector((-1) ** _sector_level):
            self.sector = None
        if self.sector is None:
            self.sector = ParitySector((-1) ** self.charger_level)
            self._sector_level = self.charger_level
        if self.num_particles < 1:
            raise ConfigError("need at least one battery particle")
        for name in ("omega_B", "omega_C", "g_BC", "g_B"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
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

    def cutoff_model(self):
        """The cached hamiltonian.CutoffModel this config builds on."""
        return cutoff_model(self.battery_config(), self.charger_config(),
                            self.g_B, self.sector, self.basis_cap)

    def as_dict(self):
        d = asdict(self)
        d["sector"] = self.sector.name
        return d


class QuenchSimulation:
    """One assembled configuration: basis, Hamiltonians and a backend for
    psi(t) blocks.

    The basis and the battery come from the config's cached cutoff model;
    ``h0`` and ``hint`` are CSR. ``backend`` names the source of psi(t):
    "spectral", with the eigenpairs of H1 in ``spectral``, or "walk", a
    krylov.ChebyshevWalk on the sector's ProductSpaceOperator. The module
    docstring gives the rule that picks one.
    """

    def __init__(self, config):
        self.config = config
        self._model = config.cutoff_model()
        self.basis = dataclasses.replace(self._model.basis,
                                         charger=config.charger_config())
        self.battery_h = self._model.battery
        self.state0 = initial_state(self.basis, self.battery_h,
                                    charger_level=config.charger_level)
        self.spectral = self._walk = self._variance = None
        if self._walk_pays():
            self._start_walk()
        else:
            self._solve()

    @property
    def backend(self):
        return "spectral" if self._walk is None else "walk"

    def _h0_range(self):
        """(min, max) of H0's spectrum on the sector: battery levels eps_k
        plus charger levels omega_C (c + 1/2) of the parity that completes
        the sector."""
        bat, sector = self.battery_h, self.config.sector
        modes = np.arange(self.config.modes_charger)
        sums = [bat.eigenvalues[bat.parities == p][:, None]
                + self.config.omega_C * (modes[p * (-1) ** modes
                                               == sector.value] + 0.5)
                for p in (1, -1)]
        return (min(x.min(initial=np.inf) for x in sums),
                max(x.max(initial=-np.inf) for x in sums))

    def _row_seconds(self):
        """Predicted seconds of a one-row matvec of the sector operator."""
        base, entry, battery = _ROW_SECONDS
        if self.config.g_B != 0.0:
            entry += battery * self.basis.battery_dim
        return base + entry * self.basis.size

    def _walk_pays(self):
        """The backend rule: True when the walk's predicted cost, 2 b T
        rows of a matvec, is below the eigensolve's, _EIGH_SECONDS D^3.

        b is the half-width of the enclosure of spec(H1) the walk runs on,
        H0's spectrum widened by hint_probe's bound on ||Hint|| (on one
        side: Hint has the sign of g_BC). T is the horizon, _SPAN_FACTOR
        QSL estimates from psi(0)'s energy variance ||(Hint - <Hint>)
        psi(0)||^2 (psi(0) is an eigenstate of H0). A FULL-sector config
        always takes the eigensolve: the operator acts on one parity
        sector. Also sets the walk's bounds and its budget: the rows of a
        matvec that cost what the eigensolve would.
        """
        cfg = self.config
        if cfg.sector is ParitySector.FULL:
            return False
        image, norm = hint_probe(self.basis, self._model, cfg.g_BC,
                                 self.state0)
        lo, hi = self._h0_range()
        self._bounds = (lo, hi + norm) if cfg.g_BC >= 0 else (lo - norm, hi)
        residual = image - (self.state0 @ image) * self.state0
        horizon = self._span(thermo.variance_to_qsl(residual @ residual))
        eigh = _EIGH_SECONDS * float(self.basis.size) ** 3
        self._budget = eigh / self._row_seconds()
        return (self._bounds[1] - self._bounds[0]) * horizon < self._budget

    def _solve(self):
        """The spectral backend: H1 assembled dense and diagonalized in
        place, after a check that the solve fits in memory."""
        lapack.check_memory(self.basis.size)
        h1, self.h0, self.hint = quench_hamiltonians(
            self.basis, self._model, self.config.g_BC)
        self.spectral = SpectralDecomposition.from_matrix(h1)
        # H1 and psi(0) are real, so V and c0 are too
        self._coeff0 = self.spectral.vectors.T @ self.state0
        self._walk = None

    def _start_walk(self):
        """The walk backend: CSR pieces, the sector operator, and a walk
        from psi(0) on the bounds of the rule, after a check that the
        walk's arrays fit in memory."""
        cfg, dim = self.config, self.basis.size
        op = ProductSpaceOperator(
            num_particles=cfg.num_particles, modes_battery=cfg.modes_battery,
            modes_charger=cfg.modes_charger, g_BC=cfg.g_BC, g_B=cfg.g_B,
            omega_B=cfg.omega_B, omega_C=cfg.omega_C, sector=cfg.sector)
        # CSR data and indices, and sector copies of a read-out block
        lapack.check_bytes(
            ChebyshevWalk.bytes_needed(op, _BLOCK_COLUMNS)
            + 12 * self._model.hint_layout.indices.size
            + 16 * dim * _BLOCK_COLUMNS, f"Chebyshev walk at dimension {dim}",
            "walk")
        self.h0, self.hint = quench_operators(self.basis, self._model,
                                              cfg.g_BC)
        # operator entry j is sector entry order[j]
        order = self.basis.index_matrix[op.pairs[:, 0], op.pairs[:, 1]]
        self._to_sector = np.argsort(order)
        self._walk = ChebyshevWalk(op, self.state0[order], self._bounds)
        image = self.h0 @ self.state0 + self.hint @ self.state0
        residual = image - (self.state0 @ image) * self.state0
        self._variance = float(residual @ residual)

    def _walk_affords(self, times):
        """Whether the walk reads ``times`` within its budget. A read past
        it switches the build to the eigensolve, when that fits in memory,
        and returns False."""
        walk = self._walk
        if walk is None:
            return False
        if walk.row_matvecs + walk.cost(np.sort(times)) <= self._budget:
            return True
        try:
            lapack.check_memory(self.basis.size)
        except ConfigError:
            return True
        self._solve()
        return False

    @functools.cached_property
    def _initial_energies(self):
        """(<H0>, <H0> + <Hint>) in psi(0): the read-out's reference for
        W_irr and for the E_total drift guard. peak() needs neither."""
        psi0 = self.state0[:, None]
        zero = np.zeros_like(psi0)
        h0 = float(_expect(self.h0, psi0, zero)[0])
        return h0, h0 + float(_expect(self.hint, psi0, zero)[0])

    @functools.cached_property
    def _work_rows(self):
        """(rows, gaps): V with its battery factor turned into the battery
        eigenbasis, and eps_k - eps_0 for each row, the diagonal of
        W = (H_B - E_0) (x) 1_C there.

        Sector row (b, c) of battery parity p becomes row (k, c) for the
        battery eigenvectors k of parity p: one GEMM per parity with that
        block of V_B. At g_B = 0 the Fock basis is the eigenbasis and V is
        used as it is. Built on the first work_series call, from V as it
        stands then.
        """
        bat, basis = self.battery_h, self.basis
        vectors = self.spectral.vectors
        if self.config.g_B == 0.0:
            gaps = np.diag(bat.matrix) - bat.ground_energy
            return vectors, gaps[basis.battery_index]
        rows = np.empty(vectors.shape)   # C order: out= below must be a view
        gaps = np.empty(basis.size)
        start = 0
        for sign in (1, -1):
            states = np.flatnonzero(bat.state_parities == sign)
            levels = np.flatnonzero(bat.parities == sign)
            modes = np.flatnonzero(basis.index_matrix[states[0]] >= 0)
            kept = slice(start, start + states.size * modes.size)
            fock = vectors[basis.index_matrix[np.ix_(states, modes)].ravel()]
            np.matmul(bat.eigenvectors[np.ix_(states, levels)].T,
                      fock.reshape(states.size, -1),
                      out=rows[kept].reshape(states.size, -1))
            gaps[kept] = np.repeat(bat.eigenvalues[levels] - bat.ground_energy,
                                   modes.size)
            start = kept.stop
        return rows, gaps

    @functools.cached_property
    def _work_slope(self):
        """S = sum_kl |c_k c_l A_kl (E_k - E_l)| >= |dW_B/dt| for all t, as
        W_B(t) = sum_kl c_k c_l A_kl cos((E_k - E_l) t) with
        A = rows^T diag(gaps) rows.

        The head, the columns that carry all but _SLOPE_TAIL of |c|^2, is
        summed exactly, in pairs of column blocks of at most _BLOCK_COLUMNS.
        A is positive semidefinite, so |A_kl| <= sqrt(A_kk A_ll): with
        a_k = |c_k| sqrt(A_kk), the pairs that touch the tail are bounded
        by sum_{k in tail} a_k sum_l w_l |E_k - E_l|, where w_l = 2 a_l on
        the head and a_l on the tail. The inner sums are prefix sums over
        the ascending energies.
        """
        rows, gaps = self._work_rows
        coeff, energies = np.abs(self._coeff0), self.spectral.energies
        weight = coeff * coeff
        order = np.argsort(weight)
        in_tail = np.zeros(weight.size, dtype=bool)
        in_tail[order] = np.cumsum(weight[order]) <= _SLOPE_TAIL * weight.sum()
        a = coeff * np.sqrt(np.einsum("i,ik,ik->k", gaps, rows, rows))
        w = np.where(in_tail, a, 2.0 * a)
        below, moment = np.cumsum(w), np.cumsum(w * energies)
        spread = (energies * (2.0 * below - below[-1])
                  - 2.0 * moment + moment[-1])
        slope = float(a[in_tail] @ spread[in_tail])
        head = np.flatnonzero(~in_tail)
        blocks = np.array_split(head, max(1, -(-head.size // _BLOCK_COLUMNS)))
        for j, cols in enumerate(blocks):
            right = rows[:, cols]
            right *= gaps[:, None]
            for i, other in enumerate(blocks[:j + 1]):
                block = np.abs(rows[:, other].T @ right)
                block *= np.abs(energies[other][:, None] - energies[cols])
                slope += (1.0 if i == j else 2.0) * float(
                    coeff[other] @ block @ coeff[cols])
        return slope

    @property
    def charger_quantum(self):
        """Energy initially stored in the charger, W_C(0)."""
        level = self.config.charger_level
        return level * self.config.omega_C

    def _block(self, vectors, times):
        """psi(t) = re + i im on the rows of ``vectors`` (V, or V turned
        into the battery eigenbasis), one real column pair per time."""
        phase_re, phase_im = _phases(self.spectral.energies, self._coeff0,
                                     times)
        re, im = vectors @ phase_re, vectors @ phase_im
        _check_norm(np.einsum("it,it->t", re, re)
                    + np.einsum("it,it->t", im, im))
        return re, im

    def _walk_states(self, times):
        """(T, 2, D): the real and imaginary rows of psi(t), in operator
        order, from the walk, at ``times`` in any order."""
        order = np.argsort(times, kind="stable")
        states = np.empty((times.size, 2, self.basis.size))
        states[order] = self._walk.states(times[order])
        _check_norm(np.einsum("tri,tri->t", states, states))
        return states

    def _sector_block(self, times):
        """psi(t) = re + i im in sector order, one column per time, from
        either backend."""
        if not self._walk_affords(times):
            return self._block(self.spectral.vectors, times)
        states = self._walk_states(times)[:, :, self._to_sector]
        return states[:, 0].T, states[:, 1].T

    def states_at(self, times):
        """Batched reconstruction, one column per time, in one D x T block.

        Raises ConfigError before allocating when the block's arrays (the
        two phase and two state blocks, 8 bytes an entry each, and the
        complex result with its temporary, 16 each) exceed physical
        memory."""
        times = np.asarray(times, dtype=float)
        need = _STATES_BYTES * self.basis.size * times.size
        have = lapack._physical_memory()
        if need > have:
            raise ConfigError(
                f"states_at block of {self.basis.size} x {times.size} needs "
                f"{need} bytes, more than the {have} bytes of physical "
                "memory; ask for fewer times at once")
        re, im = self._sector_block(times)
        return re + 1j * im

    def work_series(self, times):
        """Stored work W_B on a time grid (vectorized): the diagonal of W
        against |psi|^2 on the battery-eigenbasis rows."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty(times.size)
        for part in _chunks(times.size):
            if self._walk_affords(times[part]):
                states = self._walk_states(times[part])
                out[part] = self._walk.op.row_work(
                    states.reshape(-1, self.basis.size)).reshape(-1, 2).sum(1)
            else:
                rows, gaps = self._work_rows
                re, im = self._block(rows, times[part])
                out[part] = gaps @ (re * re + im * im)
        return out

    def qsl_estimate(self):
        """Mandelstam-Tamm time from the initial-state energy variance: on
        the walk ||(H - E) psi(0)||^2, on the spectral backend the spread
        of the eigenvalues over |c0|^2."""
        if self._variance is not None:
            return thermo.variance_to_qsl(self._variance)
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
        gaps = bat.eigenvalues - bat.ground_energy
        h0_initial, energy0 = self._initial_energies
        tol = _ENERGY_RTOL * max(1.0, abs(energy0))
        for part in _chunks(times.size):
            re, im = self._sector_block(times[part])
            h0_now = _expect(self.h0, re, im)
            e_int = _expect(self.hint, re, im)
            e_total = h0_now + e_int
            drift = float(np.abs(e_total - energy0).max())
            if drift > tol:
                raise NumericalBreakdownError(
                    f"total energy drifted by {drift:.3e} during propagation")
            x_re, x_im = self._scatter(re), self._scatter(im)
            # populations p_i = sum_c |(V_B^T X)_ic|^2 in the battery eigenbasis
            pops = ((vbt @ x_re) ** 2 + (vbt @ x_im) ** 2).sum(axis=2)
            spectra = thermo.battery_spectra(x_re, x_im)
            out["W_B"][part] = pops @ gaps
            out["ergotropy"][part] = (pops - spectra) @ bat.eigenvalues
            out["S_B"][part] = [thermo.von_neumann_entropy(lam)
                                for lam in spectra]
            out["E_int"][part] = e_int
            out["W_irr"][part] = h0_now - h0_initial
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

    def _span(self, qsl):
        """_SPAN_FACTOR QSL estimates; 10 / omega_B when H1 does not move
        psi(0) (zero energy variance, no transfer)."""
        horizon = _SPAN_FACTOR * qsl
        return horizon if np.isfinite(horizon) else 10.0 / self.config.omega_B

    def _horizon(self):
        return self._span(self.qsl_estimate())

    def default_times(self, points=600):
        """points samples over [0, _SPAN_FACTOR * QSL estimate]."""
        return np.linspace(0.0, self._horizon(), points)

    def peak(self):
        """t_max, W_B(t_max) and power at the first stored-work maximum,
        without the read-out: a ChargingSummary whose other fields are
        None. On the spectral backend the t_max search skips the grid
        points that _work_slope proves cannot change its pick; the walk
        reads the full grid."""
        if self._walk is not None:
            return thermo.find_t_max(self.work_series, self._horizon())
        # W_B's round-off budget: the norm guard's tolerance on its
        # largest diagonal term
        pad = _NORM_TOL * float(self._work_rows[1].max())
        return thermo.find_t_max(self.work_series, self._horizon(),
                                 slope=self._work_slope, pad=pad)

    def summarize(self):
        """Charging summary at the first stored-work maximum: peak(), with
        every observable read out at t_max."""
        s = self.peak()
        obs = self.observables_at(s.t_max)
        return dataclasses.replace(
            s, ergotropy=obs["ergotropy"], entropy=obs["S_B"],
            irreversible_work=obs["W_irr"], interaction_energy=obs["E_int"],
            total_energy=obs["E_total"])
