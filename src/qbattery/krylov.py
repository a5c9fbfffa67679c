"""Matrix-free evolution on one parity sector of the battery x charger
product space.

The interaction is applied in its quadrature-factorized form

    H_int = g sum_q w_q (R_q^dag R_q) (x) (v_q v_q^T),

where R_q = sum_k phi_k(x_q) b_k annihilates a battery particle at the
Gauss-Hermite node x_q and v_q[j] = chi_j(x_q) samples the charger modes.
The raising table comes from ``hamiltonian._raising_table`` and the nodes,
weights and mode values from ``integrals.contact_nodes``, the same factors
``hamiltonian.py`` multiplies out into the dense sector matrices.

The contact coupling conserves total parity, so psi(t) stays in the sector
of psi(0).  A sector vector is two blocks: even battery states times the
charger modes of the sector's parity, and odd battery states times the
others.  The nodes come in pairs +-x_q, and phi_k(-x) = (-1)^k phi_k(x)
makes every node-sampled array of a sector vector even or odd in x, so
each node sum runs over x_q >= 0 only, with weight 2 w_q (w_0 for the
node at x = 0).

Cost model.  H and the initial state are real, so everything runs in
float64: ``matvec`` takes real rows only.  One application to a k-row
block is, per parity block, two stacked GEMMs of size k x D_b x M_C/2 x
Q/2 (D_b battery states in the block), plus two row gathers with node
sums over at most N D_B x k Q/2 entries: O(Q/2 * (D + N D_B)) per row,
with D the sector dimension, about D_B M_C / 2, instead of touching an
assembled matrix.  The node-sampled work arrays are row-major, (row,
battery state, node), and kept per thread between calls: at large D fresh
temporaries cost more in page faults than the arithmetic.  With two
OpenBLAS threads on a 2-vCPU VM a matvec takes about 76 us on one real
row and 148 us on two at D = 4,563 (N = 2, M = 26; 135 and 250 us at
g_B = -0.5), and 0.76 ms and 1.45 ms at D = 31,200 (N = 3, M = 24).

One propagator: a one-shot Chebyshev expansion of exp(-iHt) (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967 (1984)), which needs no basis storage or
reorthogonalization.  Its recurrence runs on one real row when the state
is real and on its real and imaginary rows otherwise, and it raises
``NumericalBreakdownError`` when the norm drifts by more than
``NORM_DRIFT_TOL``.  ``work_walk`` is the one checkpointed time walk over
it: ``propagate_work_series`` and ``experiments.convergence_check`` both
read W_B(t) through it.

H_B, with its g_B term, is the dense pipeline's matrix from
``hamiltonian.assemble_battery_only``; its off-diagonal part adds one
broadcast GEMM per parity block to the cost above (none at g_B = 0).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.special import jv

from .basis import ParitySector
from .dynamics import _ENERGY_RTOL
from .errors import ConfigError, NumericalBreakdownError
from .hamiltonian import _raising_table, assemble_battery_only
from .integrals import contact_nodes

__all__ = [
    "ProductSpaceOperator",
    "spectral_bounds",
    "chebyshev_evolve",
    "work_walk",
    "propagate_work_series",
]

# Largest change of the norm a propagation may make before it counts as a
# numerical breakdown: the Chebyshev expansion is unitary up to round-off.
NORM_DRIFT_TOL = 1e-8

# Chebyshev terms summed per GEMM in chebyshev_evolve.
_TERM_BLOCK = 16

# Lanczos steps behind spectral_bounds' Ritz range, and the padding added
# on both sides as a fraction of that range.
_RITZ_STEPS = 80
_RITZ_PAD = 0.03

# Bessel coefficients below this magnitude end the Chebyshev series.
_BESSEL_TOL = 1e-13


@dataclass
class ProductSpaceOperator:
    """H = H_B (x) 1 + 1 (x) H_C + g_BC * factorized contact coupling on one
    parity sector of the battery x charger product space, with H_B (and its
    g_B term) from ``hamiltonian.assemble_battery_only``.

    ``sector`` is ODD or EVEN (total parity, as in
    ``SimulationConfig.sector``).  A vector holds two blocks, each battery
    major: the even battery states times the charger modes that complete
    the sector, then the odd battery states times the others; within a
    block both keep their Fock and mode order.  ``pairs[i]`` is the
    (battery state index, charger mode) of entry i.

    H is real: ``matvec`` applies it to a real vector or to every row of a
    real (k, dim) block, and rejects complex input.
    """

    num_particles: int
    modes_battery: int
    modes_charger: int
    g_BC: float
    g_B: float = 0.0
    omega_B: float = 1.0
    omega_C: float = 1.0
    sector: ParitySector = ParitySector.ODD
    _local: threading.local = field(default_factory=threading.local,
                                    init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modes_battery < 2 or self.modes_charger < 2:
            raise ConfigError("need at least two modes per species")
        if self.sector not in (ParitySector.ODD, ParitySector.EVEN):
            raise ConfigError("the matrix-free operator acts on the ODD or "
                              f"EVEN sector, not {self.sector!r}")
        battery = assemble_battery_only(
            self.num_particles, self.modes_battery, self.g_B, self.omega_B)
        self.battery_dim = battery.dim
        up, amp, lowered = _raising_table(battery.states)
        self.lowered_dim = len(lowered)

        # Battery states in block order: even ones first.  Block b pairs
        # them with the charger modes whose parity completes the sector.
        parity = battery.state_parities
        block_order = np.argsort(-parity, kind="stable")
        position = np.empty_like(block_order)
        position[block_order] = np.arange(block_order.size)
        num_even = int(np.sum(parity == 1))
        charger = np.arange(self.modes_charger)

        weights, phi, chi = contact_nodes(
            self.modes_battery, self.modes_charger, self.omega_B, self.omega_C)
        # The nodes come in exact pairs +-x_q, and phi_k(-x) = (-1)^k phi_k(x)
        # makes every node-sampled array of a sector vector even or odd in
        # x, so the node sums run over x_q >= 0 with the pair's weight
        # doubled; the node at x = 0 (odd rules) has no partner
        total_nodes = weights.size
        half = slice(total_nodes // 2, None)
        node_weights = 2.0 * weights[half]
        if total_nodes % 2:
            node_weights[0] = weights[total_nodes // 2]
        phi = phi[:, half]
        self.num_nodes = node_weights.size

        # H_B's off-diagonal part per block, None when zero (g_B = 0): it
        # fills 30-100 % of a block, so it is kept dense
        self._blocks = []
        pairs = []
        entry = 0
        for lo, hi, battery_parity in ((0, num_even, 1),
                                       (num_even, self.battery_dim, -1)):
            modes = charger[(-1) ** charger * battery_parity
                            == self.sector.value]
            size = (hi - lo) * modes.size
            own = block_order[lo:hi]
            off = battery.matrix[np.ix_(own, own)] * (1.0 - np.eye(own.size))
            to_nodes = np.ascontiguousarray(chi[modes][:, half])
            self._blocks.append(SimpleNamespace(
                states=(lo, hi), entries=slice(entry, entry + size),
                to_nodes=to_nodes, to_modes=to_nodes.T.copy(),
                battery=off if off.any() else None))
            pairs.append(np.stack(np.broadcast_arrays(
                own[:, None], modes[None, :]), -1).reshape(-1, 2))
            entry += size
        self.pairs = np.concatenate(pairs)

        battery_index, mode = self.pairs.T
        h_b_diag = np.diag(battery.matrix)
        self._diag = h_b_diag[battery_index] + self.omega_C * (mode + 0.5)
        self._gaps = (h_b_diag - battery.ground_energy)[battery_index]
        self._ground = battery.ground_state[battery_index]

        # Row (i, l) of the stacked lowering map R_q reads battery state
        # up[l, i] (in block order) with factor sqrt(n_i) phi_i(x_q).  R_q^T
        # writes the same rows back, summed per battery state: slot s of
        # state b holds its s-th row, or a zero factor once b has no more
        # occupied modes, so that sum runs over whole slot planes.  g_BC w_q
        # is folded in there.
        self._source = position[up.T.ravel()]
        factor = (amp.T[:, :, None] * phi[:, None, :]).reshape(
            self._source.size, self.num_nodes)
        order = np.argsort(self._source, kind="stable")
        state = self._source[order]
        slot = np.arange(order.size) - np.searchsorted(state, state)
        target = np.zeros((slot.max() + 1, self.battery_dim), dtype=np.intp)
        target[slot, state] = order % self.lowered_dim
        raise_factor = np.zeros(target.shape + (self.num_nodes,))
        raise_factor[slot, state] = factor[order] * (self.g_BC * node_weights)
        self._lower_factor = factor.reshape(self.modes_battery, -1)
        self._target = target.ravel()
        self._raise_factor = raise_factor.reshape(target.shape[0], -1)

    @property
    def dim(self) -> int:
        return self.pairs.shape[0]

    def _workspace(self, k):
        """Work arrays for a k-row block, kept per thread between calls:
        fresh temporaries of these sizes cost more in page faults than the
        arithmetic done in them."""
        spaces = self._local.__dict__.setdefault("spaces", {})
        if k not in spaces:
            nb, nq = self.battery_dim, self.num_nodes
            spaces[k] = SimpleNamespace(
                y=np.empty((k, nb, nq)),
                lowered=np.empty((k, self._source.size, nq)),
                u=np.empty((k, self.lowered_dim, nq)),
                raised=np.empty((k, self._target.size, nq)),
                z=np.empty((k, nb, nq)), term=np.empty((k, self.dim)))
        return spaces[k]

    def _apply(self, rows: np.ndarray, out: np.ndarray) -> None:
        """H applied to every row of a C-ordered real (k, dim) block.

        The node-sampled arrays are row-major, (row, battery state, node),
        so each charger contraction is one GEMM per block over all rows,
        and each gather or node sum runs along the battery axis.
        """
        k = rows.shape[0]
        w = self._workspace(k)
        for blk in self._blocks:
            lo, hi = blk.states
            np.matmul(rows[:, blk.entries].reshape(k, hi - lo, -1),
                      blk.to_nodes, out=w.y[:, lo:hi])
        # R_q at every node: each (i, l) row reads its source state, and the
        # sum over modes i leaves one row per lowered state l
        w.y.take(self._source, axis=1, out=w.lowered, mode="clip")
        np.einsum("rij,ij->rj",
                  w.lowered.reshape(k, self.modes_battery, -1),
                  self._lower_factor, out=w.u.reshape(k, -1))
        # R_q^T back up to the N-particle space, one slot plane at a time
        w.u.take(self._target, axis=1, out=w.raised, mode="clip")
        np.einsum("rij,ij->rj",
                  w.raised.reshape(k, self._raise_factor.shape[0], -1),
                  self._raise_factor, out=w.z.reshape(k, -1))
        for blk in self._blocks:
            lo, hi = blk.states
            part = out[:, blk.entries].reshape(k, hi - lo, -1)
            np.matmul(w.z[:, lo:hi], blk.to_modes, out=part)
            if blk.battery is not None:
                term = w.term[:, blk.entries].reshape(k, hi - lo, -1)
                np.matmul(blk.battery,
                          rows[:, blk.entries].reshape(k, hi - lo, -1),
                          out=term)
                part += term
        out += np.multiply(rows, self._diag, out=w.term)

    def _shifted(self, scale: float, shift: float) -> ProductSpaceOperator:
        """scale * (H - shift), sharing this operator's gather tables and
        work arrays: its output-side charger factors, battery blocks and
        diagonal are scaled instead."""
        op = copy.copy(self)
        op._blocks = [SimpleNamespace(**{
            **vars(blk), "to_modes": scale * blk.to_modes,
            "battery": None if blk.battery is None else scale * blk.battery})
            for blk in self._blocks]
        op._diag = scale * (self._diag - shift)
        return op

    def matvec(self, psi: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """H psi for a real vector or for every row of a real (k, dim)
        block.  ``out``, if given, is a C-ordered float64 array of psi's
        shape that does not overlap psi; the result is written there."""
        psi = np.asarray(psi)
        if np.iscomplexobj(psi):
            raise ConfigError("matvec takes real rows; apply a complex state "
                              "as its real and imaginary parts")
        if out is None:
            out = np.empty(psi.shape)
        elif (out.shape != psi.shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ConfigError("matvec out= must be a C-ordered float64 "
                              "array of the input's shape")
        rows = np.ascontiguousarray(psi, dtype=float).reshape(-1, self.dim)
        self._apply(rows, out.reshape(rows.shape))
        return out

    def dense(self) -> np.ndarray:
        """Assemble the sector matrix column by column (small dims only)."""
        if self.dim > 6000:
            raise ConfigError("dense assembly only intended for small test dims")
        cols = np.empty((self.dim, self.dim))
        e = np.zeros(self.dim)
        for j in range(self.dim):
            e[j] = 1.0
            cols[:, j] = self.matvec(e)
            e[j] = 0.0
        return cols

    def initial_state(self, charger_level: int = 1) -> np.ndarray:
        """Battery ground state, the one the dense pipeline starts from,
        times one charger mode.  Raises ConfigError when that product state
        lies outside the sector."""
        psi = np.where(self.pairs[:, 1] == charger_level, self._ground, 0.0)
        if psi @ psi < 1.0 - 1e-9:
            raise ConfigError(
                f"charger level {charger_level} puts the initial state "
                f"outside the {self.sector.name} sector of "
                f"{self.modes_charger} charger modes")
        return psi

    def stored_work(self, psi: np.ndarray) -> float:
        """<H_B (x) 1> - E_0 on a normalized psi."""
        work = self._gaps @ np.abs(psi) ** 2
        for blk in self._blocks:
            if blk.battery is not None:
                part = psi[blk.entries].reshape(blk.battery.shape[0], -1)
                work += np.vdot(part, blk.battery @ part).real
        return float(work)


def spectral_bounds(op: ProductSpaceOperator):
    """Estimated (lo, hi) enclosing spec(H), from extremal Ritz values of a
    reorthogonalized Lanczos run padded by _RITZ_PAD * span on both sides."""
    rng = np.random.default_rng(1905)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    m = min(_RITZ_STEPS, op.dim)
    V = np.empty((m, op.dim))
    V[0] = v
    alphas = np.empty(m)
    betas = np.empty(m)
    k = m
    for j in range(m):
        w = op.matvec(V[j])
        a = V[j] @ w
        alphas[j] = a
        # the last step needs only its alpha: no next Lanczos vector
        if j + 1 == m:
            break
        w = w - a * V[j]
        if j > 0:
            w = w - betas[j - 1] * V[j - 1]
        c = V[: j + 1] @ w
        w = w - V[: j + 1].T @ c
        b = np.linalg.norm(w)
        if b < 1e-12:
            k = j + 1
            break
        V[j + 1] = w / b
        betas[j] = b
    T = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1) \
        + np.diag(betas[: k - 1], -1)
    evals = np.linalg.eigvalsh(T)
    # Ritz values sit inside the spectrum, so the padded Ritz range is an
    # estimate, not a bound; chebyshev_evolve's unitarity check catches a
    # range that turns out too tight
    lo, hi = evals[0], evals[-1]
    span = hi - lo
    return lo - _RITZ_PAD * span, hi + _RITZ_PAD * span


def chebyshev_evolve(op: ProductSpaceOperator, psi: np.ndarray, t: float,
                     bounds):
    """One-shot Chebyshev expansion of exp(-i H t) psi.

    exp(-iHt) = e^{-iat} sum_m (2 - delta_m0)(-i)^m J_m(bt) T_m((H-a)/b)
    with bounds = (lo, hi) enclosing the spectrum, a the center and b the
    half-span.  Uses the three-term recurrence on real rows (psi itself
    when it is real, else its real and imaginary parts, since H is real),
    so memory stays at a ring of _TERM_BLOCK vectors per row and no
    orthogonalization is needed.  The Bessel tail makes truncation errors
    drop superexponentially once m exceeds b*|t|.  Negative t rewinds the
    evolution (J_m flips sign with odd order, nothing else changes).
    """
    lo, hi = bounds
    if hi <= lo:
        raise ConfigError("spectral bounds must satisfy lo < hi")
    a = 0.5 * (hi + lo)
    b = 0.5 * (hi - lo)
    z = b * t
    if abs(z) < 1e-12:
        return np.exp(-1j * a * t) * psi.astype(complex)
    m_max = int(abs(z) + 50 + 15 * abs(z) ** (1.0 / 3.0))
    orders = np.arange(m_max + 1)
    bess = jv(orders, z)
    keep = np.nonzero(np.abs(bess) > _BESSEL_TOL)[0]
    m_max = int(keep[-1]) if keep.size else 0
    coeff = ((-1j) ** orders[: m_max + 1]) * bess[: m_max + 1]
    coeff[1:] *= 2.0
    coeff *= np.exp(-1j * a * t)

    # mix[m] maps T_m of the rows onto the real and imaginary parts of
    # coeff[m] T_m psi.  The recurrence writes each term straight into a
    # ring of _TERM_BLOCK vectors, with H~ = (2/b)(H - a) applied by a
    # pre-scaled operator, and each full ring joins the sum in one GEMM.
    psi = np.asarray(psi)
    rows = (np.stack([psi.real, psi.imag]) if np.iscomplexobj(psi)
            else psi.reshape(1, -1))
    k = rows.shape[0]
    re, im = coeff.real, coeff.imag
    mix = np.stack([np.stack([re, -im], -1), np.stack([im, re], -1)],
                   1)[:, :, :k]
    scaled = op._shifted(2.0 / b, a)
    ring = np.empty((_TERM_BLOCK,) + rows.shape)
    ring[0] = rows
    out = np.zeros((2, rows.shape[1]))
    for start in range(0, m_max + 1, _TERM_BLOCK):
        stop = min(start + _TERM_BLOCK, m_max + 1)
        for m in range(max(start, 1), stop):
            nxt = ring[m % _TERM_BLOCK]
            scaled.matvec(ring[(m - 1) % _TERM_BLOCK], out=nxt)
            if m == 1:
                nxt *= 0.5
            else:
                nxt -= ring[(m - 2) % _TERM_BLOCK]
        n = stop - start
        out += (mix[start:stop].transpose(1, 0, 2).reshape(2, n * k)
                @ ring[:n].reshape(n * k, -1))
    # "not <=" so that a nan norm fails too
    drift = abs(np.linalg.norm(out) - np.linalg.norm(psi))
    if not drift <= NORM_DRIFT_TOL:
        raise NumericalBreakdownError(
            "Chebyshev propagation lost unitarity; spectral bounds too tight")
    return out[0] + 1j * out[1]


def work_walk(op: ProductSpaceOperator, charger_level: int):
    """W_B(t) at the times asked for, in any order, along one walk.

    Starts from ``op.initial_state(charger_level)`` and computes the
    spectral bounds once.  Each call evolves the state with one
    ``chebyshev_evolve`` from the last time asked for, forward or back,
    and returns the stored work there.  After each step <psi|H|psi> must
    stay within _ENERGY_RTOL * max(1, |E0|) of its start value E0, or
    ``NumericalBreakdownError`` is raised; that costs one 2-row matvec.
    """
    bounds = spectral_bounds(op)
    psi = op.initial_state(charger_level)
    energy0 = float(psi @ op.matvec(psi))
    energy_tol = _ENERGY_RTOL * max(1.0, abs(energy0))
    current = 0.0

    def work(t):
        nonlocal psi, current
        if t != current:
            psi = chebyshev_evolve(op, psi, t - current, bounds)
            current = t
            rows = np.stack([psi.real, psi.imag])
            drift = abs(float(np.vdot(rows, op.matvec(rows))) - energy0)
            # "not <=" so that a nan energy fails too
            if not drift <= energy_tol:
                raise NumericalBreakdownError(
                    f"total energy drifted by {drift:.3e} along the "
                    "matrix-free walk")
        return op.stored_work(psi)

    return work


def propagate_work_series(op: ProductSpaceOperator, times, charger_level: int = 1,
                          method: str = "chebyshev"):
    """Stored work W_B(t) on a sorted time grid, along one ``work_walk``.

    ``method`` names the propagator; "chebyshev" is the only one.
    """
    if method != "chebyshev":
        raise ConfigError(f"unknown propagation method: {method!r}")
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0)
            or times[0] < 0):
        raise ConfigError("times must be a non-empty, sorted, non-negative "
                          "1-D grid")
    work = work_walk(op, charger_level)
    return np.array([work(t) for t in times])
