"""Matrix-free evolution on the full battery x charger product space.

The interaction is applied in its quadrature-factorized form

    H_int = g sum_q w_q (R_q^dag R_q) (x) (v_q v_q^T),

where R_q = sum_k phi_k(x_q) b_k annihilates a battery particle at the
Gauss-Hermite node x_q and v_q[j] = chi_j(x_q) samples the charger modes.
The raising table comes from ``hamiltonian._raising_table`` and the nodes,
weights and mode values from ``integrals.contact_nodes``, the same factors
``hamiltonian.py`` multiplies out into the dense sector matrices; here they
act on the full product space, without the parity restriction.

Cost model.  H and the initial state are real, so everything runs in
float64: a complex vector is applied as its real and imaginary rows.  One
application to a k-row block is two GEMMs of size (k D_B) x M_C x Q and two
row gathers with node sums, each over at most N D_B x k Q entries, so
O(Q * (D + N * D_B)) per row instead of touching an assembled matrix.
The work arrays are kept per thread between calls: at D = 62,400 fresh
temporaries cost more in page faults than the arithmetic.  A real matvec
takes about 0.35 ms at D = 9,126 (N = 2, M = 26) and 3 to 4 ms at
D = 62,400 (N = 3, M = 24) with two OpenBLAS threads on a 2-vCPU VM.

Two propagators are provided: a short-step Lanczos scheme with full
reorthogonalization, and a one-shot Chebyshev expansion of exp(-iHt) that
wins for long horizons because it needs no basis storage or
reorthogonalization.  The Chebyshev recurrence runs on one real row when
the state is real and on two otherwise.  Both raise
``NumericalBreakdownError`` when the norm drifts by more than
``NORM_DRIFT_TOL``.

Only the non-interacting battery (g_B = 0) is supported here; the dense
pipeline covers interacting batteries at production cutoffs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.special import jv

from .basis import enumerate_fock_states
from .errors import ConfigError, NumericalBreakdownError
from .hamiltonian import _raising_table
from .integrals import contact_nodes

__all__ = [
    "ProductSpaceOperator",
    "LanczosPropagator",
    "spectral_bounds",
    "chebyshev_evolve",
    "propagate_work_series",
]

# Largest change of the norm a propagation may make before it counts as a
# numerical breakdown: both propagators are unitary up to round-off.
NORM_DRIFT_TOL = 1e-8

# Chebyshev terms summed per GEMM in chebyshev_evolve.
_TERM_BLOCK = 16


@dataclass
class ProductSpaceOperator:
    """H = H_B (x) 1 + 1 (x) H_C + g_BC * factorized contact coupling, acting
    on vectors shaped (battery_dim * charger_modes,).  Battery is ideal
    (g_B = 0), so both bare pieces are diagonal in the Fock product basis.

    H is real: ``matvec`` applies it to a real vector, to every row of a
    real (k, dim) block, or to a complex vector or block as its real and
    imaginary rows.
    """

    num_particles: int
    modes_battery: int
    modes_charger: int
    g_BC: float
    omega_B: float = 1.0
    omega_C: float = 1.0
    _local: threading.local = field(default_factory=threading.local,
                                    init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_particles < 1:
            raise ConfigError("need at least one battery particle")
        if self.modes_battery < 2 or self.modes_charger < 2:
            raise ConfigError("need at least two modes per species")
        states = enumerate_fock_states(self.num_particles, self.modes_battery)
        self.battery_states = states
        self.battery_dim = len(states)
        up, amp, lowered = _raising_table(states)
        self.lowered_dim = len(lowered)

        occ = np.array(states, dtype=float)
        levels = np.arange(self.modes_battery) + 0.5
        self.battery_diag = self.omega_B * occ @ levels
        self.work_diag = self.omega_B * occ @ np.arange(self.modes_battery, dtype=float)
        self.charger_diag = self.omega_C * (np.arange(self.modes_charger) + 0.5)
        self._diag = self.battery_diag[:, None] + self.charger_diag[None, :]

        (self.node_weights, self.battery_modes_at_nodes,
         self.charger_modes_at_nodes) = contact_nodes(
            self.modes_battery, self.modes_charger, self.omega_B, self.omega_C)
        self.num_nodes = self.node_weights.size

        # Row (i, l) of the stacked lowering map R_q reads battery state
        # up[l, i] with factor sqrt(n_i) phi_i(x_q).  R_q^T writes the same
        # rows back, summed per battery state: slot s of state b holds its
        # s-th row, or a zero factor once b has no more occupied modes, so
        # that sum runs over whole slot planes.  g_BC w_q is folded in there.
        self._source = up.T.ravel()
        factor = (amp.T[:, :, None]
                  * self.battery_modes_at_nodes[:, None, :]).reshape(
                      self._source.size, self.num_nodes)
        order = np.argsort(self._source, kind="stable")
        state = self._source[order]
        slot = np.arange(order.size) - np.searchsorted(state, state)
        target = np.zeros((slot.max() + 1, self.battery_dim), dtype=np.intp)
        target[slot, state] = order % self.lowered_dim
        raise_factor = np.zeros(target.shape + (self.num_nodes,))
        raise_factor[slot, state] = factor[order] * (self.g_BC
                                                     * self.node_weights)
        self._lower_factor = factor
        self._target = target.ravel()
        self._raise_factor = raise_factor.reshape(self._target.size, -1)
        self._slots = target.shape[0]

    @property
    def dim(self) -> int:
        return self.battery_dim * self.modes_charger

    def _workspace(self, k):
        """Work arrays and node factors for a k-row block, kept per thread
        between calls: fresh temporaries of these sizes cost more in page
        faults than the arithmetic done in them."""
        spaces = self._local.__dict__.setdefault("spaces", {})
        if k not in spaces:
            nb, mc, nq = self.battery_dim, self.modes_charger, self.num_nodes
            lower = np.tile(self._lower_factor, (1, k))
            raise_ = np.tile(self._raise_factor, (1, k))
            spaces[k] = SimpleNamespace(
                xt=np.empty((nb, k, mc)), y=np.empty((nb * k, nq)),
                lowered=np.empty(lower.shape),
                lower_factor=lower.reshape(self.modes_battery, -1),
                u=np.empty((self.lowered_dim, k * nq)),
                raised=np.empty(raise_.shape),
                raise_factor=raise_.reshape(self._slots, -1),
                z=np.empty((nb, k * nq)), back=np.empty((nb * k, mc)))
        return spaces[k]

    def _apply(self, rows: np.ndarray) -> np.ndarray:
        """H applied to every row of a real (k, dim) block.

        The battery index goes outermost, so each contraction stage is one
        GEMM, gather or node sum over all rows at once: column (r, q) of the
        node-sampled arrays holds row r at node q.
        """
        k = rows.shape[0]
        nb, mc, nq = self.battery_dim, self.modes_charger, self.num_nodes
        V = self.charger_modes_at_nodes  # (M_C, Q)
        w = self._workspace(k)
        X = rows.reshape(k, nb, mc)
        w.xt[...] = X.transpose(1, 0, 2)
        np.matmul(w.xt.reshape(nb * k, mc), V, out=w.y)
        # R_q at every node: each (i, l) row reads its source state, and the
        # sum over modes i leaves one row per lowered state l
        np.take(w.y.reshape(nb, k * nq), self._source, axis=0, out=w.lowered,
                mode="clip")
        np.einsum("ij,ij->j", w.lowered.reshape(self.modes_battery, -1),
                  w.lower_factor, out=w.u.reshape(-1))
        # R_q^T back up to the N-particle space, one slot plane at a time
        np.take(w.u, self._target, axis=0, out=w.raised, mode="clip")
        np.einsum("ij,ij->j", w.raised.reshape(self._slots, -1),
                  w.raise_factor, out=w.z.reshape(-1))
        np.matmul(w.z.reshape(nb * k, nq), V.T, out=w.back)
        out = X * self._diag
        out += w.back.reshape(nb, k, mc).transpose(1, 0, 2)
        return out.reshape(k, self.dim)

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi)
        if np.iscomplexobj(psi):
            out = self._apply(np.concatenate([psi.real, psi.imag])
                              .reshape(-1, self.dim))
            half = out.shape[0] // 2
            return (out[:half] + 1j * out[half:]).reshape(psi.shape)
        return self._apply(psi.astype(float, copy=False)
                           .reshape(-1, self.dim)).reshape(psi.shape)

    def dense(self) -> np.ndarray:
        """Assemble the full matrix column by column (small dims only)."""
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
        """Battery ground state (all particles in mode 0) times one charger
        mode; valid because g_B = 0."""
        ground = tuple([self.num_particles] + [0] * (self.modes_battery - 1))
        b0 = self.battery_states.index(ground)
        psi = np.zeros(self.dim)
        psi[b0 * self.modes_charger + charger_level] = 1.0
        return psi

    def stored_work(self, psi: np.ndarray) -> float:
        X = np.abs(psi.reshape(self.battery_dim, self.modes_charger)) ** 2
        return float(self.work_diag @ X.sum(axis=1))


@dataclass
class LanczosPropagator:
    """Short-step Krylov approximation of exp(-i H dt) psi.

    Per step, builds an orthonormal Krylov basis with full (batched)
    reorthogonalization and applies the exponential of the tridiagonal
    projection.  The step is accepted once the result is stable under
    adding two more basis vectors (change below `tol`); otherwise the
    step size is halved.
    """

    operator: ProductSpaceOperator
    max_krylov: int = 80
    tol: float = 1e-11

    _stats: dict = field(default_factory=dict, repr=False)

    def step(self, psi: np.ndarray, dt: float):
        op = self.operator
        norm0 = np.linalg.norm(psi)
        if norm0 == 0.0:
            raise NumericalBreakdownError("cannot propagate the zero vector")
        m = self.max_krylov
        V = np.empty((m + 1, psi.size), dtype=complex)
        V[0] = psi / norm0
        alphas = np.empty(m)
        betas = np.empty(m)
        previous = None
        w = op.matvec(V[0])
        for j in range(m):
            a = np.vdot(V[j], w).real
            alphas[j] = a
            w = w - a * V[j]
            if j > 0:
                w = w - betas[j - 1] * V[j - 1]
            # batched full reorthogonalization (two BLAS-2 calls)
            c = V[: j + 1].conj() @ w
            w = w - V[: j + 1].T @ c
            b = np.linalg.norm(w)
            k = j + 1
            if k >= 2 and (k % 2 == 0 or b < 1e-14):
                T = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1) \
                    + np.diag(betas[: k - 1], -1)
                evals, evecs = np.linalg.eigh(T)
                small = evecs @ (np.exp(-1j * evals * dt) * evecs[0])
                if previous is not None:
                    pad = np.zeros(k, dtype=complex)
                    pad[: previous.size] = previous
                    if np.linalg.norm(small - pad) < self.tol:
                        out = (small @ V[:k]) * norm0
                        return out, {"krylov": k, "happy": False}
                previous = small
            if b < 1e-14:
                # invariant subspace: the projection is exact
                T = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1) \
                    + np.diag(betas[: k - 1], -1)
                evals, evecs = np.linalg.eigh(T)
                small = evecs @ (np.exp(-1j * evals * dt) * evecs[0])
                out = (small @ V[:k]) * norm0
                return out, {"krylov": k, "happy": True}
            V[j + 1] = w / b
            betas[j] = b
            w = op.matvec(V[j + 1])
        return None, {"krylov": m, "happy": False}

    def evolve(self, psi: np.ndarray, t_final: float, dt: float = 0.5):
        """Propagate to t_final, shrinking the step whenever the Krylov
        budget is exhausted.  Raises NumericalBreakdownError when the norm
        ends more than NORM_DRIFT_TOL away from the start's."""
        psi = psi.astype(complex)
        norm0 = np.linalg.norm(psi)
        t = 0.0
        halvings = 0
        while t < t_final - 1e-12:
            step = min(dt, t_final - t)
            nxt, info = self.step(psi, step)
            if nxt is None:
                dt *= 0.5
                halvings += 1
                if halvings > 40:
                    raise NumericalBreakdownError(
                        "Lanczos step size collapsed without convergence")
                continue
            psi = nxt
            t += step
        if abs(np.linalg.norm(psi) - norm0) > NORM_DRIFT_TOL:
            raise NumericalBreakdownError(
                "Lanczos propagation lost unitarity; norm drifted")
        return psi


def spectral_bounds(op: ProductSpaceOperator, iterations: int = 80,
                    pad: float = 0.03):
    """Estimated (lo, hi) enclosing spec(H), from extremal Ritz values of a
    reorthogonalized Lanczos run padded by `pad` * span on both sides."""
    rng = np.random.default_rng(1905)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    m = min(iterations, op.dim)
    V = np.empty((m + 1, op.dim))
    V[0] = v
    alphas = np.empty(m)
    betas = np.empty(m)
    w = op.matvec(V[0])
    k = m
    for j in range(m):
        a = V[j] @ w
        alphas[j] = a
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
        w = op.matvec(V[j + 1])
    T = np.diag(alphas[:k]) + np.diag(betas[: k - 1], 1) \
        + np.diag(betas[: k - 1], -1)
    evals = np.linalg.eigvalsh(T)
    # Ritz values sit inside the spectrum, so the padded Ritz range is an
    # estimate, not a bound; chebyshev_evolve's unitarity check catches a
    # range that turns out too tight
    lo, hi = evals[0], evals[-1]
    span = hi - lo
    return lo - pad * span, hi + pad * span


def chebyshev_evolve(op: ProductSpaceOperator, psi: np.ndarray, t: float,
                     bounds=None, tol: float = 1e-13):
    """One-shot Chebyshev expansion of exp(-i H t) psi.

    exp(-iHt) = e^{-iat} sum_m (2 - delta_m0)(-i)^m J_m(bt) T_m((H-a)/b)
    with [lo, hi] enclosing the spectrum, a the center and b the half-span.
    Uses the three-term recurrence on real rows (psi itself when it is real,
    else its real and imaginary parts, since H is real), so memory stays at
    a ring of _TERM_BLOCK vectors per row and no orthogonalization is
    needed.  The Bessel tail makes truncation errors drop
    superexponentially once m exceeds b*|t|.  Negative t rewinds the
    evolution (J_m flips sign with odd order, nothing else changes).
    """
    if bounds is None:
        bounds = spectral_bounds(op)
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
    keep = np.nonzero(np.abs(bess) > tol)[0]
    m_max = int(keep[-1]) if keep.size else 0
    coeff = ((-1j) ** orders[: m_max + 1]) * bess[: m_max + 1]
    coeff[1:] *= 2.0
    coeff *= np.exp(-1j * a * t)

    # mix[m] maps T_m of the rows onto the real and imaginary parts of
    # coeff[m] T_m psi.  The recurrence writes into a ring of _TERM_BLOCK
    # vectors, and each full ring joins the sum in one GEMM.
    psi = np.asarray(psi)
    rows = (np.stack([psi.real, psi.imag]) if np.iscomplexobj(psi)
            else psi.reshape(1, -1))
    k = rows.shape[0]
    re, im = coeff.real, coeff.imag
    mix = np.stack([np.stack([re, -im], -1), np.stack([im, re], -1)],
                   1)[:, :, :k]
    ring = np.empty((_TERM_BLOCK,) + rows.shape)
    ring[0] = rows
    out = np.zeros((2, rows.shape[1]))
    for start in range(0, m_max + 1, _TERM_BLOCK):
        stop = min(start + _TERM_BLOCK, m_max + 1)
        for m in range(max(start, 1), stop):
            phi, nxt = ring[(m - 1) % _TERM_BLOCK], ring[m % _TERM_BLOCK]
            h_phi = op.matvec(phi)
            np.subtract(h_phi, np.multiply(phi, a, out=nxt), out=nxt)
            if m == 1:
                nxt /= b
            else:
                nxt *= 2.0 / b
                nxt -= ring[(m - 2) % _TERM_BLOCK]
        n = stop - start
        out += (mix[start:stop].transpose(1, 0, 2).reshape(2, n * k)
                @ ring[:n].reshape(n * k, -1))
    drift = abs(np.linalg.norm(out) - np.linalg.norm(psi))
    if drift > NORM_DRIFT_TOL:
        raise NumericalBreakdownError(
            "Chebyshev propagation lost unitarity; spectral bounds too tight")
    return out[0] + 1j * out[1]


def propagate_work_series(op: ProductSpaceOperator, times, charger_level: int = 1,
                          method: str = "auto", dt: float = 0.5,
                          max_krylov: int = 80, tol: float = 1e-11):
    """Stored work W_B(t) on a sorted time grid via checkpointed stepping.

    method: "lanczos", "chebyshev", or "auto" (Chebyshev above dimension
    20000, where avoiding reorthogonalization pays off).
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0)
            or times[0] < 0):
        raise ConfigError("times must be a non-empty, sorted, non-negative "
                          "1-D grid")
    if method == "auto":
        method = "chebyshev" if op.dim > 20000 else "lanczos"
    psi = op.initial_state(charger_level)
    out = np.empty_like(times)
    current = 0.0
    if method == "chebyshev":
        bounds = spectral_bounds(op)
        for i, t in enumerate(times):
            if t > current:
                psi = chebyshev_evolve(op, psi, t - current, bounds=bounds)
                current = t
            out[i] = op.stored_work(psi)
    elif method == "lanczos":
        prop = LanczosPropagator(op, max_krylov=max_krylov, tol=tol)
        for i, t in enumerate(times):
            if t > current:
                psi = prop.evolve(psi, t - current, dt=dt)
                current = t
            out[i] = op.stored_work(psi)
    else:
        raise ConfigError(f"unknown propagation method: {method!r}")
    return out
