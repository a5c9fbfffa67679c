"""Matrix-free evolution on the full battery x charger product space.

The interaction is applied in its quadrature-factorized form

    H_int = g sum_q w_q (R_q^dag R_q) (x) (v_q v_q^T),

where R_q = sum_k phi_k(x_q) b_k annihilates a battery particle at the
Gauss-Hermite node x_q and v_q[j] = chi_j(x_q) samples the charger modes.
The lowering map comes from ``hamiltonian._lowering_matrix`` and the nodes,
weights and mode values from ``integrals.contact_nodes``, the same factors
``hamiltonian.py`` multiplies out into the dense sector matrices; here they
act on the full product space, without the parity restriction.
Each matvec therefore costs O(Q * D * M) instead of touching an assembled
matrix, which keeps doubled-cutoff runs (dimensions in the tens of
thousands) affordable.  Two propagators are provided: a short-step
Lanczos scheme with full reorthogonalization, and a one-shot Chebyshev
expansion of exp(-iHt) that wins for long horizons because it needs no
basis storage or reorthogonalization.

Only the non-interacting battery (g_B = 0) is supported here; the dense
pipeline covers interacting batteries at production cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import jv

from .basis import enumerate_fock_states
from .errors import ConfigError, NumericalBreakdownError
from .hamiltonian import _lowering_matrix
from .integrals import contact_nodes

__all__ = [
    "ProductSpaceOperator",
    "LanczosPropagator",
    "spectral_bounds",
    "chebyshev_evolve",
    "propagate_work_series",
]


@dataclass
class ProductSpaceOperator:
    """H = H_B (x) 1 + 1 (x) H_C + g_BC * factorized contact coupling, acting
    on vectors shaped (battery_dim * charger_modes,).  Battery is ideal
    (g_B = 0), so both bare pieces are diagonal in the Fock product basis."""

    num_particles: int
    modes_battery: int
    modes_charger: int
    g_BC: float
    omega_B: float = 1.0
    omega_C: float = 1.0

    def __post_init__(self):
        if self.num_particles < 1:
            raise ConfigError("need at least one battery particle")
        if self.modes_battery < 2 or self.modes_charger < 2:
            raise ConfigError("need at least two modes per species")
        states = enumerate_fock_states(self.num_particles, self.modes_battery)
        self.battery_states = states
        self.battery_dim = len(states)
        self._lower, lowered = _lowering_matrix(states)
        self._raise = self._lower.T.tocsr()
        self.lowered_dim = len(lowered)

        occ = np.array(states, dtype=float)
        levels = np.arange(self.modes_battery) + 0.5
        self.battery_diag = self.omega_B * occ @ levels
        self.work_diag = self.omega_B * occ @ np.arange(self.modes_battery, dtype=float)
        self.charger_diag = self.omega_C * (np.arange(self.modes_charger) + 0.5)

        (self.node_weights, self.battery_modes_at_nodes,
         self.charger_modes_at_nodes) = contact_nodes(
            self.modes_battery, self.modes_charger, self.omega_B, self.omega_C)
        self.num_nodes = self.node_weights.size

    @property
    def dim(self) -> int:
        return self.battery_dim * self.modes_charger

    def _interaction(self, X: np.ndarray) -> np.ndarray:
        """g * sum_q w_q R_q^dag R_q X v_q v_q^T for X of shape (D_B, M_C)."""
        V = self.charger_modes_at_nodes  # (M_C, Q)
        Phi = self.battery_modes_at_nodes  # (M_B, Q)
        Y = X @ V  # (D_B, Q)
        S = (self._lower @ Y).reshape(self.modes_battery, self.lowered_dim,
                                      self.num_nodes)
        U = np.einsum("kq,kdq->dq", Phi, S)  # R_q Y[:, q] at every node
        W = (Phi[:, None, :] * U[None, :, :]).reshape(-1, self.num_nodes)
        Z = self._raise @ W  # R_q^dag back up to the N-particle space
        return self.g_BC * (Z * self.node_weights) @ V.T

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        X = psi.reshape(self.battery_dim, self.modes_charger)
        out = self.battery_diag[:, None] * X + X * self.charger_diag[None, :]
        out = out + self._interaction(X)
        return out.reshape(-1)

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
        psi = np.zeros(self.dim, dtype=complex)
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
        budget is exhausted."""
        psi = psi.astype(complex)
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
    # Ritz values sit inside the spectrum; the diagonal range bounds how far
    # the padding can possibly need to stretch
    lo, hi = evals[0], evals[-1]
    span = hi - lo
    return lo - pad * span, hi + pad * span


def chebyshev_evolve(op: ProductSpaceOperator, psi: np.ndarray, t: float,
                     bounds=None, tol: float = 1e-13):
    """One-shot Chebyshev expansion of exp(-i H t) psi.

    exp(-iHt) = e^{-iat} sum_m (2 - delta_m0)(-i)^m J_m(bt) T_m((H-a)/b)
    with [lo, hi] enclosing the spectrum, a the center and b the half-span.
    Uses the three-term recurrence, so memory stays at three vectors and no
    orthogonalization is needed.  The Bessel tail makes truncation errors
    drop superexponentially once m exceeds b*|t|.  Negative t rewinds the
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

    def scaled(v):
        return (op.matvec(v) - a * v) / b

    phi_prev = psi.astype(complex)
    out = coeff[0] * phi_prev
    if m_max >= 1:
        phi = scaled(phi_prev)
        out += coeff[1] * phi
        for m in range(2, m_max + 1):
            phi_prev, phi = phi, 2.0 * scaled(phi) - phi_prev
            out += coeff[m] * phi
    drift = abs(np.linalg.norm(out) - np.linalg.norm(psi))
    if drift > 1e-8:
        raise NumericalBreakdownError(
            "Chebyshev propagation lost unitarity; spectral bounds too tight")
    return out


def propagate_work_series(op: ProductSpaceOperator, times, charger_level: int = 1,
                          method: str = "auto", dt: float = 0.5,
                          max_krylov: int = 80, tol: float = 1e-11):
    """Stored work W_B(t) on a sorted time grid via checkpointed stepping.

    method: "lanczos", "chebyshev", or "auto" (Chebyshev above dimension
    20000, where avoiding reorthogonalization pays off).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) < 0) or times[0] < 0:
        raise ConfigError("times must be a sorted non-negative 1-D grid")
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
