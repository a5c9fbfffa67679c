"""Second-quantized Hamiltonians on truncated oscillator-mode Fock bases.

The quench Hamiltonian splits as H1 = H0 + Hint with

    H0   = sum_sigma sum_i (i + 1/2) omega_sigma n_i
           + (g_B / 2) sum_{ijkl} U^B_{ijkl} a+_i a+_j a_l a_k (battery),
    Hint = g_BC sum_{ijkl} U^{BC}_{ijkl} a+_{B,i} a+_{C,j} a_{C,l} a_{B,k}.

Both contact terms come from the Gauss-Hermite factorization of U
(``integrals.contact_nodes``). With R_q = sum_k phi_k(x_q) b_k, the
stacked battery lowering map sampled at node x_q,

    Hint         = g_BC sum_q w_q R_q^T R_q (x) chi(x_q) chi(x_q)^T
                 = g_BC G^T G,
    battery term = (g_B / 2) sum_q w_q (R_q^T)^2 R_q^2 = (g_B / 2) K^T K,

with G[(q, b-), (b, c)] = sqrt(w_q) R_q[b-, b] chi_c(x_q) on the sector's
columns only, and K[(q, m), b] = sqrt(w_q) (R_q R_q)[m, b] on the rule of
the 2 omega_B Gaussian. The rows of G that share a lowered state b-, one
per node, touch at most M_B * M_C columns, and the rows of K that share an
(N-2)-particle state m touch M_B (M_B + 1) / 2, so each Gram product is a
sum of small dense blocks. Nothing is cached between builds. The
matrix-free operator in ``krylov.py`` applies the same node factors
without multiplying them out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import enumerate_fock_states, fock_parity
from .errors import ConfigError
from .integrals import contact_nodes


def _raising_table(states):
    """up[l, k]: index of lowered state l plus one particle in mode k, and
    amp[l, k] = sqrt(n_k + 1), so R_q[l, up[l, k]] = phi_k(x_q) amp[l, k].

    Every (l, k) pair is the lowering of exactly one state by b_k.  Returns
    up, amp and the lowered (N-1)-particle states in order of first
    appearance.
    """
    lowered = {}
    entries = []
    for ci, st in enumerate(states):
        for k, n in enumerate(st):
            if n > 0:
                low = list(st)
                low[k] -= 1
                entries.append((lowered.setdefault(tuple(low), len(lowered)),
                                k, ci, n))
    # reshape keeps four columns when nothing can be lowered (the vacuum)
    low, mode, col, occ = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    up = np.empty((len(lowered), len(states[0])), dtype=np.int64)
    amp = np.empty(up.shape)
    up[low, mode] = col
    amp[low, mode] = np.sqrt(occ)
    return up, amp, list(lowered)


def _gram(dim, blocks, parity):
    """Dense F^T F for a factor F given block by block.

    Each block is (cols, part): a set of rows of F that are zero outside the
    n distinct columns ``cols``, restricted to those columns and transposed
    to shape (n, rows).  Entries between opposite parities vanish
    analytically, but the node sum does not pair +x_q with -x_q and leaves
    round-off (~1e-17) there, so they are set to exact zeros.
    """
    out = np.zeros((dim, dim))
    for cols, part in blocks:
        gram = part @ part.T
        gram[parity[cols][:, None] != parity[cols][None, :]] = 0.0
        out[np.ix_(cols, cols)] += gram
    return out


def _battery_matrix(states, g_B, omega_B):
    """Dense battery Hamiltonian on its Fock basis: diagonal one-body part
    plus (g_B / 2) K^T K."""
    num_modes = len(states[0])
    h = np.diag(omega_B * np.array(states, dtype=float)
                @ (np.arange(num_modes) + 0.5))
    if g_B == 0.0:
        return h
    weights, phi, _ = contact_nodes(num_modes, num_modes, omega_B, omega_B)
    once, amp1, lowered = _raising_table(states)
    twice, amp2, _ = _raising_table(lowered)
    # K's rows for an (N-2)-state m hold R_q R_q[m, m + e_i + e_j]; b_i b_j
    # = b_j b_i, so the pair i < j is one column counted twice
    i, j = np.triu_indices(num_modes)
    targets = once[twice[:, i], j]
    coef = amp2[:, i] * amp1[twice[:, i], j] * np.where(i < j, 2.0, 1.0)
    nodes = phi[i] * phi[j] * np.sqrt(weights)
    parity = np.array([fock_parity(s) for s in states])
    blocks = ((cols, nodes * c[:, None]) for cols, c in zip(targets, coef))
    return h + 0.5 * g_B * _gram(len(states), blocks, parity)


@dataclass
class BatteryHamiltonian:
    """Battery-only Hamiltonian with its spectral decomposition."""

    num_particles: int
    num_modes: int
    g: float
    omega: float
    states: tuple
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return len(self.states)

    @property
    def ground_energy(self):
        return float(self.eigenvalues[0])

    @property
    def ground_state(self):
        return self.eigenvectors[:, 0]


def assemble_battery_only(num_particles, num_modes, g_B, omega_B):
    """Battery Hamiltonian on its own Fock basis, eigendecomposed.

    With g_B = 0 the matrix is diagonal and the decomposition is a sorted
    permutation; no dense solve is run in that case.
    """
    if num_particles < 1 or num_modes < 1:
        raise ConfigError("need num_particles >= 1 and num_modes >= 1")
    if omega_B <= 0:
        raise ConfigError("omega_B must be positive")
    states = enumerate_fock_states(num_particles, num_modes)
    h = _battery_matrix(states, g_B, omega_B)
    if g_B != 0.0:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    else:
        diag = np.diag(h)
        order = np.argsort(diag, kind="stable")
        eigenvalues = diag[order]
        eigenvectors = np.eye(len(states))[:, order]
    return BatteryHamiltonian(
        num_particles=num_particles, num_modes=num_modes, g=g_B, omega=omega_B,
        states=tuple(states), matrix=h,
        eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def embed_battery_operator(basis, op):
    """op (x) 1_C restricted to the sector, as CSR.

    ``op`` is a dense matrix on the battery Fock basis; its element (b, b')
    lands on ((b, c), (b', c)) for every charger mode c that keeps both
    pairs in the sector.
    """
    b, b2 = np.nonzero(op)
    rows = basis.index_matrix[b]                       # (nnz, M_C)
    cols = basis.index_matrix[b2]
    live = (rows >= 0) & (cols >= 0)
    vals = np.broadcast_to(op[b, b2][:, None], rows.shape)
    return sp.csr_matrix((vals[live], (rows[live], cols[live])),
                         shape=(basis.size, basis.size))


def _resolve_freqs(basis, omega_B, omega_C):
    wb = basis.battery.omega if omega_B is None else omega_B
    wc = basis.charger.omega if omega_C is None else omega_C
    if wb <= 0 or wc <= 0:
        raise ConfigError("frequencies must be positive")
    return wb, wc


def assemble_H0(basis, g_B, omega_B=None, omega_C=None):
    """Decoupled Hamiltonian on the composite sector basis.

    Frequencies default to the ones stored in the basis configs; passing
    them explicitly reuses the same basis structure across frequency scans.
    """
    wb, wc = _resolve_freqs(basis, omega_B, omega_C)
    battery = _battery_matrix(basis.battery_states, g_B, wb)
    h = embed_battery_operator(basis, battery).toarray()
    h[np.diag_indices_from(h)] += wc * (basis.charger_index + 0.5)
    return h


def assemble_Hint(basis, g_BC, omega_B=None, omega_C=None):
    """Contact battery-charger coupling on the composite sector basis."""
    wb, wc = _resolve_freqs(basis, omega_B, omega_C)
    dim = basis.size
    if g_BC == 0.0:
        return np.zeros((dim, dim))
    mb, mc = basis.battery.num_modes, basis.charger.num_modes
    weights, phi, chi = contact_nodes(mb, mc, wb, wc)
    up, amp, _ = _raising_table(basis.battery_states)
    # G's rows for lowered state l: sqrt(w_q) phi_k(x_q) amp[l, k] chi_c(x_q)
    # in column (up[l, k], c), kept where that pair lies in the sector
    nodes = (phi[:, None, :] * chi[None, :, :] * np.sqrt(weights)
             ).reshape(mb * mc, -1)
    cols = basis.index_matrix[up].reshape(len(up), -1)
    scale = np.repeat(amp, mc, axis=1)
    blocks = ((cols[l, live], nodes[live] * scale[l, live, None])
              for l, live in enumerate(cols >= 0))
    return g_BC * _gram(dim, blocks, composite_parity_vector(basis))


@dataclass
class HamiltonianSet:
    """Assembled H0, Hint and their sum for one configuration."""

    basis: object
    g_B: float
    g_BC: float
    omega_B: float
    omega_C: float
    h0: np.ndarray
    hint: np.ndarray

    @property
    def h1(self):
        return self.h0 + self.hint


# Side of the tiles _max_skew compares.  At D = 2184 the tiled check of H0
# and Hint takes about 40 ms against 140 ms for the full mat - mat.T.
_SKEW_TILE = 256


def _max_skew(mat):
    """max |a_ij - a_ji|, comparing each tile above the diagonal with its
    mirror tile instead of building the full mat - mat.T."""
    skew = 0.0
    for i in range(0, len(mat), _SKEW_TILE):
        rows = slice(i, i + _SKEW_TILE)
        for j in range(i, len(mat), _SKEW_TILE):
            cols = slice(j, j + _SKEW_TILE)
            tile = mat[rows, cols] - mat[cols, rows].T
            skew = max(skew, np.max(np.abs(tile)))
    return skew


def build_hamiltonian_set(basis, g_B, g_BC, omega_B=None, omega_C=None):
    """Assemble the full set and verify Hermiticity of each piece."""
    wb, wc = _resolve_freqs(basis, omega_B, omega_C)
    h0 = assemble_H0(basis, g_B, wb, wc)
    hint = assemble_Hint(basis, g_BC, wb, wc)
    for name, mat in (("H0", h0), ("Hint", hint)):
        skew = _max_skew(mat)
        if skew > 1e-12:
            raise AssertionError(f"{name} assembly lost Hermiticity: {skew}")
    return HamiltonianSet(basis=basis, g_B=g_B, g_BC=g_BC,
                          omega_B=wb, omega_C=wc, h0=h0, hint=hint)


def composite_parity_vector(basis):
    """Total parity of each kept pair (constant within a parity sector)."""
    bat = np.array([fock_parity(s) for s in basis.battery_states])
    chg = np.array([fock_parity(s) for s in basis.charger_states])
    return bat[basis.battery_index] * chg[basis.charger_index]
