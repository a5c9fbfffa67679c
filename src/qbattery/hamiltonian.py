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
sum of small dense blocks. The matrix-free operator in ``krylov.py``
applies G's node factors without multiplying them out.

What does not depend on omega_C or g_BC is built once per cutoff and
cached (``cutoff_model``): the sector basis, the battery Hamiltonian with
its eigendecomposition, H_B (x) 1_C on the sector as CSR, and the layout
of G's blocks with Hint's CSR pattern (``HintLayout``). A quench build
(``quench_hamiltonians``) then computes the node values and Gram blocks
into one dense buffer, gathers Hint's CSR data from it on the cached
pattern, adds the charger diagonal to get H0 as CSR, and adds H0 into the
buffer to form H1 = Hint + H0 for the eigensolver.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (CompositeBasis, build_composite_basis,
                    enumerate_fock_states, fock_parity)
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


def _block_positions(cols, dim):
    """Flat positions in a dim x dim buffer of the block on ``cols``."""
    return (cols[:, None] * dim + cols[None, :]).ravel()


def _parity_mask(parity, cols):
    """Entries of the block on ``cols`` that pair opposite parities."""
    return parity[cols][:, None] != parity[cols][None, :]


def _gram(dim, blocks):
    """Dense F^T F for a factor F given block by block, added in order.

    Each block is (cols, part, mask): a set of rows of F that are zero
    outside the n distinct columns ``cols``, restricted to those columns
    and transposed to shape (n, rows), and the entries of its n x n Gram
    block between opposite parities (None when there are none). Those
    vanish analytically, but the node sum does not pair +x_q with -x_q and
    leaves round-off (~1e-17) there, so they are set to exact zeros.
    """
    out = np.zeros((dim, dim))
    flat = out.reshape(-1)
    for cols, part, mask in blocks:
        gram = part @ part.T
        if mask is not None:
            gram[mask] = 0.0
        flat[_block_positions(cols, dim)] += gram.ravel()
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
    blocks = ((cols, nodes * c[:, None], _parity_mask(parity, cols))
              for cols, c in zip(targets, coef))
    return h + 0.5 * g_B * _gram(len(states), blocks)


@dataclass
class BatteryHamiltonian:
    """Battery-only Hamiltonian with its spectral decomposition.

    Every eigenvector lies in one parity block of the Fock basis;
    ``parities[k]`` is the parity of eigenvector k and ``state_parities[b]``
    that of Fock state b.
    """

    num_particles: int
    num_modes: int
    g: float
    omega: float
    states: tuple
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: np.ndarray
    state_parities: np.ndarray

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

    The interaction conserves parity, so each parity block is diagonalized
    on its own and every eigenvector has a definite parity, also within a
    degenerate pair of opposite parities. Eigenvalues come out ascending.
    With g_B = 0 the matrix is diagonal and the decomposition is a sorted
    permutation; no dense solve is run in that case.
    """
    if num_particles < 1 or num_modes < 1:
        raise ConfigError("need num_particles >= 1 and num_modes >= 1")
    if omega_B <= 0:
        raise ConfigError("omega_B must be positive")
    states = enumerate_fock_states(num_particles, num_modes)
    h = _battery_matrix(states, g_B, omega_B)
    state_parity = np.array([fock_parity(s) for s in states])
    if g_B == 0.0:
        eigenvalues, eigenvectors = np.diag(h), np.eye(len(states))
        parities = state_parity
    else:
        eigenvalues = np.empty(len(states))
        eigenvectors = np.zeros((len(states), len(states)))
        parities = np.empty(len(states), dtype=state_parity.dtype)
        start = 0
        for sign in (1, -1):
            block = np.flatnonzero(state_parity == sign)
            levels = slice(start, start + block.size)
            eigenvalues[levels], eigenvectors[block, levels] = \
                np.linalg.eigh(h[np.ix_(block, block)])
            parities[levels] = sign
            start += block.size
    order = np.argsort(eigenvalues, kind="stable")
    return BatteryHamiltonian(
        num_particles=num_particles, num_modes=num_modes, g=g_B, omega=omega_B,
        states=tuple(states), matrix=h, eigenvalues=eigenvalues[order],
        eigenvectors=eigenvectors[:, order], parities=parities[order],
        state_parities=state_parity)


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


def _sector_h0(basis, battery_csr, omega_C):
    """H0 as CSR: H_B (x) 1_C on the sector plus the charger's one-body
    diagonal."""
    charger = omega_C * (basis.charger_index + 0.5)
    return battery_csr + sp.diags(charger, format="csr")


def assemble_H0(basis, g_B, omega_B=None, omega_C=None):
    """Decoupled Hamiltonian on the composite sector basis, dense.

    Frequencies default to the ones stored in the basis configs; passing
    them explicitly reuses the same basis structure across frequency scans.
    """
    wb, wc = _resolve_freqs(basis, omega_B, omega_C)
    battery = _battery_matrix(basis.battery_states, g_B, wb)
    return _sector_h0(basis, embed_battery_operator(basis, battery),
                      wc).toarray()


@dataclass(frozen=True)
class HintLayout:
    """Where the node products of Hint = g_BC G^T G go on one sector basis;
    none of it depends on omega_C or g_BC.

    ``rows`` and ``scale`` list the rows of G's blocks, blocks concatenated:
    the node row k M_C + c of each and its raising-table amplitude. ``blocks`` holds, per lowered battery state, the slice
    of those rows, the sector columns they touch and the Gram entries
    between opposite composite parities (None in a parity sector, which
    has none). ``indptr`` and ``indices`` are Hint's CSR pattern: every
    position some block fills. The arrays are read-only.
    """

    rows: np.ndarray
    scale: np.ndarray
    blocks: tuple
    indptr: np.ndarray
    indices: np.ndarray


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def hint_layout(basis):
    """The HintLayout of a sector basis, from its raising table and
    composite parity vector."""
    dim, mc = basis.size, basis.charger.num_modes
    up, amp, _ = _raising_table(basis.battery_states)
    # G's rows for lowered state l: sqrt(w_q) phi_k(x_q) amp[l, k] chi_c(x_q)
    # in column (up[l, k], c), kept where that pair lies in the sector
    cols = basis.index_matrix[up].reshape(len(up), -1)
    scale = np.repeat(amp, mc, axis=1)
    parity = composite_parity_vector(basis)
    filled = np.zeros(dim * dim, dtype=bool)
    rows, scales, blocks, start = [], [], [], 0
    for l, live in enumerate(cols >= 0):
        node_rows = np.flatnonzero(live)
        kept = _frozen(cols[l, node_rows])
        mask = _parity_mask(parity, kept)
        filled[_block_positions(kept, dim)[~mask.ravel()]] = True
        blocks.append((slice(start, start + kept.size), kept,
                       _frozen(mask) if mask.any() else None))
        rows.append(node_rows)
        scales.append(scale[l, node_rows])
        start += kept.size
    gather = np.flatnonzero(filled)
    return HintLayout(
        rows=_frozen(np.concatenate(rows)),
        scale=_frozen(np.concatenate(scales)), blocks=tuple(blocks),
        indptr=_frozen(np.searchsorted(
            gather, np.arange(dim + 1) * dim).astype(np.int32)),
        indices=_frozen((gather % dim).astype(np.int32)))


def assemble_Hint(basis, g_BC, omega_B=None, omega_C=None, layout=None):
    """Contact battery-charger coupling on the composite sector basis,
    dense: g_BC times the Gram blocks of ``layout``, the basis's
    HintLayout (built here when not given), in the order of the lowered
    states."""
    wb, wc = _resolve_freqs(basis, omega_B, omega_C)
    dim = basis.size
    if g_BC == 0.0:
        return np.zeros((dim, dim))
    if layout is None:
        layout = hint_layout(basis)
    parts = _hint_parts(basis, layout, wb, wc)
    out = _gram(dim, ((kept, parts[rows], mask)
                      for rows, kept, mask in layout.blocks))
    out *= g_BC
    return out


def _hint_parts(basis, layout, omega_B, omega_C):
    """The rows of G, one per entry of ``layout.rows``, node-sampled."""
    mb, mc = basis.battery.num_modes, basis.charger.num_modes
    weights, phi, chi = contact_nodes(mb, mc, omega_B, omega_C)
    nodes = (phi[:, None, :] * chi[None, :, :] * np.sqrt(weights)
             ).reshape(mb * mc, -1)
    return nodes[layout.rows] * layout.scale[:, None]


def _hint_grams(basis, layout):
    """(kept, gram, mask) per block of Hint / g_BC, the opposite-parity
    entries ``mask`` zeroed, frequencies from the basis configs."""
    wb, wc = _resolve_freqs(basis, None, None)
    parts = _hint_parts(basis, layout, wb, wc)
    for rows, kept, mask in layout.blocks:
        gram = parts[rows] @ parts[rows].T
        if mask is not None:
            gram[mask] = 0.0
        yield kept, gram, mask


def hint_probe(basis, model, g_BC, psi):
    """(Hint psi, a bound on ||Hint||) from the Gram blocks alone: nothing
    of size D^2 and no CSR is built. The bound is the largest row sum of
    |g_BC| times the blocks' absolute values, which is at least the largest
    absolute row sum of Hint and so its 2-norm."""
    image = np.zeros(basis.size)
    row_sums = np.zeros(basis.size)
    for kept, gram, _ in _hint_grams(basis, model.hint_layout):
        image[kept] += gram @ psi[kept]
        row_sums[kept] += np.abs(gram).sum(axis=1)
    return g_BC * image, abs(g_BC) * float(row_sums.max(initial=0.0))


def quench_operators(basis, model, g_BC):
    """(h0, hint) as CSR for one quench, like ``quench_hamiltonians`` but
    with no dense matrix: the Gram blocks are summed straight into Hint's
    CSR data on the cached pattern, block by block in the same order, so
    the entries are those the dense buffer would hold. Both are checked
    for symmetry."""
    wb, wc = _resolve_freqs(basis, None, None)
    h0 = _sector_h0(basis, model.battery_csr, wc)
    layout = model.hint_layout
    dim = basis.size
    # the flat buffer position of each pattern entry, ascending
    flat = (np.repeat(np.arange(dim, dtype=np.int64), np.diff(layout.indptr))
            * dim + layout.indices)
    data = np.zeros(flat.size)
    for kept, gram, mask in _hint_grams(basis, layout):
        # the pattern holds every position of a block but the masked ones
        inside = slice(None) if mask is None else ~mask.ravel()
        positions = _block_positions(kept, dim)[inside]
        data[np.searchsorted(flat, positions)] += gram.ravel()[inside]
    data *= g_BC
    hint = sp.csr_matrix((data, layout.indices.copy(), layout.indptr.copy()),
                         shape=(dim, dim))
    hint.eliminate_zeros()
    for name, mat in (("H0", h0), ("Hint", hint)):
        skew = abs(mat - mat.T).max() if mat.nnz else 0.0
        if skew > 1e-12:
            raise AssertionError(f"{name} assembly lost Hermiticity: {skew}")
    return h0, hint


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


def quench_hamiltonians(basis, model, g_BC):
    """(h1, h0, hint) for one quench, frequencies from the basis configs and
    structure from the CutoffModel ``model``.

    H0 and Hint come back as CSR. H1 is the one dense matrix: the Hint
    buffer from assemble_Hint, with Hint's CSR data gathered from it on
    the cached pattern first and each entry of H0 then added once (hint +
    h0, the same float sum as h0 + hint). The caller owns h1 and may
    overwrite it.
    """
    wb, wc = _resolve_freqs(basis, None, None)
    h0 = _sector_h0(basis, model.battery_csr, wc)
    layout = model.hint_layout
    h1 = assemble_Hint(basis, g_BC, wb, wc, layout)
    dim = len(h1)
    # the flat buffer position of each pattern entry, in CSR order
    rows = np.repeat(np.arange(dim), np.diff(layout.indptr))
    data = h1.reshape(-1)[rows * dim + layout.indices]
    if data.all():
        hint = sp.csr_matrix((data, layout.indices, layout.indptr),
                             shape=h1.shape)
    else:   # drop the zeros, as sp.csr_matrix(h1) would
        hint = sp.csr_matrix((data, layout.indices.copy(),
                              layout.indptr.copy()), shape=h1.shape)
        hint.eliminate_zeros()
    rows = np.repeat(np.arange(dim), np.diff(h0.indptr))
    h1[rows, h0.indices] += h0.data
    skew = _max_skew(h1)
    if skew > 1e-12:
        raise AssertionError(f"H1 assembly lost Hermiticity: {skew}")
    return h1, h0, hint


@dataclass(frozen=True)
class CutoffModel:
    """What every quench build at one cutoff shares: it depends on neither
    omega_C nor g_BC.

    That is the sector basis, the battery Hamiltonian with its
    eigendecomposition, H_B (x) 1_C on the sector as CSR, and the
    HintLayout: the Gram block of each lowered battery state and Hint's
    CSR pattern. A build computes only the node products, their Gram
    blocks and two gathers.

    ``basis.charger.omega`` is that of the build that made the model; a
    build with another omega_C replaces the charger config.
    """

    basis: CompositeBasis
    battery: BatteryHamiltonian
    battery_csr: sp.csr_matrix      # H_B (x) 1_C on the sector
    hint_layout: HintLayout


_model_cache = {}
_model_lock = threading.Lock()


def cutoff_model(battery, charger, g_B, sector, cap):
    """The CutoffModel of two SpeciesConfigs, a battery coupling, a parity
    sector and a basis cap, cached on everything but the charger
    frequency. Safe to call from scan workers: a model is built outside
    the lock, and two threads that miss together both build it."""
    key = (battery.num_particles, battery.num_modes, charger.num_modes,
           float(g_B), float(battery.omega), sector, cap)
    with _model_lock:
        model = _model_cache.get(key)
    if model is not None:
        return model
    basis = build_composite_basis(battery, charger, sector=sector, cap=cap)
    bat = assemble_battery_only(battery.num_particles, battery.num_modes,
                                g_B, battery.omega)
    model = CutoffModel(basis=basis, battery=bat,
                        battery_csr=embed_battery_operator(basis, bat.matrix),
                        hint_layout=hint_layout(basis))
    with _model_lock:
        _model_cache[key] = model
    return model
