"""Hamiltonian assembly against first-quantized brute-force references."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from qbattery import hamiltonian
from qbattery.basis import (ParitySector, Species, SpeciesConfig,
                            build_composite_basis, fock_energy, fock_parity)
from qbattery.dynamics import SimulationConfig
from qbattery.errors import ConfigError
from qbattery.hamiltonian import (assemble_battery_only, assemble_H0,
                                  assemble_Hint, build_hamiltonian_set,
                                  composite_parity_vector)
from qbattery.integrals import contact_nodes, two_body_contact


def make_basis(num_particles=2, modes=6, omega_C=1.0,
               sector=ParitySector.ODD):
    battery = SpeciesConfig(Species.BATTERY, omega=1.0, num_modes=modes,
                            num_particles=num_particles)
    charger = SpeciesConfig(Species.CHARGER, omega=omega_C, num_modes=modes,
                            num_particles=1)
    return build_composite_basis(battery, charger, sector)


def pair_element(bra, ket, omega, g):
    """<bra| g delta(x1 - x2) |ket> for two bosons in one trap.

    Brute force from symmetrized first-quantized wavefunctions: the
    element reduces to a single contact integral with a multiplicity
    factor of sqrt(2) for each doubly-occupied side.
    """
    (a, b) = bra
    (c, d) = ket
    factor = g
    if a == b:
        factor /= math.sqrt(2.0)
    if c == d:
        factor /= math.sqrt(2.0)
    return 2.0 * factor * two_body_contact(a, c, b, d, omega, omega)


def apply_annihilate(amp, occ, mode):
    """a_mode on amp |occ>; (0, None) when the mode is empty."""
    if occ[mode] == 0:
        return 0.0, None
    out = list(occ)
    out[mode] -= 1
    return amp * math.sqrt(occ[mode]), tuple(out)


def apply_create(amp, occ, mode):
    out = list(occ)
    out[mode] += 1
    return amp * math.sqrt(out[mode]), tuple(out)


def battery_pair_reference(states, g, omega):
    """(g/2) sum_ijkl U_ijkl a+_i a+_j a_l a_k, applied state by state."""
    modes = len(states[0])
    index = {s: n for n, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for col, occ in enumerate(states):
        for k in range(modes):
            amp_k, occ_k = apply_annihilate(1.0, occ, k)
            if occ_k is None:
                continue
            for l in range(modes):
                amp_l, occ_l = apply_annihilate(amp_k, occ_k, l)
                if occ_l is None:
                    continue
                for j in range(modes):
                    amp_j, occ_j = apply_create(amp_l, occ_l, j)
                    for i in range(modes):
                        amp_i, occ_i = apply_create(amp_j, occ_j, i)
                        u = two_body_contact(i, j, k, l, omega, omega)
                        h[index[occ_i], col] += 0.5 * g * u * amp_i
    return h


def coupling_reference(basis, g, omega_B, omega_C):
    """g sum_ijkl U_ijkl a+_{B,i} a+_{C,j} a_{C,l} a_{B,k} on sector pairs."""
    modes_b = basis.battery.num_modes
    index = {s: n for n, s in enumerate(basis.battery_states)}
    h = np.zeros((basis.size, basis.size))
    for col, (bi, l) in enumerate(basis.kept_pairs):
        occ = basis.battery_states[bi]
        for k in range(modes_b):
            amp_k, occ_k = apply_annihilate(1.0, occ, k)
            if occ_k is None:
                continue
            for i in range(modes_b):
                amp_i, occ_i = apply_create(amp_k, occ_k, i)
                for j in range(basis.charger.num_modes):
                    row = basis.pair_index(index[occ_i], j)
                    if row >= 0:
                        u = two_body_contact(i, j, k, l, omega_B, omega_C)
                        h[row, col] += g * u * amp_i
    return h


def occupations_to_pair(occ):
    modes = [m for m, n in enumerate(occ) for _ in range(n)]
    assert len(modes) == 2
    return tuple(modes)


def test_battery_free_spectrum_is_fock_energies():
    bat = assemble_battery_only(2, 5, 0.0, 1.0)
    want = sorted(fock_energy(s, 1.0) for s in bat.states)
    np.testing.assert_allclose(bat.eigenvalues, want, atol=1e-12)
    # eigenvectors are a permutation of the identity
    np.testing.assert_allclose(np.abs(bat.eigenvectors).sum(axis=0),
                               np.ones(bat.dim), atol=0)


def test_battery_single_mode_interacting_energy():
    # two bosons in one mode: E = 1 + sqrt(1/(2 pi))
    bat = assemble_battery_only(2, 1, 1.0, 1.0)
    assert bat.dim == 1
    assert bat.ground_energy == pytest.approx(1.0 + 1.0 / math.sqrt(2 * math.pi),
                                              abs=1e-13)


def test_battery_interaction_matches_first_quantized_pair():
    g = 0.37
    bat = assemble_battery_only(2, 4, g, 1.0)
    for r, occ_r in enumerate(bat.states):
        for c, occ_c in enumerate(bat.states):
            want = pair_element(occupations_to_pair(occ_r),
                                occupations_to_pair(occ_c), 1.0, g)
            if r == c:
                want += fock_energy(occ_r, 1.0)
            assert bat.matrix[r, c] == pytest.approx(want, abs=1e-12), \
                (occ_r, occ_c)


def test_battery_hamiltonian_is_hermitian_and_parity_block():
    bat = assemble_battery_only(3, 5, 0.8, 1.0)
    np.testing.assert_allclose(bat.matrix, bat.matrix.T, atol=0)
    par = np.array([fock_parity(s) for s in bat.states])
    cross = bat.matrix[np.ix_(par == 1, par == -1)]
    assert np.abs(cross).max() == 0.0


@pytest.mark.parametrize("num_particles, g", [(2, 3.0), (3, -0.5), (3, 0.0)])
def test_battery_eigenvectors_have_definite_parity(num_particles, g):
    bat = assemble_battery_only(num_particles, 6, g, 1.0)
    par = np.array([fock_parity(s) for s in bat.states])
    # zero outside their own parity block, not merely small
    assert not np.any(bat.eigenvectors[par[:, None] != bat.parities[None, :]])
    assert np.all(np.diff(bat.eigenvalues) >= 0.0)
    np.testing.assert_allclose(bat.matrix @ bat.eigenvectors,
                               bat.eigenvectors * bat.eigenvalues,
                               rtol=0, atol=1e-12)
    for sign in (1, -1):
        block = bat.matrix[np.ix_(par == sign, par == sign)]
        np.testing.assert_allclose(bat.eigenvalues[bat.parities == sign],
                                   np.linalg.eigvalsh(block),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", [
    "battery-N3", "hint-N2-ODD", "hint-N2-FULL", "hint-N3-ODD", "hint-N3-FULL",
])
def test_matches_second_quantized_reference(case):
    kind, n, *sector = case.split("-")
    num_particles = int(n[1:])
    if kind == "battery":
        bat = assemble_battery_only(num_particles, 4, -0.7, 1.3)
        want = battery_pair_reference(bat.states, -0.7, 1.3)
        want += np.diag([fock_energy(s, 1.3) for s in bat.states])
        np.testing.assert_allclose(bat.matrix, want, rtol=0, atol=1e-12)
        return
    basis = make_basis(num_particles=num_particles, modes=5, omega_C=1.7,
                       sector=ParitySector[sector[0]])
    want = coupling_reference(basis, 0.23, 1.0, 1.7)
    np.testing.assert_allclose(assemble_Hint(basis, 0.23), want,
                               rtol=0, atol=1e-12)


def test_h0_diagonal_without_battery_interaction():
    basis = make_basis(num_particles=2, modes=5, omega_C=1.7)
    h0 = assemble_H0(basis, g_B=0.0)
    np.testing.assert_allclose(h0, np.diag(np.diag(h0)), atol=0)
    for k, (bi, ci) in enumerate(basis.kept_pairs):
        want = (fock_energy(basis.battery_states[bi], 1.0)
                + 1.7 * (ci + 0.5))
        assert h0[k, k] == pytest.approx(want, abs=1e-12)


def test_h0_battery_term_acts_identically_on_charger_blocks():
    basis = make_basis(num_particles=2, modes=5)
    h0 = assemble_H0(basis, g_B=0.9)
    bat = assemble_battery_only(2, 5, 0.9, 1.0)
    # every composite element equals the battery-only element when the
    # charger index is shared, zero otherwise
    for r, (bi, ci) in enumerate(basis.kept_pairs):
        for c, (bj, cj) in enumerate(basis.kept_pairs):
            if r == c:
                continue
            want = bat.matrix[bi, bj] if ci == cj else 0.0
            assert h0[r, c] == pytest.approx(want, abs=1e-12)


def test_hint_single_battery_particle_is_contact_tensor():
    # one battery particle: the coupling element is g_BC U_{b c b' c'}
    basis = make_basis(num_particles=1, modes=5, omega_C=2.3)
    g = 0.11
    hint = assemble_Hint(basis, g)
    for r, (bi, ci) in enumerate(basis.kept_pairs):
        b = int(np.flatnonzero(basis.battery_states[bi])[0])
        for c, (bj, cj) in enumerate(basis.kept_pairs):
            bp = int(np.flatnonzero(basis.battery_states[bj])[0])
            want = g * two_body_contact(b, ci, bp, cj, 1.0, 2.3)
            assert hint[r, c] == pytest.approx(want, abs=1e-12)


def test_hint_hermitian_and_parity_preserving():
    basis = make_basis(num_particles=2, modes=6, sector=ParitySector.FULL)
    hint = assemble_Hint(basis, 0.1)
    np.testing.assert_allclose(hint, hint.T, atol=1e-14)
    par = composite_parity_vector(basis)
    cross = hint[np.ix_(par == 1, par == -1)]
    assert np.abs(cross).max() == 0.0


def test_full_sector_consistent_with_parity_blocks():
    odd = make_basis(num_particles=2, modes=5, sector=ParitySector.ODD)
    full = make_basis(num_particles=2, modes=5, sector=ParitySector.FULL)
    h_odd = assemble_Hint(odd, 0.2)
    h_full = assemble_Hint(full, 0.2)
    # map odd-sector pairs into the full basis
    lookup = {pair: k for k, pair in enumerate(full.kept_pairs)}
    sel = np.array([lookup[pair] for pair in odd.kept_pairs])
    np.testing.assert_allclose(h_odd, h_full[np.ix_(sel, sel)], atol=1e-14)


def test_hamiltonian_set_h1_sum():
    basis = make_basis(num_particles=2, modes=5)
    hs = build_hamiltonian_set(basis, g_B=0.3, g_BC=0.1)
    np.testing.assert_allclose(hs.h1, hs.h0 + hs.hint, atol=0)


def test_hermiticity_check_catches_one_asymmetric_entry(monkeypatch):
    # the sector spans several 256 x 256 tiles, so the bad entry sits in a
    # corner tile that is compared with its mirror tile
    basis = make_basis(num_particles=2, modes=12)
    assert basis.size > 256
    hint = assemble_Hint(basis, 0.1)
    hint[0, basis.size - 1] += 1e-11
    monkeypatch.setattr(hamiltonian, "assemble_Hint", lambda *args: hint)
    with pytest.raises(AssertionError,
                       match="Hint assembly lost Hermiticity"):
        build_hamiltonian_set(basis, g_B=0.0, g_BC=0.1)


def test_assemble_validation():
    with pytest.raises(ConfigError):
        assemble_battery_only(0, 4, 0.0, 1.0)
    with pytest.raises(ConfigError):
        assemble_battery_only(2, 4, 0.0, -1.0)
    basis = make_basis()
    with pytest.raises(ConfigError):
        assemble_H0(basis, 0.0, omega_C=-2.0)


def reference_quench(basis, battery_csr, g_BC):
    """(h1, hint) assembled without cached structure: a fresh raising table,
    each Gram block added through np.ix_ (none at g_BC = 0), Hint's CSR
    scanned from the dense buffer, and H0's entries added from its COO
    form."""
    wb, wc = basis.battery.omega, basis.charger.omega
    mb, mc = basis.battery.num_modes, basis.charger.num_modes
    weights, phi, chi = contact_nodes(mb, mc, wb, wc)
    up, amp, _ = hamiltonian._raising_table(basis.battery_states)
    nodes = (phi[:, None, :] * chi[None, :, :] * np.sqrt(weights)
             ).reshape(mb * mc, -1)
    cols = basis.index_matrix[up].reshape(len(up), -1)
    scale = np.repeat(amp, mc, axis=1)
    parity = composite_parity_vector(basis)
    h1 = np.zeros((basis.size, basis.size))
    for l, live in enumerate(cols >= 0 if g_BC else []):
        kept = cols[l, live]
        part = nodes[live] * scale[l, live, None]
        gram = part @ part.T
        gram[parity[kept][:, None] != parity[kept][None, :]] = 0.0
        h1[np.ix_(kept, kept)] += gram
    if g_BC:
        h1 *= g_BC
    hint = sp.csr_matrix(h1)
    h0 = (battery_csr + sp.diags(wc * (basis.charger_index + 0.5),
                                 format="csr")).tocoo()
    h1[h0.row, h0.col] += h0.data
    return h1, hint


def quench_case(g_B, sector, g_BC=0.1, omega_C=5.01, num_particles=2,
                modes=8):
    cfg = SimulationConfig(num_particles=num_particles, omega_C=omega_C,
                           g_BC=g_BC, g_B=g_B, modes_battery=modes,
                           modes_charger=modes, sector=sector, target_n=4)
    model = cfg.cutoff_model()
    basis = dataclasses.replace(model.basis, charger=cfg.charger_config())
    return basis, model


@pytest.mark.parametrize("sector", [ParitySector.ODD, ParitySector.EVEN])
@pytest.mark.parametrize("g_B", [0.0, 3.0])
def test_cached_hint_pattern_is_the_dense_scan(g_B, sector):
    basis, model = quench_case(g_B, sector)
    _, _, hint = hamiltonian.quench_hamiltonians(basis, model, 0.1)
    scanned = sp.csr_matrix(assemble_Hint(basis, 0.1))
    layout = model.hint_layout
    assert hint.nnz > 0
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(hint, name), getattr(scanned, name))
    assert np.array_equal(layout.indptr, scanned.indptr)
    assert np.array_equal(layout.indices, scanned.indices)
    assert not layout.indices.flags.writeable


@pytest.mark.parametrize("g_B, sector, g_BC", [
    (0.0, ParitySector.ODD, 0.1), (3.0, ParitySector.EVEN, 0.1),
    (-0.5, ParitySector.FULL, -0.2), (3.0, ParitySector.ODD, 0.0)])
def test_quench_assembly_is_bit_identical_to_the_uncached_one(g_B, sector,
                                                              g_BC):
    # a negative g_BC checks the signed zeros too; g_BC = 0 an empty Hint
    basis, model = quench_case(g_B, sector, g_BC=g_BC)
    h1, h0, hint = hamiltonian.quench_hamiltonians(basis, model, g_BC)
    want_h1, want_hint = reference_quench(basis, model.battery_csr, g_BC)
    assert h1.tobytes() == want_h1.tobytes()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(hint, name), getattr(want_hint, name))
    assert np.array_equal(h0.toarray(), assemble_H0(basis, g_B))


def test_hint_drops_a_value_that_cancels_to_zero(monkeypatch):
    # a pattern entry whose value is an exact zero is no CSR nonzero, and
    # dropping it leaves the cached pattern as it was
    basis, model = quench_case(0.0, ParitySector.ODD)
    real = hamiltonian.assemble_Hint

    def cancelled(*args):
        out = real(*args)
        out[0, 0] = 0.0
        return out

    monkeypatch.setattr(hamiltonian, "assemble_Hint", cancelled)
    _, _, hint = hamiltonian.quench_hamiltonians(basis, model, 0.1)
    scanned = sp.csr_matrix(cancelled(basis, 0.1))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(hint, name), getattr(scanned, name))
    assert model.hint_layout.indices.size == hint.nnz + 1
