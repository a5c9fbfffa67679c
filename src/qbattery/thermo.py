"""Charging thermodynamics: reduced battery state, work, ergotropy, bounds.

Conventions:
  stored work      W_B(t)   = Tr[H_B rho_B(t)] - E_B_ground
  ergotropy        sum_i (p_i - lambda_i) eps_i  with lambda descending,
                   battery energies eps ascending, p_i = <psi_i|rho_B|psi_i>
  irreversible work W_irr(t) = Tr[H0 (rho(t) - rho(0))]
  QSL time         pi / (2 sqrt(<H^2> - <H>^2))  (Mandelstam-Tamm)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoTransferError, NumericalBreakdownError

_CLIP_FLOOR = -1e-10
_CLIP_BUDGET = 1e-8
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class BatteryDensityMatrix:
    """Reduced battery state with its (clipped) eigenvalues, descending."""

    rho: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self):
        return self.rho.shape[0]

    def projections(self, battery_h):
        """Populations p_i in the battery energy eigenbasis."""
        v = battery_h.eigenvectors
        return np.einsum("ai,ab,bi->i", v.conj(), self.rho, v,
                         optimize=True).real


def _clip_spectrum(raw):
    lam = np.sort(raw)[::-1].copy()
    negative = lam[lam < 0.0]
    if negative.size:
        if lam.min() < _CLIP_FLOOR or -negative.sum() >= _CLIP_BUDGET:
            raise NumericalBreakdownError(
                f"density matrix spectrum has negative mass "
                f"{-negative.sum():.3e} (min eigenvalue {lam.min():.3e})")
        lam[lam < 0.0] = 0.0
    total = lam.sum()
    if total <= 0.0:
        raise NumericalBreakdownError("density matrix has zero trace")
    return lam / total


def battery_density_matrix(rho):
    """Wrap a raw density matrix, hermitizing and validating its spectrum."""
    rho = np.asarray(rho)
    rho = 0.5 * (rho + rho.conj().T)
    return BatteryDensityMatrix(rho=rho, eigenvalues=_clip_spectrum(
        np.linalg.eigvalsh(rho)))


def partial_trace_charger(state, basis):
    """Trace out the charger from a sector state vector.

    The sector amplitudes are scattered into a battery x charger matrix X
    (absent pairs are zero) and rho_B = X X^dagger.
    """
    x = np.zeros((basis.battery_dim, basis.charger_dim), dtype=complex)
    x[basis.battery_index, basis.charger_index] = state.amplitudes
    rho = x @ x.conj().T
    return BatteryDensityMatrix(rho=rho, eigenvalues=_clip_spectrum(
        np.linalg.eigvalsh(rho)))


def battery_spectra(x_re, x_im):
    """Clipped spectra of rho_B = X X^dagger, descending, one row per time.

    X = x_re + i x_im is a (T, D_B, D_C) stack of battery x charger
    amplitude matrices. The nonzero eigenvalues of X X^dagger are those of
    X^dagger X, so the eigensolve runs on the smaller Gram matrix and the
    remaining D_B - D_C eigenvalues are zero.
    """
    t_re, t_im = x_re.transpose(0, 2, 1), x_im.transpose(0, 2, 1)
    if x_re.shape[2] <= x_re.shape[1]:
        gram = (t_re @ x_re + t_im @ x_im) + 1j * (t_re @ x_im - t_im @ x_re)
    else:
        gram = (x_re @ t_re + x_im @ t_im) + 1j * (x_im @ t_re - x_re @ t_im)
    raw = np.zeros(x_re.shape[:2])
    raw[:, :gram.shape[1]] = np.linalg.eigvalsh(gram)
    return np.array([_clip_spectrum(row) for row in raw])


def reduced_charger_matrix(state, basis):
    """Charger reduced density matrix (modes_charger square)."""
    x = np.zeros((basis.battery_dim, basis.charger_dim), dtype=complex)
    x[basis.battery_index, basis.charger_index] = state.amplitudes
    return x.T @ x.conj()


def stored_work(rho_b, battery_h):
    """Mean battery energy above its ground state."""
    val = np.einsum("ab,ba->", battery_h.matrix, rho_b.rho).real
    return float(val - battery_h.ground_energy)


def ergotropy(rho_b, battery_h):
    """Maximum unitarily extractable work from the battery state.

    Pairs the descending populations of rho_B with the ascending battery
    energies (the passive state) and subtracts from the actual energy
    profile p_i in the energy eigenbasis.
    """
    p = rho_b.projections(battery_h)
    lam = rho_b.eigenvalues
    eps = battery_h.eigenvalues
    if lam.size != eps.size:
        raise ValueError("density matrix and Hamiltonian dimensions differ")
    return float((p - lam) @ eps)


def von_neumann_entropy(spectrum_or_rho):
    """-Tr rho ln rho from a spectrum or a density matrix."""
    arr = np.asarray(spectrum_or_rho)
    lam = _clip_spectrum(np.linalg.eigvalsh(arr)) if arr.ndim == 2 else arr
    lam = lam[lam > 0.0]
    return float(-(lam * np.log(lam)).sum())

def irreversible_work(state_t, state_0, h0):
    """Tr[H0 (rho(t) - rho(0))] for pure composite states."""
    vt, v0 = state_t.amplitudes, state_0.amplitudes
    now = np.real(np.vdot(vt, h0 @ vt))
    before = np.real(np.vdot(v0, h0 @ v0))
    return float(now - before)


def variance_to_qsl(variance):
    if variance <= 0.0:
        return math.inf
    return math.pi / (2.0 * math.sqrt(variance))


def qsl_numeric(state0, h):
    """Mandelstam-Tamm bound from the energy variance of a state."""
    v = state0.amplitudes if hasattr(state0, "amplitudes") else np.asarray(state0)
    hv = h @ v
    mean = np.real(np.vdot(v, hv))
    var = float(np.real(np.vdot(hv, hv)) - mean ** 2)
    return variance_to_qsl(var)


def golden_section_max(f, a, b, xtol=1e-6):
    """Locate the maximum of a unimodal function on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


@dataclass
class ChargingSummary:
    """Observables at the first stored-work maximum."""

    t_max: float
    stored_work: float
    power: float
    ergotropy: float | None = None
    entropy: float | None = None
    irreversible_work: float | None = None
    interaction_energy: float | None = None
    total_energy: float | None = None


def find_t_max(work, horizon, *, coarse_points=1201, min_work=1e-12,
               near_peak_rtol=1e-3, xtol=1e-6, observables_at=None,
               max_extensions=3):
    """Earliest time achieving the maximum stored work.

    ``work`` must map a time array to a W_B array. A coarse grid locates
    the global maximum; the earliest local maximum whose value is within
    near_peak_rtol of it is refined by golden-section search (weak residual
    oscillations make strictly-first local maxima spurious). The horizon is
    extended when the maximum sits on the end of the grid.
    """
    if horizon <= 0 or not np.isfinite(horizon):
        raise ValueError("horizon must be positive and finite")
    for _ in range(max_extensions + 1):
        times = np.linspace(0.0, horizon, coarse_points)
        values = np.asarray(work(times), dtype=float)
        best = int(np.argmax(values))
        if best < coarse_points - 2:
            break
        horizon *= 2.0
    w_star = values[best]
    if w_star < min_work:
        raise NoTransferError(
            f"maximum stored work {w_star:.3e} below threshold {min_work:.3e}")

    interior = np.arange(1, coarse_points - 1)
    is_peak = (values[interior] >= values[interior - 1]) & \
              (values[interior] >= values[interior + 1])
    peaks = interior[is_peak & (values[interior] >= (1.0 - near_peak_rtol) * w_star)]
    pick = int(peaks[0]) if peaks.size else best

    lo = times[max(pick - 1, 0)]
    hi = times[min(pick + 1, coarse_points - 1)]
    t_max, w_max = golden_section_max(
        lambda t: float(work(np.array([t]))[0]), lo, hi, xtol=xtol)
    if w_max < values[pick]:
        t_max, w_max = float(times[pick]), float(values[pick])

    summary = ChargingSummary(
        t_max=float(t_max), stored_work=float(w_max),
        power=float(w_max / t_max) if t_max > 0 else math.inf)
    if observables_at is not None:
        obs = observables_at(summary.t_max)
        summary.ergotropy = obs.get("ergotropy")
        summary.entropy = obs.get("S_B")
        summary.irreversible_work = obs.get("W_irr")
        summary.interaction_energy = obs.get("E_int")
        summary.total_energy = obs.get("E_total")
    return summary
