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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HorizonWarning, NoTransferError, NumericalBreakdownError

_CLIP_FLOOR = -1e-10
_CLIP_BUDGET = 1e-8
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0   # golden-section step, 1 - 1/phi
_COARSE_POINTS = 1201    # find_t_max's first grid over [0, horizon]
_MIN_WORK = 1e-12        # smallest maximum W_B that counts as a transfer
_NEAR_PEAK_RTOL = 1e-3   # an earlier local maximum this close to the top wins
_XTOL = 1e-6             # golden_section_max tolerance in t
_MAX_EXTENSIONS = 3      # horizon doublings while the maximum is on the end


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


def golden_section_max(f, a, b, xtol=_XTOL):
    """Maximum of a unimodal function on [a, b]: (x, f(x)), x within xtol
    of the maximizer.

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5) is golden section with parabolic steps: each step fits a
    parabola through the three best points so far and takes its vertex when
    that lands inside the bracket and moves less than half the step before
    last; otherwise it takes a golden-section step.  No step is shorter
    than xtol / 3, and the search ends when the best point is within
    2 xtol / 3 of both bracket edges.  The returned x is the best point
    evaluated, so f(x) costs no extra call.
    """
    tol = xtol / 3.0
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    step = last = 0.0
    while max(x - a, b - x) > 2.0 * tol:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(last) > tol:
            r = (x - w) * (fv - fx)
            q = (x - v) * (fw - fx)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                last, step = step, p / q
                parabolic = True
                if min(x + step - a, b - x - step) < 2.0 * tol:
                    step = tol if x < mid else -tol
        if not parabolic:
            last = (b - x) if x < mid else (a - x)
            step = _GOLDEN * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu > fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


@dataclass
class ChargingSummary:
    """Observables at the first stored-work maximum: find_t_max fills the
    first three, QuenchSimulation.summarize the rest."""

    t_max: float
    stored_work: float
    power: float
    ergotropy: float | None = None
    entropy: float | None = None
    irreversible_work: float | None = None
    interaction_energy: float | None = None
    total_energy: float | None = None


def find_t_max(work, horizon):
    """Earliest time achieving the maximum stored work.

    ``work`` must map a time array to a W_B array. A coarse grid of
    _COARSE_POINTS over [0, horizon] locates the global maximum; the
    earliest local maximum within _NEAR_PEAK_RTOL of it is refined by
    golden_section_max between its grid neighbours (weak residual
    oscillations make strictly-first local maxima spurious). While the
    maximum sits on the end of the grid the horizon doubles, up to
    _MAX_EXTENSIONS times; if it is still there, HorizonWarning names the
    final horizon and the end of the grid is returned as it is. Point
    k < (_COARSE_POINTS - 1) / 2 of the doubled grid is bit for bit point
    2k of the old one, so only the rest is evaluated; the grid stays
    np.linspace(0, horizon, _COARSE_POINTS).
    t_max is resolved to _XTOL, but W_B(t) is so flat at its maximum that
    round-off moves the result by up to about 3e-6.
    """
    if horizon <= 0 or not np.isfinite(horizon):
        raise ValueError("horizon must be positive and finite")
    half = (_COARSE_POINTS - 1) // 2
    times = np.linspace(0.0, horizon, _COARSE_POINTS)
    values = np.asarray(work(times), dtype=float)
    for _ in range(_MAX_EXTENSIONS):
        if np.argmax(values) < _COARSE_POINTS - 2:
            break
        horizon *= 2.0
        times = np.linspace(0.0, horizon, _COARSE_POINTS)
        # linspace pins its last point to the horizon, so the old end point
        # can differ from the new midpoint by an ulp: evaluate it afresh
        values = np.concatenate(
            [values[:-1:2], np.asarray(work(times[half:]), dtype=float)])
    best = int(np.argmax(values))
    if best >= _COARSE_POINTS - 2:
        warnings.warn(
            f"stored-work maximum still on the end of the grid at horizon "
            f"{horizon:.6g} after {_MAX_EXTENSIONS} doublings; t_max is only "
            "a lower bound", HorizonWarning, stacklevel=2)
    w_star = values[best]
    if w_star < _MIN_WORK:
        raise NoTransferError(
            f"maximum stored work {w_star:.3e} below threshold "
            f"{_MIN_WORK:.3e}")

    interior = np.arange(1, _COARSE_POINTS - 1)
    is_peak = (values[interior] >= values[interior - 1]) & \
              (values[interior] >= values[interior + 1])
    near = values[interior] >= (1.0 - _NEAR_PEAK_RTOL) * w_star
    peaks = interior[is_peak & near]
    pick = int(peaks[0]) if peaks.size else best

    lo = times[max(pick - 1, 0)]
    hi = times[min(pick + 1, _COARSE_POINTS - 1)]
    t_max, w_max = golden_section_max(
        lambda t: float(work(np.array([t]))[0]), lo, hi)
    if w_max < values[pick]:
        t_max, w_max = float(times[pick]), float(values[pick])

    return ChargingSummary(
        t_max=float(t_max), stored_work=float(w_max),
        power=float(w_max / t_max) if t_max > 0 else math.inf)
