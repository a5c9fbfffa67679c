"""Correctness checks for the benchmark workloads.

Every check compares the program's output with a computation made here,
apart from the code under test, or with a property the physics must have.
Each function returns a list of problems; an empty list is a pass.  The
checks run after the timed operations.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg
from scipy.integrate import quad
from scipy.special import eval_hermite

SERIES_TOL = 1e-8          # CSV values against the reference state
SUMMARY_TOL = 1e-5         # printed summary carries six decimals
FULL_TRANSFER = 0.99       # W_B / W_C(0) at a resonance
SCAN_WORK_TOL = 5e-3       # W_B against n omega_B
SCAN_TIME_RTOL = 0.02      # t_max against tau_QSL
SCAN_SQRT2_RTOL = 0.05     # P(N_B = 2) / P(N_B = 1) against sqrt(2)
CUTOFF_RTOL = 1e-3         # W_low against W_high
CUTOFF_TIME_RTOL = 0.05    # t_low, t_high against tau_QSL
CUTOFF_SAME_TOL = 1e-8     # W_high against W_B recomputed at t_high
CUTOFF_MAX_RTOL = 1e-4     # W_high against a finer scan around t_high


# ----------------------------------------------------------------------------
# independent two-level speed limit

def hermite_function(n, omega, x):
    """Normalized oscillator eigenfunction phi_n of a trap of frequency omega."""
    norm = (omega / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    return norm * eval_hermite(n, math.sqrt(omega) * x) \
        * np.exp(-0.5 * omega * x * x)


def transfer_overlap(n, omega_B, omega_C):
    """int phi_n^B phi_0^B phi_1^C phi_0^C dx by adaptive quadrature."""
    def integrand(x):
        return (hermite_function(n, omega_B, x) * hermite_function(0, omega_B, x)
                * hermite_function(1, omega_C, x)
                * hermite_function(0, omega_C, x))
    value, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)
    return value


def tau_qsl(n, num_particles, g_BC, omega_C, omega_B=1.0):
    """pi / (2 J) with J = g_BC sqrt(N_B) |I_n| (two-level closed form)."""
    coupling = g_BC * math.sqrt(num_particles) \
        * abs(transfer_overlap(n, omega_B, omega_C))
    return math.pi / (2.0 * coupling)


# ----------------------------------------------------------------------------
# series: the CSV written by `qbattery simulate`

def read_series_csv(path):
    """Column name -> float array, skipping the '#' preamble."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    rows = list(reader)
    return {name: np.array([float(r[name]) for r in rows])
            for name in reader.fieldnames}


def parse_summary(text):
    """Values of the `t_max=... W_B=... ratio=...` line the CLI prints."""
    for line in text.splitlines():
        if line.startswith("t_max="):
            return {k: float(v) for k, v in
                    (item.split("=") for item in line.split())}
    return None


class ReferenceDynamics:
    """Exact quench dynamics from this module's own eigendecomposition.

    Takes the model matrices h0 and hint on the odd-parity sector and the
    sector layout (battery_index, charger_index, index_matrix).  The battery
    Hamiltonian and the initial state (battery ground state times charger
    level 1) are read off the charger-diagonal blocks of h0.
    """

    def __init__(self, h0, hint, battery_index, charger_index, index_matrix,
                 omega_C, charger_level=1):
        self.h0, self.hint = h0, hint
        self.battery_index, self.charger_index = battery_index, charger_index
        battery_dim, charger_dim = index_matrix.shape
        self.shape = (battery_dim, charger_dim)
        hb = np.zeros((battery_dim, battery_dim))
        for c in range(min(2, charger_dim)):
            sector = index_matrix[:, c]
            live = np.nonzero(sector >= 0)[0]
            hb[np.ix_(live, live)] = h0[np.ix_(sector[live], sector[live])] \
                - omega_C * (c + 0.5) * np.eye(live.size)
        self.battery_energies, battery_vectors = scipy.linalg.eigh(hb)
        self.battery_h = hb
        ground = battery_vectors[:, 0]
        sector = index_matrix[:, charger_level]
        live = sector >= 0
        if abs(np.linalg.norm(ground[live]) - 1.0) > 1e-12:
            raise ValueError("battery ground state leaves the sector")
        psi0 = np.zeros(h0.shape[0], dtype=complex)
        psi0[sector[live]] = ground[live]
        self.energies, self.vectors = scipy.linalg.eigh(h0 + hint)
        self.coeff0 = self.vectors.T @ psi0
        self.h0_initial = float(np.real(np.vdot(psi0, h0 @ psi0)))

    def state(self, t):
        return self.vectors @ (np.exp(-1j * self.energies * t) * self.coeff0)

    def observables(self, t):
        psi = self.state(t)
        x = np.zeros(self.shape, dtype=complex)
        x[self.battery_index, self.charger_index] = psi
        rho = x @ x.conj().T
        eps = self.battery_energies
        energy = float(np.real(np.trace(self.battery_h @ rho)))
        populations = np.zeros(eps.size)
        singular = np.linalg.svd(x, compute_uv=False)
        populations[:singular.size] = np.sort(singular ** 2)[::-1]
        passive = float(populations @ eps)
        nonzero = populations[populations > 0.0]
        e_int = float(np.real(np.vdot(psi, self.hint @ psi)))
        h0_now = float(np.real(np.vdot(psi, self.h0 @ psi)))
        return {"W_B": energy - eps[0], "ergotropy": energy - passive,
                "S_B": float(-(nonzero * np.log(nonzero)).sum()),
                "E_int": e_int, "W_irr": h0_now - self.h0_initial,
                "E_total": h0_now + e_int}


def check_series_rows(columns, reference, rows):
    """Selected CSV rows against the reference dynamics."""
    problems = []
    for row in rows:
        t = columns["t"][row]
        expected = reference.observables(t)
        for name, value in expected.items():
            got = columns[name][row]
            if not abs(got - value) <= SERIES_TOL:
                problems.append(f"row {row} (t={t:.6g}): {name}={got!r}, "
                                f"reference {value!r}")
    return problems


def check_series_properties(columns):
    """Energy conservation, the W_irr identity and 0 <= ergotropy <= W_B."""
    problems = []
    e_total, e_int = columns["E_total"], columns["E_int"]
    drift = np.max(np.abs(e_total - e_total[0]))
    if not drift <= SERIES_TOL:
        problems.append(f"E_total drifts by {drift:.3e}")
    if columns["t"][0] != 0.0:
        problems.append("first row is not t = 0")
    mismatch = np.max(np.abs(columns["W_irr"] - (e_int[0] - e_int)))
    if not mismatch <= SERIES_TOL:
        problems.append(f"W_irr differs from E_int(0) - E_int(t) by "
                        f"{mismatch:.3e}")
    erg, work = columns["ergotropy"], columns["W_B"]
    bad = np.nonzero((erg < -SERIES_TOL) | (erg > work + SERIES_TOL))[0]
    if bad.size:
        problems.append(f"ergotropy outside [0, W_B] on rows {bad.tolist()}")
    return problems


def check_series_summary(summary, reference, charger_energy):
    """The printed first maximum: its W_B matches the reference and holds at
    least FULL_TRANSFER of the charger's energy."""
    if summary is None:
        return ["no summary line printed"]
    problems = []
    expected = reference.observables(summary["t_max"])["W_B"]
    if not abs(summary["W_B"] - expected) <= SUMMARY_TOL:
        problems.append(f"summary W_B={summary['W_B']!r} at t_max, "
                        f"reference {expected!r}")
    if not summary["W_B"] / charger_energy >= FULL_TRANSFER:
        problems.append(f"W_B/W_C(0) = {summary['W_B'] / charger_energy:.6f} "
                        f"< {FULL_TRANSFER}")
    return problems


# ----------------------------------------------------------------------------
# scan: power_scan rows of the fig3a set-up

def check_scan_row(row, n, omega_B=1.0):
    """One resonant power_scan row: n quanta stored at the two-level speed
    limit, and the power is the stored work over the time taken."""
    if row["error"]:
        return [f"row error: {row['error']}"]
    problems = []
    if not abs(row["W_B"] - n * omega_B) <= SCAN_WORK_TOL:
        problems.append(f"W_B={row['W_B']!r} not within {SCAN_WORK_TOL} "
                        f"of {n * omega_B}")
    tau = tau_qsl(n, row["N_B"], row["value"], row["omega_C"], omega_B)
    off = row["t_max"] / tau - 1.0
    if not abs(off) < SCAN_TIME_RTOL:
        problems.append(f"t_max/tau_QSL - 1 = {off:.3e}")
    power = row["W_B"] / row["t_max"]
    if not abs(row["power_ED"] / power - 1.0) <= 1e-12:
        problems.append(f"power_ED={row['power_ED']!r} is not W_B/t_max "
                        f"= {power!r}")
    return problems


def check_scan_scaling(row_one, row_two):
    """Collective speed-up: P(N_B = 2) / P(N_B = 1) close to sqrt(2)."""
    if row_one["error"] or row_two["error"]:
        return ["a row of the pair has an error"]
    ratio = row_two["power_ED"] / row_one["power_ED"]
    if not abs(ratio / math.sqrt(2.0) - 1.0) <= SCAN_SQRT2_RTOL:
        return [f"P(2)/P(1) = {ratio:.5f} at g_BC={row_one['value']!r}"]
    return []


# ----------------------------------------------------------------------------
# resonance: find_resonance_peaks

def check_local_maxima(peaks, evaluate, step):
    """Every peak beats the ratio one step to each side of it."""
    problems = []
    for peak in peaks:
        for side in (-step, step):
            ratio = evaluate(peak.omega_C + side)
            if not ratio < peak.ratio:
                problems.append(f"peak at {peak.omega_C:.6f} "
                                f"(ratio {peak.ratio:.6f}) is not a maximum: "
                                f"{ratio:.6f} at {side:+g}")
    return problems


def check_split_window(peaks, min_peaks=2, min_ratio=0.5):
    """A strongly interacting battery splits the window into several peaks."""
    strong = [p for p in peaks if p.ratio > min_ratio]
    if len(strong) < min_peaks:
        return [f"{len(strong)} peaks with ratio > {min_ratio}, "
                f"need {min_peaks}"]
    return []


def check_single_peak(peaks, above, min_ratio=0.95):
    """An attractive battery gives one near-full peak above the ideal root."""
    if len(peaks) != 1:
        return [f"{len(peaks)} peaks, expected one"]
    peak = peaks[0]
    problems = []
    if not peak.ratio >= min_ratio:
        problems.append(f"peak ratio {peak.ratio:.6f} < {min_ratio}")
    if not peak.omega_C > above:
        problems.append(f"peak at {peak.omega_C:.6f} not above {above:.6f}")
    return problems


# ----------------------------------------------------------------------------
# cutoff: convergence_check with a dense low and a matrix-free high cutoff

def check_cutoff(result, tau):
    """Dense and matrix-free peaks agree, store a full quantum and sit at
    the two-level speed limit."""
    problems = []
    w_low, w_high = result["W_low"], result["W_high"]
    rel = abs(w_high - w_low) / abs(w_low)
    if not rel <= CUTOFF_RTOL:
        problems.append(f"W_low={w_low!r} and W_high={w_high!r} differ by "
                        f"{rel:.3e} relative")
    for tag in ("low", "high"):
        stored = result[f"W_{tag}"] / result[f"omega_{tag}"]
        if not stored >= FULL_TRANSFER:
            problems.append(f"W_{tag}/W_C(0) = {stored:.6f} < {FULL_TRANSFER}")
        off = result[f"t_{tag}"] / tau - 1.0
        if not abs(off) <= CUTOFF_TIME_RTOL:
            problems.append(f"t_{tag}/tau_QSL - 1 = {off:.3e}")
    return problems


def check_high_maximum(result, times, works):
    """W_high is W_B at t_high, and no time on a finer grid around t_high
    stores more than W_high by CUTOFF_MAX_RTOL.

    `works` is W_B(`times`) of the matrix-free high cutoff at omega_high; the
    grid holds t_high itself.  The t_high check in check_cutoff alone cannot
    fail on its own, because the program clips t_high to within 4 % of t_low.
    """
    problems = []
    w_high, t_high = result["W_high"], result["t_high"]
    at = int(np.argmin(np.abs(times - t_high)))
    if not abs(works[at] - w_high) <= CUTOFF_SAME_TOL:
        problems.append(f"W_B(t_high) = {works[at]!r}, reported W_high "
                        f"{w_high!r}")
    best = int(np.argmax(works))
    if not works[best] - w_high <= CUTOFF_MAX_RTOL * abs(w_high):
        problems.append(f"W_B({times[best]:.6g}) = {works[best]!r} exceeds "
                        f"W_high={w_high!r} at t_high={t_high:.6g} by more "
                        f"than {CUTOFF_MAX_RTOL} relative")
    return problems
