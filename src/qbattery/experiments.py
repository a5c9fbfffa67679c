"""Scan drivers: resonance spectra, power and irreversible-work sweeps,
fine-tuning of transfer resonances, and cutoff-convergence checks.

Every scan point runs the full pipeline independently, so one failed point
never aborts a sweep; failures land in the row's error column.  Output is
deterministic: CSV cells use shortest-roundtrip float formatting and the
manifest carries no timestamps, so identical configs produce bit-identical
files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import ParitySector, fock_dimension, fock_parity
from .dynamics import QuenchSimulation, SimulationConfig
from .errors import ConfigError, NoTransferError
from .hamiltonian import assemble_battery_only
from .krylov import ProductSpaceOperator, work_walk
from .thermo import golden_section_max, qsl_numeric
from . import tlm

__all__ = [
    "ScanConfig",
    "ResonancePeak",
    "spectrum_scan",
    "power_scan",
    "wirr_scan",
    "degeneracy_seeds",
    "find_resonance_peaks",
    "fine_tune_resonance",
    "convergence_check",
    "write_csv",
    "write_manifest",
    "emit_plot_script",
]

SCAN_SCHEMA = "qbattery-scan-v1"
SWEEPABLE = ("omega_C", "g_BC", "g_B", "target_n")

# A weak quench injects O(g_BC) interaction energy on top of the charger
# quantum, so the transfer ratio tops 1 by a few percent at resonance
# (measured 1.005 at g_BC = 0.1); the cap only guards against real errors.
RATIO_CAP = 1.05

_SEED_POINTS = 13   # omega_C grid per seed bracket in find_resonance_peaks
_TUNE_SPAN = 1e-3   # omega_C step of convergence_check's tuning parabola


@dataclass
class ScanConfig:
    """One-parameter sweep: which field varies, over which grid, around
    which base configuration."""

    parameter: str
    values: tuple
    base: SimulationConfig
    workers: int = 1
    output: str | None = None

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ConfigError(
                f"cannot sweep {self.parameter!r}; choose one of {SWEEPABLE}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ConfigError("grid must be a non-empty 1-D sequence")
        if vals.size > 1 and np.any(np.diff(vals) <= 0):
            raise ConfigError("grid must be strictly ascending")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.values = tuple(float(v) for v in vals)

    def config_at(self, value):
        if self.parameter == "target_n":
            return dataclasses.replace(self.base, target_n=int(round(value)))
        return dataclasses.replace(self.base, **{self.parameter: float(value)})


@dataclass
class ResonancePeak:
    """A refined transfer resonance: location, ratio W_B(t_max)/W_C(0),
    first-maximum time and the power there."""

    omega_C: float
    ratio: float
    t_max: float
    power: float

    def __post_init__(self):
        if not (0.0 <= self.ratio <= RATIO_CAP):
            raise ConfigError(
                f"transfer ratio {self.ratio:.6f} outside [0, {RATIO_CAP}]")


def _indexed_map(fn, items, workers):
    """Map fn over items, isolating per-item failures.

    Returns [(result, error_string)] in item order regardless of the pool's
    completion order.
    """

    def run(i):
        try:
            return fn(items[i]), ""
        except Exception as exc:  # per-point isolation is the contract
            return None, f"{type(exc).__name__}: {exc}"

    if workers <= 1 or len(items) <= 1:
        return [run(i) for i in range(len(items))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(items))))


def _nan_row(keys):
    return {k: float("nan") for k in keys}


def write_csv(path, fieldnames, rows, schema=SCAN_SCHEMA):
    """Deterministic CSV: schema comment, header, shortest-roundtrip floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# schema={schema}", ",".join(fieldnames)]
    for row in rows:
        cells = []
        for name in fieldnames:
            value = row[name]
            if isinstance(value, (float, np.floating)):
                cells.append(repr(float(value)))
            elif isinstance(value, bool):
                cells.append(str(int(value)))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_manifest(path, scan, extra=None):
    """Reproducibility record for a scan: swept grid, full base config,
    worker count, optional convergence diagnostics.  No timestamps."""
    payload = {
        "schema": SCAN_SCHEMA,
        "parameter": scan.parameter,
        "grid": list(scan.values),
        "base": dataclasses.asdict(scan.base),
        "workers": scan.workers,
    }
    if extra:
        payload.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str)
                    + "\n")
    return path


def _scan_outputs(scan, fieldnames, rows, extra=None):
    if scan.output is None:
        return None
    out = Path(scan.output)
    write_csv(out, fieldnames, rows)
    write_manifest(out.with_suffix(".manifest.json"), scan, extra=extra)
    return out


def spectrum_scan(scan: ScanConfig):
    """Transfer and ergotropy ratios over an omega_C grid.

    Each row holds (omega_C, ratio_W, ratio_E, t_max, error) with ratios
    rescaled by the initial charger energy W_C(0).
    """
    if scan.parameter != "omega_C":
        raise ConfigError("spectrum_scan sweeps omega_C")

    def point(value):
        cfg = scan.config_at(value)
        sim = QuenchSimulation(cfg)
        denom = sim.charger_quantum
        try:
            s = sim.summarize()
        except NoTransferError:
            return {"omega_C": value, "ratio_W": 0.0, "ratio_E": 0.0,
                    "t_max": float("nan")}
        return {"omega_C": value, "ratio_W": s.stored_work / denom,
                "ratio_E": s.ergotropy / denom, "t_max": s.t_max}

    fieldnames = ["omega_C", "ratio_W", "ratio_E", "t_max", "error"]
    rows = []
    for value, (result, err) in zip(scan.values,
                                    _indexed_map(point, list(scan.values),
                                                 scan.workers)):
        if result is None:
            result = _nan_row(fieldnames[:-1])
            result["omega_C"] = value
        result["error"] = err
        rows.append(result)
    _scan_outputs(scan, fieldnames, rows)
    return rows


def degeneracy_seeds(window, config):
    """Candidate omega_C values where a battery-alone gap E_k - E_0 falls in
    the window.

    The decoupled charger loses one quantum omega_C during transfer, so
    resonances sit where some battery eigenstate lies omega_C above the
    ground state.  Parity is conserved by both the battery interaction and
    the contact coupling, so only gaps to states of parity opposite the
    battery ground state are kept.
    """
    lo, hi = window
    if not (0 < lo < hi):
        raise ConfigError("window must satisfy 0 < lo < hi")
    battery = assemble_battery_only(config.num_particles, config.modes_battery,
                                    config.g_B, config.omega_B)
    state_parity = np.array([fock_parity(s) for s in battery.states])
    # parity is a good quantum number, so each eigenvector's sign can be read
    # off its dominant component
    vec_parity = np.array([state_parity[np.argmax(np.abs(v))]
                           for v in battery.eigenvectors.T])
    gaps = battery.eigenvalues - battery.eigenvalues[0]
    mask = (gaps >= lo) & (gaps <= hi) & (vec_parity != vec_parity[0])
    seeds = []
    for gap in sorted(float(g) for g in gaps[mask]):
        if not seeds or gap - seeds[-1] > 1e-6:
            seeds.append(gap)
    return seeds


def find_resonance_peaks(window, config, xtol=1e-5, seed_radius=0.08,
                         min_ratio=0.5):
    """All transfer-ratio peaks in an omega_C window.

    Around every decoupled-degeneracy seed (plus the closed-form root for an
    ideal battery) a local grid of _SEED_POINTS brackets the maxima and
    golden_section_max (Brent's method) refines every interior local
    maximum of that grid between its grid neighbours, each step a full
    simulation.  A grid edge is never a candidate, and a refinement that
    ends within xtol of its bracket edge is dropped: both are flanks of a
    resonance centred elsewhere.  Peaks below min_ratio are dropped;
    overlapping refinements are deduplicated to the higher ratio.
    """
    lo, hi = window
    if not (0 < lo < hi):
        raise ConfigError("window must satisfy 0 < lo < hi")

    cache = {}

    def evaluate(omega):
        key = round(float(omega), 12)
        if key not in cache:
            cfg = dataclasses.replace(config, omega_C=key)
            sim = QuenchSimulation(cfg)
            try:
                s = sim.summarize()
            except NoTransferError:
                cache[key] = (0.0, None)
            else:
                cache[key] = (s.stored_work / sim.charger_quantum, s)
        return cache[key]

    seeds = degeneracy_seeds(window, config)
    if config.g_B == 0:
        for n in range(1, int(np.ceil(hi / config.omega_B)) + 1, 2):
            root = tlm.resonance_solve(n, config.num_particles, config.g_BC,
                                       omega_B=config.omega_B)
            if lo <= root <= hi:
                seeds.append(root)

    peaks = []
    for seed in seeds:
        a, b = max(lo, seed - seed_radius), min(hi, seed + seed_radius)
        if b - a < 4 * xtol:
            continue
        grid = np.linspace(a, b, _SEED_POINTS)
        vals = [evaluate(w)[0] for w in grid]
        for i in range(1, len(grid) - 1):
            if not vals[i - 1] < vals[i] >= vals[i + 1]:
                continue
            left, right = grid[i - 1], grid[i + 1]
            if right - left < 2 * xtol:
                x = grid[i]
            else:
                x, _ = golden_section_max(lambda w: evaluate(w)[0], left,
                                          right, xtol=xtol)
                if min(x - left, right - x) < xtol:
                    continue
            ratio, summary = evaluate(x)
            if summary is None or ratio < min_ratio:
                continue
            peaks.append(ResonancePeak(omega_C=float(x), ratio=float(ratio),
                                       t_max=summary.t_max,
                                       power=summary.power))

    deduped = []
    for p in sorted(peaks, key=lambda p: -p.ratio):
        if all(abs(p.omega_C - q.omega_C) > 1e-3 for q in deduped):
            deduped.append(p)
    return deduped


def fine_tune_resonance(window, config, xtol=1e-5, **kwargs):
    """Best transfer peak in the window; raises NoTransferError when the
    ratio stays below 0.5 everywhere (a no-resonance window)."""
    peaks = find_resonance_peaks(window, config, xtol=xtol, **kwargs)
    if not peaks:
        raise NoTransferError(
            f"no transfer ratio above 0.5 for omega_C in "
            f"[{window[0]:g}, {window[1]:g}]")
    return peaks[0]


def _resolve_resonance(cfg):
    """Resonant omega_C for a config: closed-form root for the ideal battery,
    fine-tuned search otherwise."""
    n = cfg.target_n
    if cfg.g_B == 0:
        return tlm.resonance_solve(n, cfg.num_particles, cfg.g_BC,
                                   omega_B=cfg.omega_B)
    window = ((n - 0.5) * cfg.omega_B, (n + 0.5) * cfg.omega_B)
    return fine_tune_resonance(window, cfg).omega_C


POWER_FIELDS = ["value", "N_B", "g_B", "omega_C", "power_ED", "power_TLM",
                "tau_qsl_num", "tau_qsl_tlm", "W_B", "t_max", "error"]


def power_scan(scan: ScanConfig):
    """Charging power at the first stored-work maximum, per grid point, at
    the per-point resonant omega_C, next to the two-level power estimate and
    both speed-limit times (numeric Mandelstam-Tamm and two-level closed
    form)."""

    def point(value):
        cfg = scan.config_at(value)
        omega = _resolve_resonance(cfg)
        cfg = dataclasses.replace(cfg, omega_C=omega)
        sim = QuenchSimulation(cfg)
        s = sim.summarize()
        params = tlm.tlm_params(cfg.target_n, cfg.num_particles, cfg.g_BC,
                                omega, omega_B=cfg.omega_B)
        return {
            "value": value,
            "N_B": cfg.num_particles,
            "g_B": cfg.g_B,
            "omega_C": omega,
            "power_ED": s.power,
            "power_TLM": tlm.power_tlm(params),
            "tau_qsl_num": qsl_numeric(sim.state0, sim.h0 + sim.hint),
            "tau_qsl_tlm": tlm.qsl_tlm(params),
            "W_B": s.stored_work,
            "t_max": s.t_max,
        }

    rows = []
    for value, (result, err) in zip(scan.values,
                                    _indexed_map(point, list(scan.values),
                                                 scan.workers)):
        if result is None:
            result = _nan_row(POWER_FIELDS[:-1])
            result["value"] = value
        result["error"] = err
        rows.append(result)
    _scan_outputs(scan, POWER_FIELDS, rows)
    return rows


WIRR_FIELDS = ["value", "N_B", "g_B", "omega_C", "W_irr", "W_B", "W_C0",
               "below_pct_WC", "below_pct_WB", "error"]


def wirr_scan(scan: ScanConfig):
    """Irreversible work at the first stored-work maximum, per grid point at
    resonance, flagged against one percent of W_C(0) and of W_B(t_max)."""

    def point(value):
        cfg = scan.config_at(value)
        omega = _resolve_resonance(cfg)
        cfg = dataclasses.replace(cfg, omega_C=omega)
        sim = QuenchSimulation(cfg)
        s = sim.summarize()
        wc0 = sim.charger_quantum
        wirr = s.irreversible_work
        return {
            "value": value,
            "N_B": cfg.num_particles,
            "g_B": cfg.g_B,
            "omega_C": omega,
            "W_irr": wirr,
            "W_B": s.stored_work,
            "W_C0": wc0,
            "below_pct_WC": bool(wirr < 0.01 * wc0),
            "below_pct_WB": bool(wirr < 0.01 * s.stored_work),
        }

    rows = []
    for value, (result, err) in zip(scan.values,
                                    _indexed_map(point, list(scan.values),
                                                 scan.workers)):
        if result is None:
            result = _nan_row(WIRR_FIELDS[:-1])
            result["value"] = value
            result["below_pct_WC"] = False
            result["below_pct_WB"] = False
        result["error"] = err
        rows.append(result)
    _scan_outputs(scan, WIRR_FIELDS, rows)
    return rows


def _tune_peak(peak, omega, tune):
    """(W_B at first maximum, omega used, t_max) from a per-omega
    ``peak(omega) -> (W, t)``, optionally re-centering omega_C on the local
    peak of W(omega) with a parabola through omega + (-1, 0, 1) _TUNE_SPAN."""
    w0, t0 = peak(omega)
    if not tune:
        return w0, omega, t0
    offsets = np.array([-_TUNE_SPAN, 0.0, _TUNE_SPAN])
    runs = [peak(omega + o) if o else (w0, t0) for o in offsets]
    values = np.array([w for w, _ in runs])
    coeffs = np.polyfit(offsets, values, 2)
    if coeffs[0] < 0:
        vertex = float(np.clip(-coeffs[1] / (2 * coeffs[0]), -2 * _TUNE_SPAN,
                               2 * _TUNE_SPAN))
    else:
        vertex = float(offsets[np.argmax(values)])
    wv, tv = peak(omega + vertex)
    if wv >= values.max():
        return wv, omega + vertex, tv
    best = int(np.argmax(values))
    w, t = runs[best]
    return w, float(omega + offsets[best]), t


def _dense_peak(cfg, omega):
    """(W_B, t_max) at the first stored-work maximum, dense pipeline."""
    sim = QuenchSimulation(dataclasses.replace(cfg, omega_C=float(omega)))
    s = sim.summarize()
    return s.stored_work, s.t_max


def _krylov_peak(cfg, t_guide, omega):
    """(W_B, t_max) on the matrix-free pipeline (g_B = 0 only): the maximum
    of W_B(t) over t_guide * [0.96, 1.04], found by golden_section_max
    (Brent's method) along one ``work_walk``.  The operator acts on the
    parity sector that holds psi(0): ``cfg.sector``, or for a FULL config
    the parity of the charger level, the only sector the dynamics reaches."""
    if cfg.g_B != 0:
        raise ConfigError("matrix-free path requires an ideal battery")
    sector = cfg.sector
    if sector is ParitySector.FULL:
        sector = ParitySector((-1) ** cfg.charger_level)
    op = ProductSpaceOperator(
        num_particles=cfg.num_particles, modes_battery=cfg.modes_battery,
        modes_charger=cfg.modes_charger, g_BC=cfg.g_BC,
        omega_B=cfg.omega_B, omega_C=float(omega), sector=sector)
    t, w = golden_section_max(work_walk(op, cfg.charger_level),
                              0.96 * t_guide, 1.04 * t_guide)
    return w, t


# The dense pipeline works in one parity sector, roughly half the product
# dimension; eigh stays practical up to sector sizes of a few thousand.
DENSE_LIMIT = 8000


def convergence_check(config, factor=2, tune=True):
    """Cutoff convergence of the first stored-work maximum.

    Runs the pipeline at the working cutoffs and with both mode cutoffs
    multiplied by `factor`.  With tune=True each cutoff re-centers omega_C
    on its local transfer peak (three-point parabola through W_peak(omega)),
    so the comparison tracks the physical peak height rather than mixing in
    the slow cutoff drift of the peak position.  A cutoff whose battery x
    charger product dimension exceeds DENSE_LIMIT runs matrix-free on the
    parity sector of psi(0) (about half that dimension), with t_max
    searched within 4 % of t_low (or of the two-level speed-limit time).
    """
    high = dataclasses.replace(config,
                               modes_battery=factor * config.modes_battery,
                               modes_charger=factor * config.modes_charger)
    results = {}
    for tag, cfg in (("low", config), ("high", high)):
        product_dim = (fock_dimension(cfg.num_particles, cfg.modes_battery)
                       * cfg.modes_charger)
        if product_dim <= DENSE_LIMIT:
            peak = functools.partial(_dense_peak, cfg)
        else:
            guide = results.get("t_low")
            if guide is None:
                params = tlm.tlm_params(cfg.target_n, cfg.num_particles,
                                        cfg.g_BC, cfg.omega_C,
                                        omega_B=cfg.omega_B)
                guide = tlm.qsl_tlm(params)
            peak = functools.partial(_krylov_peak, cfg, guide)
        w, omega, t = _tune_peak(peak, cfg.omega_C, tune)
        results[f"W_{tag}"] = w
        results[f"omega_{tag}"] = omega
        results[f"t_{tag}"] = t
        results[f"modes_{tag}"] = (cfg.modes_battery, cfg.modes_charger)
    results["rel_diff"] = abs(results["W_high"] - results["W_low"]) \
        / abs(results["W_low"])
    return results


_PLOT_KINDS = {
    "spectrum": ("omega_C", ["ratio_W", "ratio_E"],
                 "charger frequency", "ratio to initial charger energy"),
    "power": ("value", ["power_ED", "power_TLM"],
              "swept parameter", "charging power"),
    "wirr": ("value", ["W_irr"], "swept parameter", "irreversible work"),
    "series": ("t", ["W_B", "ergotropy", "S_B", "W_irr"],
               "time", "energy"),
}

_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render {csv_name} (generated next to the scan output; run by hand)."""
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).resolve().parent
csv_file = here / "{csv_name}"
# genfromtxt(names=True) would read a leading comment line as the header,
# so count the "#" preamble and skip past it explicitly.
with open(csv_file) as fh:
    skip = 0
    for line in fh:
        if not line.startswith("#"):
            break
        skip += 1
data = np.genfromtxt(csv_file, delimiter=",", names=True,
                     skip_header=skip, dtype=None, encoding=None)
data = np.atleast_1d(data)
fig, ax = plt.subplots(figsize=(6, 4))
for column in {ycols!r}:
    if column in (data.dtype.names or ()):
        ax.plot(data["{xcol}"], np.asarray(data[column], dtype=float),
                marker=".", label=column)
ax.set_xlabel({xlabel!r})
ax.set_ylabel({ylabel!r})
ax.legend()
fig.tight_layout()
fig.savefig(here / "{png_name}", dpi=160)
print("wrote", here / "{png_name}")
'''


def emit_plot_script(csv_path, kind, script_path=None):
    """Write (never execute) a matplotlib script rendering one scan CSV."""
    if kind not in _PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}")
    xcol, ycols, xlabel, ylabel = _PLOT_KINDS[kind]
    csv_path = Path(csv_path)
    if script_path is None:
        script_path = csv_path.with_name(f"plot_{csv_path.stem}.py")
    script_path = Path(script_path)
    script_path.parent.mkdir(parents=True, exist_ok=True)
    script_path.write_text(_PLOT_TEMPLATE.format(
        csv_name=csv_path.name, png_name=csv_path.stem + ".png",
        xcol=xcol, ycols=ycols, xlabel=xlabel, ylabel=ylabel))
    return script_path
