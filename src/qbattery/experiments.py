"""Scan drivers: resonance spectra, power and irreversible-work sweeps,
fine-tuning of transfer resonances, and cutoff-convergence checks.

Every scan point runs the full pipeline independently, so one failed point
never aborts a sweep; failures land in the row's error column.  Scans with
workers > 1 run their points in that many forked child processes, and
convergence_check its omega_C tuning runs in three (``_forked_map``); the
resonance search, whose builds are short, runs on a thread pool of one
worker per core (``_indexed_map``).  Either way each worker runs on at
most cores // workers BLAS threads (``lapack.blas_thread_budget``).
Output is deterministic:
CSV cells use shortest-roundtrip float formatting and the manifest carries
no timestamps, so the same config at the same BLAS setting produces
bit-identical files.
A pool's points run on fewer BLAS threads than a serial run's, which can
move the last digits against workers=1.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import ParitySector
from .dynamics import QuenchSimulation, SimulationConfig
from .errors import (ConfigError, CutoffWarning, HorizonWarning,
                     NoTransferError)
from .krylov import ProductSpaceOperator, work_walk
from .thermo import _XTOL, golden_section_max
from . import lapack, tlm

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
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) \
                or self.workers < 1:
            raise ConfigError(
                f"workers must be an integer >= 1, not {self.workers!r}")
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


def _isolated(fn, item):
    """(fn(item), "") or (None, the exception's type and message)."""
    try:
        return fn(item), ""
    except Exception as exc:  # per-point isolation is the contract
        return None, f"{type(exc).__name__}: {exc}"


def _indexed_map(fn, items, workers):
    """Map fn over items, isolating per-item failures.

    Returns [(result, error_string)] in item order regardless of the pool's
    completion order. More than one item and workers > 1 start a pool of
    ``workers`` threads under ``lapack.blas_thread_budget``, set from this
    thread before the pool starts and restored after it drains. A map
    called from inside a pool worker runs serially in that worker, so a
    pool never starts another, and the worker keeps its pool's size for
    ``lapack.check_memory``.

    Only the resonance search uses threads. Its builds are small spectral
    ones (D = 275 on the benchmark's input), whose dsyevd releases the GIL,
    and a forked child's cold start, about 40-50 ms, costs more than such
    a build; the sweeps fork (``_forked_map``).
    """

    def pooled(i):
        lapack.join_pool(workers)
        return _isolated(fn, items[i])

    if workers <= 1 or len(items) <= 1 or lapack.pool_size() > 1:
        return [_isolated(fn, item) for item in items]
    with lapack.blas_thread_budget(workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(pooled, range(len(items))))


def _map_or_raise(fn, items, workers):
    """[fn(item) for item in items] through _indexed_map, raising the first
    item's exception again in this thread."""

    def attempt(item):
        try:
            return fn(item), None
        except Exception as exc:  # raised below, with its type intact
            return None, exc

    results = [result for result, _ in _indexed_map(attempt, items, workers)]
    for _, exc in results:
        if exc is not None:
            raise exc
    return [value for value, _ in results]


def _forked_worker(fn, items, workers, pipe):
    """One child of _forked_map: as one of a pool of ``workers``, fn(items[i])
    for each index i received, sending back (i, result, recorded warnings,
    raised exception), until the pipe sends None or closes."""
    lapack.join_pool(workers)
    with lapack.blas_thread_budget(workers):
        while True:
            try:
                index = pipe.recv()
            except EOFError:
                return
            if index is None:
                return
            value, error = None, None
            # entered per item, so a warning is not muted by an earlier
            # item's registry entry
            with warnings.catch_warnings(record=True) as caught:
                try:
                    value = fn(items[index])
                except Exception as exc:  # raised again in the parent
                    error = exc
            pipe.send((index, value,
                       [(w.message, w.category, w.filename, w.lineno)
                        for w in caught], error))


def _forked_map(fn, items, workers):
    """[fn(item) for item in items] on at most ``workers`` forked child
    processes.

    A forked child inherits this process's module caches and needs no
    pickled function; only its results travel back. One child per worker,
    min(workers, len(items)) of them, each serves item indices over its
    pipe: the next index in item order goes to whichever child is free.
    Each child joins a pool of ``workers`` (``lapack.join_pool``), so
    ``check_memory`` counts every concurrent dense solve, and runs under
    ``lapack.blas_thread_budget(workers)``: max(1, cores // workers) BLAS
    threads. Children share no GIL, so the many small numpy calls of a
    Chebyshev walk overlap, which on worker threads they do not. A child
    records the warnings its inherited filters let through; here they are
    issued again in item order, at their original file and line, and the
    first item's exception is raised again with its type. A child that
    exits without a result raises RuntimeError with its exit code. Every
    child is joined before this returns or raises. With workers <= 1 or
    one item, called from a pool worker (``lapack.pool_size() > 1``), or
    where ``fork`` is unavailable, it runs the items here, one after
    another.
    """
    # imported here, not at the top: nothing else in the package needs it
    import multiprocessing
    from multiprocessing.connection import wait

    if (workers <= 1 or len(items) <= 1 or lapack.pool_size() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    children, serving = {}, {}   # keyed by the parent's end of a pipe
    outcomes, handed = [None] * len(items), 0
    try:
        for _ in range(min(workers, len(items))):
            pipe, child_end = context.Pipe()
            with child_end:
                children[pipe] = context.Process(
                    target=_forked_worker,
                    args=(fn, items, workers, child_end))
                children[pipe].start()
        for pipe in children:
            serving[pipe] = handed
            pipe.send(handed)
            handed += 1
        while serving:
            for pipe in wait(list(serving)):
                try:
                    index, *outcome = pipe.recv()
                except EOFError:
                    children[pipe].join()
                    raise RuntimeError(
                        f"forked run {serving[pipe]} exited with code "
                        f"{children[pipe].exitcode} before sending a "
                        "result") from None
                outcomes[index] = outcome
                if handed < len(items):
                    serving[pipe] = handed
                    pipe.send(handed)
                    handed += 1
                else:
                    del serving[pipe]
                    pipe.send(None)
    finally:
        for pipe, child in children.items():
            pipe.close()
            if child.pid is not None:
                if serving:
                    child.terminate()
                child.join()
    # this module's registry: under the "default" action a warning that
    # several children raised at one place is shown once, as in a serial run
    registry = globals().setdefault("__warningregistry__", {})
    for _, caught, error in outcomes:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registry)
        if error is not None:
            raise error
    return [value for value, _, _ in outcomes]


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


def _sweep(scan, fieldnames, point, fill):
    """Rows of ``point(value)`` over the scan grid, in grid order, each
    with an error column, written with a manifest when scan.output is set.
    A failed point's row holds NaN except for the fields ``fill(value)``
    gives, and its error column names the exception. With scan.workers > 1
    the points run in forked children (``_forked_map``), which inherit the
    base config's cutoff model when every point shares it. It is built at
    the BLAS thread count of the points, so its battery eigenvectors are
    the ones a point would compute."""
    if scan.parameter != "g_B":
        try:
            with lapack.blas_thread_budget(scan.workers):
                scan.base.cutoff_model()
        except Exception:  # each point raises it again in its own row
            pass
    rows = []
    for value, (result, err) in zip(scan.values, _forked_map(
            functools.partial(_isolated, point), scan.values, scan.workers)):
        if result is None:
            result = {k: float("nan") for k in fieldnames[:-1]}
            result.update(fill(value))
        result["error"] = err
        rows.append(result)
    if scan.output is not None:
        out = Path(scan.output)
        write_csv(out, fieldnames, rows)
        write_manifest(out.with_suffix(".manifest.json"), scan)
    return rows


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

    return _sweep(scan, ["omega_C", "ratio_W", "ratio_E", "t_max", "error"],
                  point, lambda value: {"omega_C": value})


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
    battery = config.cutoff_model().battery
    gaps = battery.eigenvalues - battery.eigenvalues[0]
    mask = ((gaps >= lo) & (gaps <= hi)
            & (battery.parities != battery.parities[0]))
    seeds = []
    for gap in sorted(float(g) for g in gaps[mask]):
        if not seeds or gap - seeds[-1] > 1e-6:
            seeds.append(gap)
    return seeds


def find_resonance_peaks(window, config, xtol=1e-5, seed_radius=0.08,
                         min_ratio=0.5):
    """All transfer-ratio peaks in an omega_C window.

    Every decoupled-degeneracy seed (plus the closed-form root for an ideal
    battery) brackets [seed - seed_radius, seed + seed_radius]. Overlapping
    brackets merge, and each connected interval gets one grid of at least
    _SEED_POINTS points and no coarser than 2 seed_radius /
    (_SEED_POINTS - 1), so a resonance seen by two seeds is gridded and
    refined once. golden_section_max (Brent's method) refines every
    interior local maximum of a grid between its grid neighbours, each
    step a full simulation. A refinement starts from the grid triple, the
    maximum and both neighbours, all built already, so its first step is
    the vertex of the parabola through them. A build yields only its
    QuenchSimulation.peak(): t_max, W_B and power are all a peak needs, so
    no observable is read out. Both phases, every grid point of every
    interval and then every refinement, run on a pool of one worker per
    core through _indexed_map (serially when called from a pool worker);
    an error in any point is raised again here. A grid edge is never a
    candidate, and a refinement that ends within xtol of its bracket edge
    is dropped: both are flanks of a resonance centred elsewhere. Peaks
    below min_ratio are dropped, and peaks closer than 1e-3 are
    deduplicated to the higher ratio.
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
                s = sim.peak()
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

    intervals = []
    for seed in sorted(seeds):
        a, b = max(lo, seed - seed_radius), min(hi, seed + seed_radius)
        if intervals and a <= intervals[-1][1]:
            intervals[-1][1] = max(intervals[-1][1], b)
        else:
            intervals.append([a, b])

    step = 2 * seed_radius / (_SEED_POINTS - 1)
    grids = []
    for a, b in intervals:
        if b - a < 4 * xtol:
            continue
        # a lone bracket, clipped or not, keeps _SEED_POINTS points; the
        # slack keeps rounding from adding one to an unclipped bracket
        points = max(_SEED_POINTS, int(np.ceil((b - a) / step - 1e-9)) + 1)
        grids.append(np.linspace(a, b, points))

    # the grids share no point and the brackets no interior, so each phase
    # builds the same simulations in any order
    workers = lapack.cores()
    _map_or_raise(evaluate, [w for grid in grids for w in grid], workers)
    brackets = []
    for grid in grids:
        vals = [evaluate(w)[0] for w in grid]
        brackets += [(grid[i - 1], grid[i], grid[i + 1])
                     for i in range(1, len(grid) - 1)
                     if vals[i - 1] < vals[i] >= vals[i + 1]]

    def refine(bracket):
        left, x, right = bracket
        if right - left >= 2 * xtol:
            ratio = [evaluate(w)[0] for w in bracket]
            x, _ = golden_section_max(
                lambda w: evaluate(w)[0], left, right, xtol=xtol,
                start=(x, ratio[1], ratio[0], ratio[2]))
            if min(x - left, right - x) < xtol:
                return None
        return x

    # longest first, so a short refinement runs last: a step's t_max
    # search costs more the later the first maximum (t_max at the bracket's
    # grid maximum, which transfers, so its summary exists)
    brackets.sort(key=lambda bracket: -evaluate(bracket[1])[1].t_max)
    peaks = []
    for x in _map_or_raise(refine, brackets, workers):
        if x is None:
            continue
        ratio, summary = evaluate(x)
        if summary is None or ratio < min_ratio:
            continue
        peaks.append(ResonancePeak(omega_C=float(x), ratio=float(ratio),
                                   t_max=summary.t_max, power=summary.power))

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
    both speed-limit times (Mandelstam-Tamm from psi(0)'s energy variance,
    QuenchSimulation.qsl_estimate, and the two-level closed form)."""

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
            "tau_qsl_num": sim.qsl_estimate(),
            "tau_qsl_tlm": tlm.qsl_tlm(params),
            "W_B": s.stored_work,
            "t_max": s.t_max,
        }

    return _sweep(scan, POWER_FIELDS, point, lambda value: {"value": value})


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

    return _sweep(scan, WIRR_FIELDS, point, lambda value: {
        "value": value, "below_pct_WC": False, "below_pct_WB": False})


def _tune_peak(peak, omega, tune, mapper=map):
    """(W_B at first maximum, omega used, t_max) from a per-omega
    ``peak(omega) -> (W, t)``, optionally re-centering omega_C on the local
    peak of W(omega) with a parabola through omega + (-1, 0, 1) _TUNE_SPAN.

    The three parabola runs, omega first, go through ``mapper(peak,
    omegas)``: the builtin ``map`` runs them one after another, and
    convergence_check hands in a ``_forked_map`` with one child per run.
    The vertex, when it is run, runs here after them. The re-centred
    omega_C stays within 2 _TUNE_SPAN of ``omega``; a vertex farther out
    is clipped to that, with a CutoffWarning, since W there is on a flank
    of the resonance rather than at its peak."""
    if not tune:
        w, t = peak(omega)
        return w, omega, t
    offsets = np.array([-_TUNE_SPAN, 0.0, _TUNE_SPAN])
    centre, below, above = mapper(peak, [omega, omega + offsets[0],
                                         omega + offsets[2]])
    runs = [below, centre, above]
    values = np.array([w for w, _ in runs])
    coeffs = np.polyfit(offsets, values, 2)
    # a parabola opening upward has its best point among the three runs
    if coeffs[0] < 0:
        raw = -coeffs[1] / (2 * coeffs[0])
        vertex = float(np.clip(raw, -2 * _TUNE_SPAN, 2 * _TUNE_SPAN))
        if vertex != raw:
            warnings.warn(
                f"tuning parabola peaks at omega_C = {omega + raw:.9g}, "
                f"{abs(raw):.3g} from {omega:.9g}; clipped to omega_C = "
                f"{omega + vertex:.9g}, which may sit on a flank of the "
                "resonance", CutoffWarning, stacklevel=3)
        wv, tv = peak(omega + vertex)
        if wv >= values.max():
            return wv, omega + vertex, tv
    best = int(np.argmax(values))
    w, t = runs[best]
    return w, float(omega + offsets[best]), t


def _dense_peak(cfg, omega):
    """(W_B, t_max) at the first stored-work maximum, dense pipeline."""
    sim = QuenchSimulation(dataclasses.replace(cfg, omega_C=float(omega)))
    s = sim.peak()
    return s.stored_work, s.t_max


def _krylov_peak(cfg, t_guide, omega):
    """(W_B, t_max) on the matrix-free pipeline, for any g_B: the maximum
    of W_B(t) over t_guide * [0.96, 1.04], found by golden_section_max
    (Brent's method) along one ``work_walk``.  The operator acts on the
    parity sector that holds psi(0): ``cfg.sector``, or for a FULL config
    the parity of the charger level, the only sector the dynamics reaches.
    A maximum within golden_section_max's xtol of either end of that bracket
    may lie outside it, and HorizonWarning says so."""
    sector = cfg.sector
    if sector is ParitySector.FULL:
        sector = ParitySector((-1) ** cfg.charger_level)
    op = ProductSpaceOperator(
        num_particles=cfg.num_particles, modes_battery=cfg.modes_battery,
        modes_charger=cfg.modes_charger, g_BC=cfg.g_BC, g_B=cfg.g_B,
        omega_B=cfg.omega_B, omega_C=float(omega), sector=sector)
    lo, hi = 0.96 * t_guide, 1.04 * t_guide
    t, w = golden_section_max(work_walk(op, cfg.charger_level), lo, hi)
    if min(t - lo, hi - t) < _XTOL:
        warnings.warn(
            f"matrix-free stored-work maximum at t = {t:.9g} is on the edge "
            f"of its search bracket [{lo:.9g}, {hi:.9g}]; the true maximum "
            "may lie outside it", HorizonWarning, stacklevel=2)
    return w, t


def convergence_check(config, factor=2, tune=True):
    """Cutoff convergence of the first stored-work maximum.

    Runs the pipeline at the working cutoffs and with both mode cutoffs
    multiplied by `factor`, an integer >= 1.  With tune=True each cutoff
    re-centers omega_C on its local transfer peak (three-point parabola
    through W_peak(omega)), so the comparison tracks the physical peak
    height rather than mixing in the slow cutoff drift of the peak
    position.  The low cutoff runs dense, with the global t_max search.
    The high cutoff, for any g_B, runs matrix-free on the parity sector of
    psi(0) (about half the product dimension), with t_max searched within
    4 % of t_low.  The three parabola runs of a cutoff do not depend on
    each other and run in three forked child processes (``_forked_map``),
    at max(1, cores // 3) BLAS threads each; the vertex run follows in this
    process.  The children's warnings are issued again here in run order.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ConfigError(f"factor must be an integer >= 1, not {factor!r}")
    high = dataclasses.replace(config,
                               modes_battery=factor * config.modes_battery,
                               modes_charger=factor * config.modes_charger)
    results = {}
    peak = functools.partial(_dense_peak, config)
    for tag, cfg in (("low", config), ("high", high)):
        w, omega, t = _tune_peak(peak, cfg.omega_C, tune, lambda fn, items:
                                 _forked_map(fn, items, len(items)))
        results[f"W_{tag}"] = w
        results[f"omega_{tag}"] = omega
        results[f"t_{tag}"] = t
        results[f"modes_{tag}"] = (cfg.modes_battery, cfg.modes_charger)
        # the high cutoff searches for t_max around the low cutoff's
        peak = functools.partial(_krylov_peak, high, t)
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
