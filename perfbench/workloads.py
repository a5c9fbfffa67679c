"""The benchmark's four workloads: inputs made from a seed, the timed
operations, and the checks run on their outputs.

Every operation goes through a public entry point of ``qbattery`` looked up
on its module at call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from pathlib import Path
from typing import Callable

import numpy as np

from qbattery import (basis, cli, dynamics, experiments, hamiltonian, krylov,
                      tlm)

import checks

G_BC = 0.1
MODES = 12


@dataclasses.dataclass
class Outcome:
    """Result of one operation, or the error it raised."""

    value: object = None
    error: str = ""


def attempt(fn, *args):
    try:
        return Outcome(value=fn(*args))
    except Exception as exc:  # one failed operation must not end the round
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def guarded(check, *args):
    """Problems found by one operation's check; a check that raises (a
    missing CSV, a renamed column) is a problem of that operation."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


@dataclasses.dataclass(frozen=True)
class Workload:
    make_inputs: Callable      # (seed, output directory) -> inputs
    count: Callable            # inputs -> number of operations in a round
    run: Callable              # inputs -> [Outcome], one per operation
    check: Callable            # (inputs, outcomes) -> [[problem]] per operation


# ----------------------------------------------------------------------------
# series: `qbattery simulate` in-process through cli.main

SERIES_POINTS = 80
SERIES_CHECKED_ROWS = 3


@dataclasses.dataclass
class SeriesJob:
    name: str
    config: dynamics.SimulationConfig
    ini: Path
    out: Path
    rows: list


def _write_ini(path, cfg, points, prefix):
    lines = ["[simulation]"]
    for key in ("num_particles", "omega_C", "g_BC", "g_B", "modes_battery",
                "modes_charger", "target_n"):
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")
    lines += ["[simulate]", f"points = {points}",
              "[output]", f"prefix = {prefix}"]
    path.write_text("\n".join(lines) + "\n")


def series_inputs(seed, outdir):
    rng = random.Random(seed)
    configs = (
        # the fig4 configuration: g_B = 0 at the n = 5 root, sector dim 2184
        ("resonant", dynamics.SimulationConfig(
            num_particles=3, omega_C=tlm.resonance_solve(5, 3, G_BC),
            g_BC=G_BC, modes_battery=MODES, modes_charger=MODES, target_n=5)),
        # an attractive battery: the work operator is not diagonal
        ("attractive", dynamics.SimulationConfig(
            num_particles=3, omega_C=1.0, g_BC=G_BC, g_B=-0.5,
            modes_battery=MODES, modes_charger=MODES)),
    )
    jobs = []
    for name, cfg in configs:
        ini = outdir / f"{name}.ini"
        _write_ini(ini, cfg, SERIES_POINTS, name)
        rows = sorted(rng.sample(range(1, SERIES_POINTS), SERIES_CHECKED_ROWS))
        jobs.append(SeriesJob(name, cfg, ini, outdir / name, rows))
    return jobs


def _simulate(job):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["--config", str(job.ini), "--out", str(job.out),
                         "simulate"])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"qbattery simulate exited with {code}")
    return printed.getvalue()


def series_run(jobs):
    return [attempt(_simulate, job) for job in jobs]


def reference_dynamics(cfg):
    """Exact dynamics of a config from the model matrices alone."""
    sector = basis.build_composite_basis(cfg.battery_config(),
                                         cfg.charger_config(),
                                         sector=cfg.sector)
    hams = hamiltonian.build_hamiltonian_set(sector, cfg.g_B, cfg.g_BC,
                                             omega_B=cfg.omega_B,
                                             omega_C=cfg.omega_C)
    return checks.ReferenceDynamics(
        hams.h0, hams.hint, sector.battery_index, sector.charger_index,
        sector.index_matrix, cfg.omega_C, cfg.charger_level)


def check_series_job(job, printed):
    columns = checks.read_series_csv(job.out / f"{job.name}.csv")
    if columns["t"].size != SERIES_POINTS:
        return [f"{columns['t'].size} rows, expected {SERIES_POINTS}"]
    reference = reference_dynamics(job.config)
    problems = checks.check_series_properties(columns)
    problems += checks.check_series_rows(columns, reference, job.rows)
    if job.config.g_B == 0:
        problems += checks.check_series_summary(
            checks.parse_summary(printed), reference,
            job.config.charger_level * job.config.omega_C)
    return problems


def series_check(jobs, outcomes):
    return [[o.error] if o.error else guarded(check_series_job, job, o.value)
            for job, o in zip(jobs, outcomes)]


# ----------------------------------------------------------------------------
# scan: power_scan on the fig3a set-up with two worker threads

SCAN_N = 5
SCAN_PARTICLES = (1, 2, 3)
SCAN_GRID = (0.04, 0.1)
SCAN_POINTS = 4
SCAN_WORKERS = 2


def scan_inputs(seed, outdir):
    """One g_BC per quarter of SCAN_GRID, drawn from the seed."""
    rng = random.Random(seed)
    lo, hi = SCAN_GRID
    width = (hi - lo) / SCAN_POINTS
    grid = tuple(lo + width * (k + rng.uniform(0.1, 0.9))
                 for k in range(SCAN_POINTS))
    return [experiments.ScanConfig(
        "g_BC", grid,
        dynamics.SimulationConfig(num_particles=nb, omega_C=float(SCAN_N),
                                  g_BC=grid[0], modes_battery=MODES,
                                  modes_charger=MODES, target_n=SCAN_N),
        workers=SCAN_WORKERS) for nb in SCAN_PARTICLES]


def scan_run(scans):
    outcomes = []
    for scan in scans:
        whole = attempt(experiments.power_scan, scan)
        if whole.error:
            outcomes += [Outcome(error=whole.error) for _ in scan.values]
        else:
            outcomes += [Outcome(value=row, error=row["error"])
                         for row in whole.value]
    return outcomes


def scan_check(scans, outcomes):
    points = len(scans[0].values)
    problems = [[o.error] if o.error
                else guarded(checks.check_scan_row, o.value, SCAN_N)
                for o in outcomes]
    one = SCAN_PARTICLES.index(1) * points
    two = SCAN_PARTICLES.index(2) * points
    for k in range(points):
        if not outcomes[one + k].error and not outcomes[two + k].error:
            problems[two + k] += guarded(
                checks.check_scan_scaling, outcomes[one + k].value,
                outcomes[two + k].value)
    return problems


# ----------------------------------------------------------------------------
# resonance: find_resonance_peaks for two interacting batteries

RESONANCE_MODES = 10
RESONANCE_STEP = 2e-3


@dataclasses.dataclass
class Window:
    name: str
    bounds: tuple
    config: dynamics.SimulationConfig


def resonance_inputs(seed, outdir):
    def config(g_B, n):
        return dynamics.SimulationConfig(
            num_particles=2, omega_C=float(n), g_BC=G_BC, g_B=g_B,
            modes_battery=RESONANCE_MODES, modes_charger=RESONANCE_MODES,
            target_n=n)
    return [Window("split", (4.5, 5.5), config(3.0, 5)),
            Window("attractive", (0.55, 1.45), config(-0.5, 1))]


def resonance_run(windows):
    return [attempt(experiments.find_resonance_peaks, w.bounds, w.config)
            for w in windows]


def transfer_ratio(cfg, omega_C):
    sim = dynamics.QuenchSimulation(dataclasses.replace(cfg, omega_C=omega_C))
    return sim.summarize().stored_work / sim.charger_quantum


def check_window(window, peaks):
    if window.name == "split":
        problems = checks.check_split_window(peaks)
    else:
        problems = checks.check_single_peak(
            peaks, tlm.resonance_solve(1, window.config.num_particles, G_BC))
    return problems + checks.check_local_maxima(
        peaks, lambda omega: transfer_ratio(window.config, omega),
        RESONANCE_STEP)


def resonance_check(windows, outcomes):
    return [[o.error] if o.error else guarded(check_window, w, o.value)
            for w, o in zip(windows, outcomes)]


def peaks_reported(outcomes):
    return sum(len(o.value) for o in outcomes
               if isinstance(o.value, list) and o.value
               and isinstance(o.value[0], experiments.ResonancePeak))


# ----------------------------------------------------------------------------
# cutoff: convergence_check, dense low cutoff and matrix-free high cutoff

CUTOFF_N = 3
CUTOFF_MODES = 13   # doubled: product dimension 9126, above DENSE_LIMIT
CUTOFF_FINE_STEP = 2.5e-3


def cutoff_inputs(seed, outdir):
    return dynamics.SimulationConfig(
        num_particles=2, omega_C=tlm.resonance_solve(CUTOFF_N, 2, G_BC),
        g_BC=G_BC, modes_battery=CUTOFF_MODES, modes_charger=CUTOFF_MODES,
        target_n=CUTOFF_N)


def cutoff_run(cfg):
    return [attempt(experiments.convergence_check, cfg, 2, True)]


def high_cutoff_work(cfg, result):
    """W_B(t) of the matrix-free high cutoff at omega_high, on the grid
    t_high * (1 + k CUTOFF_FINE_STEP), k = -6..6."""
    modes_battery, modes_charger = result["modes_high"]
    op = krylov.ProductSpaceOperator(
        num_particles=cfg.num_particles, modes_battery=modes_battery,
        modes_charger=modes_charger, g_BC=cfg.g_BC, omega_B=cfg.omega_B,
        omega_C=result["omega_high"])
    times = result["t_high"] * (1.0 + CUTOFF_FINE_STEP * np.arange(-6, 7))
    return times, krylov.propagate_work_series(op, times, cfg.charger_level,
                                               method="chebyshev")


def check_cutoff_result(cfg, result):
    tau = checks.tau_qsl(CUTOFF_N, cfg.num_particles, cfg.g_BC, cfg.omega_C)
    problems = checks.check_cutoff(result, tau)
    times, works = high_cutoff_work(cfg, result)
    return problems + checks.check_high_maximum(result, times, works)


def cutoff_check(cfg, outcomes):
    (outcome,) = outcomes
    if outcome.error:
        return [[outcome.error]]
    return [guarded(check_cutoff_result, cfg, outcome.value)]


WORKLOADS = {
    "series": Workload(series_inputs, len, series_run, series_check),
    "scan": Workload(scan_inputs, lambda scans: sum(len(s.values)
                                                    for s in scans),
                     scan_run, scan_check),
    "resonance": Workload(resonance_inputs, len, resonance_run,
                          resonance_check),
    "cutoff": Workload(cutoff_inputs, lambda cfg: 1, cutoff_run, cutoff_check),
}
