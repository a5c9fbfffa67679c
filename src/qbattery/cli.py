"""Command-line front end: config parsing, subcommand dispatch, artifact
emission, and figure-style reproduction presets.

Configs are flat INI files with one section per concern; unknown sections or
keys are hard errors so a typo cannot silently fall back to a default.  The
five global flags (--config, --out, --threads, --modes-battery,
--modes-charger) override file values.  Every run writes a manifest JSON
sufficient to re-run it bit-identically.

Exit codes: 0 success, 2 configuration error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import configparser
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import tlm
from .dynamics import SERIES_COLUMNS, QuenchSimulation, SimulationConfig
from .errors import ConfigError, NoTransferError, NumericalBreakdownError
from .experiments import (ScanConfig, emit_plot_script, find_resonance_peaks,
                          power_scan, spectrum_scan, wirr_scan, write_csv,
                          write_manifest)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
OUTPUT_ENV = "QBATTERY_OUTPUT_DIR"

SERIES_SCHEMA = "qbattery-series-v1"
PEAKS_SCHEMA = "qbattery-peaks-v1"
TLM_SCHEMA = "qbattery-tlm-v1"

_SIMULATION_KEYS = {
    "num_particles": int,
    "omega_B": float,
    "omega_C": float,
    "g_B": float,
    "g_BC": float,
    "modes_battery": int,
    "modes_charger": int,
    "charger_level": int,
    "target_n": int,
}

# the config file is flat key-value with one section per concern
KNOWN_SECTIONS = {
    "simulation": set(_SIMULATION_KEYS),
    "simulate": {"horizon", "points"},
    "scan": {"kind", "parameter", "start", "stop", "points", "values",
             "workers"},
    "resonance": {"window_lo", "window_hi", "xtol"},
    "tlm": {"n_values"},
    "output": {"directory", "prefix"},
}


def load_config_file(path):
    """Flat INI -> {(section, key): raw string}; unknown names are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (g_BC vs g_B)
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    data = {}
    for section in parser.sections():
        if section not in KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in KNOWN_SECTIONS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            data[(section, key)] = value
    return data


def _convert(raw, caster, name):
    try:
        return caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {name} = {raw!r}") from exc


def build_simulation_config(data, args, defaults=None):
    """SimulationConfig from file values plus flag overrides."""
    kwargs = dict(defaults or {})
    for key, caster in _SIMULATION_KEYS.items():
        raw = data.get(("simulation", key))
        if raw is not None:
            kwargs[key] = _convert(raw, caster, f"simulation.{key}")
    if args.modes_battery is not None:
        kwargs["modes_battery"] = args.modes_battery
    if args.modes_charger is not None:
        kwargs["modes_charger"] = args.modes_charger
    try:
        cfg = SimulationConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(
            "missing required simulation keys (num_particles, omega_C, "
            f"g_BC): {exc}") from exc
    if cfg.g_BC < 0:
        print("note: attractive inter-species coupling (g_BC < 0); "
              "transfer claims in the docs cover repulsive coupling only",
              file=sys.stderr)
    return cfg


def resolve_output_dir(args):
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUTPUT_ENV, "qbattery-output"))


def _grid_from(data, args):
    raw_values = data.get(("scan", "values"))
    if raw_values is not None:
        values = [_convert(v.strip(), float, "scan.values")
                  for v in raw_values.split(",") if v.strip()]
        return tuple(values)
    start = data.get(("scan", "start"))
    stop = data.get(("scan", "stop"))
    points = data.get(("scan", "points"))
    if start is None or stop is None or points is None:
        raise ConfigError(
            "scan needs either scan.values or scan.start/stop/points")
    start = _convert(start, float, "scan.start")
    stop = _convert(stop, float, "scan.stop")
    points = _convert(points, int, "scan.points")
    if points < 1:
        raise ConfigError("scan.points must be >= 1")
    return tuple(np.linspace(start, stop, points))


def _workers(data, args):
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return args.threads
    raw = data.get(("scan", "workers"))
    return _convert(raw, int, "scan.workers") if raw is not None else 1


def _run_manifest(path, command, config, extra=None):
    payload = {
        "schema": "qbattery-run-v1",
        "command": command,
        "config": dataclasses.asdict(config),
    }
    if extra:
        payload.update(extra)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


def _series_rows(series, overlay=None):
    fieldnames = list(SERIES_COLUMNS)
    columns = [series.times, series.stored_work, series.ergotropy,
               series.entropy, series.interaction_energy,
               series.irreversible_work, series.total_energy]
    if overlay is not None:
        fieldnames += ["W_B_tlm", "ergotropy_tlm"]
        columns += [overlay[0], overlay[1]]
    rows = [dict(zip(fieldnames, vals)) for vals in zip(*columns)]
    return fieldnames, rows


def write_series_csv(path, sim, times=None, points=600, overlay_tlm=None):
    """Write the time series of one built simulation (optionally with
    two-level-model overlay columns, available for the ideal battery)."""
    cfg = sim.config
    if times is None:
        times = sim.default_times(points=points)
    series = sim.series(times)
    if overlay_tlm is None:
        overlay_tlm = cfg.g_B == 0 and cfg.charger_level == 1
    overlay = None
    if overlay_tlm:
        if cfg.g_B != 0:
            raise ConfigError("two-level overlay requires an ideal battery")
        params = tlm.tlm_params(cfg.target_n, cfg.num_particles, cfg.g_BC,
                                cfg.omega_C, omega_B=cfg.omega_B)
        overlay = (np.array([tlm.wb_tlm(params, t) for t in times]),
                   np.array([tlm.ergotropy_tlm(params, t) for t in times]))
    fieldnames, rows = _series_rows(series, overlay)
    write_csv(path, fieldnames, rows, schema=SERIES_SCHEMA)
    return series


def cmd_simulate(args):
    data = load_config_file(args.config) if args.config else {}
    cfg = build_simulation_config(data, args)
    outdir = resolve_output_dir(args)
    prefix = data.get(("output", "prefix"), "simulate")
    points = data.get(("simulate", "points"))
    points = _convert(points, int, "simulate.points") if points else 600
    if points < 2:
        raise ConfigError("simulate.points must be >= 2")
    horizon = data.get(("simulate", "horizon"))
    times = None
    if horizon is not None:
        horizon = _convert(horizon, float, "simulate.horizon")
        if not 0 < horizon < np.inf:
            raise ConfigError("simulate.horizon must be positive and finite")
        times = np.linspace(0.0, horizon, points)
    csv_path = outdir / f"{prefix}.csv"
    sim = QuenchSimulation(cfg)
    write_series_csv(csv_path, sim, times=times, points=points)
    emit_plot_script(csv_path, "series")
    _run_manifest(outdir / f"{prefix}.manifest.json", "simulate", cfg,
                  extra={"points": points,
                         "horizon": horizon if horizon else "auto"})
    try:
        s = sim.summarize()
        print(f"t_max={s.t_max:.6f}  W_B={s.stored_work:.6f}  "
              f"ergotropy={s.ergotropy:.6f}  ratio="
              f"{s.stored_work / sim.charger_quantum:.6f}")
    except NoTransferError:
        print("no measurable energy transfer for this configuration")
    print(f"wrote {csv_path}")
    return EXIT_OK


_SCAN_KINDS = {"spectrum": (spectrum_scan, "spectrum"),
               "power": (power_scan, "power"),
               "wirr": (wirr_scan, "wirr")}


def cmd_scan(args):
    if not args.config:
        raise ConfigError("scan requires --config with a [scan] section")
    data = load_config_file(args.config)
    cfg = build_simulation_config(data, args)
    kind = data.get(("scan", "kind"))
    if kind not in _SCAN_KINDS:
        raise ConfigError(
            f"scan.kind must be one of {sorted(_SCAN_KINDS)}, got {kind!r}")
    parameter = data.get(("scan", "parameter"))
    if parameter is None:
        raise ConfigError("scan.parameter is required")
    outdir = resolve_output_dir(args)
    prefix = data.get(("output", "prefix"), f"scan_{kind}")
    csv_path = outdir / f"{prefix}.csv"
    scan = ScanConfig(parameter=parameter, values=_grid_from(data, args),
                      base=cfg, workers=_workers(data, args),
                      output=str(csv_path))
    driver, plot_kind = _SCAN_KINDS[kind]
    rows = driver(scan)
    emit_plot_script(csv_path, plot_kind)
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {csv_path} ({len(rows)} rows, {failures} failed)")
    return EXIT_OK


def cmd_resonance(args):
    if not args.config:
        raise ConfigError("resonance requires --config with [resonance]")
    data = load_config_file(args.config)
    cfg = build_simulation_config(data, args)
    lo = data.get(("resonance", "window_lo"))
    hi = data.get(("resonance", "window_hi"))
    if lo is None or hi is None:
        raise ConfigError("resonance.window_lo and window_hi are required")
    lo = _convert(lo, float, "resonance.window_lo")
    hi = _convert(hi, float, "resonance.window_hi")
    xtol = data.get(("resonance", "xtol"))
    xtol = _convert(xtol, float, "resonance.xtol") if xtol else 1e-5
    if xtol <= 0:
        raise ConfigError("resonance.xtol must be positive")
    outdir = resolve_output_dir(args)
    prefix = data.get(("output", "prefix"), "resonance")
    peaks = find_resonance_peaks((lo, hi), cfg, xtol=xtol)
    fieldnames = ["omega_C", "ratio", "t_max", "power"]
    rows = [{k: getattr(p, k) for k in fieldnames} for p in peaks]
    csv_path = write_csv(outdir / f"{prefix}.csv", fieldnames, rows,
                         schema=PEAKS_SCHEMA)
    _run_manifest(outdir / f"{prefix}.manifest.json", "resonance", cfg,
                  extra={"window": [lo, hi], "xtol": xtol,
                         "peaks": len(rows)})
    if not rows:
        print(f"no-resonance window: ratio stayed below 0.5 on "
              f"[{lo:g}, {hi:g}]")
    for p in peaks:
        print(f"peak omega_C={p.omega_C:.6f}  ratio={p.ratio:.4f}  "
              f"t_max={p.t_max:.4f}  power={p.power:.6f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_tlm(args):
    data = load_config_file(args.config) if args.config else {}
    # the closed-form table needs no omega_C of its own: roots are solved per n
    cfg = build_simulation_config(
        data, args, defaults={"num_particles": 1, "omega_C": 1.0,
                              "g_BC": 0.1})
    raw = data.get(("tlm", "n_values"), "1,3,5,7,9")
    n_values = [_convert(v.strip(), int, "tlm.n_values")
                for v in raw.split(",") if v.strip()]
    if any(n < 1 or n % 2 == 0 for n in n_values):
        raise ConfigError("tlm.n_values must be odd and >= 1")
    outdir = resolve_output_dir(args)
    prefix = data.get(("output", "prefix"), "tlm")
    fieldnames = ["n", "N_B", "g_BC", "omega_star", "coupling_J",
                  "tau_qsl", "power"]
    rows = []
    for n in n_values:
        root = tlm.resonance_solve(n, cfg.num_particles, cfg.g_BC,
                                   omega_B=cfg.omega_B)
        params = tlm.tlm_params(n, cfg.num_particles, cfg.g_BC, root,
                                omega_B=cfg.omega_B)
        rows.append({"n": n, "N_B": cfg.num_particles, "g_BC": cfg.g_BC,
                     "omega_star": root, "coupling_J": params.coupling,
                     "tau_qsl": tlm.qsl_tlm(params),
                     "power": tlm.power_tlm(params)})
    csv_path = write_csv(outdir / f"{prefix}.csv", fieldnames, rows,
                         schema=TLM_SCHEMA)
    _run_manifest(outdir / f"{prefix}.manifest.json", "tlm", cfg,
                  extra={"n_values": n_values})
    for r in rows:
        print(f"n={r['n']}  omega*={r['omega_star']:.10f}  "
              f"tau_qsl={r['tau_qsl']:.4f}  power={r['power']:.6f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _preset_series(outdir, name, cfg, workers):
    path = outdir / f"{name}.csv"
    write_series_csv(path, QuenchSimulation(cfg))
    emit_plot_script(path, "series")
    return [path]


def _preset_scan(outdir, name, kind, parameter, values, cfg, workers):
    path = outdir / f"{name}.csv"
    scan = ScanConfig(parameter=parameter, values=values, base=cfg,
                      workers=workers, output=str(path))
    driver, plot_kind = _SCAN_KINDS[kind]
    driver(scan)
    emit_plot_script(path, plot_kind)
    return [path]


def _root(n, num_particles, g_BC):
    return tlm.resonance_solve(n, num_particles, g_BC)


def _fig2a(outdir, workers):
    cfg = SimulationConfig(num_particles=2, omega_C=1.0, g_BC=0.1, target_n=1)
    return _preset_series(outdir, "fig2a", cfg, workers)


def _fig2b(outdir, workers):
    cfg = SimulationConfig(num_particles=2, omega_C=_root(3, 2, 0.1),
                           g_BC=0.1, target_n=3)
    return _preset_series(outdir, "fig2b", cfg, workers)


def _fig2g(outdir, workers):
    written = []
    grid = tuple(np.round(np.arange(0.55, 5.501, 0.05), 10))
    for nb in (1, 2):
        cfg = SimulationConfig(num_particles=nb, omega_C=1.0, g_BC=0.1,
                               target_n=5)
        written += _preset_scan(outdir, f"fig2g_N{nb}", "spectrum", "omega_C",
                                grid, cfg, workers)
    return written


def _fig3a(outdir, workers):
    written = []
    grid = tuple(np.round(np.arange(0.02, 0.101, 0.01), 10))
    for nb in (1, 2, 3):
        cfg = SimulationConfig(num_particles=nb, omega_C=5.0, g_BC=0.1,
                               target_n=5)
        written += _preset_scan(outdir, f"fig3a_N{nb}", "power", "g_BC",
                                grid, cfg, workers)
    return written


def _fig3b(outdir, workers):
    written = []
    for nb in (1, 2, 3):
        cfg = SimulationConfig(num_particles=nb, omega_C=1.0, g_BC=0.1,
                               target_n=1)
        written += _preset_scan(outdir, f"fig3b_N{nb}", "power", "target_n",
                                (1, 3, 5, 7, 9), cfg, workers)
    return written


def _fig4(outdir, workers):
    written = []
    for nb in (1, 2, 3):
        cfg = SimulationConfig(num_particles=nb, omega_C=_root(5, nb, 0.1),
                               g_BC=0.1, target_n=5)
        written += _preset_series(outdir, f"fig4_N{nb}", cfg, workers)
    return written


def _fig5(outdir, workers):
    written = []
    grid = tuple(np.round(np.arange(0.02, 0.101, 0.01), 10))
    for n in (1, 3, 5, 9):
        for nb in (1, 2, 3):
            cfg = SimulationConfig(num_particles=nb, omega_C=float(n),
                                   g_BC=0.1, target_n=n,
                                   modes_battery=max(12, n + 4),
                                   modes_charger=max(12, n + 4))
            written += _preset_scan(outdir, f"fig5_n{n}_N{nb}", "wirr",
                                    "g_BC", grid, cfg, workers)
    return written


def _fig6(outdir, workers):
    written = []
    grid = tuple(np.round(np.arange(0.5, 1.401, 0.1), 10))
    for nb in (1, 2, 3):
        cfg = SimulationConfig(num_particles=nb, omega_C=5.0, g_BC=1.0,
                               target_n=5)
        written += _preset_scan(outdir, f"fig6a_N{nb}", "power", "g_BC",
                                grid, cfg, workers)
        written += _preset_scan(outdir, f"fig6b_N{nb}", "wirr", "g_BC",
                                grid, cfg, workers)
    return written


def _fig7(outdir, workers):
    written = []
    for n in (1, 3):
        grid = tuple(np.round(np.arange(n - 0.45, n + 0.4501, 0.02), 10))
        cfg1 = SimulationConfig(num_particles=1, omega_C=float(n), g_BC=0.1,
                                target_n=n)
        written += _preset_scan(outdir, f"fig7_n{n}_N1", "spectrum",
                                "omega_C", grid, cfg1, workers)
        for nb in (2, 3):
            for g_B in (-0.5, 0.5, 3.0):
                cfg = SimulationConfig(num_particles=nb, omega_C=float(n),
                                       g_B=g_B, g_BC=0.1, target_n=n)
                tag = f"fig7_n{n}_N{nb}_gB{g_B:+g}"
                written += _preset_scan(outdir, tag, "spectrum", "omega_C",
                                        grid, cfg, workers)
    return written


def _fig8(outdir, workers):
    written = []
    for nb in (2, 3):
        for g_B in (0.0, 0.5, -0.5):
            cfg = SimulationConfig(num_particles=nb, omega_C=1.0, g_B=g_B,
                                   g_BC=0.1, target_n=1)
            tag = f"fig8_N{nb}_gB{g_B:+g}"
            written += _preset_scan(outdir, tag, "power", "target_n",
                                    (1, 3, 5, 7, 9), cfg, workers)
    return written


def _fig9(outdir, workers):
    cfg = SimulationConfig(num_particles=2, omega_C=_root(5, 2, 1.4),
                           g_BC=1.4, target_n=5)
    return _preset_series(outdir, "fig9", cfg, workers)


PRESETS = {
    "fig2a": _fig2a, "fig2b": _fig2b, "fig2g": _fig2g,
    "fig3a": _fig3a, "fig3b": _fig3b, "fig4": _fig4, "fig5": _fig5,
    "fig6": _fig6, "fig7": _fig7, "fig8": _fig8, "fig9": _fig9,
}


def cmd_reproduce(args):
    preset = PRESETS.get(args.figure)
    if preset is None:
        raise ConfigError(
            f"unknown figure id {args.figure!r}; choose from "
            f"{', '.join(sorted(PRESETS))}")
    if args.modes_battery is not None or args.modes_charger is not None:
        raise ConfigError("figure presets pin their own mode cutoffs; "
                          "--modes-battery/--modes-charger do not apply")
    workers = _workers({}, args)
    outdir = resolve_output_dir(args)
    written = preset(outdir, workers)
    manifest = outdir / f"{args.figure}.manifest.json"
    payload = {"schema": "qbattery-run-v1", "command": "reproduce",
               "figure": args.figure,
               "artifacts": sorted(str(p) for p in written)}
    manifest.parent.mkdir(parents=True, exist_ok=True)
    manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for p in written:
        print(f"wrote {p}")
    print(f"wrote {manifest}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Simulate a bosonic quantum battery charged through a "
                    "contact-interaction quench.")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", help="output directory (default: "
                        f"${OUTPUT_ENV} or ./qbattery-output)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for scans")
    parser.add_argument("--modes-battery", type=int, default=None,
                        help="battery mode cutoff override")
    parser.add_argument("--modes-charger", type=int, default=None,
                        help="charger mode cutoff override")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="one config, full time series")
    sub.add_parser("scan", help="sweep one parameter (spectrum/power/wirr)")
    sub.add_parser("resonance", help="locate transfer peaks in a window")
    sub.add_parser("tlm", help="two-level-model table (roots, QSL, power)")
    rep = sub.add_parser("reproduce", help="run a named figure preset")
    rep.add_argument("figure", help="figure id, e.g. fig2b")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "scan": cmd_scan,
    "resonance": cmd_resonance,
    "tlm": cmd_tlm,
    "reproduce": cmd_reproduce,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalBreakdownError, NoTransferError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
