"""Scans, resonance searching, CSV/manifest output, and convergence checks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from qbattery import experiments
from qbattery.basis import ParitySector
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import ConfigError, NoTransferError
from qbattery.experiments import (RATIO_CAP, ResonancePeak, ScanConfig,
                                  convergence_check, degeneracy_seeds,
                                  emit_plot_script, find_resonance_peaks,
                                  fine_tune_resonance, power_scan,
                                  spectrum_scan, wirr_scan, write_csv,
                                  write_manifest)
from qbattery.tlm import resonance_solve


def base_config(**kw):
    d = dict(num_particles=1, omega_C=1.0, g_BC=0.1,
             modes_battery=8, modes_charger=8, target_n=1)
    d.update(kw)
    return SimulationConfig(**d)


def test_scan_config_validation():
    cfg = base_config()
    with pytest.raises(ConfigError):
        ScanConfig("volume", (1.0, 2.0), cfg)
    with pytest.raises(ConfigError):
        ScanConfig("omega_C", (), cfg)
    with pytest.raises(ConfigError):
        ScanConfig("omega_C", (2.0, 1.0), cfg)
    with pytest.raises(ConfigError):
        ScanConfig("omega_C", (1.0, 2.0), cfg, workers=0)
    scan = ScanConfig("omega_C", np.array([0.9, 1.0, 1.1]), cfg)
    assert scan.values == (0.9, 1.0, 1.1)
    assert isinstance(scan.values[0], float)


def test_scan_config_replaces_fields():
    cfg = base_config()
    scan = ScanConfig("g_BC", (0.05, 0.1), cfg)
    assert scan.config_at(0.05).g_BC == 0.05
    nscan = ScanConfig("target_n", (1.0, 3.0), cfg)
    out = nscan.config_at(3.0)
    assert out.target_n == 3
    assert isinstance(out.target_n, int)


def test_resonance_peak_ratio_cap():
    ResonancePeak(1.0, 1.01, 50.0, 0.02)   # slight overshoot is physical
    with pytest.raises(ConfigError):
        ResonancePeak(1.0, RATIO_CAP + 0.01, 50.0, 0.02)
    with pytest.raises(ConfigError):
        ResonancePeak(1.0, -0.05, 50.0, 0.02)


def test_write_csv_is_deterministic(tmp_path):
    rows = [{"a": 1.0 / 3.0, "b": True, "error": ""},
            {"a": float("nan"), "b": False, "error": "ConfigError: x"}]
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_csv(p1, ["a", "b", "error"], rows)
    write_csv(p2, ["a", "b", "error"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("# schema=")
    assert "0.3333333333333333" in text


def test_write_manifest_contents(tmp_path):
    scan = ScanConfig("omega_C", (0.9, 1.1), base_config(), workers=2)
    path = write_manifest(tmp_path / "scan.manifest.json", scan,
                          extra={"note": "unit"})
    data = json.loads(path.read_text())
    assert data["parameter"] == "omega_C"
    assert data["grid"] == [0.9, 1.1]
    assert data["base"]["num_particles"] == 1
    assert data["workers"] == 2
    assert data["note"] == "unit"
    assert "timestamp" not in data


def test_spectrum_scan_peaks_at_root(tmp_path):
    root = resonance_solve(1, 1, 0.1)
    grid = (0.90, 0.96, root, 1.06, 1.12)
    out = tmp_path / "spectrum.csv"
    scan = ScanConfig("omega_C", grid, base_config(),
                      output=str(out))
    rows = spectrum_scan(scan)
    assert len(rows) == len(grid)
    ratios = [r["ratio_W"] for r in rows]
    assert max(ratios) == ratios[2]
    assert ratios[2] > 0.99
    assert all(r["error"] == "" for r in rows)
    assert out.exists()
    assert out.with_suffix(".manifest.json").exists()


def test_spectrum_scan_requires_omega_grid():
    scan = ScanConfig("g_BC", (0.05, 0.1), base_config())
    with pytest.raises(ConfigError):
        spectrum_scan(scan)


def test_scan_isolates_per_point_failures():
    # a null coupling never transfers anything; the row reports the error
    # while the remaining points stay healthy
    scan = ScanConfig("g_BC", (0.0, 0.1), base_config(
        omega_C=resonance_solve(1, 1, 0.1)))
    rows = power_scan(scan)
    assert rows[0]["error"] != ""
    assert math.isnan(rows[0]["power_ED"])
    assert rows[1]["error"] == ""
    assert rows[1]["power_ED"] > 0.0


def test_degeneracy_seeds_free_battery():
    cfg = base_config(num_particles=2, modes_battery=10, modes_charger=10)
    assert degeneracy_seeds((0.5, 1.5), cfg) == pytest.approx([1.0],
                                                              abs=1e-9)
    assert degeneracy_seeds((2.5, 3.5), cfg) == pytest.approx([3.0],
                                                              abs=1e-9)
    assert degeneracy_seeds((1.2, 1.8), cfg) == []


def test_fine_tune_finds_root_when_free():
    cfg = base_config()
    root = resonance_solve(1, 1, 0.1)
    peak = fine_tune_resonance((0.8, 1.2), cfg)
    assert abs(peak.omega_C - root) < 1e-3
    assert peak.ratio > 0.99
    assert peak.power == pytest.approx(
        peak.ratio * peak.omega_C / peak.t_max, rel=1e-10)


def test_fine_tune_raises_in_dead_window():
    cfg = base_config(target_n=2)
    with pytest.raises(NoTransferError):
        fine_tune_resonance((1.8, 2.2), cfg, min_ratio=0.5)


def test_find_resonance_peaks_sorted_by_ratio():
    cfg = base_config()
    peaks = find_resonance_peaks((0.8, 1.2), cfg, min_ratio=0.1)
    assert len(peaks) >= 1
    ratios = [p.ratio for p in peaks]
    assert ratios == sorted(ratios, reverse=True)


def test_find_resonance_peaks_skips_bracket_edge_flanks():
    # at g_B = 3 the 2.90 resonance rises across the lower edge of the
    # bracket around the 3.08 seed; that edge is a flank, not a peak, while
    # the weak interior maximum at the seed itself is one
    cfg = base_config(num_particles=2, g_B=3.0, modes_battery=6,
                      modes_charger=6, target_n=3)
    window, radius = (2.5, 3.5), 0.08
    edges = [e for s in degeneracy_seeds(window, cfg)
             for e in (max(window[0], s - radius), min(window[1], s + radius))]
    peaks = find_resonance_peaks(window, cfg, seed_radius=radius,
                                 min_ratio=0.05)
    located = [(round(p.omega_C, 4), round(p.ratio, 3)) for p in peaks]
    assert all(abs(p.omega_C - e) > 1e-4 for p in peaks for e in edges), \
        located
    assert any(abs(p.omega_C - 2.9015) < 1e-3 and p.ratio > 0.99
               for p in peaks), located
    assert any(abs(p.omega_C - 3.078) < 1e-3 for p in peaks), located


def test_power_scan_matches_two_level_power(tmp_path):
    # ED and two-level powers agree at the permille level at weak
    # coupling; the strict one-sided bound, P_ED below the two-level
    # model's own first-maximum power wb_tlm(tau) / tau, is asserted in
    # the acceptance gate
    out = tmp_path / "power.csv"
    scan = ScanConfig("g_BC", (0.05, 0.1),
                      base_config(target_n=5, modes_battery=12,
                                  modes_charger=12),
                      output=str(out))
    rows = power_scan(scan)
    for row in rows:
        assert row["error"] == ""
        assert abs(row["power_ED"] / row["power_TLM"] - 1.0) < 5e-3
        assert row["tau_qsl_tlm"] > 0
    assert out.exists()


def test_wirr_scan_flags(tmp_path):
    out = tmp_path / "wirr.csv"
    scan = ScanConfig("g_BC", (0.05, 0.1), base_config(target_n=3),
                      output=str(out))
    rows = wirr_scan(scan)
    for row in rows:
        assert row["error"] == ""
        assert row["W_irr"] >= -1e-10
        assert row["W_B"] > 0
        assert row["below_pct_WB"] in (0, 1, True, False)
    assert out.exists()


def test_convergence_check_reports_both_cutoffs():
    cfg = base_config(modes_battery=6, modes_charger=6,
                      omega_C=resonance_solve(1, 1, 0.1))
    res = convergence_check(cfg, factor=2, tune=False)
    assert res["modes_low"] == (6, 6)
    assert res["modes_high"] == (12, 12)
    assert res["W_low"] > 0 and res["W_high"] > 0
    assert res["rel_diff"] == pytest.approx(
        abs(res["W_high"] - res["W_low"]) / abs(res["W_low"]), rel=1e-12)
    assert res["rel_diff"] < 1e-2


def test_convergence_check_matrix_free_branch(monkeypatch):
    """Low cutoff dense, high cutoff matrix-free: the reported (W, t) is the
    first stored-work maximum the dense pipeline finds at the same cutoff
    and omega_C, not a point near the low cutoff's t."""
    cfg = base_config(num_particles=2, modes_battery=8, modes_charger=8,
                      omega_C=resonance_solve(3, 2, 0.1), target_n=3)
    # product dimension 36 * 8 = 288 at M = 8, 136 * 16 = 2176 at M = 16
    monkeypatch.setattr(experiments, "DENSE_LIMIT", 1000)
    res = convergence_check(cfg, factor=2, tune=True)
    assert res["modes_high"] == (16, 16)
    high = dataclasses.replace(cfg, modes_battery=16, modes_charger=16,
                               omega_C=res["omega_high"])
    dense = QuenchSimulation(high).summarize()
    assert res["t_high"] == pytest.approx(dense.t_max, rel=0, abs=1e-5)
    assert res["W_high"] == pytest.approx(dense.stored_work, rel=0, abs=1e-9)


def test_krylov_peak_on_full_config_runs_the_reached_sector():
    """A FULL config with charger level 2 runs matrix-free in the EVEN
    sector, the only one psi(0) reaches, and finds the dense peak."""
    cfg = base_config(num_particles=2, modes_battery=8, modes_charger=8,
                      omega_C=resonance_solve(3, 2, 0.1), target_n=3,
                      charger_level=2, sector=ParitySector.FULL)
    w_dense, t_dense = experiments._dense_peak(cfg, cfg.omega_C)
    w, t = experiments._krylov_peak(cfg, t_dense, cfg.omega_C)
    assert t == pytest.approx(t_dense, rel=0, abs=1e-5)
    assert w == pytest.approx(w_dense, rel=0, abs=1e-9)


def test_scan_csv_independent_of_worker_count(tmp_path):
    """Rows come back in grid order with the same bytes for any pool size."""
    spectrum = (0.95, 1.0, 1.05)
    power = (0.05, 0.08, 0.1)
    for workers in (1, 2):
        spectrum_scan(ScanConfig(
            "omega_C", spectrum, base_config(modes_battery=6, modes_charger=6),
            workers=workers, output=str(tmp_path / f"spectrum{workers}.csv")))
        power_scan(ScanConfig(
            "g_BC", power, base_config(num_particles=2, modes_battery=6,
                                       modes_charger=6),
            workers=workers, output=str(tmp_path / f"power{workers}.csv")))
    for name in ("spectrum", "power"):
        one = (tmp_path / f"{name}1.csv").read_bytes()
        assert one == (tmp_path / f"{name}2.csv").read_bytes()
        rows = one.splitlines()[2:]
        # the error column is last and empty on every row
        assert len(rows) == 3 and all(row.endswith(b",") for row in rows)


def test_emit_plot_script_compiles(tmp_path):
    csv_path = tmp_path / "spectrum.csv"
    scan = ScanConfig("omega_C", (0.95, 1.0, 1.05), base_config(),
                      output=str(csv_path))
    spectrum_scan(scan)
    script = emit_plot_script(csv_path, "spectrum")
    src = script.read_text()
    compile(src, str(script), "exec")
    assert csv_path.name in src
    with pytest.raises(ConfigError):
        emit_plot_script(csv_path, "histogram")
