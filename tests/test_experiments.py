"""Scans, resonance searching, CSV/manifest output, and convergence checks."""

import dataclasses
import json
import math
import threading
import warnings

import numpy as np
import pytest

from qbattery import experiments, lapack
from qbattery.basis import ParitySector
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import (ConfigError, CutoffWarning, HorizonWarning,
                             NoTransferError, NumericalBreakdownError)
from qbattery.experiments import (RATIO_CAP, ResonancePeak, ScanConfig,
                                  convergence_check, degeneracy_seeds,
                                  emit_plot_script, find_resonance_peaks,
                                  fine_tune_resonance, power_scan,
                                  spectrum_scan, wirr_scan, write_csv,
                                  write_manifest)
from qbattery.hamiltonian import build_hamiltonian_set
from qbattery.thermo import golden_section_max
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
    for workers in (1.5, True, "2", 2.0, None):
        with pytest.raises(ConfigError, match="workers must be an integer"):
            ScanConfig("omega_C", (1.0, 2.0), cfg, workers=workers)
    assert ScanConfig("omega_C", (1.0, 2.0), cfg, workers=3).workers == 3
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


def test_narrow_window_keeps_seed_grid(monkeypatch):
    # a window narrower than one merged-grid step clips the bracket of the
    # 3.078 seed of the flank test to the window; that bracket still gets
    # _SEED_POINTS points, and the weak peak at the seed is found in it
    cfg = base_config(num_particles=2, g_B=3.0, modes_battery=6,
                      modes_charger=6, target_n=3)
    window = (3.073, 3.083)
    assert window[1] - window[0] < 2 * 0.08 / (experiments._SEED_POINTS - 1)
    built = []

    class CountingSimulation(QuenchSimulation):
        def __init__(self, config):
            built.append(config.omega_C)
            super().__init__(config)

    monkeypatch.setattr(experiments, "QuenchSimulation", CountingSimulation)
    peaks = find_resonance_peaks(window, cfg, min_ratio=0.05)
    # the grid points run on a pool, so they are built in any order
    np.testing.assert_allclose(
        sorted(built[:experiments._SEED_POINTS]),
        np.linspace(*window, experiments._SEED_POINTS), rtol=0, atol=1e-12)
    assert len(peaks) == 1, peaks
    assert abs(peaks[0].omega_C - 3.078) < 1e-3 and peaks[0].ratio > 0.05


def test_overlapping_seed_brackets_share_one_grid(monkeypatch):
    # the free-battery gap 1.0 and the two-level root 1.0195 bracket the
    # same resonance; their brackets merge into one grid refined once
    cfg = base_config(num_particles=2)
    window, radius = (0.8, 1.2), 0.08
    seeds = sorted(degeneracy_seeds(window, cfg)
                   + [resonance_solve(1, 2, 0.1)])
    assert len(seeds) == 2 and seeds[1] - seeds[0] < 2 * radius
    built, refined = [], []

    class CountingSimulation(QuenchSimulation):
        def __init__(self, config):
            built.append(config.omega_C)
            super().__init__(config)

    def counting_max(f, a, b, **kw):
        refined.append((a, b))
        return golden_section_max(f, a, b, **kw)

    monkeypatch.setattr(experiments, "QuenchSimulation", CountingSimulation)
    monkeypatch.setattr(experiments, "golden_section_max", counting_max)
    peaks = find_resonance_peaks(window, cfg, seed_radius=radius)
    a, b = seeds[0] - radius, seeds[1] + radius
    spacing = 2 * radius / (experiments._SEED_POINTS - 1)
    points = int(np.ceil((b - a) / spacing)) + 1
    assert points < 2 * experiments._SEED_POINTS
    np.testing.assert_allclose(sorted(built[:points]),
                               np.linspace(a, b, points), rtol=0, atol=1e-12)
    assert len(built) == len(set(built))
    assert len(refined) == 1
    assert all(refined[0][0] <= w <= refined[0][1] for w in built[points:])
    assert len(peaks) == 1 and peaks[0].ratio > 0.95


@pytest.fixture
def one_blas_thread():
    """Pins numpy's BLAS at one thread, so a pool's points and a serial
    run's round off alike."""
    symbols = lapack._blas_threads()
    if symbols is None:
        yield
        return
    get, set_ = symbols
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def test_pooled_resonance_search_matches_serial(monkeypatch, one_blas_thread):
    # two windows: three refined maxima in one, a single one in the other
    built, lock = [], threading.Lock()

    class CountingSimulation(QuenchSimulation):
        def __init__(self, config):
            with lock:
                built.append(config.omega_C)
            super().__init__(config)

    monkeypatch.setattr(experiments, "QuenchSimulation", CountingSimulation)
    cases = [((2.5, 3.5), base_config(num_particles=2, g_B=3.0,
                                      modes_battery=6, modes_charger=6,
                                      target_n=3), 0.05),
             ((0.8, 1.2), base_config(num_particles=2), 0.5)]
    runs = {}
    for cores in (1, 2):
        monkeypatch.setattr(lapack, "cores", lambda: cores)
        built.clear()
        peaks = [find_resonance_peaks(window, cfg, min_ratio=min_ratio)
                 for window, cfg, min_ratio in cases]
        runs[cores] = (peaks, sorted(built))
    assert len(runs[1][0][0]) >= 2 and len(runs[1][0][1]) == 1
    assert runs[2] == runs[1]


def test_resonance_search_builds_only_what_it_refines(monkeypatch):
    # one merged bracket: 15 grid points, then Brent steps that start from
    # the grid's best point and its neighbours (a cold start took one more);
    # no build reads an observable, as a peak needs only t_max and W_B
    built = []

    class CountingSimulation(QuenchSimulation):
        def __init__(self, config):
            built.append(config.omega_C)
            super().__init__(config)

        def observables_at(self, t):
            raise AssertionError("the resonance search read observables")

    monkeypatch.setattr(experiments, "QuenchSimulation", CountingSimulation)
    monkeypatch.setattr(lapack, "cores", lambda: 1)
    peaks = find_resonance_peaks((0.8, 1.2), base_config(num_particles=2))
    assert len(built) == 20 and len(set(built)) == 20
    assert len(peaks) == 1 and abs(peaks[0].omega_C - 1.017625) < 1e-5


def test_resonance_search_raises_a_worker_error(monkeypatch):
    def broken(config):
        raise NumericalBreakdownError(f"no build at {config.omega_C}")

    monkeypatch.setattr(experiments, "QuenchSimulation", broken)
    monkeypatch.setattr(lapack, "cores", lambda: 2)
    with pytest.raises(NumericalBreakdownError, match="no build"):
        find_resonance_peaks((2.5, 3.5), base_config(
            num_particles=2, g_B=3.0, modes_battery=6, modes_charger=6))


def test_memory_guard_counts_one_solve_per_worker(monkeypatch):
    cfg = base_config()
    need = lapack.solve_bytes(cfg.cutoff_model().basis.size)
    monkeypatch.setattr(lapack, "_physical_memory", lambda: 2 * need)
    grid = (0.9, 0.95, 1.0, 1.05)
    rows = spectrum_scan(ScanConfig("omega_C", grid, cfg, workers=1))
    assert all(row["error"] == "" for row in rows)
    rows = spectrum_scan(ScanConfig("omega_C", grid, cfg, workers=4))
    assert all(row["error"].startswith(
        f"ConfigError: dense eigensolve at dimension "
        f"{cfg.cutoff_model().basis.size} needs {4 * need} bytes")
        for row in rows), rows


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
    for value, row in zip(scan.values, rows):
        assert row["error"] == ""
        assert abs(row["power_ED"] / row["power_TLM"] - 1.0) < 5e-3
        assert row["tau_qsl_tlm"] > 0
        # tau_qsl_num is Mandelstam-Tamm from psi(0)'s variance in dense H1
        cfg = dataclasses.replace(scan.config_at(value),
                                  omega_C=row["omega_C"])
        sim = QuenchSimulation(cfg)
        h1 = build_hamiltonian_set(sim.basis, cfg.g_B, cfg.g_BC,
                                   omega_B=cfg.omega_B,
                                   omega_C=cfg.omega_C).h1
        h_psi = h1 @ sim.state0
        var = h_psi @ h_psi - (sim.state0 @ h_psi) ** 2
        assert row["tau_qsl_num"] == pytest.approx(
            math.pi / (2.0 * math.sqrt(var)), rel=1e-10)
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


@pytest.mark.parametrize("g_B", [0.0, -0.5])
def test_convergence_check_matrix_free_branch(g_B):
    """Low cutoff dense, high cutoff matrix-free, for an ideal and an
    interacting battery: the reported (W, t) is the first stored-work
    maximum the dense pipeline finds at the same cutoff and omega_C, not a
    point near the low cutoff's t, and no search ends on its bracket."""
    cfg = base_config(num_particles=2, modes_battery=8, modes_charger=8,
                      omega_C=resonance_solve(3, 2, 0.1), target_n=3,
                      g_B=g_B)
    if g_B:
        # the resonance of the attractive battery that the low cutoff finds
        # near n = 3
        peak = fine_tune_resonance((3.0, 3.2), cfg)
        cfg = dataclasses.replace(cfg, omega_C=peak.omega_C)
    with warnings.catch_warnings():
        warnings.simplefilter("error", HorizonWarning)
        res = convergence_check(cfg, factor=2, tune=True)
    assert res["modes_high"] == (16, 16)
    high = dataclasses.replace(cfg, modes_battery=16, modes_charger=16,
                               omega_C=res["omega_high"])
    dense = QuenchSimulation(high).summarize()
    assert res["t_high"] == pytest.approx(dense.t_max, rel=0, abs=1e-5)
    assert res["W_high"] == pytest.approx(dense.stored_work, rel=0, abs=1e-9)


def test_convergence_check_validates_factor_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a simulation before checking factor")

    monkeypatch.setattr(experiments, "QuenchSimulation", no_build)
    cfg = base_config()
    for factor in (1.5, 2.0, 0, -2, "2", None):
        with pytest.raises(ConfigError, match="factor"):
            convergence_check(cfg, factor=factor)


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


def test_krylov_peak_warns_when_brent_ends_on_the_bracket_edge():
    """A guide half the true t_max puts the maximum beyond the bracket, so
    Brent runs into its upper edge; the dense t_max as guide does not."""
    cfg = base_config(num_particles=2, omega_C=resonance_solve(3, 2, 0.1),
                      target_n=3)
    _, t_dense = experiments._dense_peak(cfg, cfg.omega_C)
    with pytest.warns(HorizonWarning, match="edge of its search bracket"):
        _, t = experiments._krylov_peak(cfg, 0.5 * t_dense, cfg.omega_C)
    assert t == pytest.approx(0.52 * t_dense, rel=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", HorizonWarning)
        experiments._krylov_peak(cfg, t_dense, cfg.omega_C)


def test_benchmark_cutoff_input_raises_no_bracket_warning():
    """The cutoff benchmark's input (N_B = 2, n = 3, M = 13 doubled to 26,
    tuned): every matrix-free peak is interior to its bracket."""
    cfg = base_config(num_particles=2, omega_C=resonance_solve(3, 2, 0.1),
                      modes_battery=13, modes_charger=13, target_n=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", HorizonWarning)
        res = convergence_check(cfg, factor=2, tune=True)
    assert res["modes_high"] == (26, 26)


def test_tune_peak_warns_when_it_clips_the_vertex():
    # W(omega) peaks 5e-3 above the start, beyond the 2 _TUNE_SPAN = 2e-3
    # the re-centring may move
    span = experiments._TUNE_SPAN

    def peak(omega):
        return 1.0 - (omega - 2.005) ** 2, 10.0 + omega

    with pytest.warns(CutoffWarning, match=r"clipped to omega_C = 2\.002"):
        w, omega, t = experiments._tune_peak(peak, 2.0, True)
    assert omega == 2.0 + 2 * span
    assert (w, t) == peak(omega)
    # a vertex within reach is taken as it is, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", CutoffWarning)
        w, omega, t = experiments._tune_peak(peak, 2.004, True)
    assert omega == pytest.approx(2.005, abs=1e-12)


def test_tune_peak_reuses_the_best_run_on_convex_work():
    # an upward-opening parabola has its best point among the three runs,
    # so no fourth peak() call is made for it
    span = experiments._TUNE_SPAN
    calls = []

    def peak(omega):
        calls.append(omega)
        return 1.0 + (omega - 2.0 + 0.3 * span) ** 2, 10.0 + omega

    w, omega, t = experiments._tune_peak(peak, 2.0, True)
    assert len(calls) == 3
    assert omega == 2.0 + span
    assert (w, t) == peak(2.0 + span)


def test_scan_csv_independent_of_worker_count(tmp_path, one_blas_thread):
    """Rows come back in grid order, with the same bytes for any pool size
    at the same BLAS setting: one BLAS thread for both pool sizes."""
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
