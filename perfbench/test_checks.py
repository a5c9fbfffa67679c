"""Tests of the benchmark's checks and span recorder.

Each check is fed a real output of the program, which must pass, and then
one deliberately corrupted copy, which must fail.  Run from the repository
root:

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qbattery import dynamics, experiments, tlm  # noqa: E402


# ----------------------------------------------------------------------------
# series

@pytest.fixture(scope="module")
def small_series(tmp_path_factory):
    """`qbattery simulate` on a small resonant config, read back."""
    outdir = tmp_path_factory.mktemp("series")
    cfg = dynamics.SimulationConfig(
        num_particles=2, omega_C=tlm.resonance_solve(3, 2, 0.1), g_BC=0.1,
        modes_battery=8, modes_charger=8, target_n=3)
    job = workloads.SeriesJob("small", cfg, outdir / "small.ini",
                              outdir / "small", [3, 17, 30])
    workloads._write_ini(job.ini, cfg, 41, job.name)
    printed = workloads._simulate(job)
    columns = checks.read_series_csv(job.out / "small.csv")
    return job, printed, columns, workloads.reference_dynamics(cfg)


def test_series_checks_pass_on_program_output(small_series):
    job, printed, columns, reference = small_series
    assert checks.check_series_properties(columns) == []
    assert checks.check_series_rows(columns, reference, job.rows) == []
    assert checks.check_series_summary(checks.parse_summary(printed),
                                       reference, job.config.omega_C) == []


def _corrupt(columns, name, change):
    out = {k: v.copy() for k, v in columns.items()}
    out[name] = change(out[name])
    return out


@pytest.mark.parametrize("name, change", [
    ("E_total", lambda v: v + 1e-6 * np.arange(v.size)),
    ("W_irr", lambda v: v + 1e-6),
    ("ergotropy", lambda v: np.where(np.arange(v.size) == 20, v + 0.5, v)),
])
def test_series_properties_catch_corruption(small_series, name, change):
    _, _, columns, _ = small_series
    assert checks.check_series_properties(_corrupt(columns, name, change))


@pytest.mark.parametrize("name", ["W_B", "ergotropy", "S_B", "E_int"])
def test_series_rows_catch_a_wrong_value(small_series, name):
    job, _, columns, reference = small_series
    row = job.rows[1]
    bad = _corrupt(columns, name,
                   lambda v: np.where(np.arange(v.size) == row, v + 1e-7, v))
    assert checks.check_series_rows(bad, reference, job.rows)


def test_series_summary_catches_wrong_work(small_series):
    job, printed, _, reference = small_series
    summary = checks.parse_summary(printed)
    shifted = dict(summary, W_B=summary["W_B"] + 1e-3)
    assert checks.check_series_summary(shifted, reference, job.config.omega_C)
    assert checks.check_series_summary(summary, reference,
                                       job.config.omega_C / 0.98)
    assert checks.check_series_summary(None, reference, job.config.omega_C)


# ----------------------------------------------------------------------------
# scan

@pytest.fixture(scope="module")
def scan_rows():
    rows = {}
    for nb in (1, 2):
        cfg = dynamics.SimulationConfig(num_particles=nb, omega_C=5.0,
                                        g_BC=0.05, target_n=5)
        rows[nb] = experiments.power_scan(
            experiments.ScanConfig("g_BC", (0.05, 0.09), cfg))
    return rows


def test_scan_checks_pass_on_program_output(scan_rows):
    for rows in scan_rows.values():
        for row in rows:
            assert checks.check_scan_row(row, 5) == []
    for one, two in zip(scan_rows[1], scan_rows[2]):
        assert checks.check_scan_scaling(one, two) == []


@pytest.mark.parametrize("field, change", [
    ("error", lambda row: "NoTransferError: nothing stored"),
    ("W_B", lambda row: row["W_B"] - 0.01),
    ("t_max", lambda row: row["t_max"] * 1.03),
    ("power_ED", lambda row: row["power_ED"] * 1.02),
])
def test_scan_row_check_catches_corruption(scan_rows, field, change):
    row = dict(scan_rows[2][1])
    row[field] = change(row)
    assert checks.check_scan_row(row, 5)


def test_scan_scaling_catches_wrong_power(scan_rows):
    two = dict(scan_rows[2][0], power_ED=scan_rows[2][0]["power_ED"] * 1.1)
    assert checks.check_scan_scaling(scan_rows[1][0], two)


def test_two_level_time_matches_closed_form():
    for n, nb, omega in ((1, 2, 1.02), (3, 2, 2.99), (5, 3, 4.97)):
        closed = tlm.qsl_tlm(tlm.tlm_params(n, nb, 0.1, omega))
        assert checks.tau_qsl(n, nb, 0.1, omega) == pytest.approx(closed,
                                                                 rel=1e-10)


# ----------------------------------------------------------------------------
# resonance

def _ratio(omega):
    return 1.0 - 50.0 * (omega - 1.02) ** 2


def _peak(omega):
    return experiments.ResonancePeak(omega_C=omega, ratio=_ratio(omega),
                                     t_max=50.0, power=0.02)


def test_local_maximum_check_passes_a_peak_and_catches_a_flank():
    assert checks.check_local_maxima([_peak(1.02)], _ratio, 2e-3) == []
    assert checks.check_local_maxima([_peak(1.02), _peak(1.05)], _ratio, 2e-3)


def test_window_checks_catch_missing_or_misplaced_peaks():
    assert checks.check_split_window([_peak(1.02), _peak(1.05)]) == []
    assert checks.check_split_window([_peak(1.02)])
    assert checks.check_single_peak([_peak(1.02)], above=1.0) == []
    assert checks.check_single_peak([_peak(1.02)], above=1.03)
    assert checks.check_single_peak([_peak(1.02), _peak(1.05)], above=1.0)
    low = dataclasses.replace(_peak(1.02), ratio=0.9)
    assert checks.check_single_peak([low], above=1.0)


# ----------------------------------------------------------------------------
# cutoff

CUTOFF_RESULT = {"W_low": 3.0006793787299806, "omega_low": 2.986367846613474,
                 "t_low": 58.04923051885247, "W_high": 3.001032348604269,
                 "omega_high": 2.9864149546546708,
                 "t_high": 58.04923051885247}


def test_cutoff_check_passes_and_catches_corruption():
    tau = checks.tau_qsl(3, 2, 0.1, tlm.resonance_solve(3, 2, 0.1))
    assert checks.check_cutoff(CUTOFF_RESULT, tau) == []
    for change in ({"W_high": CUTOFF_RESULT["W_high"] * 1.01},
                   {"omega_low": 3.2},
                   {"t_high": CUTOFF_RESULT["t_high"] * 1.1}):
        assert checks.check_cutoff(dict(CUTOFF_RESULT, **change), tau)


# W_B(t) of the matrix-free high cutoff (M = 26) at CUTOFF_RESULT's
# omega_high, on the grid of workloads.high_cutoff_work around t_high
HIGH_WORK = np.array([
    2.9994714936369555, 2.9998767442083096, 3.0002105556165897,
    3.000483460530463, 3.000709828036757, 3.0009060122796942,
    3.001032348603243, 3.001068651001171, 3.0009780824681136,
    3.00073123006969, 3.00032307935456, 2.9997755252730576,
    2.9991504890863943])


def test_high_maximum_check_passes_and_catches_corruption():
    steps = workloads.CUTOFF_FINE_STEP * np.arange(-6, 7)
    times = CUTOFF_RESULT["t_high"] * (1.0 + steps)
    assert checks.check_high_maximum(CUTOFF_RESULT, times, HIGH_WORK) == []
    # a W_high that is not W_B(t_high)
    shifted = dict(CUTOFF_RESULT, W_high=CUTOFF_RESULT["W_high"] - 1e-6)
    assert checks.check_high_maximum(shifted, times, HIGH_WORK)
    # t_high 1.5 % before the maximum, with its own W_B: check_cutoff's
    # tolerances let it pass, the finer scan does not
    early = dict(CUTOFF_RESULT, t_high=times[0], W_high=HIGH_WORK[0])
    tau = checks.tau_qsl(3, 2, 0.1, tlm.resonance_solve(3, 2, 0.1))
    assert checks.check_cutoff(early, tau) == []
    assert checks.check_high_maximum(early, times, HIGH_WORK)


# ----------------------------------------------------------------------------
# failures that must be counted, not end the run

def test_a_raising_check_is_a_failed_operation(tmp_path):
    job = workloads.SeriesJob("gone", None, tmp_path / "gone.ini",
                              tmp_path / "gone", [1])
    (problems,) = workloads.series_check([job], [workloads.Outcome(value="")])
    assert len(problems) == 1 and "FileNotFoundError" in problems[0]


def test_a_round_stopped_at_the_deadline_fails_every_operation():
    import run
    exc = subprocess.TimeoutExpired(
        ["round.py"], 170.0, output=b'{"setup_s": 0.9, "attempted": 12}\n')
    result = run.cut_short(exc, time.monotonic() - 5.0)
    assert result["attempted"] == result["failed"] == 12
    assert result["correct"] and result["problems"]
    assert 4.0 <= result["wall_s"] < 5.0


# ----------------------------------------------------------------------------
# span recorder and benchmark layout

def test_self_time_subtracts_nested_and_worker_children():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: time.sleep(0.05))

    def body():
        workers = [threading.Thread(target=leaf) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
            assert not w.is_alive()
        time.sleep(0.05)

    outer = recorder.wrap("outer", body)
    recorder.enabled = True
    outer()
    recorder.enabled = False
    names = [s[0] for s in recorder.spans]
    self_s = dict(zip(names, recorder.self_times()))
    assert names.count("leaf") == 2
    assert all(recorder.spans[i][4] == 0 for i, n in enumerate(names)
               if n == "leaf")
    # the two leaves overlap, so the outer span loses about 0.05 s, not 0.1 s
    assert 0.04 <= self_s["outer"] <= 0.09


def test_every_layer_resolves_and_matches_the_benchmark_spec():
    recorder = spans.SpanRecorder()
    try:
        assert recorder.install() == []
    finally:
        recorder.enabled = False
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
