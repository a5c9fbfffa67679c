"""Command-line interface: config parsing, artifacts, exit codes."""

import json

import numpy as np
import pytest

from qbattery import cli
from qbattery.basis import ParitySector
from qbattery.dynamics import QuenchSimulation, SimulationConfig
from qbattery.errors import NumericalBreakdownError
from qbattery.tlm import resonance_solve


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_INI = """
[simulation]
num_particles = 1
omega_C = {omega}
g_BC = 0.1
modes_battery = 8
modes_charger = 8
target_n = 1

{extra}
"""


def run_cli(*argv):
    return cli.main(list(argv))


def test_simulate_writes_artifacts(tmp_path):
    root = resonance_solve(1, 1, 0.1)
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=root, extra="[simulate]\nhorizon = 170\npoints = 41\n"
                          "[output]\nprefix = run\n"))
    out = tmp_path / "artifacts"
    assert run_cli("--config", ini, "--out", str(out), "simulate") == 0
    csv_path = out / "run.csv"
    assert csv_path.exists()
    assert (out / "run.manifest.json").exists()
    script = out / "plot_run.py"
    assert script.exists()
    compile(script.read_text(), str(script), "exec")
    header = csv_path.read_text().splitlines()
    names = next(l for l in header if not l.startswith("#")).split(",")
    # free battery quenched from level 1: the closed-form overlay is on
    assert "W_B_tlm" in names
    assert "ergotropy_tlm" in names


def test_simulate_skips_overlay_when_interacting(tmp_path):
    ini = write_ini(tmp_path, """
[simulation]
num_particles = 2
omega_C = 1.0
g_B = 0.5
g_BC = 0.1
modes_battery = 6
modes_charger = 6
target_n = 1

[simulate]
horizon = 20
points = 11
""")
    out = tmp_path / "artifacts"
    assert run_cli("--config", ini, "--out", str(out), "simulate") == 0
    header = (out / "simulate.csv").read_text().splitlines()
    names = next(l for l in header if not l.startswith("#")).split(",")
    assert "W_B_tlm" not in names


def test_simulate_even_charger_level(tmp_path, monkeypatch):
    """charger_level = 2 runs in the EVEN sector, the parity of psi(0), and
    matches a FULL-sector run. t_max is compared at the search's
    resolution: W_B is so flat at its maximum that round-off moves t_max
    by up to about 3e-6 (thermo.find_t_max)."""
    built = []

    class Recorded(QuenchSimulation):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(cli, "QuenchSimulation", Recorded)
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="charger_level = 2\n[simulate]\npoints = 41\n"))
    out = tmp_path / "even"
    assert run_cli("--config", ini, "--out", str(out), "simulate") == 0
    manifest = json.loads((out / "simulate.manifest.json").read_text())
    assert manifest["config"]["sector"] == "ParitySector.EVEN"
    assert manifest["config"]["charger_level"] == 2
    (sim,) = built
    full = QuenchSimulation(SimulationConfig(
        num_particles=1, omega_C=1.0, g_BC=0.1, modes_battery=8,
        modes_charger=8, target_n=1, charger_level=2,
        sector=ParitySector.FULL))
    got, want = sim.summarize(), full.summarize()
    assert got.stored_work == pytest.approx(want.stored_work, rel=0,
                                            abs=1e-9)
    assert got.t_max == pytest.approx(want.t_max, rel=0, abs=1e-5)
    csv = np.genfromtxt(out / "simulate.csv", delimiter=",", names=True,
                        skip_header=1)
    np.testing.assert_allclose(csv["W_B"], full.work_series(csv["t"]),
                               rtol=0, atol=1e-9)


def test_unknown_key_is_config_error(tmp_path):
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="") + "\n[simulation]\ncoupling = 3\n")
    assert run_cli("--config", ini, "simulate") == 2


def test_unknown_section_is_config_error(tmp_path):
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="[plotting]\nstyle = fancy\n"))
    assert run_cli("--config", ini, "simulate") == 2


def test_missing_required_keys_is_config_error(tmp_path):
    ini = write_ini(tmp_path, "[simulation]\nnum_particles = 1\n")
    assert run_cli("--config", ini, "simulate") == 2


def test_invalid_value_is_config_error(tmp_path):
    ini = write_ini(tmp_path, BASE_INI.format(omega=-2.0, extra=""))
    assert run_cli("--config", ini, "simulate") == 2


def test_mode_override_flags(tmp_path):
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="[simulate]\nhorizon = 5\npoints = 3\n"))
    out = tmp_path / "o"
    assert run_cli("--config", ini, "--out", str(out),
                   "--modes-battery", "6", "--modes-charger", "7",
                   "simulate") == 0
    manifest = json.loads((out / "simulate.manifest.json").read_text())
    assert manifest["config"]["modes_battery"] == 6
    assert manifest["config"]["modes_charger"] == 7


def test_scan_spectrum_artifacts(tmp_path):
    root = resonance_solve(1, 1, 0.1)
    ini = write_ini(tmp_path, BASE_INI.format(omega=1.0, extra=f"""
[scan]
kind = spectrum
parameter = omega_C
start = {root - 0.05}
stop = {root + 0.05}
points = 3
workers = 2

[output]
prefix = spec
"""))
    out = tmp_path / "scans"
    assert run_cli("--config", ini, "--out", str(out), "scan") == 0
    csv_path = out / "spec.csv"
    assert csv_path.exists()
    manifest = json.loads((out / "spec.manifest.json").read_text())
    assert manifest["parameter"] == "omega_C"
    assert manifest["workers"] == 2
    assert (out / "plot_spec.py").exists()
    # middle row sits on the root: near-perfect transfer
    body = [l for l in csv_path.read_text().splitlines()
            if not l.startswith("#")]
    ratios = [float(line.split(",")[1]) for line in body[1:]]
    assert max(ratios) > 0.99


def test_scan_requires_config():
    assert run_cli("scan") == 2


def test_scan_rejects_unknown_kind(tmp_path):
    ini = write_ini(tmp_path, BASE_INI.format(omega=1.0, extra="""
[scan]
kind = heatmap
parameter = omega_C
start = 0.9
stop = 1.1
points = 3
"""))
    assert run_cli("--config", ini, "scan") == 2


def test_resonance_reports_peak(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="[resonance]\nwindow_lo = 0.9\nwindow_hi = 1.1\n"))
    out = tmp_path / "res"
    assert run_cli("--config", ini, "--out", str(out), "resonance") == 0
    text = capsys.readouterr().out
    assert "peak omega_C=" in text
    assert (out / "resonance.csv").exists()


def test_resonance_dead_window(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=2.0,
        extra="[resonance]\nwindow_lo = 1.7\nwindow_hi = 2.3\n")
        .replace("target_n = 1", "target_n = 2"))
    out = tmp_path / "res"
    assert run_cli("--config", ini, "--out", str(out), "resonance") == 0
    assert "no-resonance window" in capsys.readouterr().out


def test_tlm_runs_without_config(tmp_path, capsys):
    out = tmp_path / "tlm"
    assert run_cli("--out", str(out), "tlm") == 0
    text = capsys.readouterr().out
    assert "omega*=1.0000000000" in text      # n=1, N=1 root is exactly 1
    body = [l for l in (out / "tlm.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(body) == 1 + 5                 # header + n in {1,3,5,7,9}


def test_tlm_rejects_even_n(tmp_path):
    ini = write_ini(tmp_path, "[tlm]\nn_values = 1,2\n")
    assert run_cli("--config", ini, "tlm") == 2


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "envout"))
    assert run_cli("tlm") == 0
    assert (tmp_path / "envout" / "tlm.csv").exists()


def test_reproduce_unknown_figure(tmp_path):
    assert run_cli("--out", str(tmp_path), "reproduce", "fig99") == 2


def test_reproduce_rejects_mode_overrides(tmp_path):
    assert run_cli("--out", str(tmp_path), "--modes-battery", "8",
                   "reproduce", "fig2a") == 2


def test_reproduce_fig2a(tmp_path):
    out = tmp_path / "fig"
    assert run_cli("--out", str(out), "reproduce", "fig2a") == 0
    assert (out / "fig2a.csv").exists()
    assert (out / "plot_fig2a.py").exists()
    manifest = json.loads((out / "fig2a.manifest.json").read_text())
    assert manifest["figure"] == "fig2a"
    assert any(p.endswith("fig2a.csv") for p in manifest["artifacts"])


def test_numerical_failure_maps_to_exit_three(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise NumericalBreakdownError("synthetic")
    monkeypatch.setattr(cli, "find_resonance_peaks", boom)
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="[resonance]\nwindow_lo = 0.9\nwindow_hi = 1.1\n"))
    assert run_cli("--config", ini, "--out", str(tmp_path / "x"),
                   "resonance") == 3


def test_rerun_is_bit_identical(tmp_path):
    ini = write_ini(tmp_path, BASE_INI.format(
        omega=1.0, extra="[simulate]\nhorizon = 10\npoints = 11\n"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("--config", ini, "--out", str(out1), "simulate") == 0
    assert run_cli("--config", ini, "--out", str(out2), "simulate") == 0
    assert (out1 / "simulate.csv").read_bytes() == \
        (out2 / "simulate.csv").read_bytes()
    assert (out1 / "simulate.manifest.json").read_bytes() == \
        (out2 / "simulate.manifest.json").read_bytes()
