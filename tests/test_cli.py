import os

import numpy as np
import pytest

from ksns.cli import ConfigError, load_config, main


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY_RUN = """
# small constant-state scenario
[domain]
nx = 8
ny = 8
[data]
preset = constant
[time]
dt = 0.005
T = 0.02
[output]
snapshot_stride = 2
"""


# ---------------------------------------------------------------------------
# config loading

def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "# nothing but a comment\n"))
    assert cfg.get("domain", "nx") == 32
    assert cfg.get("time", "theta") == 1.0
    assert cfg.get("solver", "blowup_ceiling") == 1e6


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_negative_dt_names_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[time]\ndt = -1\n"))
    assert "dt" in str(err.value)


def test_unknown_key_fails_closed(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[time]\nwarp = 9\n"))
    assert "warp" in str(err.value) and ":2:" in str(err.value)


def test_retired_solver_tolerance_fails_closed(tmp_path, capsys):
    # the implicit solves are exact; a CG tolerance is no longer a setting
    path = write_cfg(tmp_path, "[solver]\ncg_tol = 1e-10\n")
    assert main(["run", "--config", path]) == 2
    assert "cg_tol" in capsys.readouterr().err


def test_unknown_section_fails_closed(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "[wormhole]\nx = 1\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "[time]\ndt = 0.1\ndt = 0.2\n"))


def test_key_outside_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "dt = 0.1\n"))
    assert ":1:" in str(err.value)


def test_parse_error_reports_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[time]\nthis is not a pair\n"))
    assert ":2:" in str(err.value)


def test_exponents_accepted_and_critical_line_rejected(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "[diagnostics]\nq = 4\nr = 4\n"))
    assert cfg.get("diagnostics", "q") == 4.0
    # 1/3 + 2/3 = 1: excluded critical line
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[diagnostics]\nq = 3\nr = 3\n"))
    assert "critical" in str(err.value)


def test_theta_choices(tmp_path):
    assert load_config(write_cfg(tmp_path, "[time]\ntheta = 0.5\n")) is not None
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "[time]\ntheta = 0.7\n"))


# ---------------------------------------------------------------------------
# subcommands

def test_version_subcommand(capsys):
    assert main(["version"]) == 0
    from ksns import __version__
    assert capsys.readouterr().out.strip() == __version__


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_config_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "[time]\ndt = -1\n")
    assert main(["run", "--config", path]) == 2
    assert "dt" in capsys.readouterr().err


def test_eigen_line(tmp_path, capsys):
    path = write_cfg(tmp_path, "[domain]\nnx = 16\nny = 16\n")
    assert main(["eigen", "--config", path]) == 0
    line = capsys.readouterr().out.strip()
    parts = line.split(",")
    assert len(parts) == 5
    lam_n, lam_d, h = float(parts[0]), float(parts[1]), float(parts[2])
    assert abs(lam_n - np.pi ** 2) <= 0.2       # coarse grid
    assert abs(lam_d - 2 * np.pi ** 2) <= 0.4
    assert h == 1.0 / 16.0
    assert int(parts[3]) == 0 and float(parts[4]) <= 1e-12


def test_run_constant_passes_and_writes(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_RUN)
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "PASS n-mass-conservation" in stdout
    assert "PASS constant-state-fixed-point" in stdout
    assert "FAIL" not in stdout
    assert "data.preset = constant" in stdout   # resolved config echoed
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "snap_000000_n.csv"))


def test_run_deterministic_outputs(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_RUN)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", "--config", path, "--out", out_a]) == 0
    assert main(["run", "--config", path, "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "diagnostics.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "diagnostics.csv"), "rb").read()
    assert bytes_a == bytes_b


def test_run_blowup_exits_3(tmp_path, capsys):
    text = TINY_RUN + "[solver]\nblowup_ceiling = 1.5\n"
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "blow-up" in capsys.readouterr().out


def test_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, TINY_RUN)
    env_dir = str(tmp_path / "envout")
    monkeypatch.setenv("KSNS_OUT", env_dir)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", path]) == 0
    assert os.path.exists(os.path.join(env_dir, "diagnostics.csv"))


def test_decay_subcommand(tmp_path, capsys):
    text = """
[domain]
nx = 16
ny = 16
[time]
dt = 0.002
T = 0.6
[output]
snapshot_stride = 100
"""
    path = write_cfg(tmp_path, text)
    code = main(["decay", "--config", path, "--out", str(tmp_path / "o")])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "PASS decay-n-deviation" in stdout
    assert "PASS decay-c-deviation" in stdout
    assert "INFO empirical n-rate" in stdout


def test_nonneg_subcommand(tmp_path, capsys):
    text = TINY_RUN.replace("preset = constant", "preset = small-wave") + \
        "[sensitivity]\nkind = rotation\na = 1.0\nb = 0.5\n"
    path = write_cfg(tmp_path, text)
    assert main(["nonneg", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "PASS non-negativity" in capsys.readouterr().out


def test_flag_validation(capsys):
    assert main(["run", "--snapshot-stride", "0"]) == 2


def test_compatibility_warning_emitted(tmp_path, capsys):
    # rotated tensor against a pure-y signal wave: the initial flux balance
    # is violated, which the startup check reports (without refusing to run)
    text = """
[domain]
nx = 16
ny = 16
[time]
dt = 0.005
T = 0.01
[data]
amplitude = 0.1
[sensitivity]
kind = rotation
a = 0.0
b = 1.0
"""
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "warning: initial flux-balance residual" in capsys.readouterr().out
