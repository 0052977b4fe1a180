import ast
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksns import Grid, ScalarField, VectorField, cli, linstep
from ksns.cli import (_FIELDS, _SCHEMA, ConfigError, _nonneg_verdict,
                      given_data_from_config, load_config, main)
from ksns.grid import _interior_face_average, face_values
from ksns.diagnostics import (DiagnosticsConfig, DiagnosticsSeries,
                              LipschitzResult, SERIES_COLUMNS)
from ksns.integrator import (BlowUpError, GivenData, RunOptions,
                             SensitivitySpec, run, step_count)
from snapshot_oracle import write_field_snapshot as row_writer


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

# a force sets the fluid moving from rest: with this ceiling its sup passes
# it on the third step, after two recorded rows
FORCED_RUN = TINY_RUN.replace("preset = constant", """preset = constant
n_base = 0.0
c_base = 0.0
[forcing]
kind = decaying
amplitude = 1.0
rate = 1.0""")
FORCED_CEILING = "[solver]\nblowup_ceiling = 0.0022\n"


# ---------------------------------------------------------------------------
# config loading

def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "# nothing but a comment\n"))
    assert cfg.get("domain", "nx") == 32
    assert cfg.get("time", "theta") == 1.0
    assert cfg.get("solver", "blowup_ceiling") == 1e6


def test_benchmark_workload_configs_load():
    # the benchmark runs these files; a config change that rejects one of
    # them (a removed key, a tightened range) fails here first
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
    paths = sorted(workloads.glob("*.cfg"))
    assert paths, f"no workload configs under {workloads}"
    for path in paths:
        cfg = load_config(str(path))
        assert cfg.where, f"{path.name} sets no key"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_is_the_defaults(tmp_path):
    # the documented file sets every key to its default, so a key or a
    # default changed in one place only fails here
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    cfg = load_config(write_cfg(tmp_path, blocks[0]))
    assert cfg.values == load_config(None).values
    assert set(cfg.where) == set(cfg.values)


def test_readme_flags_are_the_parser_options(capsys):
    assert main(["--help"]) == 0
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    text = README.read_text(encoding="utf-8")
    para = re.search(r"^Flags:(.*?)\n\n", text, re.S | re.M)
    assert para, "README has no Flags paragraph"
    documented = set(re.findall(r"--[a-z][a-z-]*", para.group(1)))
    assert documented == options - {"--help"} == {"--config", "--out"}


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_negative_dt_names_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[time]\ndt = -1\n"))
    assert "dt" in str(err.value) and ":2:" in str(err.value)


def test_range_error_on_default_key_has_no_line(tmp_path):
    # dt keeps its default 1e-3; the file sets only T, below it
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[time]\nT = 1e-4\n"))
    assert str(err.value) == "[time] dt: must not exceed T"


# an unknown section or an unknown key: (text, name)
_BAD_LINES = st.one_of(
    st.from_regex(r"[a-z]{3,8}", fullmatch=True)
    .filter(lambda w: w not in ("domain", "time", "solver", "data",
                                "sensitivity", "potential", "forcing",
                                "diagnostics", "eigen", "output"))
    .map(lambda w: (f"[{w}]", w)),
    st.from_regex(r"[a-z]{3,8}", fullmatch=True)
    .filter(lambda w: w not in ("dt", "theta"))
    .map(lambda w: (f"[time]\n{w} = 1", w)))


@settings(max_examples=40, deadline=None)
@given(filler=st.lists(st.sampled_from(["", "# comment", "[domain]",
                                        "[output]\ndir = somewhere"]),
                       max_size=4, unique=True),
       bad=_BAD_LINES)
def test_config_errors_name_key_and_line(filler, bad):
    text, name = bad
    lines = "\n".join(filler + [text]).split("\n")
    lineno = len(lines)     # the offending key sits on the last line
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "bad.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", path]) == 2
    msg = err.getvalue()
    assert name in msg and f"{path}:{lineno}:" in msg, msg


# a value out of range, set on the file's last line: (text, key)
@pytest.mark.parametrize("text, key", [
    ("[time]\ndt = -1", "[time] dt"), ("[time]\nT = 0", "[time] T"),
    ("[time]\nT = inf", "[time] T"), ("[time]\ntheta = 0.7", "[time] theta"),
    ("[time]\ntheta = 0.5", "[time] theta"),
    ("[domain]\nnx = 3", "[domain] nx"), ("[domain]\nny = 2", "[domain] ny"),
    ("[domain]\nLy = 0", "[domain] Ly"), ("[domain]\nLx = nan", "[domain] Lx"),
    ("[solver]\nblowup_ceiling = -2", "[solver] blowup_ceiling"),
    ("[diagnostics]\nlambda1 = 1.5", "[diagnostics] lambda1"),
    ("[diagnostics]\nlambda2 = 0.9", "[diagnostics] lambda2"),
    ("[diagnostics]\nr = 2", "[diagnostics] r"),
    ("[diagnostics]\nq = 2", "[diagnostics] q"),
    ("[diagnostics]\nr = 3\nq = 3", "[diagnostics] q"),    # critical line
    ("[eigen]\ntol = 0.5", "[eigen] tol"),
    ("[output]\nsnapshot_stride = 0", "[output] snapshot_stride"),
    ("[data]\npreset = spiral", "[data] preset"),
    ("[forcing]\nkind = decaying\nrate = 0.1", "[forcing] rate"),
    ("[forcing]\nkind = decaying\nrate = inf", "[forcing] rate"),
    ("[sensitivity]\nkind = rotation\nb = nan", "[sensitivity] b"),
    ("[sensitivity]\nkind = identity\nb = 0.5", "[sensitivity] b"),
    ("[data]\nn_base = inf", "[data] n_base"),
    ("[potential]\nkind = linear-gravity\ng = nan", "[potential] g"),
    # a zero choice fixes its size key at 0
    ("[data]\nu_amplitude = 0.5", "[data] u_amplitude"),
    ("[data]\nu_preset = zero\nu_amplitude = -1e-12", "[data] u_amplitude"),
    ("[potential]\ng = 3.0", "[potential] g"),
    ("[forcing]\nkind = zero\namplitude = 2.0", "[forcing] amplitude"),
    ("[output]\nsnapshot_stride = 2.5", "[output] snapshot_stride")])
def test_config_range_errors_name_key_and_line(tmp_path, capsys, text, key):
    path = write_cfg(tmp_path, "# a comment\n" + text + "\n")
    lineno = text.count("\n") + 2
    assert main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {path}:{lineno}: {key}: "), err


@pytest.mark.parametrize("section, key, value", [
    pytest.param(s, k, value, id=f"{s}-{k}{suffix}")
    for s, sec in _SCHEMA.items() for k, (typ, _) in sec.items()
    if typ is float
    for value, suffix in (("nan", ""), ("inf", "-inf"), ("-inf", "-neg-inf"))])
def test_nan_fails_closed_on_every_float_key(tmp_path, capsys, section, key,
                                             value):
    # every non-finite value: nan, inf and -inf; a key no library field
    # holds gets the loader's one message
    path = write_cfg(tmp_path, f"# a comment\n[{section}]\n{key} = {value}\n")
    assert main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {path}:3: [{section}] {key}: "), err
    if (section, key) not in _FIELDS.values():
        assert err.endswith(f"[{section}] {key}: must be finite\n"), err


# ---------------------------------------------------------------------------
# one home per range: the library types check, the loader names the key

_OWNERS = {f.name: cls for cls in (Grid, RunOptions, DiagnosticsConfig,
                                    SensitivitySpec)
           for f in fields(cls) if f.init}
_DEFAULTS = {name: _SCHEMA[s][k][1] for name, (s, k) in _FIELDS.items()}


def test_field_table_covers_the_library_fields():
    assert set(_FIELDS) == set(_OWNERS) | {"T", "dt"}


def test_builders_read_each_field_from_its_key(tmp_path):
    # every key off its default and no two alike, so a swapped table entry
    # builds a different object
    cfg = load_config(write_cfg(tmp_path, """[domain]
Lx = 2.0
Ly = 0.5
nx = 8
ny = 6
[solver]
blowup_ceiling = 50.0
[diagnostics]
r = 3.0
q = 5.0
lambda1 = 0.4
lambda2 = 0.3
[output]
snapshot_stride = 7
"""))
    grid = cfg.grid
    assert (grid.Lx, grid.Ly, grid.nx, grid.ny) == (2.0, 0.5, 8, 6)
    assert cfg.options == RunOptions(snapshot_stride=7, blowup_ceiling=50.0)
    assert cfg.diag == DiagnosticsConfig(
        r=3.0, q=5.0, lambda1=0.4, lambda2=0.3)


@pytest.mark.parametrize("kind, S", [
    ("identity", SensitivitySpec()), ("scaled", SensitivitySpec(1.5)),
    ("rotation", SensitivitySpec(1.5, -0.25))])
def test_sensitivity_kind_reads_its_own_fields(tmp_path, kind, S):
    # a kind builds S from a and b that agree with it; identity fixes a = 1
    # and b = 0, scaled fixes b = 0, and a fixed key set off its value is a
    # config error naming the key and its line, never a value dropped
    cfg = load_config(write_cfg(
        tmp_path, f"[sensitivity]\nkind = {kind}\na = {S.a!r}\nb = {S.b!r}\n"))
    assert cfg.S == S
    path = write_cfg(tmp_path, f"[sensitivity]\nkind = {kind}\na = 1.5\n"
                               f"b = -0.25\n")
    if kind == "rotation":
        assert load_config(path).S == S
        return
    with pytest.raises(ConfigError) as err:
        load_config(path)
    line = ("3: [sensitivity] a: must be 1.0 when kind = identity, got 1.5"
            if kind == "identity" else
            "4: [sensitivity] b: must be 0.0 when kind = scaled, got -0.25")
    assert str(err.value) == f"{path}:{line}"


def _library_error(name, value):
    """The message of the ValueError the library raises with ``value`` in
    field ``name`` and every other field at its config default, or None."""
    args = dict(_DEFAULTS, **{name: value})
    try:
        if name in ("T", "dt"):
            step_count(args["T"], args["dt"])
        else:
            cls = _OWNERS[name]
            cls(**{f.name: args[f.name] for f in fields(cls) if f.init})
    except ValueError as exc:
        return str(exc)
    return None


_FLOAT_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-4,
                     1e-3, 0.25, 0.5, 1.0, 1.5, 2.0, 8.0 / 3.0, 3.0, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True))
_INT_VALUES = st.one_of(st.sampled_from([-1, 0, 1, 2, 3, 4, 5]),
                        st.integers(-10 ** 6, 64))


# the float keys no library field holds: the loader rejects their
# non-finite values first, then applies its own rules,
# (accepts(value), message), to the keys that have one
_UNTYPED_FLOATS = [(s, k) for s, sec in _SCHEMA.items()
                   for k, (typ, _) in sec.items()
                   if typ is float and (s, k) not in _FIELDS.values()]
_LOADER_RULES = {
    ("time", "theta"): (lambda v: v == 1.0, "must be 1 (implicit Euler)"),
    ("eigen", "tol"): (lambda v: 0 < v <= 1e-3, "must lie in (0, 1e-3]"),
    ("diagnostics", "fit_window_frac"): (lambda v: 0 < v < 1,
                                         "must lie in (0, 1)"),
    ("diagnostics", "lipschitz_ceiling"): (lambda v: 0 < v < math.inf,
                                           "must be positive and finite"),
}
_KEY_FIELDS = (dict.fromkeys(_UNTYPED_FLOATS)
               | {k: n for n, k in _FIELDS.items()})
# the choice under which a key the default choice fixes takes any value
_FREEING_CHOICE = {("sensitivity", "a"): "kind = rotation",
                   ("sensitivity", "b"): "kind = rotation",
                   ("data", "u_amplitude"): "u_preset = vortex",
                   ("potential", "g"): "kind = linear-gravity",
                   ("forcing", "amplitude"): "kind = decaying"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_and_library_agree_on_every_range(data):
    # the loader rejects a value exactly when the library type does, with
    # the library's message under the key of the field it names; the keys
    # no library field holds must be finite, and [time] theta, [eigen] tol
    # and [diagnostics] fit_window_frac and lipschitz_ceiling add rules of
    # their own.  A key that the default choice fixes is drawn under the
    # choice that frees it, written above it
    section, key = data.draw(st.sampled_from(sorted(_KEY_FIELDS)))
    name = _KEY_FIELDS[(section, key)]
    typ = _SCHEMA[section][key][0]
    value = data.draw(_INT_VALUES if typ is int else _FLOAT_VALUES)
    want = None if name is None else _library_error(name, value)
    accepts, rule = _LOADER_RULES.get((section, key), (lambda v: True, ""))
    if name is None and not math.isfinite(value):
        accepts, rule = (lambda v: False), "must be finite"
    choice = _FREEING_CHOICE.get((section, key))
    choice = f"{choice}\n" if choice else ""
    lineno = 3 if choice else 2
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "range.cfg")
        with open(path, "w") as fh:
            fh.write(f"[{section}]\n{choice}{key} = {value!r}\n")
        if want is None and accepts(value):
            load_config(path)
            return
        with pytest.raises(ConfigError) as err:
            load_config(path)
    if want is None:
        assert str(err.value) == f"{path}:{lineno}: [{section}] {key}: {rule}"
        return
    field, _, rest = want.partition(" ")
    s, k = _FIELDS[field]
    where = f"{path}:{lineno}: " if (s, k) == (section, key) else ""
    assert str(err.value) == f"{where}[{s}] {k}: {rest}"


def test_unknown_key_fails_closed(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "[time]\nwarp = 9\n"))
    assert "warp" in str(err.value) and ":2:" in str(err.value)


def test_retired_solver_tolerance_fails_closed(tmp_path, capsys):
    # the implicit solves are exact; a CG tolerance is no longer a setting
    path = write_cfg(tmp_path, "[solver]\ncg_tol = 1e-10\n")
    assert main(["run", "--config", path]) == 2
    assert "cg_tol" in capsys.readouterr().err


def test_retired_picard_switch_fails_closed(tmp_path, capsys):
    # every step is the plain IMEX step: the per-step loop's section is gone
    for key in ("enabled = true", "k_max = 3", "tol = 0"):
        path = write_cfg(tmp_path, f"# a comment\n[picard]\n{key}\n")
        assert main(["run", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {path}:2: unknown section [picard]\n"


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


def test_T_not_a_whole_number_of_steps_names_key_and_line(tmp_path):
    path = write_cfg(tmp_path, "[time]\ndt = 0.4\nT = 1.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert f"{path}:3:" in msg and "[time] T" in msg, msg
    assert load_config(write_cfg(tmp_path, "[time]\ndt = 0.1\nT = 0.7\n"))


def test_theta_choices(tmp_path):
    # every step is implicit Euler; the key stays while the benchmark
    # workloads set it, and accepts 1 alone
    assert load_config(write_cfg(tmp_path, "[time]\ntheta = 1.0\n"))
    with pytest.raises(ConfigError, match=r"\[time\] theta"):
        load_config(write_cfg(tmp_path, "[time]\ntheta = 0.5\n"))


# ---------------------------------------------------------------------------
# subcommands

def test_version_subcommand(capsys):
    assert main(["version"]) == 0
    from ksns import __version__
    assert capsys.readouterr().out.strip() == __version__


def test_module_entry_point_runs_the_cli(tmp_path):
    # ``python -m ksns.cli`` runs main and exits with its code
    import ksns
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ksns.__file__)))

    def module_cli(*args):
        return subprocess.run([sys.executable, "-m", "ksns.cli", *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=60)

    version = module_cli("version")
    assert version.returncode == 0
    assert version.stdout.strip() == ksns.__version__
    missing = module_cli("run", "--config", str(tmp_path / "absent.cfg"))
    assert missing.returncode == 2
    assert "not found" in missing.stderr


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
    assert len(parts) == 4
    lam_n, lam_d, h = float(parts[0]), float(parts[1]), float(parts[2])
    assert abs(lam_n - np.pi ** 2) <= 0.2       # coarse grid
    assert abs(lam_d - 2 * np.pi ** 2) <= 0.4
    assert h == 1.0 / 16.0
    assert float(parts[3]) <= 1e-12


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


def _fixed_point_line(stdout):
    lines = [ln for ln in stdout.splitlines()
             if "constant-state-fixed-point" in ln]
    assert len(lines) == 1, lines
    return lines[0]


def test_run_constant_forced_records_deviation(tmp_path, capsys):
    # a decaying force moves the fluid off the constant state: the
    # deviation is reported as INFO and does not fail the run
    text = FORCED_RUN.replace("nx = 8\nny = 8", "nx = 16\nny = 16")
    assert "nx = 16" in text
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    line = _fixed_point_line(capsys.readouterr().out)
    assert line.startswith("INFO constant-state-fixed-point: max deviation ")
    dev = float(line.split("max deviation ")[1].split()[0])
    assert dev > 1e-4     # the fluid really moved


def test_run_constant_gravity_stays_gated(tmp_path, capsys):
    # gravity on a constant density is a gradient, projected away: the
    # state stays a fixed point and the verdict stays gated
    text = TINY_RUN + "[potential]\nkind = linear-gravity\ng = 9.81\n"
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    line = _fixed_point_line(capsys.readouterr().out)
    assert line.startswith("PASS constant-state-fixed-point: max deviation ")


def test_run_deterministic_outputs(tmp_path, capsys):
    # the first run builds the solve plans, the second reuses them
    linstep._solve_plan.cache_clear()
    path = write_cfg(tmp_path, TINY_RUN)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", "--config", path, "--out", out_a]) == 0
    assert main(["run", "--config", path, "--out", out_b]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert "diagnostics.csv" in names
    assert sum(name.startswith("snap_") for name in names) == 12
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


# a weak vortex under gravity and a force: near the walls the velocities
# fall below 1e-5, where the snapshot writer formats value by value
WEAK_FLOW = """
[domain]
nx = 16
ny = 16
[time]
dt = 0.001
T = 0.02
[data]
u_preset = vortex
u_amplitude = 0.0001
[potential]
kind = linear-gravity
g = 1.0
[forcing]
kind = decaying
amplitude = 0.1
rate = 1.0
[output]
snapshot_stride = 10
"""


def test_run_outputs_match_the_row_writer(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, WEAK_FLOW)
    assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli, "write_field_snapshot", row_writer)
    assert main(["run", "--config", path, "--out", str(tmp_path / "b")]) == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b")) and len(names) == 13
    tiny = 0
    for name in names:
        got = (tmp_path / "a" / name).read_bytes()
        assert got == (tmp_path / "b" / name).read_bytes(), name
        if name.startswith("snap_"):
            vals = np.loadtxt(tmp_path / "a" / name, delimiter=",", skiprows=1)
            tiny += int(((vals != 0.0) & (np.abs(vals) < 1e-5)).sum())
    assert tiny > 0


def test_vortex_preset_projects_its_extrapolated_faces(tmp_path):
    # the sampled eddy is projected with the faces face_values extrapolates
    # from its cells, bit for bit; the no-slip faces (walls exactly 0) the
    # Stokes step projects would give another field
    cfg = load_config(write_cfg(tmp_path, "[domain]\nLx = 2.0\nnx = 24\n"
                                "ny = 16\n[data]\nu_preset = vortex\n"
                                "u_amplitude = 0.3\n"))
    g, amp = cfg.grid, 0.3
    u = VectorField.from_functions(
        g,
        lambda x, y: amp * 2 * np.pi * np.sin(np.pi * x / 2.0) ** 2
        * np.sin(np.pi * y / 1.0) * np.cos(np.pi * y / 1.0),
        lambda x, y: -amp * 2 * np.pi * np.sin(np.pi * x / 2.0)
        * np.cos(np.pi * x / 2.0) * np.sin(np.pi * y / 1.0) ** 2)
    want = linstep.helmholtz_project_core(
        g, u.ux, u.uy, face_values(u.ux, 1), face_values(u.uy, 0))
    got = given_data_from_config(cfg).u0
    for name in ("ux", "uy", "fx", "fy"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    no_slip = linstep.helmholtz_project_core(
        g, u.ux, u.uy, _interior_face_average(u.ux, 1),
        _interior_face_average(u.uy, 0))
    assert not np.array_equal(no_slip.ux, got.ux)


def test_run_blowup_exits_3(tmp_path, capsys):
    text = TINY_RUN + "[solver]\nblowup_ceiling = 1.5\n"
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "blow-up" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["decay", "lipschitz"])
@pytest.mark.parametrize("text, t_abort", [
    # the constant data's sup, 2, is already above this ceiling
    (TINY_RUN + "[solver]\nblowup_ceiling = 1.5\n", "0"),
    (FORCED_RUN + FORCED_CEILING, "0.015")])
def test_judging_subcommands_exit_3_on_blowup(tmp_path, capsys, command,
                                              text, t_abort):
    if command == "decay":
        # a 4-step run leaves 3 steps in decay's fit window, a config error
        # before the run; 8 steps leave 6, and the run blows up as before
        text = text.replace("T = 0.02", "T = 0.04")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert f"blow-up: blow-up detected at t = {t_abort}:" in stdout
    assert "PASS" not in stdout and "FAIL" not in stdout
    assert "INFO" not in stdout
    assert not out.exists()     # only run writes the partial diagnostics


@pytest.mark.parametrize("given, t_abort", [
    ("[data]\nn_base = 1e308\n", "0"),
    ("[forcing]\nkind = decaying\namplitude = 1e308\nrate = 1.0\n", "0.005"),
    ("[data]\nu_preset = vortex\nu_amplitude = 1e308\n", "0")])
def test_huge_data_blows_up_without_warnings(tmp_path, capsys, given, t_abort):
    # initial data above the ceiling stop before any arithmetic on them,
    # which would overflow; a huge force blows the fluid up on the first
    # step; a huge vortex amplitude overflows into non-finite velocities
    reason = "non-finite values" if "vortex" in given else "sup "
    text = "[domain]\nnx = 8\nny = 8\n[time]\ndt = 0.005\nT = 0.01\n" + given
    path = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    *echo, last = stdout.splitlines()
    assert echo == load_config(path).echo_lines()
    assert last.startswith(f"blow-up: blow-up detected at t = {t_abort}: "
                           f"{reason}")
    assert stderr == ""
    assert not out.exists()


def test_non_finite_initial_fields_blow_up_at_t0(tmp_path):
    # a NaN velocity passes validate's comparisons; the library run stops
    # at t = 0 as the CLI does, with no state
    cfg = load_config(write_cfg(tmp_path, TINY_RUN))
    data = given_data_from_config(cfg)
    data.u0.ux[2, 3] = np.nan
    with pytest.raises(BlowUpError,
                       match="at t = 0: non-finite values") as exc_info:
        run(data, cfg.get("time", "T"), cfg.get("time", "dt"), cfg.options)
    assert exc_info.value.state is None and not exc_info.value.series


def test_fields_below_the_ceiling_do_not_blow_up(tmp_path, capsys):
    # sup n = sup c = 1 under a ceiling of 1.5; early on gamma is about 0,
    # so a bound max|chi| + n_bar0 of the signal's sup would read about 2
    text = TINY_RUN.replace("preset = constant", "preset = constant\n"
                            "n_base = 1.0\nc_base = 1.0")
    path = write_cfg(tmp_path, text + "[solver]\nblowup_ceiling = 1.5\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    for name in ("n-mass-conservation", "c-mass-recursion",
                 "non-negativity", "constant-state-fixed-point"):
        assert f"PASS {name}:" in stdout
    assert "INFO wall-condition-trace: residual" in stdout
    assert "FAIL" not in stdout and "blow-up" not in stdout


def test_run_blowup_writes_partial_diagnostics(tmp_path, capsys):
    # the first two rows are written and no snapshot
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, FORCED_RUN),
                 "--out", str(out)]) == 0   # forced: deviation only recorded
    full = DiagnosticsSeries.from_csv(out / "diagnostics.csv")
    capped = FORCED_RUN + FORCED_CEILING
    out_c = tmp_path / "capped"
    assert main(["run", "--config", write_cfg(tmp_path, capped, "c.cfg"),
                 "--out", str(out_c)]) == 3
    assert "blow-up detected at t = 0.015" in capsys.readouterr().out
    assert os.listdir(out_c) == ["diagnostics.csv"]
    part = DiagnosticsSeries.from_csv(out_c / "diagnostics.csv")
    assert len(part) == 2
    for name in SERIES_COLUMNS:
        np.testing.assert_array_equal(part.column(name),
                                      full.column(name)[:2])


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


SHORT_DECAY = """
[domain]
nx = 8
ny = 8
[time]
dt = 0.001
T = 0.004
"""


@pytest.mark.parametrize("extra, line", [
    ("", None), ("[diagnostics]\nfit_window_frac = 0.3\n", 9)])
def test_decay_short_fit_window_fails_closed_before_the_run(
        tmp_path, capsys, monkeypatch, extra, line):
    # [T/3, T] and [0.3 T, T] each hold 3 of the 4 steps; the fit needs 5
    monkeypatch.setattr("ksns.cli.run", None)       # the run must not start
    path = write_cfg(tmp_path, SHORT_DECAY + extra)
    assert main(["decay", "--config", path, "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    where = "" if line is None else f"{path}:{line}: "
    assert out == ""
    assert err.startswith(f"config error: {where}[diagnostics] "
                          f"fit_window_frac: the fit window "), err
    assert "holds 3 steps; the decay fit needs at least 5" in err, err


def test_decay_deviation_at_zero_prints_fail_lines(tmp_path, capsys):
    # the zero state has zero deviations at every step: the window holds
    # 6 steps but no positive sample, so no rate can be fitted
    text = TINY_RUN.replace("preset = constant", """preset = constant
n_base = 0.0
c_base = 0.0""").replace("T = 0.02", "T = 0.04")
    path = write_cfg(tmp_path, text)
    assert main(["decay", "--config", path, "--out", str(tmp_path / "o")]) == 1
    stdout = capsys.readouterr().out
    for name in ("n-deviation", "c-deviation"):
        assert (f"FAIL decay-{name}: no rate fitted: need at least 5 positive "
                f"samples in the window, got 0 (window [0.0133, 0.04])"
                in stdout), stdout
    assert "PASS" not in stdout
    assert "INFO empirical n-rate none vs" in stdout


def test_run_prints_the_nonneg_verdict(tmp_path, capsys):
    # the verdict of every step is one of run's; there is no nonneg command
    text = TINY_RUN.replace("preset = constant", "preset = small-wave") + \
        "[sensitivity]\nkind = rotation\na = 1.0\nb = 0.5\n"
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "PASS non-negativity" in capsys.readouterr().out
    assert main(["nonneg", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'nonneg'" in err, err


def _series(min_n):
    series = DiagnosticsSeries()
    for k, m in enumerate(min_n, start=1):
        row = dict.fromkeys(SERIES_COLUMNS, 0.0)
        row.update(t=k * 1e-3, min_n=m, min_c=1.0,
                   neg_energy_n=1e-3 * min(m, 0.0) ** 2)
        series.append(**row)
    return series


def test_nonneg_verdict_reads_every_step_and_the_initial_fields(unit16):
    one = ScalarField.constant(unit16, 1.0)
    data = GivenData(n0=one, c0=one, u0=VectorField.zero(unit16),
                     phi_grad=VectorField.zero(unit16),
                     S=SensitivitySpec())
    assert _nonneg_verdict(data, _series([0.9, 0.8, 0.7, 0.6]))[0]
    # with a snapshot stride of 2 the snapshots see only rows 2 and 4; the
    # dip at row 3 alone must fail the verdict
    ok, line = _nonneg_verdict(data, _series([0.9, 0.8, -0.1, 0.6]))
    assert not ok and line.startswith("FAIL non-negativity: min n -0.1,")
    # negative initial data fails though no step dips below zero: the
    # initial minimum alone decides, the energies are the steps' own
    dip = np.ones(unit16.shape)
    dip[3, 5] = -1e-7
    neg = GivenData(n0=ScalarField(unit16, dip), c0=one, u0=data.u0,
                    phi_grad=data.phi_grad, S=data.S)
    ok, line = _nonneg_verdict(neg, _series([0.9, 0.8, 0.7, 0.6]))
    assert not ok and "min n -1e-07," in line and "0.000e+00 /" in line


def test_run_omits_the_nonneg_verdict_on_negative_initial_data(tmp_path,
                                                               capsys):
    # non-negative initial fields are the claim's hypothesis: without them
    # run judges the rest and prints no non-negativity line
    text = TINY_RUN.replace("preset = constant",
                            "preset = small-wave\nn_base = -0.5")
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "PASS n-mass-conservation" in out
    assert "non-negativity" not in out


def test_lipschitz_subcommand(tmp_path, capsys):
    text = TINY_RUN.replace("preset = constant", "preset = small-wave")
    path = write_cfg(tmp_path, text)
    assert main(["lipschitz", "--config", path,
                 "--out", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert re.search(r"PASS lipschitz-ratio-stability: relative gap "
                     r"\d\.\d{3}e-\d\d tol 1\.0e-02\n", stdout), stdout
    assert "PASS lipschitz-ratio-ceiling" in stdout
    assert stdout.count("INFO delta") == 2


@pytest.mark.parametrize("ratio, verdict", [(1.0099, "PASS"),
                                            (1.0101, "FAIL")])
def test_lipschitz_stability_gate_is_one_percent(tmp_path, capsys,
                                                 monkeypatch, ratio, verdict):
    # the delta = 1e-3 ratio against a delta = 1e-4 ratio of 1
    ratios = iter((ratio, 1.0))
    monkeypatch.setattr("ksns.cli.lipschitz_experiment", lambda *a, **k:
                        LipschitzResult(next(ratios), 1.0, 1.0, False))
    path = write_cfg(tmp_path, TINY_RUN.replace("preset = constant",
                                                "preset = small-wave"))
    code = main(["lipschitz", "--config", path, "--out", str(tmp_path / "o")])
    stdout = capsys.readouterr().out
    assert code == (0 if verdict == "PASS" else 1)
    assert (f"{verdict} lipschitz-ratio-stability: relative gap "
            f"{ratio - 1.0:.3e} tol 1.0e-02") in stdout


# a small-wave decay whose fit window [0.003, 0.008] holds 5 steps or more
TINY_DECAY = """[domain]
nx = 8
ny = 8
[time]
dt = 0.001
T = 0.008
[diagnostics]
fit_window_frac = 0.375
"""


WALL = "INFO wall-condition-trace: residual "


@pytest.mark.parametrize("command, text, code, heads", [
    # over 8 steps the n-deviation of the tiny decay still grows: one FAIL
    ("decay", TINY_DECAY, 1, [WALL, "FAIL decay-n-deviation: fitted rate -",
                              "PASS decay-c-deviation: fitted rate ",
                              "INFO empirical n-rate -"]),
    ("lipschitz", TINY_RUN.replace("preset = constant", "preset = small-wave"),
     0, [WALL, "INFO delta 0.001: ratio ", "INFO delta 0.0001: ratio ",
         "PASS lipschitz-ratio-stability: ", "PASS lipschitz-ratio-ceiling: "]),
    # the constant preset ignores the perturbed amplitude: ratio 0 measures
    # nothing, so both gates fail
    ("lipschitz", TINY_RUN, 1, [
        WALL + "0.000e+00 at t = 0, ",
        "INFO delta 0.001: ratio 0 data gap 0",
        "INFO delta 0.0001: ratio 0 data gap 0",
        "FAIL lipschitz-ratio-stability: relative gap 0.000e+00 tol 1.0e-02; "
        "a perturbation left the data unchanged",
        "FAIL lipschitz-ratio-ceiling: max ratio 0 ceiling 10; a perturbation "
        "left the data unchanged"])])
def test_judged_lines_follow_the_echo_in_order(tmp_path, capsys, command,
                                               text, code, heads):
    # stdout is the config echo, the wall-condition line, then the judge's
    # lines: decay's verdicts before its INFO line, lipschitz's two INFO
    # lines before its verdicts
    path = write_cfg(tmp_path, text)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == code
    lines = capsys.readouterr().out.splitlines()
    echo = load_config(path).echo_lines()
    assert lines[:len(echo)] == echo
    assert len(lines) == len(echo) + len(heads), lines
    for line, head in zip(lines[len(echo):], heads):
        assert line.startswith(head), (line, head)
    assert not (tmp_path / "o").exists()     # only run writes files


def _output_callers(tree):
    """For each function of the module (``Class.method`` for a method,
    with the functions nested in it), the names of the calls in it that
    print, write files or open a file in a writing mode."""
    found = {}

    def mode(call):
        for kw in call.keywords:
            if kw.arg == "mode":
                return kw.value
        return call.args[1] if len(call.args) > 1 else ast.Constant("r")

    def visit(node, label):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "open":
                m = mode(node)
                name = ("open" if not isinstance(m, ast.Constant)
                        or set(m.value) & set("wax+") else None)
            if name in ("print", "open", "_write_outputs", "to_csv",
                        "write_field_snapshot", "makedirs"):
                found.setdefault(label, set()).add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, label)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            visit(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                visit(m, f"{node.name}.{m.name}"
                      if isinstance(m, ast.FunctionDef) else node.name)
        else:
            visit(node, "<module>")
    return found


def test_only_the_pipeline_prints_or_writes():
    # the judges return their lines: _simulate prints them through
    # _report, and writes run's files through its one _write_outputs call,
    # the only code that writes them
    found = _output_callers(ast.parse(Path(cli.__file__).read_text()))
    talkers = {fn for fn, names in found.items()
               if names & {"print", "open", "_write_outputs"}}
    assert talkers == {"_report", "_simulate", "_cmd_eigen", "main"}, found
    writers = {fn for fn, names in found.items()
               if names & {"to_csv", "write_field_snapshot", "makedirs"}}
    assert writers == {"_write_outputs"}, found
    assert found["_simulate"] == {"print", "_write_outputs"}
    assert not {fn.__name__ for fn in cli._JUDGES.values()} & set(found)


def test_snapshot_stride_is_a_config_key_not_a_flag(capsys, monkeypatch):
    # [output] snapshot_stride is the one way to set the stride
    monkeypatch.setattr("ksns.cli.run", None)
    assert main(["run", "--snapshot-stride", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --snapshot-stride 3" in err, err


@pytest.mark.parametrize("command", ["run", "decay", "lipschitz", "eigen"])
def test_main_builds_the_library_types_only_in_the_loader(
        tmp_path, capsys, monkeypatch, command):
    # load_config checks each input by building its library type and keeps
    # it; after it returns, no subcommand builds one again or recounts the
    # steps (the run's own step_count call is library code)
    loaded = []
    counts = dict.fromkeys(["Grid", "RunOptions", "DiagnosticsConfig",
                            "SensitivitySpec", "step_count"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if loaded:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (Grid, RunOptions, DiagnosticsConfig, SensitivitySpec):
        monkeypatch.setattr(cls, "__post_init__",
                            counted(cls.__name__, cls.__post_init__))
    monkeypatch.setattr("ksns.cli.step_count",
                        counted("step_count", step_count))

    def load_then_count(path):
        cfg = load_config(path)
        loaded.append(cfg)
        return cfg

    monkeypatch.setattr("ksns.cli.load_config", load_then_count)
    path = write_cfg(tmp_path, TINY_DECAY)
    code = main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert code in (0, 1), capsys.readouterr()
    assert loaded
    assert counts == dict.fromkeys(counts, 0), counts


def test_rate_window_error_names_key_and_line(tmp_path, capsys):
    # lambda1 = 0.5 lies inside (0, 1] but not below lambda_N/q on a
    # 4 x 1 domain, which only the computed Poincare constant shows
    path = write_cfg(tmp_path, """[domain]
Lx = 4.0
nx = 8
ny = 8
[time]
dt = 0.01
T = 0.1
[diagnostics]
lambda1 = 0.5
""")
    assert main(["decay", "--config", path, "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == ""            # fails closed before the config echo
    assert err == (
        f"config error: {path}:9: [diagnostics] lambda1: must lie below "
        f"min(1, lambda_N/q) = 0.152241\n")


def test_wall_condition_trace_reports_the_initial_residual(tmp_path, capsys):
    # rotated tensor against a pure-y signal wave: the data miss the wall
    # condition at t = 0, which the one INFO line after the config echo
    # reports on every grid, with the last state's residual
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
    lines = capsys.readouterr().out.splitlines()
    echo = load_config(path).echo_lines()
    assert lines[:len(echo)] == echo
    assert re.fullmatch(
        r"INFO wall-condition-trace: residual 6\.503e-01 at t = 0, "
        r"\S+ \(scale \S+\) at t = 0\.01 \(recorded, not asserted\)",
        lines[len(echo)]), lines[len(echo)]
    assert sum("wall-condition-trace" in ln for ln in lines) == 1


@pytest.mark.parametrize("workload, command, r0", [
    ("no-flow-32", "run", "3.146e-02"), ("flow-128", "run", "3.157e-02"),
    ("verdicts-48", "lipschitz", "8.028e-06")])
def test_benchmark_workload_wall_condition_trace(tmp_path, capsys, workload,
                                                 command, r0):
    # rotation's residual on the small wave is about 0.0316 on every grid,
    # the identity's 8.0e-6 at 48^2; the workloads' data, run for two steps
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
            / f"{workload}.cfg").read_text()
    path = write_cfg(tmp_path, re.sub(r"(?m)^T = .*$", "T = 0.002", text))
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    info = lines[len(load_config(path).echo_lines())]
    assert info.startswith(f"INFO wall-condition-trace: residual {r0} at "
                           f"t = 0, "), info
    assert info.endswith(" at t = 0.002 (recorded, not asserted)"), info
