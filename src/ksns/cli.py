"""Configuration parsing and scenario orchestration.

Subcommands: ``run`` (full scenario with PASS/FAIL invariant verdicts,
among them positivity at every step), ``eigen`` (Poincare constants as one
CSV line), ``decay`` (stabilization rate fits), ``lipschitz``
(data-perturbation experiment), ``version``.  ``run``, ``decay`` and
``lipschitz`` share one pass, ``_simulate``: build the scenario, run it,
then judge the run.  Each judge returns its verdict lines; ``_simulate``
alone prints them, after one ``INFO wall-condition-trace`` line with the
wall condition's residual at t = 0 and on the last state, writes
``run``'s files and sets the exit code.  Every line after the config
echo goes through ``_report``, except a blow-up's.

Config files are plain ``key = value`` text with ``[section]`` headers and
``#`` comments; unknown sections or keys are errors (fail-closed), and
every value is checked at load time, by the library type it sets where it
sets one (``_FIELDS``); a float key no library field holds must be finite,
and a key that a choice ignores must hold the one value that agrees with
it (``_FIXED``).
The loader builds each of those types once and keeps them on the
``RunConfig`` it returns, where every subcommand reads them.
Exit codes: 0 all enabled checks pass, 1 check failure, 2 configuration
error, 3 blow-up.
"""

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import __version__
from .diagnostics import (FIT_MIN_SAMPLES, DiagnosticsConfig, fit_decay_rate,
                          lipschitz_experiment, mass_identity_residuals,
                          wall_condition_residual)
from .eigen import lambda_dirichlet, lambda_neumann
from .grid import (Grid, ScalarField, VectorField, face_values, integrate,
                   write_field_snapshot)
from .integrator import (BlowUpError, GivenData, RunOptions, SensitivitySpec,
                         run, step_count)
from .linstep import helmholtz_project_core


class ConfigError(Exception):
    """A configuration file failed to parse or validate."""


# section -> key -> (python type, default)
_SCHEMA = {
    "domain": {"Lx": (float, 1.0), "Ly": (float, 1.0),
               "nx": (int, 32), "ny": (int, 32)},
    "time": {"dt": (float, 1e-3), "T": (float, 1.0), "theta": (float, 1.0)},
    "solver": {"blowup_ceiling": (float, 1e6)},
    "data": {"preset": (str, "small-wave"), "n_base": (float, 2.0),
             "c_base": (float, 2.0), "amplitude": (float, 0.01),
             "u_preset": (str, "zero"), "u_amplitude": (float, 0.0)},
    "sensitivity": {"kind": (str, "identity"), "a": (float, 1.0),
                    "b": (float, 0.0)},
    "potential": {"kind": (str, "zero"), "g": (float, 0.0)},
    "forcing": {"kind": (str, "zero"), "amplitude": (float, 0.0),
                "rate": (float, 1.0)},
    "diagnostics": {"r": (float, 4.0), "q": (float, 4.0),
                    "lambda1": (float, 0.5), "lambda2": (float, 0.25),
                    "fit_window_frac": (float, 1.0 / 3.0),
                    "lipschitz_ceiling": (float, 10.0)},
    "eigen": {"tol": (float, 1e-8)},   # range-checked, read by nothing
    "output": {"dir": (str, ""), "snapshot_stride": (int, 10)},
}

# library field -> the config key that sets it.  Grid, step_count,
# RunOptions, DiagnosticsConfig and SensitivitySpec check the ranges of
# these fields, and each of their ValueError messages starts with the
# field's name.
_FIELDS = {
    "Lx": ("domain", "Lx"), "Ly": ("domain", "Ly"),
    "nx": ("domain", "nx"), "ny": ("domain", "ny"),
    "T": ("time", "T"), "dt": ("time", "dt"),
    "snapshot_stride": ("output", "snapshot_stride"),
    "blowup_ceiling": ("solver", "blowup_ceiling"),
    "r": ("diagnostics", "r"), "q": ("diagnostics", "q"),
    "lambda1": ("diagnostics", "lambda1"),
    "lambda2": ("diagnostics", "lambda2"),
    "a": ("sensitivity", "a"), "b": ("sensitivity", "b"),
}

_CHOICES = {
    ("data", "preset"): ("constant", "small-wave"),
    ("data", "u_preset"): ("zero", "vortex"),
    ("sensitivity", "kind"): ("identity", "scaled", "rotation"),
    ("potential", "kind"): ("zero", "linear-gravity"),
    ("forcing", "kind"): ("zero", "decaying"),
}

# (section, choice key) -> choice -> the keys it ignores, each fixed at the
# one value that agrees with it.  [sensitivity] kind stays a key only while
# the benchmark workloads set it.
_FIXED = {
    ("sensitivity", "kind"): {"identity": {"a": 1.0, "b": 0.0},
                              "scaled": {"b": 0.0}},
    ("data", "u_preset"): {"zero": {"u_amplitude": 0.0}},
    ("potential", "kind"): {"zero": {"g": 0.0}},
    ("forcing", "kind"): {"zero": {"amplitude": 0.0}},
}


@dataclass
class RunConfig:
    """Resolved, validated configuration for one scenario, with the library
    types its keys set, each built once by the loader's checks."""

    values: dict = field(default_factory=dict)
    where: dict = field(default_factory=dict)   # file's keys -> "path:line: "
    grid: Grid | None = None
    options: RunOptions | None = None
    diag: DiagnosticsConfig | None = None
    S: SensitivitySpec | None = None

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def error(self, section: str, key: str, msg: str) -> ConfigError:
        """A config error naming the key, and its ``path:line`` when the
        file sets it."""
        return ConfigError(f"{self.where.get((section, key), '')}"
                           f"[{section}] {key}: {msg}")

    def echo_lines(self) -> list[str]:
        return [f"{s}.{k} = {self.values[(s, k)]}"
                for (s, k) in sorted(self.values)]


@contextmanager
def _keyed(cfg: RunConfig):
    """Re-raise a library range error as the config error naming the key
    of the field its message starts with."""
    try:
        yield
    except ValueError as exc:
        name, _, msg = str(exc).partition(" ")
        raise cfg.error(*_FIELDS[name], msg) from None


def _build(cls, cfg: RunConfig):
    """``cls`` built from the config keys of its fields."""
    with _keyed(cfg):
        return cls(**{f.name: cfg.get(*_FIELDS[f.name])
                      for f in fields(cls) if f.init})


def _validate(cfg: RunConfig) -> None:
    """Check every value and keep the library types on ``cfg``: the types
    check their fields' keys, and the rules below, which no library type
    holds, check the rest."""
    def fail(section, key, msg):
        raise cfg.error(section, key, msg)

    v = cfg.values
    for (s, k), choices in _CHOICES.items():
        if v[(s, k)] not in choices:
            fail(s, k, f"must be one of {choices}, got {v[(s, k)]!r}")
    cfg.grid = _build(Grid, cfg)
    with _keyed(cfg):
        step_count(v[("time", "T")], v[("time", "dt")])
    cfg.options = _build(RunOptions, cfg)
    cfg.diag = _build(DiagnosticsConfig, cfg)
    cfg.S = _build(SensitivitySpec, cfg)
    for (s, c), by_choice in _FIXED.items():
        for k, fixed in by_choice.get(v[(s, c)], {}).items():
            if v[(s, k)] != fixed:
                fail(s, k, f"must be {fixed} when {c} = {v[(s, c)]}, "
                     f"got {v[(s, k)]!r}")
    if not 0 < v[("diagnostics", "fit_window_frac")] < 1:
        fail("diagnostics", "fit_window_frac", "must lie in (0, 1)")
    if not v[("diagnostics", "lipschitz_ceiling")] > 0:
        fail("diagnostics", "lipschitz_ceiling", "must be positive and finite")
    # [eigen] tol and [time] theta stay keys only while the benchmark
    # workloads set them (ROADMAP item 3); every step is implicit Euler
    if not 0 < v[("eigen", "tol")] <= 1e-3:
        fail("eigen", "tol", "must lie in (0, 1e-3]")
    if v[("time", "theta")] != 1.0:
        fail("time", "theta", "must be 1 (implicit Euler)")
    if (v[("forcing", "kind")] == "decaying"
            and v[("forcing", "rate")] <= v[("diagnostics", "lambda2")]):
        fail("forcing", "rate", "must exceed diagnostics.lambda2 for an "
             "integrable weighted forcing")


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file; ``None`` gives pure defaults."""
    values = {(s, k): d for s, sec in _SCHEMA.items()
              for k, (_, d) in sec.items()}
    where = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        section = None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown section "
                                      f"[{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, _, raw_val = line.partition("=")
            key = key.strip()
            raw_val = raw_val.strip()
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}:{lineno}: unknown key "
                                  f"[{section}] {key}")
            if (section, key) in where:
                raise ConfigError(f"{path}:{lineno}: duplicate key "
                                  f"[{section}] {key}")
            where[(section, key)] = f"{path}:{lineno}: "
            typ, _ = _SCHEMA[section][key]
            try:
                if typ is int:
                    val = int(raw_val)
                elif typ is float:
                    val = float(raw_val)
                else:
                    val = raw_val
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: [{section}] {key}: "
                                  f"{exc}") from None
            # the library types reject their own fields' non-finite values
            if (typ is float and not math.isfinite(val)
                    and (section, key) not in _FIELDS.values()):
                raise ConfigError(f"{path}:{lineno}: [{section}] {key}: "
                                  f"must be finite")
            values[(section, key)] = val
    cfg = RunConfig(values=values, where=where)
    _validate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# scenario builders

def _vortex(grid: Grid, amplitude: float) -> VectorField:
    Lx, Ly = grid.Lx, grid.Ly
    # an overflow makes non-finite values, which the t = 0 check reports
    with np.errstate(over="ignore", invalid="ignore"):
        u = VectorField.from_functions(
            grid,
            lambda x, y: amplitude * 2 * np.pi * np.sin(np.pi * x / Lx) ** 2
            * np.sin(np.pi * y / Ly) * np.cos(np.pi * y / Ly),
            lambda x, y: -amplitude * 2 * np.pi * np.sin(np.pi * x / Lx)
            * np.cos(np.pi * x / Lx) * np.sin(np.pi * y / Ly) ** 2)
        return helmholtz_project_core(grid, u.ux, u.uy, face_values(u.ux, 1),
                                      face_values(u.uy, 0))


def given_data_from_config(cfg: RunConfig,
                           amplitude: float | None = None) -> GivenData:
    grid = cfg.grid
    preset = cfg.get("data", "preset")
    n_base = cfg.get("data", "n_base")
    c_base = cfg.get("data", "c_base")
    amp = cfg.get("data", "amplitude") if amplitude is None else amplitude
    Lx, Ly = grid.Lx, grid.Ly
    if preset == "constant":
        n0 = ScalarField.constant(grid, n_base)
        c0 = ScalarField.constant(grid, c_base)
    else:
        n0 = ScalarField.from_function(
            grid, lambda x, y: n_base + amp * np.cos(np.pi * x / Lx))
        c0 = ScalarField.from_function(
            grid, lambda x, y: c_base + amp * np.cos(np.pi * y / Ly))
    if cfg.get("data", "u_preset") == "vortex":
        u0 = _vortex(grid, cfg.get("data", "u_amplitude"))
    else:
        u0 = VectorField.zero(grid)
    if cfg.get("potential", "kind") == "linear-gravity":
        g_val = cfg.get("potential", "g")
        phi_grad = VectorField.from_functions(grid, lambda x, y: 0.0 * x,
                                              lambda x, y: -g_val + 0.0 * x)
    else:
        phi_grad = VectorField.zero(grid)
    f = None
    if cfg.get("forcing", "kind") == "decaying":
        f_amp = cfg.get("forcing", "amplitude")
        f_rate = cfg.get("forcing", "rate")
        base = VectorField.from_functions(
            grid, lambda x, y: np.cos(np.pi * y / Ly),
            lambda x, y: np.cos(np.pi * x / Lx))

        def f(t, _base=base, _amp=f_amp, _rate=f_rate):
            w = _amp * math.exp(-_rate * t)
            return VectorField(grid, w * _base.ux, w * _base.uy)
    return GivenData(n0=n0, c0=c0, u0=u0, phi_grad=phi_grad,
                     S=cfg.S, f=f)


# ---------------------------------------------------------------------------
# verdicts

def _verdict(name: str, passed: bool, detail: str) -> tuple[bool, str]:
    tag = "PASS" if passed else "FAIL"
    return passed, f"{tag} {name}: {detail}"


def _report(verdicts: list[tuple[bool, str]]) -> bool:
    """Print the verdict lines; whether all passed."""
    for _, line in verdicts:
        print(line)
    return all(passed for passed, _ in verdicts)


def _nonneg_verdict(data, series) -> tuple[bool, str]:
    """Non-negativity of the initial fields and of every step: the minima
    no lower than -1e-8 and every step's negative-part energies no higher
    than 1e-16 times the initial sups (squared)."""
    min_n = min(float(data.n0.values.min()), series.column("min_n").min())
    min_c = min(float(data.c0.values.min()), series.column("min_c").min())
    en = series.column("neg_energy_n").max()
    ec = series.column("neg_energy_c").max()
    sup_n = float(np.abs(data.n0.values).max())
    sup_c = float(np.abs(data.c0.values).max())
    ok = (min_n >= -1e-8 * sup_n and min_c >= -1e-8 * sup_c
          and en <= 1e-16 * sup_n ** 2 and ec <= 1e-16 * sup_c ** 2)
    return _verdict("non-negativity", ok,
                    f"min n {min_n:.6g}, min c {min_c:.6g}, "
                    f"neg energies {en:.3e} / {ec:.3e}")


def _run_checks(cfg, data, trajectory, series) -> list[tuple[bool, str]]:
    M_n0 = integrate(data.n0)
    M_c0 = integrate(data.c0)
    out = []
    rn, _ = mass_identity_residuals(series, M_n0, M_c0)
    rel = rn / max(abs(M_n0), 1e-300)
    out.append(_verdict("n-mass-conservation", rel <= 1e-10,
                        f"relative drift {rel:.3e} tol 1e-10"))
    dt = cfg.get("time", "dt")
    mc = series.column("mass_c")
    mn = series.column("mass_n")
    prev_mc = np.concatenate(([M_c0], mc[:-1]))
    prev_mn = np.concatenate(([M_n0], mn[:-1]))
    rec = np.abs(mc * (1 + dt) - (prev_mc + dt * prev_mn)).max()
    scale = max(1.0, abs(M_c0) + abs(M_n0))
    out.append(_verdict("c-mass-recursion", rec <= 1e-9 * scale,
                        f"max residual {rec:.3e} tol {1e-9 * scale:.1e}"))
    if data.n0.values.min() >= 0.0 and data.c0.values.min() >= 0.0:
        out.append(_nonneg_verdict(data, series))
    if cfg.get("data", "preset") == "constant":
        # the state itself must stay put (n, c, u unchanged), checked
        # against the initial fields at every snapshot; a force moves the
        # fluid, so there the deviation is recorded, not asserted
        n0, c0 = trajectory[0].n.values, trajectory[0].c.values
        dev = max(max(np.abs(s.n.values - n0).max(),
                      np.abs(s.c.values - c0).max(),
                      s.u.magnitude_sup()) for s in trajectory[1:])
        if cfg.get("forcing", "kind") == "zero":
            out.append(_verdict("constant-state-fixed-point", dev <= 1e-9,
                                f"max deviation {dev:.3e} tol 1e-9"))
        else:
            out.append((True, f"INFO constant-state-fixed-point: max "
                              f"deviation {dev:.3e} under forcing (recorded, "
                              f"not asserted)"))
    return out


def _resolve_out_dir(cfg, args) -> str:
    if args.out:
        return args.out
    if cfg.get("output", "dir"):
        return cfg.get("output", "dir")
    return os.environ.get("KSNS_OUT", "ksns_out")


def _write_outputs(out_dir, trajectory, series) -> None:
    os.makedirs(out_dir, exist_ok=True)
    series.to_csv(os.path.join(out_dir, "diagnostics.csv"))
    for idx, state in enumerate(trajectory):
        for name, fld in (("n", state.n), ("c", state.c)):
            write_field_snapshot(
                os.path.join(out_dir, f"snap_{idx:06d}_{name}.csv"),
                fld, name, state.t)
        for name, comp in (("ux", state.u.ux), ("uy", state.u.uy)):
            write_field_snapshot(
                os.path.join(out_dir, f"snap_{idx:06d}_{name}.csv"),
                ScalarField(state.u.grid, comp), name, state.t)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eigen(cfg) -> int:
    grid = cfg.grid
    rN = lambda_neumann(grid)
    rD = lambda_dirichlet(grid)
    print(f"{rN.lam:.12g},{rD.lam:.12g},{grid.hx:.12g},"
          f"{max(rN.residual, rD.residual):.6g}")
    return 0


def _judge_decay(cfg, data, trajectory, series, *, window, lamN,
                 lamD) -> list[tuple[bool, str]]:
    span = f"(window [{window[0]:.3g}, {window[1]:.3g}])"
    t = series.column("t")
    lam1 = cfg.diag.lambda1
    verdicts, rates = [], {}
    for name, column in (("n-deviation", "sup_n_dev"),
                         ("c-deviation", "sup_c_dev")):
        try:
            fit = fit_decay_rate(list(zip(t, series.column(column))), window)
        except ValueError as exc:   # decayed to zero before enough samples
            verdicts.append(_verdict(f"decay-{name}", False,
                                     f"no rate fitted: {exc} {span}"))
            continue
        rates[name] = f"{fit.rate:.4f}"
        verdicts.append(_verdict(
            f"decay-{name}", fit.rate >= lam1,
            f"fitted rate {fit.rate:.4f} >= lambda1 {lam1:.4f} {span}"))
    verdicts.append((True, f"INFO empirical n-rate "
                           f"{rates.get('n-deviation', 'none')} vs "
                           f"0.8*lambda_N {0.8 * lamN:.4f} (recorded, not "
                           f"asserted); lambda_N {lamN:.6g}, lambda_D "
                           f"{lamD:.6g}"))
    return verdicts


def _judge_lipschitz(cfg, data, trajectory, series) -> list[tuple[bool, str]]:
    T, dt = cfg.get("time", "T"), cfg.get("time", "dt")
    amp = cfg.get("data", "amplitude")
    out, ratios, degenerate = [], [], False
    for delta in (1e-3, 1e-4):
        pert = given_data_from_config(cfg, amplitude=amp + delta)
        res = lipschitz_experiment(data, pert, cfg.diag, T, dt,
                                   cfg.options, base_trajectory=trajectory)
        ratios.append(res.ratio)
        degenerate |= res.degenerate
        out.append((True, f"INFO delta {delta:g}: ratio {res.ratio:.6g} "
                          f"data gap {res.data_gap:.6g}"))
    ceiling = cfg.get("diagnostics", "lipschitz_ceiling")
    # the ratio is differentiable in the amplitude, so the two ratios
    # differ by O(delta): gated at 10 times the larger delta
    gap = abs(ratios[0] - ratios[1]) / max(ratios[1], 1e-300)
    # data a perturbation left unchanged (as under preset = constant) give
    # ratio 0, which measures nothing
    why = "; a perturbation left the data unchanged" if degenerate else ""
    return out + [
        _verdict("lipschitz-ratio-stability", gap <= 1e-2 and not degenerate,
                 f"relative gap {gap:.3e} tol 1.0e-02{why}"),
        _verdict("lipschitz-ratio-ceiling",
                 max(ratios) <= ceiling and not degenerate,
                 f"max ratio {max(ratios):.4g} ceiling {ceiling:g}{why}")]


# each judge maps (cfg, data, trajectory, series) to its verdict lines and
# prints nothing
_JUDGES = {"run": _run_checks, "decay": _judge_decay,
           "lipschitz": _judge_lipschitz}


def _simulate(cfg, args) -> int:
    """Echo the config, build and run the scenario, judge the run with the
    judge of ``args.command`` and print its lines: the one place that
    prints a verdict and writes ``run``'s files.  The judge's lines follow
    one ``INFO wall-condition-trace`` line.  Exit code 0 when every
    verdict passes, 1 otherwise, 3 on a blow-up, also of initial data
    already above the ceiling (``run`` then writes the diagnostics
    recorded up to it).  For ``decay`` the fit window and the rate window
    against lambda_N fail closed before the echo."""
    judge = _JUDGES[args.command]
    if args.command == "decay":
        T, dt = cfg.get("time", "T"), cfg.get("time", "dt")
        window = (cfg.get("diagnostics", "fit_window_frac") * T, T)
        # the run's times k * dt; the loader has checked that T/dt is whole
        t = np.arange(1, round(T / dt) + 1) * dt
        steps = int(((window[0] <= t) & (t <= window[1])).sum())
        if steps < FIT_MIN_SAMPLES:
            raise cfg.error("diagnostics", "fit_window_frac",
                            f"the fit window [{window[0]:.3g}, "
                            f"{window[1]:.3g}] holds {steps} steps; the decay "
                            f"fit needs at least {FIT_MIN_SAMPLES}")
        lamN = lambda_neumann(cfg.grid).lam
        with _keyed(cfg):
            cfg.diag.validate_rates(lamN)
        judge = partial(judge, window=window, lamN=lamN,
                        lamD=lambda_dirichlet(cfg.grid).lam)
    for line in cfg.echo_lines():
        print(line)
    data = given_data_from_config(cfg)
    trajectory, series, verdicts = [], None, None
    try:
        trajectory, series = run(data, cfg.get("time", "T"),
                                 cfg.get("time", "dt"), cfg.options)
        lines = judge(cfg, data, trajectory, series)
        # read once run has checked the data at t = 0; the presets' data
        # miss the wall condition under rotation there, and dt is not tied
        # to h^2, so both residuals are recorded, not gated
        last = trajectory[-1]
        r0, _ = wall_condition_residual(data.n0, data.c0, data.S)
        res, scale = wall_condition_residual(last.n, last.c, data.S)
        verdicts = [(True, f"INFO wall-condition-trace: residual {r0:.3e} at "
                           f"t = 0, {res:.3e} (scale {scale:.3e}) at t = "
                           f"{last.t:.6g} (recorded, not asserted)")] + lines
    except BlowUpError as exc:
        print(f"blow-up: {exc}")
        series = exc.series
    if args.command == "run" and series:
        _write_outputs(_resolve_out_dir(cfg, args), trajectory, series)
    if verdicts is None:
        return 3
    return 0 if _report(verdicts) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ksns",
        description="chemotaxis-fluid laboratory with flux-coupled walls")
    parser.add_argument("command",
                        choices=["run", "eigen", "decay", "lipschitz",
                                 "version"])
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--out", default=None, help="output directory "
                        "(falls back to config, then $KSNS_OUT)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "version":
        print(__version__)
        return 0
    try:
        cfg = load_config(args.config)
        if args.command == "eigen":
            return _cmd_eigen(cfg)
        return _simulate(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
