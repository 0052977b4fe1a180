"""Benchmark of the ``ksns`` command line on three fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload no-flow-32 --seed 1 --seconds 35 --trace 0

Each operation is one ``ksns`` CLI command, run in its own process on one
thread, one at a time.  A round runs every command of the workload once; the
run repeats whole rounds for about ``--seconds`` (at least one round) and
reports the median over rounds.  The inputs are fixed config files under
``perfbench/workloads``; ``--seed`` is accepted and does not change them.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs the workload untraced
and then traced, and the JSON object holds the per-layer metrics.  An
operation fails on a non-zero exit, on a FAIL line, or on a failed check in
``checks.py``.  Progress and failure details go to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "no-flow-32": ("no-flow-32.cfg", ("run",)),
    "flow-128": ("flow-128.cfg", ("run",)),
    "verdicts-48": ("verdicts-48.cfg", ("eigen", "decay", "lipschitz")),
}

CG_TAGS = {"neumann-heat": "neumann-heat", "shifted-heat": "shifted-heat",
           "stokes-heat-x": "stokes-heat", "stokes-heat-y": "stokes-heat",
           "pressure-poisson": "pressure-poisson"}
TRACED_LAYERS = ("integrator", "linstep", "eigen", "grid", "diagnostics")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "step_ms": "ms",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "linstep.projection_ms_per_step": "ms",
    "linstep.viscous_ms_per_step": "ms",
    "linstep.density_ms_per_step": "ms",
    "linstep.signal_ms_per_step": "ms",
    **{f"linstep.cg_iters.{t}": "count" for t in sorted(set(CG_TAGS.values()))},
    "linstep.cg_cell_updates": "count",
    "integrator.flux_ms_per_step": "ms",
    "integrator.upwind_ms_per_step": "ms",
    "integrator.loop_ms_per_step": "ms",
    "cli.runs": "count",
    "cli.initial_data_ms": "ms",
    "eigen.neumann_s": "s",
    "eigen.dirichlet_s": "s",
    "eigen.inner_iters": "count",
    "grid.snapshot_ms_per_file": "ms",
    "grid.snapshot_bytes_per_file": "B",
    "diagnostics.weighted_norm_s": "s",
    "diagnostics.series_csv_ms": "ms",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in TRACED_LAYERS},
    "trace.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a broken command)."""


@dataclass
class Command:
    """One finished CLI command and what the benchmark measured of it."""

    name: str
    wall: float
    setup: float
    rss_mb: float
    report: dict
    failures: list = field(default_factory=list)
    bad_output: list = field(default_factory=list)
    snap_files: int = 0
    snap_bytes: int = 0

    @property
    def steps(self):
        return sum(r[2] for r in self.report["runs"])

    @property
    def run_s(self):
        return sum(r[1] - r[0] for r in self.report["runs"])


def run_command(cmd, cfg_path, cfg, traced):
    """Run ``ksns <cmd>`` through the launcher and check its outputs."""
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    report_path = WORK / "report.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "launch.py"), cmd]
    if cfg_path is not None:
        argv += ["--config", str(cfg_path)]
    if cmd == "run":
        argv += ["--out", str(out_dir)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PERFBENCH_REPORT=str(report_path),
               PERFBENCH_TRACE="1" if traced else "0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    with open(WORK / "stdout.txt", "w+", encoding="utf-8") as so, \
            open(WORK / "stderr.txt", "w+", encoding="utf-8") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=WORK)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        stdout = so.read()
        se.seek(0)
        stderr = se.read()
    if not report_path.exists():
        raise BenchError(f"ksns {cmd} left no report (exit "
                         f"{proc.returncode}): {stderr.strip()[-400:]}")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    runs = report["runs"]
    setup = (runs[0][0] if runs else t1) - t0
    res = Command(cmd, t1 - t0, setup, usage.ru_maxrss / 1024.0, report)
    if proc.returncode != 0:
        res.failures.append(f"exit code {proc.returncode}")
    res.failures += [ln for ln in stdout.splitlines() if ln.startswith("FAIL")]
    check = checks.CHECKS.get(cmd)
    if check is not None and proc.returncode == 0:
        res.bad_output = check(cfg, stdout, out_dir)
    if cmd == "run":
        snaps = list(out_dir.glob("snap_*.csv"))
        res.snap_files = len(snaps)
        res.snap_bytes = sum(p.stat().st_size for p in snaps)
    return res


def run_round(workload, traced):
    cfg_name, cmds = WORKLOADS[workload]
    cfg_path = HERE / "workloads" / cfg_name
    cfg = checks.load_config(cfg_path)
    return [run_command(cmd, cfg_path, cfg, traced) for cmd in cmds]


def e2e_metrics(rnd):
    steps = sum(c.steps for c in rnd)
    if steps == 0:
        raise BenchError("no integrator.run step was recorded")
    return {"wall_s": sum(c.wall for c in rnd),
            "setup_s": sum(c.setup for c in rnd),
            "step_ms": 1e3 * sum(c.run_s for c in rnd) / steps,
            "peak_rss_mb": max(c.rss_mb for c in rnd)}


def layer_metrics(plain, traced):
    """Per-layer figures of one traced round; ``plain`` is the untraced
    round next to it, for the tracing overhead."""
    names = {}
    solves = {}
    for c in traced:
        for name, rec in c.report["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, v in enumerate(rec):
                acc[i] += v
        for tag, rec in c.report["solves"].items():
            acc = solves.setdefault(CG_TAGS.get(tag, tag), [0, 0, 0])
            for i, v in enumerate(rec):
                acc[i] += v

    def total(name, field):
        # field: 0 calls, 1 inclusive s, 2 self s, 3 inclusive s inside run
        return names.get(name, (0, 0.0, 0.0, 0.0))[field]

    def in_run(name):
        return total(name, 3)

    steps = sum(c.steps for c in traced)
    per_step = 1e3 / steps
    wall = sum(c.wall for c in traced)
    m = {
        "linstep.projection_ms_per_step":
            per_step * in_run("linstep.helmholtz_project_core"),
        "linstep.viscous_ms_per_step":
            per_step * (in_run("linstep.stokes_core")
                        - in_run("linstep.helmholtz_project_core")),
        "linstep.density_ms_per_step":
            per_step * in_run("linstep.neumann_heat_core"),
        "linstep.signal_ms_per_step":
            per_step * in_run("linstep.shifted_heat_core"),
        "linstep.cg_cell_updates": sum(r[2] for r in solves.values()),
        "integrator.flux_ms_per_step":
            per_step * in_run("integrator.chemotactic_flux_raw"),
        "integrator.upwind_ms_per_step":
            per_step * in_run("integrator.upwind_divergence"),
        "integrator.loop_ms_per_step": per_step * total("integrator.run", 2),
        "cli.runs": total("integrator.run", 0),
        "cli.initial_data_ms": 1e3 * total("cli.given_data_from_config", 1),
        "eigen.neumann_s": total("eigen.lambda_neumann", 1),
        "eigen.dirichlet_s": total("eigen.lambda_dirichlet", 1),
        "eigen.inner_iters": sum(c.report["eig_inner_iters"] for c in traced),
        "grid.snapshot_ms_per_file":
            1e3 * total("grid.write_field_snapshot", 1)
            / max(total("grid.write_field_snapshot", 0), 1),
        "grid.snapshot_bytes_per_file": sum(c.snap_bytes for c in traced)
        / max(sum(c.snap_files for c in traced), 1),
        "diagnostics.weighted_norm_s":
            total("diagnostics.weighted_solution_norm", 1),
        "diagnostics.series_csv_ms":
            1e3 * total("diagnostics.DiagnosticsSeries.to_csv", 1),
        "trace.self_s": sum(c.report["trace_s"] for c in traced),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - sum(c.wall for c in plain),
    }
    for tag in sorted(set(CG_TAGS.values())):
        n, iters, _ = solves.get(tag, (0, 0, 0))
        m[f"linstep.cg_iters.{tag}"] = iters / n if n else 0.0
    # self-time partition: every span belongs to one layer; what no span
    # covers (interpreter start, imports, argument parsing) is the CLI's
    for layer in TRACED_LAYERS:
        m[f"{layer}.self_s"] = sum(rec[2] for name, rec in names.items()
                                   if name.startswith(layer + "."))
    m["cli.self_s"] = wall - m["trace.self_s"] - sum(
        m[f"{layer}.self_s"] for layer in TRACED_LAYERS)
    cli_spans = sum(rec[2] for name, rec in names.items()
                    if name.startswith("cli."))
    if m["cli.self_s"] < cli_spans or min(
            m[f"{layer}.self_s"] for layer in TRACED_LAYERS) < 0:
        raise BenchError("span self times do not fit inside the traced wall "
                         "time")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ksns" / "cli.py").is_file():
        print(f"error: no ksns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def bench(args):
    # compile the sources to bytecode once, outside the measurement
    warm = run_command("version", None, None, traced=False)
    if warm.failures:
        raise BenchError(f"ksns version failed: {warm.failures}")
    start = time.monotonic()
    rounds = []
    while True:
        r0 = time.monotonic()
        plain = run_round(args.workload, traced=False)
        traced = run_round(args.workload, traced=True) if args.trace else []
        rounds.append((plain, traced))
        print(f"round {len(rounds)}: " + ", ".join(
            f"{c.name} {c.wall:.3f} s" for c in plain + traced),
            file=sys.stderr)
        # stop where one more round would overrun by more than half a round
        now = time.monotonic()
        if now - start + 0.5 * (now - r0) > args.seconds:
            break
    commands = [c for plain, traced in rounds for c in plain + traced]
    failed = [c for c in commands if c.failures or c.bad_output]
    for c in failed:
        print(f"failed: ksns {c.name}: {c.failures + c.bad_output}",
              file=sys.stderr)
    missing = sorted({n for c in commands for n in c.report["missing"]})
    if missing:
        print(f"absent spans (their metrics read 0): {missing}",
              file=sys.stderr)
    if args.trace:
        per_round = [layer_metrics(p, t) for p, t in rounds]
        units = LAYER_UNITS
    else:
        per_round = [e2e_metrics(p) for p, _ in rounds]
        units = E2E_UNITS
    metrics = {name: {"value": statistics.median(r[name] for r in per_round),
                      "unit": unit} for name, unit in units.items()}
    print(f"{args.workload}: {len(rounds)} rounds, {len(commands)} commands, "
          f"seed {args.seed} (inputs are fixed)", file=sys.stderr)
    for name, rec in metrics.items():
        print(f"{name} = {rec['value']:.6g} {rec['unit']}")
    print(json.dumps({"correct": not any(c.bad_output for c in commands),
                      "attempted": len(commands), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
