"""Milliseconds per IMEX step on the grid ladder 32^2 .. 256^2 (reference only).

Usage, from the root of a checkout: ``python3 perfbench/ladder.py``.

Each rung is one ``ksns run`` of the flow-128 scenario (vortex, gravity,
decaying force, rotational sensitivity, theta = 1, dt = 1e-3) at that
resolution, for a few steps, untraced, with the outputs checked as in the
benchmark.  The figures are printed, not gated: the README records one
measurement.
"""

import shutil
import sys

import checks
from run import HERE, WORK, run_command

LADDER = ((32, 40), (64, 20), (128, 10), (256, 4))   # (cells per side, steps)


def main():
    base = (HERE / "workloads" / "flow-128.cfg").read_text(encoding="utf-8")
    WORK.mkdir(exist_ok=True)
    try:
        print("cells,steps,ms_per_step,setup_s,wall_s")
        for n, steps in LADDER:
            text = base.replace("nx = 128", f"nx = {n}") \
                .replace("ny = 128", f"ny = {n}") \
                .replace("T = 0.02", f"T = {steps / 1000}")
            cfg_path = WORK / f"ladder-{n}.cfg"
            cfg_path.write_text(text, encoding="utf-8")
            res = run_command("run", cfg_path, checks.load_config(cfg_path),
                              traced=False)
            if res.failures or res.bad_output:
                print(f"{n}: {res.failures + res.bad_output}", file=sys.stderr)
                return 1
            print(f"{n}x{n},{res.steps},{1e3 * res.run_s / res.steps:.4g},"
                  f"{res.setup:.3f},{res.wall:.3f}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
