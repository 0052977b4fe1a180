"""Mutant catalogue: each row is one small edit of the scheme, paired with
the verdict-level check that must catch it (an acceptance criterion or a
CLI verdict), so every such check is shown able to fail.

A row applies its edit as a monkeypatch of a module-level name where that
reproduces the edit exactly, and otherwise text-patches a copy of the
package and runs ``ksns`` on it in a subprocess.  The unmutated program is
each row's control: the acceptance criterion itself, or the same command
on the same config.  A row that no check catches yet is marked
``xfail(strict=True)`` with the ROADMAP item that will catch it, so the
row fails once that check lands and its mark must go.
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ksns
from ksns import eigen, integrator
from ksns import grid as grid_mod
from ksns.cli import main
from ksns.eigen import lambda_dirichlet
from test_acceptance import GRID32, gauss_gap, wall_gate, wall_ladder


def test_laplacian_left_wall_sign_mutant_fails_gauss_and_dirichlet_residual(
        monkeypatch):
    # laplacian_flux_raw with the sign of its left wall faces flipped, in
    # the grid module and in eigen, which computes the residuals with it;
    # the unmutated program is the control, criterion 02 and
    # test_eigen's residual bound (<= 1e-8 at 32^2)
    plain = grid_mod.laplacian_flux_raw

    def mutant(grid, vals, b):
        return plain(grid, vals, replace(b, left=-b.left))

    monkeypatch.setattr(grid_mod, "laplacian_flux_raw", mutant)
    monkeypatch.setattr(eigen, "laplacian_flux_raw", mutant)
    assert gauss_gap() > 1e-12
    assert lambda_dirichlet(GRID32).residual > 1e-8


# Mutants of the density source's plan, integrator._density_plan(ny, nx,
# hy, hx, a, b, dt) -> (y plan, x plan).  The flux is linear in S, so the
# plan of 1.05 S is the flux scaled by 1.05; the y plan's central
# difference feeds the x faces only.

def _flux_times_105(plain):
    return lambda ny, nx, hy, hx, a, b, dt: plain(ny, nx, hy, hx, 1.05 * a,
                                                  1.05 * b, dt)


def _x_face_tangential_sign(plain):
    def plan(ny, nx, hy, hx, a, b, dt):
        return (plain(ny, nx, hy, hx, a, -b, dt)[0],
                plain(ny, nx, hy, hx, a, b, dt)[1])
    return plan


def _divergence_sign(plain):
    return lambda *key: tuple(p._replace(div=-p.div) for p in plain(*key))


@pytest.mark.parametrize("mutant", [_flux_times_105, _x_face_tangential_sign,
                                    _divergence_sign],
                         ids=["flux-x1.05", "x-face-tangential-sign",
                              "divergence-sign"])
def test_criterion_09_fails_under_scheme_mutants(monkeypatch, mutant):
    # the unmutated program is the control, criterion 09 itself
    monkeypatch.setattr(integrator, "_density_plan",
                        mutant(integrator._density_plan))
    res = wall_ladder()
    passed, orders = wall_gate(res)
    assert not passed, (res, orders)


# a 16^2 scenario with a moving fluid, gravity and a force, so every term
# of the momentum equation acts
FLOW_16 = """[domain]
nx = 16
ny = 16
[time]
dt = 0.005
T = 0.05
[data]
u_preset = vortex
u_amplitude = 0.1
[potential]
kind = linear-gravity
g = 1.0
[forcing]
kind = decaying
amplitude = 0.1
rate = 1.0
"""

# imports ksns from the directory given first, then runs the command line
# on the rest of the arguments
_RUN_COPY = """import sys
sys.path.insert(0, sys.argv[1])
import ksns.cli
assert ksns.cli.__file__.startswith(sys.argv[1]), ksns.cli.__file__
sys.exit(ksns.cli.main(sys.argv[2:]))
"""


def mutated_run(tmp_path, module, old, new, count, config):
    """``ksns run`` on ``config`` in a subprocess, with a copy of the
    package whose ``module`` has ``old`` replaced by ``new``; raises
    LookupError unless ``old`` occurs ``count`` times, and RuntimeError when
    the command crashes, so that only a verdict's exit code is judged."""
    pkg = tmp_path / "src" / "ksns"
    shutil.copytree(Path(ksns.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = pkg / module
    text = path.read_text()
    if text.count(old) != count:
        raise LookupError(f"{module}: {old!r} occurs {text.count(old)} "
                          f"times, not {count}")
    path.write_text(text.replace(old, new))
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_COPY, str(pkg.parent), "run",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    if "Traceback" in proc.stderr:
        raise RuntimeError(proc.stderr)
    return proc


def test_flow_scenario_control_passes(tmp_path, capsys):
    # the unmutated program passes every verdict of the flow rows' scenario
    path = tmp_path / "scenario.cfg"
    path.write_text(FLOW_16)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0, capsys.readouterr()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14")
def test_buoyancy_sign_mutant_fails_run(tmp_path):
    # the buoyancy force n * grad(phi) enters both velocity components
    proc = mutated_run(tmp_path, "integrator.py", "+ nt_new * data.phi_grad",
                       "- nt_new * data.phi_grad", 2, FLOW_16)
    assert proc.returncode != 0, proc.stdout
