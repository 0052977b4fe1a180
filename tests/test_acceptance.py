"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a PASS line with the measured quantity so the suite reads
as a checklist under ``pytest -v -s``.  Heavy runs are shared through
module-scoped fixtures.  Where a criterion pins the grid (h = 1/64) it is
honored; elsewhere h = 1/32 keeps the suite fast without touching any
asserted tolerance.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ksns import BoundaryData, Grid, ScalarField, VectorField, integrate
from ksns import diagnostics, eigen, integrator
from ksns import grid as grid_mod
from ksns.cli import main
from ksns.diagnostics import (DiagnosticsConfig, fit_decay_rate,
                              lipschitz_experiment, mass_identity_residuals,
                              wall_condition_residual)
from ksns.eigen import lambda_dirichlet, lambda_neumann
from ksns.integrator import (BlowUpError, RunOptions,
                             SensitivitySpec, SimState, run)
from ksns.linstep import neumann_heat_core, stokes_core
from test_integrator import wave_data
from test_linstep import project_cells

GRID32 = Grid(1.0, 1.0, 32, 32)
GRID64 = Grid(1.0, 1.0, 64, 64)
Q = 4.0


def report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def eigen64():
    t0 = time.perf_counter()
    rN = lambda_neumann(GRID64)
    rD = lambda_dirichlet(GRID64)
    return rN, rD, time.perf_counter() - t0


@pytest.fixture(scope="module")
def eigen32():
    return lambda_neumann(GRID32), lambda_dirichlet(GRID32)


@pytest.fixture(scope="module")
def rotation_run():
    """Criteria 5, 6, 8: S = I + 0.5 J, amplitude 1e-2, T = 2,
    dt = 1e-3, distinct initial masses so the signal identity is nontrivial."""
    data = wave_data(GRID32, n_base=2.0, c_base=1.0, amp=0.01,
                     S=SensitivitySpec(1.0, 0.5))
    traj, series = run(data, T=2.0, dt=1e-3,
                       options=RunOptions(snapshot_stride=100))
    return data, traj, series


@pytest.fixture(scope="module")
def rotation_run_half_dt():
    data = wave_data(GRID32, n_base=2.0, c_base=1.0, amp=0.01,
                     S=SensitivitySpec(1.0, 0.5))
    _, series = run(data, T=2.0, dt=5e-4,
                    options=RunOptions(snapshot_stride=400))
    return data, series


@pytest.fixture(scope="module")
def stabilization_run():
    """Criterion 7 data: n0 = 2 + 0.01 cos(pi x), c0 = 2 + 0.01 cos(pi y),
    u0 = 0, f = 0, S = I, phi = 0, T = 3."""
    data = wave_data(GRID32, n_base=2.0, c_base=2.0, amp=0.01,
                     S=SensitivitySpec())
    traj, series = run(data, T=3.0, dt=1e-3,
                       options=RunOptions(snapshot_stride=200))
    return data, traj, series


# ---------------------------------------------------------------------------

def test_criterion_01_poincare_constants(eigen64):
    rN, rD, elapsed = eigen64
    assert abs(rN.lam - np.pi ** 2) <= 0.05
    assert abs(rD.lam - 2.0 * np.pi ** 2) <= 0.1
    assert elapsed <= 5.0
    report("criterion-01",
           f"lambda_N={rN.lam:.5f} (pi^2 within 0.05), "
           f"lambda_D={rD.lam:.5f} (2 pi^2 within 0.1), {elapsed:.2f}s <= 5s")


def gauss_gap():
    """The worst scaled gap |integral of lap f - boundary flux sum| of
    grid.laplacian_flux_raw over 100 random pairs (f, b) at 32^2."""
    rng = np.random.default_rng(7)
    g = GRID32
    worst = 0.0
    for _ in range(100):
        f = ScalarField(g, rng.standard_normal(g.shape))
        b = BoundaryData(left=rng.standard_normal(g.ny),
                         right=rng.standard_normal(g.ny),
                         bottom=rng.standard_normal(g.nx),
                         top=rng.standard_normal(g.nx))
        lap = ScalarField(g, grid_mod.laplacian_flux_raw(g, f.values, b))
        bsum = b.boundary_sum(g)
        scale = max(1.0, abs(bsum), b.max_abs() * 2 * (g.nx + g.ny) * g.hx)
        worst = max(worst, abs(integrate(lap) - bsum) / scale)
    return worst


def test_criterion_02_discrete_gauss_identity():
    worst = gauss_gap()
    assert worst <= 1e-12
    report("criterion-02", f"100 random pairs, worst scaled gap {worst:.2e}")


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


def test_criterion_03_neumann_heat_steady_state():
    g = GRID64
    ny, nx = g.shape
    # F_B = (1, 0) as its face-normal representation
    fx = np.ones((ny, nx + 1))
    fy = np.zeros((ny + 1, nx))
    b = BoundaryData(left=-fx[:, 0], right=fx[:, -1],
                     bottom=-fy[0, :], top=fy[-1, :])
    forcing = np.zeros(g.shape)   # div F_B = 0
    U = np.zeros(g.shape)
    dt = 1e-3
    for _ in range(10000):        # t = 10
        U = neumann_heat_core(g, U, b, forcing, dt)
    X, _ = g.cell_centers()
    err = np.abs(U - (X - 0.5)).max()
    drift = abs(U.sum() * g.cell_volume)
    assert err <= 1e-2
    assert drift <= 1e-10
    report("criterion-03", f"sup|U - (x - 1/2)| = {err:.2e} <= 1e-2, "
           f"mean drift {drift:.2e} <= 1e-10")


def test_criterion_04_semigroup_decay(eigen32):
    rN, rD = eigen32
    g = GRID32
    # pure heat on the mean-zero eigenmode
    t0 = time.perf_counter()
    vals = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x)).values
    b = BoundaryData.zeros(g)
    zero = np.zeros(g.shape)
    dt = 1e-4
    samples = []
    for k in range(1, 6001):
        vals = neumann_heat_core(g, vals, b, zero, dt)
        samples.append((k * dt, np.abs(vals).max()))
    heat_time = time.perf_counter() - t0
    fit_heat = fit_decay_rate(samples, (0.2, 0.6))
    assert abs(fit_heat.rate - rN.lam) <= 0.05 * rN.lam
    assert heat_time <= 30.0

    # homogeneous Stokes decay
    t0 = time.perf_counter()
    u = project_cells(VectorField.from_functions(
        g,
        lambda x, y: 2 * np.pi * np.sin(np.pi * x) ** 2
        * np.sin(np.pi * y) * np.cos(np.pi * y),
        lambda x, y: -2 * np.pi * np.sin(np.pi * x)
        * np.cos(np.pi * x) * np.sin(np.pi * y) ** 2))
    dt = 5e-4
    samples_u = []
    for k in range(1, 801):
        u = stokes_core(g, u.ux, u.uy, zero, zero, dt)
        l2 = np.sqrt((u.ux ** 2 + u.uy ** 2).sum() * g.cell_volume)
        samples_u.append((k * dt, l2))
    stokes_time = time.perf_counter() - t0
    fit_stokes = fit_decay_rate(samples_u, (0.4 / 3.0, 0.4))
    assert fit_stokes.rate >= 0.8 * rD.lam
    assert stokes_time <= 30.0
    report("criterion-04",
           f"heat rate {fit_heat.rate:.4f} within 5% of lambda_N {rN.lam:.4f} "
           f"({heat_time:.1f}s); Stokes rate {fit_stokes.rate:.2f} >= "
           f"0.8 lambda_D = {0.8 * rD.lam:.2f} ({stokes_time:.1f}s)")


def test_criterion_05_density_mass_conservation(rotation_run):
    data, traj, series = rotation_run
    M_n0 = integrate(data.n0)
    drift_series, _ = mass_identity_residuals(series, M_n0, integrate(data.c0))
    rel = drift_series / M_n0
    assert rel <= 1e-10
    # independent oracle: direct summation over the stored snapshots
    worst = max(abs(integrate(s.n) - M_n0) / M_n0 for s in traj[1:])
    assert worst <= 1e-10
    report("criterion-05", f"relative mass drift {rel:.2e} (series), "
           f"{worst:.2e} (snapshot summation), tol 1e-10")


def predicted_signal_mass_residual(series, M_n0, M_c0, dt):
    """The scheme's residual to the continuous signal-mass identity.

    With the density mass conserved, the scheme's signal mass after k steps
    is M_n + (M_c0 - M_n) r^k with r = 1 / (1 + dt), and the continuous one
    is M_n + (M_c0 - M_n) e^{-t_k}, so the residual is
    |M_c0 - M_n| max_k |r^k - e^{-t_k}|."""
    t = series.column("t")
    r = 1.0 / (1.0 + dt)
    k = np.arange(1, len(t) + 1)
    return abs(M_c0 - M_n0) * float(np.abs(r ** k - np.exp(-t)).max())


def test_criterion_06_signal_mass_identity(rotation_run, rotation_run_half_dt):
    data, _, series = rotation_run
    M_n0, M_c0 = integrate(data.n0), integrate(data.c0)
    _, rc = mass_identity_residuals(series, M_n0, M_c0)
    assert rc <= 5e-3
    _, series_half = rotation_run_half_dt
    _, rc_half = mass_identity_residuals(series_half, M_n0, M_c0)
    ratio = rc_half / rc
    assert 0.4 <= ratio <= 0.6          # first order: halving dt halves it
    report("criterion-06", f"residual {rc:.3e} <= 5e-3 (dt=1e-3), "
           f"halving ratio {ratio:.3f}")
    # the discrete scheme's residual is known in closed form
    for label, ser, measured, dt in (
            ("dt=1e-3", series, rc, 1e-3),
            ("dt=5e-4", series_half, rc_half, 5e-4)):
        predicted = predicted_signal_mass_residual(ser, M_n0, M_c0, dt)
        gap = abs(measured - predicted)
        assert gap <= 1e-12, (label, measured, predicted)
        report("criterion-06-predicted",
               f"{label}: residual {measured:.6e} vs predicted "
               f"{predicted:.6e}, gap {gap:.1e} <= 1e-12 "
               f"(margin {1e-12 - gap:.1e})")


def test_criterion_07_exponential_stabilization(stabilization_run, eigen32):
    _, _, series = stabilization_run
    rN, _ = eigen32
    lam1 = 0.5 * min(1.0, rN.lam / Q)
    t = series.column("t")
    fit_n = fit_decay_rate(list(zip(t, series.column("sup_n_dev"))), (1.0, 3.0))
    fit_c = fit_decay_rate(list(zip(t, series.column("sup_c_dev"))), (1.0, 3.0))
    assert fit_n.rate >= lam1
    assert fit_c.rate >= lam1
    # The 0.8 lambda_N figure is recorded, not asserted: with mean density 2
    # the coupled linearization's slow eigenvalue is ~5.9, below 0.8 lambda_N.
    strong = 0.8 * rN.lam
    verdict = "meets" if fit_n.rate >= strong else "below"
    report("criterion-07",
           f"rate_n {fit_n.rate:.3f} >= lambda1 {lam1:.3f}, "
           f"rate_c {fit_c.rate:.3f} >= lambda1; empirical bound recorded: "
           f"rate_n {verdict} 0.8 lambda_N = {strong:.3f}")


def test_criterion_08_non_negativity(stabilization_run, rotation_run):
    for name, (data, traj, series) in (("identity", stabilization_run),
                                       ("rotation", rotation_run)):
        sup_n0 = float(np.abs(data.n0.values).max())
        sup_c0 = float(np.abs(data.c0.values).max())
        assert series.column("min_n").min() >= -1e-8 * sup_n0
        assert series.column("min_c").min() >= -1e-8 * sup_c0
        assert series.column("neg_energy_n").max() <= 1e-16 * sup_n0 ** 2
        assert series.column("neg_energy_c").max() <= 1e-16 * sup_c0 ** 2
        # and so do the recorded snapshots
        assert min(s.n.values.min() for s in traj) >= -1e-8 * sup_n0
        assert min(s.c.values.min() for s in traj) >= -1e-8 * sup_c0
    report("criterion-08", "minima and negative-part energies within "
           "tolerance on both runs, every step")


# Criterion 09 judges the wall condition grad(n).nu = n S grad(c).nu in the
# trace sense (diagnostics.wall_condition_residual) on a refinement ladder
# with dt tied to h^2, so the space error leads.  The scheme read 6.58e-2,
# 1.09e-2 and 2.39e-3 (orders 2.6 and 2.2); the 64^2 bound leaves x2.
WALL_S = SensitivitySpec(1.0, 0.5)
WALL_ORDER_MIN = 1.5
WALL_BOUND_64 = 5e-3


def wall_ladder():
    """The wall-condition residuals at T = 0.02 on 16^2, 32^2 and 64^2:
    wave data of amplitude 0.5, S = I + 0.5 J, dt = T / round(4T/h^2)."""
    out = []
    for n in (16, 32, 64):
        g = Grid(1.0, 1.0, n, n)
        steps = round(4 * 0.02 / g.hx ** 2)
        traj, _ = run(wave_data(g, amp=0.5, S=WALL_S), T=0.02,
                      dt=0.02 / steps, options=RunOptions(snapshot_stride=steps))
        out.append(wall_condition_residual(traj[-1].n, traj[-1].c, WALL_S)[0])
    return out


def wall_gate(res):
    """(passed, observed orders): order >= WALL_ORDER_MIN at each
    refinement and the 64^2 residual within WALL_BOUND_64."""
    orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
    return min(orders) >= WALL_ORDER_MIN and res[-1] <= WALL_BOUND_64, orders


def test_criterion_09_boundary_condition_identity():
    res = wall_ladder()
    passed, orders = wall_gate(res)
    assert passed, (res, orders)
    # detector sanity: hand-built violation reports ~pi at the y = 1 midface
    st = SimState.from_fields(
        0.0, ScalarField.constant(GRID64, 1.0),
        ScalarField.from_function(GRID64, lambda x, y: np.cos(np.pi * x)),
        VectorField.zero(GRID64), 1.0)
    det, _ = wall_condition_residual(st.n, st.c, SensitivitySpec(0.0, 1.0))
    assert abs(det - np.pi) <= 0.05
    report("criterion-09",
           f"wall residuals {res[0]:.2e}, {res[1]:.2e}, {res[2]:.2e} at "
           f"16/32/64^2, orders {orders[0]:.2f}, {orders[1]:.2f} >= "
           f"{WALL_ORDER_MIN}; 64^2 {res[2]:.2e} <= {WALL_BOUND_64:.0e} "
           f"(margin x{WALL_BOUND_64 / res[2]:.2f}); violation detector "
           f"reports {det:.4f} (pi within 0.05)")


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


def test_criterion_10_compatibility_detector():
    c0 = ScalarField.from_function(GRID64, lambda x, y: np.cos(np.pi * x))
    n_const = ScalarField.constant(GRID64, 1.0)
    res_rot, _ = wall_condition_residual(n_const, c0, SensitivitySpec(0.0, 1.0))
    assert abs(res_rot - np.pi) <= 0.05
    # S = I with the stabilization data: the residual is the error of the
    # cubic's wall slope, O(h^3) (3.4e-6 at 64^2, ratio 7.9)
    res64, _ = wall_condition_residual(
        ScalarField.from_function(GRID64, lambda x, y: 2 + 0.01 * np.cos(np.pi * x)),
        ScalarField.from_function(GRID64, lambda x, y: 2 + 0.01 * np.cos(np.pi * y)),
        SensitivitySpec())
    res32, _ = wall_condition_residual(
        ScalarField.from_function(GRID32, lambda x, y: 2 + 0.01 * np.cos(np.pi * x)),
        ScalarField.from_function(GRID32, lambda x, y: 2 + 0.01 * np.cos(np.pi * y)),
        SensitivitySpec())
    assert res64 <= 1e-3
    assert res32 / res64 >= 3.0       # at least second-order refinement
    report("criterion-10", f"rotation case {res_rot:.4f} = pi +- 0.05; "
           f"identity case {res64:.2e} <= 1e-3 with refinement ratio "
           f"{res32 / res64:.2f}")


def test_criterion_11_lipschitz_continuity():
    cfg = DiagnosticsConfig()
    base = wave_data(GRID32, n_base=2.0, c_base=2.0, amp=0.01,
                     S=SensitivitySpec())
    opts = RunOptions(snapshot_stride=5)
    base_traj, _ = run(base, T=1.0, dt=2e-3, options=opts)
    ratios = []
    for delta in (1e-3, 1e-4):
        pert = wave_data(GRID32, n_base=2.0, c_base=2.0, amp=0.01 + delta,
                         S=SensitivitySpec())
        res = lipschitz_experiment(base, pert, cfg, T=1.0, dt=2e-3,
                                   options=opts, base_trajectory=base_traj)
        assert not res.degenerate
        ratios.append(res.ratio)
    gap = abs(ratios[0] - ratios[1]) / ratios[1]
    ceiling = 10.0
    assert gap <= 1e-2          # O(delta), as the CLI gates it
    assert max(ratios) <= ceiling
    report("criterion-11", f"ratios {ratios[0]:.4f} / {ratios[1]:.4f}, "
           f"relative gap {gap:.3e} (tol 1e-2), below ceiling {ceiling}")


# the paper's solution map Phi on whole trajectories (diagnostics'
# _solution_map), iterated from the constant trajectory: at 32^2, T = 0.05
# and amplitude 0.01 the first factors read 0.040 (S = I) and 0.058
# (S = (1, 0.5)), and after 12 iterates the distance to run's trajectory
# read 3.9e-15 and 8.9e-15 (the fields' rounding floor, about 5e-15)
PHI_ITERATES = 12
PHI_DISTANCE_TOL = 1e-13


def phi_contraction(amp, S, iterates):
    """(factors, distances) of Phi at criterion 12's size."""
    data = wave_data(GRID32, n_base=2.0, c_base=2.0, amp=amp, S=S)
    return diagnostics._solution_map_iterates(
        data, 0.05, 1e-3, RunOptions(), DiagnosticsConfig(), iterates)


def test_criterion_12_picard_contraction():
    # Phi lags the flux (with its linear part n_bar0 S grad c), the
    # signal's source and advection, so "small" is small against those
    firsts = []
    for S in (SensitivitySpec(), SensitivitySpec(1.0, 0.5)):
        factors, dist = phi_contraction(0.01, S, PHI_ITERATES)
        assert factors[0] < 1.0, (S, factors)
        assert dist[-1] <= PHI_DISTANCE_TOL, (S, dist)
        firsts.append(factors[0])
    # the gate can fail: large rotational data make Phi expand (1.7 here)
    assert phi_contraction(1.0, SensitivitySpec(1.0, 2.0), 2)[0][0] > 1.0
    # 100x amplitude: reported; it must converge or abort with the blow-up
    # path
    try:
        factors, _ = phi_contraction(1.0, SensitivitySpec(), 2)
        big = f"first factor {factors[0]:.3f}"
    except BlowUpError as exc:
        assert exc.state is not None
        assert np.isfinite(exc.state.n.values).all()
        big = "aborted cleanly with last valid state"
    # the CLI maps the abort to exit code 3 (forced via a tiny ceiling)
    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        cfg_path = os.path.join(td, "c.cfg")
        with open(cfg_path, "w") as fh:
            fh.write("[domain]\nnx = 8\nny = 8\n[time]\ndt = 0.005\nT = 0.02\n"
                     "[solver]\nblowup_ceiling = 1.5\n")
        assert main(["run", "--config", cfg_path, "--out",
                     os.path.join(td, "o")]) == 3
    report("criterion-12", f"solution map, first factors {firsts[0]:.3f} "
           f"(S = I) and {firsts[1]:.3f} (S = I + 0.5 J) < 1; after "
           f"{PHI_ITERATES} iterates within {PHI_DISTANCE_TOL:.0e} of the "
           f"run; 100x amplitude: {big}; blow-up exit code 3 verified")


def test_criterion_13_constant_state_fixed_point():
    worst = 0.0
    for S in (SensitivitySpec(), SensitivitySpec(2.0),
              SensitivitySpec(1.0, 0.5)):
        data = wave_data(GRID32, n_base=2.0, c_base=2.0, amp=0.0, S=S)
        traj, series = run(data, T=1.0, dt=1e-3,
                           options=RunOptions(snapshot_stride=100))
        first = traj[0]
        dev = max(max(np.abs(s.n.values - first.n.values).max(),
                      np.abs(s.c.values - first.c.values).max(),
                      s.u.magnitude_sup()) for s in traj[1:])
        assert dev <= 1e-9, f"S = {S}: deviation {dev}"
        assert series.column("sup_n_dev").max() <= 1e-9
        worst = max(worst, dev)
    report("criterion-13", f"1000 steps, three tensor presets, worst "
           f"state deviation {worst:.2e} <= 1e-9")
