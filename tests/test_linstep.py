import numpy as np
import pytest

from ksns import BoundaryData, Grid, ScalarField, VectorField, integrate
from ksns.diagnostics import fit_decay_rate
from ksns.eigen import lambda_dirichlet, lambda_neumann
from ksns.grid import (_lap_zero_flux, face_divergence, face_normal_values,
                       face_values)
from ksns.linstep import (helmholtz_project_core, neumann_heat_core,
                          shifted_heat_core, solve_spectral, stokes_core)
from cg_oracle import SolverError, neg_lap_diag as _neg_lap_diag, solve_cg
from test_grid import random_smooth_field


def zero_vec(grid):
    ny, nx = grid.shape
    return VectorField(grid, np.zeros((ny, nx)), np.zeros((ny, nx)))


def divergence_form_step(grid, u, F_B, f_E, dt):
    """The density step's call: du/dt = lap(u) - div(F_B) + f_E with
    grad(u).nu = F_B.nu, from the face-normal values of F_B."""
    fx, fy = face_normal_values(F_B)
    return neumann_heat_core(grid, u, BoundaryData.from_faces(fx, fy),
                             -face_divergence(grid, fx, fy) + f_E, dt)


# ---------------------------------------------------------------------------
# the conjugate gradient oracle (cg_oracle.py)

def test_cg_diag_matches_operator(unit16):
    # probe A e_i . e_i against the assembled diagonal
    diag = 1.0 + 0.1 * _neg_lap_diag(unit16, "neumann0")
    for (j, i) in ((0, 0), (0, 3), (5, 7), (15, 15)):
        e = np.zeros(unit16.shape)
        e[j, i] = 1.0
        Ae = e - 0.1 * _lap_zero_flux(unit16, e)
        assert Ae[j, i] == pytest.approx(diag[j, i], rel=1e-13)


def test_cg_report_residual_below_tol(unit16, rng):
    rhs = rng.standard_normal(unit16.shape)
    diag = 1.0 + 0.05 * _neg_lap_diag(unit16, "neumann0")
    x, report = solve_cg(lambda v: v - 0.05 * _lap_zero_flux(unit16, v),
                         rhs, diag, 1e-11)
    assert report.final_residual <= 1e-11
    assert report.iterations > 0


def test_cg_nonconvergence_raises(unit32, rng):
    rhs = rng.standard_normal(unit32.shape)
    diag = 1.0 + _neg_lap_diag(unit32, "neumann0")
    with pytest.raises(SolverError):
        solve_cg(lambda v: v - _lap_zero_flux(unit32, v), rhs, diag,
                 1e-14, max_iter=2)


# ---------------------------------------------------------------------------
# Neumann heat step

def test_heat_step_zero_stays_zero(unit32):
    zero = np.zeros(unit32.shape)
    out = divergence_form_step(unit32, zero, zero_vec(unit32), zero, dt=0.01)
    assert np.abs(out).max() == 0.0


def test_heat_step_eigenmode(unit64):
    # implicit Euler on the analytic zero-flux eigenmode cos(pi x)
    U0 = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    out = neumann_heat_core(unit64, U0.values, BoundaryData.zeros(unit64),
                            np.zeros(unit64.shape), dt=0.01)
    predicted = U0.values / (1.0 + 0.01 * np.pi ** 2)
    assert np.abs(out - predicted).max() <= 3e-5   # O(h^2) * dt
    lam_h = (4.0 / unit64.hx ** 2) * np.sin(np.pi * unit64.hx / 2.0) ** 2
    exact_discrete = U0.values / (1.0 + 0.01 * lam_h)
    assert np.abs(out - exact_discrete).max() <= 1e-10


def test_heat_step_mean_preservation(unit32, rng):
    U = random_smooth_field(unit32, rng)
    ny, nx = unit32.shape
    FB = VectorField(unit32, rng.standard_normal((ny, nx)),
                     rng.standard_normal((ny, nx)))
    FE = rng.standard_normal((ny, nx))
    FE -= FE.mean()
    out = divergence_form_step(unit32, U.values, FB, FE, dt=0.01)
    assert abs(integrate(ScalarField(unit32, out)) - integrate(U)) <= 1e-11


def test_heat_step_mass_balance_with_free_wall_data(unit32, rng):
    # wall data that is not the trace of any face field, and a biased
    # source: the mass changes by exactly dt * (int f + sum g |face|)
    ny, nx = unit32.shape
    u = rng.standard_normal((ny, nx))
    b = BoundaryData(left=rng.standard_normal(ny),
                     right=rng.standard_normal(ny),
                     bottom=rng.standard_normal(nx),
                     top=rng.standard_normal(nx))
    f = 1.0 + rng.standard_normal((ny, nx))
    vol = unit32.cell_volume
    out = neumann_heat_core(unit32, u, b, f, 0.01)
    change = (out.sum() - u.sum()) * vol
    expected = 0.01 * (f.sum() * vol + b.boundary_sum(unit32))
    assert abs(change - expected) <= 1e-13 * (1.0 + abs(expected))


def test_heat_step_steady_state_short(unit32):
    # F_B = (1, 0): the exact discrete steady state is x - 1/2 (mean zero)
    ny, nx = unit32.shape
    FB = VectorField(unit32, np.ones((ny, nx)), np.zeros((ny, nx)))
    U = np.zeros((ny, nx))
    for _ in range(100):
        U = divergence_form_step(unit32, U, FB, 0.0, dt=0.01)
    X, _ = unit32.cell_centers()
    assert np.abs(U - (X - 0.5)).max() <= 1e-4
    assert abs(integrate(ScalarField(unit32, U))) <= 1e-12


def test_heat_step_maximum_principle(unit16, rng):
    # implicit zero-flux step: sup|U'| <= sup|U| + dt * sup|forcing|
    U = ScalarField(unit16, rng.standard_normal(unit16.shape))
    FE = rng.standard_normal(unit16.shape)
    FE -= FE.mean()
    out = divergence_form_step(unit16, U.values, zero_vec(unit16), FE, dt=0.05)
    bound = np.abs(U.values).max() + 0.05 * np.abs(FE).max()
    assert np.abs(out).max() <= bound + 1e-10


def test_heat_semigroup_decay_rate(unit32):
    # zero data: fitted decay of the mean-zero mode at >= 0.9 * lambda_N
    lam_n = lambda_neumann(unit32).lam
    U = ScalarField.from_function(unit32, lambda x, y: np.cos(np.pi * x))
    b = BoundaryData.zeros(unit32)
    forcing = np.zeros(unit32.shape)
    dt = 1e-4
    vals = U.values
    samples = []
    for k in range(1, 5001):
        vals = neumann_heat_core(unit32, vals, b, forcing, dt)
        samples.append((k * dt, np.abs(vals).max()))
    fit = fit_decay_rate(samples, (0.5 / 3.0, 0.5))
    assert fit.rate >= 0.9 * lam_n


# ---------------------------------------------------------------------------
# shifted heat step

def test_shifted_heat_fixed_point(unit32):
    one = np.ones(unit32.shape)
    out = shifted_heat_core(unit32, one, one, dt=0.01)
    assert np.abs(out - 1.0).max() <= 1e-13


def test_shifted_heat_constant_mode(unit32):
    c = np.full(unit32.shape, 2.0)
    out = shifted_heat_core(unit32, c, np.zeros(unit32.shape), dt=0.01)
    assert np.abs(out - 2.0 / 1.01).max() <= 1e-13


def test_shifted_heat_eigenmode(unit64):
    c = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    out = shifted_heat_core(unit64, c.values, np.zeros(unit64.shape), dt=0.01)
    predicted = c.values / (1.0 + 0.01 * (1.0 + np.pi ** 2))
    assert np.abs(out - predicted).max() <= 3e-5


# ---------------------------------------------------------------------------
# Helmholtz projection

def test_projection_annihilates_gradients(unit64):
    v = VectorField.from_functions(unit64, lambda x, y: x, lambda x, y: y)
    out = helmholtz_project_core(v)
    assert max(np.abs(out.ux).max(), np.abs(out.uy).max()) <= 1e-10
    div = face_divergence(unit64, out.fx, out.fy)
    assert np.sqrt((div ** 2).sum() * unit64.cell_volume) <= 1e-9


def test_projection_identity_on_solenoidal(unit64):
    v = VectorField.from_functions(
        unit64,
        lambda x, y: -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        lambda x, y: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y))
    out = helmholtz_project_core(v)
    err = max(np.abs(out.ux - v.ux).max(), np.abs(out.uy - v.uy).max())
    assert err <= 6e-5                       # measured 4.64e-5 at h = 1/64


def test_projection_zero(unit16):
    out = helmholtz_project_core(zero_vec(unit16))
    assert np.abs(out.ux).max() == 0.0 and np.abs(out.uy).max() == 0.0


def test_projection_idempotent(unit32, rng):
    ny, nx = unit32.shape
    v = VectorField(unit32, rng.standard_normal((ny, nx)),
                    rng.standard_normal((ny, nx)))
    once = helmholtz_project_core(v)
    twice = helmholtz_project_core(once)
    scale = max(np.abs(once.ux).max(), np.abs(once.uy).max(), 1.0)
    assert max(np.abs(twice.ux - once.ux).max(),
               np.abs(twice.uy - once.uy).max()) <= 1e-11 * scale


def test_projection_face_orthogonality(unit32, rng):
    # <v - Pv, Pv> in the face-normal inner product vanishes to solver tol
    ny, nx = unit32.shape
    v = VectorField(unit32, rng.standard_normal((ny, nx)),
                    rng.standard_normal((ny, nx)))
    fx, fy = face_normal_values(v)
    v = VectorField(unit32, v.ux, v.uy, fx.copy(), fy.copy())
    out = helmholtz_project_core(v)
    w = unit32.cell_volume
    ip = ((fx - out.fx) * out.fx).sum() * w + ((fy - out.fy) * out.fy).sum() * w
    norm2 = (fx ** 2).sum() * w + (fy ** 2).sum() * w
    assert abs(ip) <= 1e-11 * norm2


def test_projection_zero_normal_trace(unit32, rng):
    ny, nx = unit32.shape
    v = VectorField(unit32, rng.standard_normal((ny, nx)),
                    rng.standard_normal((ny, nx)))
    out = helmholtz_project_core(v)
    assert np.abs(out.fx[:, 0]).max() == 0.0
    assert np.abs(out.fx[:, -1]).max() == 0.0
    assert np.abs(out.fy[0, :]).max() == 0.0
    assert np.abs(out.fy[-1, :]).max() == 0.0


# ---------------------------------------------------------------------------
# Stokes step

def vortex(grid, amp=1.0):
    return VectorField.from_functions(
        grid,
        lambda x, y: amp * 2 * np.pi * np.sin(np.pi * x) ** 2
        * np.sin(np.pi * y) * np.cos(np.pi * y),
        lambda x, y: -amp * 2 * np.pi * np.sin(np.pi * x)
        * np.cos(np.pi * x) * np.sin(np.pi * y) ** 2)


def test_stokes_zero(unit16):
    zero = np.zeros(unit16.shape)
    out = stokes_core(unit16, zero, zero, zero, zero, dt=0.01)
    assert np.abs(out.ux).max() == 0.0 and np.abs(out.uy).max() == 0.0


def test_stokes_energy_nonincreasing(unit32):
    u = helmholtz_project_core(vortex(unit32, 0.01))
    zero = np.zeros(unit32.shape)
    energies = []
    for _ in range(50):
        u = stokes_core(unit32, u.ux, u.uy, zero, zero, dt=1e-3)
        energies.append((u.ux ** 2 + u.uy ** 2).sum() * unit32.cell_volume)
    for a, b in zip(energies, energies[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_stokes_divergence_and_trace(unit32):
    u = helmholtz_project_core(vortex(unit32))
    zero = np.zeros(unit32.shape)
    out = stokes_core(unit32, u.ux, u.uy, zero, zero, dt=1e-3)
    div = face_divergence(unit32, out.fx, out.fy)
    assert np.sqrt((div ** 2).sum() * unit32.cell_volume) <= 1e-8
    assert np.abs(out.fx[:, 0]).max() == 0.0


@pytest.mark.parametrize("n", [16, 128])
def test_stokes_core_projects_its_no_slip_face_averages(rng, n):
    # the step written out: the viscous solves, face_values with its wall
    # faces set to 0, then the projection; bit for bit
    g = Grid(1.0, 1.0, n, n)
    ux, uy, force_x, force_y = (rng.standard_normal(g.shape) for _ in range(4))
    dt = 1e-3
    sx = solve_spectral(g, ux + dt * force_x, 1.0, dt, "dirichlet0")
    sy = solve_spectral(g, uy + dt * force_y, 1.0, dt, "dirichlet0")
    fx, fy = face_values(sx, 1), face_values(sy, 0)
    fx[:, [0, -1]] = 0.0
    fy[[0, -1], :] = 0.0
    want = helmholtz_project_core(VectorField(g, sx, sy, fx, fy))
    got = stokes_core(g, ux, uy, force_x, force_y, dt)
    for name in ("ux", "uy", "fx", "fy"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_stokes_decay_rate(unit32):
    # homogeneous decay no slower than 0.8 * lambda_D (slowest mode check)
    lam_d = lambda_dirichlet(unit32).lam
    u = helmholtz_project_core(vortex(unit32))
    zero = np.zeros(unit32.shape)
    dt = 5e-4
    samples = []
    for k in range(1, 601):
        u = stokes_core(unit32, u.ux, u.uy, zero, zero, dt)
        l2 = np.sqrt((u.ux ** 2 + u.uy ** 2).sum() * unit32.cell_volume)
        samples.append((k * dt, l2))
    fit = fit_decay_rate(samples, (0.1, 0.3))
    assert fit.rate >= 0.8 * lam_d
