import math

import numpy as np
import pytest

from ksns import (ScalarField, VectorField, helmholtz_project, integrate)
from ksns.grid import face_divergence
from ksns.integrator import (BlowUpError, GivenData, RunOptions,
                             SensitivitySpec, SimState, chemotactic_flux,
                             picard_step, run, shift_transform, step, unshift)
from ksns.grid import BoundaryData
from ksns.linstep import boundary_source_residual, neumann_heat_core


def wave_data(grid, n_base=2.0, c_base=2.0, amp=0.01,
              S=None, phi_grad=None, u0=None, f=None):
    n0 = ScalarField.from_function(grid, lambda x, y: n_base + amp * np.cos(np.pi * x))
    c0 = ScalarField.from_function(grid, lambda x, y: c_base + amp * np.cos(np.pi * y))
    return GivenData(n0=n0, c0=c0,
                     u0=u0 if u0 is not None else VectorField.zero(grid),
                     phi_grad=phi_grad if phi_grad is not None else VectorField.zero(grid),
                     S=S if S is not None else SensitivitySpec.identity(),
                     f=f)


def rich_data(grid, rng, amp=0.01):
    """Smooth seeded data exercising every coupling term."""
    X, Y = grid.cell_centers()
    n_vals = 2.0 + amp * (np.cos(np.pi * X) + 0.5 * np.cos(np.pi * Y)
                          + 0.3 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y))
    c_vals = 1.5 + amp * (np.cos(np.pi * Y) + 0.4 * np.cos(2 * np.pi * X))
    stream = VectorField.from_functions(
        grid,
        lambda x, y: amp * 2 * np.pi * np.sin(np.pi * x) ** 2
        * np.sin(np.pi * y) * np.cos(np.pi * y),
        lambda x, y: -amp * 2 * np.pi * np.sin(np.pi * x)
        * np.cos(np.pi * x) * np.sin(np.pi * y) ** 2)
    u0 = helmholtz_project(stream)
    phi = VectorField.from_functions(grid, lambda x, y: 0.0 * x,
                                     lambda x, y: -0.5 + 0.0 * x)
    base_f = VectorField.from_functions(grid, lambda x, y: np.cos(np.pi * y),
                                        lambda x, y: np.cos(np.pi * x))

    def f(t):
        w = amp * math.exp(-t)
        return VectorField(grid, w * base_f.ux, w * base_f.uy)

    return GivenData(n0=ScalarField(grid, n_vals), c0=ScalarField(grid, c_vals),
                     u0=u0, phi_grad=phi, S=SensitivitySpec.rotation(1.0, 0.5),
                     f=f)


# ---------------------------------------------------------------------------
# sensitivity tensor

def test_sensitivity_rotation_matches_canonical_form():
    S = SensitivitySpec.rotation(2.0, 0.5)
    X = np.zeros((2, 2))
    s11, s12, s21, s22 = S.evaluate(0.0, X, X)
    # a*I + b*J with J = [[0, -1], [1, 0]]
    assert np.all(s11 == 2.0) and np.all(s22 == 2.0)
    assert np.all(s12 == -0.5) and np.all(s21 == 0.5)


def test_sensitivity_time_derivative_defaults_to_zero():
    S = SensitivitySpec.identity()
    X = np.zeros((3, 3))
    assert all(np.all(s == 0.0) for s in S.evaluate_dt(1.0, X, X))


# ---------------------------------------------------------------------------
# shift transform

def test_shift_constant_state(unit16):
    data = wave_data(unit16, amp=0.0)
    st = data.initial_state()
    sh = shift_transform(st)
    assert np.abs(sh.n.values).max() == 0.0


def test_shift_cached_mean(unit64):
    n0 = ScalarField.from_function(unit64, lambda x, y: 2.0 + 0.1 * np.cos(np.pi * x))
    data = GivenData(n0=n0, c0=ScalarField.constant(unit64, 1.0),
                     u0=VectorField.zero(unit64),
                     phi_grad=VectorField.zero(unit64),
                     S=SensitivitySpec.identity())
    st = data.initial_state()
    assert st.n_bar0 == pytest.approx(2.0, abs=1e-12)
    sh = shift_transform(st)
    assert abs(sh.n.values.mean()) <= 1e-12


def test_shift_round_trip(unit16, rng):
    st = SimState(t=0.7,
                  n=ScalarField(unit16, rng.standard_normal(unit16.shape)),
                  c=ScalarField(unit16, rng.standard_normal(unit16.shape)),
                  u=VectorField(unit16, rng.standard_normal(unit16.shape),
                                rng.standard_normal(unit16.shape)),
                  n_bar0=1.37)
    back = unshift(shift_transform(st), st.t)
    ulp = np.spacing(np.abs(st.n.values).max())
    assert np.abs(back.n.values - st.n.values).max() <= 2 * ulp
    assert np.abs(back.c.values - st.c.values).max() <= 2 * ulp


# ---------------------------------------------------------------------------
# chemotactic flux

def test_chem_flux_identity_tensor(unit64):
    n = ScalarField.constant(unit64, 2.0)
    c = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    fl = chemotactic_flux(n, c, SensitivitySpec.identity(), 0.0)
    X, _ = unit64.cell_centers()
    assert np.abs(fl.ux - (-2 * np.pi * np.sin(np.pi * X))).max() <= 3e-3
    assert np.abs(fl.uy).max() <= 1e-12
    # all boundary normal fluxes vanish to O(h^2)
    bmax = max(np.abs(fl.fx[:, 0]).max(), np.abs(fl.fx[:, -1]).max(),
               np.abs(fl.fy[0, :]).max(), np.abs(fl.fy[-1, :]).max())
    assert bmax <= 2e-3


def test_chem_flux_constant_signal(unit16):
    n = ScalarField.constant(unit16, 3.0)
    c = ScalarField.constant(unit16, 5.0)
    fl = chemotactic_flux(n, c, SensitivitySpec.rotation(1.0, 2.0), 0.0)
    assert np.abs(fl.ux).max() == 0.0 and np.abs(fl.uy).max() == 0.0
    assert np.abs(fl.fx).max() == 0.0 and np.abs(fl.fy).max() == 0.0


def test_chem_flux_space_time_varying_sensitivity_matches_full_meshes(unit32, rng):
    # the flux is linear in S, so with a varying S it must equal the fluxes
    # of the constant tensors I and [[0, 1], [-1, 0]] weighted by the
    # entries evaluated on full cell- and face-centre meshgrids
    def entries(t, X, Y):
        return (1.0 + X, -t * Y, t * Y, 1.0 + X)

    t = 0.7
    grid = unit32
    n = ScalarField(grid, 2.0 + 0.1 * rng.standard_normal(grid.shape))
    c = ScalarField(grid, 1.0 + 0.1 * rng.standard_normal(grid.shape))
    fl = chemotactic_flux(n, c, SensitivitySpec("varying", entries), t)
    ident = chemotactic_flux(n, c, SensitivitySpec.identity(), t)
    cross = chemotactic_flux(n, c, SensitivitySpec.rotation(0.0, -1.0), t)

    X, Y = grid.cell_centers()
    Xf, Yf = np.meshgrid(np.arange(grid.nx + 1) * grid.hx, grid.yc)
    Xg, Yg = np.meshgrid(grid.xc, np.arange(grid.ny + 1) * grid.hy)
    s11, s12, s21, s22 = entries(t, X, Y)
    s11f, s12f, _, _ = entries(t, Xf, Yf)
    _, _, s21g, s22g = entries(t, Xg, Yg)
    expected = {
        "ux": s11 * ident.ux + s12 * cross.ux,
        "uy": -s21 * cross.uy + s22 * ident.uy,
        "fx": s11f * ident.fx + s12f * cross.fx,
        "fy": -s21g * cross.fy + s22g * ident.fy,
    }
    for name, want in expected.items():
        got = getattr(fl, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def test_chem_flux_rotation_boundary(unit64):
    # S = rotation(0, 1) turns the tangential gradient into the normal flux
    n = ScalarField.constant(unit64, 1.0)
    c = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    fl = chemotactic_flux(n, c, SensitivitySpec.rotation(0.0, 1.0), 0.0)
    expected_top = -np.pi * np.sin(np.pi * unit64.xc)
    assert np.abs(fl.fy[-1, :] - expected_top).max() <= 5e-3


# ---------------------------------------------------------------------------
# single step

def test_step_constant_state_invariant(unit32):
    for S in (SensitivitySpec.identity(), SensitivitySpec.scaled(2.0),
              SensitivitySpec.rotation(1.0, 0.5)):
        data = wave_data(unit32, n_base=2.0, c_base=2.0, amp=0.0, S=S)
        st = data.initial_state()
        out = step(st, data, dt=1e-3)
        assert np.abs(out.n.values - 2.0).max() <= 1e-12
        assert np.abs(out.c.values - 2.0).max() <= 1e-12
        assert out.u.magnitude_sup() <= 1e-14


def test_step_decouples_to_pure_heat_when_S_vanishes(unit32):
    data = wave_data(unit32, n_base=2.0, c_base=2.0, amp=0.01,
                     S=SensitivitySpec.scaled(0.0))
    st = data.initial_state()
    out = step(st, data, dt=1e-3)
    nt0 = st.n.values - st.n_bar0
    expected = neumann_heat_core(unit32, nt0, BoundaryData.zeros(unit32),
                                 np.zeros(unit32.shape), 1e-3)
    assert np.abs((out.n.values - st.n_bar0) - expected).max() <= 1e-10


def test_step_boundary_residual_is_measured(unit32):
    data = wave_data(unit32, amp=0.01, S=SensitivitySpec.rotation(1.0, 0.5))
    out = step(data.initial_state(), data, dt=1e-3)
    assert out.bc_residual is not None
    assert out.bc_residual <= 1e-12


def test_boundary_residual_detects_perturbed_flux(unit32):
    # a density solve fed the chemotactic flux scaled by (1 + 1e-6) imposes
    # a boundary source the measured residual reports
    data = wave_data(unit32, amp=0.01, S=SensitivitySpec.rotation(1.0, 0.5))
    st = data.initial_state()
    nt = st.n.values - st.n_bar0
    chem = chemotactic_flux(st.n, st.c, data.S)
    bc = BoundaryData(left=-chem.fx[:, 0], right=chem.fx[:, -1],
                      bottom=-chem.fy[0, :], top=chem.fy[-1, :])
    scaled = BoundaryData(*(getattr(bc, s) * (1.0 + 1e-6)
                            for s in ("left", "right", "bottom", "top")))
    forcing = -face_divergence(unit32, chem.fx, chem.fy)
    for theta in (1.0, 0.5):
        exact = neumann_heat_core(unit32, nt, bc, forcing, 1e-3, theta)
        assert boundary_source_residual(unit32, nt, exact, bc, forcing, 1e-3,
                                        theta) <= 1e-12
        off = neumann_heat_core(unit32, nt, scaled, forcing, 1e-3, theta)
        assert boundary_source_residual(unit32, nt, off, bc, forcing, 1e-3,
                                        theta) > 1e-12


def test_step_from_rest_moves_and_stays_divergence_free(unit32):
    # a fluid at rest takes the zero-velocity path on its first step; linear
    # gravity on a non-uniform density and a decaying force must still set
    # it moving, and the result must be projected
    grid = unit32
    phi = VectorField.from_functions(grid, lambda x, y: 0.0 * x,
                                     lambda x, y: -1.0 + 0.0 * x)
    base_f = VectorField.from_functions(grid, lambda x, y: np.cos(np.pi * y),
                                        lambda x, y: 0.0 * x)

    def f(t):
        return VectorField(grid, math.exp(-t) * base_f.ux, base_f.uy.copy())

    data = wave_data(grid, amp=0.1, S=SensitivitySpec.rotation(1.0, 0.5),
                     phi_grad=phi, f=f)
    st = data.initial_state()
    assert st.u.magnitude_sup() == 0.0
    for _ in range(2):
        st = step(st, data, dt=1e-3)
        assert st.u.magnitude_sup() > 1e-5
        assert np.abs(face_divergence(grid, st.u.fx, st.u.fy)).max() <= 1e-12
        assert np.abs(st.u.fx[:, [0, -1]]).max() == 0.0
        assert np.abs(st.u.fy[[0, -1], :]).max() == 0.0


def test_step_at_rest_without_forcing_stays_at_rest(unit32):
    data = wave_data(unit32, amp=0.1, S=SensitivitySpec.rotation(1.0, 0.5))
    out = step(data.initial_state(), data, dt=1e-3)
    assert np.abs(out.n.values - data.n0.values).max() > 0.0
    for arr in (out.u.ux, out.u.uy, out.u.fx, out.u.fy):
        assert not arr.any()


def test_step_mass_conserved_with_rich_data(unit32, rng):
    data = rich_data(unit32, rng)
    st = data.initial_state()
    M0 = integrate(st.n)
    for _ in range(100):
        st = step(st, data, dt=1e-3)
    assert abs(integrate(st.n) - M0) / M0 <= 1e-10


def test_step_rejects_bad_dt(unit16):
    data = wave_data(unit16)
    with pytest.raises(ValueError):
        step(data.initial_state(), data, dt=0.0)


# ---------------------------------------------------------------------------
# picard iteration

def test_picard_kmax_one_equals_step(unit32, rng):
    data = rich_data(unit32, rng)
    st = data.initial_state()
    plain = step(st, data, dt=1e-3)
    picard, iters, contraction = picard_step(st, data, dt=1e-3, k_max=1)
    assert iters == 1 and contraction == 0.0
    np.testing.assert_array_equal(plain.n.values, picard.n.values)
    np.testing.assert_array_equal(plain.c.values, picard.c.values)
    np.testing.assert_array_equal(plain.u.ux, picard.u.ux)


def test_picard_constant_state_converges_immediately(unit16):
    data = wave_data(unit16, amp=0.0)
    _, iters, contraction = picard_step(data.initial_state(), data, dt=1e-3,
                                        k_max=5, tol=1e-12)
    assert iters == 1
    assert contraction == 0.0


def test_picard_contracts_at_small_data(unit32):
    data = wave_data(unit32, amp=0.01)
    _, iters, contraction = picard_step(data.initial_state(), data, dt=1e-3,
                                        k_max=4, tol=1e-14)
    assert 0.0 < contraction < 1.0


def test_picard_requires_kmax(unit16):
    data = wave_data(unit16)
    with pytest.raises(ValueError):
        picard_step(data.initial_state(), data, dt=1e-3, k_max=0)


# ---------------------------------------------------------------------------
# run loop

def test_run_constant_state(unit16):
    data = wave_data(unit16, amp=0.0)
    traj, series = run(data, T=10e-3, dt=1e-3)
    assert len(series) == 10
    assert series.column("sup_n_dev").max() <= 1e-12
    assert series.column("sup_u").max() <= 1e-13
    t = series.column("t")
    assert np.all(np.diff(t) > 0) and t[-1] == pytest.approx(0.01)


def test_run_rejects_bad_times(unit16):
    data = wave_data(unit16)
    with pytest.raises(ValueError):
        run(data, T=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        run(data, T=1e-3, dt=2e-3)     # dt > T


def test_run_snapshot_stride(unit16):
    data = wave_data(unit16)
    traj, series = run(data, T=0.01, dt=1e-3,
                       options=RunOptions(snapshot_stride=4))
    assert [round(s.t, 6) for s in traj] == [0.0, 0.004, 0.008, 0.01]


def test_run_velocity_stays_divergence_free(unit32, rng):
    data = rich_data(unit32, rng)
    traj, _ = run(data, T=0.05, dt=1e-3, options=RunOptions(snapshot_stride=10))
    for st in traj[1:]:
        div = face_divergence(unit32, st.u.fx, st.u.fy)
        assert np.sqrt((div ** 2).sum() * unit32.cell_volume) <= 1e-8
        assert np.abs(st.u.fx[:, 0]).max() == 0.0


def test_run_blowup_attaches_state_and_series(unit16):
    data = wave_data(unit16, n_base=2.0)
    with pytest.raises(BlowUpError) as exc_info:
        run(data, T=1.0, dt=1e-3, options=RunOptions(blowup_ceiling=1.5))
    err = exc_info.value
    assert err.state is not None
    assert np.isfinite(err.state.n.values).all()
    assert err.series is not None


def test_given_data_validation_rejects_bad_signal(unit16):
    # c0 = x has unit normal derivative on the vertical walls
    data = GivenData(n0=ScalarField.constant(unit16, 1.0),
                     c0=ScalarField.from_function(unit16, lambda x, y: x),
                     u0=VectorField.zero(unit16),
                     phi_grad=VectorField.zero(unit16),
                     S=SensitivitySpec.identity())
    with pytest.raises(ValueError):
        data.validate()


def test_theta_scheme_validated(unit16):
    data = wave_data(unit16)
    with pytest.raises(ValueError):
        run(data, T=0.01, dt=1e-3, options=RunOptions(theta=0.7))


def test_cross_field_grid_mismatch_raises(unit16, unit32):
    from ksns import GridMismatchError, step_neumann_heat, step_shifted_heat
    u16 = ScalarField.constant(unit16, 0.0)
    with pytest.raises(GridMismatchError):
        step_neumann_heat(u16, VectorField.zero(unit32),
                          ScalarField.constant(unit16, 0.0), dt=0.01)
    with pytest.raises(GridMismatchError):
        step_shifted_heat(u16, ScalarField.constant(unit32, 0.0), dt=0.01)
    with pytest.raises(GridMismatchError):
        chemotactic_flux(u16, ScalarField.constant(unit32, 0.0),
                         SensitivitySpec.identity())
