import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksns import Grid, ScalarField, VectorField, integrate
from ksns import grid as grid_mod
from ksns import integrator, linstep
from ksns.diagnostics import fit_decay_rate, negative_part_energy
from ksns.grid import face_divergence, face_normal_values
from ksns.integrator import (BlowUpError, GivenData, RunOptions,
                             SensitivitySpec, SimState, _check_blowup,
                             chemotactic_flux_raw, run, step, step_count,
                             upwind_divergence)
from ksns.grid import BoundaryData
from ksns.linstep import (boundary_source_residual, helmholtz_project_core,
                          neumann_heat_core, stokes_core)
from decay_oracle import linearised_decay_rates


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
    u0 = helmholtz_project_core(stream)
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


# ---------------------------------------------------------------------------
# the shifted state

def test_shift_constant_state(unit16):
    data = wave_data(unit16, amp=0.0)
    st = data.initial_state()
    assert np.abs(st.nt).max() == 0.0
    assert st.gamma == 0.0
    np.testing.assert_array_equal(st.n.values, data.n0.values)
    np.testing.assert_array_equal(st.c.values, data.c0.values)


def test_shift_cached_mean(unit64):
    n0 = ScalarField.from_function(unit64, lambda x, y: 2.0 + 0.1 * np.cos(np.pi * x))
    data = GivenData(n0=n0, c0=ScalarField.constant(unit64, 1.0),
                     u0=VectorField.zero(unit64),
                     phi_grad=VectorField.zero(unit64),
                     S=SensitivitySpec.identity())
    st = data.initial_state()
    assert st.n_bar0 == pytest.approx(2.0, abs=1e-12)
    assert abs(st.nt.mean()) <= 1e-12


def test_shift_round_trip(unit16, rng):
    n = ScalarField(unit16, rng.standard_normal(unit16.shape))
    c = ScalarField(unit16, rng.standard_normal(unit16.shape))
    u = VectorField(unit16, rng.standard_normal(unit16.shape),
                    rng.standard_normal(unit16.shape))
    st = SimState.from_fields(0.7, n, c, u, 1.37)
    assert st.gamma == 1.0 - math.exp(-0.7)
    np.testing.assert_array_equal(st.nt, n.values - 1.37)
    np.testing.assert_array_equal(st.chi, c.values - st.gamma * 1.37)
    ulp = np.spacing(np.abs(n.values).max())
    assert np.abs(st.n.values - n.values).max() <= 2 * ulp
    assert np.abs(st.c.values - c.values).max() <= 2 * ulp
    # the missing face-normal velocity is filled with zero wall trace
    fx, fy = face_normal_values(u, boundary="zero")
    np.testing.assert_array_equal(st.u.fx, fx)
    np.testing.assert_array_equal(st.u.fy, fy)
    assert st.u.ux is u.ux and st.bc_residual is None


def test_state_fields_are_read_only_properties(unit16):
    st = wave_data(unit16).initial_state()
    with pytest.raises(AttributeError):
        st.n = st.n
    with pytest.raises(AttributeError):
        st.c = st.c


def test_chained_steps_reproduce_run_bitwise(unit16):
    # each step keeps the state's gamma, so 20 steps are the run's 20 steps;
    # re-deriving gamma from e^{-t} on each step moves c by about 4e-15
    data = wave_data(unit16, S=SensitivitySpec.rotation(1.0, 0.5))
    traj, _ = run(data, T=0.02, dt=1e-3)
    st = data.initial_state()
    for _ in range(20):
        st = step(st, data, dt=1e-3)
    end = traj[-1]
    assert st.gamma == end.gamma
    np.testing.assert_array_equal(st.n.values, end.n.values)
    np.testing.assert_array_equal(st.c.values, end.c.values)
    np.testing.assert_array_equal(st.u.ux, end.u.ux)
    np.testing.assert_array_equal(st.u.uy, end.u.uy)


# ---------------------------------------------------------------------------
# chemotactic flux

def test_chem_flux_identity_tensor(unit64):
    n = np.full(unit64.shape, 2.0)
    c = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    fx, fy = chemotactic_flux_raw(unit64, n, c.values,
                                  SensitivitySpec.identity(), 0.0)
    # interior faces: n d/dx c at the face abscissae, second order
    X, _ = np.meshgrid(unit64.xf, unit64.yc)
    assert np.abs(fx[:, 1:-1] + 2 * np.pi * np.sin(np.pi * X[:, 1:-1])).max() \
        <= 3e-3
    assert np.abs(fy).max() <= 1e-12
    # all boundary normal fluxes vanish to O(h^2)
    bmax = max(np.abs(fx[:, 0]).max(), np.abs(fx[:, -1]).max(),
               np.abs(fy[0, :]).max(), np.abs(fy[-1, :]).max())
    assert bmax <= 2e-3


def test_chem_flux_constant_signal(unit16):
    n = np.full(unit16.shape, 3.0)
    c = np.full(unit16.shape, 5.0)
    fx, fy = chemotactic_flux_raw(unit16, n, c,
                                  SensitivitySpec.rotation(1.0, 2.0), 0.0)
    assert np.abs(fx).max() == 0.0 and np.abs(fy).max() == 0.0


def test_chem_flux_space_time_varying_sensitivity_matches_full_meshes(unit32, rng):
    # the flux is linear in S, so with a varying S it must equal the fluxes
    # of the constant tensors I and [[0, 1], [-1, 0]] weighted by the
    # entries evaluated on full face-centre meshgrids
    def entries(t, X, Y):
        return (1.0 + X, -t * Y, t * Y, 1.0 + X)

    t = 0.7
    grid = unit32
    n = 2.0 + 0.1 * rng.standard_normal(grid.shape)
    c = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    fx, fy = chemotactic_flux_raw(grid, n, c,
                                  SensitivitySpec("varying", entries), t)
    ix, iy = chemotactic_flux_raw(grid, n, c, SensitivitySpec.identity(), t)
    cx, cy = chemotactic_flux_raw(grid, n, c,
                                  SensitivitySpec.rotation(0.0, -1.0), t)

    Xf, Yf = np.meshgrid(np.arange(grid.nx + 1) * grid.hx, grid.yc)
    Xg, Yg = np.meshgrid(grid.xc, np.arange(grid.ny + 1) * grid.hy)
    s11f, s12f, _, _ = entries(t, Xf, Yf)
    _, _, s21g, s22g = entries(t, Xg, Yg)
    expected = {
        "fx": (fx, s11f * ix + s12f * cx),
        "fy": (fy, -s21g * cy + s22g * iy),
    }
    for name, (got, want) in expected.items():
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def _reference_faces(grid, n, c, S, t):
    """Face fluxes written out from the explicit stencils: compact normal
    derivative with the one-sided closure (-2c0 + 3c1 - c2)/h at the walls,
    central tangential cell derivative with the closure (-3c0 + 4c1 - c2)/2h,
    face averages extrapolated as 1.5 v0 - 0.5 v1, and S evaluated on full
    face-centre meshes."""
    hx, hy = grid.hx, grid.hy
    ny, nx = grid.shape

    def cell_derivative(v, h):            # along axis 1
        d = np.empty_like(v)
        d[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
        d[:, 0] = (-3 * v[:, 0] + 4 * v[:, 1] - v[:, 2]) / (2 * h)
        d[:, -1] = (3 * v[:, -1] - 4 * v[:, -2] + v[:, -3]) / (2 * h)
        return d

    def face_derivative(v, h):
        d = np.empty((v.shape[0], v.shape[1] + 1))
        d[:, 1:-1] = (v[:, 1:] - v[:, :-1]) / h
        d[:, 0] = (-2 * v[:, 0] + 3 * v[:, 1] - v[:, 2]) / h
        d[:, -1] = (2 * v[:, -1] - 3 * v[:, -2] + v[:, -3]) / h
        return d

    def face_average(v):
        f = np.empty((v.shape[0], v.shape[1] + 1))
        f[:, 1:-1] = 0.5 * (v[:, 1:] + v[:, :-1])
        f[:, 0] = 1.5 * v[:, 0] - 0.5 * v[:, 1]
        f[:, -1] = 1.5 * v[:, -1] - 0.5 * v[:, -2]
        return f

    Xv, Yv = np.meshgrid(np.arange(nx + 1) * hx, grid.yc)
    Xh, Yh = np.meshgrid(grid.xc, np.arange(ny + 1) * hy)
    s11, s12, _, _ = (np.broadcast_to(s, Xv.shape) for s in S.entries(t, Xv, Yv))
    _, _, s21, s22 = (np.broadcast_to(s, Xh.shape) for s in S.entries(t, Xh, Yh))
    fx = face_average(n) * (s11 * face_derivative(c, hx)
                            + s12 * face_average(cell_derivative(c.T, hy).T))
    fy = face_average(n.T).T * (s21 * face_average(cell_derivative(c, hx).T).T
                                + s22 * face_derivative(c.T, hy).T)
    return fx, fy


_FLUX_TENSORS = {
    "identity": SensitivitySpec.identity(),
    "scaled": SensitivitySpec.scaled(1.7),
    "rotation": SensitivitySpec.rotation(0.8, -1.3),
    "varying": SensitivitySpec(
        "varying", lambda t, X, Y: (1.0 + X, -t * Y, t * Y, 1.0 + X)),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(4, 40), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.sampled_from(sorted(_FLUX_TENSORS)),
       st.floats(0.0, 2.0), st.integers(0, 2 ** 32 - 1))
def test_chem_flux_faces_match_explicit_stencils(nx, ny, Lx, Ly, kind, t, seed):
    grid = Grid(Lx, Ly, nx, ny)
    rng = np.random.default_rng(seed)
    n = 2.0 + 0.5 * rng.standard_normal(grid.shape)
    c = 1.0 + 0.5 * rng.standard_normal(grid.shape)
    S = _FLUX_TENSORS[kind]
    got = chemotactic_flux_raw(grid, n, c, S, t)
    want = _reference_faces(grid, n, c, S, t)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_chem_flux_zero_off_diagonals_scalar_or_array(unit32, rng):
    grid = unit32
    n = 2.0 + 0.1 * rng.standard_normal(grid.shape)
    c = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    scalar = SensitivitySpec("scalar", lambda t, X, Y: (1.0 + X, 0.0, 0.0, 2.0))
    array = SensitivitySpec(
        "array", lambda t, X, Y: (1.0 + X, 0.0 * X * Y, np.zeros_like(X * Y),
                                  2.0 + 0.0 * Y))
    for a, b in zip(chemotactic_flux_raw(grid, n, c, scalar, 0.0),
                    chemotactic_flux_raw(grid, n, c, array, 0.0)):
        np.testing.assert_array_equal(a, b)


def test_chem_flux_single_off_diagonal_entry_is_kept(unit32, rng):
    # only the tangential term survives, on one family of faces each
    grid = unit32
    n = 2.0 + 0.1 * rng.standard_normal(grid.shape)
    c = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    only12 = SensitivitySpec("s12", lambda t, X, Y: (0.0, 1.0, 0.0, 0.0))
    only21 = SensitivitySpec("s21", lambda t, X, Y: (0.0, 0.0, 1.0, 0.0))
    fx, fy = chemotactic_flux_raw(grid, n, c, only12, 0.0)
    assert np.abs(fx).max() > 0.1 and not fy.any()
    fx, fy = chemotactic_flux_raw(grid, n, c, only21, 0.0)
    assert not fx.any() and np.abs(fy).max() > 0.1


def test_chem_flux_rotation_boundary(unit64):
    # S = rotation(0, 1) turns the tangential gradient into the normal flux
    n = np.ones(unit64.shape)
    c = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    _, fy = chemotactic_flux_raw(unit64, n, c.values,
                                 SensitivitySpec.rotation(0.0, 1.0), 0.0)
    expected_top = -np.pi * np.sin(np.pi * unit64.xc)
    assert np.abs(fy[-1, :] - expected_top).max() <= 5e-3


# ---------------------------------------------------------------------------
# single step

def test_upwind_divergence_matches_per_face_upwinding(unit16, rng):
    ny, nx = unit16.shape
    phi = rng.standard_normal((ny, nx))
    ufx = rng.standard_normal((ny, nx + 1))
    ufy = rng.standard_normal((ny + 1, nx))
    ufx[:, 3] = 0.0                             # a face with no flow
    Fx = np.zeros((ny, nx + 1))
    Fy = np.zeros((ny + 1, nx))
    for j in range(ny):
        for i in range(1, nx):
            Fx[j, i] = ufx[j, i] * (phi[j, i - 1] if ufx[j, i] > 0 else phi[j, i])
    for j in range(1, ny):
        for i in range(nx):
            Fy[j, i] = ufy[j, i] * (phi[j - 1, i] if ufy[j, i] > 0 else phi[j, i])
    up = (ufx[:, 1:-1] > 0.0, ufy[1:-1, :] > 0.0)
    np.testing.assert_array_equal(upwind_divergence(unit16, phi, ufx, ufy, up),
                                  face_divergence(unit16, Fx, Fy))


def test_step_passes_upwind_masks_of_the_frozen_velocity(unit16, rng,
                                                          monkeypatch):
    seen = []

    def checked(grid, phi, ufx, ufy, up):
        np.testing.assert_array_equal(up[0], ufx[:, 1:-1] > 0.0)
        np.testing.assert_array_equal(up[1], ufy[1:-1, :] > 0.0)
        seen.append(phi)
        return upwind_divergence(grid, phi, ufx, ufy, up)

    data = rich_data(unit16, rng)
    monkeypatch.setattr(integrator, "upwind_divergence", checked)
    step(data.initial_state(), data, dt=1e-3)
    assert len(seen) == 4


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
    expected, _ = neumann_heat_core(unit32, nt0, BoundaryData.zeros(unit32),
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
    nt = st.nt
    fx, fy = chemotactic_flux_raw(unit32, st.n.values, st.c.values, data.S,
                                  0.0)
    bc = BoundaryData.from_faces(fx, fy)
    scaled = BoundaryData(*(getattr(bc, s) * (1.0 + 1e-6)
                            for s in ("left", "right", "bottom", "top")))
    forcing = -face_divergence(unit32, fx, fy)
    exact, _ = neumann_heat_core(unit32, nt, bc, forcing, 1e-3)
    assert boundary_source_residual(unit32, nt, exact, bc, forcing,
                                    1e-3) <= 1e-12
    off, _ = neumann_heat_core(unit32, nt, scaled, forcing, 1e-3)
    assert boundary_source_residual(unit32, nt, off, bc, forcing,
                                    1e-3) > 1e-12


def test_step_from_rest_moves_and_stays_divergence_free(unit32):
    # a fluid at rest takes the zero-velocity path on its first step; linear
    # gravity on a non-uniform density or a decaying force, together or
    # alone, must still set it moving, and the result must be projected
    grid = unit32
    phi = VectorField.from_functions(grid, lambda x, y: 0.0 * x,
                                     lambda x, y: -1.0 + 0.0 * x)
    base_f = VectorField.from_functions(grid, lambda x, y: np.cos(np.pi * y),
                                        lambda x, y: 0.0 * x)

    def f(t):
        return VectorField(grid, math.exp(-t) * base_f.ux, base_f.uy.copy())

    for gravity, force in ((True, True), (True, False), (False, True)):
        data = wave_data(grid, amp=0.1, S=SensitivitySpec.rotation(1.0, 0.5),
                         phi_grad=phi if gravity else None,
                         f=f if force else None)
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


def _count_stokes(monkeypatch):
    """Record every call of the fluid substep made by the integrator."""
    calls = []

    def counted(*args):
        calls.append(args)
        return stokes_core(*args)

    monkeypatch.setattr(integrator, "stokes_core", counted)
    return calls


@pytest.mark.parametrize("k_max", [1, 3])
def test_run_at_rest_skips_fluid_substep_with_identical_output(
        unit16, monkeypatch, tmp_path, k_max):
    # a zero forcing function turns the skip off without changing the
    # arithmetic, so both runs must write the same bytes
    data = wave_data(unit16, amp=0.1, S=SensitivitySpec.rotation(1.0, 0.5))
    zero = VectorField.zero(unit16)
    forced = replace(data, f=lambda t: zero)
    opts = RunOptions(picard_k_max=k_max, picard_tol=0.0)
    calls = _count_stokes(monkeypatch)
    traj, series = run(data, T=5e-3, dt=1e-3, options=opts)
    assert not calls
    traj_f, series_f = run(forced, T=5e-3, dt=1e-3, options=opts)
    assert len(calls) == 5 * k_max
    series.to_csv(tmp_path / "skip.csv")
    series_f.to_csv(tmp_path / "solve.csv")
    assert (tmp_path / "skip.csv").read_bytes() == \
        (tmp_path / "solve.csv").read_bytes()
    assert len(traj) == len(traj_f)
    for a, b in zip(traj, traj_f):
        for x, y in ((a.n.values, b.n.values), (a.c.values, b.c.values),
                     (a.u.ux, b.u.ux), (a.u.uy, b.u.uy),
                     (a.u.fx, b.u.fx), (a.u.fy, b.u.fy)):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("gravity", [False, True])
def test_run_decides_rest_once_and_builds_each_solve_plan_once(
        unit16, monkeypatch, gravity):
    # at rest, no step touches the fluid: no face velocities, no upwinding,
    # no fluid substep; from rest under gravity every step takes that path.
    # Only calls made inside a step count (validate reads u0's faces once).
    phi = VectorField.from_functions(unit16, lambda x, y: 0.0 * x,
                                     lambda x, y: -1.0 + 0.0 * x)
    data = wave_data(unit16, amp=0.1, S=SensitivitySpec.rotation(1.0, 0.5),
                     phi_grad=phi if gravity else None)
    stepping = []
    calls = {"stokes_core": 0, "upwind_divergence": 0,
             "face_normal_values": 0}

    def counted(name):
        fn = getattr(integrator, name)

        def wrapper(*args, **kwargs):
            calls[name] += bool(stepping)
            return fn(*args, **kwargs)
        return wrapper

    def advance(*args, **kwargs):
        stepping.append(True)
        try:
            return plain_advance(*args, **kwargs)
        finally:
            stepping.pop()

    plain_advance = integrator._advance
    for name in calls:
        monkeypatch.setattr(integrator, name, counted(name))
    monkeypatch.setattr(integrator, "_advance", advance)
    linstep._solve_plan.cache_clear()
    run(data, T=2e-2, dt=1e-3)
    info = linstep._solve_plan.cache_info()
    if gravity:
        assert calls["stokes_core"] == 20
        assert calls["face_normal_values"] == 20
        assert calls["upwind_divergence"] == 4 * 20
        assert info.misses == 4     # density, signal, viscous, stream function
        assert info.hits == 5 * 20 - 4
    else:
        assert calls == dict.fromkeys(calls, 0)
        assert info.misses == 2     # density, signal
        assert info.hits == 2 * 20 - 2


def test_step_checkerboard_velocity_goes_through_stokes(unit16, monkeypatch):
    # the interior face averages of a checkerboard vanish, so the frozen face
    # velocity is zero, but its cell values are not: the fluid substep runs
    ny, nx = unit16.shape
    j, i = np.indices((ny, nx))
    checker = np.where((i + j) % 2 == 0, 1.0, -1.0)
    data = wave_data(unit16)
    st = SimState.from_fields(0.0, data.n0, data.c0,
                              VectorField(unit16, checker, np.zeros((ny, nx))),
                              data.initial_state().n_bar0)
    fx, fy = face_normal_values(st.u, boundary="zero")
    assert not (fx.any() or fy.any())
    calls = _count_stokes(monkeypatch)
    out = step(st, data, dt=1e-3)
    assert len(calls) == 1
    assert np.abs(out.u.ux - checker).max() > 0.1


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

def test_step_kmax_one_is_the_plain_imex_step(unit32, rng):
    data = rich_data(unit32, rng)
    st = data.initial_state()
    plain = integrator._advance(unit32, st, st, data, 1e-3, RunOptions(),
                                integrator._stays_at_rest(data, st.u))
    for opts in (None, RunOptions(picard_k_max=1, picard_tol=0.0)):
        out = step(st, data, dt=1e-3, options=opts)
        assert out.picard_iters == 1 and out.contraction == 0.0
        np.testing.assert_array_equal(plain.n.values, out.n.values)
        np.testing.assert_array_equal(plain.c.values, out.c.values)
        np.testing.assert_array_equal(plain.u.ux, out.u.ux)


def test_picard_constant_state_converges_immediately(unit16):
    data = wave_data(unit16, amp=0.0)
    out = step(data.initial_state(), data, dt=1e-3,
               options=RunOptions(picard_k_max=5, picard_tol=1e-12))
    assert out.picard_iters == 1
    assert out.contraction == 0.0


def test_picard_contracts_at_small_data(unit32):
    data = wave_data(unit32, amp=0.01)
    out = step(data.initial_state(), data, dt=1e-3,
               options=RunOptions(picard_k_max=4, picard_tol=1e-14))
    assert 0.0 < out.contraction < 1.0


@pytest.mark.parametrize("k_max", [1, 3])
@pytest.mark.parametrize("kind", ["rich", "constant"])
def test_run_matches_chained_steps_bitwise(unit32, rng, kind, k_max):
    # rich data takes every iteration; a constant state stops after one.
    # dt = 2^-10 makes the chained t + dt equal the run's k * dt, so the
    # forcing is evaluated at the same times
    data = rich_data(unit32, rng) if kind == "rich" else wave_data(unit32, amp=0.0)
    dt = 2.0 ** -10
    opts = RunOptions(picard_k_max=k_max, picard_tol=1e-14)
    traj, series = run(data, T=5 * dt, dt=dt, options=opts)
    st = data.initial_state()
    iters, contractions = [], []
    for _ in range(5):
        st = step(st, data, dt, options=opts)
        iters.append(st.picard_iters)
        contractions.append(st.contraction)
    assert list(series.column("picard_iters")) == iters
    assert list(series.column("contraction")) == contractions
    if kind == "rich":
        assert iters == [k_max] * 5
        assert all(q > 0.0 for q in contractions) == (k_max > 1)
    end = traj[-1]
    assert st.t == end.t and st.gamma == end.gamma
    for a, b in ((end.n.values, st.n.values), (end.c.values, st.c.values),
                 (end.u.ux, st.u.ux), (end.u.uy, st.u.uy)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("k_max", [1, 3])
def test_increment_computed_only_when_needed(unit16, rng, monkeypatch, k_max):
    # at k_max = 1 a step is the plain IMEX step and measures no increment;
    # with tol = 0, three iterates measure three (the last for the ratio)
    calls = []
    plain = integrator._rel_increment

    def counted(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(integrator, "_rel_increment", counted)
    run(rich_data(unit16, rng), T=5e-3, dt=1e-3,
        options=RunOptions(picard_k_max=k_max, picard_tol=0.0))
    assert len(calls) == (0 if k_max == 1 else 15)


def test_picard_requires_kmax(unit16):
    data = wave_data(unit16)
    with pytest.raises(ValueError):
        step(data.initial_state(), data, dt=1e-3,
             options=RunOptions(picard_k_max=0))
    with pytest.raises(ValueError, match="k_max"):
        run(data, T=2e-3, dt=1e-3, options=RunOptions(picard_k_max=0))


@pytest.mark.parametrize("kw, name", [
    (dict(picard_k_max=math.nan), "picard_k_max"),
    (dict(snapshot_stride=math.nan), "snapshot_stride"),
    (dict(picard_k_max=0), "picard_k_max"),
    (dict(snapshot_stride=0), "snapshot_stride"),
    (dict(blowup_ceiling=-1.0), "blowup_ceiling"),
    (dict(blowup_ceiling=0.0), "blowup_ceiling"),
    (dict(blowup_ceiling=math.nan), "blowup_ceiling"),
])
def test_run_options_reject_bad_values_when_built(kw, name):
    # a stride of 0 used to divide by zero in run, and a negative ceiling
    # to report a false blow-up
    with pytest.raises(ValueError, match=f"^{name} must "):
        RunOptions(**kw)


def test_run_options_are_frozen():
    # a checked value cannot be changed after the check
    opts = RunOptions(picard_tol=0.0)       # a zero tol is allowed
    with pytest.raises(FrozenInstanceError):
        opts.picard_k_max = 0


@pytest.mark.parametrize("T, dt, name", [
    (0.0, 1e-3, "T"), (-1.0, 1e-3, "T"), (math.nan, 1e-3, "T"),
    (1.0, 0.0, "dt"), (1.0, -1e-3, "dt"), (1.0, math.nan, "dt"),
    (1e-3, 2e-3, "dt"), (1.0, 0.4, "T"),
    (math.inf, 1e-3, "T"), (1.0, 5e-324, "T"),    # T/dt overflows
])
def test_step_count_rejects_bad_times(T, dt, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        step_count(T, dt)


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


def test_run_decay_rates_match_the_linearised_scheme():
    # the small-wave decay scenario at 16^2 against the closed-form 2x2
    # recursion per cosine mode: the gaps are +0.14% (n) and +1.9e-6
    # relative (c) at 16^2, 32^2 and 48^2, and a chemotactic flux scaled by
    # 1.05 inside the step moves them to -2.0% and -3.9e-5
    grid = Grid(1.0, 1.0, 16, 16)
    T, dt = 0.3, 1e-3
    _, series = run(wave_data(grid, amp=0.01), T=T, dt=dt)
    window = (T / 3.0, T)
    want_n, want_c = linearised_decay_rates(1.0, 1.0, 16, 16, dt, T, 2.0,
                                            2.0, 0.01, window)
    t = series.column("t")
    got_n, got_c = (fit_decay_rate(zip(t, series.column(name)), window).rate
                    for name in ("sup_n_dev", "sup_c_dev"))
    assert abs(got_n - want_n) <= 5e-3 * want_n
    assert abs(got_c - want_c) <= 1e-5 * want_c


def test_small_axes_build_operators_and_large_ones_none():
    rotation = SensitivitySpec.rotation(1.0, 0.5)
    for n, built in ((32, 1), (128, 0)):
        grid_mod._build_axis_operators.cache_clear()
        g = Grid(1.0, 1.0, n, n)
        run(wave_data(g, S=rotation), T=2e-3, dt=1e-3)
        assert grid_mod._build_axis_operators.cache_info().currsize == built


def _flux_padding_per_stencil(grid, n, c, S):
    """The flux with a face gradient and a central difference of its own
    (and a ghost pad each on a long axis) for every term."""
    s11, s12, _, _ = S.evaluate(0.0, grid.xf[None, :], grid.yc[:, None])
    _, _, s21, s22 = S.evaluate(0.0, grid.xc[None, :], grid.yf[:, None])
    gx = s11 * grid_mod.face_gradient(c, grid.hx, 1)
    if np.any(s12 != 0.0):
        gx += s12 * grid_mod.face_values(grid_mod.ddy(c, grid.hy), 1)
    gy = s22 * grid_mod.face_gradient(c, grid.hy, 0)
    if np.any(s21 != 0.0):
        gy += s21 * grid_mod.face_values(grid_mod.ddx(c, grid.hx), 0)
    return (grid_mod.face_values(n, 1) * gx, grid_mod.face_values(n, 0) * gy)


@pytest.mark.parametrize("cells", [32, 128])
def test_flux_pads_c_once_per_axis_on_long_axes(monkeypatch, rng, cells):
    # above PRODUCT_MAX_CELLS the face gradient and the central difference
    # along an axis share one ghost pad, and the identity builds no central
    # difference; the faces are bitwise those of one pad per stencil
    g = Grid(1.0, 1.0, cells, cells)
    n = 2.0 + 0.1 * rng.standard_normal(g.shape)
    c = 1.0 + 0.1 * rng.standard_normal(g.shape)
    pads = []
    plain_pad = grid_mod._ghost_pad

    def counted(vals, axis):
        pads.append(axis)
        return plain_pad(vals, axis)

    for S in (SensitivitySpec.rotation(1.0, 0.5), SensitivitySpec.identity(),
              _FLUX_TENSORS["varying"]):
        want = _flux_padding_per_stencil(g, n, c, S)
        pads.clear()
        monkeypatch.setattr(grid_mod, "_ghost_pad", counted)
        got = chemotactic_flux_raw(g, n, c, S, 0.0)
        monkeypatch.setattr(grid_mod, "_ghost_pad", plain_pad)
        assert sorted(pads) == ([0, 1] if cells == 128 else []), S.tag
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), S.tag
    pads.clear()
    monkeypatch.setattr(grid_mod, "_ghost_pad", counted)
    _flux_padding_per_stencil(g, n, c, SensitivitySpec.rotation(1.0, 0.5))
    assert len(pads) == (4 if cells == 128 else 0)


def test_run_rejects_bad_times(unit16):
    data = wave_data(unit16)
    with pytest.raises(ValueError):
        run(data, T=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        run(data, T=1e-3, dt=2e-3)     # dt > T


@pytest.mark.parametrize("T, dt", [(1.0, 0.4), (0.05, 0.02)])
def test_run_rejects_T_not_a_whole_number_of_steps(unit16, T, dt):
    # round(T/dt) steps would stop short of T (at 0.8 and 0.04)
    with pytest.raises(ValueError, match="whole number of steps"):
        run(wave_data(unit16), T=T, dt=dt)


def test_run_ends_at_T_for_ratios_whole_to_rounding(unit16):
    assert 0.7 / 0.1 != 7              # 6.999999999999999
    _, series = run(wave_data(unit16), T=0.7, dt=0.1)
    assert len(series) == 7 and series.column("t")[-1] == pytest.approx(0.7)


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


@pytest.mark.parametrize("bad, reason", [
    (np.nan, "non-finite values"), (np.inf, "non-finite values"),
    (-np.inf, "non-finite values"), (2e6, "exceeds ceiling")])
def test_check_blowup_reasons_and_last_valid_state(unit16, bad, reason):
    data = wave_data(unit16)
    last = step(data.initial_state(), data, dt=1e-3)
    new = step(data.initial_state(), data, dt=2e-3)
    new.chi[3, 5] = bad
    with pytest.raises(BlowUpError, match=reason) as exc_info:
        _check_blowup(new, 1e6, last)
    err = exc_info.value
    assert err.state is last
    np.testing.assert_array_equal(err.state.n.values, last.nt + 2.0)
    np.testing.assert_array_equal(err.state.c.values, last.chi + last.gamma * 2.0)
    _check_blowup(last, 1e6, last)        # a valid state passes


def test_run_nan_forcing_aborts_with_last_valid_state(unit16):
    # the force turns NaN from the fourth step on: the run stops there and
    # hands back the state after three steps
    base = VectorField.zero(unit16)

    def f(t):
        bad = np.nan if t > 2.5e-3 else 0.0
        return VectorField(unit16, base.ux + bad, base.uy)

    data = wave_data(unit16, f=f)
    with pytest.raises(BlowUpError, match="non-finite values") as exc_info:
        run(data, T=1e-2, dt=1e-3)
    err = exc_info.value
    assert len(err.series) == 3
    assert err.state.t == pytest.approx(3e-3)
    ref, _ = run(data, T=3e-3, dt=1e-3)
    np.testing.assert_array_equal(err.state.n.values, ref[-1].n.values)


def test_run_records_negative_part_energy(unit16):
    data = wave_data(unit16, n_base=0.005, amp=0.01)
    traj, series = run(data, T=5e-3, dt=1e-3)
    neg = series.column("neg_energy_n")
    assert series.column("min_n").max() < 0.0
    assert np.all(neg > 0.0)
    assert neg[-1] == negative_part_energy(traj[-1].n)
    assert not series.column("neg_energy_c").any()


@pytest.mark.parametrize("skew", [1.0, -1.0])
def test_run_row_matches_full_array_reductions(unit16, skew):
    # the row takes its minima and sups from the blow-up check's extrema;
    # they must equal the reductions of the recorded fields
    u0 = helmholtz_project_core(VectorField.from_functions(
        unit16, lambda x, y: np.sin(np.pi * y), lambda x, y: np.sin(np.pi * x)))
    # skewed profiles: the sup deviation of one field is its maximum, of the
    # other its minimum (swapped by ``skew``), and both fields dip below zero
    data = GivenData(
        n0=ScalarField.from_function(unit16, lambda x, y: 0.005 + skew * 0.01
                                     * (np.cos(np.pi * x) + np.cos(2 * np.pi * x))),
        c0=ScalarField.from_function(unit16, lambda x, y: -0.005 - skew * 0.01
                                     * (np.cos(np.pi * y) + np.cos(2 * np.pi * y))),
        u0=u0, phi_grad=VectorField.zero(unit16),
        S=SensitivitySpec.identity())
    traj, series = run(data, T=5e-3, dt=1e-3)
    n_bar0 = traj[0].n_bar0
    vol = unit16.cell_volume
    for k, st in enumerate(traj[1:]):
        n, c, t = st.n.values, st.c.values, st.t
        assert series.column("min_n")[k] == n.min() < 0.0
        assert series.column("min_c")[k] == c.min() < 0.0
        assert series.column("sup_u")[k] == np.sqrt(st.u.ux ** 2 + st.u.uy ** 2).max()
        assert series.column("neg_energy_n")[k] == \
            float((np.minimum(n, 0.0) ** 2).sum()) * vol
        assert series.column("neg_energy_c")[k] == \
            float((np.minimum(c, 0.0) ** 2).sum()) * vol
        np.testing.assert_allclose(series.column("sup_n_dev")[k],
                                   np.abs(n - n_bar0).max(), rtol=1e-9)
        np.testing.assert_allclose(
            series.column("sup_c_dev")[k],
            np.abs(c - (1.0 - math.exp(-t)) * n_bar0).max(), rtol=1e-9)


def test_given_data_validation_rejects_bad_signal(unit16):
    # c0 = x has unit normal derivative on the vertical walls
    data = GivenData(n0=ScalarField.constant(unit16, 1.0),
                     c0=ScalarField.from_function(unit16, lambda x, y: x),
                     u0=VectorField.zero(unit16),
                     phi_grad=VectorField.zero(unit16),
                     S=SensitivitySpec.identity())
    with pytest.raises(ValueError):
        data.validate()


def test_cross_field_grid_mismatch_raises(unit16, unit32):
    # the data a run steps must share one grid: a field from another grid
    # is rejected before the first step
    from ksns import GridMismatchError
    data = wave_data(unit16)
    for swap in (dict(c0=ScalarField.constant(unit32, 2.0)),
                 dict(u0=VectorField.zero(unit32)),
                 dict(phi_grad=VectorField.zero(unit32))):
        mixed = replace(data, **swap)
        with pytest.raises(GridMismatchError):
            mixed.validate()
        with pytest.raises(GridMismatchError):
            run(mixed, T=2e-3, dt=1e-3)
