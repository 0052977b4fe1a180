import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksns import Grid, ScalarField, VectorField, integrate
from ksns import grid as grid_mod
from ksns import diagnostics, integrator, linstep
from ksns.diagnostics import DiagnosticsConfig, fit_decay_rate
from ksns.grid import (face_divergence, face_normal_values, face_values,
                       negative_part_energy)
from ksns.integrator import (BlowUpError, GivenData, RunOptions,
                             SensitivitySpec, SimState, _check_blowup,
                             density_rhs, run, step, step_count,
                             upwind_divergence)
from ksns.grid import BoundaryData
from ksns.linstep import (helmholtz_project_core, neumann_heat_core,
                          stokes_core)
from decay_oracle import linearised_decay_rates


def _imposed_source_gap(grid, x, explicit, src, dt):
    """h * max |source recovered from the solution x - src|,
    h = max(hx, hy): the recovered source is (x - dt*L0 x - explicit) / dt,
    the cell source a solve of (I - dt*L0) x = explicit + dt*src imposed, in
    the units of a face flux.  Rounding error for an exact solve."""
    recovered = (x - dt * grid_mod._lap_zero_flux(grid, x) - explicit) / dt
    return max(grid.hx, grid.hy) * float(np.abs(recovered - src).max())


def wave_data(grid, n_base=2.0, c_base=2.0, amp=0.01,
              S=None, phi_grad=None, u0=None, f=None):
    n0 = ScalarField.from_function(grid, lambda x, y: n_base + amp * np.cos(np.pi * x))
    c0 = ScalarField.from_function(grid, lambda x, y: c_base + amp * np.cos(np.pi * y))
    return GivenData(n0=n0, c0=c0,
                     u0=u0 if u0 is not None else VectorField.zero(grid),
                     phi_grad=phi_grad if phi_grad is not None else VectorField.zero(grid),
                     S=S if S is not None else SensitivitySpec(),
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
                     u0=u0, phi_grad=phi, S=SensitivitySpec(1.0, 0.5),
                     f=f)


# ---------------------------------------------------------------------------
# sensitivity tensor

def test_sensitivity_rotation_matches_canonical_form(unit16):
    # a*I + b*J with J = [[0, -1], [1, 0]]: on a unit density the step's
    # flux of a linear signal is S grad c on every interior face, which
    # every stencil gives to rounding
    assert [f.name for f in fields(SensitivitySpec)] == ["a", "b"]
    assert SensitivitySpec() == SensitivitySpec(1.0, 0.0)
    S = SensitivitySpec(2.0, 0.5)
    X, Y = unit16.cell_centers()
    n = np.ones(unit16.shape)
    for c, (sx, sy) in ((X, (2.0, 0.5)), (Y, (-0.5, 2.0))):
        want = _interior_source(unit16,
                                np.full((unit16.ny, unit16.nx + 1), sx),
                                np.full((unit16.ny + 1, unit16.nx), sy))
        got = _flux_source(unit16, n, c, S)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name, value", [("a", math.nan), ("b", math.inf)])
def test_sensitivity_rejects_non_finite_entries(name, value):
    with pytest.raises(ValueError) as err:
        SensitivitySpec(**{name: value})
    assert str(err.value).startswith(f"{name} must be finite"), err.value


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
                     S=SensitivitySpec())
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
    fx, fy = face_values(u.ux, 1), face_values(u.uy, 0)
    fx[:, [0, -1]] = 0.0
    fy[[0, -1], :] = 0.0
    np.testing.assert_array_equal(st.u.fx, fx)
    np.testing.assert_array_equal(st.u.fy, fy)
    assert st.u.ux is u.ux


def test_state_fields_are_read_only_properties(unit16):
    st = wave_data(unit16).initial_state()
    with pytest.raises(AttributeError):
        st.n = st.n
    with pytest.raises(AttributeError):
        st.c = st.c


def test_chained_steps_reproduce_run_bitwise(unit16):
    # each step keeps the state's gamma, so 20 steps are the run's 20 steps;
    # re-deriving gamma from e^{-t} on each step moves c by about 4e-15
    data = wave_data(unit16, S=SensitivitySpec(1.0, 0.5))
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
# chemotactic flux: the density source -div F of density_rhs, F the flux
# on the interior faces

def _interior_source(grid, fx, fy):
    """-div F of the face values (fx, fy) with their wall faces set to 0."""
    fx, fy = fx.copy(), fy.copy()
    fx[:, [0, -1]] = 0.0
    fy[[0, -1], :] = 0.0
    return -face_divergence(grid, fx, fy)


def _flux_source(grid, n, c, S):
    """-div F of the step's flux: ``density_rhs`` at base 0 and dt = 1."""
    return density_rhs(grid, np.zeros(grid.shape), n, c, S, 1.0)


def test_chem_flux_identity_tensor(unit64):
    # -div(2 grad c) = 2 pi^2 cos(pi x) for c = cos(pi x), second order in
    # every cell (4.0e-3 here, a quarter of the 32^2 error): c is even about
    # each wall, so the zero wall face loses nothing, and c has no
    # y-difference to feed the y faces
    n = np.full(unit64.shape, 2.0)
    c = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    got = _flux_source(unit64, n, c.values, SensitivitySpec())
    X, _ = unit64.cell_centers()
    assert np.abs(got - 2 * np.pi ** 2 * np.cos(np.pi * X)).max() <= 5e-3


def test_chem_flux_constant_signal(unit16, unit64):
    # no flux from a constant signal, as products (16^2) and as sliced
    # stencils (64^2)
    for g in (unit16, unit64):
        got = _flux_source(g, np.full(g.shape, 3.0), np.full(g.shape, 5.0),
                           SensitivitySpec(1.0, 2.0))
        assert np.abs(got).max() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, 3.0, allow_subnormal=False),
       st.floats(-3.0, 3.0, allow_subnormal=False), st.integers(0, 2 ** 32 - 1))
def test_chem_flux_is_linear_in_the_tensor(a, b, seed):
    # source(a*I + b*J) = a*source(I) + b*source(J), so a term weighted by
    # the wrong one of a and b shows; the canonical-form test checks the
    # sign of J
    grid = Grid(1.0, 1.0, 32, 32)
    rng = np.random.default_rng(seed)
    n = 2.0 + 0.1 * rng.standard_normal(grid.shape)
    c = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    got = _flux_source(grid, n, c, SensitivitySpec(a, b))
    want = (a * _flux_source(grid, n, c, SensitivitySpec())
            + b * _flux_source(grid, n, c, SensitivitySpec(0.0, 1.0)))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _reference_faces(grid, n, c, S):
    """Face fluxes written out from the explicit stencils: compact normal
    derivative with the one-sided closure (-2c0 + 3c1 - c2)/h at the walls,
    central tangential cell derivative with the closure (-3c0 + 4c1 - c2)/2h,
    and face averages extrapolated as 1.5 v0 - 0.5 v1."""
    hx, hy = grid.hx, grid.hy

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

    s11, s12, s21, s22 = S.a, -S.b, S.b, S.a
    fx = face_average(n) * (s11 * face_derivative(c, hx)
                            + s12 * face_average(cell_derivative(c.T, hy).T))
    fy = face_average(n.T).T * (s21 * face_average(cell_derivative(c, hx).T).T
                                + s22 * face_derivative(c.T, hy).T)
    return fx, fy


_FLUX_TENSORS = {
    "identity": SensitivitySpec(),
    "scaled": SensitivitySpec(1.7),
    "rotation": SensitivitySpec(0.8, -1.3),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(4, 40), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.sampled_from(sorted(_FLUX_TENSORS)),
       st.integers(0, 2 ** 32 - 1))
def test_chem_flux_faces_match_explicit_stencils(nx, ny, Lx, Ly, kind, seed):
    grid = Grid(Lx, Ly, nx, ny)
    rng = np.random.default_rng(seed)
    n = 2.0 + 0.5 * rng.standard_normal(grid.shape)
    c = 1.0 + 0.5 * rng.standard_normal(grid.shape)
    S = _FLUX_TENSORS[kind]
    got = _flux_source(grid, n, c, S)
    want = _interior_source(grid, *_reference_faces(grid, n, c, S))
    assert np.abs(got - want).max() <= _rhs_tol(grid, np.zeros(grid.shape),
                                                 n, c, S, 1.0)


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
    for S in (SensitivitySpec(), SensitivitySpec(2.0),
              SensitivitySpec(1.0, 0.5)):
        data = wave_data(unit32, n_base=2.0, c_base=2.0, amp=0.0, S=S)
        st = data.initial_state()
        out = step(st, data, dt=1e-3)
        assert np.abs(out.n.values - 2.0).max() <= 1e-12
        assert np.abs(out.c.values - 2.0).max() <= 1e-12
        assert out.u.magnitude_sup() <= 1e-14


def test_step_decouples_to_pure_heat_when_S_vanishes(unit32):
    data = wave_data(unit32, n_base=2.0, c_base=2.0, amp=0.01,
                     S=SensitivitySpec(0.0))
    st = data.initial_state()
    out = step(st, data, dt=1e-3)
    nt0 = st.n.values - st.n_bar0
    expected = neumann_heat_core(unit32, nt0, BoundaryData.zeros(unit32),
                                 np.zeros(unit32.shape), 1e-3)
    assert np.abs((out.n.values - st.n_bar0) - expected).max() <= 1e-10


def test_step_boundary_residual_is_measured(unit32):
    # a step's density is bitwise one neumann_heat_core solve of density_rhs
    # with no wall data; the source that solve imposed, recovered from its
    # solution, is the whole face flux's -div F plus the boundary source of
    # its wall faces (the wall condition as inhomogeneous Neumann data) to
    # rounding: the wall faces cancel, so leaving them out loses nothing
    data = wave_data(unit32, amp=0.01, S=SensitivitySpec(1.0, 0.5))
    st = data.initial_state()
    n = st.nt + st.n_bar0
    rhs = density_rhs(unit32, st.nt, n, st.chi, data.S, 1e-3)
    nt = neumann_heat_core(unit32, rhs, None, None, 1e-3)
    np.testing.assert_array_equal(step(st, data, dt=1e-3).nt, nt)
    fx, fy = _reference_faces(unit32, n, st.chi, data.S)
    src = (-face_divergence(unit32, fx, fy)
           + grid_mod._boundary_source(unit32, BoundaryData.from_faces(fx, fy)))
    assert _imposed_source_gap(unit32, nt, st.nt, src, 1e-3) <= 1e-12


def _interior_flux_rhs(grid, base, n, c, S, dt):
    """base - dt * div F, F the faces of ``_reference_faces`` with the wall
    faces set to zero: the reference of ``density_rhs``."""
    return base + dt * _interior_source(grid, *_reference_faces(grid, n, c, S))


def _rhs_tol(grid, base, n, c, S, dt):
    """16 ulp of the sizes the assembly rounds at: the base and the flux
    n * |S| * c / h differenced over h."""
    h = min(grid.hx, grid.hy)
    flux = (np.abs(n).max() * np.abs(c).max() * (abs(S.a) + abs(S.b))) / h
    return 16 * np.finfo(float).eps * (np.abs(base).max() + dt * flux / h)


@pytest.mark.parametrize("Lx, nx, ny", [(1.0, 16, 16), (1.0, 32, 32),
                                        (6.0, 96, 16), (1.0, 104, 104)])
@pytest.mark.parametrize("S", [SensitivitySpec(1.0, 0.0),
                               SensitivitySpec(0.7, -1.3)])
def test_density_rhs_matches_the_interior_face_flux(rng, Lx, nx, ny, S):
    # products on 16^2 and 32^2, products along y and stencils along x on
    # 96 x 16, stencils on 104^2; the base is independent of the flux's
    # n and c, as on a Picard iterate
    g = Grid(Lx, 1.0, nx, ny)
    base = 0.01 * rng.standard_normal(g.shape)
    n = 2.0 + 0.1 * rng.standard_normal(g.shape)
    c = 1.0 + 0.1 * rng.standard_normal(g.shape)
    adv = rng.standard_normal(g.shape)
    want = _interior_flux_rhs(g, base, n, c, S, 1e-3)
    tol = _rhs_tol(g, base, n, c, S, 1e-3)
    got = density_rhs(g, base, n, c, S, 1e-3)
    assert np.abs(got - want).max() <= tol
    got = density_rhs(g, base, n, c, S, 1e-3, adv)
    assert np.abs(got - (want - 1e-3 * adv)).max() <= tol


@pytest.mark.parametrize("moving", [False, True])
def test_picard_iterate_density_freezes_the_flux_at_the_iterate(
        unit32, rng, moving):
    # one pass of the solution map from a previous trajectory prev that is
    # not the fixed point (the run of larger data): each step's flux and
    # advection at prev[k], its base new[k].nt
    if moving:
        data, big = rich_data(unit32, rng), rich_data(unit32, rng, amp=0.05)
    else:
        data, big = (wave_data(unit32, amp=a, S=SensitivitySpec(1.0, 0.5))
                     for a in (0.1, 0.3))
    prev, _ = run(big, T=3e-3, dt=1e-3)
    new = diagnostics._solution_map(data, prev, 1e-3, RunOptions())
    assert len(new) == 4 and new[0].t == 0.0
    for st, w, got in zip(new, prev, new[1:]):
        n = w.nt + st.n_bar0
        rhs = _interior_flux_rhs(unit32, st.nt, n, w.chi, data.S, 1e-3)
        if moving:
            ufx, ufy = w.u.fx, w.u.fy
            up = (ufx[:, 1:-1] > 0.0, ufy[1:-1, :] > 0.0)
            rhs -= 1e-3 * upwind_divergence(unit32, w.nt, ufx, ufy, up)
        want = neumann_heat_core(unit32, rhs, None, None, 1e-3)
        tol = _rhs_tol(unit32, st.nt, n, w.chi, data.S, 1e-3)
        assert np.abs(got.nt - want).max() <= tol


@pytest.mark.parametrize("passes", [1, 3])
@pytest.mark.parametrize("moving", [False, True])
def test_run_builds_the_density_plan_once_and_no_wall_data(
        unit16, rng, monkeypatch, passes, moving):
    # every step of the run and of the solution map's further passes reads
    # the one plan the run's first step built; no step makes a boundary
    # source, and only validate's zero-flux test of c0 reads wall faces
    data = (rich_data(unit16, rng) if moving
            else wave_data(unit16, amp=0.1, S=SensitivitySpec(1.0, 0.5)))
    calls = {"source": 0, "from_faces": 0}
    plain_source = linstep._boundary_source
    plain_faces = BoundaryData.from_faces.__func__

    def source(*args):
        calls["source"] += 1
        return plain_source(*args)

    def from_faces(cls, *args):
        calls["from_faces"] += 1
        return plain_faces(cls, *args)

    monkeypatch.setattr(linstep, "_boundary_source", source)
    monkeypatch.setattr(BoundaryData, "from_faces", classmethod(from_faces))
    integrator._density_plan.cache_clear()
    traj, _ = run(data, T=5e-3, dt=1e-3)
    for _ in range(passes - 1):
        traj = diagnostics._solution_map(data, traj, 1e-3, RunOptions())
    info = integrator._density_plan.cache_info()
    assert (info.misses, info.hits) == (1, 5 * passes - 1)
    assert calls == {"source": 0, "from_faces": 1}


def test_boundary_residual_detects_perturbed_flux(unit32):
    # a density solve fed the chemotactic flux scaled by (1 + 1e-6) imposes
    # a boundary source the measured residual reports
    data = wave_data(unit32, amp=0.01, S=SensitivitySpec(1.0, 0.5))
    st = data.initial_state()
    nt = st.nt
    fx, fy = _reference_faces(unit32, st.n.values, st.c.values, data.S)
    bc = BoundaryData.from_faces(fx, fy)
    scaled = BoundaryData(*(getattr(bc, s) * (1.0 + 1e-6)
                            for s in ("left", "right", "bottom", "top")))
    forcing = -face_divergence(unit32, fx, fy)
    explicit = nt + 1e-3 * forcing
    src = grid_mod._boundary_source(unit32, bc)
    exact = neumann_heat_core(unit32, nt, bc, forcing, 1e-3)
    assert _imposed_source_gap(unit32, exact, explicit, src, 1e-3) <= 1e-12
    off = neumann_heat_core(unit32, nt, scaled, forcing, 1e-3)
    assert _imposed_source_gap(unit32, off, explicit, src, 1e-3) > 1e-12


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
        data = wave_data(grid, amp=0.1, S=SensitivitySpec(1.0, 0.5),
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
    data = wave_data(unit32, amp=0.1, S=SensitivitySpec(1.0, 0.5))
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


@pytest.mark.parametrize("steps", [1, 3])
def test_run_at_rest_skips_fluid_substep_with_identical_output(
        unit16, monkeypatch, tmp_path, steps):
    # a zero forcing function turns the skip off without changing the
    # arithmetic, so both runs must write the same bytes
    data = wave_data(unit16, amp=0.1, S=SensitivitySpec(1.0, 0.5))
    zero = VectorField.zero(unit16)
    forced = replace(data, f=lambda t: zero)
    calls = _count_stokes(monkeypatch)
    traj, series = run(data, T=steps * 1e-3, dt=1e-3)
    assert not calls
    traj_f, series_f = run(forced, T=steps * 1e-3, dt=1e-3)
    assert len(calls) == steps
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
    data = wave_data(unit16, amp=0.1, S=SensitivitySpec(1.0, 0.5),
                     phi_grad=phi if gravity else None)
    stepping = []
    calls = {"stokes_core": 0, "upwind_divergence": 0}

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
    assert not (st.u.fx.any() or st.u.fy.any())
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
# the step and the solution map

def test_step_kmax_one_is_the_plain_imex_step(unit32, rng):
    # every step is the plain IMEX step, _advance from st frozen at st
    data = rich_data(unit32, rng)
    st = data.initial_state()
    plain = integrator._advance(unit32, st, st, data, 1e-3, RunOptions(),
                                integrator._stays_at_rest(data, st.u))
    out = step(st, data, dt=1e-3)
    for a, b in ((plain.nt, out.nt), (plain.chi, out.chi),
                 (plain.u.ux, out.u.ux), (plain.u.uy, out.u.uy)):
        np.testing.assert_array_equal(a, b)


def test_picard_constant_state_converges_immediately(unit16):
    # constant data: Phi of the constant trajectory is run's trajectory to
    # rounding, though the two differ (chi = c0 against 0); the run's
    # signal solves leave chi constant to a few ulp only, and its flux
    # moves nt by 2.6e-14 in 10 steps, which the weighted norm's difference
    # quotients read as a factor of 1.5e-12
    data = wave_data(unit16, amp=0.0)
    factors, dist = diagnostics._solution_map_iterates(
        data, 1e-2, 1e-3, RunOptions(), DiagnosticsConfig(), 2)
    assert max(dist) <= 1e-13 and factors[0] <= 1e-11, (dist, factors)


def test_picard_contracts_at_small_data(unit32):
    data = wave_data(unit32, amp=0.01, S=SensitivitySpec(1.0, 0.5))
    factors, dist = diagnostics._solution_map_iterates(
        data, 1e-2, 1e-3, RunOptions(), DiagnosticsConfig(), 4)
    assert all(0.0 < q < 1.0 for q in factors), factors
    assert all(b < a for a, b in zip(dist, dist[1:])), dist


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("kind", ["rich", "constant"])
def test_run_matches_chained_steps_bitwise(unit32, rng, kind, stride):
    # the rich data's forcing depends on t, so chained steps match only if
    # they reach the run's times k * dt, which the sum t + dt misses at
    # dt = 1e-3 (first at k = 10); the run keeps every stride-th state and
    # the last
    data = rich_data(unit32, rng) if kind == "rich" else wave_data(unit32, amp=0.0)
    opts = RunOptions(snapshot_stride=stride)
    for steps, dt in ((5, 2.0 ** -10), (100, 1e-3)):
        traj, _ = run(data, T=steps * dt, dt=dt, options=opts)
        chained = [data.initial_state()]
        for _ in range(steps):
            chained.append(step(chained[-1], data, dt))
        kept = chained[::stride]
        if steps % stride:
            kept.append(chained[-1])
        assert len(traj) == len(kept)
        for a, b in zip(traj, kept):
            assert a.t == b.t and a.gamma == b.gamma
            for x, y in ((a.nt, b.nt), (a.chi, b.chi), (a.u.ux, b.u.ux),
                         (a.u.uy, b.u.uy)):
                np.testing.assert_array_equal(x, y)


def test_run_does_no_wall_trace_work(unit16, rng, monkeypatch):
    # the wall condition is measured once, on a run's last state, by the
    # judge of ``ksns run``; the loop itself does no boundary work
    calls = []
    plain = diagnostics.wall_condition_residual

    def counted(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(diagnostics, "wall_condition_residual", counted)
    run(rich_data(unit16, rng), T=5e-3, dt=1e-3)
    assert not calls


@pytest.mark.parametrize("kw, name", [
    (dict(snapshot_stride=-1), "snapshot_stride"),
    (dict(snapshot_stride=math.nan), "snapshot_stride"),
    (dict(blowup_ceiling=-math.inf), "blowup_ceiling"),
    (dict(snapshot_stride=0), "snapshot_stride"),
    (dict(blowup_ceiling=-1.0), "blowup_ceiling"),
    (dict(blowup_ceiling=0.0), "blowup_ceiling"),
    (dict(blowup_ceiling=math.nan), "blowup_ceiling"),
    (dict(blowup_ceiling=math.inf), "blowup_ceiling"),
])
def test_run_options_reject_bad_values_when_built(kw, name):
    # a stride of 0 used to divide by zero in run, and a negative ceiling
    # to report a false blow-up
    with pytest.raises(ValueError, match=f"^{name} must "):
        RunOptions(**kw)


def test_run_options_are_frozen():
    # a checked value cannot be changed after the check
    opts = RunOptions()
    with pytest.raises(FrozenInstanceError):
        opts.snapshot_stride = 0


def test_run_options_have_no_picard_fields():
    # every step is the plain IMEX step; the per-step loop's options are gone
    assert [f.name for f in fields(RunOptions)] == ["snapshot_stride",
                                                     "blowup_ceiling"]
    with pytest.raises(TypeError):
        RunOptions(picard_k_max=3)


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
    # the run's first step builds the density plan: operator products on a
    # short axis, sliced stencils on a long one
    rotation = SensitivitySpec(1.0, 0.5)
    for n, kind in ((32, integrator._Products), (128, integrator._Stencils)):
        integrator._density_plan.cache_clear()
        g = Grid(1.0, 1.0, n, n)
        run(wave_data(g, S=rotation), T=2e-3, dt=1e-3)
        plan = integrator._density_plan(*g.shape, g.hy, g.hx, 1.0, 0.5, 1e-3)
        assert integrator._density_plan.cache_info().currsize == 1  # the run's
        assert [type(p) for p in plan] == [kind, kind]


@pytest.mark.parametrize("cells", [32, 128])
def test_flux_pads_c_once_per_axis_on_long_axes(monkeypatch, rng, cells):
    # density_rhs pads c once per axis on a long axis's sliced stencils,
    # shared by the face difference and the central difference there, and
    # never on a short axis's products or without a tangential term
    g = Grid(1.0, 1.0, cells, cells)
    n = 2.0 + 0.1 * rng.standard_normal(g.shape)
    c = 1.0 + 0.1 * rng.standard_normal(g.shape)
    pads = []
    plain_pad = integrator._ghost_pad

    def counted(vals, axis):
        pads.append(axis)
        return plain_pad(vals, axis)

    monkeypatch.setattr(integrator, "_ghost_pad", counted)
    rotation = [0, 1] if cells == 128 else []
    for S, want in ((SensitivitySpec(1.0, 0.5), rotation),
                    (SensitivitySpec(), [])):
        pads.clear()
        density_rhs(g, np.zeros(g.shape), n, c, S, 1e-3)
        assert sorted(pads) == want, S


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
    # the given fields pass the ceiling and a force drives the fluid past
    # it: the run stops after some steps with the last state within it
    base = VectorField.from_functions(unit16, lambda x, y: np.cos(np.pi * y),
                                      lambda x, y: np.cos(np.pi * x))
    data = wave_data(unit16, n_base=1.0, c_base=1.0,
                     f=lambda t: VectorField(unit16, 2e3 * base.ux,
                                             2e3 * base.uy))
    with pytest.raises(BlowUpError, match="exceeds ceiling") as exc_info:
        run(data, T=0.05, dt=1e-3, options=RunOptions(blowup_ceiling=1.5))
    err = exc_info.value
    assert err.state is not None and err.state.t > 0.0
    assert len(err.series) == round(err.state.t / 1e-3)
    st = err.state
    assert max(np.abs(a).max() for a in (st.n.values, st.c.values,
                                         st.u.ux, st.u.uy)) <= 1.5


def test_run_checks_given_fields_at_t0_before_validate(unit16):
    # validate's arithmetic overflows on c0 = 1e308; no state is valid yet
    data = replace(wave_data(unit16), c0=ScalarField.constant(unit16, 1e308))
    with pytest.raises(BlowUpError,
                       match="at t = 0: sup 1.000e[+]308 exceeds") as exc_info:
        run(data, T=2e-3, dt=1e-3)
    assert exc_info.value.state is None and not exc_info.value.series


@pytest.mark.parametrize("n_bar0, gamma, sign, u_scale", [
    (2.0, 0.0, 1.0, 0.1), (2.0, 0.3, -1.0, 0.1), (-1.5, 0.7, 1.0, 0.1),
    (0.7, 0.95, -1.0, 0.1), (0.5, 0.2, 1.0, 10.0)])
def test_check_blowup_sup_is_the_fields_sup(unit16, rng, n_bar0, gamma, sign,
                                            u_scale):
    # a ceiling at max(|n|, |c|, |ux|, |uy|) of the reconstructed fields
    # passes and the next float below it fails: the check's sup is that
    # value, bit for bit
    shape = unit16.shape
    u = VectorField(unit16, u_scale * rng.standard_normal(shape),
                    u_scale * rng.standard_normal(shape))
    st = SimState(t=0.5, nt=sign * (rng.random(shape) - 0.2),
                  chi=sign * (rng.random(shape) - 0.2), u=u, gamma=gamma,
                  n_bar0=n_bar0)
    sup = max(np.abs(a).max() for a in (st.n.values, st.c.values,
                                        st.u.ux, st.u.uy))
    assert _check_blowup(st, sup, st) == (st.nt.min(), st.nt.max(),
                                          st.chi.min(), st.chi.max())
    with pytest.raises(BlowUpError, match="exceeds ceiling"):
        _check_blowup(st, np.nextafter(sup, 0.0), st)


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
        S=SensitivitySpec())
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
                     S=SensitivitySpec())
    with pytest.raises(ValueError):
        data.validate()


def test_given_data_validation_rejects_nan_velocity():
    # a NaN makes every trace and divergence comparison false, so the
    # velocity's cells and given faces are tested for finite values first
    grid = Grid(1.0, 1.0, 8, 8)
    data = wave_data(grid)
    data.u0.ux[2, 3] = np.nan
    with pytest.raises(ValueError, match="u0.ux contains non-finite"):
        data.validate()
    fx, fy = face_normal_values(VectorField.zero(grid))
    fy[4, 5] = np.nan
    faces = replace(data, u0=VectorField(grid, np.zeros(grid.shape),
                                         np.zeros(grid.shape), fx, fy))
    with pytest.raises(ValueError, match="u0.fy contains non-finite"):
        faces.validate()


def test_step_checks_the_given_state_first():
    # a given state above the ceiling raises at its own time and carries no
    # state, so BlowUpError.state is within the ceiling for step too
    data = wave_data(Grid(1.0, 1.0, 8, 8), n_base=10.0)
    with pytest.raises(BlowUpError, match="at t = 0: sup 1.001e[+]01 exceeds "
                       "ceiling 5.000e[+]00") as exc_info:
        step(data.initial_state(), data, dt=1e-3,
             options=RunOptions(blowup_ceiling=5.0))
    assert exc_info.value.state is None


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
