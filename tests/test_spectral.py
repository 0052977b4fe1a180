"""Property tests of the 1-D eigenbases, of the exact spectral solves and
their cached plans (full and parity-folded bases), and of the
stream-function projection against the CG oracle.

Grid sizes (odd ones included), aspect ratios and time steps are drawn by
hypothesis; the right-hand sides come from a drawn seed.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_oracle import neg_lap_diag, pressure_project_faces, solve_cg
from ksns import BoundaryData, Grid, VectorField
from ksns import linstep
from ksns.eigen import _dirichlet_data
from ksns.grid import face_divergence, face_normal_values, laplacian_flux_raw
from ksns.linstep import (_eigenbasis, _Folded, _project_core, _solve_plan,
                          helmholtz_project_core, solve_spectral)

cases = st.fixed_dictionaries({
    "nx": st.integers(4, 40), "ny": st.integers(4, 40),
    "Lx": st.floats(0.5, 2.0), "Ly": st.floats(0.5, 2.0),
    "dt": st.floats(1e-4, 1e-1),
    "seed": st.integers(0, 2 ** 32 - 1)})


def _neg_lap_1d(n, h, bc):
    """Tridiagonal 1-D -lap_h: on n cells with zero-flux faces, or with
    half-cell Dirichlet faces whose boundary gradient (0 - q)/(h/2) adds
    2/h^2 to the end cells; or on the n-1 interior nodes with zero wall
    values."""
    m = n - 1 if bc == "nodal0" else n
    A = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h ** 2
    if bc != "nodal0":
        end = 3.0 if bc == "dirichlet0" else 1.0
        A[0, 0] = A[-1, -1] = end / h ** 2
    return A


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 64), st.floats(1e-3, 1.0),
       st.sampled_from(("neumann0", "dirichlet0", "nodal0")))
def test_eigenbasis_is_orthonormal_eigenbasis(n, h, bc):
    Q, lam = _eigenbasis(n, h, bc)
    m = n - 1 if bc == "nodal0" else n
    assert Q.shape == (m, m) and lam.shape == (m,)
    assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-14
    A = _neg_lap_1d(n, h, bc)
    assert np.abs(A @ Q - Q * lam).max() <= 1e-14 * lam.max()
    assert (lam[0] == 0.0) == (bc == "neumann0")


def _lap_nodal(grid, psi):
    """5-point Laplacian on the interior nodes, zero values on the walls."""
    p = np.pad(psi, 1)
    return ((p[1:-1, 2:] - 2.0 * p[1:-1, 1:-1] + p[1:-1, :-2]) / grid.hx ** 2
            + (p[2:, 1:-1] - 2.0 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / grid.hy ** 2)


# the cell Laplacians of the solves: laplacian_flux_raw with zero wall data
# or with the half-cell Dirichlet data, and the nodal one
_LAPS = {
    "neumann0": lambda g, v: laplacian_flux_raw(g, v, BoundaryData.zeros(g)),
    "dirichlet0": lambda g, v: laplacian_flux_raw(g, v, _dirichlet_data(g, v)),
    "nodal0": _lap_nodal}


def _operators(dt):
    """(name, shift, scale, bc) of the implicit operators of a step and the
    stream-function operator."""
    return (("density", 1.0, dt, "neumann0"),
            ("signal", 1.0 + dt, dt, "neumann0"),
            ("viscous", 1.0, dt, "dirichlet0"),
            ("stream", 0.0, 1.0, "nodal0"))


@settings(max_examples=25, deadline=None)
@given(cases)
def test_spectral_solves_match_operator_and_cg_oracle(case):
    grid = Grid(case["Lx"], case["Ly"], case["nx"], case["ny"])
    rng = np.random.default_rng(case["seed"])
    ny, nx = grid.shape
    for name, shift, scale, bc in _operators(case["dt"]):
        lap = _LAPS[bc]
        b = rng.standard_normal((ny - 1, nx - 1) if bc == "nodal0"
                                else grid.shape)

        def apply_op(v):
            return shift * v - scale * lap(grid, v)

        x = solve_spectral(grid, b, shift, scale, bc)
        assert x.shape == b.shape, name
        res = np.linalg.norm(apply_op(x) - b) / np.linalg.norm(b)
        assert res <= 1e-12, (name, res)
        diag = shift + scale * neg_lap_diag(grid, bc)
        x_cg, _ = solve_cg(apply_op, b, diag, 1e-13, tag=name)
        gap = np.linalg.norm(x - x_cg) / np.linalg.norm(x)
        assert gap <= 1e-11, (name, gap)      # measured worst 2.6e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(4, 40), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 5.0),
       st.floats(1e-4, 2.0),
       st.sampled_from(("neumann0", "dirichlet0", "nodal0")),
       st.integers(0, 2 ** 32 - 1))
def test_cached_plan_solve_is_bitwise_the_inline_formula(nx, ny, Lx, Ly, shift,
                                                          scale, bc, seed):
    grid = Grid(Lx, Ly, nx, ny)
    m = 1 if bc == "nodal0" else 0
    b = np.random.default_rng(seed).standard_normal((ny - m, nx - m))
    if shift == 0.0 and bc == "neumann0":
        _assert_singular_raises(grid, b, scale)
        return
    Qy, lam_y = _eigenbasis(ny, grid.hy, bc)
    Qx, lam_x = _eigenbasis(nx, grid.hx, bc)
    denom = shift + scale * (lam_y[:, None] + lam_x[None, :])
    inline = Qy @ ((Qy.T @ b @ Qx) / denom) @ Qx.T
    cold = solve_spectral(grid, b, shift, scale, bc)
    warm = solve_spectral(grid, b, shift, scale, bc)
    assert cold.tobytes() == inline.tobytes() == warm.tobytes()
    plan = _solve_plan(ny, nx, grid.hy, grid.hx, shift, scale, bc)
    assert plan[2].tobytes() == denom.tobytes()
    for arr in plan:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    for rhs in (b, np.zeros_like(b)):
        with pytest.raises(ValueError, match="unknown bc"):
            solve_spectral(grid, rhs, shift, scale, "periodic")


def _assert_singular_raises(grid, b, scale):
    """The zero-flux operator without a shift is singular: its solve and
    its plan raise, for any right-hand side."""
    ny, nx = grid.shape
    for rhs in (b, np.zeros_like(b)):
        with pytest.raises(ValueError, match="nonzero shift"):
            solve_spectral(grid, rhs, 0.0, scale, "neumann0")
    with pytest.raises(ValueError, match="nonzero shift"):
        _solve_plan(ny, nx, grid.hy, grid.hx, 0.0, scale, "neumann0")


def test_singular_zero_flux_solve_fails_closed(unit16):
    b = np.random.default_rng(0).standard_normal(unit16.shape)
    b -= b.mean()       # even mean-zero data, which the operator could solve
    with pytest.raises(ValueError, match="nonzero shift"):
        solve_spectral(unit16, b, 0.0, 1.0, "neumann0")


def _plan_arrays(plan):
    """Every array of a solve plan, the blocks of a folded basis included."""
    return [arr for part in plan
            for arr in (part if isinstance(part, _Folded) else (part,))]


def _inline_solve(grid, b, shift, scale, bc):
    """The full-basis formula with the cached eigenbases, outside the plan."""
    ny, nx = grid.shape
    Qy, lam_y = _eigenbasis(ny, grid.hy, bc)
    Qx, lam_x = _eigenbasis(nx, grid.hx, bc)
    denom = shift + scale * (lam_y[:, None] + lam_x[None, :])
    return Qy @ ((Qy.T @ b @ Qx) / denom) @ Qx.T


@settings(max_examples=12, deadline=None)
@given(st.integers(90, 160), st.integers(90, 160), st.floats(0.5, 2.0),
       st.floats(0.5, 2.0), st.sampled_from((0.0, 1.0)) | st.floats(1e-3, 5.0),
       st.floats(1e-4, 2.0),
       st.sampled_from(("neumann0", "dirichlet0", "nodal0")),
       st.integers(0, 2 ** 32 - 1))
def test_folded_solve_matches_full_basis_formula(nx, ny, Lx, Ly, shift, scale,
                                                 bc, seed):
    # axis lengths on both sides of FOLD_MIN_CELLS, odd and even, each
    # folded or full on its own
    grid = Grid(Lx, Ly, nx, ny)
    m = 1 if bc == "nodal0" else 0
    b = np.random.default_rng(seed).standard_normal((ny - m, nx - m))
    if shift == 0.0 and bc == "neumann0":
        _assert_singular_raises(grid, b, scale)
        return
    x = solve_spectral(grid, b, shift, scale, bc)
    inline = _inline_solve(grid, b, shift, scale, bc)
    assert np.abs(x - inline).max() <= 1e-13 * np.abs(inline).max()
    # relative to b, the residual of an exact solve grows with the
    # condition number kappa of the operator (the symbol's max / min); the
    # full-basis solve reads up to 3e-16 * kappa on these grids, so the
    # bound is the 1e-12 of the small grids or 1e-15 * kappa, the larger
    plan = _solve_plan(ny, nx, grid.hy, grid.hx, shift, scale, bc)
    kappa = plan[2].max() / plan[2].min()
    lap = _LAPS[bc]
    res = np.linalg.norm(shift * x - scale * lap(grid, x) - b)
    assert res <= 1e-15 * max(kappa, 1e3) * np.linalg.norm(b), (res, kappa)
    zero = solve_spectral(grid, np.zeros_like(b), shift, scale, bc)
    assert zero.shape == b.shape and not zero.any()
    for n_axis, basis in ((ny, plan[0]), (nx, plan[1])):
        assert isinstance(basis, _Folded) == (n_axis - m
                                              >= linstep.FOLD_MIN_CELLS)
    for arr in _plan_arrays(plan):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def _both_paths(fn):
    """``fn()`` with every axis on full bases, then with every axis folded."""
    out = []
    for limit in (10 ** 9, 0):
        linstep._solve_plan.cache_clear()
        with mock.patch.object(linstep, "FOLD_MIN_CELLS", limit):
            out.append(fn())
        linstep._solve_plan.cache_clear()
    return out


@settings(max_examples=40, deadline=None)
@given(cases)
def test_forced_fold_and_full_paths_agree(case):
    grid = Grid(case["Lx"], case["Ly"], case["nx"], case["ny"])
    rng = np.random.default_rng(case["seed"])
    ny, nx = grid.shape
    for name, shift, scale, bc in _operators(case["dt"]):
        b = rng.standard_normal((ny - 1, nx - 1) if bc == "nodal0"
                                else grid.shape)
        full, folded = _both_paths(
            lambda: solve_spectral(grid, b, shift, scale, bc))
        assert np.abs(folded - full).max() <= 1e-13 * np.abs(full).max(), name
        full, folded = _both_paths(lambda: _solve_plan(
            ny, nx, grid.hy, grid.hx, shift, scale, bc))
        assert not isinstance(full[0], _Folded)
        assert isinstance(folded[0], _Folded)
        assert isinstance(folded[1], _Folded)


def test_long_axes_fold_without_caching_their_full_basis():
    grid = Grid(2.0, 1.0, 128, 64)
    linstep._solve_plan.cache_clear()
    _eigenbasis.cache_clear()
    plan = _solve_plan(64, 128, grid.hy, grid.hx, 1.0, 1e-3, "neumann0")
    basis_y, basis_x, denom = plan
    assert isinstance(basis_x, _Folded) and not isinstance(basis_y, _Folded)
    assert basis_x.even.shape == basis_x.odd.shape == (64, 64)
    assert _eigenbasis.cache_info().currsize == 1      # the 64-cell axis only
    assert denom.shape == (64, 128)
    folded_bytes = sum(arr.nbytes for arr in _plan_arrays(plan))
    full_bytes = sum(arr.nbytes for arr in _both_paths(lambda: _solve_plan(
        64, 128, grid.hy, grid.hx, 1.0, 1e-3, "neumann0"))[0])
    assert folded_bytes <= full_bytes
    # the nodal stream function of a 128-cell axis has 127 nodes: 64 + 63
    nodal = _solve_plan(128, 128, 1 / 128, 1 / 128, 0.0, 1.0, "nodal0")
    assert nodal[0].even.shape == (64, 64) and nodal[0].odd.shape == (63, 63)
    linstep._solve_plan.cache_clear()


@settings(max_examples=25, deadline=None)
@given(cases)
def test_projection_properties(case):
    grid = Grid(case["Lx"], case["Ly"], case["nx"], case["ny"])
    rng = np.random.default_rng(case["seed"])
    ny, nx = grid.shape
    v = VectorField(grid, rng.standard_normal((ny, nx)),
                    rng.standard_normal((ny, nx)))
    once = helmholtz_project_core(v)
    twice = helmholtz_project_core(once)
    scale = max(np.abs(once.ux).max(), np.abs(once.uy).max(), 1.0)
    assert max(np.abs(twice.ux - once.ux).max(),
               np.abs(twice.uy - once.uy).max()) <= 1e-12 * scale
    assert np.abs(once.fx[:, 0]).max() == 0.0
    assert np.abs(once.fx[:, -1]).max() == 0.0
    assert np.abs(once.fy[0, :]).max() == 0.0
    assert np.abs(once.fy[-1, :]).max() == 0.0
    div = face_divergence(grid, once.fx, once.fy)
    assert np.abs(div).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(cases)
def test_stream_function_projection_matches_pressure_projection(case):
    # the curl of the nodal stream function and v - grad(p) are the same
    # orthogonal projection; the oracle forms p by CG
    grid = Grid(case["Lx"], case["Ly"], case["nx"], case["ny"])
    rng = np.random.default_rng(case["seed"])
    ny, nx = grid.shape
    v = VectorField(grid, rng.standard_normal((ny, nx)),
                    rng.standard_normal((ny, nx)))
    fx, fy = face_normal_values(v)
    px, py = _project_core(grid, fx, fy)
    ox, oy = pressure_project_faces(grid, fx, fy)
    scale = max(np.abs(ox).max(), np.abs(oy).max())
    gap = max(np.abs(px - ox).max(), np.abs(py - oy).max())
    assert gap <= 1e-12 * scale, gap         # measured worst 1.5e-14
