"""Property tests of the 1-D eigenbases, of the exact spectral solves and
of the stream-function projection against the CG oracle.

Grid sizes (odd ones included), aspect ratios, time steps and theta are
drawn by hypothesis; the right-hand sides come from a drawn seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cg_oracle import neg_lap_diag, pressure_project_faces, solve_cg
from ksns import DomainSpec, VectorField, build_grid, helmholtz_project
from ksns.grid import face_divergence, face_normal_values
from ksns.linstep import (_eigenbasis, _lap_dirichlet, _lap_zero_flux,
                          _project_core, solve_spectral)

cases = st.fixed_dictionaries({
    "nx": st.integers(4, 40), "ny": st.integers(4, 40),
    "Lx": st.floats(0.5, 2.0), "Ly": st.floats(0.5, 2.0),
    "dt": st.floats(1e-4, 1e-1), "theta": st.sampled_from((1.0, 0.5)),
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


def _operators(dt, theta):
    """(name, shift, scale, bc) of the implicit operators of a step, the
    singular zero-flux problem and the stream-function operator."""
    td = theta * dt
    return (("density", 1.0, td, "neumann0"),
            ("signal", 1.0 + td, td, "neumann0"),
            ("pressure", 0.0, 1.0, "neumann0"),
            ("viscous", 1.0, dt, "dirichlet0"),
            ("stream", 0.0, 1.0, "nodal0"))


@settings(max_examples=25, deadline=None)
@given(cases)
def test_spectral_solves_match_operator_and_cg_oracle(case):
    grid = build_grid(DomainSpec(case["Lx"], case["Ly"], case["nx"], case["ny"]))
    rng = np.random.default_rng(case["seed"])
    ny, nx = grid.shape
    for name, shift, scale, bc in _operators(case["dt"], case["theta"]):
        lap = {"neumann0": _lap_zero_flux, "dirichlet0": _lap_dirichlet,
               "nodal0": _lap_nodal}[bc]
        b = rng.standard_normal((ny - 1, nx - 1) if bc == "nodal0"
                                else grid.shape)
        singular = shift == 0.0 and bc == "neumann0"
        if singular:
            b -= b.mean()           # the singular problem needs mean-zero data

        def apply_op(v):
            return shift * v - scale * lap(grid, v)

        x = solve_spectral(grid, b, shift, scale, bc)
        assert x.shape == b.shape, name
        res = np.linalg.norm(apply_op(x) - b) / np.linalg.norm(b)
        assert res <= 1e-12, (name, res)
        if singular:
            assert abs(x.mean()) <= 1e-12 * np.abs(x).max(), name
        diag = shift + scale * neg_lap_diag(grid, bc)
        x_cg, _ = solve_cg(apply_op, b, diag, 1e-13,
                           project_mean=singular, tag=name)
        gap = np.linalg.norm(x - x_cg) / np.linalg.norm(x)
        assert gap <= 1e-11, (name, gap)      # measured worst 2.6e-13


@settings(max_examples=25, deadline=None)
@given(cases)
def test_projection_properties(case):
    grid = build_grid(DomainSpec(case["Lx"], case["Ly"], case["nx"], case["ny"]))
    rng = np.random.default_rng(case["seed"])
    ny, nx = grid.shape
    v = VectorField(grid, rng.standard_normal((ny, nx)),
                    rng.standard_normal((ny, nx)))
    once = helmholtz_project(v)
    twice = helmholtz_project(once)
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
    grid = build_grid(DomainSpec(case["Lx"], case["Ly"], case["nx"], case["ny"]))
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
