"""Implicit linear substeps: Neumann heat with prescribed boundary flux,
the shifted Neumann heat operator, and a Chorin-projected Stokes step.

Every implicit operator has the form ``shift*I - scale*lap_h`` with constant
coefficients, so ``solve_spectral`` solves it exactly in the eigenbasis of
the 1-D discrete Laplacian: cosines for zero-flux cell faces, sines for
half-cell Dirichlet faces, and nodal sines for the stream function of the
Helmholtz projection, which vanishes on the walls.
Each operator has one cached, read-only plan (its two bases and the symbol
the solve divides by), keyed on the grid, the coefficients and the boundary
condition: built by its first solve and reused by every later one.  An axis
of at least ``FOLD_MIN_CELLS`` cells or nodes holds its basis as two
half-size parity blocks, which halve the arithmetic of its products.
The heat steps support the theta time scheme (theta = 1 implicit Euler,
theta = 1/2 Crank-Nicolson); the Stokes step is implicit Euler only.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (BoundaryData, Grid, ScalarField, VectorField,
                   _boundary_source, _lap_zero_flux, check_same_grid,
                   face_divergence, face_normal_values, integrate,
                   require_finite)


def _lap_dirichlet(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """FV Laplacian with homogeneous Dirichlet data at the boundary faces.

    The boundary face gradient uses the half-cell distance: (0 - v)/(h/2).
    """
    ny, nx = grid.shape
    gx = np.empty((ny, nx + 1))
    gx[:, 1:-1] = (vals[:, 1:] - vals[:, :-1]) / grid.hx
    gx[:, 0] = vals[:, 0] * (2.0 / grid.hx)
    gx[:, -1] = -vals[:, -1] * (2.0 / grid.hx)
    gy = np.empty((ny + 1, nx))
    gy[1:-1, :] = (vals[1:, :] - vals[:-1, :]) / grid.hy
    gy[0, :] = vals[0, :] * (2.0 / grid.hy)
    gy[-1, :] = -vals[-1, :] * (2.0 / grid.hy)
    return face_divergence(grid, gx, gy)


# ---------------------------------------------------------------------------
# exact spectral solves

@lru_cache(maxsize=32)
def _eigenbasis(n: int, h: float, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis Q (one mode per column) and eigenvalues
    4/h^2 sin^2(k pi / 2n) of the 1-D -lap_h with n cells of width h:
    cos(k pi (j + 1/2) / n), k = 0..n-1, on the cells with zero-flux faces
    (``"neumann0"``); sin(k pi (j + 1/2) / n), k = 1..n, on the cells with
    half-cell Dirichlet faces (``"dirichlet0"``); sin(k pi i / n),
    k = 1..n-1, on the n-1 interior nodes with zero wall values
    (``"nodal0"``)."""
    if bc == "nodal0":
        j, k, wave = np.arange(1, n), np.arange(1, n), np.sin
    elif bc == "dirichlet0":
        j, k, wave = np.arange(n) + 0.5, np.arange(1, n + 1), np.sin
    else:
        j, k, wave = np.arange(n) + 0.5, np.arange(n), np.cos
    Q = wave(np.pi / n * np.outer(j, k))
    Q /= np.linalg.norm(Q, axis=0)
    lam = 4.0 / h ** 2 * np.sin(0.5 * np.pi / n * k) ** 2
    Q.setflags(write=False)
    lam.setflags(write=False)
    return Q, lam


# Every basis has the parity Q[m-1-j, k] = (-1)^k Q[j, k] (column k even:
# symmetric about the axis midpoint, odd: antisymmetric), so its product
# with a vector splits into two half-size products: the even modes with the
# folded sum v[j] + v[m-1-j], the odd modes with the folded difference, as
# in the even-odd split of fast cosine transforms.  The folding adds cost
# more than the halved arithmetic saves on short axes, where a product is
# mostly call overhead.  A whole flow step is slower folded at 96 and 100
# cells and faster from 104 on (timed on one core at 96..128 cells), so the
# threshold sits at the crossover.

FOLD_MIN_CELLS = 104


class _Folded(NamedTuple):
    """The parity blocks of an eigenbasis of m points: the even modes on
    the first ceil(m/2) points and the odd modes on the first floor(m/2)."""

    even: np.ndarray
    odd: np.ndarray


@lru_cache(maxsize=32)
def _folded_eigenbasis(n: int, h: float, bc: str
                       ) -> tuple[_Folded, np.ndarray]:
    """The parity blocks of ``_eigenbasis(n, h, bc)`` and its eigenvalues in
    [even | odd] mode order; the full basis is not kept."""
    Q, lam = _eigenbasis.__wrapped__(n, h, bc)
    m = len(lam)
    blocks = _Folded(Q[:(m + 1) // 2, 0::2].copy(), Q[:m // 2, 1::2].copy())
    lam = np.concatenate((lam[0::2], lam[1::2]))
    for arr in (*blocks, lam):
        arr.setflags(write=False)
    return blocks, lam


def _axis_basis(n: int, h: float, bc: str):
    """The basis a solve applies along an axis of ``n`` cells, with its
    eigenvalues: folded from FOLD_MIN_CELLS cells (or nodes) on."""
    m = n - 1 if bc == "nodal0" else n
    if m >= FOLD_MIN_CELLS:
        return _folded_eigenbasis(n, h, bc)
    return _eigenbasis(n, h, bc)


def _to_modes(v: np.ndarray, basis) -> np.ndarray:
    """(Q^T v)^T: the coefficients of the columns of ``v`` in the basis,
    with the modes along axis 1."""
    if not isinstance(basis, _Folded):
        return v.T @ basis
    even, odd = basis
    he, h2 = len(even), len(odd)
    flip = v[::-1]
    s = v[:he] + flip[:he]
    if he > h2:
        s[h2] = v[h2]       # the middle point folds onto itself once
    out = np.empty(v.shape[::-1])
    np.matmul(s.T, even, out=out[:, :he])
    np.matmul((v[:h2] - flip[:h2]).T, odd, out=out[:, he:])
    return out


def _from_modes(c: np.ndarray, basis) -> np.ndarray:
    """Q c^T: the values, along axis 0, of the modes on axis 1 of ``c``."""
    if not isinstance(basis, _Folded):
        return basis @ c.T
    even, odd = basis
    he, h2 = len(even), len(odd)
    p = even @ c[:, :he].T
    q = odd @ c[:, he:].T
    out = np.empty((he + h2, len(c)))
    np.add(p[:h2], q, out=out[:h2])
    np.subtract(p[:h2], q, out=out[::-1][:h2])
    if he > h2:
        out[h2] = p[h2]
    return out


@lru_cache(maxsize=32)
def _solve_plan(ny: int, nx: int, hy: float, hx: float, shift: float,
                scale: float, bc: str) -> tuple:
    """Read-only (basis y, basis x, denominator) of the operator
    shift*I - scale*lap_h with boundary condition ``bc``; a basis is an
    array Q or, on a long axis, its ``_Folded`` blocks, with the
    denominator's modes in the same order.  The singular Neumann problem
    (shift = 0) divides its constant mode, index 0 in either order, by
    inf."""
    if bc not in ("neumann0", "dirichlet0", "nodal0"):
        raise ValueError(f"unknown bc {bc!r}")
    Qy, lam_y = _axis_basis(ny, hy, bc)
    Qx, lam_x = _axis_basis(nx, hx, bc)
    denom = shift + scale * (lam_y[:, None] + lam_x[None, :])
    if shift == 0.0 and bc == "neumann0":
        denom[0, 0] = np.inf
    denom.setflags(write=False)
    return Qy, Qx, denom


def solve_spectral(grid: Grid, b: np.ndarray, shift: float, scale: float,
                   bc: str) -> np.ndarray:
    """Exact solution of (shift*I - scale*lap_h) x = b on the grid.

    ``bc`` is ``"neumann0"`` (zero-flux faces, cosine modes),
    ``"dirichlet0"`` (half-cell Dirichlet faces, sine modes), both on the
    (ny, nx) cells, or ``"nodal0"`` (the 5-point Laplacian on the
    (ny-1, nx-1) interior nodes with zero wall values, nodal sine modes).
    The solve is four matrix products with the cached 1-D eigenbases,
    x = Qy ((Qy^T b Qx) / symbol) Qx^T, where the bases and the symbol come
    from one cached plan per operator; a folded axis makes each of its two
    products as two half-size ones.  For the singular Neumann problem
    (shift = 0) the constant mode of the solution is set to zero, which
    solves the problem restricted to mean-zero data.  A zero right-hand
    side returns zeros without a product.
    """
    ny, nx = grid.shape
    Qy, Qx, denom = _solve_plan(ny, nx, grid.hy, grid.hx, shift, scale, bc)
    if not b.any():
        return np.zeros(b.shape)
    if not isinstance(Qy, _Folded) and not isinstance(Qx, _Folded):
        return Qy @ ((Qy.T @ b @ Qx) / denom) @ Qx.T
    coef = _to_modes(_to_modes(b, Qy), Qx)
    return _from_modes(_from_modes(coef / denom, Qx), Qy)


# ---------------------------------------------------------------------------
# heat steps (array-level cores plus field-level wrappers)

def _heat_explicit_part(grid: Grid, u: np.ndarray, forcing: np.ndarray,
                        dt: float, theta: float) -> np.ndarray:
    """Right-hand side of the theta heat step without the boundary source."""
    rhs = u + dt * forcing
    if theta < 1.0:
        rhs = rhs + (1.0 - theta) * dt * _lap_zero_flux(grid, u)
    return rhs


def _imposed_source_gap(grid: Grid, x: np.ndarray, explicit: np.ndarray,
                        src: np.ndarray, dt: float, theta: float) -> float:
    """h * max |source recovered from the solution x - src|, h = max(hx, hy)."""
    recovered = (x - theta * dt * _lap_zero_flux(grid, x) - explicit) / dt
    gap = np.abs(recovered - src).max()
    return max(grid.hx, grid.hy) * float(gap)


def neumann_heat_core(grid: Grid, u: np.ndarray, b: BoundaryData,
                      forcing: np.ndarray, dt: float, theta: float = 1.0,
                      residual: bool = False):
    """One theta step of du/dt = lap(u) + forcing with boundary flux b.

    Solves (I - theta*dt*L0) u' = u + (1-theta)*dt*L0 u
                                  + dt*(forcing + boundary source).
    The prescribed flux enters once (weight 1) as boundary source data.
    With ``residual`` returns (u', boundary_source_residual of u'), the
    residual built from this solve's own explicit part and source.
    """
    explicit = _heat_explicit_part(grid, u, forcing, dt, theta)
    src = _boundary_source(grid, b)
    x = solve_spectral(grid, explicit + dt * src, 1.0, theta * dt, "neumann0")
    if not residual:
        return x
    return x, _imposed_source_gap(grid, x, explicit, src, dt, theta)


def boundary_source_residual(grid: Grid, u: np.ndarray, x: np.ndarray,
                             b: BoundaryData, forcing: np.ndarray, dt: float,
                             theta: float = 1.0) -> float:
    """How far the heat step ``x`` of ``u`` is from imposing boundary flux b.

    Recovers the cell source the solve actually imposed,
    (x - theta*dt*L0 x - u - (1-theta)*dt*L0 u - dt*forcing) / dt, and
    returns max over cells of h * |recovered - boundary source of b|, with
    h = max(hx, hy), in the units of a face flux.  For ``x`` from
    ``neumann_heat_core`` with the same arguments this is rounding error.
    """
    return _imposed_source_gap(
        grid, x, _heat_explicit_part(grid, u, forcing, dt, theta),
        _boundary_source(grid, b), dt, theta)


def step_neumann_heat(U: ScalarField, F_B: VectorField, F_E: ScalarField,
                      dt: float, theta: float = 1.0) -> ScalarField:
    """Implicit heat step with divergence-form forcing and inhomogeneous flux.

    Advances ``U`` by one theta step of
        du/dt = lap(u) - div(F_B) + F_E,   grad(u).nu = F_B.nu on the boundary,
    where div(F_B) and the boundary flux come from the same face-normal
    representation of F_B, so the cell mean of U is preserved exactly
    (discrete Gauss identity) whenever integrate(F_E) = 0.
    """
    g = U.grid
    check_same_grid(U, F_B, F_E)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    require_finite(U.values, "U")
    fe_norm = float(np.sqrt((F_E.values ** 2).sum() * g.cell_volume))
    if abs(integrate(F_E)) > 1e-8 * max(fe_norm, 1e-300):
        raise ValueError("F_E violates the mean-zero precondition")
    fx, fy = face_normal_values(F_B)
    b = BoundaryData.from_faces(fx, fy)
    forcing = -face_divergence(g, fx, fy) + F_E.values
    return ScalarField(g, neumann_heat_core(g, U.values, b, forcing, dt, theta))


def shifted_heat_core(grid: Grid, c: np.ndarray, rhs_src: np.ndarray,
                      dt: float, theta: float = 1.0) -> np.ndarray:
    """One theta step of dc/dt = lap(c) - c + rhs_src with zero flux."""
    td = theta * dt
    rhs = c + dt * rhs_src
    if theta < 1.0:
        rhs = rhs + (1.0 - theta) * dt * (_lap_zero_flux(grid, c) - c)
    return solve_spectral(grid, rhs, 1.0 + td, td, "neumann0")


def step_shifted_heat(c: ScalarField, rhs: ScalarField, dt: float,
                      theta: float = 1.0) -> ScalarField:
    """Theta step of the shifted Neumann heat operator (1 - lap)."""
    check_same_grid(c, rhs)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    require_finite(c.values, "c")
    out = shifted_heat_core(c.grid, c.values, rhs.values, dt, theta)
    return ScalarField(c.grid, out)


# ---------------------------------------------------------------------------
# Helmholtz projection and the Stokes step

def _project_core(grid: Grid, fx: np.ndarray, fy: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-free part of face-normal values: the discrete curl of the
    nodal stream function psi with -lap_h psi = curl^T v and psi = 0 on the
    walls.  The wall faces of the result are exactly zero and its
    divergence telescopes to rounding.  Returns (fx', fy').
    """
    ny, nx = grid.shape
    w = ((fy[1:-1, 1:] - fy[1:-1, :-1]) / grid.hx
         - (fx[1:, 1:-1] - fx[:-1, 1:-1]) / grid.hy)   # nodal vorticity
    psi = np.zeros((ny + 1, nx + 1))
    psi[1:-1, 1:-1] = solve_spectral(grid, w, 0.0, 1.0, "nodal0")
    return (psi[1:] - psi[:-1]) / grid.hy, (psi[:, :-1] - psi[:, 1:]) / grid.hx


def helmholtz_project_core(v: VectorField, boundary: str = "extrapolate"
                           ) -> VectorField:
    g = v.grid
    fx, fy = face_normal_values(v, boundary=boundary)
    fx_new, fy_new = _project_core(g, fx, fy)
    # cell-centered correction: the average of the removed face parts
    gpx = fx - fx_new
    gpy = fy - fy_new
    return VectorField(g, v.ux - 0.5 * (gpx[:, 1:] + gpx[:, :-1]),
                       v.uy - 0.5 * (gpy[1:, :] + gpy[:-1, :]), fx_new, fy_new)


def helmholtz_project(v: VectorField) -> VectorField:
    """Project onto discretely divergence-free fields with zero normal trace.

    Returns v - grad(p) where p solves the pressure Poisson problem
    lap(p) = div(v), grad(p).nu = v.nu.  p itself is not formed: the
    face-normal values of the result are the discrete curl of a nodal
    stream function that vanishes on the walls (one exact solve), so their
    finite-volume divergence vanishes to rounding and their boundary values
    vanish exactly.  The cell values subtract the average of the removed
    face gradient.
    """
    require_finite(v.ux, "ux")
    require_finite(v.uy, "uy")
    return helmholtz_project_core(v)


def stokes_core(grid: Grid, ux: np.ndarray, uy: np.ndarray,
                force_x: np.ndarray, force_y: np.ndarray, dt: float
                ) -> VectorField:
    """Chorin split Stokes step on raw arrays."""
    sx = solve_spectral(grid, ux + dt * force_x, 1.0, dt, "dirichlet0")
    sy = solve_spectral(grid, uy + dt * force_y, 1.0, dt, "dirichlet0")
    return helmholtz_project_core(VectorField(grid, sx, sy), boundary="zero")


def step_stokes(u: VectorField, force: VectorField, dt: float) -> VectorField:
    """Implicit Euler Stokes step: no-slip viscous solve, then projection.

    (I - dt*lap) u* = u + dt*force with u* = 0 on the boundary, followed by
    the Helmholtz projection.  The result is discretely divergence-free to
    rounding and has zero normal boundary flux.
    """
    check_same_grid(u, force)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    require_finite(u.ux, "ux")
    require_finite(u.uy, "uy")
    return stokes_core(u.grid, u.ux, u.uy, force.ux, force.uy, dt)
