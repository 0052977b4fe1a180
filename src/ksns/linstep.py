"""Implicit linear substeps: Neumann heat with prescribed boundary flux,
the shifted Neumann heat operator, and a Chorin-projected Stokes step,
whose projection reads the no-slip faces of the viscous solution: the
interior face averages, exactly 0 on the walls.

Every implicit operator has the form ``shift*I - scale*lap_h`` with constant
coefficients, so ``solve_spectral`` solves it exactly in the eigenbasis of
the 1-D discrete Laplacian: cosines for zero-flux cell faces, sines for
half-cell Dirichlet faces (the cell lap_h is ``grid.laplacian_flux_raw``
with zero or half-cell Dirichlet wall data), and nodal sines for the
stream function of the Helmholtz projection, which vanishes on the walls.
Each operator has one cached, read-only plan (its two bases and the symbol
the solve divides by), keyed on the grid, the coefficients and the boundary
condition: built by its first solve and reused by every later one.  An axis
of at least ``FOLD_MIN_CELLS`` cells or nodes holds its basis as two
half-size parity blocks, which halve the arithmetic of its products.
Each operator is one function on raw arrays, the one the integrator calls.
Every step is implicit Euler.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (BoundaryData, Grid, VectorField, _boundary_source,
                   _interior_face_average, face_normal_values)


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
    denominator's modes in the same order.  The zero-flux operator without
    a shift is singular (its constant mode has symbol 0) and raises
    ValueError."""
    if bc not in ("neumann0", "dirichlet0", "nodal0"):
        raise ValueError(f"unknown bc {bc!r}")
    if shift == 0.0 and bc == "neumann0":
        raise ValueError("the zero-flux operator needs a nonzero shift")
    Qy, lam_y = _axis_basis(ny, hy, bc)
    Qx, lam_x = _axis_basis(nx, hx, bc)
    denom = shift + scale * (lam_y[:, None] + lam_x[None, :])
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
    products as two half-size ones.  ``"neumann0"`` needs a nonzero
    ``shift``: without one the operator is singular and the solve raises
    ValueError.
    """
    ny, nx = grid.shape
    Qy, Qx, denom = _solve_plan(ny, nx, grid.hy, grid.hx, shift, scale, bc)
    if not isinstance(Qy, _Folded) and not isinstance(Qx, _Folded):
        return Qy @ ((Qy.T @ b @ Qx) / denom) @ Qx.T
    coef = _to_modes(_to_modes(b, Qy), Qx)
    return _from_modes(_from_modes(coef / denom, Qx), Qy)


# ---------------------------------------------------------------------------
# heat steps

def neumann_heat_core(grid: Grid, u: np.ndarray, b: BoundaryData | None,
                      forcing: np.ndarray | None, dt: float) -> np.ndarray:
    """One implicit Euler step of du/dt = lap(u) + forcing, grad(u).nu = b
    on the walls.

    Solves (I - dt*L0) u' = u + dt*(forcing + boundary source) exactly and
    returns u'.  The prescribed flux enters once (weight 1) as boundary
    source data, so the integral of u changes by dt*(integral of forcing +
    b.boundary_sum) to rounding.  A ``b`` or ``forcing`` of None is zero:
    the density step passes its whole right-hand side as ``u``
    (``integrator.density_rhs``), with no wall data.
    """
    rhs = u
    if forcing is not None:
        rhs = rhs + dt * forcing
    if b is not None:
        rhs = rhs + dt * _boundary_source(grid, b)
    return solve_spectral(grid, rhs, 1.0, dt, "neumann0")


def shifted_heat_core(grid: Grid, c: np.ndarray, rhs_src: np.ndarray,
                      dt: float) -> np.ndarray:
    """One implicit Euler step of dc/dt = lap(c) - c + rhs_src with zero
    flux."""
    return solve_spectral(grid, c + dt * rhs_src, 1.0 + dt, dt, "neumann0")


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


def helmholtz_project_core(v: VectorField) -> VectorField:
    """Project onto discretely divergence-free fields with zero normal trace.

    Returns v - grad(p) with lap(p) = div(v), grad(p).nu = v.nu, p not
    formed: the new face values are the discrete curl of a nodal stream
    function vanishing on the walls (``_project_core``), the cell values
    subtract the average of the removed face parts.  Face values ``v`` does
    not carry come from ``face_normal_values``.
    """
    g = v.grid
    fx, fy = face_normal_values(v)
    fx_new, fy_new = _project_core(g, fx, fy)
    # cell-centered correction: the average of the removed face parts
    gpx = fx - fx_new
    gpy = fy - fy_new
    return VectorField(g, v.ux - 0.5 * (gpx[:, 1:] + gpx[:, :-1]),
                       v.uy - 0.5 * (gpy[1:, :] + gpy[:-1, :]), fx_new, fy_new)


def stokes_core(grid: Grid, ux: np.ndarray, uy: np.ndarray,
                force_x: np.ndarray, force_y: np.ndarray, dt: float
                ) -> VectorField:
    """Implicit Euler Stokes step: the no-slip viscous solve
    (I - dt*lap) u* = u + dt*force, then the Helmholtz projection of u*
    with its no-slip faces: interior averages, 0 on the walls."""
    sx = solve_spectral(grid, ux + dt * force_x, 1.0, dt, "dirichlet0")
    sy = solve_spectral(grid, uy + dt * force_y, 1.0, dt, "dirichlet0")
    return helmholtz_project_core(VectorField(
        grid, sx, sy, _interior_face_average(sx, 1),
        _interior_face_average(sy, 0)))
