"""Smallest Laplacian eigenvalues: the two Poincare constants.

``lambda_neumann`` returns the smallest nonzero eigenvalue of the
zero-flux Laplacian restricted to mean-zero functions, ``lambda_dirichlet``
the smallest eigenvalue with homogeneous Dirichlet data.  Both are closed
forms: the 1-D finite-volume symbols s = 4/h^2 sin^2(pi/2n) give
lambda_N = min(sx, sy) and lambda_D = sx + sy, and the eigenfields are the
first cosine (zero flux) and sine (Dirichlet) modes sampled at the cell
centres, both taken from the eigenbases the implicit solves use.  The
reported residual is ||A psi - lambda psi|| for the Euclidean-normalised
psi, from one application of ``grid.laplacian_flux_raw``: with zero wall
data for the zero-flux operator, with the half-cell Dirichlet data
(0 - psi)/(h/2) for the Dirichlet one.
"""

from dataclasses import dataclass

import numpy as np

from .grid import BoundaryData, Grid, ScalarField, laplacian_flux_raw
from .linstep import _eigenbasis


@dataclass
class EigenResult:
    lam: float
    eigenfield: ScalarField
    residual: float


def _dirichlet_data(grid: Grid, v: np.ndarray) -> BoundaryData:
    """The outward normal derivative (0 - v)/(h/2) of zero Dirichlet data
    half a cell beyond the wall cells of ``v``."""
    sx, sy = 2.0 / grid.hx, 2.0 / grid.hy
    return BoundaryData(-(v[:, 0] * sx), -(v[:, -1] * sx), -(v[0] * sy),
                        -(v[-1] * sy))


def _result(grid: Grid, lam: float, psi: np.ndarray, wall_data) -> EigenResult:
    """(lam, psi) with its residual under -lap_h, wall data from
    ``wall_data(grid, psi)``."""
    psi = psi / np.linalg.norm(psi)
    lap = laplacian_flux_raw(grid, psi, wall_data(grid, psi))
    res = float(np.linalg.norm(-lap - lam * psi))
    vol_norm = np.sqrt(grid.cell_volume)
    return EigenResult(lam=lam, eigenfield=ScalarField(grid, psi / vol_norm),
                       residual=res)


def lambda_neumann(grid: Grid) -> EigenResult:
    """Smallest nonzero eigenvalue of the zero-flux Laplacian.

    The eigenfield is cos(pi x / Lx) or cos(pi y / Ly), whichever direction
    has the smaller symbol (x on a tie); it is mean-zero.  The closed form
    leaves a residual at rounding level.
    """
    ny, nx = grid.shape
    Qx, lam_x = _eigenbasis(nx, grid.hx, "neumann0")
    Qy, lam_y = _eigenbasis(ny, grid.hy, "neumann0")
    if lam_x[1] <= lam_y[1]:
        psi = np.broadcast_to(Qx[:, 1], grid.shape)
    else:
        psi = np.broadcast_to(Qy[:, 1:2], grid.shape)
    return _result(grid, float(min(lam_x[1], lam_y[1])), psi,
                   lambda g, v: BoundaryData.zeros(g))


def lambda_dirichlet(grid: Grid) -> EigenResult:
    """Smallest eigenvalue of the Dirichlet Laplacian, sin(pi x / Lx) *
    sin(pi y / Ly) sampled at the cell centres."""
    ny, nx = grid.shape
    Qx, lam_x = _eigenbasis(nx, grid.hx, "dirichlet0")
    Qy, lam_y = _eigenbasis(ny, grid.hy, "dirichlet0")
    psi = np.outer(Qy[:, 0], Qx[:, 0])
    return _result(grid, float(lam_x[0] + lam_y[0]), psi, _dirichlet_data)
