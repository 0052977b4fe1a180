"""Jacobi-preconditioned conjugate gradient, kept as an independent oracle.

The package solves every implicit substep exactly in cached cosine and sine
eigenbases; the tests check those solutions, and the stream-function
projection, against this matrix-free iteration, which shares nothing with
them but the operators.
"""

from dataclasses import dataclass

import numpy as np

MAX_CG_ITER = 50000


class SolverError(RuntimeError):
    """A linear solve failed to converge within the iteration cap."""


@dataclass
class LinearSolveReport:
    iterations: int
    final_residual: float
    solver: str


def neg_lap_diag(grid, bc: str) -> np.ndarray:
    """Diagonal of -Laplacian for the given boundary treatment."""
    ny, nx = grid.shape
    if bc == "nodal0":              # interior nodes, zero wall values
        return np.full((ny - 1, nx - 1), 2.0 / grid.hx ** 2 + 2.0 / grid.hy ** 2)
    ax = np.full(nx, 2.0)
    ay = np.full(ny, 2.0)
    if bc == "neumann0":
        ax[0] = ax[-1] = 1.0
        ay[0] = ay[-1] = 1.0
    elif bc == "dirichlet0":
        ax[0] = ax[-1] = 3.0
        ay[0] = ay[-1] = 3.0
    else:
        raise ValueError(f"unknown bc {bc!r}")
    return ax[None, :] / grid.hx ** 2 + ay[:, None] / grid.hy ** 2


def solve_cg(apply_op, rhs: np.ndarray, diag: np.ndarray, tol: float,
             x0: np.ndarray | None = None, max_iter: int = MAX_CG_ITER,
             project_mean: bool = False, tag: str = "cg"
             ) -> tuple[np.ndarray, LinearSolveReport]:
    """Preconditioned conjugate gradient, matrix-free.

    Stops when ||r||_2 <= tol * ||rhs||_2.  With ``project_mean`` the
    constant mode is removed from the iterate and residual after every
    operator application (for the singular zero-flux operators restricted
    to mean-zero data).
    """
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs), LinearSolveReport(0, 0.0, tag)
    x = np.zeros_like(rhs) if x0 is None else x0.astype(float, copy=True)
    if project_mean:
        x -= x.mean()
    r = rhs - apply_op(x)
    if project_mean:
        r -= r.mean()
    target = tol * bnorm
    rnorm = float(np.linalg.norm(r))
    if rnorm <= target:
        return x, LinearSolveReport(0, rnorm / bnorm, tag)
    z = r / diag
    p = z.copy()
    rz = float((r * z).sum())
    for k in range(1, max_iter + 1):
        Ap = apply_op(p)
        if project_mean:
            Ap -= Ap.mean()
        alpha = rz / float((p * Ap).sum())
        x += alpha * p
        r -= alpha * Ap
        if project_mean:
            x -= x.mean()
            r -= r.mean()
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            return x, LinearSolveReport(k, rnorm / bnorm, tag)
        z = r / diag
        rz_new = float((r * z).sum())
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"{tag}: no convergence after {max_iter} iterations "
                      f"(residual {rnorm / bnorm:.3e}, target {tol:.3e})")


def _neg_lap_neumann(grid, p: np.ndarray) -> np.ndarray:
    """-lap_h with zero-flux faces: minus the divergence of the compact
    interior face gradient."""
    gx = np.zeros((p.shape[0], p.shape[1] + 1))
    gx[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.hx
    gy = np.zeros((p.shape[0] + 1, p.shape[1]))
    gy[1:-1, :] = (p[1:, :] - p[:-1, :]) / grid.hy
    return -((gx[:, 1:] - gx[:, :-1]) / grid.hx
             + (gy[1:, :] - gy[:-1, :]) / grid.hy)


def pressure_project_faces(grid, fx: np.ndarray, fy: np.ndarray,
                           tol: float = 1e-14
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Pressure projection of face-normal values by CG.

    With v0 the faces with their wall values set to zero, p solves the
    singular zero-flux problem lap(p) = div(v0) for mean-zero p, and the
    result is v0 - grad(p) on the interior faces, zero on the walls.
    """
    v0x, v0y = fx.copy(), fy.copy()
    v0x[:, [0, -1]] = 0.0
    v0y[[0, -1], :] = 0.0
    div = (v0x[:, 1:] - v0x[:, :-1]) / grid.hx \
        + (v0y[1:, :] - v0y[:-1, :]) / grid.hy
    p, _ = solve_cg(lambda q: _neg_lap_neumann(grid, q), -div,
                    neg_lap_diag(grid, "neumann0"), tol, project_mean=True,
                    tag="pressure-projection")
    v0x[:, 1:-1] -= (p[:, 1:] - p[:, :-1]) / grid.hx
    v0y[1:-1, :] -= (p[1:, :] - p[:-1, :]) / grid.hy
    return v0x, v0y
