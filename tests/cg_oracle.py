"""Jacobi-preconditioned conjugate gradient, kept as an independent oracle.

The package solves every implicit substep exactly with fast cosine and sine
transforms; the tests check those solutions against this matrix-free
iteration, which shares nothing with them but the operators.
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
