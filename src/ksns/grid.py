"""Rectangular cell-centered grid, discrete calculus, and field snapshots.

Everything downstream (implicit solvers, eigenvalue extraction, the coupled
integrator) builds on the primitives here: midpoint quadrature, difference
operators with one-sided second-order stencils at the boundary, and a
finite-volume Laplacian whose boundary faces carry a prescribed outward
normal derivative.

Field arrays are indexed ``[j, i]`` with ``j`` running along y and ``i``
along x, matching the snapshot file layout (one row per y line, increasing
y downward in the file).
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

SIDES = ("left", "right", "bottom", "top")
OUTWARD_NORMALS = {
    "left": (-1.0, 0.0),
    "right": (1.0, 0.0),
    "bottom": (0.0, -1.0),
    "top": (0.0, 1.0),
}


class GridMismatchError(ValueError):
    """A field was combined with a grid it does not belong to."""


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned rectangle (0, Lx) x (0, Ly) split into nx x ny cells."""

    Lx: float
    Ly: float
    nx: int
    ny: int

    def validate(self) -> None:
        for name in ("Lx", "Ly"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a finite positive length, got {v!r}")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {v!r}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centered discretization of a DomainSpec.

    Attributes
    ----------
    spec : DomainSpec
    hx, hy : float
        Cell sizes Lx/nx and Ly/ny.
    xc, yc : ndarray
        Cell center coordinates along x (nx,) and y (ny,).
    xf, yf : ndarray
        Cell face coordinates along x (nx+1,) and y (ny+1,).
    """

    spec: DomainSpec
    hx: float
    hy: float
    xc: np.ndarray
    yc: np.ndarray
    xf: np.ndarray
    yf: np.ndarray

    @property
    def nx(self) -> int:
        return self.spec.nx

    @property
    def ny(self) -> int:
        return self.spec.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.spec.ny, self.spec.nx)

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy

    @property
    def volume(self) -> float:
        return self.spec.Lx * self.spec.Ly

    @property
    def n_boundary_faces(self) -> int:
        return 2 * (self.spec.nx + self.spec.ny)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids X, Y of cell center coordinates, shape (ny, nx)."""
        return np.meshgrid(self.xc, self.yc)


def build_grid(spec: DomainSpec) -> Grid:
    """Construct a Grid with consistent face and normal tables.

    Raises ValueError for non-positive lengths or cell counts below 4.
    """
    spec.validate()
    hx = spec.Lx / spec.nx
    hy = spec.Ly / spec.ny
    xc = (np.arange(spec.nx) + 0.5) * hx
    yc = (np.arange(spec.ny) + 0.5) * hy
    xf = np.arange(spec.nx + 1) * hx
    yf = np.arange(spec.ny + 1) * hy
    return Grid(spec=spec, hx=hx, hy=hy, xc=xc, yc=yc, xf=xf, yf=yf)


@dataclass
class ScalarField:
    """A single real value per cell, tied to its grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.cell_centers()
        return cls(grid, np.asarray(fn(X, Y), dtype=float) + np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Cell-centered components, optionally with face-normal values.

    ``fx`` has shape (ny, nx+1): the x-component on each vertical face.
    ``fy`` has shape (ny+1, nx): the y-component on each horizontal face.
    When present they are the authoritative flux representation used by the
    conservative divergence.
    """

    grid: Grid
    ux: np.ndarray
    uy: np.ndarray
    fx: np.ndarray | None = None
    fy: np.ndarray | None = None

    def __post_init__(self):
        self.ux = np.asarray(self.ux, dtype=float)
        self.uy = np.asarray(self.uy, dtype=float)
        ny, nx = self.grid.shape
        if self.ux.shape != (ny, nx) or self.uy.shape != (ny, nx):
            raise GridMismatchError("component shape does not match grid")
        if self.fx is not None:
            self.fx = np.asarray(self.fx, dtype=float)
            if self.fx.shape != (ny, nx + 1):
                raise GridMismatchError("fx shape must be (ny, nx+1)")
        if self.fy is not None:
            self.fy = np.asarray(self.fy, dtype=float)
            if self.fy.shape != (ny + 1, nx):
                raise GridMismatchError("fy shape must be (ny+1, nx)")

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        ny, nx = grid.shape
        return cls(grid, np.zeros((ny, nx)), np.zeros((ny, nx)),
                   np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx)))

    @classmethod
    def from_functions(cls, grid: Grid, fn_x, fn_y) -> "VectorField":
        X, Y = grid.cell_centers()
        z = np.zeros(grid.shape)
        return cls(grid, np.asarray(fn_x(X, Y), dtype=float) + z,
                   np.asarray(fn_y(X, Y), dtype=float) + z)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.ux.copy(), self.uy.copy(),
                           None if self.fx is None else self.fx.copy(),
                           None if self.fy is None else self.fy.copy())

    def magnitude_sup(self) -> float:
        return float(np.sqrt(self.ux ** 2 + self.uy ** 2).max())


@dataclass
class BoundaryData:
    """One real per boundary face, grouped by side.

    Used for prescribed outward normal derivatives (fluxes) in the
    finite-volume Laplacian and for boundary-condition bookkeeping.
    """

    left: np.ndarray
    right: np.ndarray
    bottom: np.ndarray
    top: np.ndarray

    @classmethod
    def zeros(cls, grid: Grid) -> "BoundaryData":
        return cls(np.zeros(grid.ny), np.zeros(grid.ny),
                   np.zeros(grid.nx), np.zeros(grid.nx))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "BoundaryData":
        v = float(value)
        return cls(np.full(grid.ny, v), np.full(grid.ny, v),
                   np.full(grid.nx, v), np.full(grid.nx, v))

    def check_shape(self, grid: Grid) -> None:
        if (self.left.shape != (grid.ny,) or self.right.shape != (grid.ny,)
                or self.bottom.shape != (grid.nx,) or self.top.shape != (grid.nx,)):
            raise ValueError("boundary data shapes do not match grid face counts")

    @classmethod
    def from_faces(cls, fx: np.ndarray, fy: np.ndarray) -> "BoundaryData":
        """Outward normal values on the boundary faces of face-normal arrays."""
        return cls(left=-fx[:, 0], right=fx[:, -1],
                   bottom=-fy[0, :], top=fy[-1, :])

    def boundary_sum(self, grid: Grid) -> float:
        """Sum of flux times face length over all boundary faces."""
        return float((self.left.sum() + self.right.sum()) * grid.hy
                     + (self.bottom.sum() + self.top.sum()) * grid.hx)

    def max_abs(self) -> float:
        return max(float(np.abs(s).max()) for s in
                   (self.left, self.right, self.bottom, self.top))

    def copy(self) -> "BoundaryData":
        return BoundaryData(self.left.copy(), self.right.copy(),
                            self.bottom.copy(), self.top.copy())


def check_same_grid(*fields) -> None:
    """Raise GridMismatchError unless all fields share one grid."""
    first = fields[0].grid
    for f in fields[1:]:
        if f.grid is not first:
            raise GridMismatchError("fields belong to different grids")


def require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains non-finite values")


# ---------------------------------------------------------------------------
# difference stencils (raw arrays)
#
# Numpy runs a ufunc over a column-sliced 2-D view row by row, so on a small
# grid the sliced stencils below cost several times one contiguous pass.  An
# axis of at most PRODUCT_MAX_CELLS cells applies each of them instead as one
# BLAS product with a cached 1-D operator of small-integer entries, then
# divides by h as the stencil does.  The face values, face gradient and
# central difference keep their interior values exactly (two terms of weight
# +-1 add without a second rounding); their wall values and the zero-flux
# second difference (_lap_zero_flux) differ by a few ulp.  A whole IMEX step is
# faster as products up to 80 cells and slower from about 84 on (timed on
# one core at 32..128 cells), so the threshold sits at the crossover.

PRODUCT_MAX_CELLS = 80


class AxisOperators(NamedTuple):
    """1-D operators on n cells, each (n, n_out) with one column per output
    point, so ``vals @ M`` applies one along x (see ``_apply_along``)."""

    interp: np.ndarray          # twice the face values
    face_gradient: np.ndarray   # h times the compact face difference
    central: np.ndarray         # 2h times the central cell difference
    second: np.ndarray          # h^2 times the zero-flux second difference


def _padded_identity(n: int, ghost: tuple[float, ...]) -> np.ndarray:
    """The (n, n+2) map from n cells to the cells plus one ghost per wall,
    the ghost ``sum(ghost[k] * v[k])`` counted from the nearer wall."""
    p = np.zeros((n, n + 2))
    p[np.arange(n), np.arange(1, n + 1)] = 1.0
    k = len(ghost)
    p[:k, 0] = ghost
    p[n - k:, -1] = ghost[::-1]
    return p


@lru_cache(maxsize=32)
def _build_axis_operators(n: int) -> AxisOperators:
    quad = _padded_identity(n, (3.0, -3.0, 1.0))    # as in _ghost_pad
    lin = _padded_identity(n, (2.0, -1.0))          # linear extrapolation
    mirror = _padded_identity(n, (1.0,))            # zero wall flux
    ops = AxisOperators(
        interp=lin[:, 1:] + lin[:, :-1],
        face_gradient=quad[:, 1:] - quad[:, :-1],
        central=quad[:, 2:] - quad[:, :-2],
        second=mirror[:, 2:] - 2.0 * mirror[:, 1:-1] + mirror[:, :-2])
    for m in ops:
        m.setflags(write=False)
    return ops


def _axis_operators(n: int) -> AxisOperators | None:
    """The cached, read-only operators of an axis of ``n`` cells, or None
    when the axis is longer than PRODUCT_MAX_CELLS and keeps the stencils."""
    return _build_axis_operators(n) if n <= PRODUCT_MAX_CELLS else None


def _apply_along(vals: np.ndarray, axis: int, m: np.ndarray) -> np.ndarray:
    """The 1-D operator ``m`` applied along ``axis`` (1: x, 0: y) as one
    product: ``vals @ m`` along x, ``m.T @ vals`` along y."""
    return vals @ m if axis == 1 else m.T @ vals


def _ghost_pad(vals: np.ndarray, axis: int) -> np.ndarray:
    """``vals`` with one quadratic ghost layer on each wall along ``axis``
    (1: x, 0: y).  The ghost ``g = 3(v0 - v1) + v2`` turns the compact face
    difference and the central cell difference into the one-sided
    second-order wall stencils."""
    shape = list(vals.shape)
    shape[axis] += 2
    out = np.empty(shape)
    v, o = (vals, out) if axis == 1 else (vals.T, out.T)
    o[:, 1:-1] = v
    o[:, 0] = 3.0 * (v[:, 0] - v[:, 1]) + v[:, 2]
    o[:, -1] = 3.0 * (v[:, -1] - v[:, -2]) + v[:, -3]
    return out


def _padded_face_gradient(p: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (p[:, 1:] - p[:, :-1] if axis == 1 else p[1:] - p[:-1]) / h


def _padded_central(p: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (p[:, 2:] - p[:, :-2] if axis == 1 else p[2:] - p[:-2]) / (2.0 * h)


def face_gradient(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Normal derivative of a cell-centered array on the faces normal to
    ``axis`` (1: x, 0: y): the compact difference across each face, the
    one-sided second-order stencil (the quadratic ghost) on the walls."""
    ops = _axis_operators(vals.shape[axis])
    if ops is not None:
        return _apply_along(vals, axis, ops.face_gradient) / h
    return _padded_face_gradient(_ghost_pad(vals, axis), h, axis)


def _central_difference(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    ops = _axis_operators(vals.shape[axis])
    if ops is not None:
        return _apply_along(vals, axis, ops.central) / (2.0 * h)
    return _padded_central(_ghost_pad(vals, axis), h, axis)


def face_gradient_and_central(vals: np.ndarray, h: float, axis: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """``face_gradient`` and the central cell difference (``ddx``/``ddy``)
    along ``axis``, equal to theirs: from one ghost pad on a long axis, as
    two products on an axis of at most PRODUCT_MAX_CELLS cells."""
    ops = _axis_operators(vals.shape[axis])
    if ops is not None:
        return (_apply_along(vals, axis, ops.face_gradient) / h,
                _apply_along(vals, axis, ops.central) / (2.0 * h))
    p = _ghost_pad(vals, axis)
    return _padded_face_gradient(p, h, axis), _padded_central(p, h, axis)


def ddx(vals: np.ndarray, hx: float) -> np.ndarray:
    """d/dx: central in the interior, one-sided second order at i=0, nx-1."""
    return _central_difference(vals, hx, 1)


def ddy(vals: np.ndarray, hy: float) -> np.ndarray:
    return _central_difference(vals, hy, 0)


def face_values(vals: np.ndarray, axis: int) -> np.ndarray:
    """Values of a cell-centered array on the faces normal to ``axis``
    (1: the (ny, nx+1) vertical faces, 0: the (ny+1, nx) horizontal ones):
    interior average, one-sided second-order extrapolation at the walls."""
    ops = _axis_operators(vals.shape[axis])
    if ops is not None:
        return _apply_along(vals, axis, ops.interp) * 0.5
    shape = list(vals.shape)
    shape[axis] += 1
    out = np.empty(shape)
    v, o = (vals, out) if axis == 1 else (vals.T, out.T)
    mid = o[:, 1:-1]
    np.add(v[:, 1:], v[:, :-1], out=mid)
    mid *= 0.5
    o[:, 0] = 1.5 * v[:, 0] - 0.5 * v[:, 1]
    o[:, -1] = 1.5 * v[:, -1] - 0.5 * v[:, -2]
    return out


def face_normal_values(v: VectorField, boundary: str = "extrapolate"
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Face-normal values of a vector field.

    Returns the stored face arrays when present; otherwise interpolates the
    cell-centered components (interior average).  Boundary faces use either
    one-sided extrapolation (``"extrapolate"``) or the no-slip value 0
    (``"zero"``).
    """
    if v.fx is not None and v.fy is not None:
        return v.fx, v.fy
    fx = face_values(v.ux, 1)
    fy = face_values(v.uy, 0)
    if boundary == "zero":
        fx[:, 0] = 0.0
        fx[:, -1] = 0.0
        fy[0, :] = 0.0
        fy[-1, :] = 0.0
    elif boundary != "extrapolate":
        raise ValueError(f"unknown boundary mode {boundary!r}")
    return fx, fy


def face_divergence(grid: Grid, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Exact finite-volume divergence of face-normal values."""
    return (fx[:, 1:] - fx[:, :-1]) / grid.hx + (fy[1:, :] - fy[:-1, :]) / grid.hy


def _lap_zero_flux(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """FV Laplacian with homogeneous Neumann (zero-flux) boundary faces.

    An axis of at most ``PRODUCT_MAX_CELLS`` cells applies its second
    difference as one product with the cached 1-D operator."""
    ny, nx = grid.shape
    hx, hy = grid.hx, grid.hy
    ox, oy = _axis_operators(nx), _axis_operators(ny)
    if ox is not None:
        lap_x = (vals @ ox.second) / (hx * hx)
    else:
        gx = np.zeros((ny, nx + 1))
        gx[:, 1:-1] = (vals[:, 1:] - vals[:, :-1]) / hx
        lap_x = (gx[:, 1:] - gx[:, :-1]) / hx
    if oy is not None:
        return lap_x + (oy.second.T @ vals) / (hy * hy)
    gy = np.zeros((ny + 1, nx))
    gy[1:-1, :] = (vals[1:, :] - vals[:-1, :]) / hy
    return lap_x + (gy[1:, :] - gy[:-1, :]) / hy


def _boundary_source(grid: Grid, b: BoundaryData) -> np.ndarray:
    """Cell source from prescribed boundary fluxes: b * face_len / volume."""
    src = np.zeros(grid.shape)
    src[:, 0] += b.left / grid.hx
    src[:, -1] += b.right / grid.hx
    src[0, :] += b.bottom / grid.hy
    src[-1, :] += b.top / grid.hy
    return src


# ---------------------------------------------------------------------------
# public operations

def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the domain."""
    require_finite(f.values, "integrand")
    return float(f.values.sum()) * f.grid.cell_volume


def mean(f: ScalarField) -> float:
    return integrate(f) / f.grid.volume


def gradient(f: ScalarField) -> VectorField:
    """Cell-centered gradient (central interior, one-sided at boundary)."""
    require_finite(f.values, "field")
    g = f.grid
    return VectorField(g, ddx(f.values, g.hx), ddy(f.values, g.hy))


def divergence(v: VectorField) -> ScalarField:
    """Divergence of a vector field.

    Uses exact finite-volume telescoping of the face-normal values when the
    field carries them; otherwise central/one-sided differences of the
    cell-centered components.
    """
    g = v.grid
    if v.fx is not None and v.fy is not None:
        return ScalarField(g, face_divergence(g, v.fx, v.fy))
    require_finite(v.ux, "ux")
    require_finite(v.uy, "uy")
    return ScalarField(g, ddx(v.ux, g.hx) + ddy(v.uy, g.hy))


def laplacian_flux_raw(grid: Grid, vals: np.ndarray, b: BoundaryData) -> np.ndarray:
    """Finite-volume Laplacian with prescribed boundary normal derivative.

    For each cell the sum of face-normal diffusive fluxes divided by the
    cell volume; at boundary faces the face gradient is replaced by the
    prescribed outward normal derivative: the zero-flux Laplacian plus the
    boundary source of ``b``.  Satisfies the discrete Gauss identity to
    rounding: the integral equals the boundary flux sum.
    """
    return _lap_zero_flux(grid, vals) + _boundary_source(grid, b)


def laplacian_with_flux(f: ScalarField, boundary_flux) -> ScalarField:
    """FV Laplacian of ``f`` with boundary flux data (BoundaryData or scalar)."""
    g = f.grid
    require_finite(f.values, "field")
    if isinstance(boundary_flux, (int, float)):
        b = BoundaryData.full(g, float(boundary_flux))
    elif isinstance(boundary_flux, BoundaryData):
        b = boundary_flux
        b.check_shape(g)
    else:
        raise ValueError("boundary_flux must be BoundaryData or a scalar")
    return ScalarField(g, laplacian_flux_raw(g, f.values, b))


_NORM_ORDERS = {"Lr": 0, "W1r": 1, "W2r": 2, "W3r": 3}


def discrete_norm(f: ScalarField, kind: str = "Lr", r: float = 2.0) -> float:
    """Discrete norms: ``Lr``, ``sup``, and Sobolev proxies ``W1r``..``W3r``.

    The W-norms add L^r norms of all difference quotients up to the stated
    order, built from the same one-sided/central stencils as the operators.
    """
    require_finite(f.values, "field")
    g = f.grid
    if kind == "sup":
        return float(np.abs(f.values).max())
    if kind not in _NORM_ORDERS:
        raise ValueError(f"unknown norm kind {kind!r}")
    if r < 1.0:
        raise ValueError(f"norm exponent r must be >= 1, got {r}")
    if not f.values.any():
        return 0.0          # every difference quotient of zero is zero
    order = _NORM_ORDERS[kind]
    vol = g.cell_volume
    total = 0.0
    # derivs[k] holds D^alpha f for |alpha| = k as {(ax, ay): array}
    level = {(0, 0): f.values}
    total += float((np.abs(f.values) ** r).sum()) * vol
    for k in range(1, order + 1):
        new_level = {}
        for (ax, ay), arr in level.items():
            new_level[(ax + 1, ay)] = ddx(arr, g.hx)
            if ax == 0:
                new_level[(ax, ay + 1)] = ddy(arr, g.hy)
        for arr in new_level.values():
            total += float((np.abs(arr) ** r).sum()) * vol
        level = new_level
    return total ** (1.0 / r)


# ---------------------------------------------------------------------------
# snapshot files: header "nx,ny,Lx,Ly,name,t", then ny rows of nx values

def write_field_snapshot(path, f: ScalarField, name: str, t: float) -> None:
    if "," in name:
        raise ValueError("snapshot name must not contain a comma")
    g = f.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.nx},{g.ny},{g.spec.Lx:.17g},{g.spec.Ly:.17g},{name},{t:.17g}\n")
        row = ",".join(["%.17g"] * g.nx) + "\n"
        fh.writelines(row % tuple(r) for r in f.values.tolist())


def read_field_snapshot(path) -> tuple[ScalarField, str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 6:
            raise ValueError(f"malformed snapshot header in {path}")
        nx, ny = int(header[0]), int(header[1])
        Lx, Ly = float(header[2]), float(header[3])
        name, t = header[4], float(header[5])
        vals = np.loadtxt(fh, delimiter=",", ndmin=2)
    if vals.shape != (ny, nx):
        raise ValueError(f"snapshot body shape {vals.shape} does not match header")
    grid = build_grid(DomainSpec(Lx=Lx, Ly=Ly, nx=nx, ny=ny))
    return ScalarField(grid, vals), name, t
