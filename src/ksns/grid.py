"""Rectangular cell-centered grid, discrete calculus, and field snapshots.

Everything downstream (implicit solvers, eigenvalue extraction, the coupled
integrator) builds on the primitives here: midpoint quadrature, difference
operators with one-sided second-order stencils at the boundary, face
values that average the two cells of each interior face, and the one
finite-volume Laplacian, whose wall faces carry a prescribed outward
normal derivative: zero data give the zero-flux Laplacian, -2v/h of the
wall cells the half-cell Dirichlet one.  Each operator is one sliced
stencil on every grid.

Field arrays are indexed ``[j, i]`` with ``j`` running along y and ``i``
along x, matching the snapshot file layout (one row per y line, increasing
y downward in the file).  Snapshot values are written as C's ``%.17g``,
rounded half-even from the exact binary value, so they read back exactly
and identical runs write identical bytes.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

class GridMismatchError(ValueError):
    """A field was combined with a grid it does not belong to."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centered discretization of the rectangle (0, Lx) x (0, Ly)
    split into nx x ny cells.  Raises ValueError unless Lx and Ly are
    finite positive lengths and nx and ny integers of at least 4.

    Attributes
    ----------
    hx, hy : float
        Cell sizes Lx/nx and Ly/ny.
    xc, yc : ndarray
        Cell center coordinates along x (nx,) and y (ny,).
    """

    Lx: float
    Ly: float
    nx: int
    ny: int
    hx: float = field(init=False)
    hy: float = field(init=False)
    xc: np.ndarray = field(init=False)
    yc: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("Lx", "Ly"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a finite positive length, got {v!r}")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {v!r}")
        hx, hy = self.Lx / self.nx, self.Ly / self.ny
        put = object.__setattr__            # the dataclass is frozen
        put(self, "hx", hx)
        put(self, "hy", hy)
        put(self, "xc", (np.arange(self.nx) + 0.5) * hx)
        put(self, "yc", (np.arange(self.ny) + 0.5) * hy)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy

    @property
    def volume(self) -> float:
        return self.Lx * self.Ly

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids X, Y of cell center coordinates, shape (ny, nx)."""
        return np.meshgrid(self.xc, self.yc)


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


def face_gradient(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Normal derivative of a cell-centered array on the faces normal to
    ``axis`` (1: x, 0: y): the compact difference across each face, the
    one-sided second-order stencil (the quadratic ghost) on the walls."""
    p = _ghost_pad(vals, axis)
    return (p[:, 1:] - p[:, :-1] if axis == 1 else p[1:] - p[:-1]) / h


def _central_difference(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    p = _ghost_pad(vals, axis)
    return (p[:, 2:] - p[:, :-2] if axis == 1 else p[2:] - p[:-2]) / (2.0 * h)


def ddx(vals: np.ndarray, hx: float) -> np.ndarray:
    """d/dx: central in the interior, one-sided second order at i=0, nx-1."""
    return _central_difference(vals, hx, 1)


def ddy(vals: np.ndarray, hy: float) -> np.ndarray:
    return _central_difference(vals, hy, 0)


def _interior_face_average(vals: np.ndarray, axis: int) -> np.ndarray:
    """Values of a cell-centered array on the faces normal to ``axis``
    (1: x, 0: y): the average of the two cells on each interior face, and
    exactly 0 on the walls, the no-slip normal trace."""
    shape = list(vals.shape)
    shape[axis] += 1
    out = np.empty(shape)
    v, o = (vals, out) if axis == 1 else (vals.T, out.T)
    mid = o[:, 1:-1]
    np.add(v[:, 1:], v[:, :-1], out=mid)
    mid *= 0.5
    o[:, 0] = 0.0
    o[:, -1] = 0.0
    return out


def face_values(vals: np.ndarray, axis: int) -> np.ndarray:
    """Values of a cell-centered array on the faces normal to ``axis``
    (1: the (ny, nx+1) vertical faces, 0: the (ny+1, nx) horizontal ones):
    interior average, one-sided second-order extrapolation at the walls."""
    out = _interior_face_average(vals, axis)
    v, o = (vals, out) if axis == 1 else (vals.T, out.T)
    o[:, 0] = 1.5 * v[:, 0] - 0.5 * v[:, 1]
    o[:, -1] = 1.5 * v[:, -1] - 0.5 * v[:, -2]
    return out


def face_normal_values(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Face-normal values of a vector field: the stored face arrays when
    present, otherwise ``face_values`` of the cell-centered components."""
    if v.fx is not None and v.fy is not None:
        return v.fx, v.fy
    return face_values(v.ux, 1), face_values(v.uy, 0)


def face_divergence(grid: Grid, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Exact finite-volume divergence of face-normal values."""
    return (fx[:, 1:] - fx[:, :-1]) / grid.hx + (fy[1:, :] - fy[:-1, :]) / grid.hy


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


def negative_part_energy(f: ScalarField) -> float:
    """Integral of the squared negative part; zero iff the field is >= 0."""
    neg = np.minimum(f.values, 0.0)
    return float((neg ** 2).sum()) * f.grid.cell_volume


def laplacian_flux_raw(grid: Grid, vals: np.ndarray, b: BoundaryData) -> np.ndarray:
    """Finite-volume Laplacian with prescribed boundary normal derivative.

    For each cell the sum of face-normal diffusive fluxes divided by the
    cell volume: the compact difference across each interior face, the
    prescribed outward normal derivative ``b`` on the wall faces.  Zero
    data give the zero-flux Laplacian and ``b = -2v/h`` of the wall cells
    the half-cell Dirichlet one.  Satisfies the discrete Gauss identity to
    rounding: the integral equals the boundary flux sum.
    """
    gx = np.concatenate((-b.left[:, None], np.diff(vals, axis=1) / grid.hx,
                         b.right[:, None]), axis=1)
    gy = np.concatenate((-b.bottom[None], np.diff(vals, axis=0) / grid.hy,
                         b.top[None]), axis=0)
    return face_divergence(grid, gx, gy)


_NORM_ORDERS = {"Lr": 0, "W1r": 1, "W2r": 2, "W3r": 3}


def discrete_norm(f: ScalarField, kind: str = "Lr", r: float = 2.0) -> float:
    """Discrete norms: ``Lr`` and the Sobolev proxies ``W1r``..``W3r``.

    The W-norms add L^r norms of all difference quotients up to the stated
    order, built from the same one-sided/central stencils as the operators.
    """
    require_finite(f.values, "field")
    g = f.grid
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
# snapshot files: header "nx,ny,Lx,Ly,name,t", then ny rows of nx values,
# each written as C's "%.17g"

def write_field_snapshot(path, f: ScalarField, name: str, t: float) -> None:
    if "," in name:
        raise ValueError("snapshot name must not contain a comma")
    g = f.grid
    vals = f.values
    with open(path, "wb") as fh:
        fh.write(f"{g.nx},{g.ny},{g.Lx:.17g},{g.Ly:.17g},{name},{t:.17g}\n"
                 .encode("utf-8"))
        if not vals.any() and not np.signbit(vals).any():
            fh.write(("0," * (g.nx - 1) + "0\n").encode() * g.ny)
            return
        rows = max(1, _G17_BLOCK // g.nx)
        for j in range(0, g.ny, rows):
            fh.write(_g17_rows(vals[j:j + rows]))


# The body is formatted with numpy, byte for byte as "%.17g" formats each
# value: 17 significant digits rounded half-even from the exact binary
# value, trailing zeros and a bare point dropped, fixed notation for decimal
# exponents -4..16.  A finite |x| in [1e-5, 1e16) and zero take the array
# path; nan, +-inf, subnormals and the rest go through Python's "%.17g".
#
# With E = floor(log10|x|) the digits are the integer nearest |x|*10^(16-E).
# That product is formed exactly, as hi + lo: Dekker's product with 5^(16-E),
# exact in a double while 16 - E <= 22 (fl(1e-5) < 10^-5, so E >= -6), then
# the exact scaling by 2^(16-E).  Each value is laid out in a 32-byte slot:
# col 1 the sign, cols 2-6 the "0.000" of a fixed value below 1, the digits
# at cols 7-23 ("slot") or one col to the right ("shifted", for the digits
# after the point), the point, cols 25-28 a scientific exponent, col 29 the
# separator.  Which bytes a value keeps depends only on E and its count of
# significant digits, so one class index per value picks a template and the
# masks of both digit copies; the zero bytes left over are dropped by one
# boolean gather.

_G17_BLOCK = 4096                   # values per block, to bound temporaries
_G17_EMIN, _G17_EMAX = -6, 15       # decimal exponents of [1e-5, 1e16)
_G17_W = 32                         # bytes per value slot
_G17_ZERO = (_G17_EMAX - _G17_EMIN + 1) * 17
_G17_SLOW = _G17_ZERO + 1


@lru_cache(maxsize=1)
def _digit_tables():
    """ASCII of each 4-digit group as one uint32, of each leading digit
    after three zero bytes, and each group's count of trailing zeros
    (read-only, built by the first snapshot)."""
    group = np.arange(10000)
    ascii4 = np.zeros((10000, 4), np.uint8)
    trailing = np.zeros(10000, np.uint8)
    q = group
    for j in (3, 2, 1, 0):
        q, r = np.divmod(q, 10)
        ascii4[:, j] = r + ord("0")
        trailing += np.divmod(group, 10 ** (4 - j))[1] == 0
    ascii4.flags.writeable = trailing.flags.writeable = False
    lead = np.frombuffer(b"".join(b"\0\0\0%d" % d for d in range(10)), np.uint32)
    return ascii4.view(np.uint32).ravel(), trailing, lead


@lru_cache(maxsize=1)
def _slot_tables():
    """Template, slot mask and shifted mask of each class
    (E - _G17_EMIN) * 17 + (digits - 1), then of zero and of the slow path
    (read-only, built by the first snapshot)."""
    tpl, keep_slot, keep_shifted = (bytearray(_G17_W * (_G17_SLOW + 1))
                                    for _ in range(3))
    for e in range(_G17_EMIN, _G17_EMAX + 1):
        for nd in range(1, 18):
            o = ((e - _G17_EMIN) * 17 + nd - 1) * _G17_W
            if e < -4:                      # d.ddd...e-0X
                split, kept = 1, nd
                tpl[o + 25:o + 29] = b"e%+03d" % e
            elif e < 0:                     # 0.000ddd...
                split, kept = 17, nd
                tpl[o + 2:o + 3 - e] = b"0." + b"0" * (-e - 1)
            else:                           # ddd.ddd...
                split, kept = e + 1, max(nd, e + 1)
            head = min(kept, split)
            keep_slot[o + 7:o + 7 + head] = b"\xff" * head
            if kept > split:
                tpl[o + 7 + split] = ord(".")
                keep_shifted[o + 8 + split:o + 8 + kept] = b"\xff" * (kept - split)
    tpl[_G17_ZERO * _G17_W + 7] = ord("0")
    return tuple(np.frombuffer(bytes(b), np.uint32).reshape(-1, _G17_W // 4)
                 for b in (tpl, keep_slot, keep_shifted))


_POW5 = 5.0 ** np.arange(23)         # exact: 5^22 < 2^53
_POW2 = 2.0 ** np.arange(23)


def _veltkamp(a):
    """Split doubles into halves of at most 26 bits each, a = hi + lo."""
    c = 134217729.0 * a             # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW5_HI, _POW5_LO = _veltkamp(_POW5)


def _times_pow10(a, k):
    """a * 10^k as hi + lo exactly, for 0 <= k <= 22 and a < 1e16 (Dekker,
    Numer. Math. 18, 1971: the product needs no FMA)."""
    ah, al = _veltkamp(a)
    hi = a * np.take(_POW5, k)
    bh = np.take(_POW5_HI, k)
    bl = np.take(_POW5_LO, k)
    lo = ah * bh - hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    scale = np.take(_POW2, k)
    hi *= scale
    lo *= scale
    return hi, lo


def _g17_rows(vals: np.ndarray) -> bytes:
    """The snapshot body of the rows ``vals``, equal to "%.17g" per value."""
    ny, nx = vals.shape
    x = vals.ravel()
    a = np.abs(x)
    fast = (a >= 1e-5) & (a < 1e16)
    a[~fast] = 1.0                  # keeps log10 quiet; zero or slow class below
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, 16 - e)
    # next to a power of ten log10 may miss by one: move hi + lo into
    # [10^16, 10^17).  The rounding below cannot reach 10^17, since no double
    # in the range lies within 5e-18 relative below a power of ten.
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    step -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - e[fix])
    # hi > 2^53 is an even integer, so rint(lo) rounds hi + lo half-even
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    digits4, trailing_zeros4, lead4 = _digit_tables()
    slot = np.zeros((x.size, _G17_W // 4), np.uint32)
    first, rest = np.divmod(digits, 10 ** 16)
    slot[:, 1] = np.take(lead4, first)
    g1, rest = np.divmod(rest, 10 ** 12)
    g2, rest = np.divmod(rest, 10 ** 8)
    g3, g4 = np.divmod(rest, 10 ** 4)
    for col, g in enumerate((g1, g2, g3, g4), start=2):
        slot[:, col] = np.take(digits4, g)
    zeros = np.take(trailing_zeros4, g4)
    below = g4 == 0
    for g in (g3, g2, g1):
        zeros += below * np.take(trailing_zeros4, g)
        below &= g == 0
    shifted = np.empty_like(slot)
    flat = shifted.view(np.uint8).reshape(-1)
    flat[0] = 0
    flat[1:] = slot.view(np.uint8).reshape(-1)[:-1]

    cls = (e - _G17_EMIN) * 17 + (16 - zeros)
    cls[~fast] = _G17_SLOW
    cls[x == 0.0] = _G17_ZERO
    template, keep_slot, keep_shifted = _slot_tables()
    slot &= np.take(keep_slot, cls, axis=0)
    shifted &= np.take(keep_shifted, cls, axis=0)
    slot |= shifted
    slot |= np.take(template, cls, axis=0)
    out = slot.view(np.uint8)
    out[:, 1] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    sep = out.reshape(ny, nx, _G17_W)[:, :, 29]
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    slow = np.flatnonzero(~fast & (x != 0.0))
    if slow.size:
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], "S24")
        out[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    return out[out != 0].tobytes()


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
    grid = Grid(Lx, Ly, nx, ny)
    return ScalarField(grid, vals), name, t
