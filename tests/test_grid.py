from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksns import grid as grid_mod
from ksns import (BoundaryData, Grid, GridMismatchError, ScalarField,
                  VectorField, discrete_norm, integrate,
                  read_field_snapshot, write_field_snapshot)
from ksns.grid import (central_difference, face_divergence, face_gradient,
                       face_values, laplacian_flux_raw)


def random_smooth_field(grid, rng, amp=1.0):
    # a few cosine modes; compatible with zero-flux walls
    X, Y = grid.cell_centers()
    vals = np.zeros(grid.shape)
    for kx, ky in ((1, 0), (0, 1), (1, 1), (2, 1)):
        coef = amp * rng.uniform(-1.0, 1.0)
        vals += coef * np.cos(kx * np.pi * X / grid.Lx) \
            * np.cos(ky * np.pi * Y / grid.Ly)
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# construction

def test_grid_unit_square():
    g = Grid(1.0, 1.0, 4, 4)
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.shape == (4, 4)
    assert g.nx * g.ny == 16


def test_grid_rectangle():
    g = Grid(2.0, 1.0, 8, 4)
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.shape == (4, 8)


# argument tuples, not grids: a bad Grid(...) in the list would raise at
# collection and error this module and test_linstep, which imports it
@pytest.mark.parametrize("args, name", [
    ((0.0, 1.0, 4, 4), "Lx"), ((1.0, -2.0, 4, 4), "Ly"),
    ((np.nan, 1.0, 4, 4), "Lx"), ((1.0, np.inf, 4, 4), "Ly"),
    ((1.0, 1.0, 3, 4), "nx"), ((1.0, 1.0, 4, 0), "ny"),
    ((1.0, 1.0, 4.0, 4), "nx"),
])
def test_grid_rejects_bad_arguments(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        Grid(*args)


def test_total_volume_exact(rect2x1):
    vol = rect2x1.cell_volume * rect2x1.nx * rect2x1.ny
    assert abs(vol - 2.0) <= 1e-12


def test_field_shape_mismatch_raises(unit16):
    with pytest.raises(GridMismatchError):
        ScalarField(unit16, np.zeros((4, 4)))
    with pytest.raises(GridMismatchError):
        VectorField(unit16, np.zeros(unit16.shape), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# integrate

def test_integrate_constants(unit16):
    assert integrate(ScalarField.constant(unit16, 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert integrate(ScalarField.constant(unit16, 0.0)) == 0.0


def test_integrate_linear_exact(unit64):
    # midpoint rule on a linear integrand: sum_i (i+1/2) h * h^2 = 1/2 exactly
    f = ScalarField.from_function(unit64, lambda x, y: x)
    assert integrate(f) == pytest.approx(0.5, abs=1e-14)


def test_integrate_rejects_nan(unit16):
    vals = np.zeros(unit16.shape)
    vals[0, 0] = np.nan
    with pytest.raises(ValueError):
        integrate(ScalarField(unit16, vals))


# ---------------------------------------------------------------------------
# norms

def test_norm_constant(unit32):
    f = ScalarField.constant(unit32, 2.0)
    assert discrete_norm(f, "Lr", 2.0) == pytest.approx(2.0, abs=1e-13)
    # the gradient term of a constant vanishes identically
    assert discrete_norm(f, "W1r", 2.0) == pytest.approx(2.0, abs=1e-13)
    with pytest.raises(ValueError, match="unknown norm kind"):
        discrete_norm(f, "sup")


def test_norm_cosine_l2(unit64):
    # int cos^2(pi x) = 1/2; the midpoint sum is exact for this mode
    f = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    assert discrete_norm(f, "Lr", 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_norm_rejects_small_r(unit16):
    f = ScalarField.constant(unit16, 1.0)
    with pytest.raises(ValueError):
        discrete_norm(f, "Lr", 0.5)
    with pytest.raises(ValueError):
        discrete_norm(f, "W9r", 2.0)


# ---------------------------------------------------------------------------
# cell differences / face divergence

def test_gradient_constant_is_zero(unit16):
    vals = np.full(unit16.shape, 3.0)
    assert np.abs(central_difference(vals, unit16.hx, 1)).max() == 0.0
    assert np.abs(central_difference(vals, unit16.hy, 0)).max() == 0.0


def test_gradient_linear_exact(unit32):
    vals = ScalarField.from_function(unit32, lambda x, y: x).values
    assert np.abs(central_difference(vals, unit32.hx, 1) - 1.0).max() <= 1e-12
    assert np.abs(central_difference(vals, unit32.hy, 0)).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 100), m=st.integers(4, 100), axis=st.sampled_from([0, 1]),
       h=st.floats(0.01, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_face_gradient_and_central_difference_match_explicit_stencils(
        n, m, axis, h, seed):
    # the quadratic ghost layer gives the one-sided second-order closures;
    # the interior differences are bitwise the plain ones
    v = np.random.default_rng(seed).standard_normal((m, n))
    w = v if axis == 1 else v.T
    face = np.empty((w.shape[0], w.shape[1] + 1))
    face[:, 1:-1] = w[:, 1:] - w[:, :-1]
    face[:, 0] = -2 * w[:, 0] + 3 * w[:, 1] - w[:, 2]
    face[:, -1] = 2 * w[:, -1] - 3 * w[:, -2] + w[:, -3]
    cell = np.empty_like(w)
    cell[:, 1:-1] = (w[:, 2:] - w[:, :-2]) / 2
    cell[:, 0] = (-3 * w[:, 0] + 4 * w[:, 1] - w[:, 2]) / 2
    cell[:, -1] = (3 * w[:, -1] - 4 * w[:, -2] + w[:, -3]) / 2
    for got, want in ((face_gradient(v, h, axis), face / h),
                      (central_difference(v, h, axis), cell / h)):
        got = got if axis == 1 else got.T
        assert got.shape == want.shape
        assert np.array_equal(got[:, 1:-1], want[:, 1:-1])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_divergence_constant_field(unit16):
    ny, nx = unit16.shape
    d = face_divergence(unit16, np.ones((ny, nx + 1)), np.zeros((ny + 1, nx)))
    assert np.abs(d).max() == 0.0


def test_face_divergence_telescopes_to_boundary_sum(unit16, rng):
    ny, nx = unit16.shape
    fx = rng.standard_normal((ny, nx + 1))
    fy = rng.standard_normal((ny + 1, nx))
    total = integrate(ScalarField(unit16, face_divergence(unit16, fx, fy)))
    bsum = (fx[:, -1].sum() - fx[:, 0].sum()) * unit16.hy \
        + (fy[-1, :].sum() - fy[0, :].sum()) * unit16.hx
    assert abs(total - bsum) <= 1e-12 * max(1.0, abs(bsum))


# ---------------------------------------------------------------------------
# laplacian with flux

def lap_integral(grid, vals, b):
    return integrate(ScalarField(grid, laplacian_flux_raw(grid, vals, b)))


def test_laplacian_gauss_zero_flux(unit32, rng):
    f = random_smooth_field(unit32, rng)
    assert abs(lap_integral(unit32, f.values, BoundaryData.zeros(unit32))) \
        <= 1e-12


def test_laplacian_gauss_unit_flux():
    for g, perimeter in ((Grid(1.0, 1.0, 16, 16), 4.0),
                         (Grid(2.0, 1.0, 32, 16), 6.0)):
        ones = BoundaryData(np.ones(g.ny), np.ones(g.ny),
                            np.ones(g.nx), np.ones(g.nx))
        assert lap_integral(g, np.zeros(g.shape), ones) == \
            pytest.approx(perimeter, abs=1e-12)


def test_laplacian_constant_annihilation(unit32):
    lap = laplacian_flux_raw(unit32, np.full(unit32.shape, 7.5),
                             BoundaryData.zeros(unit32))
    assert np.abs(lap).max() == 0.0


def test_laplacian_cosine_second_order(unit32, unit64):
    # flux 0 is compatible: d/dx cos(pi x) vanishes at x = 0, 1
    errs = {}
    for g in (unit32, unit64):
        f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x))
        lap = laplacian_flux_raw(g, f.values, BoundaryData.zeros(g))
        errs[g.nx] = np.abs(lap + np.pi ** 2 * f.values).max()
    assert errs[64] <= 2.5e-3              # measured 1.98e-3 at h = 1/64
    order = np.log2(errs[32] / errs[64])
    assert order >= 1.9


def test_laplacian_gauss_random_pairs(unit16, rng):
    # discrete Gauss identity for arbitrary field and flux data
    for _ in range(20):
        f = ScalarField(unit16, rng.standard_normal(unit16.shape))
        b = BoundaryData(left=rng.standard_normal(unit16.ny),
                         right=rng.standard_normal(unit16.ny),
                         bottom=rng.standard_normal(unit16.nx),
                         top=rng.standard_normal(unit16.nx))
        bsum = b.boundary_sum(unit16)
        scale = max(1.0, abs(bsum))
        assert abs(lap_integral(unit16, f.values, b) - bsum) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(Lx=st.floats(0.1, 10.0), Ly=st.floats(0.1, 10.0),
       nx=st.integers(4, 120), ny=st.integers(4, 120),
       seed=st.integers(0, 2 ** 32 - 1))
@example(Lx=1.0, Ly=1.0, nx=80, ny=81, seed=0)
def test_laplacian_gauss_identity_any_grid(Lx, Ly, nx, ny, seed):
    # the identity on any aspect ratio and size, with one even and one odd
    # axis always tried; the gap is scaled as in acceptance criterion 02
    g = Grid(Lx, Ly, nx, ny)
    rng = np.random.default_rng(seed)
    f = ScalarField(g, rng.standard_normal(g.shape))
    b = BoundaryData(left=rng.standard_normal(ny),
                     right=rng.standard_normal(ny),
                     bottom=rng.standard_normal(nx),
                     top=rng.standard_normal(nx))
    bsum = b.boundary_sum(g)
    scale = max(1.0, abs(bsum), b.max_abs() * 2 * (Lx + Ly))
    gap = abs(lap_integral(g, f.values, b) - bsum) / scale
    assert gap <= 1e-12


# ---------------------------------------------------------------------------
# face extraction

def test_face_values_exact_for_linear(unit32):
    v = VectorField.from_functions(unit32, lambda x, y: x, lambda x, y: y)
    fx = face_values(v.ux, 1)
    xf = np.arange(unit32.nx + 1) * unit32.hx
    assert np.abs(fx - xf[None, :]).max() <= 1e-12
    assert abs(fx[0, 0]) <= 1e-12          # boundary extrapolation hits x = 0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 100), m=st.integers(4, 100),
       axis=st.sampled_from([0, 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_interior_face_average_has_zero_walls(n, m, axis, seed):
    # face_values' interior, the two-cell average, with the walls exactly 0
    v = np.random.default_rng(seed).standard_normal((m, n))
    got = grid_mod._interior_face_average(v, axis)
    want = face_values(v, axis)
    mid = (slice(None), slice(1, -1)) if axis == 1 else (slice(1, -1),)
    assert np.array_equal(got[mid], want[mid])
    assert np.array_equal(got[mid], 0.5 * (v[:, 1:] + v[:, :-1]) if axis == 1
                          else 0.5 * (v[1:] + v[:-1]))
    walls = got[:, [0, -1]] if axis == 1 else got[[0, -1]]
    assert walls.tobytes() == np.zeros_like(walls).tobytes()


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_round_trip(tmp_path, unit16, rng):
    f = ScalarField(unit16, rng.standard_normal(unit16.shape))
    path = tmp_path / "snap.csv"
    write_field_snapshot(path, f, "n", 0.125)
    back, name, t = read_field_snapshot(path)
    assert name == "n" and t == 0.125
    assert back.grid.shape == unit16.shape
    np.testing.assert_array_equal(back.values, f.values)


def test_snapshot_header_format(tmp_path, unit16):
    path = tmp_path / "snap.csv"
    write_field_snapshot(path, ScalarField.constant(unit16, 1.0), "c", 2.0)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["16", "16"]
    assert float(header[2]) == 1.0 and float(header[3]) == 1.0
    assert header[4] == "c" and float(header[5]) == 2.0


def test_snapshot_rejects_comma_name(tmp_path, unit16):
    with pytest.raises(ValueError):
        write_field_snapshot(tmp_path / "x.csv",
                             ScalarField.constant(unit16, 0.0), "a,b", 0.0)


def test_snapshot_bytes_match_per_value_format(tmp_path):
    grid = Grid(1.5, 0.75, 7, 5)
    vals = np.random.default_rng(7).standard_normal(grid.shape) \
        * 10.0 ** np.arange(-8, 27, 5)
    vals[0, :5] = (-0.0, 1e-300, 5e-324, -1.7976931348623157e308, 0.1)
    path = tmp_path / "snap.csv"
    write_field_snapshot(path, ScalarField(grid, vals), "n", 0.3)
    expected = "7,5,1.5,0.75,n,0.29999999999999999\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in vals)
    assert path.read_bytes() == expected.encode("utf-8")


# values around the edges of the array path [1e-5, 1e16) and of each
# decade, where log10 may miss the exponent, and exact half-way cases
def _neighbours(v, reach=3):
    out = [v]
    for d in (0.0, np.inf):
        w = v
        for _ in range(reach):
            w = float(np.nextafter(w, d))
            out.append(w)
    return out


_SNAPSHOT_EDGES = [w for v in (1e-5, 1e16) for w in _neighbours(v)]
_TIES = st.integers(-4, 12).flatmap(
    lambda m: st.integers(int(np.ceil(10.0 ** m * 2.0 ** (17 - m))),
                          int(np.floor(10.0 ** (m + 1) * 2.0 ** (17 - m))) - 1)
    .map(lambda k: (2 * (k // 2) + 1) * 2.0 ** (m - 17)))
_SNAPSHOT_VALUES = st.tuples(st.one_of(
    st.floats(width=64),                        # nan, inf, subnormals, +-0
    st.floats(1e-5, 1e16, exclude_max=True),
    st.sampled_from(_SNAPSHOT_EDGES + [1.0 + 2.0 ** -17, 123.5, 0.0, 5e-324]),
    st.integers(-8, 18).flatmap(lambda k: st.sampled_from(_neighbours(10.0 ** k))),
    _TIES,                                      # 18 significant digits, last 5
), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


@settings(max_examples=200, deadline=None)
@example(nx=8, ny=4, fill="drawn", seed=0, block=200,
         pool=[1.0 + 2.0 ** -17, float(np.nextafter(1e15, 0.0)), -0.0,
               float(np.nextafter(1e16, 0.0)), 1e-5, 5e-324, np.nan])
@given(nx=st.integers(4, 40), ny=st.integers(4, 8),
       fill=st.sampled_from(["drawn", "zeros", "negative zeros"]),
       pool=st.lists(_SNAPSHOT_VALUES, min_size=1, max_size=24),
       seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 200))
def test_snapshot_body_is_percent_17g_per_value(tmp_path_factory, nx, ny, fill,
                                                pool, seed, block):
    # byte for byte the per-value "%.17g", on fields mixing every path and
    # exponent in each row, split into blocks of any size
    if fill == "drawn":
        pick = np.random.default_rng(seed).integers(0, len(pool), (ny, nx))
        vals = np.array(pool)[pick]
    else:
        vals = np.full((ny, nx), 0.0 if fill == "zeros" else -0.0)
    path = tmp_path_factory.mktemp("snap") / "snap.csv"
    with mock.patch.object(grid_mod, "_G17_BLOCK", block):
        write_field_snapshot(path, ScalarField(Grid(1.0, 1.0, nx, ny), vals),
                             "n", 0.5)
    body = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                   for row in vals.tolist())
    assert path.read_bytes() == f"{nx},{ny},1,1,n,0.5\n{body}".encode()
