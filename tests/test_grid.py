from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksns import grid as grid_mod
from ksns import (BoundaryData, DomainSpec, GridMismatchError, ScalarField,
                  VectorField, build_grid, discrete_norm, divergence,
                  gradient, integrate, laplacian_with_flux,
                  read_field_snapshot, write_field_snapshot)
from ksns.grid import (OUTWARD_NORMALS, SIDES, _lap_zero_flux, ddx, ddy,
                       face_gradient, face_gradient_and_central,
                       face_normal_values, face_values)


def random_smooth_field(grid, rng, amp=1.0):
    # a few cosine modes; compatible with zero-flux walls
    X, Y = grid.cell_centers()
    vals = np.zeros(grid.shape)
    for kx, ky in ((1, 0), (0, 1), (1, 1), (2, 1)):
        coef = amp * rng.uniform(-1.0, 1.0)
        vals += coef * np.cos(kx * np.pi * X / grid.spec.Lx) \
            * np.cos(ky * np.pi * Y / grid.spec.Ly)
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# construction

def test_build_grid_unit_square():
    g = build_grid(DomainSpec(1.0, 1.0, 4, 4))
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.shape == (4, 4)
    assert g.n_boundary_faces == 16
    assert g.nx * g.ny == 16


def test_build_grid_rectangle():
    g = build_grid(DomainSpec(2.0, 1.0, 8, 4))
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.n_boundary_faces == 24


@pytest.mark.parametrize("spec", [
    DomainSpec(0.0, 1.0, 4, 4),
    DomainSpec(1.0, -2.0, 4, 4),
    DomainSpec(1.0, 1.0, 3, 4),
    DomainSpec(1.0, 1.0, 4, 0),
])
def test_build_grid_rejects_bad_spec(spec):
    with pytest.raises(ValueError):
        build_grid(spec)


def test_total_volume_exact(rect2x1):
    vol = rect2x1.cell_volume * rect2x1.nx * rect2x1.ny
    assert abs(vol - 2.0) <= 1e-12


def test_outward_normals_axis_aligned():
    for side in SIDES:
        nx_, ny_ = OUTWARD_NORMALS[side]
        assert abs(nx_ ** 2 + ny_ ** 2 - 1.0) == 0.0
        assert (nx_ == 0.0) != (ny_ == 0.0)  # exactly one nonzero component


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
    assert discrete_norm(f, "sup") == 2.0


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
# gradient / divergence

def test_gradient_constant_is_zero(unit16):
    gf = gradient(ScalarField.constant(unit16, 3.0))
    assert np.abs(gf.ux).max() == 0.0
    assert np.abs(gf.uy).max() == 0.0


def test_gradient_linear_exact(unit32):
    gf = gradient(ScalarField.from_function(unit32, lambda x, y: x))
    assert np.abs(gf.ux - 1.0).max() <= 1e-12
    assert np.abs(gf.uy).max() <= 1e-12


def test_divergence_constant_field(unit16):
    ny, nx = unit16.shape
    v = VectorField(unit16, np.ones((ny, nx)), np.zeros((ny, nx)))
    d = divergence(v)
    assert np.abs(d.values).max() <= 1e-12
    # with face values supplied the telescoping path is used
    v2 = VectorField(unit16, np.ones((ny, nx)), np.zeros((ny, nx)),
                     np.ones((ny, nx + 1)), np.zeros((ny + 1, nx)))
    d2 = divergence(v2)
    assert np.abs(d2.values).max() == 0.0


def test_face_divergence_telescopes_to_boundary_sum(unit16, rng):
    ny, nx = unit16.shape
    v = VectorField(unit16, np.zeros((ny, nx)), np.zeros((ny, nx)),
                    rng.standard_normal((ny, nx + 1)),
                    rng.standard_normal((ny + 1, nx)))
    total = integrate(divergence(v))
    bsum = (v.fx[:, -1].sum() - v.fx[:, 0].sum()) * unit16.hy \
        + (v.fy[-1, :].sum() - v.fy[0, :].sum()) * unit16.hx
    assert abs(total - bsum) <= 1e-12 * max(1.0, abs(bsum))


# ---------------------------------------------------------------------------
# laplacian with flux

def test_laplacian_gauss_zero_flux(unit32, rng):
    f = random_smooth_field(unit32, rng)
    lap = laplacian_with_flux(f, 0.0)
    assert abs(integrate(lap)) <= 1e-12


def test_laplacian_gauss_unit_flux():
    g = build_grid(DomainSpec(1.0, 1.0, 16, 16))
    lap = laplacian_with_flux(ScalarField.constant(g, 0.0), 1.0)
    assert integrate(lap) == pytest.approx(4.0, abs=1e-12)  # |boundary| = 4
    g2 = build_grid(DomainSpec(2.0, 1.0, 32, 16))
    lap2 = laplacian_with_flux(ScalarField.constant(g2, 0.0), 1.0)
    assert integrate(lap2) == pytest.approx(6.0, abs=1e-12)


def test_laplacian_constant_annihilation(unit32):
    lap = laplacian_with_flux(ScalarField.constant(unit32, 7.5), 0.0)
    assert np.abs(lap.values).max() == 0.0


def test_laplacian_cosine_second_order(unit32, unit64):
    # flux 0 is compatible: d/dx cos(pi x) vanishes at x = 0, 1
    errs = {}
    for g in (unit32, unit64):
        f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x))
        lap = laplacian_with_flux(f, 0.0)
        errs[g.nx] = np.abs(lap.values + np.pi ** 2 * f.values).max()
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
        lap = laplacian_with_flux(f, b)
        bsum = b.boundary_sum(unit16)
        scale = max(1.0, abs(bsum))
        assert abs(integrate(lap) - bsum) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(Lx=st.floats(0.1, 10.0), Ly=st.floats(0.1, 10.0),
       nx=st.integers(4, 120), ny=st.integers(4, 120),
       seed=st.integers(0, 2 ** 32 - 1))
@example(Lx=1.0, Ly=1.0, nx=grid_mod.PRODUCT_MAX_CELLS,
         ny=grid_mod.PRODUCT_MAX_CELLS + 1, seed=0)
def test_laplacian_gauss_identity_any_grid(Lx, Ly, nx, ny, seed):
    # the identity on any aspect ratio and size, with the second difference
    # as a product on axes of at most PRODUCT_MAX_CELLS cells and as a
    # stencil above; the gap is scaled as in acceptance criterion 02
    g = build_grid(DomainSpec(Lx, Ly, nx, ny))
    rng = np.random.default_rng(seed)
    f = ScalarField(g, rng.standard_normal(g.shape))
    b = BoundaryData(left=rng.standard_normal(ny),
                     right=rng.standard_normal(ny),
                     bottom=rng.standard_normal(nx),
                     top=rng.standard_normal(nx))
    bsum = b.boundary_sum(g)
    scale = max(1.0, abs(bsum), b.max_abs() * 2 * (Lx + Ly))
    gap = abs(integrate(laplacian_with_flux(f, b)) - bsum) / scale
    assert gap <= 1e-12


def test_laplacian_missing_flux_entries(unit16):
    bad = BoundaryData(left=np.zeros(3), right=np.zeros(unit16.ny),
                       bottom=np.zeros(unit16.nx), top=np.zeros(unit16.nx))
    with pytest.raises(ValueError):
        laplacian_with_flux(ScalarField.constant(unit16, 0.0), bad)


# ---------------------------------------------------------------------------
# face extraction

def test_face_values_exact_for_linear(unit32):
    v = VectorField.from_functions(unit32, lambda x, y: x, lambda x, y: y)
    fx, fy = face_normal_values(v)
    xf = np.arange(unit32.nx + 1) * unit32.hx
    assert np.abs(fx - xf[None, :]).max() <= 1e-12
    assert abs(fx[0, 0]) <= 1e-12          # boundary extrapolation hits x = 0


# ---------------------------------------------------------------------------
# stencils as 1-D operator products

def _both_forms(fn):
    """``fn()`` with every axis on the sliced stencils, then on products."""
    with mock.patch.object(grid_mod, "PRODUCT_MAX_CELLS", 0):
        stencil = fn()
    with mock.patch.object(grid_mod, "PRODUCT_MAX_CELLS", 10 ** 9):
        product = fn()
    return stencil, product


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 100), m=st.integers(4, 100), axis=st.sampled_from([0, 1]),
       Lx=st.floats(0.01, 100.0), Ly=st.floats(0.01, 100.0),
       scale_exp=st.floats(-5.0, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_products_match_sliced_stencils(n, m, axis, Lx, Ly,
                                                scale_exp, seed):
    nx, ny = (n, m) if axis == 1 else (m, n)
    g = build_grid(DomainSpec(Lx, Ly, nx, ny))
    h = g.hx if axis == 1 else g.hy
    v = np.random.default_rng(seed).standard_normal(g.shape) * 10.0 ** scale_exp
    interior = tuple(slice(1, -1) if a == axis else slice(None) for a in (0, 1))
    first_order = {
        "face_values": lambda: face_values(v, axis),
        "face_gradient": lambda: face_gradient(v, h, axis),
        "central": lambda: ddx(v, h) if axis == 1 else ddy(v, h),
    }
    for name, fn in first_order.items():
        stencil, product = _both_forms(fn)
        assert product.shape == stencil.shape, name
        # two terms of weight +-1 add with the stencil's one rounding
        assert np.array_equal(product[interior], stencil[interior]), name
        assert np.abs(product - stencil).max() <= 1e-14 * np.abs(stencil).max(), name
    # the stencil divides by h between its two differences: rounding only
    stencil, product = _both_forms(lambda: _lap_zero_flux(g, v))
    assert np.abs(product - stencil).max() <= 1e-14 * np.abs(stencil).max()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 100), m=st.integers(4, 100), axis=st.sampled_from([0, 1]),
       h=st.floats(0.01, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_face_gradient_and_central_are_the_two_primitives(n, m, axis, h, seed):
    v = np.random.default_rng(seed).standard_normal((m, n))
    for patched in (0, 10 ** 9):
        with mock.patch.object(grid_mod, "PRODUCT_MAX_CELLS", patched):
            pair = face_gradient_and_central(v, h, axis)
            central = ddx(v, h) if axis == 1 else ddy(v, h)
            for got, want in zip(pair, (face_gradient(v, h, axis), central)):
                assert got.tobytes() == want.tobytes()


def test_axis_operators_only_for_short_axes():
    limit = grid_mod.PRODUCT_MAX_CELLS
    ops = grid_mod._axis_operators(limit)
    assert ops is grid_mod._axis_operators(limit)        # cached
    assert all(not m.flags.writeable for m in ops)
    assert all(np.array_equal(m, np.round(m)) for m in ops)
    assert grid_mod._axis_operators(limit + 1) is None


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
    grid = build_grid(DomainSpec(1.5, 0.75, 7, 5))
    vals = np.random.default_rng(7).standard_normal(grid.shape) \
        * 10.0 ** np.arange(-8, 27, 5)
    vals[0, :5] = (-0.0, 1e-300, 5e-324, -1.7976931348623157e308, 0.1)
    path = tmp_path / "snap.csv"
    write_field_snapshot(path, ScalarField(grid, vals), "n", 0.3)
    expected = "7,5,1.5,0.75,n,0.29999999999999999\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in vals)
    assert path.read_bytes() == expected.encode("utf-8")
