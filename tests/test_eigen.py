import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ksns import BoundaryData, Grid
from ksns.eigen import _dirichlet_data, lambda_dirichlet, lambda_neumann
from ksns.grid import laplacian_flux_raw


def discrete_neumann_eigenvalue(h, L=1.0):
    # cos(pi x / L) sampled at cell centers is an exact eigenvector of the
    # five-point zero-flux operator with this eigenvalue
    return (4.0 / h ** 2) * np.sin(np.pi * h / (2.0 * L)) ** 2


def test_unit_square_neumann(unit32):
    res = lambda_neumann(unit32)
    assert abs(res.lam - np.pi ** 2) <= 0.05
    assert abs(res.lam - discrete_neumann_eigenvalue(unit32.hx)) <= 1e-6
    assert res.residual <= 1e-8
    assert abs(res.eigenfield.values.mean()) <= 1e-10


def test_unit_square_dirichlet(unit32):
    res = lambda_dirichlet(unit32)
    assert abs(res.lam - 2.0 * np.pi ** 2) <= 0.1
    assert res.residual <= 1e-8


def test_rectangle_2x1(rect2x1):
    rN = lambda_neumann(rect2x1)
    assert abs(rN.lam - np.pi ** 2 / 4.0) <= 0.02
    rD = lambda_dirichlet(rect2x1)
    assert abs(rD.lam - np.pi ** 2 * 1.25) <= 0.1


def test_dirichlet_exceeds_neumann(unit32, rect2x1):
    for g in (unit32, rect2x1):
        assert lambda_dirichlet(g).lam > lambda_neumann(g).lam


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2), st.integers(4, 300),
       st.integers(4, 300))
def test_dirichlet_at_least_twice_neumann(Lx, Ly, nx, ny):
    # lambda_D = sx + sy >= 2 min(sx, sy) = 2 lambda_N, so a rate below
    # lambda_N/q is also below lambda_D/q, and validate_rates checks the
    # first window alone
    g = Grid(Lx, Ly, nx, ny)
    assert lambda_dirichlet(g).lam >= 2 * lambda_neumann(g).lam * (1 - 1e-12)


def test_dirichlet_domain_monotonicity(unit32, rect2x1):
    # the unit square is contained in the 2x1 rectangle
    assert lambda_dirichlet(unit32).lam > lambda_dirichlet(rect2x1).lam


def test_rayleigh_quotient_consistency(unit32):
    res = lambda_neumann(unit32)
    v = res.eigenfield.values
    lap = laplacian_flux_raw(unit32, v, BoundaryData.zeros(unit32))
    rq = float((v * -lap).sum() / (v * v).sum())
    assert abs(rq - res.lam) <= 10.0 * max(res.residual, 1e-15)
    resD = lambda_dirichlet(unit32)
    vD = resD.eigenfield.values
    lapD = laplacian_flux_raw(unit32, vD, _dirichlet_data(unit32, vD))
    rqD = float((vD * -lapD).sum() / (vD * vD).sum())
    assert abs(rqD - resD.lam) <= 10.0 * max(resD.residual, 1e-15)


def test_refinement_is_second_order():
    lams = {}
    for n in (8, 16, 32):
        g = Grid(1.0, 1.0, n, n)
        lams[n] = lambda_neumann(g).lam
    d_coarse = abs(lams[8] - lams[16])
    d_fine = abs(lams[16] - lams[32])
    assert d_coarse <= 4.0 * d_fine + 1e-6

