import math

import numpy as np
import pytest

from ksns import ScalarField, VectorField, integrate
from ksns.diagnostics import (DiagnosticsConfig, DiagnosticsSeries,
                              boundary_residual, compatibility_check,
                              fit_decay_rate, lipschitz_experiment,
                              mass_identity_residuals, negative_part_energy,
                              smallness_functional, weighted_solution_norm)
from ksns.integrator import (GivenData, RunOptions, SensitivitySpec, SimState,
                             run, step)
from test_integrator import wave_data


# ---------------------------------------------------------------------------
# config

def test_config_defaults_valid():
    cfg = DiagnosticsConfig()
    assert cfg.r == 4.0 and cfg.q == 4.0


def test_config_rejects_critical_line():
    # 1/3 + 2/3 = 1 sits exactly on the excluded line
    with pytest.raises(ValueError):
        DiagnosticsConfig(r=3.0, q=3.0)


@pytest.mark.parametrize("kw", [
    dict(r=2.0), dict(q=2.0), dict(lambda1=0.0), dict(lambda1=1.5),
    dict(lambda2=0.9),  # above lambda1
])
def test_config_rejects_bad_exponents(kw):
    with pytest.raises(ValueError):
        DiagnosticsConfig(**kw)


def test_config_rate_windows():
    cfg = DiagnosticsConfig(lambda1=0.5, lambda2=0.25)
    cfg.validate_rates(lambda_N=9.87, lambda_D=19.7)
    with pytest.raises(ValueError):
        cfg.validate_rates(lambda_N=1.9, lambda_D=19.7)   # min(1, 1.9/4) < 0.5
    with pytest.raises(ValueError):
        cfg.validate_rates(lambda_N=9.87, lambda_D=0.9)


# ---------------------------------------------------------------------------
# series

def _dummy_row(t, **over):
    row = dict(t=t, mass_n=2.0, mass_c=1.0, sup_n_dev=0.0, sup_c_dev=0.0,
               sup_u=0.0, min_n=2.0, min_c=1.0, bc_residual=0.0,
               neg_energy_n=0.0, neg_energy_c=0.0, picard_iters=1,
               contraction=0.0)
    row.update(over)
    return row


def test_series_requires_increasing_time():
    s = DiagnosticsSeries()
    s.append(**_dummy_row(0.1))
    with pytest.raises(ValueError):
        s.append(**_dummy_row(0.1))


def test_series_csv_round_trip(tmp_path):
    s = DiagnosticsSeries()
    s.append(**_dummy_row(0.001, mass_n=2.0000000000001, picard_iters=3))
    s.append(**_dummy_row(0.002, contraction=0.125))
    path = tmp_path / "diag.csv"
    s.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ("t,mass_n,mass_c,sup_n_dev,sup_c_dev,sup_u,min_n,min_c,"
                      "bc_residual,neg_energy_n,neg_energy_c,picard_iters,"
                      "contraction")
    back = DiagnosticsSeries.from_csv(path)
    assert len(back) == 2
    np.testing.assert_allclose(back.column("mass_n"), s.column("mass_n"),
                               rtol=1e-12)
    assert back.column("picard_iters")[0] == 3


# ---------------------------------------------------------------------------
# mass identities

def test_mass_identity_empty_series_raises():
    with pytest.raises(ValueError):
        mass_identity_residuals(DiagnosticsSeries(), 1.0, 1.0)


def test_mass_identity_constant_run(unit16):
    data = wave_data(unit16, amp=0.0)
    _, series = run(data, T=0.05, dt=1e-3)
    rn, rc = mass_identity_residuals(series, integrate(data.n0),
                                     integrate(data.c0))
    assert rn <= 1e-10
    assert rc <= 1e-3 * 0.05   # first-order in dt, short horizon


def test_mass_identity_analytic_value(unit16):
    # n0 = 2, c0 = 0: the signal mass at t = 1 is 2 (1 - 1/e) = 1.2642...
    data = wave_data(unit16, n_base=2.0, c_base=0.0, amp=0.0)
    _, series = run(data, T=1.0, dt=1e-3, options=RunOptions(snapshot_stride=200))
    analytic = 2.0 * (1.0 - math.exp(-1.0))
    assert analytic == pytest.approx(1.2642, abs=1e-4)
    mass_c_end = series.column("mass_c")[-1]
    assert abs(mass_c_end - analytic) <= 5e-3
    _, rc = mass_identity_residuals(series, 2.0, 0.0)
    assert rc <= 5e-3


# ---------------------------------------------------------------------------
# decay fit

def test_fit_exact_log_linear():
    t = np.linspace(0.0, 3.0, 40)
    fit = fit_decay_rate(list(zip(t, 5.0 * np.exp(-2.0 * t))), (0.0, 3.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.amplitude == pytest.approx(5.0, rel=1e-12)
    assert fit.residual <= 1e-10
    assert not fit.truncated


def test_fit_constant_samples():
    t = np.linspace(0.0, 1.0, 10)
    fit = fit_decay_rate([(ti, 3.0) for ti in t], (0.0, 1.0))
    assert abs(fit.rate) <= 1e-12


def test_fit_truncates_at_rounding_floor():
    samples = [(0.1 * k, 1e-3 * math.exp(-2.0 * 0.1 * k)) for k in range(20)]
    samples[12] = (1.2, 0.0)    # decayed to the floor
    fit = fit_decay_rate(samples, (0.0, 2.0))
    assert fit.truncated
    assert fit.window[1] < 1.2
    assert fit.rate == pytest.approx(2.0, abs=1e-10)


def test_fit_requires_five_samples():
    with pytest.raises(ValueError):
        fit_decay_rate([(0.0, 1.0), (1.0, 0.5)], (0.0, 1.0))


# ---------------------------------------------------------------------------
# smallness functional and weighted norm

def direct_w2_proxy_oracle(field, r):
    """Independent direct-summation implementation of the order-2 proxy:
    L^r norms of the field and of every difference quotient up to order 2,
    with the same central/one-sided stencils, combined in the r-sum."""
    g = field.grid
    v = field.values
    ny, nx = g.shape

    def dx(a):
        out = np.zeros_like(a)
        for j in range(ny):
            for i in range(nx):
                if i == 0:
                    out[j, i] = (-3 * a[j, 0] + 4 * a[j, 1] - a[j, 2]) / (2 * g.hx)
                elif i == nx - 1:
                    out[j, i] = (3 * a[j, -1] - 4 * a[j, -2] + a[j, -3]) / (2 * g.hx)
                else:
                    out[j, i] = (a[j, i + 1] - a[j, i - 1]) / (2 * g.hx)
        return out

    def dy(a):
        return dx(a.T.copy()).T if g.hx == g.hy else None

    assert g.hx == g.hy
    terms = [v, dx(v), dy(v), dx(dx(v)), dy(dx(v)), dy(dy(v))]
    total = sum((np.abs(t) ** r).sum() * g.cell_volume for t in terms)
    return total ** (1.0 / r)


def test_smallness_zero_data(unit16):
    data = wave_data(unit16, n_base=0.0, c_base=0.0, amp=0.0)
    assert smallness_functional(data, DiagnosticsConfig(), T_quad=1.0) == 0.0


def test_smallness_homogeneity(unit16):
    cfg = DiagnosticsConfig()

    def scaled_data(s):
        g = unit16
        n0 = ScalarField.from_function(g, lambda x, y: s * np.cos(np.pi * x))
        c0 = ScalarField.from_function(g, lambda x, y: s * np.cos(np.pi * y))
        u0 = VectorField.zero(g)

        def f(t):
            w = s * math.exp(-t)
            return VectorField.from_functions(g, lambda x, y: w + 0.0 * x,
                                              lambda x, y: 0.0 * x)
        return GivenData(n0=n0, c0=c0, u0=u0, phi_grad=VectorField.zero(g),
                         S=SensitivitySpec.identity(), f=f)

    v1 = smallness_functional(scaled_data(1.0), cfg, T_quad=2.0)
    v3 = smallness_functional(scaled_data(3.0), cfg, T_quad=2.0)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


def test_smallness_cosine_against_direct_oracle(unit16):
    cfg = DiagnosticsConfig(r=2.000001, q=4.0)   # r = 2 proxy, off the r > 2 gate
    n0 = ScalarField.from_function(unit16, lambda x, y: np.cos(np.pi * x))
    data = GivenData(n0=n0, c0=ScalarField.constant(unit16, 0.0),
                     u0=VectorField.zero(unit16),
                     phi_grad=VectorField.zero(unit16),
                     S=SensitivitySpec.identity())
    got = smallness_functional(data, cfg, T_quad=1.0)
    oracle = direct_w2_proxy_oracle(n0, 2.000001)
    assert got == pytest.approx(oracle, rel=1e-10)
    # the (1 + pi^2 + pi^4) pattern of the analytic seminorms
    analytic = math.sqrt(0.5 * (1.0 + np.pi ** 2 + np.pi ** 4))
    assert got == pytest.approx(analytic, rel=0.05)


def test_weighted_norm_zero_and_homogeneity(unit16):
    cfg = DiagnosticsConfig()
    g = unit16

    def make_traj(s):
        out = []
        for k, t in enumerate((0.0, 0.1, 0.2)):
            out.append(SimState.from_fields(
                t,
                ScalarField.from_function(g, lambda x, y: s * math.exp(-t)
                                          * np.cos(np.pi * x)),
                ScalarField.constant(g, 0.0), VectorField.zero(g), 0.0))
        return out

    zero_traj = [SimState.from_fields(0.0, ScalarField.constant(g, 0.0),
                                      ScalarField.constant(g, 0.0),
                                      VectorField.zero(g), 0.0)]
    assert weighted_solution_norm(zero_traj, cfg) == 0.0
    v1 = weighted_solution_norm(make_traj(1.0), cfg)
    v2 = weighted_solution_norm(make_traj(2.0), cfg)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_weighted_norm_single_snapshot_oracle(unit16):
    # one snapshot contributes its instantaneous proxy norm with unit weight
    from ksns.grid import discrete_norm
    cfg = DiagnosticsConfig()
    nt = ScalarField.from_function(unit16, lambda x, y: np.cos(np.pi * x))
    traj = [SimState.from_fields(0.0, nt, ScalarField.constant(unit16, 0.0),
                                 VectorField.zero(unit16), 0.0)]
    got = weighted_solution_norm(traj, cfg)
    assert got == pytest.approx(discrete_norm(nt, "W2r", 4.0), rel=1e-12)


# ---------------------------------------------------------------------------
# negativity

def test_negativity_fields(unit16):
    g = unit16
    # |domain| = 1
    assert negative_part_energy(ScalarField.constant(g, -1.0)) == \
        pytest.approx(1.0, abs=1e-12)
    assert negative_part_energy(ScalarField.constant(g, 1.0)) == 0.0
    half = ScalarField.from_function(g, lambda x, y: np.where(x < 0.5, -2.0, 3.0))
    assert negative_part_energy(half) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# boundary and compatibility residuals

def test_boundary_residual_stepped_state(unit32):
    data = wave_data(unit32, amp=0.01, S=SensitivitySpec.rotation(1.0, 0.5))
    out = step(data.initial_state(), data, dt=1e-3)
    assert boundary_residual(out, data) <= 1e-12


def test_boundary_residual_consistent_hand_built(unit32):
    # n constant, grad(c).nu = 0: both fluxes vanish to O(h^2)
    data = wave_data(unit32, n_base=1.0, c_base=0.0, amp=0.0)
    st = SimState.from_fields(
        0.0, ScalarField.constant(unit32, 1.0),
        ScalarField.from_function(unit32, lambda x, y: np.cos(np.pi * x)),
        VectorField.zero(unit32), 1.0)
    assert boundary_residual(st, data) <= 5e-3


def test_boundary_residual_detects_violation(unit64):
    # zero diffusive flux against a rotated tangential gradient: residual pi
    data = GivenData(n0=ScalarField.constant(unit64, 1.0),
                     c0=ScalarField.constant(unit64, 0.0),
                     u0=VectorField.zero(unit64),
                     phi_grad=VectorField.zero(unit64),
                     S=SensitivitySpec.rotation(0.0, 1.0))
    st = SimState.from_fields(
        0.0, ScalarField.constant(unit64, 1.0),
        ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x)),
        VectorField.zero(unit64), 1.0)
    res = boundary_residual(st, data)
    assert abs(res - np.pi) <= 0.05


def test_compatibility_check_cases(unit64):
    c0 = ScalarField.from_function(unit64, lambda x, y: np.cos(np.pi * x))
    n_const = ScalarField.constant(unit64, 1.0)
    # S = I: both sides vanish to O(h^2)
    assert compatibility_check(n_const, c0, SensitivitySpec.identity()) <= 2e-3
    # rotated: violated with residual about pi
    res = compatibility_check(n_const, c0, SensitivitySpec.rotation(0.0, 1.0))
    assert abs(res - np.pi) <= 0.05
    # constants: exactly compatible
    assert compatibility_check(n_const, ScalarField.constant(unit64, 2.0),
                               SensitivitySpec.identity()) == 0.0


# ---------------------------------------------------------------------------
# lipschitz experiment

def test_lipschitz_degenerate_guard(unit16):
    data = wave_data(unit16, amp=0.01)
    res = lipschitz_experiment(data, data, DiagnosticsConfig(), T=0.01,
                               dt=5e-3, options=RunOptions(snapshot_stride=1))
    assert res.degenerate and res.ratio == 0.0


def test_lipschitz_local_linearity(unit32):
    base = wave_data(unit32, amp=0.01)
    cfg = DiagnosticsConfig()
    opts = RunOptions(snapshot_stride=5)
    base_traj, _ = run(base, T=0.25, dt=5e-3, options=opts)
    ratios = []
    for delta in (1e-3, 1e-4):
        pert = wave_data(unit32, amp=0.01 + delta)
        res = lipschitz_experiment(base, pert, cfg, T=0.25, dt=5e-3,
                                   options=opts)
        assert not res.degenerate
        # a reused base trajectory gives the identical ratio
        assert lipschitz_experiment(base, pert, cfg, T=0.25, dt=5e-3,
                                    options=opts,
                                    base_trajectory=base_traj).ratio == res.ratio
        ratios.append(res.ratio)
    assert abs(ratios[0] - ratios[1]) / ratios[1] <= 0.2
