import math
import tracemalloc

import numpy as np
import pytest

from ksns import ScalarField, VectorField, integrate
from ksns import grid as grid_mod
from ksns.diagnostics import (SERIES_COLUMNS, DiagnosticsConfig,
                              DiagnosticsSeries, _vector_wkr,
                              compatibility_check,
                              fit_decay_rate, lipschitz_experiment,
                              mass_identity_residuals, negative_part_energy,
                              smallness_functional, weighted_solution_norm)
from ksns.integrator import (GivenData, RunOptions, SensitivitySpec, SimState,
                             run)
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
    # the lambda2 window below lambda_D/q follows from this one
    # (test_eigen.py::test_dirichlet_at_least_twice_neumann)
    cfg = DiagnosticsConfig(lambda1=0.5, lambda2=0.25)
    cfg.validate_rates(lambda_N=9.87)
    with pytest.raises(ValueError):
        cfg.validate_rates(lambda_N=1.9)    # min(1, 1.9/4) < 0.5


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


def test_series_csv_bytes_match_per_cell_format(tmp_path):
    # the writer of every cell by str(int(v)) or f"{v:.15g}", kept here
    def per_cell(series, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for i in range(len(series)):
                fh.write(",".join(
                    str(int(series._data[name][i])) if name == "picard_iters"
                    else f"{series._data[name][i]:.15g}"
                    for name in SERIES_COLUMNS) + "\n")

    rng = np.random.default_rng(11)
    s = DiagnosticsSeries()
    specials = (0.0, -0.0, 1e-300, 5e-324, -1.7976931348623157e308, 1e22,
                -3.25, 0.1, 2, 0)
    for i in range(40):
        row = {name: float(v) for name, v in zip(
            SERIES_COLUMNS, rng.standard_normal(len(SERIES_COLUMNS))
            * 10.0 ** rng.integers(-200, 200, len(SERIES_COLUMNS)))}
        row["mass_c"] = specials[i % len(specials)]
        row["sup_u"] = np.float64(row["sup_u"])
        row["min_n"] = i - 20                  # an int in a float column
        row.update(t=1e-3 * (i + 1), picard_iters=(i, np.int64(i), 0)[i % 3])
        s.append(**row)
    path, want = tmp_path / "diag.csv", tmp_path / "want.csv"
    s.to_csv(path)
    per_cell(s, want)
    assert path.read_bytes() == want.read_bytes()


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

    zero_traj = [SimState.from_fields(t, ScalarField.constant(g, 0.0),
                                      ScalarField.constant(g, 0.0),
                                      VectorField.zero(g), 0.0)
                 for t in (0.0, 0.1)]
    assert weighted_solution_norm(zero_traj, cfg) == 0.0
    v1 = weighted_solution_norm(make_traj(1.0), cfg)
    v2 = weighted_solution_norm(make_traj(2.0), cfg)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_zero_velocity_norm_is_zero_without_difference_quotients(
        unit16, monkeypatch):
    calls = []
    for name in ("ddx", "ddy"):
        real = getattr(grid_mod, name)
        monkeypatch.setattr(grid_mod, name,
                            lambda *a, _real=real: calls.append(a) or _real(*a))
    zero = VectorField.zero(unit16)
    for kind in ("Lr", "W1r", "W2r", "W3r"):
        norm = _vector_wkr(zero, kind, 4.0)
        # the full evaluation sums only +0.0 terms
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0
    assert calls == []
    wave = VectorField.from_functions(unit16, lambda x, y: np.cos(np.pi * x),
                                      lambda x, y: 0.0 * x)
    assert _vector_wkr(wave, "W2r", 4.0) > 0.0 and calls    # wrappers seen


def _moving_states(g, n_states, dt=0.01):
    """A one-shot generator of decaying, drifting states built on demand."""
    X, Y = g.cell_centers()
    for k in range(n_states):
        t = k * dt
        decay = math.exp(-t)
        yield SimState(
            t=t, nt=decay * np.cos(np.pi * X + t),
            chi=decay * np.cos(np.pi * Y) * np.cos(np.pi * X),
            u=VectorField(g, decay * np.sin(np.pi * Y), -decay * X * Y),
            gamma=0.0, n_bar0=0.0)


def _indexed_norm_oracle(traj, cfg):
    """The weighted norm over a list, every shifted state held at once:
    the left-endpoint field sums and backward-difference time terms in the
    order the streaming form must reproduce bitwise."""
    from ksns.grid import discrete_norm
    r, q, g = cfg.r, cfg.q, traj[0].u.grid
    parts = [(s.nt, s.chi, s.u) for s in traj]   # gamma = n_bar0 = 0 states
    times = [s.t for s in traj]

    def wkr(ux, uy, kind):
        return (discrete_norm(ScalarField(g, ux), kind, r) ** r
                + discrete_norm(ScalarField(g, uy), kind, r) ** r) ** (1.0 / r)

    acc, accd = [0.0] * 3, [0.0] * 3
    for k in range(1, len(traj)):
        h = times[k] - times[k - 1]
        (n0, c0, u0), (n1, c1, u1) = parts[k - 1], parts[k]
        w1, w2 = (math.exp(cfg.lambda1 * times[k - 1]),
                  math.exp(cfg.lambda2 * times[k - 1]))
        acc[0] += (w1 * discrete_norm(ScalarField(g, n0), "W2r", r)) ** q * h
        acc[1] += (w1 * discrete_norm(ScalarField(g, c0), "W3r", r)) ** q * h
        acc[2] += (w2 * wkr(u0.ux, u0.uy, "W2r")) ** q * h
        w1, w2 = math.exp(cfg.lambda1 * times[k]), math.exp(cfg.lambda2 * times[k])
        dn = ScalarField(g, (n1 - n0) / h)
        dc = ScalarField(g, (c1 - c0) / h)
        accd[0] += (w1 * discrete_norm(dn, "Lr", r)) ** q * h
        accd[1] += (w1 * discrete_norm(dc, "W1r", r)) ** q * h
        accd[2] += (w2 * wkr((u1.ux - u0.ux) / h, (u1.uy - u0.uy) / h,
                             "Lr")) ** q * h
    return sum(v ** (1.0 / q) for v in acc) + sum(v ** (1.0 / q) for v in accd)


def test_weighted_norm_streams_any_iterable_bitwise(unit32):
    cfg = DiagnosticsConfig(lambda1=0.7, lambda2=0.3)
    traj = list(_moving_states(unit32, 12))
    ref = weighted_solution_norm(traj, cfg)
    assert ref > 0.0
    assert ref == _indexed_norm_oracle(traj, cfg)
    assert weighted_solution_norm(iter(traj), cfg) == ref
    assert weighted_solution_norm(tuple(traj), cfg) == ref
    assert weighted_solution_norm(_moving_states(unit32, 12), cfg) == ref
    with pytest.raises(ValueError, match="empty trajectory"):
        weighted_solution_norm(iter(()), cfg)
    with pytest.raises(ValueError, match="strictly increasing"):
        weighted_solution_norm(iter([traj[0], traj[2], traj[1]]), cfg)


def test_weighted_norm_rejects_a_lone_state(unit32):
    cfg = DiagnosticsConfig()
    one = list(_moving_states(unit32, 1))
    for traj in (one, iter(one), _moving_states(unit32, 1)):
        with pytest.raises(ValueError, match="at least two states"):
            weighted_solution_norm(traj, cfg)


def test_weighted_norm_memory_does_not_grow_with_length(unit64):
    # the norm holds the current and previous states only, so its peak
    # over a generator is the same for 20 states as for 80
    cfg = DiagnosticsConfig()
    weighted_solution_norm(_moving_states(unit64, 3), cfg)   # warm caches
    peaks = []
    for n_states in (20, 80):
        tracemalloc.start()
        try:
            weighted_solution_norm(_moving_states(unit64, n_states), cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


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
# compatibility residual

def test_boundary_residual_consistent_hand_built(unit32):
    # n constant, grad(c).nu = 0: both fluxes vanish to O(h^2)
    st = SimState.from_fields(
        0.0, ScalarField.constant(unit32, 1.0),
        ScalarField.from_function(unit32, lambda x, y: np.cos(np.pi * x)),
        VectorField.zero(unit32), 1.0)
    assert compatibility_check(st.n, st.c, SensitivitySpec.identity()) <= 5e-3


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
    opts = RunOptions(snapshot_stride=1)
    traj, _ = run(data, T=0.01, dt=5e-3, options=opts)
    res = lipschitz_experiment(data, data, DiagnosticsConfig(), T=0.01,
                               dt=5e-3, options=opts, base_trajectory=traj)
    assert res.degenerate and res.ratio == 0.0


def test_lipschitz_local_linearity(unit32):
    base = wave_data(unit32, amp=0.01)
    cfg = DiagnosticsConfig()
    opts = RunOptions(snapshot_stride=5)
    base_traj, _ = run(base, T=0.25, dt=5e-3, options=opts)
    fresh, _ = run(base, T=0.25, dt=5e-3, options=opts)
    ratios = []
    for delta in (1e-3, 1e-4):
        pert = wave_data(unit32, amp=0.01 + delta)
        res = lipschitz_experiment(base, pert, cfg, T=0.25, dt=5e-3,
                                   options=opts, base_trajectory=base_traj)
        assert not res.degenerate
        # a second run of the base gives the identical ratio
        assert lipschitz_experiment(base, pert, cfg, T=0.25, dt=5e-3,
                                    options=opts,
                                    base_trajectory=fresh).ratio == res.ratio
        ratios.append(res.ratio)
    assert abs(ratios[0] - ratios[1]) / ratios[1] <= 1e-2


def test_lipschitz_ratio_matches_materialised_difference(unit16):
    # reference: the difference trajectory built as a list up front
    base = wave_data(unit16, amp=0.01, S=SensitivitySpec.rotation(1.0, 0.5))
    pert = wave_data(unit16, amp=0.011, S=SensitivitySpec.rotation(1.0, 0.5))
    cfg = DiagnosticsConfig()
    opts = RunOptions(snapshot_stride=3)
    traj_a, _ = run(base, T=0.06, dt=5e-3, options=opts)
    traj_b, _ = run(pert, T=0.06, dt=5e-3, options=opts)
    diff = []
    for sa, sb in zip(traj_a, traj_b):
        diff.append(SimState(
            t=sa.t,
            nt=(sa.n.values - sa.n_bar0) - (sb.n.values - sb.n_bar0),
            chi=((sa.c.values - (1.0 - math.exp(-sa.t)) * sa.n_bar0)
                 - (sb.c.values - (1.0 - math.exp(-sb.t)) * sb.n_bar0)),
            u=VectorField(unit16, sa.u.ux - sb.u.ux, sa.u.uy - sb.u.uy),
            gamma=0.0, n_bar0=0.0))
    sol = weighted_solution_norm(diff, cfg)
    res = lipschitz_experiment(base, pert, cfg, T=0.06, dt=5e-3, options=opts,
                               base_trajectory=traj_a)
    assert not res.degenerate and sol > 0.0
    assert res.solution_gap == sol
    assert res.ratio == sol / res.data_gap


def test_lipschitz_rejects_mismatched_sample_times(unit16):
    # T = 0.4, dt = 0.02 and T = 0.2, dt = 0.01 both give 21 states
    base = wave_data(unit16, amp=0.01)
    pert = wave_data(unit16, amp=0.011)
    opts = RunOptions(snapshot_stride=1)
    base_traj, _ = run(base, T=0.4, dt=0.02, options=opts)
    assert len(base_traj) == 21
    with pytest.raises(ValueError, match="sample times differ at state 1"):
        lipschitz_experiment(base, pert, DiagnosticsConfig(), T=0.2, dt=0.01,
                             options=opts, base_trajectory=base_traj)
