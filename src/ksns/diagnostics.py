"""Quantitative verdicts on runs: mass identities, decay-rate fits,
smallness and weighted solution norms (discrete Sobolev proxies), the
wall condition in the trace sense, the one measurement of it, read on the
initial data and on a run's last state, and the paper's solution map on
whole trajectories, which acceptance criterion 12 iterates.

The smoothness-graded norms here are integer-order difference-quotient
proxies for the interpolation-space norms the analysis works with; they
preserve the homogeneity and ordering that the checks rely on, and are
declared as proxies in the README.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import ScalarField, VectorField, check_same_grid, discrete_norm
# the per-step record is integrator's, which writes every row of it
from .integrator import (SERIES_COLUMNS, DiagnosticsSeries, GivenData,
                         RunOptions, SensitivitySpec, SimState, _advance,
                         _stays_at_rest, run)


@dataclass
class DiagnosticsConfig:
    """Exponents and decay rates used by the weighted norms.

    ``r`` and ``q`` must be finite, exceed 2 and stay off the critical
    line 1/r + 2/q = 1, and 0 <= lambda2 <= lambda1 <= 1 with lambda1 > 0; the
    rate window against the computed Poincare constant is checked by
    ``validate_rates`` once a grid is known.
    """

    r: float = 4.0
    q: float = 4.0
    lambda1: float = 0.5
    lambda2: float = 0.25

    def __post_init__(self):
        if not 2.0 < self.r < math.inf:
            raise ValueError(f"r must be finite and exceed 2 (the space "
                             f"dimension), got {self.r}")
        if not 2.0 < self.q < math.inf:
            raise ValueError(f"q must be finite and exceed 2, got {self.q}")
        if abs(1.0 / self.r + 2.0 / self.q - 1.0) < 1e-12:
            raise ValueError("q must keep 1/r + 2/q off 1, the excluded "
                             "critical line")
        if not 0.0 < self.lambda1 <= 1.0:
            raise ValueError(f"lambda1 must lie in (0, 1], got {self.lambda1}")
        if not 0.0 <= self.lambda2 <= self.lambda1:
            raise ValueError(f"lambda2 must lie in [0, lambda1], "
                             f"got {self.lambda2}")

    def validate_rates(self, lambda_N: float) -> None:
        """Raise ValueError unless lambda1 < min(1, lambda_N/q).  Then
        lambda2 <= lambda1 lies below lambda_D/q too: the discrete
        Dirichlet constant is at least twice the Neumann one."""
        hi1 = min(1.0, lambda_N / self.q)
        if not self.lambda1 < hi1:
            raise ValueError(
                f"lambda1 must lie below min(1, lambda_N/q) = {hi1:.6g}")


# ---------------------------------------------------------------------------
# mass identities

def mass_identity_residuals(series: DiagnosticsSeries, M_n0: float,
                            M_c0: float) -> tuple[float, float]:
    """Sup over recorded times of the two mass residuals.

    The density mass should equal its initial value exactly; the signal
    mass should follow e^{-t} M_c0 + (1 - e^{-t}) M_n0.
    """
    if len(series) == 0:
        raise ValueError("empty diagnostics series")
    t = series.column("t")
    rn = np.abs(series.column("mass_n") - M_n0).max()
    expected = np.exp(-t) * M_c0 + (1.0 - np.exp(-t)) * M_n0
    rc = np.abs(series.column("mass_c") - expected).max()
    return float(rn), float(rc)


# ---------------------------------------------------------------------------
# decay-rate fitting

@dataclass
class DecayFit:
    rate: float
    amplitude: float
    residual: float
    window: tuple[float, float]
    truncated: bool = False


FIT_MIN_SAMPLES = 5


def fit_decay_rate(samples, window: tuple[float, float]) -> DecayFit:
    """Least squares on log(value) = log(amplitude) - rate * t.

    ``samples`` is a sequence of (t, value) pairs; only those inside the
    window are used.  Non-positive values (decayed to the rounding floor)
    truncate the window at the first offender, flagged in the result.
    """
    t_a, t_b = window
    pts = [(float(t), float(v)) for t, v in samples if t_a <= t <= t_b]
    pts.sort(key=lambda p: p[0])
    truncated = False
    kept = []
    for t, v in pts:
        if v <= 0.0:
            truncated = True
            break
        kept.append((t, v))
    if len(kept) < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} positive samples "
                         f"in the window, got {len(kept)}")
    t = np.array([p[0] for p in kept])
    logv = np.log([p[1] for p in kept])
    slope, intercept = np.polyfit(t, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * t + intercept)) ** 2)))
    return DecayFit(rate=float(-slope), amplitude=float(np.exp(intercept)),
                    residual=resid, window=(t[0], t[-1]), truncated=truncated)


# ---------------------------------------------------------------------------
# weighted norms (discrete proxies)

def _vector_wkr(v: VectorField, kind: str, r: float) -> float:
    g = v.grid
    nx = discrete_norm(ScalarField(g, v.ux), kind, r)
    ny = discrete_norm(ScalarField(g, v.uy), kind, r)
    return (nx ** r + ny ** r) ** (1.0 / r)


def smallness_functional(data: GivenData, cfg: DiagnosticsConfig,
                         T_quad: float) -> float:
    """Scalar size of the given data.

    Sums the order-2 proxy norm of n0, the order-3 proxy norm of c0, the
    order-2 proxy norm of u0, and the weighted time-L^q quadrature of the
    forcing (left-endpoint Riemann sum of 256 steps on [0, T_quad]).
    """
    r, q = cfg.r, cfg.q
    total = discrete_norm(data.n0, "W2r", r)
    total += discrete_norm(data.c0, "W3r", r)
    total += _vector_wkr(data.u0, "W2r", r)
    if data.f is not None:
        if T_quad <= 0.0:
            raise ValueError("T_quad must be positive when forcing is present")
        n_steps = 256
        h = T_quad / n_steps
        acc = 0.0
        for k in range(n_steps):
            t = k * h
            fv = data.f(t)
            val = math.exp(cfg.lambda2 * t) * _vector_wkr(fv, "Lr", r)
            acc += val ** q * h
        total += acc ** (1.0 / q)
    return total


def _shifted_parts(state: SimState):
    """The paper's shifted fields: the density minus its initial mean and
    the signal minus (1 - e^{-t}) times that mean.  The shift is the
    continuous one, not the loop's ``gamma``, so the weighted norms do not
    depend on the scheme's constant-mode recursion."""
    gamma = 1.0 - math.exp(-state.t)
    g = state.u.grid
    nt = ScalarField(g, state.n.values - state.n_bar0)
    ct = ScalarField(g, state.c.values - gamma * state.n_bar0)
    return nt, ct, state.u


def weighted_solution_norm(traj, cfg: DiagnosticsConfig) -> float:
    """Discrete proxy of the weighted space-time solution norm.

    Time-L^q sums (left endpoints) of e^{lambda1 t} times the order-2
    proxy of the shifted density and the order-3 proxy of the shifted
    signal, e^{lambda2 t} times the order-2 proxy of the velocity, plus
    backward-difference-in-time terms for the first-order-in-time parts.

    ``traj`` is any iterable of at least two states, read once in time
    order; only the current and the previous state's shifted parts are
    held.
    """
    r, q = cfg.r, cfg.q
    states = iter(traj)
    first = next(states, None)
    if first is None:
        raise ValueError("empty trajectory")
    g = first.u.grid
    prev, t_prev = _shifted_parts(first), first.t
    acc = [0.0, 0.0, 0.0]   # field parts: n, c, u
    accd = [0.0, 0.0, 0.0]  # time-derivative parts
    for s in states:
        cur = _shifted_parts(s)
        dt_k = s.t - t_prev
        if dt_k <= 0.0:
            raise ValueError("trajectory times must be strictly increasing")
        nt0, ct0, u0 = prev
        nt1, ct1, u1 = cur
        w1 = math.exp(cfg.lambda1 * t_prev)
        w2 = math.exp(cfg.lambda2 * t_prev)
        acc[0] += (w1 * discrete_norm(nt0, "W2r", r)) ** q * dt_k
        acc[1] += (w1 * discrete_norm(ct0, "W3r", r)) ** q * dt_k
        acc[2] += (w2 * _vector_wkr(u0, "W2r", r)) ** q * dt_k
        w1 = math.exp(cfg.lambda1 * s.t)
        w2 = math.exp(cfg.lambda2 * s.t)
        dn = ScalarField(g, (nt1.values - nt0.values) / dt_k)
        dc = ScalarField(g, (ct1.values - ct0.values) / dt_k)
        du = VectorField(g, (u1.ux - u0.ux) / dt_k, (u1.uy - u0.uy) / dt_k)
        accd[0] += (w1 * discrete_norm(dn, "Lr", r)) ** q * dt_k
        accd[1] += (w1 * discrete_norm(dc, "W1r", r)) ** q * dt_k
        accd[2] += (w2 * _vector_wkr(du, "Lr", r)) ** q * dt_k
        prev, t_prev = cur, s.t
    if t_prev == first.t:       # later states have later times: none came
        raise ValueError("a trajectory needs at least two states")
    return sum(v ** (1.0 / q) for v in acc) + sum(v ** (1.0 / q) for v in accd)


# ---------------------------------------------------------------------------
# the wall condition in the trace sense

# The cubic through the first four cells from a wall (centres h/2, 3h/2,
# 5h/2 and 7h/2 in): its value at the wall.  h times its inward derivative
# there, (-71, 141, -93, 23) / 24, is written as differences in
# ``wall_condition_residual``, so that it is exactly 0 on a constant.  The
# scheme uses neither stencil.
_WALL_VALUE = np.array([35.0, -35.0, 21.0, -5.0]) / 16.0


def wall_condition_residual(n: ScalarField, c: ScalarField,
                            S: SensitivitySpec) -> tuple[float, float]:
    """(residual, scale) of the wall condition grad(n).nu = n S grad(c).nu
    on the cell values of ``n`` and ``c``: the initial data or a state.

    Each wall's traces come from the cubic through its first four cells:
    the outward normal derivative of n, the wall values of n and c, and the
    tangential derivative of c as the central difference of its wall
    values.  Since grad(c).nu = 0 on the walls, S grad(c).nu is b times
    the tangential derivative of c, with the sign of J nu (``a`` multiplies
    the vanishing normal part).  ``residual`` is the max over the four
    walls of |grad(n).nu - n S grad(c).nu|, and ``scale`` the max of
    |grad(n).nu|, both two cells away from each corner (one on a wall of
    four cells).
    """
    check_same_grid(n, c)
    g = n.grid
    n, c = n.values, c.values
    # the first four cells in from each wall, one row per depth; the normal
    # and tangential spacings; the sign of S grad(c).nu / (b dc/dtangent)
    walls = ((n[:, :4].T, c[:, :4].T, g.hx, g.hy, 1.0),              # x = 0
             (n[:, :-5:-1].T, c[:, :-5:-1].T, g.hx, g.hy, -1.0),     # x = Lx
             (n[:4], c[:4], g.hy, g.hx, -1.0),                       # y = 0
             (n[:-5:-1], c[:-5:-1], g.hy, g.hx, 1.0))                # y = Ly
    residual = scale = 0.0
    for n_in, c_in, h_nu, h_tau, sign in walls:
        m = n_in.shape[1]
        k = min(2, (m - 1) // 2)                # cells kept off each corner
        n0, n1, n2, n3 = n_in[:, k:m - k]
        dn = -(71.0 * (n1 - n0) + 70.0 * (n1 - n2)
               + 23.0 * (n3 - n2)) / (24.0 * h_nu)
        c_wall = _WALL_VALUE @ c_in[:, k - 1:m - k + 1]
        flux = ((sign * S.b / (2.0 * h_tau)) * (c_wall[2:] - c_wall[:-2])
                * (_WALL_VALUE @ n_in[:, k:m - k]))
        residual = max(residual, float(np.abs(dn - flux).max()))
        scale = max(scale, float(np.abs(dn).max()))
    return residual, scale


# ---------------------------------------------------------------------------
# Lipschitz experiment

@dataclass
class LipschitzResult:
    ratio: float
    data_gap: float
    solution_gap: float
    degenerate: bool


def _difference_data(a: GivenData, b: GivenData) -> GivenData:
    g = a.grid
    if a.f is None and b.f is None:
        f_diff = None
    else:
        def f_diff(t):
            fa = a.f(t) if a.f is not None else VectorField.zero(g)
            fb = b.f(t) if b.f is not None else VectorField.zero(g)
            return VectorField(g, fa.ux - fb.ux, fa.uy - fb.uy)
    return GivenData(
        n0=ScalarField(g, a.n0.values - b.n0.values),
        c0=ScalarField(g, a.c0.values - b.c0.values),
        u0=VectorField(g, a.u0.ux - b.u0.ux, a.u0.uy - b.u0.uy),
        phi_grad=a.phi_grad, S=a.S, f=f_diff)


def _differences(traj_a, traj_b):
    """The difference states of two trajectories in shifted variables, pair
    by pair as the weighted norm reads them; a pair of states sampled at
    different times raises ``ValueError``."""
    for k, (sa, sb) in enumerate(zip(traj_a, traj_b)):
        if sa.t != sb.t:
            raise ValueError(f"sample times differ at state {k}: "
                             f"t = {sa.t!r} against {sb.t!r}; use "
                             f"identical T, dt and strides")
        na, ca, _ = _shifted_parts(sa)
        nb, cb, _ = _shifted_parts(sb)
        yield SimState(
            t=sa.t, nt=na.values - nb.values, chi=ca.values - cb.values,
            u=VectorField(sa.u.grid, sa.u.ux - sb.u.ux, sa.u.uy - sb.u.uy),
            gamma=0.0, n_bar0=0.0)


def lipschitz_experiment(base: GivenData, perturbed: GivenData,
                         cfg: DiagnosticsConfig, T: float, dt: float,
                         options: RunOptions, base_trajectory: list[SimState]
                         ) -> LipschitzResult:
    """Ratio of the weighted norm of the trajectory difference to the
    smallness functional of the data difference.

    Runs ``perturbed`` with the stepping (T, dt, ``options``) that gave
    ``base_trajectory``, the run of ``base``, differences the trajectories
    in shifted variables, and guards the 0/0 case (identical data) by
    returning ratio 0 with the degenerate flag set.  A pair of states
    sampled at different times raises ``ValueError``.  The difference
    states are formed pair by pair as the weighted norm reads them, so
    only the two trajectories are held.
    """
    traj_b, _ = run(perturbed, T, dt, options)
    if len(base_trajectory) != len(traj_b):
        raise ValueError("trajectory lengths differ; use identical strides")
    gap = smallness_functional(_difference_data(base, perturbed), cfg,
                               T_quad=T)
    sol = weighted_solution_norm(_differences(base_trajectory, traj_b), cfg)
    if gap < 1e-14:
        return LipschitzResult(ratio=0.0, data_gap=gap, solution_gap=sol,
                               degenerate=True)
    return LipschitzResult(ratio=sol / gap, data_gap=gap, solution_gap=sol,
                           degenerate=False)


# ---------------------------------------------------------------------------
# the solution map on whole trajectories

def _solution_map(data: GivenData, prev: list[SimState], dt: float,
                  options: RunOptions) -> list[SimState]:
    """Phi(prev): one pass over the time grid of ``prev`` from the initial
    state, new[k+1] = _advance(new[k], prev[k]).  The implicit solves
    advance ``new``; the lagged terms are read from ``prev``: the
    chemotactic flux n S grad(c), including its linear part
    n_bar0 S grad(c), the signal's source n, and advection.  Buoyancy takes
    the fresh density of the same pass.  So Phi of the constant trajectory
    nt = chi = 0, u = 0 is the solution of the linear problem, and the
    fixed point of Phi is ``run``'s trajectory."""
    new = [data.initial_state()]
    at_rest = _stays_at_rest(data, new[0].u)
    for w in prev[:-1]:
        new.append(_advance(data.grid, new[-1], w, data, dt, options,
                            at_rest))
    return new


def _solution_map_iterates(data: GivenData, T: float, dt: float,
                           options: RunOptions, cfg: DiagnosticsConfig,
                           iterates: int) -> tuple[list[float], list[float]]:
    """Iterate Phi ``iterates`` times from the constant trajectory.

    Returns (factors, distances).  factors[m - 1] is
    |Phi(T_m) - Phi(T_{m-1})|_W / |T_m - T_{m-1}|_W, with |.|_W the
    weighted norm of difference states and T_0 the constant trajectory (0
    when Phi has reached its fixed point).  distances[m - 1] is the sup
    over the time grid of |nt|, |chi|, |ux| and |uy| of T_m minus ``run``'s
    trajectory.
    """
    ref, _ = run(data, T, dt, replace(options, snapshot_stride=1))
    zero, rest = np.zeros(data.grid.shape), VectorField.zero(data.grid)
    prev = [SimState(s.t, zero, zero, rest, s.gamma, s.n_bar0) for s in ref]
    gaps, distances = [], []
    for _ in range(iterates):
        new = _solution_map(data, prev, dt, options)
        gaps.append(weighted_solution_norm(_differences(new, prev), cfg))
        distances.append(max(float(np.abs(x - y).max()) for a, b in
                             zip(new, ref) for x, y in
                             ((a.nt, b.nt), (a.chi, b.chi),
                              (a.u.ux, b.u.ux), (a.u.uy, b.u.uy))))
        prev = new
    return [b / a if a else 0.0 for a, b in zip(gaps, gaps[1:])], distances
