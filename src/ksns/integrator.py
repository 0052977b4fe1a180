"""Coupled chemotaxis-fluid integrator.

One IMEX step treats diffusion and the (1 - laplacian) shift implicitly and
freezes the chemotactic flux, the signal's source and the advective
transport at the state it starts from.  The three substeps run in the
order density -> signal -> velocity, with the buoyancy forcing consuming
the freshly solved density.  ``_advance`` can also freeze those terms at
another state: ``diagnostics`` iterates the paper's solution map on whole
trajectories that way, and its fixed point is the run's trajectory.

The loop integrates the shifted variables: the density deviation from its
initial mean and the signal minus a scheme-consistent multiple of that
mean.  The multiple follows the same recursion as the constant mode of
the signal equation, so the discrete mass recursion of the signal
itself holds to rounding.  The density solve is a zero-flux one whose
source is the chemotactic flux on the interior faces only, which
conserves total cell mass to rounding (the implicit solves are exact):
see ``density_rhs``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .grid import (BoundaryData, Grid, ScalarField, VectorField,
                   _ghost_pad, _interior_face_average, check_same_grid,
                   face_divergence, face_gradient, face_normal_values,
                   integrate, negative_part_energy, require_finite)
from .linstep import neumann_heat_core, shifted_heat_core, stokes_core


class BlowUpError(RuntimeError):
    """The run produced non-finite values or exceeded the sup ceiling.

    Carries the last state within the ceiling (``state``, None when the
    given fields or state already fail) and, from ``run``, the diagnostics
    recorded up to the abort (``series``).
    """

    def __init__(self, message, state=None, series=None):
        super().__init__(message)
        self.state = state
        self.series = series


# ---------------------------------------------------------------------------
# sensitivity tensor

@dataclass(frozen=True)
class SensitivitySpec:
    """The constant sensitivity tensor S = a*I + b*J, J the 90-degree
    rotation [[0, -1], [1, 0]]: ``SensitivitySpec()`` is the identity,
    ``SensitivitySpec(a)`` a scaled identity.  Raises ValueError unless a
    and b are finite."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        for name in ("a", "b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


# ---------------------------------------------------------------------------
# state and given data

@dataclass
class SimState:
    """The state the loop carries, in the paper's shifted variables.

    ``nt`` is the density minus its initial mean ``n_bar0``; ``chi`` is the
    signal minus ``gamma * n_bar0``.  ``gamma`` follows the recursion of
    the signal's constant mode, gamma' = (gamma + dt) / (1 + dt) from 0 at
    t = 0, so it tracks 1 - e^{-t} to the scheme's accuracy and the
    discrete mass recursion of the signal holds to rounding.  The density
    and the signal themselves are the read-only properties ``n`` and ``c``.

    On a stepped state, ``extrema`` holds (min nt, max nt, min chi,
    max chi) from the blow-up check.
    """

    t: float
    nt: np.ndarray
    chi: np.ndarray
    u: VectorField
    gamma: float
    n_bar0: float
    extrema: tuple[float, float, float, float] | None = None

    @classmethod
    def from_fields(cls, t: float, n: ScalarField, c: ScalarField,
                    u: VectorField, n_bar0: float) -> "SimState":
        """The state of the fields (n, c, u) at time ``t``, shifted with
        gamma = 1 - e^{-t}.  A velocity without face-normal values gets the
        interpolated ones with zero wall trace."""
        gamma = 1.0 - math.exp(-t)
        if u.fx is None or u.fy is None:
            u = VectorField(u.grid, u.ux, u.uy,
                            _interior_face_average(u.ux, 1),
                            _interior_face_average(u.uy, 0))
        return cls(t=t, nt=n.values - n_bar0, chi=c.values - gamma * n_bar0,
                   u=u, gamma=gamma, n_bar0=n_bar0)

    @property
    def n(self) -> ScalarField:
        """The density ``nt + n_bar0``, computed on each access."""
        return ScalarField(self.u.grid, self.nt + self.n_bar0)

    @property
    def c(self) -> ScalarField:
        """The signal ``chi + gamma * n_bar0``, computed on each access."""
        return ScalarField(self.u.grid, self.chi + self.gamma * self.n_bar0)


@dataclass
class GivenData:
    """Initial fields and given functions for a run."""

    n0: ScalarField
    c0: ScalarField
    u0: VectorField
    phi_grad: VectorField
    S: SensitivitySpec
    f: Callable[[float], VectorField] | None = None

    @property
    def grid(self) -> Grid:
        return self.n0.grid

    def validate(self) -> None:
        """Check the hypotheses on the data at discretization accuracy:
        zero normal signal gradient, divergence-free no-slip velocity."""
        g = self.grid
        check_same_grid(self.n0, self.c0, self.u0, self.phi_grad)
        require_finite(self.n0.values, "n0")
        require_finite(self.c0.values, "c0")
        for name in ("ux", "uy", "fx", "fy"):
            vals = getattr(self.u0, name)
            if vals is not None:                # face values only when given
                require_finite(vals, f"u0.{name}")
        scale_c = 1.0 + float(np.abs(self.c0.values).max())
        tol_c = 50.0 * max(g.hx, g.hy) ** 2 * scale_c
        bnd = BoundaryData.from_faces(face_gradient(self.c0.values, g.hx, 1),
                                      face_gradient(self.c0.values, g.hy, 0))
        if bnd.max_abs() > tol_c:
            raise ValueError(
                f"c0 violates the zero-flux condition: max |grad(c0).nu| = "
                f"{bnd.max_abs():.3e} > {tol_c:.3e}")
        fx, fy = face_normal_values(self.u0)
        scale_u = 1.0 + max(np.abs(fx).max(), np.abs(fy).max())
        tol_u = 50.0 * max(g.hx, g.hy) ** 2 * scale_u
        trace = max(np.abs(fx[:, 0]).max(), np.abs(fx[:, -1]).max(),
                    np.abs(fy[0, :]).max(), np.abs(fy[-1, :]).max())
        if trace > tol_u:
            raise ValueError(f"u0 has nonzero normal boundary trace {trace:.3e}")
        div = face_divergence(g, fx, fy)
        div_norm = float(np.sqrt((div ** 2).sum() * g.cell_volume))
        if div_norm > 100.0 * max(g.hx, g.hy) * scale_u:
            raise ValueError(f"u0 is not divergence-free: |div u0|_L2 = {div_norm:.3e}")

    def initial_state(self) -> SimState:
        n_bar0 = integrate(self.n0) / self.grid.volume
        return SimState.from_fields(0.0, self.n0, self.c0, self.u0.copy(),
                                    n_bar0)


# ---------------------------------------------------------------------------
# the density solve's right-hand side
#
# The wall condition grad(n).nu = n S grad(c).nu says that the cell flux
# grad(n) - n S grad(c) has no normal component on the walls.  So the
# density solve is a zero-flux heat solve, and the chemotactic flux F
# enters its source on the interior faces only: the wall faces of -div F
# and the wall data they would need cancel exactly.  An axis of at most
# DENSITY_PRODUCT_MAX_CELLS cells applies each operator as one product with
# a cached matrix, with a, b, 1/h and -dt folded in; a longer axis keeps
# sliced stencils.  The products grow as n^3 against the stencils' n^2:
# timed alone on n x n grids (one core, one BLAS thread), density_rhs is
# faster as products up to 48 cells (0.25-0.92 of the stencils' time at
# b = 0 and b = 0.5) and no faster from 56 on (0.99-1.66 of it), so the
# threshold sits below that crossover.

DENSITY_PRODUCT_MAX_CELLS = 48


class _Products(NamedTuple):
    """The operators along an axis of n <= DENSITY_PRODUCT_MAX_CELLS cells,
    each with one row per input and one column per output point, applied
    by ``_apply_along``."""

    grad: np.ndarray    # a/h times the interior face difference, then t/2h
                        # times the central cell difference when t != 0
    interp: np.ndarray  # the interior face average
    div: np.ndarray     # -dt times the divergence of the interior faces


class _Stencils(NamedTuple):
    """The weights of the same operators as sliced stencils, on an axis of
    more than DENSITY_PRODUCT_MAX_CELLS cells."""

    grad: float         # a / h
    central: float      # t / 2h, 0 skips the central difference
    div: float          # -dt / h


def _axis_plan(n: int, h: float, a: float, t: float, dt: float
               ) -> _Products | _Stencils:
    """The plan of an axis of ``n`` cells of width ``h``, with tangential
    weight ``t``."""
    if n > DENSITY_PRODUCT_MAX_CELLS:
        return _Stencils(a / h, t / (2.0 * h), -dt / h)
    # the interior face difference and average: column k is face k + 1,
    # between cells k and k + 1
    below, above = np.eye(n, n - 1), np.eye(n, n - 1, k=-1)
    diff = above - below
    grad = (a / h) * diff
    if t:
        # the central cell difference, with _ghost_pad's quadratic ghost
        # 3(v0 - v1) + v2 in each wall cell
        central = np.eye(n, k=-1) - np.eye(n, k=1)
        central[:3, 0] = (-3.0, 4.0, -1.0)
        central[-3:, -1] = (1.0, -4.0, 3.0)
        grad = np.hstack((grad, (t / (2.0 * h)) * central))
    plan = _Products(grad, 0.5 * (above + below),
                     np.ascontiguousarray((dt / h) * diff.T))
    for m in plan:
        m.setflags(write=False)
    return plan


@lru_cache(maxsize=32)
def _density_plan(ny: int, nx: int, hy: float, hx: float, a: float,
                  b: float, dt: float) -> tuple:
    """Read-only (y plan, x plan) of ``density_rhs`` for S = a*I + b*J.
    The tangential weight t is -b along y, whose central difference feeds
    the x faces, and b along x; b = 0 builds no central difference."""
    return _axis_plan(ny, hy, a, -b, dt), _axis_plan(nx, hx, a, b, dt)


def _apply_along(vals: np.ndarray, axis: int, m: np.ndarray) -> np.ndarray:
    """The 1-D operator ``m`` applied along ``axis`` (1: x, 0: y) as one
    product: ``vals @ m`` along x, ``m.T @ vals`` along y."""
    return vals @ m if axis == 1 else m.T @ vals


def _grad_and_central(c: np.ndarray, p, axis: int):
    """a times c's face difference on the interior faces normal to ``axis``
    (1: x, 0: y), and t times its central cell difference, None at t = 0."""
    if isinstance(p, _Products):
        g = _apply_along(c, axis, p.grad)
        m = c.shape[axis] - 1
        if g.shape[axis] == m:
            return g, None
        return (g[:, :m], g[:, m:]) if axis == 1 else (g[:m], g[m:])
    if not p.central:
        d = c[:, 1:] - c[:, :-1] if axis == 1 else c[1:] - c[:-1]
        return d * p.grad, None
    q = _ghost_pad(c, axis)
    if axis == 1:
        d, dc = q[:, 2:-1] - q[:, 1:-2], q[:, 2:] - q[:, :-2]
    else:
        d, dc = q[2:-1] - q[1:-2], q[2:] - q[:-2]
    return d * p.grad, dc * p.central


def _face_average(v: np.ndarray, p, axis: int) -> np.ndarray:
    """The average of ``v`` on the interior faces normal to ``axis``."""
    if isinstance(p, _Products):
        return _apply_along(v, axis, p.interp)
    return 0.5 * (v[:, 1:] + v[:, :-1] if axis == 1 else v[1:] + v[:-1])


def _add_divergence(out: np.ndarray, f: np.ndarray, p, axis: int) -> None:
    """Add -dt times the divergence along ``axis`` of the interior face
    values ``f`` (zero on the walls) to ``out``."""
    if isinstance(p, _Products):
        out += _apply_along(f, axis, p.div)
        return
    s = f * p.div
    if axis == 1:
        out[:, :-1] += s
        out[:, 1:] -= s
    else:
        out[:-1] += s
        out[1:] -= s


def density_rhs(grid: Grid, base: np.ndarray, n: np.ndarray, c: np.ndarray,
                S: SensitivitySpec, dt: float,
                adv: np.ndarray | None = None) -> np.ndarray:
    """The right-hand side ``base - dt * div F (- dt * adv)`` of the density
    solve, from the cached ``_density_plan``.  F is the chemotactic flux
    n * (S grad c) on the interior faces and zero on the walls: the face
    average of n times a times c's compact difference across the face, plus
    the tangential term (-b dc/dy on the x faces, b dc/dx on the y faces),
    the face average of c's central cell difference, one-sided in the wall
    cells.  ``adv`` is the advective divergence of a moving fluid."""
    py, px = _density_plan(*grid.shape, grid.hy, grid.hx, S.a, S.b, dt)
    gx, tx = _grad_and_central(c, px, 1)
    gy, ty = _grad_and_central(c, py, 0)
    if tx is not None:
        gx = gx + _face_average(ty, px, 1)      # -b dc/dy on the x faces
        gy = gy + _face_average(tx, py, 0)      # b dc/dx on the y faces
    fx = _face_average(n, px, 1)
    fx *= gx
    fy = _face_average(n, py, 0)
    fy *= gy
    out = base.copy()
    _add_divergence(out, fx, px, 1)
    _add_divergence(out, fy, py, 0)
    if adv is not None:
        out -= dt * adv
    return out


def upwind_divergence(grid: Grid, phi: np.ndarray, ufx: np.ndarray,
                      ufy: np.ndarray, up: tuple[np.ndarray, np.ndarray]
                      ) -> np.ndarray:
    """Conservative first-order upwind divergence of (u * phi).

    ``up`` holds the interior-face masks (ufx[:, 1:-1] > 0, ufy[1:-1, :] > 0).
    Boundary faces carry zero advective flux (impermeable walls)."""
    ny, nx = grid.shape
    px, py = up
    Fx = np.zeros((ny, nx + 1))
    np.multiply(ufx[:, 1:-1], np.where(px, phi[:, :-1], phi[:, 1:]),
                out=Fx[:, 1:-1])
    Fy = np.zeros((ny + 1, nx))
    np.multiply(ufy[1:-1, :], np.where(py, phi[:-1, :], phi[1:, :]),
                out=Fy[1:-1, :])
    return face_divergence(grid, Fx, Fy)


# ---------------------------------------------------------------------------
# the IMEX step

@dataclass(frozen=True)
class RunOptions:
    """The options of a step and a run.  Raises ValueError unless
    ``snapshot_stride`` is at least 1 and ``blowup_ceiling`` is positive
    and finite."""

    snapshot_stride: int = 1
    blowup_ceiling: float = 1e6

    def __post_init__(self):
        if not self.snapshot_stride >= 1:
            raise ValueError(f"snapshot_stride must be at least 1, "
                             f"got {self.snapshot_stride!r}")
        if not 0.0 < self.blowup_ceiling < math.inf:
            raise ValueError(f"blowup_ceiling must be positive and finite, "
                             f"got {self.blowup_ceiling!r}")


def _stays_at_rest(data: GivenData, u: VectorField) -> bool:
    """Whether the fluid ``u`` is at rest (zero cells and faces) with no
    forcing and no potential, so that it stays exactly at rest."""
    return data.f is None and not (
        u.ux.any() or u.uy.any() or u.fx.any() or u.fy.any()
        or data.phi_grad.ux.any() or data.phi_grad.uy.any())


def _advance(grid: Grid, st: SimState, w: SimState, data: GivenData,
             dt: float, opts: RunOptions, at_rest: bool) -> SimState:
    """One IMEX step of the shifted system.

    The lagged terms, the chemotactic flux, the signal's source and the
    advection, are read from ``w`` (``st`` itself gives the plain step);
    the implicit solves always advance ``st``.  ``at_rest`` is ``_stays_at_rest(data, st.u)``, decided
    by the caller once for its steps: a fluid at rest skips advection and
    the fluid substep, and keeps ``st.u``, so every iterate it freezes is at
    rest too.
    """
    t0 = st.t
    n_bar0 = st.n_bar0

    adv_n, rhs_c = None, w.nt
    if not at_rest:
        ufx, ufy = w.u.fx, w.u.fy
        up = (ufx[:, 1:-1] > 0.0, ufy[1:-1, :] > 0.0)
        adv_n, adv_c, adv_ux, adv_uy = (
            upwind_divergence(grid, phi, ufx, ufy, up)
            for phi in (w.nt, w.chi, w.u.ux, w.u.uy))
        rhs_c = rhs_c - adv_c

    rhs_n = density_rhs(grid, st.nt, w.nt + n_bar0, w.chi, data.S, dt, adv_n)
    nt_new = neumann_heat_core(grid, rhs_n, None, None, dt)
    chi_new = shifted_heat_core(grid, st.chi, rhs_c, dt)

    if at_rest:
        u_new = st.u            # a fluid at rest with no force stays at rest
    else:
        fvec = data.f(t0) if data.f is not None else None
        f_x, f_y = (fvec.ux, fvec.uy) if fvec is not None else (0.0, 0.0)
        force_x = -adv_ux + nt_new * data.phi_grad.ux + f_x
        force_y = -adv_uy + nt_new * data.phi_grad.uy + f_y
        u_new = stokes_core(grid, st.u.ux, st.u.uy, force_x, force_y, dt)

    new = SimState(t=_next_time(t0, dt), nt=nt_new, chi=chi_new, u=u_new,
                   gamma=(st.gamma + dt) / (1.0 + dt), n_bar0=n_bar0)
    new.extrema = _check_blowup(new, opts.blowup_ceiling, st, at_rest)
    return new


def _next_time(t0: float, dt: float) -> float:
    """t0 + dt, but k * dt when t0 / dt is the whole number k - 1 to 1e-9
    relative, so chained steps keep a run's times k * dt and do not drift
    by accumulated addition."""
    ratio = t0 / dt
    k = round(ratio)
    return (k + 1) * dt if abs(ratio - k) <= 1e-9 * ratio else t0 + dt


def _check_sups(t: float, sups: list[float], ceiling: float,
                last_valid: SimState | None = None) -> None:
    """Raise ``BlowUpError`` at time ``t``, carrying ``last_valid``, on a
    non-finite sup or one above the ceiling."""
    finite = all(map(math.isfinite, sups))
    if finite and max(sups) <= ceiling:
        return
    reason = (f"sup {max(sups):.3e} exceeds ceiling {ceiling:.3e}" if finite
              else "non-finite values")
    raise BlowUpError(f"blow-up detected at t = {t:.6g}: {reason}",
                      state=last_valid)


def _check_initial(data: GivenData, ceiling: float) -> None:
    """The blow-up check of the given fields at t = 0, before any arithmetic
    on them: max and -min, not abs, so no field-sized temporaries."""
    fields = (data.n0.values, data.c0.values, data.u0.ux, data.u0.uy)
    _check_sups(0.0, [m for a in fields for m in (a.max(), -a.min())], ceiling)


def _check_blowup(st: SimState, ceiling: float, last_valid: SimState | None,
                  at_rest: bool = False) -> tuple[float, float, float, float]:
    """Raise ``BlowUpError`` carrying ``last_valid`` on non-finite values or
    a sup of |n|, |c|, |ux| or |uy| above the ceiling; return (min nt, max
    nt, min chi, max chi), which give the sups of n and c exactly, as x + a
    rounds monotonically.  A fluid at rest skips its velocity sups."""
    n_bar0, c_shift = st.n_bar0, st.gamma * st.n_bar0
    # NaN and inf propagate through min and max
    ext = (float(st.nt.min()), float(st.nt.max()),
           float(st.chi.min()), float(st.chi.max()))
    sups = [max(ext[1] + n_bar0, -(ext[0] + n_bar0)),
            max(ext[3] + c_shift, -(ext[2] + c_shift))]
    if not at_rest:
        sups += [m for a in (st.u.ux, st.u.uy) for m in (a.max(), -a.min())]
    _check_sups(st.t, sups, ceiling, last_valid)
    return ext


def step(state: SimState, data: GivenData, dt: float,
         options: RunOptions | None = None) -> SimState:
    """Advance one IMEX step of size ``dt``, the step ``run`` takes.  A
    given state that is not finite or above the ceiling raises
    ``BlowUpError`` at its own time, carrying no state, before any step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    opts = options or RunOptions()
    at_rest = _stays_at_rest(data, state.u)
    _check_blowup(state, opts.blowup_ceiling, None, at_rest)
    return _advance(data.grid, state, state, data, dt, opts, at_rest)


# ---------------------------------------------------------------------------
# the time loop

def step_count(T: float, dt: float) -> int:
    """The number of steps of size ``dt`` that make up ``T``; raises
    ValueError unless T and dt are positive, dt does not exceed T and T/dt
    is a finite whole number to 1e-9 relative, so a run never stops short
    of T or runs past it."""
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if dt > T:
        raise ValueError("dt must not exceed T")
    ratio = T / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ValueError(f"T must be a whole number of steps dt, "
                         f"got T/dt = {ratio!r}")
    return n


def run(data: GivenData, T: float, dt: float,
        options: RunOptions | None = None):
    """Advance to time T, recording diagnostics each step.

    Returns (trajectory, series): the stepped states at the configured
    stride (always including the initial and final states) and the
    per-step diagnostics.  A blow-up raises ``BlowUpError``: at t = 0 with no
    state on bad given fields, else with the last valid state and series.
    """
    from .diagnostics import DiagnosticsSeries

    opts = options or RunOptions()
    n_steps = step_count(T, dt)
    _check_initial(data, opts.blowup_ceiling)
    data.validate()
    grid = data.grid

    st = data.initial_state()
    n_bar0 = st.n_bar0
    at_rest = _stays_at_rest(data, st.u)    # then for the whole run
    series = DiagnosticsSeries()
    trajectory = [st]
    vol = grid.cell_volume
    omega = grid.volume

    for k in range(1, n_steps + 1):
        try:
            st = _advance(grid, st, st, data, dt, opts, at_rest)
        except BlowUpError as exc:
            exc.series = series
            raise
        # exact minima and sups from the blow-up check: x + a rounds monotonically
        n_lo, n_hi, c_lo, c_hi = st.extrema
        c_shift = st.gamma * n_bar0
        c_dev = (st.gamma - (1.0 - math.exp(-st.t))) * n_bar0
        min_n, min_c = n_lo + n_bar0, c_lo + c_shift
        series.append(
            t=st.t,
            mass_n=n_bar0 * omega + float(st.nt.sum()) * vol,
            mass_c=float(st.chi.sum()) * vol + c_shift * omega,
            sup_n_dev=abs(max(n_hi, -n_lo)),
            sup_c_dev=abs(max(c_hi + c_dev, -(c_lo + c_dev))),
            sup_u=0.0 if at_rest else
            math.sqrt(float((st.u.ux * st.u.ux + st.u.uy * st.u.uy).max())),
            min_n=min_n,
            min_c=min_c,
            # exactly 0 for a non-negative field: skip the sum
            neg_energy_n=0.0 if min_n >= 0.0 else negative_part_energy(st.n),
            neg_energy_c=0.0 if min_c >= 0.0 else negative_part_energy(st.c),
        )
        if k % opts.snapshot_stride == 0 or k == n_steps:
            trajectory.append(st)
    return trajectory, series
