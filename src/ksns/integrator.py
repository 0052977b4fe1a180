"""Coupled chemotaxis-fluid integrator.

One IMEX step treats diffusion and the (1 - laplacian) shift implicitly and
freezes the chemotactic flux, the advective transport, and the buoyancy
forcing at the current iterate.  Each step is a Picard loop that re-solves
with coefficients frozen at the previous iterate until the combined field
change stalls or ``k_max`` iterates are taken; ``k_max = 1`` (the default)
is the plain IMEX step.  The three substeps run in the order density ->
signal -> velocity, with the velocity forcing consuming the freshly solved
density.

The loop integrates the shifted variables: the density deviation from its
initial mean and the signal minus a scheme-consistent multiple of that
mean.  The multiple follows the same recursion as the constant mode of
the signal equation, so the discrete mass recursion of the signal
itself holds to rounding, and the boundary flux of the density solve is
byte-for-byte the chemotactic face flux, which conserves total cell mass
to rounding (the implicit solves are exact).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (BoundaryData, Grid, ScalarField, VectorField,
                   check_same_grid, face_divergence, face_gradient,
                   face_gradient_and_central, face_values, face_normal_values,
                   integrate, require_finite)
from .linstep import neumann_heat_core, shifted_heat_core, stokes_core


class BlowUpError(RuntimeError):
    """The run produced non-finite values or exceeded the sup ceiling.

    Carries the last valid state (``state``) and, when raised from ``run``,
    the diagnostics recorded up to the abort (``series``).
    """

    def __init__(self, message, state=None, series=None):
        super().__init__(message)
        self.state = state
        self.series = series


# ---------------------------------------------------------------------------
# sensitivity tensor

@dataclass
class SensitivitySpec:
    """2x2 sensitivity tensor S(t, x).

    ``entries(t, X, Y)`` returns the four entries (s11, s12, s21, s22),
    each a scalar or an array broadcastable against X and Y; X and Y may be
    open coordinate vectors (a row and a column) rather than full meshes.
    """

    tag: str
    entries: Callable

    def evaluate(self, t: float, X: np.ndarray, Y: np.ndarray):
        """The four entries: scalar entries as Python floats, the others as
        float arrays broadcast to the common shape of X and Y."""
        what = f"sensitivity tensor ({self.tag})"
        out = []
        for s in self.entries(t, X, Y):
            if isinstance(s, (int, float)):
                s = float(s)
                if not math.isfinite(s):
                    raise ValueError(f"{what} contains non-finite values")
            else:
                s = np.asarray(s, dtype=float)
                if s.ndim:
                    s = np.broadcast_to(s, np.broadcast(X, Y).shape)
                require_finite(s, what)
            out.append(s)
        return tuple(out)

    @classmethod
    def identity(cls) -> "SensitivitySpec":
        return cls("identity", lambda t, X, Y: (1.0, 0.0, 0.0, 1.0))

    @classmethod
    def scaled(cls, a: float) -> "SensitivitySpec":
        a = float(a)
        return cls(f"scaled({a:g})", lambda t, X, Y: (a, 0.0, 0.0, a))

    @classmethod
    def rotation(cls, a: float, b: float) -> "SensitivitySpec":
        """S = a*I + b*J with J the 90-degree rotation [[0, -1], [1, 0]]."""
        a, b = float(a), float(b)
        return cls(f"rotation({a:g},{b:g})",
                   lambda t, X, Y: (a, -b, b, a))


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

    On a stepped state, ``bc_residual`` is the largest gap, in face flux
    units, between the boundary source the last density solve actually
    imposed (recovered from its solution) and the chemotactic boundary flux
    (see ``linstep.boundary_source_residual``), ``extrema`` holds
    (min nt, max nt, min chi, max chi) from the blow-up check,
    ``picard_iters`` is the number of Picard iterates the step took, and
    ``contraction`` the ratio of its last two increments (0 when fewer
    than two were taken; values >= 1 are recorded, not raised).
    """

    t: float
    nt: np.ndarray
    chi: np.ndarray
    u: VectorField
    gamma: float
    n_bar0: float
    bc_residual: float | None = None
    extrema: tuple[float, float, float, float] | None = None
    picard_iters: int | None = None
    contraction: float | None = None

    @classmethod
    def from_fields(cls, t: float, n: ScalarField, c: ScalarField,
                    u: VectorField, n_bar0: float) -> "SimState":
        """The state of the fields (n, c, u) at time ``t``, shifted with
        gamma = 1 - e^{-t}.  A velocity without face-normal values gets the
        interpolated ones with zero wall trace."""
        gamma = 1.0 - math.exp(-t)
        if u.fx is None or u.fy is None:
            fx, fy = face_normal_values(u, boundary="zero")
            u = VectorField(u.grid, u.ux, u.uy, fx, fy)
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
# chemotactic flux

def _nonzero(s) -> bool:
    """Whether a sensitivity entry (a float or an array) is anywhere nonzero."""
    return bool(s) if isinstance(s, float) else bool(s.any())


def chemotactic_flux_raw(grid: Grid, n_vals: np.ndarray, c_vals: np.ndarray,
                         S: SensitivitySpec, t: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Face-normal values (fx, fy) of the chemotactic flux n * (S grad c);
    faces only, no cell-centered values.

    The normal derivative of c on a face is the compact difference across
    it, the tangential one the central cell gradient carried to the face;
    one quadratic ghost layer closes both with the one-sided second-order
    wall stencils.  The tangential term is skipped where the off-diagonal
    entry of S is zero, as in the scalar presets.
    """
    hx, hy = grid.hx, grid.hy
    s11, s12, _, _ = S.evaluate(t, grid.xf[None, :], grid.yc[:, None])
    _, _, s21, s22 = S.evaluate(t, grid.xc[None, :], grid.yf[:, None])
    # the central difference along x feeds the y faces (s21), and the
    # one along y the x faces (s12)
    fgx, dcx = (face_gradient_and_central(c_vals, hx, 1) if _nonzero(s21)
                else (face_gradient(c_vals, hx, 1), None))
    fgy, dcy = (face_gradient_and_central(c_vals, hy, 0) if _nonzero(s12)
                else (face_gradient(c_vals, hy, 0), None))
    gx = s11 * fgx
    if dcy is not None:
        gx += s12 * face_values(dcy, 1)
    gy = s22 * fgy
    if dcx is not None:
        gy += s21 * face_values(dcx, 0)
    return face_values(n_vals, 1) * gx, face_values(n_vals, 0) * gy


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
    ``picard_k_max`` and ``snapshot_stride`` are at least 1 and
    ``blowup_ceiling`` is positive.  ``picard_tol`` is not checked: 0 takes
    all ``picard_k_max`` iterates."""

    picard_k_max: int = 1
    picard_tol: float = 1e-10
    snapshot_stride: int = 1
    blowup_ceiling: float = 1e6

    def __post_init__(self):
        for name in ("picard_k_max", "snapshot_stride"):
            v = getattr(self, name)
            if not v >= 1:
                raise ValueError(f"{name} must be at least 1, got {v!r}")
        if not self.blowup_ceiling > 0.0:
            raise ValueError(f"blowup_ceiling must be positive, "
                             f"got {self.blowup_ceiling!r}")


def _stays_at_rest(data: GivenData, u: VectorField) -> bool:
    """Whether the fluid ``u`` is at rest (zero cells and faces) with no
    forcing and no potential, so that it stays exactly at rest."""
    return data.f is None and not (
        u.ux.any() or u.uy.any() or u.fx.any() or u.fy.any()
        or data.phi_grad.ux.any() or data.phi_grad.uy.any())


def _advance(grid: Grid, st: SimState, w: SimState, data: GivenData,
             dt: float, opts: RunOptions, at_rest: bool) -> SimState:
    """One IMEX step of the shifted system; the new state carries the
    measured boundary-condition residual of its density solve.

    Nonlinear coefficients are evaluated at the frozen iterate ``w`` (``st``
    itself gives the plain step); the implicit solves always advance
    ``st``.  ``at_rest`` is ``_stays_at_rest(data, st.u)``, decided
    by the caller once for its steps: a fluid at rest skips advection and
    the fluid substep, and keeps ``st.u``, so every iterate it freezes is at
    rest too.
    """
    t0 = st.t
    n_bar0 = st.n_bar0

    fx, fy = chemotactic_flux_raw(grid, w.nt + n_bar0, w.chi, data.S, t0)
    bc = BoundaryData.from_faces(fx, fy)
    forcing_n = -face_divergence(grid, fx, fy)
    rhs_c = w.nt
    if not at_rest:
        ufx, ufy = face_normal_values(w.u, boundary="zero")
        up = (ufx[:, 1:-1] > 0.0, ufy[1:-1, :] > 0.0)
        adv_n, adv_c, adv_ux, adv_uy = (
            upwind_divergence(grid, phi, ufx, ufy, up)
            for phi in (w.nt, w.chi, w.u.ux, w.u.uy))
        forcing_n = forcing_n - adv_n
        rhs_c = rhs_c - adv_c

    nt_new, bc_res = neumann_heat_core(grid, st.nt, bc, forcing_n, dt)
    chi_new = shifted_heat_core(grid, st.chi, rhs_c, dt)

    if at_rest:
        u_new = st.u            # a fluid at rest with no force stays at rest
    else:
        fvec = data.f(t0) if data.f is not None else None
        f_x, f_y = (fvec.ux, fvec.uy) if fvec is not None else (0.0, 0.0)
        force_x = -adv_ux + nt_new * data.phi_grad.ux + f_x
        force_y = -adv_uy + nt_new * data.phi_grad.uy + f_y
        u_new = stokes_core(grid, st.u.ux, st.u.uy, force_x, force_y, dt)

    new = SimState(t=t0 + dt, nt=nt_new, chi=chi_new, u=u_new,
                   gamma=(st.gamma + dt) / (1.0 + dt), n_bar0=n_bar0,
                   bc_residual=bc_res)
    new.extrema = _check_blowup(new, opts.blowup_ceiling, st, at_rest)
    return new


def _check_blowup(st: SimState, ceiling: float, last_valid: SimState,
                  at_rest: bool = False) -> tuple[float, float, float, float]:
    """Raise ``BlowUpError`` carrying ``last_valid`` on non-finite values or
    a sup above the ceiling; return (min nt, max nt, min chi, max chi)
    otherwise.  The velocity sups of a fluid at rest are 0 and are not
    computed."""
    n_bar0 = st.n_bar0
    # NaN and inf propagate through min and max
    ext = (float(st.nt.min()), float(st.nt.max()),
           float(st.chi.min()), float(st.chi.max()))
    sups = (0.0, 0.0) if at_rest else tuple(
        float(np.abs(a).max()) for a in (st.u.ux, st.u.uy))
    if all(map(math.isfinite, ext + sups)):
        sup = max(max(ext[1], -ext[0]) + abs(n_bar0),
                  max(ext[3], -ext[2]) + abs(n_bar0), *sups)
        if sup <= ceiling:
            return ext
        reason = f"sup {sup:.3e} exceeds ceiling {ceiling:.3e}"
    else:
        reason = "non-finite values"
    raise BlowUpError(f"blow-up detected at t = {st.t:.6g}: {reason}",
                      state=last_valid)


def _rel_increment(a: SimState, b: SimState) -> float:
    """Sup over the fields n, c and u of the relative L2 change.

    Works on reconstructed fields so that a state that is an exact fixed
    point of the dynamics reports a zero increment even though its shifted
    representation evolves."""
    def rel(x, y):
        num = float(np.sqrt(((x - y) ** 2).sum()))
        if num == 0.0:
            return 0.0
        return num / max(float(np.sqrt((y ** 2).sum())), 1e-300)

    du = float(np.sqrt(((a.u.ux - b.u.ux) ** 2 + (a.u.uy - b.u.uy) ** 2).sum()))
    base_u = max(float(np.sqrt((b.u.ux ** 2 + b.u.uy ** 2).sum())), 1e-300)
    u_inc = 0.0 if du == 0.0 else du / base_u
    return max(rel(a.n.values, b.n.values), rel(a.c.values, b.c.values),
               u_inc)


def _picard(grid: Grid, st: SimState, data: GivenData, dt: float,
            opts: RunOptions, at_rest: bool) -> SimState:
    """One step: iterate ``_advance`` from ``st`` with coefficients frozen at
    the previous iterate, at most ``opts.picard_k_max`` times and until the
    relative increment falls below ``opts.picard_tol``.  The returned
    iterate records its ``picard_iters`` and ``contraction``.  At
    ``k_max = 1`` this is the plain IMEX step and computes no increment."""
    k_max, tol = opts.picard_k_max, opts.picard_tol
    iterate, prev_inc, contraction = st, 0.0, 0.0
    for m in range(1, k_max + 1):
        new = _advance(grid, st, iterate, data, dt, opts, at_rest)
        # only a further iterate or a contraction ratio needs the increment
        inc = (_rel_increment(new, iterate) if m < k_max or prev_inc > 0.0
               else 0.0)                    # iterate starts at st
        if prev_inc > 0.0:
            contraction = inc / prev_inc
        iterate = new
        if inc < tol:
            break
        prev_inc = inc
    iterate.picard_iters, iterate.contraction = m, contraction
    return iterate


def step(state: SimState, data: GivenData, dt: float,
         options: RunOptions | None = None) -> SimState:
    """Advance one step of size ``dt``: the Picard loop set by ``options``
    (by default one IMEX step with coefficients frozen at ``state``).  The
    new state records ``picard_iters`` and ``contraction``."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _picard(data.grid, state, data, dt, options or RunOptions(),
                   _stays_at_rest(data, state.u))


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
    per-step diagnostics.  A blow-up aborts with the last valid state and
    the partial series attached to the raised ``BlowUpError``.
    """
    from .diagnostics import DiagnosticsSeries

    opts = options or RunOptions()
    n_steps = step_count(T, dt)
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
            st = _picard(grid, st, data, dt, opts, at_rest)
        except BlowUpError as exc:
            exc.series = series
            raise
        st.t = k * dt       # avoid accumulated addition drift
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
            bc_residual=st.bc_residual,
            # exactly 0 for a non-negative field: skip the sum
            neg_energy_n=0.0 if min_n >= 0.0 else
            float((np.minimum(st.nt + n_bar0, 0.0) ** 2).sum()) * vol,
            neg_energy_c=0.0 if min_c >= 0.0 else
            float((np.minimum(st.chi + c_shift, 0.0) ** 2).sum()) * vol,
            picard_iters=st.picard_iters,
            contraction=st.contraction,
        )
        if k % opts.snapshot_stride == 0 or k == n_steps:
            trajectory.append(st)
    return trajectory, series
