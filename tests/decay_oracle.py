"""Closed-form decay rates of the linearised scheme, kept as an independent
oracle for the coupled step.

With zero velocity, identity sensitivity and the small-wave data
n0 = n_base + amp cos(pi x / Lx), c0 = c_base + amp cos(pi y / Ly), the
linearisation of the IMEX step at the constant state keeps each of the two
cosine modes apart.  A mode with symbol mu advances by the 2x2
implicit-Euler recursion
    n' = (n + dt n_base mu c) / (1 + dt mu),
    c' = (c + dt n) / (1 + dt + dt mu),
with chemotaxis and the signal source taken at the step start as in the
scheme.  The rates fitted here share nothing with the package but the
formulas of the discrete symbol and of the run's sup deviations.
"""

import math

import numpy as np


def _symbol(L, n):
    """Smallest nonzero 1-D symbol 4/h^2 sin^2(pi/2n) of the FV Laplacian."""
    h = L / n
    return 4.0 / h ** 2 * math.sin(math.pi / (2 * n)) ** 2


def _fit_rate(t, v, window):
    """Least-squares slope of -log(v) against t over the window."""
    keep = (t >= window[0]) & (t <= window[1])
    t, y = t[keep], np.log(v[keep])
    tm = t.mean()
    slope = ((t - tm) * (y - y.mean())).sum() / ((t - tm) ** 2).sum()
    return -float(slope)


def linearised_decay_rates(Lx, Ly, nx, ny, dt, T, n_base, c_base, amp,
                           window):
    """Decay rates of the run's ``sup_n_dev`` and ``sup_c_dev`` columns for
    the linearised scheme, fitted over ``window``.

    The sup of a cell cosine mode is its amplitude times cos(pi / 2n), at
    the first cell; the signal deviation adds the gap between the signal
    mean, which follows the scheme's constant-mode recursion, and
    (1 - e^{-t}) n_base.
    """
    n_steps = round(T / dt)
    # n0 varies along x, c0 along y: one mode each, states (n, c)
    modes = [[_symbol(Lx, nx), amp, 0.0, math.cos(math.pi / (2 * nx))],
             [_symbol(Ly, ny), 0.0, amp, math.cos(math.pi / (2 * ny))]]
    t = np.arange(1, n_steps + 1) * dt
    sup_n = np.empty(n_steps)
    sup_c = np.empty(n_steps)
    r = 1.0 / (1.0 + dt)
    for k in range(n_steps):
        for m in modes:
            mu, n, c, _ = m
            m[1] = (n + dt * n_base * mu * c) / (1.0 + dt * mu)
            m[2] = (c + dt * n) / (1.0 + dt + dt * mu)
        rk = r ** (k + 1)
        mean_c = rk * c_base + (1.0 - rk) * n_base
        sup_n[k] = sum(abs(m[1]) * m[3] for m in modes)
        sup_c[k] = abs(mean_c - (1.0 - math.exp(-t[k])) * n_base) \
            + sum(abs(m[2]) * m[3] for m in modes)
    return _fit_rate(t, sup_n, window), _fit_rate(t, sup_c, window)
