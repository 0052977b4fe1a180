"""Checks of ``ksns`` outputs against computations made apart from the program.

Every check reads only the workload's config file and what the command wrote
(snapshot files, standard output); none imports ``ksns``.  Each returns a
list of failure messages, empty when the output is correct.  The message
starts with the check's name.

The ``boundary-condition-identity`` PASS line of ``ksns run`` is not used as
evidence: the integrator stores one array as both boundary fluxes, so that
residual is 0 by construction.
"""

import configparser
import math
import re
from pathlib import Path

import numpy as np

MASS_RTOL = 1e-10      # the program's own density-mass gate
EIGEN_RTOL = 1e-10     # values are printed with 12 significant digits
RATE_RTOL = 0.01       # linearisation against the nonlinear run at amp 0.01


def load_config(path):
    """Config values as strings keyed by (section, key)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    return {(s, k): v for s in parser.sections() for k, v in parser[s].items()}


def _num(cfg, section, key):
    return float(cfg[(section, key)])


def _geometry(cfg):
    Lx, Ly = _num(cfg, "domain", "Lx"), _num(cfg, "domain", "Ly")
    nx, ny = int(cfg[("domain", "nx")]), int(cfg[("domain", "ny")])
    return Lx, Ly, nx, ny


def _symbol(L, n):
    """Smallest nonzero 1-D symbol 4/h^2 sin^2(pi/2n) of the FV Laplacian."""
    h = L / n
    return 4.0 / h ** 2 * math.sin(math.pi / (2 * n)) ** 2


def read_snapshot(path):
    """(header fields, values) of one ``snap_<k>_<name>.csv`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().split()
    return header, np.array([r.split(",") for r in rows], dtype=float)


def check_run(cfg, stdout, out_dir):
    """Density mass, the signal-mass recursion and non-negativity of every
    ``n`` and ``c`` snapshot, and the number of snapshots written."""
    Lx, Ly, nx, ny = _geometry(cfg)
    dt, T = _num(cfg, "time", "dt"), _num(cfg, "time", "T")
    if _num(cfg, "time", "theta") != 1.0:
        raise ValueError("the signal-mass recursion below assumes theta = 1")
    stride = int(cfg[("output", "snapshot_stride")])
    omega = Lx * Ly
    cell = (Lx / nx) * (Ly / ny)
    M_n = _num(cfg, "data", "n_base") * omega
    M_c0 = _num(cfg, "data", "c_base") * omega
    r = 1.0 / (1.0 + dt)
    n_steps = max(1, round(T / dt))
    expected_files = n_steps // stride + 1 + (1 if n_steps % stride else 0)
    out = []
    for name in ("n", "c"):
        files = sorted(Path(out_dir).glob(f"snap_*_{name}.csv"))
        if len(files) != expected_files:
            out.append(f"snapshot-count: {len(files)} {name} snapshots, "
                       f"expected {expected_files}")
        for path in files:
            header, vals = read_snapshot(path)
            if (int(header[0]), int(header[1]), header[4]) != (nx, ny, name) \
                    or vals.shape != (ny, nx):
                out.append(f"snapshot-shape: {path.name}")
                continue
            mass = float(vals.sum()) * cell
            if name == "n":
                want, tol = M_n, MASS_RTOL * abs(M_n)
                check = "n-mass"
            else:
                k = round(float(header[5]) / dt)
                want = r ** k * M_c0 + (1.0 - r ** k) * M_n
                tol = MASS_RTOL * (abs(M_c0) + abs(M_n))
                check = "c-mass-recursion"
            if not abs(mass - want) <= tol:
                out.append(f"{check}: {path.name} mass {mass!r}, expected "
                           f"{want!r} (tol {tol:.1e})")
            if not vals.min() >= 0.0:
                out.append(f"non-negativity: {path.name} min {vals.min()!r}")
    return out


def check_eigen(cfg, stdout, out_dir):
    """``ksns eigen`` against the closed-form discrete eigenvalues."""
    Lx, Ly, nx, ny = _geometry(cfg)
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    try:
        lam_n, lam_d, h = (float(v) for v in lines[-1].split(",")[:3])
    except (IndexError, ValueError):
        return [f"eigen-output: cannot parse {lines[-1:]!r}"]
    sx, sy = _symbol(Lx, nx), _symbol(Ly, ny)
    out = []
    for name, got, want in (("eigen-neumann", lam_n, min(sx, sy)),
                            ("eigen-dirichlet", lam_d, sx + sy),
                            ("eigen-h", h, Lx / nx)):
        if not abs(got - want) <= EIGEN_RTOL * abs(want):
            out.append(f"{name}: {got!r}, closed form {want!r}")
    return out


def _fit_rate(t, v, window):
    keep = (t >= window[0]) & (t <= window[1])
    t, y = t[keep], np.log(v[keep])
    tm = t.mean()
    slope = ((t - tm) * (y - y.mean())).sum() / ((t - tm) ** 2).sum()
    return -float(slope)


def linearised_decay_rates(cfg):
    """Decay rates of ``sup_n_dev`` and ``sup_c_dev`` for the scheme
    linearised at the constant state, fitted over the program's window.

    With zero velocity and identity sensitivity, each cosine mode of the
    initial data evolves by the 2x2 implicit-Euler step
    ``n' = (n + dt n_base mu c) / (1 + dt mu)``,
    ``c' = (c + dt n) / (1 + dt + dt mu)``, chemotaxis and the signal source
    taken at the step start as in the scheme; ``mu`` is the mode's symbol.
    """
    Lx, Ly, nx, ny = _geometry(cfg)
    dt, T = _num(cfg, "time", "dt"), _num(cfg, "time", "T")
    n_base = _num(cfg, "data", "n_base")
    c_base = _num(cfg, "data", "c_base")
    amp = _num(cfg, "data", "amplitude")
    frac = _num(cfg, "diagnostics", "fit_window_frac")
    if (cfg[("sensitivity", "kind")], cfg[("data", "u_preset")],
            cfg[("data", "preset")]) != ("identity", "zero", "small-wave"):
        raise ValueError("the linearisation assumes identity sensitivity, "
                         "zero velocity and small-wave data")
    n_steps = max(1, round(T / dt))
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
    window = (frac * T, T)
    return _fit_rate(t, sup_n, window), _fit_rate(t, sup_c, window)


_RATE = re.compile(r"decay-([nc])-deviation: fitted rate (\S+)")


def check_decay(cfg, stdout, out_dir):
    """``ksns decay``'s fitted rates against the linearised scheme."""
    got = {m.group(1): float(m.group(2)) for m in _RATE.finditer(stdout)}
    if set(got) != {"n", "c"}:
        return [f"decay-output: fitted rates found for {sorted(got)}"]
    want_n, want_c = linearised_decay_rates(cfg)
    out = []
    for name, want in (("n", want_n), ("c", want_c)):
        if not abs(got[name] - want) <= RATE_RTOL * abs(want):
            out.append(f"decay-{name}-rate: {got[name]!r}, linearised "
                       f"{want!r} (rtol {RATE_RTOL})")
    return out


CHECKS = {"run": check_run, "eigen": check_eigen, "decay": check_decay}
