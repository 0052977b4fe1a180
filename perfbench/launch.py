"""Run one ``ksns`` CLI command in this process and record where its time went.

Usage: ``python3 perfbench/launch.py <ksns arguments>`` with ``src`` on
``PYTHONPATH``.  The environment variable ``PERFBENCH_REPORT`` names a JSON
file written when the command ends; ``PERFBENCH_TRACE=1`` turns on the
per-layer trace.

Untraced, only ``integrator.run`` is wrapped (one timer per call), so the
benchmark can split set-up from stepping.  Traced, every public module-level
function of the six ``ksns`` modules is wrapped, plus the methods listed in
``METHODS``.  Each call becomes a span (name, start, end, parent) kept in
memory; the spans are reduced to per-name totals when the command ends.
The program itself is not modified: the wrappers replace the module
attributes (and every ``from ... import`` binding of them) at run time.
"""

import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "integrator", "linstep", "eigen", "grid", "diagnostics")
METHODS = (("diagnostics", "DiagnosticsSeries", "to_csv"),)
RUN = "integrator.run"
SOLVE = "linstep.solve_cg"
# Spans the per-layer metrics are computed from; a missing one is reported
# as absent and its metrics read 0.
NAMED = (RUN, SOLVE, "integrator.chemotactic_flux_raw",
         "integrator.upwind_divergence", "linstep.neumann_heat_core",
         "linstep.shifted_heat_core", "linstep.stokes_core",
         "linstep.helmholtz_project_core", "cli.given_data_from_config",
         "eigen.lambda_neumann", "eigen.lambda_dirichlet",
         "grid.write_field_snapshot", "diagnostics.weighted_solution_norm",
         "diagnostics.DiagnosticsSeries.to_csv")


class Tracer:
    """Spans of wrapped calls: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.extra = {}      # span index -> steps (run) or (tag, iters, cells)
        self.wrapped = set()
        self.missing = []

    def wrap(self, fn, name):
        spans, stack, extra = self.spans, self.stack, self.extra
        clock = time.monotonic
        self.wrapped.add(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if name == RUN:
                extra[idx] = len(out[1])
            elif name == SOLVE:
                extra[idx] = (out[1].solver, out[1].iterations, args[1].size)
            return out

        return wrapper

    def install(self, traced):
        """Replace the targets in every loaded ``ksns`` module."""
        mods = {name: sys.modules[f"ksns.{name}"] for name in LAYERS
                if f"ksns.{name}" in sys.modules}
        targets = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (traced and not attr.startswith("_")
                             or f"{layer}.{attr}" == RUN)):
                    targets[fn] = self.wrap(fn, f"{layer}.{attr}")
        holders = [m for k, m in sys.modules.items()
                   if k == "ksns" or k.startswith("ksns.")]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in targets:
                    setattr(mod, attr, targets[val])
        if traced:
            for layer, cls_name, meth in METHODS:
                cls = getattr(mods.get(layer), cls_name, None)
                fn = getattr(cls, meth, None)
                if inspect.isfunction(fn):
                    setattr(cls, meth,
                            self.wrap(fn, f"{layer}.{cls_name}.{meth}"))
        expected = NAMED if traced else (RUN,)
        self.missing = [n for n in expected if n not in self.wrapped]

    def reduce(self):
        """Per-name totals: calls, inclusive and self seconds, and the
        inclusive seconds of spans that run inside ``integrator.run``."""
        spans, n = self.spans, len(self.spans)
        child = [0.0] * n
        in_run = [False] * n
        for i, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_run[i] = in_run[parent]
            if name == RUN:
                in_run[i] = True
        names = {}
        solves = {}
        eig_iters = 0
        runs = []
        for i, (name, t0, t1, parent) in enumerate(spans):
            rec = names.setdefault(name, [0, 0.0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - child[i]
            if in_run[i] and name != RUN:
                rec[3] += t1 - t0
            if name == RUN:
                runs.append([t0, t1, self.extra.get(i, 0)])
            elif name == SOLVE and i in self.extra:
                tag, iters, cells = self.extra[i]
                if tag.startswith("eig-"):
                    eig_iters += iters
                elif in_run[i]:
                    rec_s = solves.setdefault(tag, [0, 0, 0])
                    rec_s[0] += 1
                    rec_s[1] += iters
                    rec_s[2] += iters * cells
        return {"names": names, "solves": solves, "eig_inner_iters": eig_iters,
                "runs": runs}


def main():
    argv = sys.argv[1:]
    report_path = os.environ["PERFBENCH_REPORT"]
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    import ksns.cli

    tracer = Tracer()
    t_install = time.monotonic()
    tracer.install(traced)
    t_installed = time.monotonic()
    code = 1
    try:
        code = ksns.cli.main(argv)
    finally:
        t_main_end = time.monotonic()
        report = tracer.reduce()
        report["missing"] = tracer.missing
        report["trace_s"] = (t_installed - t_install) + (time.monotonic()
                                                         - t_main_end)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
