"""Show that every check in ``checks.py`` rejects a corrupted output.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.

Runs ``ksns run`` (no-flow-32), ``ksns eigen`` and ``ksns decay``
(verdicts-48) once, requires the untouched outputs to pass, then corrupts
one output at a time and requires the named check to reject it.  Exits 1 if
any corruption goes unnoticed.
"""

import re
import shutil
import sys

import checks
from run import HERE, WORK, run_command


def _rewrite_snapshot(path, edit):
    header, vals = checks.read_snapshot(path)
    edit(vals)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in vals:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _shift(vals):
    vals += 1e-8


def _move_mass(vals):
    # one negative cell, total mass unchanged
    vals[0, 1] += vals[0, 0] + 0.01
    vals[0, 0] = -0.01


def _scale_field(stdout, index, factor):
    parts = stdout.strip().split(",")
    parts[index] = repr(float(parts[index]) * factor)
    return ",".join(parts)


def _scale_rate(stdout, which, factor):
    pat = re.compile(rf"(decay-{which}-deviation: fitted rate )(\S+)")
    return pat.sub(lambda m: m.group(1) + repr(float(m.group(2)) * factor),
                   stdout)


def main():
    WORK.mkdir(exist_ok=True)
    try:
        return selftest()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def selftest():
    ok = True

    def expect(label, failures, check):
        nonlocal ok
        hit = any(f.startswith(check + ":") for f in failures)
        ok = ok and hit
        if hit:
            print(f"PASS {label}: rejected by {check}")
        else:
            print(f"FAIL {label}: not rejected by {check} {failures}")

    def expect_clean(label, failures):
        nonlocal ok
        ok = ok and not failures
        print(f"{'PASS' if not failures else 'FAIL'} {label}: "
              f"untouched output accepted {failures or ''}")

    cfg_path = HERE / "workloads" / "no-flow-32.cfg"
    cfg = checks.load_config(cfg_path)
    res = run_command("run", cfg_path, cfg, traced=False)
    expect_clean("run", res.failures + res.bad_output)
    out = WORK / "out"
    snap_n = sorted(out.glob("snap_*_n.csv"))[50]
    snap_c = sorted(out.glob("snap_*_c.csv"))[50]
    corruptions = (
        ("n snapshot mass shifted by 1e-8 per cell", snap_n,
         _shift, "n-mass"),
        ("c snapshot mass shifted by 1e-8 per cell", snap_c,
         _shift, "c-mass-recursion"),
        ("n snapshot with one negative cell, same mass", snap_n,
         _move_mass, "non-negativity"),
        ("c snapshot with one negative cell, same mass", snap_c,
         _move_mass, "non-negativity"),
    )
    for label, path, edit, check in corruptions:
        bad = WORK / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        _rewrite_snapshot(bad / path.name, edit)
        expect(label, checks.check_run(cfg, "", bad), check)
    bad = WORK / "bad"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out, bad)
    (bad / snap_n.name).unlink()
    expect("one n snapshot missing", checks.check_run(cfg, "", bad),
           "snapshot-count")

    cfg_path = HERE / "workloads" / "verdicts-48.cfg"
    cfg = checks.load_config(cfg_path)
    eig = run_command("eigen", cfg_path, cfg, traced=False)
    expect_clean("eigen", eig.failures + eig.bad_output)
    line = (WORK / "stdout.txt").read_text(encoding="utf-8")
    for label, index, check in (("lambda_N", 0, "eigen-neumann"),
                                ("lambda_D", 1, "eigen-dirichlet")):
        expect(f"{label} off by 1e-8 relative",
               checks.check_eigen(cfg, _scale_field(line, index, 1 + 1e-8),
                                  None), check)
    dec = run_command("decay", cfg_path, cfg, traced=False)
    expect_clean("decay", dec.failures + dec.bad_output)
    text = (WORK / "stdout.txt").read_text(encoding="utf-8")
    for which in ("n", "c"):
        expect(f"decay {which}-rate off by 3%",
               checks.check_decay(cfg, _scale_rate(text, which, 1.03), None),
               f"decay-{which}-rate")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
