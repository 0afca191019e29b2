"""Bits of every report that the canned command-line checks compute.

    python tests/report_bits.py [CHECKOUT]
    python tests/report_bits.py CHECKOUT_A CHECKOUT_B

Runs ``--scenario TAG --engine ENGINE --check`` for the runs of
canned_digests.py: each canned tag under the engines ``analytic``,
``dressing`` and ``all``, and ``fast`` and ``fig4`` under ``numeric``,
with the package under ``CHECKOUT/src`` (default: the checkout holding
this script), in a temporary directory. (A run's reports do not depend on
whether it writes its CSVs, so ``--check`` leaves them out.) It catches
the report lists of the two residual folds that the analytic route's
stream feeds, the coarse lattice's (``coarse``: the output's even rows and
columns) and then the output lattice's (``fine``), and every report that
``cli._run_checks`` returns (``checks``: the density audits, the compares,
a single-route run's included, and the residuals with their orders). A
checkout from before the folds has the lists of its residual_reports
calls caught in their place, on its capped check lattice and that
lattice's refinement, so two such checkouts pair. Prints one line per
report, ``tag engine source index name probe max_abs l2``, with both
values as exact float hex. Exits 1 if a run did not exit 0.

With two checkouts, runs each in its own process and prints each report
whose max_abs or l2 differs in any bit (or that one side lacks), with both
values and their relative difference; the six digits of the report text
hide such moves. Exits 1 if a run of either side did not exit 0; a
difference alone is not a failure.
"""

import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ENGINES = ("analytic", "dressing", "all")


def _catch(module, name, caught, reports_of, depth):
    """Wrap module.name so that reports_of(result) of its outermost calls lands in caught.

    module may be a class, whose method is then wrapped, or None (a
    checkout without it). depth is a one-item list that the wrappers
    sharing it count nested calls in.
    """
    original = getattr(module, name, None)
    if original is None:  # a checkout without this entry point
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        depth[0] += 1
        try:
            result = original(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            caught.append(reports_of(result))
        return result

    setattr(module, name, wrapper)


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    from lambda_mb import cli, scenarios, verify

    residuals, checks, depth = [], [], [0]
    # residual_reports calls ResidualFold.report: only the outer call is caught
    _catch(verify, "residual_reports", residuals, list, depth)
    _catch(getattr(verify, "ResidualFold", None), "report", residuals, list, depth)
    _catch(cli, "_run_checks", checks, lambda result: result[1], [0])
    status = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for tag in sorted(scenarios.CANNED):
                for engine in ENGINES + (("numeric",) if tag in ("fast", "fig4") else ()):
                    del residuals[:], checks[:]
                    out = f"{tag}-{engine}"
                    code = cli.main(["--scenario", tag, "--engine", engine, "--check",
                                     "--out", out, "--quiet"])
                    if code != 0:
                        print(f"{out}: exit {code}", file=sys.stderr)
                        status = 1
                    caught = list(zip(("coarse", "fine"), residuals))
                    for source, reports in caught + [("checks", r) for r in checks]:
                        for index, rep in enumerate(reports):
                            print(f"{tag} {engine} {source} {index} {rep.name} {rep.lambda_probe} "
                                  f"{float(rep.max_abs).hex()} {float(rep.l2).hex()}")
        finally:
            os.chdir(cwd)
    return status


def _parse(text):
    """{(tag, engine, source, index, name..., probe): (max_abs, l2)} from main's lines."""
    reports = {}
    for line in text.splitlines():
        *key, max_abs, l2 = line.split(" ")
        reports[tuple(key)] = (float.fromhex(max_abs), float.fromhex(l2))
    return reports


def _relative(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(checkouts) -> int:
    """Print the reports whose bits differ between two checkouts."""
    procs = [subprocess.Popen([sys.executable, __file__, str(root)], stdout=subprocess.PIPE,
                              text=True) for root in checkouts]
    sides = []
    status = 0
    for proc in procs:
        out, _ = proc.communicate()
        status |= proc.returncode != 0
        sides.append(_parse(out))
    a, b = sides
    for key in sorted(a.keys() | b.keys()):
        label = " ".join(key)
        if key not in a or key not in b:
            print(f"{label}: only in {checkouts[0] if key in a else checkouts[1]}")
            continue
        for metric, x, y in zip(("max_abs", "l2"), a[key], b[key]):
            if x.hex() != y.hex():
                print(f"{label} {metric}: {x!r} -> {y!r} (relative {_relative(x, y):.2e})")
    return int(status)


if __name__ == "__main__":
    args = sys.argv[1:]
    raise SystemExit(compare(args) if len(args) == 2 else main(args))
