"""sha256 digests of every file that the canned command-line runs write,
and the exact bits of every report they compute.

    python tests/canned_digests.py [CHECKOUT]
    python tests/canned_digests.py CHECKOUT_A CHECKOUT_B

Runs the nine canned tags under ``--engine analytic``, ``--engine
dressing`` and ``--engine all``, and ``fast`` and ``fig4`` under ``--engine
numeric``, with the package under ``CHECKOUT/src`` (default: the checkout
holding this script). Each run writes into a temporary directory under a
fixed relative ``--out`` name, ``<tag>-<engine>``, so the manifests compare
too. Prints ``sha256  path`` for every file a run writes, its grid CSVs,
residual report and manifest: 104 lines (an ``all`` run writes a CSV per
route, and ``exulton_k`` refuses the numeric one). Then one line per
report, ``tag engine source index name probe max_abs l2``, with both
values as exact float hex: the reports of the residual folds that
``cli._run_checks`` does not return (``coarse``: the coarse lattice's),
then every report it returns (``checks``: the density audits, the
compares and the residuals). The report text keeps six digits, so these
lines see a move that the digests miss. Exits 1 if a run did not exit 0.
tests/canned_digests.txt holds this output for the committed source; CI
diffs a fresh run against it, so a change that moves a canned output's
bytes or a report's bits changes that file in the same diff.

With two checkouts, runs each in its own process and prints only what
differs: the paths whose digests differ (or that one side lacks), a CSV
that both sides wrote with the number of its cells whose values differ
and the largest relative difference among them (moved_cells), then each
report whose max_abs or l2 differs in any bit (or that one side lacks),
with both values and their relative difference. Exits 1 if anything
differs, or if a run of either side did not exit 0.
"""

import functools
import hashlib
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

#: the report lines of a workdir's runs, at its root where digests() does not look
REPORTS = "reports.txt"


def _catch(owner, name, keep):
    """Wrap owner.name so that keep(result) sees what each call returns.

    A missing name raises AttributeError: a renamed hook stops the run.
    """
    original = getattr(owner, name)

    @functools.wraps(original)
    def caught(*args, **kwargs):
        result = original(*args, **kwargs)
        keep(result)
        return result

    setattr(owner, name, caught)


def write_runs(root, workdir) -> int:
    """Run every canned command line with the package under root/src, writing
    into workdir and its report lines into workdir/REPORTS; 1 if a run did
    not exit 0."""
    sys.path.insert(0, str(Path(root) / "src"))
    from lambda_mb import cli, scenarios, verify

    checks, folds = [], []
    _catch(cli, "_run_checks", lambda result: checks.extend(result[1]))
    _catch(verify.ResidualFold, "report", folds.extend)
    runs = [(tag, engine) for engine in ("analytic", "dressing", "all")
            for tag in sorted(scenarios.CANNED)]
    runs += [("fast", "numeric"), ("fig4", "numeric")]
    status, lines = 0, []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for tag, engine in runs:
            del checks[:], folds[:]
            out = f"{tag}-{engine}"
            code = cli.main(["--scenario", tag, "--engine", engine, "--out", out, "--quiet"])
            if code != 0:
                print(f"{out}: exit {code}", file=sys.stderr)
                status = 1
            returned = {id(rep) for rep in checks}
            coarse = [rep for rep in folds if id(rep) not in returned]
            for source, reports in (("coarse", coarse), ("checks", checks)):
                lines += [f"{tag} {engine} {source} {index} {rep.name} {rep.lambda_probe} "
                          f"{float(rep.max_abs).hex()} {float(rep.l2).hex()}\n"
                          for index, rep in enumerate(reports)]
    finally:
        os.chdir(cwd)
    (Path(workdir) / REPORTS).write_text("".join(lines))
    return status


def digests(workdir) -> dict:
    """{path relative to workdir: sha256} of every file the runs wrote."""
    base = Path(workdir)
    return {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(base.glob("*/*"))}


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        status = write_runs(root, tmp)
        for path, digest in digests(tmp).items():
            print(f"{digest}  {path}")
        print((Path(tmp) / REPORTS).read_text(), end="")
    return status


def moved_cells(path_a, path_b) -> str:
    """How many cells of two CSVs of one header differ, and by how much.

    A cell's relative difference is |a - b| / max(|a|, |b|); near zero it
    says little, so the largest difference relative to the largest |value|
    of the cell's column is given too.
    """
    a, b = (np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) for path in (path_a, path_b))
    if a.shape != b.shape:
        return f"shapes differ: {a.shape} and {b.shape}"
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differ.any():
        return "no cell differs"
    gap = np.where(differ, np.abs(a - b), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = gap / np.maximum(np.abs(a), np.abs(b))
        of_column = gap / np.maximum(np.abs(a), np.abs(b)).max(axis=0)
    return (f"{int(differ.sum())} of {a.size} cells differ, largest relative difference "
            f"{np.nanmax(rel[differ]):.2e}, {np.nanmax(of_column[differ]):.2e} of its column's "
            f"largest |value|")


def reports(workdir) -> dict:
    """{"tag engine source index name probe": (max_abs, l2) as float hex} of workdir/REPORTS."""
    parsed = {}
    for line in (Path(workdir) / REPORTS).read_text().splitlines():
        key, max_abs, l2 = line.rsplit(" ", 2)  # a name may hold spaces
        parsed[key] = (max_abs, l2)
    return parsed


def _child(root, workdir):
    raise SystemExit(write_runs(root, workdir))


def compare(checkouts) -> int:
    """Print the paths and reports that differ between two checkouts; 1 if any do."""
    spawn = multiprocessing.get_context("spawn")  # a fresh interpreter per checkout
    with tempfile.TemporaryDirectory() as tmp:
        workdirs = [Path(tmp) / side for side in ("a", "b")]
        procs = []
        for root, workdir in zip(checkouts, workdirs):
            workdir.mkdir()
            procs.append(spawn.Process(target=_child, args=(str(Path(root).resolve()), workdir)))
            procs[-1].start()
        status = 0
        for proc in procs:
            proc.join()
            status |= proc.exitcode != 0
        a, b = (digests(workdir) for workdir in workdirs)
        differ = sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
        for path in differ:
            if path.endswith(".csv") and path in a and path in b:
                print(f"{path}  {moved_cells(*(workdir / path for workdir in workdirs))}")
            else:
                print(path)
        a, b = (reports(workdir) for workdir in workdirs)
        moved = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        for key in moved:
            if key not in a or key not in b:
                print(f"{key}: only in {checkouts[0] if key in a else checkouts[1]}")
                continue
            for metric, x, y in zip(("max_abs", "l2"), a[key], b[key]):
                if x != y:
                    x, y = float.fromhex(x), float.fromhex(y)
                    print(f"{key} {metric}: {x!r} -> {y!r} "
                          f"(relative {abs(x - y) / max(abs(x), abs(y)):.2e})")
    return int(status or bool(differ or moved))


if __name__ == "__main__":
    args = sys.argv[1:]
    raise SystemExit(compare(args) if len(args) == 2 else main(args))
