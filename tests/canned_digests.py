"""sha256 digests of every file that the canned command-line runs write.

    python tests/canned_digests.py [CHECKOUT]
    python tests/canned_digests.py CHECKOUT_A CHECKOUT_B

Runs the nine canned tags under ``--engine analytic``, ``--engine
dressing`` and ``--engine all``, and ``fast`` and ``fig4`` under ``--engine
numeric``, with the package under ``CHECKOUT/src`` (default: the checkout
holding this script). Each run writes into a temporary directory under a
fixed relative ``--out`` name, ``<tag>-<engine>``, so the manifests compare
too. Prints ``sha256  path`` for every file a run writes, its grid CSVs,
residual report and manifest: 104 lines (an ``all`` run writes a CSV per
route, and ``exulton_k`` refuses the numeric one). Exits 1 if a run did
not exit 0. tests/canned_digests.txt holds these lines for the committed
source; CI diffs a fresh run against it, so a change that moves a canned
output's bytes changes that file in the same diff.

With two checkouts, runs each in its own process and prints only the paths
whose digests differ (or that one side lacks). A CSV that both sides wrote
gets the number of its cells whose values differ and the largest relative
difference among them (moved_cells). Exits 1 if any path differs, or if a
run of either side did not exit 0.
"""

import hashlib
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import numpy as np


def write_runs(root, workdir) -> int:
    """Run every canned command line with the package under root/src, writing
    into workdir; 1 if a run did not exit 0."""
    sys.path.insert(0, str(Path(root) / "src"))
    from lambda_mb import cli, scenarios

    runs = [(tag, engine) for engine in ("analytic", "dressing", "all")
            for tag in sorted(scenarios.CANNED)]
    runs += [("fast", "numeric"), ("fig4", "numeric")]
    status = 0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for tag, engine in runs:
            out = f"{tag}-{engine}"
            code = cli.main(["--scenario", tag, "--engine", engine, "--out", out, "--quiet"])
            if code != 0:
                print(f"{out}: exit {code}", file=sys.stderr)
                status = 1
    finally:
        os.chdir(cwd)
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


def _child(root, workdir):
    raise SystemExit(write_runs(root, workdir))


def compare(checkouts) -> int:
    """Print the paths whose digests differ between two checkouts; 1 if any do."""
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
    return int(status or bool(differ))


if __name__ == "__main__":
    args = sys.argv[1:]
    raise SystemExit(compare(args) if len(args) == 2 else main(args))
