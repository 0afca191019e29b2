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
not exit 0.

With two checkouts, runs the digests of each in its own process and prints
only the paths whose digests differ (or that one side lacks); exits 1 if
any do, or if a run of either side did not exit 0.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    from lambda_mb import cli, scenarios

    runs = [(tag, engine) for engine in ("analytic", "dressing", "all")
            for tag in sorted(scenarios.CANNED)]
    runs += [("fast", "numeric"), ("fig4", "numeric")]
    status = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for tag, engine in runs:
                out = f"{tag}-{engine}"
                code = cli.main(["--scenario", tag, "--engine", engine, "--out", out, "--quiet"])
                if code != 0:
                    print(f"{out}: exit {code}", file=sys.stderr)
                    status = 1
                for path in sorted(Path(out).iterdir()):
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
        finally:
            os.chdir(cwd)
    return status


def compare(checkouts) -> int:
    """Print the paths whose digests differ between two checkouts; 1 if any do."""
    procs = [subprocess.Popen([sys.executable, __file__, str(root)], stdout=subprocess.PIPE,
                              text=True) for root in checkouts]
    digests = []
    status = 0
    for proc in procs:
        out, _ = proc.communicate()
        status |= proc.returncode != 0
        digests.append(dict(reversed(line.split("  ", 1)) for line in out.splitlines()))
    a, b = digests
    differ = sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
    for path in differ:
        print(path)
    return int(status or bool(differ))


if __name__ == "__main__":
    args = sys.argv[1:]
    raise SystemExit(compare(args) if len(args) == 2 else main(args))
