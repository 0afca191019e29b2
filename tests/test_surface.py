"""The package's surface: every name it defines is used, no module calls LAPACK,
and every grid builder holds its state entry-major.

A top-level or class-level name in src/lambda_mb that only the tests
reach belongs in tests/.  A name is reached when bench/, the package's
module-level code or the body of a reached definition reads it (a loaded
name or attribute), imports it, passes it as a keyword, or, in bench/,
spells it as a string constant: the benchmark's traced layers name the
functions they wrap that way.  A definition's use of its own name does
not reach it, nor does the use of a helper that nothing else reaches, so
a chain of helpers that only the tests call is found whole.

No module names linalg (numpy.linalg, scipy.linalg or an import of
either), so no package code reaches LAPACK.

The grids of every builder hold an owned, C-contiguous (3, 3, n_zeta,
n_tau) state, so no producer can bring back the node-major
(n_zeta, n_tau, 3, 3) form. build_numeric_grid's state is the entry-major
slices of the solver's row source (mbsolver.MarchRows) read one row at a
time, stacked along zeta, bit for bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lambda_mb import mbsolver, scenarios
from lambda_mb.mbsolver import GridSpec
from scenario_inputs import canned_scenario, numeric_inputs

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lambda_mb"


def _defined(tree):
    """(qualified name, name, node) of every top-level and class-level definition.

    Dunder names are no definitions of their own: a class's dunder members
    are part of the class, and a module's are module-level code.
    """
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else ()
        for prefix, statement in [("", node)] + [(node.name + ".", m) for m in members]:
            for qualified, name in _names(statement, prefix):
                if not (name.startswith("__") and name.endswith("__")):
                    yield qualified, name, statement


def _names(node, prefix):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield prefix + node.name, node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    for target in targets if isinstance(node, (ast.Assign, ast.AnnAssign)) else ():
        if isinstance(target, ast.Name):
            yield prefix + target.id, target.id


def _walk(tree, skip):
    """ast.walk of tree that does not enter the subtrees in skip."""
    yield tree
    for child in ast.iter_child_nodes(tree):
        if child not in skip:
            yield from _walk(child, skip)


def _used(tree, strings, skip=frozenset()):
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _reached(definitions, roots, inner):
    """Names reached from the root names through the bodies of the definitions.

    A definition's body leaves out the definitions nested in it (inner),
    so a class reaches what its bases, fields and dunder methods name,
    not what its other methods do.
    """
    reached, pending = set(), set(roots)
    while pending:
        name = pending.pop()
        reached.add(name)
        for node in definitions.get(name, ()):
            pending.update(set(_used(node, False, inner - {node})) - reached - {name})
    return reached


def test_every_package_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    roots, definitions, defined = set(), {}, []
    for path in (ROOT / "bench").glob("*.py"):
        roots.update(_used(ast.parse(path.read_text(encoding="utf-8")), True))
    for path, tree in trees.items():
        for qualified, name, node in _defined(tree):
            definitions.setdefault(name, []).append(node)
            defined.append((f"{path.stem}.{qualified}", name))
    inner = {node for nodes in definitions.values() for node in nodes}
    for tree in trees.values():
        roots.update(_used(tree, False, inner))
    reached = _reached(definitions, roots, inner)
    assert [qualified for qualified, name in defined if name not in reached] == []


def _linalg_uses(tree):
    """Line numbers where a tree names linalg: an attribute, a name or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
        else:
            continue
        if "linalg" in name.split("."):
            yield node.lineno


def test_no_package_module_uses_linalg():
    # every 3x3 solve, inverse and eigenvalue in the package is written out
    # entry by entry (algebra, darboux, mbsolver); none goes to LAPACK
    uses = [f"{path.name}:{line}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line in _linalg_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert uses == []


def _assert_entry_major(sol):
    """sol holds its own owned, C-contiguous, entry-major complex state."""
    g = sol.grid
    assert sol.rho.shape == (3, 3, g.n_zeta, g.n_tau) and sol.rho.dtype == complex
    assert sol.rho.flags.owndata and sol.rho.flags.c_contiguous


@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
def test_every_builder_holds_an_entry_major_state(name):
    sp, canned = canned_scenario(name)
    grid = GridSpec(canned.tau_min, canned.tau_max, 41, canned.zeta_min, canned.zeta_max, 9)
    for build in (scenarios.build_analytic_grid, scenarios.build_dressed_grid):
        _assert_entry_major(build(sp, grid))
    if scenarios.state_kind(sp.params) == "formal":
        return
    numeric = scenarios.build_numeric_grid(sp, grid)
    _assert_entry_major(numeric)
    source = mbsolver.MarchRows(*numeric_inputs(sp, grid), sp.params, grid)
    rows = [source.rows(z, z + 1).rho for z in range(grid.n_zeta)]
    assert numeric.rho.tobytes() == np.concatenate(rows, axis=2).tobytes()
