"""Module boundaries of the package.

Each module owns its private helpers: jordan the eigen work, division the
triangular congruences, randmat the sampling, contfrac the tail-first
kernel.  A sibling that needs one goes through a public name.  jordan also
owns the certification policy: no other module names its tolerances or
words its error for a matrix outside the cone.
Every module with an ``__all__`` lists there each public function and
class it defines, and nothing it lacks.  Eigenpairs come from jordan,
except randmat's beta-2 quotient, which calls LAPACK itself.
numpy is the only runtime dependency: nothing under the package imports
scipy, directly or through another package.  Everything computes in
double precision: no module names numpy's longdouble.
"""

import ast
import importlib
from pathlib import Path

import conecf

from helpers import run_cli_module, run_python

PACKAGE = Path(conecf.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every ``_``-prefixed name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("conecf"):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path))
    }
    assert offenders == {}


POLICY_NAMES = {"CONE_TOL", "ASSERT_TOL"}


def mentioned_names(path: Path) -> set[str]:
    """Every identifier a module mentions: as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_jordan_names_the_certification_tolerances():
    offenders = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "jordan.py" and (names := mentioned_names(path) & POLICY_NAMES)
    }
    assert offenders == {}


def test_only_jordan_words_the_cone_membership_error():
    offenders = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "jordan.py" and "leaves the cone" in path.read_text()
    )
    assert offenders == []


def test_module_entry_point_runs_without_runtime_warnings():
    proc = run_cli_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: conecf" in proc.stdout


def imported_roots(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_scipy():
    offenders = sorted(path.name for path in sorted(PACKAGE.glob("*.py")) if "scipy" in imported_roots(path))
    assert offenders == []


def test_no_module_names_longdouble():
    offenders = sorted(path.name for path in PACKAGE.glob("*.py") if "longdouble" in mentioned_names(path))
    assert offenders == []


def test_importing_the_package_leaves_scipy_unloaded():
    proc = run_python("-c", "import conecf, sys; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def defined_public(path: Path) -> set[str]:
    """Every public function or class a module defines at its top level."""
    tree = ast.parse(path.read_text(), str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")}


def test_every_module_lists_what_it_defines_in_all():
    offenders = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"conecf.{path.stem}")
        if not hasattr(module, "__all__"):
            continue
        listed = set(module.__all__)
        missing = sorted(name for name in listed if not hasattr(module, name))
        unlisted = sorted(defined_public(path) - listed)
        if missing or unlisted:
            offenders[path.name] = {"missing": missing, "unlisted": unlisted}
    assert offenders == {}


def test_only_jordan_and_randmat_name_eigh():
    # randmat's beta-2 quotient keeps LAPACK's eigh at every rank: routing it
    # through jordan's closed forms would change every rank-2 draw
    offenders = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name not in ("jordan.py", "randmat.py") and "eigh" in mentioned_names(path)
    )
    assert offenders == []
