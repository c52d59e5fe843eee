"""Module boundaries of the package.

Each module owns its private helpers: jordan the eigen work, division the
triangular congruences, randmat the sampling, contfrac the tail-first
kernel.  A sibling that needs one goes through a public name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import conecf

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


def test_module_entry_point_runs_without_runtime_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "conecf.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: conecf" in proc.stdout
