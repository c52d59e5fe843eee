"""Shared test helpers: small random cone elements with controlled spectra, and the CLI module."""

import os
import subprocess
import sys

import numpy as np

import conecf
from conecf import ConeElement, SymMatrix, cone


def make_spd(r: int, rng: np.random.Generator, scale: float = 1.0) -> ConeElement:
    """Random positive definite matrix built directly from a triangular square."""
    L = np.tril(rng.normal(size=(r, r)) * 0.6)
    np.fill_diagonal(L, np.abs(rng.normal(size=r)) + 0.4)
    return cone(SymMatrix(L @ L.T * scale))


def make_sym(r: int, rng: np.random.Generator, scale: float = 1.0) -> SymMatrix:
    a = rng.normal(size=(r, r)) * scale
    return SymMatrix((a + a.T) / 2.0)


def run_cli_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m conecf.cli`` in a child process that turns RuntimeWarning into an error."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(conecf.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "conecf.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
