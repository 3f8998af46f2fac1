"""The names the benchmark's tracer looks up must exist in the package.

``bench/tracing.py`` wraps library functions by name; a name that moved
or was renamed breaks the traced benchmark run with an AttributeError.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from hamosc import coefsys, criteria, mat2, odeint, riccati

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracing = _load_tracing()
    missing = [f"mat2.{n}" for n in tracing.MAT2_KERNELS if not hasattr(mat2, n)]
    missing += [f"odeint.{n}" for n in tracing.ODEINT_SOLVERS if not hasattr(odeint, n)]
    for mod in (coefsys, riccati, criteria):
        missing += [f"{mod.__name__}.{n}" for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
