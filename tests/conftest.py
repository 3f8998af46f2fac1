"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hamosc import coefsys


def const_scenario(a, b, c, name="const", t0=0.0):
    """Constant-coefficient Scenario with exact (zero) derivatives wired."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    z2 = np.zeros((2, 2), dtype=complex)

    def ev(t):
        return a.copy(), b.copy(), c.copy()

    def dv(t):
        return z2.copy(), z2.copy(), z2.copy()

    return coefsys.Scenario(
        name=name, t0=t0, eval=ev, analytic_derivatives=dv, params={}
    )


def hermitian(rng, scale=1.0):
    """Random Hermitian 2x2 with entries on the given scale."""
    m = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * scale
    return 0.5 * (m + m.conj().T)


@pytest.fixture
def rng():
    # one fixed stream per test keeps failures reproducible without
    # hunting for the seed in CI logs
    return np.random.default_rng(987654321)
