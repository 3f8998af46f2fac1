"""Seeded random coefficient draws for the criteria campaign workload.

The eight classes are those of the no-conflict campaign in the test
suite: positive diagonal B, split-sign B, unit B, rank-one PSD B,
decisively negative and positive potentials, and slowly modulated
versions of the decisive ones. Draw k has class k % 8, and every draw
consumes the shared generator in the same order as the test suite, so
a seed yields the same coefficient sequence there and here.
"""

from __future__ import annotations

import math

import numpy as np

from hamosc import coefsys

N_CLASSES = 8
Z2 = np.zeros((2, 2), dtype=complex)
I2 = np.eye(2, dtype=complex)


def _herm(rng, scale):
    m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * scale
    return 0.5 * (m + m.conj().T)


def _const(name, a, b, c):
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    c = np.asarray(c, complex)

    def ev(t):
        return a.copy(), b.copy(), c.copy()

    def dv(t):
        return Z2.copy(), Z2.copy(), Z2.copy()

    return coefsys.Scenario(name=name, t0=0.0, eval=ev, analytic_derivatives=dv)


def _wavy(name, b, c0, amp, freq, phase):
    b = np.asarray(b, complex)
    c0 = np.asarray(c0, complex)

    def ev(t):
        return Z2.copy(), b.copy(), c0 * (1.0 + amp * math.sin(freq * t + phase))

    def dv(t):
        return Z2.copy(), Z2.copy(), c0 * (amp * freq * math.cos(freq * t + phase))

    return coefsys.Scenario(name=name, t0=0.0, eval=ev, analytic_derivatives=dv)


def draw(rng: np.random.Generator, cls: int, name: str) -> coefsys.Scenario:
    """One scenario of the given class, consuming rng."""
    if cls == 0:
        b = np.diag(rng.uniform(0.2, 1.5, 2)).astype(complex)
        a = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 0.3
        return _const(name, a, b, _herm(rng, 0.8))
    if cls == 1:
        b = np.diag([rng.uniform(0.2, 1.0), -rng.uniform(0.2, 1.0)]).astype(complex)
        a = np.diag(rng.normal(size=2) * 0.4).astype(complex)
        return _const(name, a, b, _herm(rng, 0.6))
    if cls == 2:
        a = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 0.3
        return _const(name, a, I2, _herm(rng, 1.0))
    if cls == 3:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = np.outer(v, v.conj())
        a = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 0.25
        return _const(name, a, b, _herm(rng, 0.6))
    if cls == 4:
        b = np.diag(rng.uniform(0.8, 1.5, 2)).astype(complex)
        a = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 0.1
        c = _herm(rng, 0.2) - np.diag(rng.uniform(6.0, 12.0, 2))
        return _const(name, a, b, c)
    if cls == 5:
        b = np.diag(rng.uniform(0.5, 1.5, 2)).astype(complex)
        a = np.diag(rng.normal(size=2) * 0.3).astype(complex)
        c = _herm(rng, 0.1) + np.diag(rng.uniform(2.0, 5.0, 2))
        return _const(name, a, b, c)
    if cls == 6:
        b = np.diag(rng.uniform(0.8, 1.5, 2)).astype(complex)
        c0 = -np.diag(rng.uniform(8.0, 14.0, 2)).astype(complex)
        return _wavy(name, b, c0, 0.25, rng.uniform(0.1, 0.4), rng.uniform(0, 6))
    if cls == 7:
        b = np.diag(rng.uniform(0.5, 1.5, 2)).astype(complex)
        c0 = np.diag(rng.uniform(2.0, 5.0, 2)).astype(complex)
        return _wavy(name, b, c0, 0.25, rng.uniform(0.1, 0.4), rng.uniform(0, 6))
    raise ValueError(f"class must be in 0..{N_CLASSES - 1}, got {cls}")


def campaign_draws(seed: int, n: int) -> list:
    """The first n draws of the campaign for a seed, as (class, Scenario) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        cls = k % N_CLASSES
        out.append((cls, draw(rng, cls, f"d{k:02d}.cls{cls}")))
    return out
