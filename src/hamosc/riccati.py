"""Scalar Riccati kernel machinery on callables of t.

Nothing here reads a scenario: ``criteria`` checks each hypothesis once
and hands over the kernels and envelope inputs it built. A kernel is one
callable k(t) -> (g, h), the coefficients of y' + f y^2 + g y + h = 0
that the conditions see, read together. Provided are:

* the partition condition that certifies global existence of a scalar
  Riccati solution: on each subinterval [t_k, t_{k+1}) the running
  integral int exp{int_{t_k}^tau [g - I(t_k; s)] ds} h(tau) dtau must
  stay nonpositive, where I(xi; t) = int_xi^t exp(-int_tau^t g) h dtau
  is the weighted tail integral. ``partition_search`` looks for a
  partition greedily along the condition's own flow, which carries I in
  its state; it is the only way a kernel is certified, whatever the
  sign of h;
* the coupling envelope flow on ratio-form inputs (EnvelopeData): the
  weighted running maximum of |r1 - r2|, the exponentially weighted
  integrals of the off-diagonal drive, and the kernels of the free
  terms chi_3, chi_4;
* ``fd_slopes``, difference slopes for ratios with no closed form.

The envelope's c12 term carries a sign ambiguity (two reasonable
derivations disagree on it); both variants are computable via
sign_convention in {"minus_c12", "plus_c12"}.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .odeint import Trajectory, adaptive_solve, segment_states

__all__ = [
    "Partition",
    "EnvelopeData",
    "EnvelopeTerms",
    "partition_search",
    "build_envelope_terms",
    "TOL_COND",
    "GRID_PER_WINDOW",
]

# nonpositivity slack for the partition condition, scaled by the running
# integral of |h| so long windows with large kernels are not penalized
TOL_COND = 1e-10

# sample count of the partition search and envelope grids (per window)
GRID_PER_WINDOW = 1024

_EXP_CAP = 700.0  # exp argument cap; overflow becomes a huge finite value


@dataclass(frozen=True)
class Partition:
    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("partition needs >= 2 strictly increasing points")
        object.__setattr__(self, "points", pts)


_PROFILE_ESCAPE = 1e300  # condition-profile magnitude treated as escape


def _condition_profile(
    k: Callable, lo: float, sample: np.ndarray, rtol: float, atol: float
) -> tuple[Optional[int], Trajectory]:
    """Flow of the partition condition from lo, up to its first failed sample.

    State (I, L, T, Tabs): I is the inner weighted integral from lo and
    L the running exponent int [g - I]. The displayed integral carries
    the weight exp(L(t) - L(tau)); the outer exp(L(t)) factor is positive
    and drops out of the sign condition, so T accumulates exp(-L(tau)) h
    and Tabs the same with |h|, which sets the violation tolerance scale.
    This is pure quadrature (no feedback from T into its own rate), so
    stiffness cannot arise. Each field call reads the kernel once.

    The flow runs toward sample[-1] and is checked on the increasing
    times ``sample`` (all >= lo) as each accepted step covers them; it
    stops at the first sample where T > TOL_COND * (1 + Tabs). On kernels
    whose weight explodes, T and Tabs balloon and the flow ends with an
    escape event well before float overflow (the exponent cap only
    engages right before it), or with an underflow event when I
    overflows first. A sample the flow never reached counts as failed,
    so nothing past t_end is certified. Returns the index of the first
    failed sample (None when all hold) and the trajectory.
    """
    sample_list = sample.tolist()  # bisect on a list is the cheap per-step test
    nxt = [0]  # index of the first sample not yet checked

    def field(s, y):
        i, ell = y[0], y[1]
        gv, hv = k(s)
        w = math.exp(min(-ell, _EXP_CAP))
        return np.array([hv - gv * i, gv - i, w * hv, w * abs(hv)])

    def violated(t, h, y, q, until):
        i = nxt[0]
        j = bisect_left(sample_list, until, i)
        if j == i:
            return False
        # the clamp only binds on the window end, when round-off left the
        # final node short of it
        states = segment_states(t, h, y, q, np.minimum(sample[i:j], t + h))
        over = states[:, 2] > TOL_COND * (1.0 + states[:, 3])
        first = int(over.argmax())
        nxt[0] = i + first if over[first] else j
        return bool(over[first])

    traj = adaptive_solve(
        field,
        np.zeros(4),
        (lo, float(sample[-1])),
        rtol,
        atol,
        escape_norm=_PROFILE_ESCAPE,
        escape_slice=slice(2, 4),
        underflow="event",
        stop=violated,
    )
    return (None if nxt[0] == len(sample) else nxt[0]), traj


def partition_search(
    k: Callable,
    window: tuple,
    max_points: int = 64,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Optional[Partition]:
    """Greedy left-to-right search for a partition conforming for k(t) -> (g, h).

    From the current point the condition flow runs over the global grid
    points to its right and stops at the first one where the condition
    fails; the next partition point is the grid point before it. The
    search fails (returns None) when it cannot advance by at least
    (window length) / max_points, so a returned partition has at most
    max_points + 1 points. None means "not certified by this search",
    never "oscillatory".
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy T > t0")
    ts = np.linspace(lo, hi, GRID_PER_WINDOW + 1)
    min_advance = (hi - lo) / max_points
    points = [lo]
    cur = lo
    while cur < hi:
        sample = ts[np.searchsorted(ts, cur, side="right") :]
        bad, _ = _condition_profile(k, cur, sample, rtol, atol)
        if bad is None:
            points.append(hi)
            return Partition(tuple(points))
        if bad == 0:
            return None
        nxt = float(sample[bad - 1])
        if nxt - cur < min_advance:
            return None
        points.append(nxt)
        cur = nxt
    return Partition(tuple(points))


# ---------------------------------------------------------------------------
# Coupling envelope machinery.


@dataclass(frozen=True)
class EnvelopeData:
    """Inputs of the coupling envelope, already in ratio form.

    values(t) returns (a_sum, r1, r2, c12, b1, b2, c11, c22, w1, w2)
    from one read of the coefficients: a_sum = conj(a11) + a22 and c12
    complex, r1, r2 the coupling ratios, the rest real, with w1, w2 the
    weights g of the chi_3, chi_4 kernels. slopes(t, v) returns
    (dr1, dr2) given v = values(t), so the envelope flow reads the
    coefficients once per stage. The criteria build one for diagonal B,
    with r1 = a12/b1, r2 = conj(a21)/b2, the actual b_j and
    w_j = 2 Re a_jj, and one for the PSD reduction, with unit b and the
    reduced coefficients in place of a and c (w_j = 2 Re p_jj).
    """

    values: Callable
    slopes: Callable


@dataclass(frozen=True)
class EnvelopeTerms:
    """Envelope profiles and the kernels of the free terms chi_3, chi_4.

    Each is a callable of t that reads the envelope inputs and the
    envelope trajectory once per call. The profiles return a float, and
    kernel3, kernel4 the kernel (g, h) = (w_j, chi) for partition_search.
    """

    m_peak: Callable  # weighted running maximum of |r1 - r2|
    e_y: Callable  # weighted integral envelope for the y drive
    e_v: Callable
    kernel3: Callable
    kernel4: Callable


_FD_EPS = np.finfo(float).eps ** (1.0 / 3.0)


def fd_slopes(values: Callable, lo: float, hi: Optional[float]) -> Callable:
    """slopes(t, v) of the ratios in values by central differences.

    The package's one difference quotient: the PSD envelope's reduced
    ratios need S'' for their slopes, and so B'', which Scenario does not
    carry. Step eps^(1/3) * max(1, |t|), second-order one-sided near the
    domain ends lo and hi (hi None for an unbounded domain), where
    v = values(t) stands in for the read at t. Both ratios difference the
    same reads, so a call reads values twice.
    """

    def slopes(t, v):
        h = _FD_EPS * max(1.0, abs(t))
        if lo is not None and t - h < lo:
            f1, f2 = values(t + h), values(t + 2 * h)
            return tuple((-3.0 * v[j] + 4.0 * f1[j] - f2[j]) / (2.0 * h) for j in (1, 2))
        if hi is not None and t + h > hi:
            f1, f2 = values(t - h), values(t - 2 * h)
            return tuple((3.0 * v[j] - 4.0 * f1[j] + f2[j]) / (2.0 * h) for j in (1, 2))
        fp, fm = values(t + h), values(t - h)
        return tuple((fp[j] - fm[j]) / (2.0 * h) for j in (1, 2))

    return slopes


def build_envelope_terms(
    data: EnvelopeData,
    window: tuple,
    sign_convention: str = "minus_c12",
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> EnvelopeTerms:
    """Envelope profiles over the window.

    The running maximum M(t) = e^{-R(t)} max_{tau<=t} e^{R(tau)}
    |r1 - r2| (R = int Re a_sum) is accumulated on a grid by the scale-
    free recursion M_{i+1} = max(M_i e^{-dR}, |gap(t_{i+1})|), and the
    weighted integrals evolve as E' = -R' E + |w| with w the respective
    off-diagonal drive. Nothing here exponentiates R itself, so strongly
    damped or strongly growing scenarios stay in range.

    The flow field reads values once and hands them to slopes, and the gap grid
    reads values once per point. chi_3 = b2 (M + E_y)^2 - b2 |r2|^2 - c11
    and symmetrically chi_4, each paired with its kernel weight;
    sign_convention picks the sign of c12 inside the drives w.
    """
    if sign_convention not in ("minus_c12", "plus_c12"):
        raise ValueError("sign_convention must be 'minus_c12' or 'plus_c12'")
    sgn = -1.0 if sign_convention == "minus_c12" else 1.0
    lo, hi = float(window[0]), float(window[1])
    values, slopes = data.values, data.slopes

    def field(t, y):
        v = values(t)
        a_sum, r1, r2, c12 = v[:4]
        dr1, dr2 = slopes(t, v)
        rp = a_sum.real
        w_y = dr2 + r2 * a_sum + sgn * c12
        w_v = dr1 + r1 * a_sum + sgn * c12
        _, e_y, e_v = y.tolist()
        return np.array([rp, -rp * e_y + abs(w_y), -rp * e_v + abs(w_v)])

    traj = adaptive_solve(field, np.zeros(3), (lo, hi), rtol, atol)

    ts = np.linspace(lo, hi, GRID_PER_WINDOW + 1)
    rs = traj.dense_eval(ts)[:, 0]
    gaps = np.array([abs(v[1] - v[2]) for v in map(values, ts)])
    m = np.empty_like(gaps)
    m[0] = gaps[0]
    for i in range(1, len(ts)):
        m[i] = max(m[i - 1] * math.exp(min(rs[i - 1] - rs[i], _EXP_CAP)), gaps[i])

    def at(t):
        """(values, M, E_y, E_v) at t."""
        t = float(t)
        v = values(t)
        y = traj.dense_eval(t)
        i = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1))
        decayed = m[i] * math.exp(min(rs[i] - float(y[0]), _EXP_CAP))
        return v, max(decayed, abs(v[1] - v[2])), float(y[1]), float(y[2])

    def kernel3(t):
        v, peak, e_y, _ = at(t)
        env = peak + e_y
        return v[8], v[5] * env * env - v[5] * abs(v[2]) ** 2 - v[6]

    def kernel4(t):
        v, peak, _, e_v = at(t)
        env = peak + e_v
        return v[9], v[4] * env * env - v[4] * abs(v[1]) ** 2 - v[7]

    return EnvelopeTerms(
        m_peak=lambda t: at(t)[1],
        e_y=lambda t: at(t)[2],
        e_v=lambda t: at(t)[3],
        kernel3=kernel3,
        kernel4=kernel4,
    )
