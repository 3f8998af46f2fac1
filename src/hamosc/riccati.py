"""Scalar Riccati criterion kernels for the 4d Hamiltonian system.

Everything here feeds the verdict engines in ``criteria``:

* the exponentially weighted tail integral I(xi; t) = int_xi^t
  exp(-int_tau^t g) h dtau, computed as an initial value problem rather
  than nested quadrature;
* the partition condition that certifies global existence of a scalar
  Riccati solution: on each subinterval [t_k, t_{k+1}) the running
  integral int exp{int_{t_k}^tau [g - I(t_k; s)] ds} h(tau) dtau must
  stay nonpositive, and ``partition_search`` looks for a partition
  greedily;
* the free terms chi_1, chi_2 distilled from the diagonal-B structure,
  in the sign-corrected convention (see free_term_diag);
* the coupling envelope machinery: the weighted running maximum of
  |a12/b1 - conj(a21)/b2|, the exponentially weighted integrals of the
  off-diagonal drive, and the derived free terms chi_3, chi_4.

The envelope's c12 term carries a sign ambiguity (two reasonable
derivations disagree on it); both variants are computable via
sign_convention in {"minus_c12", "plus_c12"}.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .coefsys import TOL_POS, Scenario, ratio_fns
from .mat2 import norm_max
from .odeint import Trajectory, adaptive_solve, segment_states

__all__ = [
    "Kernel",
    "Partition",
    "ChiProfile",
    "EnvelopeData",
    "EnvelopeTerms",
    "NotDiagonalB",
    "NotPositiveB",
    "exp_weighted_integral",
    "check_partition_condition",
    "partition_search",
    "free_term_diag",
    "coupling_gap_peak",
    "envelope_terms_diag",
    "build_envelope_terms",
    "TOL_COND",
    "GRID_PER_WINDOW",
    "GRID_PER_SUBINTERVAL",
]

# nonpositivity slack for the partition condition, scaled by the running
# integral of |h| so long windows with large kernels are not penalized
TOL_COND = 1e-10

# sample counts of the partition search and envelope grids (per window)
# and of the partition condition check (per subinterval)
GRID_PER_WINDOW = 1024
GRID_PER_SUBINTERVAL = 64

_EXP_CAP = 700.0  # exp argument cap; overflow becomes a huge finite value


class NotDiagonalB(ValueError):
    pass


class NotPositiveB(ValueError):
    pass


@dataclass(frozen=True)
class Kernel:
    """Coefficients of y' + f y^2 + g y + h = 0 that the conditions see."""

    g: Callable
    h: Callable


@dataclass(frozen=True)
class Partition:
    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("partition needs >= 2 strictly increasing points")
        object.__setattr__(self, "points", pts)


def exp_weighted_integral(
    k: Kernel,
    xi: float,
    t: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> float:
    """The weighted tail integral int_xi^t exp(-int_tau^t g) h dtau.

    Computed by integrating I' = h - g I, I(xi) = 0, which is the same
    quantity without nested quadrature.
    """
    xi, t = float(xi), float(t)
    if t < xi:
        raise ValueError("need t >= xi")
    if t == xi:
        return 0.0
    traj = adaptive_solve(
        lambda s, y: np.array([k.h(s) - k.g(s) * y[0]]),
        np.array([0.0]),
        (xi, t),
        rtol,
        atol,
    )
    return float(traj.states[-1, 0])


_PROFILE_ESCAPE = 1e300  # condition-profile magnitude treated as escape


def _condition_profile(
    k: Kernel, lo: float, sample: np.ndarray, rtol: float, atol: float
) -> tuple[Optional[int], Trajectory]:
    """Flow of the partition condition from lo, up to its first failed sample.

    State (I, L, T, Tabs): I is the inner weighted integral from lo and
    L the running exponent int [g - I]. The displayed integral carries
    the weight exp(L(t) - L(tau)); the outer exp(L(t)) factor is positive
    and drops out of the sign condition, so T accumulates exp(-L(tau)) h
    and Tabs the same with |h|, which sets the violation tolerance scale.
    This is pure quadrature (no feedback from T into its own rate), so
    stiffness cannot arise.

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
        gv = k.g(s)
        hv = k.h(s)
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


def check_partition_condition(
    k: Kernel,
    part: Partition,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> tuple[bool, Optional[tuple]]:
    """Whether the nonpositivity condition holds on every subinterval.

    Each subinterval [lo, hi] is checked on GRID_PER_SUBINTERVAL + 1
    evenly spaced samples from lo to hi; the condition is
    T <= TOL_COND * (1 + Tabs) at each, and the flow stops at the first
    that fails. Returns (ok, first_violation) with first_violation =
    (subinterval index, t) when it fails: t is the failed sample, or the
    time the flow escaped when it could not reach one.
    """
    pts = part.points
    for ki in range(len(pts) - 1):
        ts = np.linspace(pts[ki], pts[ki + 1], GRID_PER_SUBINTERVAL + 1)
        bad, traj = _condition_profile(k, pts[ki], ts, rtol, atol)
        if bad is not None:
            return False, (ki, float(min(ts[bad], traj.t_end)))
    return True, None


def partition_search(
    k: Kernel,
    window: tuple,
    max_points: int = 64,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Optional[Partition]:
    """Greedy left-to-right search for a conforming partition.

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
# Free terms of the scalar criteria, diagonal-B case.


@dataclass(frozen=True)
class ChiProfile:
    """One of the two diagonal free terms as a pointwise callable."""

    j: int
    values: Callable
    branch_at: Callable  # t -> "b_zero" | "b_nonzero"


def _b_other_zero(b, other: int) -> bool:
    """Whether b_{3-j} (0-based index other) is zero up to TOL_POS."""
    return abs(float(np.real(b[other, other]))) <= TOL_POS * (1.0 + norm_max(b))


# chi_diag is left out of __all__: it runs once per integrator stage, and
# bench/tracing.py times every function listed there as a span
def chi_diag(a, b, c, j: int) -> float:
    """chi_j from the coefficient matrices (a, b, c) at one time.

    The formula of free_term_diag, for callers that already hold one
    s.eval(t) and need chi_j next to other entries of it.
    """
    other = 2 - j  # 0-based index of 3-j
    cjj = float(np.real(c[j - 1, j - 1]))
    if _b_other_zero(b, other):
        return -cjj
    return -(cjj + abs(complex(a[other, j - 1])) ** 2 / float(np.real(b[other, other])))


def free_term_diag(s: Scenario, j: int) -> ChiProfile:
    """The free term chi_j of the scalar oscillation criteria.

    chi_j = -c_jj - |a_{3-j,j}|^2 / b_{3-j} where b_{3-j} is nonzero,
    and chi_j = -c_jj on the b_{3-j} = 0 branch. The sign is the
    corrected convention: it makes the scalar pair for the harmonic
    system literally phi'' + phi = 0, and matches the free term of the
    ratio-substituted flow.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    if "B_diagonal" not in s.tags:
        raise NotDiagonalB(f"scenario {s.name!r} lacks the B_diagonal tag")

    def values(t):
        return chi_diag(*s.eval(t), j)

    def branch_at(t):
        return "b_zero" if _b_other_zero(s.eval(t)[1], 2 - j) else "b_nonzero"

    return ChiProfile(j=j, values=values, branch_at=branch_at)


# ---------------------------------------------------------------------------
# Coupling envelope machinery.


@dataclass(frozen=True)
class EnvelopeData:
    """Inputs of the coupling envelope, already in ratio form.

    For diagonal B these are r1 = a12/b1, r2 = conj(a21)/b2 with the
    actual b_j; the reduced (PSD) path reuses the same machinery with
    unit b and the reduced coefficients in place of a and c.
    """

    a_sum: Callable  # conj(a11) + a22, complex
    r1: Callable
    r2: Callable
    dr1: Callable
    dr2: Callable
    c12: Callable  # complex
    b1: Callable  # real
    b2: Callable
    c11: Callable  # real
    c22: Callable


@dataclass(frozen=True)
class EnvelopeTerms:
    """Envelope profiles and the derived free terms chi_3, chi_4."""

    m_peak: Callable  # weighted running maximum of |r1 - r2|
    e_y: Callable  # weighted integral envelope for the y drive
    e_v: Callable
    chi3: Callable
    chi4: Callable
    sign_convention: str
    grid: np.ndarray


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

    chi_3 = b2 (M + E_y)^2 - b2 |r2|^2 - c11 and symmetrically chi_4;
    sign_convention picks the sign of c12 inside the drives w.
    """
    if sign_convention not in ("minus_c12", "plus_c12"):
        raise ValueError("sign_convention must be 'minus_c12' or 'plus_c12'")
    sgn = -1.0 if sign_convention == "minus_c12" else 1.0
    lo, hi = float(window[0]), float(window[1])

    def w_y(t):
        return data.dr2(t) + data.r2(t) * data.a_sum(t) + sgn * data.c12(t)

    def w_v(t):
        return data.dr1(t) + data.r1(t) * data.a_sum(t) + sgn * data.c12(t)

    def field(t, y):
        rp = float(np.real(data.a_sum(t)))
        return np.array([rp, -rp * y[1] + abs(w_y(t)), -rp * y[2] + abs(w_v(t))])

    traj = adaptive_solve(field, np.zeros(3), (lo, hi), rtol, atol)

    ts = np.linspace(lo, hi, GRID_PER_WINDOW + 1)
    rs = traj.dense_eval(ts)[:, 0]
    gaps = np.array([abs(data.r1(t) - data.r2(t)) for t in ts])
    m = np.empty_like(gaps)
    m[0] = gaps[0]
    for i in range(1, len(ts)):
        m[i] = max(m[i - 1] * math.exp(min(rs[i - 1] - rs[i], _EXP_CAP)), gaps[i])

    def _r_at(t):
        return float(traj.dense_eval(float(t))[0])

    def m_peak(t):
        t = float(t)
        i = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1))
        decayed = m[i] * math.exp(min(rs[i] - _r_at(t), _EXP_CAP))
        return max(decayed, abs(data.r1(t) - data.r2(t)))

    def e_y(t):
        return float(traj.dense_eval(float(t))[1])

    def e_v(t):
        return float(traj.dense_eval(float(t))[2])

    def chi3(t):
        b2 = data.b2(t)
        env = m_peak(t) + e_y(t)
        return b2 * env * env - b2 * abs(data.r2(t)) ** 2 - data.c11(t)

    def chi4(t):
        b1 = data.b1(t)
        env = m_peak(t) + e_v(t)
        return b1 * env * env - b1 * abs(data.r1(t)) ** 2 - data.c22(t)

    return EnvelopeTerms(
        m_peak=m_peak,
        e_y=e_y,
        e_v=e_v,
        chi3=chi3,
        chi4=chi4,
        sign_convention=sign_convention,
        grid=ts,
    )


def _memoized_eval(s: Scenario) -> Scenario:
    """Scenario copy whose eval caches the most recent sample.

    The envelope closures read several coefficient entries at the same t
    in a row; a one-slot cache turns those into a single eval call.
    Callers only read the returned matrices, so sharing them is safe.
    """
    last_t = [None]
    last_v = [None]
    inner = s.eval

    def ev(t):
        t = float(t)
        if last_t[0] != t:
            last_v[0] = inner(t)
            last_t[0] = t
        return last_v[0]

    return replace(s, eval=ev)


def _diag_envelope_data(s: Scenario) -> EnvelopeData:
    s = _memoized_eval(s)
    rf = ratio_fns(s)

    def a_sum(t):
        a = s.eval(t)[0]
        return complex(np.conj(a[0, 0]) + a[1, 1])

    def c12(t):
        return complex(s.eval(t)[2][0, 1])

    def b1(t):
        return float(np.real(s.eval(t)[1][0, 0]))

    def b2(t):
        return float(np.real(s.eval(t)[1][1, 1]))

    def c11(t):
        return float(np.real(s.eval(t)[2][0, 0]))

    def c22(t):
        return float(np.real(s.eval(t)[2][1, 1]))

    return EnvelopeData(
        a_sum=a_sum,
        r1=rf.r1,
        r2=rf.r2,
        dr1=rf.dr1,
        dr2=rf.dr2,
        c12=c12,
        b1=b1,
        b2=b2,
        c11=c11,
        c22=c22,
    )


def coupling_gap_peak(s: Scenario, window: tuple, **kw) -> Callable:
    """The weighted running maximum of |a12/b1 - conj(a21)/b2| alone."""
    _require_positive_diag(s)
    return build_envelope_terms(_diag_envelope_data(s), window, **kw).m_peak


def _require_positive_diag(s: Scenario):
    if "B_diagonal" not in s.tags:
        raise NotDiagonalB(f"scenario {s.name!r} lacks the B_diagonal tag")
    if "B_positive" not in s.tags:
        raise NotPositiveB(f"scenario {s.name!r} lacks the B_positive tag")


def envelope_terms_diag(
    s: Scenario, window: tuple, sign_convention: str = "minus_c12", **kw
) -> EnvelopeTerms:
    """chi_3 and chi_4 for a positive diagonal-B scenario."""
    _require_positive_diag(s)
    return build_envelope_terms(_diag_envelope_data(s), window, sign_convention, **kw)
