"""Adaptive integration and zero detection for the 4d Hamiltonian system.

Two hand-rolled Runge-Kutta loops share one Trajectory form. ``_dp45``
is a Dormand-Prince 5(4) embedded pair with PI step control and a
quartic dense interpolant; it runs ``adaptive_solve`` and the Riccati
flows. ``dop853.integrate`` is Hairer's eighth-order Dormand-Prince pair
DOP853 with its 5th/3rd-order error norm and degree-7 dense output; it
runs the matrix pair flow, whose frame solves dominate a simulation, and
lives in its own module, imported on the first pair solve. Both are
deliberately self-contained: the solvers below need hooks that library
integrators do not expose. Both take ``post_step``, which sees and may
replace each accepted state (frame orthonormalization and the
conjoinedness check). ``_dp45`` also takes escape-norm truncation that
preserves the partial trajectory for blow-up diagnostics, and ``stop``,
a predicate on each new dense segment that ends the flow early (the
partition-condition search stops at its first violated sample). Stages
that probe toward a blow-up overflow on purpose, and a non-finite stage
is a rejected step, so numpy's overflow and invalid warnings are off for
the whole flow, field and hooks included; the caller's error state is
restored when the flow returns or raises. Every trajectory carries the
solver's counts in ``meta["stats"]``.

Drivers provided:

* ``adaptive_solve``: any field y' = f(t, y), with the hooks above.
* ``magnus_flow``: the 2x2 fundamental matrix of a real linear flow
  Y' = M(t) Y from the identity, by an adaptive sixth-order Magnus
  propagator: three reads of M per step attempt at the Gauss-Legendre
  points, one closed-form 2x2 exponential per step for both columns, an
  embedded fourth-order exponent on Simpson's nodes for error control
  (one more read, at the step end), a cap of a quarter turn per step,
  and column rescaling past 1e100. ``MagnusFlow.state_at`` reads the
  state between nodes from the same propagator. The scalar oscillation
  test of ``criteria`` counts its zeros on it.
* ``solve_hamiltonian`` / ``solve_hamiltonian_frame``: the linear system
  Phi' = A Phi + B Psi, Psi' = C Phi - A* Psi, integrated as 16 reals by
  one pair flow on ``dop853.integrate``: 15 coefficient reads per
  accepted step and 11 per rejected one. The 16 reals are the 4x2
  complex frame X = [Phi; Psi] (``pack_pair``), and one field call is
  the product [[A, B], [C, -A*]] X from one coefficient read. The flow
  checks the conjoinedness defect max |G - G*| of G = Phi* Psi at every
  accepted step, and records for each step an estimate of how far an
  eigen-angle of U (below) can turn over it. The frame variant also
  orthonormalizes the 4x2 solution frame after every accepted step and
  accumulates the scalar growth factor in log form. Coefficients like
  c22 = t^2 produce growth of order exp(t^2/2), which overflows doubles
  near t = 38; the frame variant keeps every stored quantity of order
  one while preserving the zeros of det Phi exactly (right
  multiplication by an invertible factor with positive real
  determinant). ``det_phi`` reads det Phi back from either kind of
  trajectory.
* ``solve_scalar_riccati`` / ``solve_matrix_riccati``: the quadratic flows
  with escape detection at a configurable norm, returning the surviving
  trajectory plus a blow-up record. The criteria never call them: a
  Riccati pole is a zero of the linear flow, which they count directly.
  The tests use them to check that correspondence.
* ``detect_det_zeros``: counts the times an eigen-angle of the unitary
  U = (Phi - i Psi)(Phi + i Psi)^-1 passes pi, for real and complex
  coefficients alike, reading on their dense output only the steps over
  which the turn estimate lets an angle reach pi.

Zero times (``detect_det_zeros``, ``sign_change_roots``) are refined by
``_brentq``, Brent's method (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) written out in the float operations of
scipy's brentq.c, so it returns scipy's roots bit for bit and importing
the package loads no scipy.

``quadrature`` is an adaptive Gauss-Kronrod (7, 15) rule for a plain
definite integral. The package does not call it: the tests use it as
the nested-quadrature reference for ``tests/oracles.exp_weighted_integral``,
and ``bench/tracing.py`` wraps it by name.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .mat2 import adjoint, is_hermitian

__all__ = [
    "StepUnderflow",
    "StepBudgetExhausted",
    "ConjoinedDrift",
    "QuadratureNoConvergence",
    "Event",
    "Trajectory",
    "ZeroRecord",
    "BlowupRecord",
    "adaptive_solve",
    "segment_states",
    "MagnusFlow",
    "magnus_flow",
    "quadrature",
    "solve_hamiltonian",
    "solve_hamiltonian_frame",
    "conjoined_defect",
    "det_phi",
    "solve_scalar_riccati",
    "solve_matrix_riccati",
    "detect_det_zeros",
    "sign_change_roots",
    "pack_pair",
    "unpack_pair",
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "DEFAULT_Y_MAX",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_Y_MAX = 1e8

# conjoinedness defect bound: defect <= CONJ_TOL * (1 + |Phi| |Psi|)
CONJ_TOL = 1e-8


class StepUnderflow(RuntimeError):
    """Step size fell below 1e-14 * max(1, |t|); integration cannot proceed."""

    def __init__(self, t: float, state: np.ndarray):
        super().__init__(f"step underflow at t = {t!r}")
        self.t = t
        self.state = state


class StepBudgetExhausted(RuntimeError):
    """A solve took more than _MAX_STEPS step attempts before its window end."""

    def __init__(self, t: float):
        super().__init__(f"step budget of {_MAX_STEPS} attempts exhausted at t = {t!r}")
        self.t = t


class ConjoinedDrift(RuntimeError):
    """The conjoinedness defect exceeded its bound (or the start was not conjoined)."""

    def __init__(self, t: float, defect: float, message: str):
        super().__init__(f"{message} (t = {t!r}, defect = {defect:.3e})")
        self.t = t
        self.defect = defect


class QuadratureNoConvergence(RuntimeError):
    pass


class Event(NamedTuple):
    kind: str
    time: float
    detail: dict


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau with the standard quartic dense-output matrix.

# Stage i (1..6) is y + h * (_A[i] . k[:i]) at t + _C[i] * h. Row 6 is
# the fifth-order solution, whose derivative is the last stage (FSAL).
# The nodes are Python floats so that stage times stay Python floats.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_DENSE_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_POWERS = np.arange(1, 8)  # theta powers of the dense outputs, up to degree 7

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA1 = 0.7 / 5  # PI controller gains
_BETA2 = 0.4 / 5
_MAX_STEPS = 5_000_000  # step budget per solve; exhausting it raises StepBudgetExhausted


def _pi_factor(err: float, err_prev: float | None) -> float:
    """Step factor after an accepted step of error err <= 1: PI control
    on err and the last accepted step's err_prev (None on the first)."""
    if err == 0.0:
        factor = _MAX_FACTOR
    elif err_prev is None:
        factor = _SAFETY * err ** (-0.2)
    else:
        factor = _SAFETY * err ** (-_BETA1) * err_prev ** (_BETA2)
    return min(_MAX_FACTOR, max(_MIN_FACTOR, factor))


def _reject_factor(err: float) -> float:
    """Step factor after a step rejected with finite error err > 1."""
    return min(max(_MIN_FACTOR, _SAFETY * err ** (-0.2)), 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes, states, events, and a piecewise-polynomial dense output.

    Segment i runs from times[i] with step _seg_h[i], and its state at
    theta in [0, 1] is states[i] + h * _seg_q[i] @ theta^(1..d), where d
    is _seg_q's last axis: 4 for the quartic of the DP5(4) solver and 7
    for the DOP853 pair flow.
    """

    times: np.ndarray
    states: np.ndarray
    events: tuple
    meta: dict = field(default_factory=dict)
    _seg_h: np.ndarray = field(default=None, repr=False)
    _seg_q: np.ndarray = field(default=None, repr=False)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def dense_eval(self, t):
        """State at time(s) t from the dense interpolant.

        Accepts a scalar or an array; times must lie in [t0, t_end] up to a
        tiny slack, and are clamped to the covered interval.
        """
        lo, hi = self.t0, self.t_end
        slack = 1e-9 * (1.0 + abs(hi - lo))
        if np.ndim(t) == 0:
            # scalar queries are the hot path in the criteria layer; skip
            # the chunked-gather machinery
            tf = float(t)
            if tf < lo - slack or tf > hi + slack:
                raise ValueError("dense_eval query outside the integrated window")
            tf = lo if tf < lo else (hi if tf > hi else tf)
            i = int(np.searchsorted(self.times, tf, side="right")) - 1
            i = min(max(i, 0), len(self._seg_h) - 1)
            h = self._seg_h[i]
            theta = (tf - self.times[i]) / h
            q = self._seg_q[i]
            acc = q[:, -1]
            for k in range(q.shape[1] - 2, -1, -1):
                acc = acc * theta + q[:, k]
            return self.states[i] + (h * theta) * acc
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < lo - slack) or np.any(t_arr > hi + slack):
            raise ValueError("dense_eval query outside the integrated window")
        t_arr = np.clip(t_arr, lo, hi)
        out = np.empty((len(t_arr), self.states.shape[1]))
        # chunked gather keeps the temporary (npts, dim, 4) array modest
        chunk = 32768
        for s in range(0, len(t_arr), chunk):
            tc = t_arr[s : s + chunk]
            idx = self._segment(tc)
            out[s : s + chunk] = segment_states(
                self.times[idx], self._seg_h[idx], self.states[idx], self._seg_q[idx], tc
            )
        return out

    def _segment(self, ts: np.ndarray) -> np.ndarray:
        """Index of the dense segment that dense_eval reads at each time."""
        return np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self._seg_h) - 1)


def segment_states(t, h, y, q, ts: np.ndarray) -> np.ndarray:
    """Dense-output states at the times ts, one row per time.

    A segment starting at t with step h, state y and coefficients q
    gives y + h * q @ theta^(1..d) at theta = (ts - t) / h, d being q's
    last axis (the polynomial degree). The segment arguments hold either
    one segment for all times or one row per time.
    """
    theta = (ts - t) / h
    tv = theta[:, None] ** _POWERS[: np.shape(q)[-1]]
    if np.ndim(q) == 2:
        return y + h * np.einsum("dk,pk->pd", q, tv)
    return y + h[:, None] * np.einsum("pdk,pk->pd", q, tv)


def _rms_norm(x: np.ndarray) -> float:
    return math.sqrt(float(np.square(x).sum()) / x.size)


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol, exponent=0.2):
    """First step of a solve, one field call: exponent is 1 / (q + 1) for
    a pair whose error estimate has order q (Hairer, Norsett and Wanner,
    sec. II.4)."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 0.5 * (t_end - t0))
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** exponent
    return min(100 * h0, h1, t_end - t0)


def _dp45(
    fun,
    t0: float,
    t_end: float,
    y0: np.ndarray,
    rtol: float,
    atol: float,
    *,
    post_step: Callable | None = None,
    escape_norm: float | None = None,
    escape_slice: slice | None = None,
    underflow: str = "raise",
    stop: Callable | None = None,
) -> Trajectory:
    if not t_end > t0:
        raise ValueError("window must satisfy t_end > t0")
    wall0 = time.perf_counter()
    # stages probing toward a blow-up overflow on purpose, and the
    # non-finite checks below turn that into a rejected step; the
    # warnings stay off for the whole flow, hooks included
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.array(y0, dtype=float)
        n = y.size
        t = float(t0)
        f0 = np.asarray(fun(t, y), dtype=float)
        h = _initial_step(fun, t, y, f0, t_end, rtol, atol)
        h = max(min(h, t_end - t), 1e-13 * max(1.0, abs(t)))

        times = [t]
        states = [y.copy()]
        seg_h: list[float] = []
        seg_q: list[np.ndarray] = []
        events: list[Event] = []
        err_prev: float | None = None
        k = np.empty((7, n))
        k_head = [k[:i] for i in range(7)]  # views of the stages each stage reads
        zeros = np.zeros(n)
        sl = escape_slice if escape_slice is not None else slice(None)
        n_accept = n_reject = 0
        nfev = 2  # f0 and the trial step of _initial_step
        h_min, h_max = math.inf, 0.0

        def _norm_of(state: np.ndarray) -> float:
            return float(np.max(np.abs(state[sl])))

        t_last = t_end - 1e-14 * max(1.0, abs(t_end))  # a node at or past this ends the flow
        steps = 0
        while t < t_last:
            steps += 1
            if steps > _MAX_STEPS:
                raise StepBudgetExhausted(t)
            h = min(h, t_end - t)

            k[0] = f0
            # x . 0 is NaN exactly when an entry of x is inf or NaN
            for i in range(1, 7):
                # y + h * (_A[i] . k[:i]), in place and in that order: in
                # the overflow regime the rounding decides whether a stage
                # is finite
                y_new = _A[i].dot(k_head[i])
                y_new *= h
                y_new += y
                f_new = np.asarray(fun(t + _C[i] * h, y_new), dtype=float)
                if math.isnan(f_new.dot(zeros)):
                    err = math.inf
                    break
                k[i] = f_new
            else:
                if math.isnan(y_new.dot(zeros)):
                    err = math.inf
                else:
                    # RMS of h * (_ERR . k) / (atol + rtol * max(|y|, |y_new|))
                    err_vec = _ERR.dot(k)
                    err_vec *= h
                    scale = np.abs(y)
                    np.maximum(scale, np.abs(y_new), out=scale)
                    scale *= rtol
                    scale += atol
                    err_vec /= scale
                    err = _rms_norm(err_vec)
            nfev += i

            if not math.isfinite(err):
                # non-finite stage or error estimate: halve and retry
                n_reject += 1
                h *= 0.5
                if h < 1e-14 * max(1.0, abs(t)):
                    if underflow == "raise":
                        raise StepUnderflow(t, y)
                    events.append(Event("underflow", t, {"reason": "non-finite"}))
                    break
                continue

            if err > 1.0:
                n_reject += 1
                h *= _reject_factor(err)
                if h < 1e-14 * max(1.0, abs(t)):
                    if underflow == "raise":
                        raise StepUnderflow(t, y)
                    events.append(Event("underflow", t, {"reason": "error control"}))
                    break
                continue

            # accepted
            n_accept += 1
            if h < h_min:
                h_min = h
            if h > h_max:
                h_max = h
            q = k.T @ _DENSE_P  # (n, 4) dense coefficients
            t_new = t + h
            escaped = False
            if escape_norm is not None and _norm_of(y_new) >= escape_norm:
                # earliest crossing inside the step, by bisection on the interpolant
                def _over(theta: float) -> bool:
                    yt = y + h * (q @ theta ** np.arange(1, 5))
                    return _norm_of(yt) >= escape_norm

                lo_th, hi_th = 0.0, 1.0
                if _over(0.0):
                    hi_th = 0.0
                else:
                    for _ in range(80):
                        mid = 0.5 * (lo_th + hi_th)
                        if _over(mid):
                            hi_th = mid
                        else:
                            lo_th = mid
                theta_esc = hi_th if hi_th > 0.0 else 1e-16
                t_esc = t + theta_esc * h
                y_esc = y + h * (q @ theta_esc ** np.arange(1, 5))
                seg_h.append(h)
                seg_q.append(q)
                times.append(t_esc)
                states.append(y_esc)
                events.append(Event("escape", t_esc, {"norm": _norm_of(y_esc)}))
                escaped = True
            if escaped:
                if stop is not None:
                    stop(t, h, y, q, t_esc)
                break

            y_stored = y_new
            if post_step is not None:
                y_stored = np.asarray(post_step(t_new, y_new), dtype=float)

            seg_h.append(h)
            seg_q.append(q)
            times.append(t_new)
            states.append(y_stored.copy())
            if stop is not None and stop(t, h, y, q, math.inf if t_new >= t_last else t_new):
                events.append(Event("stop", t_new, {}))
                break

            t = t_new
            # a hook that hands back the array it was given changed nothing,
            # so the last stage's derivative still holds there
            if y_stored is y_new:
                f0 = f_new
            else:
                f0 = np.asarray(fun(t, y_stored), dtype=float)
                nfev += 1
            y = y_stored

            h *= _pi_factor(err, err_prev)
            err_prev = max(err, 1e-10)

    stats = dict(
        n_accept=n_accept, n_reject=n_reject, nfev=nfev, h_min=h_min, h_max=h_max,
        wall_s=time.perf_counter() - wall0,
    )
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        events=tuple(events),
        meta={"stats": stats},
        _seg_h=np.asarray(seg_h),
        _seg_q=np.asarray(seg_q),
    )


def adaptive_solve(
    field: Callable,
    y0,
    window: tuple[float, float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    **kwargs,
) -> Trajectory:
    """Integrate y' = field(t, y) over the window with local error control.

    Local error per step is kept below atol + rtol * |state| componentwise
    (RMS aggregated). Raises StepUnderflow when the controller cannot make
    progress, which callers interpret as finite-time blow-up. A stage
    with an inf or NaN entry rejects the step and halves it.

    numpy's overflow and invalid warnings are off for the whole flow,
    field and hooks included, and the caller's error state is restored
    on return or raise. meta["stats"] holds n_accept (the nodes after
    the first), n_reject, nfev (every field call, the two of the initial
    step choice included), h_min and h_max over the accepted steps
    (inf and 0 when none was accepted), and wall_s, the solve's wall
    time in seconds. A solve that makes more than _MAX_STEPS step
    attempts raises StepBudgetExhausted.

    The optional ``post_step(t, y)`` sees each accepted state y at t and
    returns the state to store and continue from. It must not change y in
    place: returning y itself keeps the step as it is and reuses the last
    stage's f(t, y), while any other array costs one more evaluation of
    the field there. It may raise to abort the flow. A step's dense output
    ends at its state before the hook.

    The optional ``stop(t, h, y, q, until)`` sees each new dense segment:
    the state at t + theta * h is y + h * q @ theta^(1..4)
    (``segment_states``), and the segment stands for the flow on
    [t, until). until is t + h, the crossing time for the partial step
    of an escape, and inf for the step that reaches the window end, past
    which the final state stands. When stop returns True the flow ends
    at t + h with a "stop" event; after an escape it ends anyway.
    """
    t0, t_end = float(window[0]), float(window[1])
    return _dp45(field, t0, t_end, np.atleast_1d(np.asarray(y0, float)), rtol, atol, **kwargs)


# ---------------------------------------------------------------------------
# Sixth-order Magnus propagator for the real 2x2 linear flow.

# Gauss-Legendre nodes on [0, 1]; the middle one is 1/2
_GL_C1 = 0.5 - math.sqrt(15.0) / 10.0
_GL_C3 = 0.5 + math.sqrt(15.0) / 10.0
_SQRT15_3 = math.sqrt(15.0) / 3.0
_TURN_CAP = 0.5 * math.pi  # largest rotation angle of one accepted step
_RENORM_LIMIT = 1e100  # rescale a fundamental-matrix column beyond this to dodge overflow


def _gauss_reads(coeffs, t: float, h: float) -> tuple:
    """M read at the three Gauss-Legendre points of [t, t + h]."""
    return coeffs(t + _GL_C1 * h), coeffs(t + 0.5 * h), coeffs(t + _GL_C3 * h)


def _omega6(ma: tuple, mb: tuple, mc: tuple, h: float) -> tuple:
    """Omega6 of Y' = M Y over [t, t + h] from M at the Gauss points.

    Returns (tau, p, q, r): the exponent is tau I plus the traceless
    part [[p, q], [r, -p]]. With alpha1 = h Mb,
    alpha2 = (sqrt 15 h / 3)(Mc - Ma) and
    alpha3 = (10 h / 3)(Mc - 2 Mb + Ma); C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1] / 60 (Blanes, Casas, Oteo and Ros,
    Phys. Rep. 470, 2009):
        Omega6 = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    Commutators are traceless, so tau is the trace part of the Gauss
    integral. For traceless X and Y in (p, q, r) form,
    [X, Y] = (qx ry - qy rx, 2 (px qy - qx py), 2 (rx py - px ry)).
    """
    a11, a12, a21, a22 = ma
    b11, b12, b21, b22 = mb
    c11, c12, c21, c22 = mc
    k2 = _SQRT15_3 * h
    k3 = h * (10.0 / 3.0)
    p1, q1, r1 = 0.5 * h * (b11 - b22), h * b12, h * b21
    p2, q2, r2 = 0.5 * k2 * ((c11 - c22) - (a11 - a22)), k2 * (c12 - a12), k2 * (c21 - a21)
    p3 = 0.5 * k3 * ((c11 - c22) - 2.0 * (b11 - b22) + (a11 - a22))
    q3 = k3 * (c12 - 2.0 * b12 + a12)
    r3 = k3 * (c21 - 2.0 * b21 + a21)
    tau = 0.5 * h * (b11 + b22) + k3 * ((c11 + c22) - 2.0 * (b11 + b22) + (a11 + a22)) / 24.0
    # C1
    pc, qc, rc = q1 * r2 - q2 * r1, 2.0 * (p1 * q2 - q1 * p2), 2.0 * (r1 * p2 - p1 * r2)
    # alpha2 + C2
    u, v, w = 2.0 * p3 + pc, 2.0 * q3 + qc, 2.0 * r3 + rc
    pd = p2 - (q1 * w - v * r1) / 60.0
    qd = q2 - (p1 * v - q1 * u) / 30.0
    rd = r2 - (r1 * u - p1 * w) / 30.0
    # -20 alpha1 - alpha3 + C1
    u, v, w = pc - 20.0 * p1 - p3, qc - 20.0 * q1 - q3, rc - 20.0 * r1 - r3
    return (
        tau,
        p1 + p3 / 12.0 + (v * rd - qd * w) / 240.0,
        q1 + q3 / 12.0 + (u * qd - v * pd) / 120.0,
        r1 + r3 / 12.0 + (w * pd - u * rd) / 120.0,
    )


def _omega4(m0: tuple, mb: tuple, m1: tuple, h: float) -> tuple:
    """Omega4 of Y' = M Y over [t, t + h] from M at its start, middle
    and end, as (tau, p, q, r) like _omega6: Simpson's rule for the
    integral of M, less (h^2 / 12) [M0, M1].

    Its quadrature is not the Gauss rule of Omega6, so Omega6 - Omega4
    holds the quadrature error as well as the commutator terms: it does
    not vanish where M(t) commutes with itself, as M = f(t) K does.
    """
    a11, a12, a21, a22 = m0
    b11, b12, b21, b22 = mb
    c11, c12, c21, c22 = m1
    k = h / 6.0
    pa, pc = 0.5 * (a11 - a22), 0.5 * (c11 - c22)
    g = h * h / 12.0
    return (
        0.5 * k * ((a11 + a22) + 4.0 * (b11 + b22) + (c11 + c22)),
        k * (pa + 2.0 * (b11 - b22) + pc) - g * (a12 * c21 - c12 * a21),
        k * (a12 + 4.0 * b12 + c12) - 2.0 * g * (pa * c12 - a12 * pc),
        k * (a21 + 4.0 * b21 + c21) - 2.0 * g * (a21 * pc - pa * c21),
    )


def _expm2(tau: float, p: float, q: float, r: float) -> tuple:
    """exp(tau I + N), N = [[p, q], [r, -p]], in closed form, row-major.

    N^2 = d I with d = p^2 + q r. For d < 0, exp(N) = cos w I + sin w / w N
    with w = sqrt(-d), and for 0 < d <= 1 the same with cosh and sinh.
    For w = sqrt(d) > 1 the eigenvalues tau +- w are far apart, and
    cosh w - sinh w would lose the smaller one to cancellation, so
    exp = e^(tau + w) [(w I + N) + e^(-2w) (w I - N)] / (2 w), with the
    diagonal terms w +- p formed without cancellation from
    (w + p)(w - p) = q r. Raises OverflowError when the exponential
    overflows.
    """
    d = p * p + q * r
    if d > 1.0:
        w = math.sqrt(d)
        g = math.exp(tau + w) / (2.0 * w)
        small = math.exp(-2.0 * w)
        if p >= 0.0:
            sp = w + p
            sm = q * r / sp
        else:
            sm = w - p
            sp = q * r / sm
        off = g * (1.0 - small)
        return g * (sp + small * sm), off * q, off * r, g * (sm + small * sp)
    e = math.exp(tau)
    if d > 0.0:
        w = math.sqrt(d)
        c, k = math.cosh(w), math.sinh(w) / w
    elif d < 0.0:
        w = math.sqrt(-d)
        c, k = math.cos(w), math.sin(w) / w
    else:
        c = k = 1.0
    ec, ek = e * c, e * k
    return ec + ek * p, ek * q, ek * r, ec - ek * p


@dataclass(frozen=True)
class MagnusFlow:
    """Nodes and states of the 2x2 fundamental matrix of Y' = M(t) Y.

    states[i] is (phi, psi, phi, psi): the columns of Y(times[i]) one
    after the other, Y(times[0]) = I, each column divided by its largest
    entry whenever that entry passes _RENORM_LIMIT. stats holds n_accept,
    n_reject, reads (coefficient reads of the flow: one at the start and
    four per step attempt) and wall_s.
    """

    times: np.ndarray
    states: np.ndarray
    stats: dict
    coeffs: Callable = field(repr=False)

    def state_at(self, t: float) -> tuple:
        """The state at t: the Omega6 propagator from the last node at or
        before t, with three fresh reads of M."""
        i = max(int(np.searchsorted(self.times, t, side="right")) - 1, 0)
        t_i = float(self.times[i])
        h = t - t_i
        e11, e12, e21, e22 = _expm2(*_omega6(*_gauss_reads(self.coeffs, t_i, h), h))
        y1, y2, y3, y4 = self.states[i].tolist()
        return e11 * y1 + e12 * y2, e21 * y1 + e22 * y2, e11 * y3 + e12 * y4, e21 * y3 + e22 * y4


def magnus_flow(
    coeffs: Callable,
    window: tuple[float, float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> MagnusFlow:
    """The 2x2 fundamental matrix of Y' = M(t) Y from Y(t0) = I.

    coeffs(t) returns the real entries (m11, m12, m21, m22) of M(t). Each
    step attempt reads M at the three Gauss-Legendre points of [t, t + h]
    and forms the sixth-order Magnus exponent Omega6, which advances Y,
    and reads M at t + h for the embedded fourth-order Omega4 on
    Simpson's nodes t, t + h / 2, t + h; an accepted step hands that
    last read on as the next step's start. Both exponents are
    exponentiated in closed form. The local error estimate is
    (exp Omega6 - exp Omega4) Y, scaled entrywise by
    atol + rtol * max(|y|, |y_new|) and combined as an RMS, with the PI
    step control and step factors of the DP5(4) solver. The two
    quadratures differ, so the estimate sees quadrature error even
    where M(t) commutes with itself. A constant M is propagated exactly.

    Turn cap: when the traceless part of Omega6 has eigenvalues
    +-i beta, a step is accepted only with beta <= pi / 2, and the next
    step is shrunk to keep within it, so no step's flow crosses a line
    through the origin twice. An OverflowError of the exponential or a
    non-finite state rejects the step and halves it. A step below
    1e-14 * max(1, |t|) raises StepUnderflow; more than _MAX_STEPS step
    attempts raise StepBudgetExhausted. After each accepted step, a
    column whose largest entry exceeds _RENORM_LIMIT is divided by that
    entry, which moves none of its zeros.
    """
    t0, t_end = float(window[0]), float(window[1])
    if not t_end > t0:
        raise ValueError("window must satisfy t_end > t0")
    wall0 = time.perf_counter()
    t = t0
    y1, y2, y3, y4 = 1.0, 0.0, 0.0, 1.0
    times = [t]
    states = [(y1, y2, y3, y4)]
    m0 = coeffs(t)
    # a small first step costs little: where M is constant the error
    # estimate is 0, and the step grows tenfold per accepted step
    h = 1e-4 * (t_end - t0)
    err_prev = None
    n_accept = n_reject = 0
    t_last = t_end - 1e-14 * max(1.0, abs(t_end))  # a node at or past this ends the flow
    steps = 0
    while t < t_last:
        steps += 1
        if steps > _MAX_STEPS:
            raise StepBudgetExhausted(t)
        h = min(h, t_end - t)
        ma, mb, mc = _gauss_reads(coeffs, t, h)
        m1 = coeffs(t + h)
        tau, p, q, r = _omega6(ma, mb, mc, h)
        d = p * p + q * r
        beta = math.sqrt(-d) if d < 0.0 else 0.0
        err = math.inf
        if beta > _TURN_CAP:
            shrink = _SAFETY * _TURN_CAP / beta
        else:
            shrink = 0.5
            try:
                e11, e12, e21, e22 = _expm2(tau, p, q, r)
                f11, f12, f21, f22 = _expm2(*_omega4(m0, mb, m1, h))
            except OverflowError:
                pass
            else:
                n1, n2 = e11 * y1 + e12 * y2, e21 * y1 + e22 * y2
                n3, n4 = e11 * y3 + e12 * y4, e21 * y3 + e22 * y4
                if math.isfinite(n1) and math.isfinite(n2) and math.isfinite(n3) and math.isfinite(n4):
                    d11, d12, d21, d22 = e11 - f11, e12 - f12, e21 - f21, e22 - f22
                    err = math.sqrt(
                        (
                            ((d11 * y1 + d12 * y2) / (atol + rtol * max(abs(y1), abs(n1)))) ** 2
                            + ((d21 * y1 + d22 * y2) / (atol + rtol * max(abs(y2), abs(n2)))) ** 2
                            + ((d11 * y3 + d12 * y4) / (atol + rtol * max(abs(y3), abs(n3)))) ** 2
                            + ((d21 * y3 + d22 * y4) / (atol + rtol * max(abs(y4), abs(n4)))) ** 2
                        )
                        / 4.0
                    )
                    if err > 1.0:
                        shrink = _reject_factor(err)

        if not err <= 1.0:
            # over the turn cap, a failed exponential, a non-finite state or
            # error estimate, or too large an error
            n_reject += 1
            h *= shrink
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepUnderflow(t, np.array((y1, y2, y3, y4)))
            continue

        n_accept += 1
        t += h
        m0 = m1
        m = max(abs(n1), abs(n2))
        if m > _RENORM_LIMIT:
            n1, n2 = n1 / m, n2 / m
        m = max(abs(n3), abs(n4))
        if m > _RENORM_LIMIT:
            n3, n4 = n3 / m, n4 / m
        y1, y2, y3, y4 = n1, n2, n3, n4
        times.append(t)
        states.append((y1, y2, y3, y4))

        h_next = h * _pi_factor(err, err_prev)
        if beta > 0.0:
            h_next = min(h_next, _SAFETY * _TURN_CAP * h / beta)
        h = h_next
        err_prev = max(err, 1e-10)

    stats = dict(
        n_accept=n_accept, n_reject=n_reject, reads=1 + 4 * steps,
        wall_s=time.perf_counter() - wall0,
    )
    return MagnusFlow(
        times=np.asarray(times), states=np.asarray(states), stats=stats, coeffs=coeffs
    )


# ---------------------------------------------------------------------------
# Gauss-Kronrod (7, 15) adaptive quadrature.

_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fk = 0.0
    fg = 0.0
    for j in range(8):
        x = hw * _XGK[j]
        if j == 7:
            v = f(c)
            fk += _WGK[j] * v
            fg += _WG[3] * v
        else:
            v = f(c - x) + f(c + x)
            fk += _WGK[j] * v
            if j % 2 == 1:
                fg += _WG[(j - 1) // 2] * v
    res_k = fk * hw
    res_g = fg * hw
    return res_k, abs(res_k - res_g)


def quadrature(f: Callable[[float], float], window: tuple[float, float], tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod (7, 15) integral of f over the window.

    Splits the worst panel until the summed error estimate is below
    tol * (1 + |result|). Raises QuadratureNoConvergence when a panel has
    been bisected 50 times (width below (b - a) / 2^50) without converging.
    """
    a, b = float(window[0]), float(window[1])
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    min_width = (b - a) * 2.0**-50
    val, err = _gk15(f, a, b)
    panels = [(err, a, b, val)]
    for _ in range(20000):
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= tol * (1.0 + abs(total)):
            return sign * total
        panels.sort(key=lambda p: p[0])
        werr, wa, wb, _ = panels.pop()
        if wb - wa < min_width:
            raise QuadratureNoConvergence(
                f"panel [{wa}, {wb}] at maximum depth with error {werr:.3e}"
            )
        mid = 0.5 * (wa + wb)
        v1, e1 = _gk15(f, wa, mid)
        v2, e2 = _gk15(f, mid, wb)
        panels.append((e1, wa, mid, v1))
        panels.append((e2, mid, wb, v2))
    raise QuadratureNoConvergence("panel budget exhausted")


# ---------------------------------------------------------------------------
# State encodings.


def pack_pair(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(Phi, Psi) complex 2x2 pair -> 16 interleaved reals.

    The 16 reals are the row-major complex 4x2 frame X = [Phi; Psi]:
    ``_frame(y)`` views them as X without a copy. The pair flow's field,
    renormalization and defect read X's 8 complex entries from them.
    """
    out = np.empty(16)
    out[:8] = np.asarray(phi, complex).reshape(4).view(float)
    out[8:] = np.asarray(psi, complex).reshape(4).view(float)
    return out


def _frame(y: np.ndarray) -> np.ndarray:
    """The 4x2 complex frame [Phi; Psi] of 16 packed reals, as a view."""
    return y.view(complex).reshape(4, 2)


def unpack_pair(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    phi = y[:8].copy().view(complex).reshape(2, 2)
    psi = y[8:].copy().view(complex).reshape(2, 2)
    return phi, psi


def _unpack_many(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = states.shape[0]
    phi = np.ascontiguousarray(states[:, :8]).view(complex).reshape(n, 2, 2)
    psi = np.ascontiguousarray(states[:, 8:16]).view(complex).reshape(n, 2, 2)
    return phi, psi


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


# ---------------------------------------------------------------------------
# Hamiltonian system drivers.


def _hamiltonian_field(scenario):
    """y' for the pair flow: the product H X, from one scenario.eval(t) per call.

    X = [Phi; Psi] is the 4x2 view of the 16 reals (see pack_pair) and
    H = [[A, B], [C, -A*]]. The 32 complex products are Python complex
    arithmetic on the read's entry 4-tuples, which at this size costs
    less than filling a 4x4 array and calling np.dot.
    """
    ev = scenario.eval

    def field(t, y):
        (a11, a12, a21, a22), (b11, b12, b21, b22), (c11, c12, c21, c22) = ev(t)
        # -A* = [[d11, d12], [d21, d22]]
        d11, d12, d21, d22 = -a11.conjugate(), -a21.conjugate(), -a12.conjugate(), -a22.conjugate()
        p11, p12, p21, p22, s11, s12, s21, s22 = y.view(complex).tolist()
        return np.array(
            [
                a11 * p11 + a12 * p21 + b11 * s11 + b12 * s21,
                a11 * p12 + a12 * p22 + b11 * s12 + b12 * s22,
                a21 * p11 + a22 * p21 + b21 * s11 + b22 * s21,
                a21 * p12 + a22 * p22 + b21 * s12 + b22 * s22,
                c11 * p11 + c12 * p21 + d11 * s11 + d12 * s21,
                c11 * p12 + c12 * p22 + d11 * s12 + d12 * s22,
                c21 * p11 + c22 * p21 + d21 * s11 + d22 * s21,
                c21 * p12 + c22 * p22 + d21 * s12 + d22 * s22,
            ],
            complex,
        ).view(float)

    return field


def conjoined_defect(phi: np.ndarray, psi: np.ndarray) -> float:
    """The conjoinedness defect max |G - G*| of G = Phi* Psi.

    G* = Psi* Phi, so this is ||Phi* Psi - Psi* Phi|| (max entry).
    """
    return _defect_and_scale(np.concatenate((phi, psi)))[0]


def _defect_and_scale(x: np.ndarray) -> tuple[float, float]:
    """Defect of the frame x = [Phi; Psi] and the scale 1 + |Phi| |Psi| of its bound.

    One pass over the 8 entries in Python complex arithmetic. The diagonal
    of G - G* is 2i Im G_kk and its two off-diagonal entries have the
    modulus |G_12 - conj(G_21)|.
    """
    p11, p12, p21, p22, s11, s12, s21, s22 = x.ravel().tolist()
    c11, c12, c21, c22 = p11.conjugate(), p12.conjugate(), p21.conjugate(), p22.conjugate()
    g11 = c11 * s11 + c21 * s21
    g12 = c11 * s12 + c21 * s22
    g21 = c12 * s11 + c22 * s21
    g22 = c12 * s12 + c22 * s22
    defect = max(2.0 * abs(g11.imag), 2.0 * abs(g22.imag), abs(g12 - g21.conjugate()))
    phi_max = max(abs(p11), abs(p12), abs(p21), abs(p22))
    psi_max = max(abs(s11), abs(s12), abs(s21), abs(s22))
    return defect, 1.0 + phi_max * psi_max


def _qr_columns(x: np.ndarray, g: np.ndarray | None = None) -> tuple:
    """Orthonormalize the two columns of a 4x2 complex frame.

    Modified Gram-Schmidt with positive real diagonal, so the triangular
    factor has det R real and positive, in one pass of Python complex
    arithmetic over the 8 entries. Returns (Q, log det R); Q is a new
    C-ordered 4x2 array, so Q.reshape(8).view(float) is its 16 reals.
    With a second 4x2 frame g, returns (Q, log det R, g R^-1) as well,
    g R^-1 from the same column operations: for the field of a linear
    flow, f(t, X R^-1) = f(t, X) R^-1.
    """
    (u1, v1), (u2, v2), (u3, v3), (u4, v4) = x.tolist()
    r11 = math.hypot(abs(u1), abs(u2), abs(u3), abs(u4))
    if r11 == 0.0:
        raise RuntimeError("solution frame lost rank during orthonormalization")
    u1, u2, u3, u4 = u1 / r11, u2 / r11, u3 / r11, u4 / r11
    dot = u1.conjugate() * v1 + u2.conjugate() * v2 + u3.conjugate() * v3 + u4.conjugate() * v4
    v1, v2, v3, v4 = v1 - dot * u1, v2 - dot * u2, v3 - dot * u3, v4 - dot * u4
    r22 = math.hypot(abs(v1), abs(v2), abs(v3), abs(v4))
    if r22 < 1e-250 * max(1.0, r11):
        raise RuntimeError("solution frame lost rank during orthonormalization")
    q = np.array([u1, v1 / r22, u2, v2 / r22, u3, v3 / r22, u4, v4 / r22], complex).reshape(4, 2)
    log_det_r = math.log(r11) + math.log(r22)
    if g is None:
        return q, log_det_r
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = g.tolist()
    a1, a2, a3, a4 = a1 / r11, a2 / r11, a3 / r11, a4 / r11
    b1, b2, b3, b4 = (b1 - dot * a1) / r22, (b2 - dot * a2) / r22, (b3 - dot * a3) / r22, (b4 - dot * a4) / r22
    return q, log_det_r, np.array([a1, b1, a2, b2, a3, b3, a4, b4], complex).reshape(4, 2)


def _solve_pair(scenario, phi0, psi0, window, rtol, atol, *, frame: bool) -> Trajectory:
    """The matrix pair flow on DOP853, with the conjoinedness defect checked at every node.

    A start with defect above 1e-9 * (1 + |Phi| |Psi|) is rejected, and a
    node whose defect exceeds CONJ_TOL * (1 + |Phi| |Psi|) raises
    ConjoinedDrift. With frame set, the start and every accepted state
    are replaced by the orthonormal Q factor of the stacked 4x2 frame
    [Phi; Psi] and log det R is added to a running scale; without it the
    scale stays 0. The renormalized state's derivative is the step end's
    times R^-1, so the renormalization costs no field call. meta holds
    the node scales (log_scale), the node defects after the start
    (defects), the start defect, and dop853.integrate's stats and turn
    estimates.
    """
    y0 = pack_pair(phi0, psi0)
    x0 = _frame(y0)
    d0, scale0 = _defect_and_scale(x0)
    if d0 > 1e-9 * scale0:
        raise ConjoinedDrift(float(window[0]), d0, "initial pair is not conjoined")
    log_scale = 0.0
    if frame:
        q0, log_scale = _qr_columns(x0)
        y0 = q0.reshape(8).view(float)
    log_nodes = [log_scale]
    defects: list[float] = []

    def post_step(t, y, f):
        nonlocal log_scale
        x = _frame(y)
        if frame:
            x, logr, g = _qr_columns(x, _frame(f))
            log_scale += logr
            y, f = x.reshape(8).view(float), g.reshape(8).view(float)
        d, scale = _defect_and_scale(x)
        if d > CONJ_TOL * scale:
            raise ConjoinedDrift(t, d, "conjoinedness defect bound exceeded")
        log_nodes.append(log_scale)
        defects.append(d)
        return y, f

    from . import dop853

    traj = dop853.integrate(
        _hamiltonian_field(scenario), float(window[0]), float(window[1]), y0, rtol, atol, post_step
    )
    traj.meta.update(
        kind="hamiltonian",
        log_scale=np.asarray(log_nodes),
        defects=np.asarray(defects),
        initial_defect=d0,
    )
    return traj


def solve_hamiltonian(
    scenario,
    phi0,
    psi0,
    window: tuple[float, float],
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Integrate the matrix pair flow, monitoring the conjoinedness defect.

    The defect d(t) = ||Phi* Psi - Psi* Phi|| is recorded at every accepted
    step. A start with d(t0) above tolerance is rejected immediately, and a
    drift beyond 1e-8 * (1 + |Phi| |Psi|) raises ConjoinedDrift, which in
    practice means the integration tolerance is too loose for the window.
    The states are Phi and Psi themselves; meta["log_scale"] is all zeros.
    """
    return _solve_pair(scenario, phi0, psi0, window, rtol, atol, frame=False)


def solve_hamiltonian_frame(
    scenario,
    phi0,
    psi0,
    window: tuple[float, float],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> Trajectory:
    """Frame-renormalized integration of the matrix pair flow.

    After every accepted step the stacked 4x2 frame [Phi; Psi] is replaced
    by its orthonormal Q factor and log det R is added to a running scale.
    meta["log_scale"][i] holds the accumulated log factor at node i, and
    det_phi restores det Phi from the stored frame with a positive real
    scale. Zeros and signs of det Phi are unaffected.
    """
    return _solve_pair(scenario, phi0, psi0, window, rtol, atol, frame=True)


def det_phi(traj: Trajectory, ts) -> tuple[np.ndarray, np.ndarray]:
    """det Phi of a pair trajectory at the times ts, as (det, log_scale).

    det Phi(t) = det * exp(log_scale). det is that of the Phi block of
    the dense output, and log_scale is the scale of the segment that
    dense_eval reads at t. A segment runs from its start node, after
    renormalization, to the state before the next renormalization, so
    all of it, its end included, carries its start node's scale. The two
    factors come apart so that a caller can work in log form where
    exp(log_scale) overflows.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    phi, _ = _unpack_many(traj.dense_eval(ts))
    return _det2(phi), traj.meta["log_scale"][traj._segment(ts)]


# ---------------------------------------------------------------------------
# Riccati drivers.


@dataclass(frozen=True)
class BlowupRecord:
    """Finite-time escape diagnostic for a Riccati flow."""

    escape_time: float
    last_norm: float
    g_lower_bound: float | None = None


def solve_scalar_riccati(
    f: Callable,
    g: Callable,
    h: Callable,
    y0: float,
    window: tuple[float, float],
    *,
    y_max: float = DEFAULT_Y_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[Trajectory, BlowupRecord | None]:
    """Integrate y' + f y^2 + g y + h = 0 until T or escape at |y| >= y_max."""

    def field(t, y):
        return np.array([-(f(t) * y[0] * y[0] + g(t) * y[0] + h(t))])

    traj = _dp45(
        field,
        float(window[0]),
        float(window[1]),
        np.array([float(y0)]),
        rtol,
        atol,
        escape_norm=y_max,
        underflow="event",
    )
    traj.meta.update(kind="scalar_riccati")
    record = None
    if any(e.kind in ("escape", "underflow") for e in traj.events):
        record = BlowupRecord(
            escape_time=traj.t_end,
            last_norm=float(np.max(np.abs(traj.states[-1]))),
        )
    return traj, record


def solve_matrix_riccati(
    scenario,
    z0,
    window: tuple[float, float],
    *,
    y_max: float = DEFAULT_Y_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[Trajectory, BlowupRecord | None]:
    """Integrate Z' + Z B Z + A* Z + Z A - C = 0 for Hermitian Z.

    The state is the Hermitian parametrization (z11, z22, Re z12, Im z12),
    so the symmetry that the exact flow preserves holds by construction at
    every accepted step; the Hermitian part of the right side is taken at
    each field evaluation, which absorbs roundoff asymmetry continuously.
    The fifth component accumulates G(t) = integral of tr(B Z), whose
    boundedness below separates escape to +infinity from continuable flows.
    """
    z0 = np.asarray(z0, complex)
    flag = is_hermitian(z0)
    if not flag.is_hermitian:
        from .mat2 import NotHermitian

        raise NotHermitian(flag.max_asymmetry, "Z0")
    ev = scenario.eval

    def field(t, y):
        z11, z22 = y[0], y[1]
        z12 = y[2] + 1j * y[3]
        a, b, c = (np.reshape(m, (2, 2)) for m in ev(t))
        z = np.array([[z11, z12], [np.conj(z12), z22]])
        rhs = c - z @ b @ z - adjoint(a) @ z - z @ a
        dg = float(np.real(np.trace(b @ z)))
        return np.array(
            [
                float(np.real(rhs[0, 0])),
                float(np.real(rhs[1, 1])),
                float(np.real(rhs[0, 1] + np.conj(rhs[1, 0])) / 2.0),
                float(np.imag(rhs[0, 1] + np.conj(rhs[1, 0])) / 2.0),
                dg,
            ]
        )

    y0 = np.array(
        [
            float(np.real(z0[0, 0])),
            float(np.real(z0[1, 1])),
            float(np.real(z0[0, 1])),
            float(np.imag(z0[0, 1])),
            0.0,
        ]
    )
    traj = _dp45(
        field,
        float(window[0]),
        float(window[1]),
        y0,
        rtol,
        atol,
        escape_norm=y_max,
        escape_slice=slice(0, 4),
        underflow="event",
    )
    g_min = float(np.min(traj.states[:, 4]))
    traj.meta.update(kind="matrix_riccati", g_lower_bound=g_min)
    record = None
    if any(e.kind in ("escape", "underflow") for e in traj.events):
        record = BlowupRecord(
            escape_time=traj.t_end,
            last_norm=float(np.max(np.abs(traj.states[-1, :4]))),
            g_lower_bound=g_min,
        )
    return traj, record


# ---------------------------------------------------------------------------
# Determinant zero detection.


def _brentq(f: Callable, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    Netlib's zeroin as scipy's brentq.c has it, with the same float
    operations in the same order, so it returns scipy.optimize.brentq's
    root bit for bit. The result is within xtol + rtol |x| of a sign
    change. An end where f is exactly 0 is returned as it is. Raises
    ValueError when f(a) and f(b) have the same sign or f gives NaN, and
    RuntimeError after maxiter iterations without convergence.
    """

    def call(x):  # a Python float, as the C code reads one double
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # an underflowed product: C's inf or nan bisects
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def sign_change_roots(fn: Callable[[float], float], ts: np.ndarray, vals: np.ndarray) -> list:
    """Roots of fn in the grid cells [ts[i], ts[i + 1]] where vals changes sign.

    vals holds fn on the grid ts. Every cell whose end values have
    strictly opposite signs is refined by Brent's method (_brentq) to
    about 1e-13; a grid value of exactly 0 brackets nothing.
    """
    sign = np.sign(vals)
    cells = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return [_brentq(fn, ts[i], ts[i + 1], xtol=1e-13, rtol=8.9e-16) for i in cells]


@dataclass(frozen=True)
class ZeroRecord:
    """A zero of det Phi: its time, the residual |det Phi / det(Phi + i Psi)|
    there (at most 1), and its multiplicity dim ker Phi (1 or 2)."""

    time: float
    residual: float
    multiplicity: int


def _focal_phases(x, sqrt, phase):
    """The eigen-angles of U = (Phi - i Psi)(Phi + i Psi)^-1 less pi, in (-pi, pi].

    x is [Phi; Psi] row-major: 8 Python complexes (cmath's sqrt and phase)
    or 8 numpy arrays (numpy's). U + I = 2 Phi (Phi + i Psi)^-1, so
    det Phi = 0 exactly when a phase is 0, and renormalizing the frame
    leaves U unchanged. The half-difference of U's diagonal keeps a
    double eigenvalue double to round-off.
    """
    p11, p12, p21, p22, s11, s12, s21, s22 = x
    w11, w12, w21, w22 = p11 + 1j * s11, p12 + 1j * s12, p21 + 1j * s21, p22 + 1j * s22
    v11, v12, v21, v22 = p11 - 1j * s11, p12 - 1j * s12, p21 - 1j * s21, p22 - 1j * s22
    det_w = w11 * w22 - w12 * w21
    # U = V adj(W) / det W
    u11 = (v11 * w22 - v12 * w21) / det_w
    u12 = (v12 * w11 - v11 * w12) / det_w
    u21 = (v21 * w22 - v22 * w21) / det_w
    u22 = (v22 * w11 - v21 * w12) / det_w
    mid, half_gap = 0.5 * (u11 + u22), 0.5 * (u11 - u22)
    root = sqrt(half_gap * half_gap + u12 * u21)
    return phase(-mid - root), phase(root - mid)


_PIECE_TURN = 0.75 * math.pi  # a step whose turn estimate exceeds this is read in pieces


def _turn(a, b):  # distance from phase a to phase b on the circle
    return abs((b - a + math.pi) % (2.0 * math.pi) - math.pi)


def _step_zeros(traj: Trajectory, i: int, eps_zero: float) -> list:
    """The zeros of det Phi on step i, from _focal_phases of its dense output.

    A step whose turn estimate exceeds _PIECE_TURN is first cut into
    ceil(estimate / _PIECE_TURN) equal pieces, so that no angle turns
    more than _PIECE_TURN on a piece. Each piece is halved until no
    phase moves over pi/4 (the phases at the ends matched by the smaller
    movement). _brentq refines each sign change not across the cut at
    pi: of the phase nearer 0 when the two are over pi/2 apart at both
    ends, else of the lower or upper one. Two roots are one double zero
    when both phases are within eps_zero of 0 at their mean.
    """
    t0, h = float(traj.times[i]), float(traj._seg_h[i])
    y0 = traj.states[i].view(complex)
    q = traj._seg_q[i].T.copy().view(complex)  # row k: the theta^(k + 1) coefficients
    powers = _POWERS[: len(q)] - 1

    def phases(t: float) -> tuple:
        th = (t - t0) / h
        x = y0 + (h * th) * (th**powers @ q)
        return _focal_phases(x.tolist(), cmath.sqrt, cmath.phase)

    def record(t: float, multiplicity: int) -> list:
        p1, p2 = phases(t)
        residual = abs(math.sin(0.5 * p1) * math.sin(0.5 * p2))
        return [ZeroRecord(float(t), residual, multiplicity)] if residual <= eps_zero else []

    zeros = []
    t1 = float(traj.times[i + 1])
    turn = float(traj.meta["turn"][i])
    n = math.ceil(turn / _PIECE_TURN) if turn > _PIECE_TURN else 1
    ends = [(t, phases(t)) for t in [t0 + (t1 - t0) * j / n for j in range(n)] + [t1]]
    # the first piece last on the stack, so the zeros come out in time order
    pending = [(ta, pa, tb, pb) for (ta, pa), (tb, pb) in zip(ends, ends[1:])][::-1]
    while pending:
        ta, pa, tb, pb = pending.pop()
        tm = 0.5 * (ta + tb)
        same = max(_turn(pa[0], pb[0]), _turn(pa[1], pb[1]))
        swap = max(_turn(pa[0], pb[1]), _turn(pa[1], pb[0]))
        if min(same, swap) > 0.25 * math.pi and ta < tm < tb:
            pm = phases(tm)
            pending += [(tm, pm, tb, pb), (ta, pa, tm, pm)]
            continue
        picks = (min, max) if min(_turn(*pa), _turn(*pb)) <= 0.5 * math.pi else (lambda p: min(p, key=abs),)
        roots = sorted(
            _brentq(lambda t: pick(phases(t)), ta, tb, xtol=1e-13, rtol=8.9e-16)
            for pick in picks
            if (pick(pa) < 0.0) != (pick(pb) < 0.0) and abs(pick(pa)) + abs(pick(pb)) < math.pi
        )
        tm = sum(roots) / 2
        if len(roots) == 2 and max(map(abs, phases(tm))) <= eps_zero:
            zeros += record(tm, 2)
        else:
            zeros += [z for t in roots for z in record(t, 1)]
    return zeros


def detect_det_zeros(traj: Trajectory, eps_zero: float = 1e-7) -> list[ZeroRecord]:
    """Zeros of det Phi on (t0, t_end] of a Hamiltonian trajectory, one record per time.

    det Phi = 0 exactly when an eigen-angle of the unitary U of
    _focal_phases is pi; when both are, the zero has multiplicity 2. The
    angles are read at the nodes in one array pass; a pairing of a step's
    start and end angles (same or swapped) fits when none turns farther
    than the step's turn estimate (meta["turn"], dop853._step_turns). A
    step is read on its dense output (_step_zeros), in pieces, when its
    estimate exceeds _PIECE_TURN (an angle may turn past pi, which the
    nodes read as a small turn the other way); it is read when no pairing
    fits, or when a fitting one has an angle whose ends lie on the two
    sides of pi within the estimate of it (1e-9 of slack covers numpy's
    phases against cmath's). A record is kept when its residual is at most
    eps_zero. Under B >= 0 the angles move one way (Barrett, Proc. AMS 8,
    1957). For an indefinite B, an angle that reaches pi and turns back
    within one step, with both ends on one side of pi, is not read, nor
    one that does so within one halved piece of a read step.
    """
    if traj.meta.get("kind") != "hamiltonian":
        raise ValueError("detect_det_zeros expects a Hamiltonian trajectory")
    a = np.array(_focal_phases(traj.states.view(complex).T, np.sqrt, np.angle))
    a, b = a[:, :-1], a[:, 1:]
    paired = np.array([b, b[::-1]])  # the end angles paired the same way, then swapped
    reach = traj.meta["turn"] + 1e-9
    fits = (_turn(a, paired) <= reach).all(axis=1)
    hits = (np.minimum(a, paired) < 1e-9) & (np.maximum(a, paired) > -1e-9) & (abs(a) + abs(paired) <= reach)
    keep = (traj.meta["turn"] > _PIECE_TURN) | ~fits.any(axis=0) | (fits & hits.any(axis=1)).any(axis=0)
    return [z for i in np.nonzero(keep)[0].tolist() for z in _step_zeros(traj, i, eps_zero)]
