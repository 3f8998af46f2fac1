"""Reference checks the test suite compares the package against.

* ``comparison_oracle``: existence and ordering transfer between two
  scalar Riccati flows with ordered free terms (f >= 0, h <= h1);
* ``subsystem_solve``: the joint flow of (z11, y) and (z22, v) after the
  ratio substitutions;
* ``coupling_bound_check``: the coupling envelope inequality against
  that flow. It always uses the plus_c12 drive, which is the form
  consistent with the variation-of-constants representation of y and v.
* ``full_window_partition_search``: the greedy partition search as it
  was before its condition flow stopped at the first failed sample. It
  integrates each flow to the window end (or its escape) and samples it
  afterwards, so ``riccati.partition_search`` must return the same
  partition.
* ``per_start_scalar_osc_test``: the scalar oscillation test as it was
  before it integrated the fundamental matrix. It runs one flow per
  start (1, 0) and (0, 1), with four coefficient callables, and
  rescales each state by its own max. It counts zeros with
  ``_scan_zeros``, the sign-change scan on a fixed 8192-point grid
  that the package used before it scanned the accepted nodes.
* ``window_grid_det_zeros``: ``odeint.detect_det_zeros`` as it was
  before it scanned the accepted nodes. Its grid spans the window at
  the smaller of 1% of the window and the shortest step, between 101
  and 262,145 points, and it refines at most 4,096 modulus dips. Its
  sign-change and modulus-dip detectors read the normalized indicator
  ``_indicator_arrays``, and its ``ZeroRecord`` says which one found
  each zero; both are the package's as they were before it counted
  the eigen-angles of U.
* ``matrix_chi_diag``, ``matrix_psd_reduce``: ``criteria.chi_diag`` and
  ``criteria.psd_reduce`` as they were on 2x2 numpy arrays, before their
  per-stage reads moved to entry 4-tuples of Python scalars. They give
  the references of chi_j and of the reduced coefficients S, P, Q.
  ``matrix_psd_reduce`` takes nothing from the package's square root:
  S from ``np.linalg.eigh`` (``eigh_sqrt``), S' from
  ``lstsq_sqrt_derivative``, the least-squares solve of
  S S' + S' S = B', and P = F M with F from ``mat2.solve_sandwich``;
* ``as_blocks``: one Scenario read (three entry 4-tuples) as three 2x2
  arrays, the form every reference here computes on.
* ``central_difference``: the reference of every wired derivative.
* ``constant_focal_points``: the exact zeros of det Phi of a
  constant-coefficient system, with their multiplicities, from one
  eigendecomposition of the Hamiltonian matrix (``scipy.linalg.expm``
  when it is defective). The reference of ``criteria.simulate_starts``.
* ``per_sample_validate_scenario``: ``coefsys.validate_scenario`` as it
  was before it checked the stacked samples, with the mat2 predicates
  called on one sample at a time, and the record of where each withheld
  tag was first refuted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from hamosc import coefsys, criteria, mat2, riccati
from hamosc.coefsys import TOL_POS, Scenario, ValidationReport
from hamosc.mat2 import (
    TOL_HERM, TOL_RANK, NotHermitian, as_mat2, det2, herm_eigvals, is_hermitian, is_psd, norm_max, tr2,
)
from hamosc.odeint import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    DEFAULT_Y_MAX,
    _RENORM_LIMIT,
    BlowupRecord,
    Trajectory,
    _det2,
    _unpack_many,
    adaptive_solve,
    sign_change_roots,
    solve_scalar_riccati,
    unpack_pair,
)
from hamosc.riccati import Partition, _condition_profile

# samples of the partition condition check per subinterval
GRID_PER_SUBINTERVAL = 64


class HypothesisViolated(RuntimeError):
    def __init__(self, which: str, t: float):
        super().__init__(f"hypothesis {which!r} fails at t = {t!r}")
        self.which = which
        self.t = t


def comparison_oracle(
    f: Callable,
    g: Callable,
    h: Callable,
    h1: Callable,
    y1_0: float,
    y_0: float,
    window: tuple,
    *,
    tol: float = 1e-6,
    y_max: float = DEFAULT_Y_MAX,
) -> bool:
    """Existence and ordering transfer between two scalar Riccati flows.

    With f >= 0, h <= h1, and y(t0) >= y1(t0), the solution y of
    y' + f y^2 + g y + h = 0 must exist wherever y1 (same f, g, free
    term h1) exists, and satisfy y >= y1 - tol * (1 + |y1|). Hypotheses
    are sampled on a 256-point grid and violations raise; a failed
    conclusion returns False. This is a test oracle, not a production
    decision path.
    """
    lo, hi = float(window[0]), float(window[1])
    grid = np.linspace(lo, hi, 256)
    fs = np.array([f(t) for t in grid])
    hs = np.array([h(t) for t in grid])
    h1s = np.array([h1(t) for t in grid])
    scale = 1.0 + max(np.max(np.abs(hs)), np.max(np.abs(h1s)), np.max(np.abs(fs)))
    hyp_tol = 1e-9 * scale
    if np.any(fs < -hyp_tol):
        raise HypothesisViolated("f >= 0", float(grid[int(np.argmin(fs))]))
    if np.any(hs > h1s + hyp_tol):
        raise HypothesisViolated("h <= h1", float(grid[int(np.argmax(hs - h1s))]))
    if y_0 < y1_0 - 1e-9 * (1.0 + abs(y1_0)):
        raise HypothesisViolated("y(t0) >= y1(t0)", lo)

    traj1, rec1 = solve_scalar_riccati(f, g, h1, y1_0, (lo, hi), y_max=y_max)
    traj0, rec0 = solve_scalar_riccati(f, g, h, y_0, (lo, hi), y_max=y_max)

    end1 = traj1.t_end
    end0 = traj0.t_end
    if rec1 is None and rec0 is not None:
        return False
    if rec1 is not None and end0 < end1 - 1e-6 * (1.0 + abs(end1)):
        return False

    tc = min(end0, end1)
    sample = lo + (tc - lo) * np.linspace(0.0, 0.999999, 256)
    y1v = traj1.dense_eval(sample)[:, 0]
    y0v = traj0.dense_eval(sample)[:, 0]
    return bool(np.all(y0v >= y1v - tol * (1.0 + np.abs(y1v))))


def subsystem_solve(
    s: Scenario,
    which: str,
    init: tuple,
    window: tuple,
    *,
    other_init: tuple | None = None,
    y_max: float = DEFAULT_Y_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[Trajectory, Optional[BlowupRecord]]:
    """Integrate the ratio-substituted pair flow and project one pair.

    which = "first" returns (z11, y) with y = z12 + conj(a21)/b2;
    which = "second" returns (z22, v) with v = z12 + a12/b1. The two
    displayed pairs are not closed on their own: each drive couples to
    the other diagonal component through b1 z11 + b2 z22, so the full
    four-real-plus-two-complex state is integrated jointly and the
    requested projection is returned. init seeds the requested pair and
    other_init the opposite one (defaults to mirroring init).

    The returned trajectory's states are (z, Re w, Im w).
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    data = criteria._diag_envelope_data(s)
    z0, w0 = float(init[0]), complex(init[1])
    oz0, ow0 = (z0, w0) if other_init is None else (float(other_init[0]), complex(other_init[1]))
    if which == "first":
        z11_0, y0, z22_0, v0 = z0, w0, oz0, ow0
    else:
        z22_0, v0, z11_0, y0 = z0, w0, oz0, ow0

    def field(t, st):
        z11, z22 = st[0], st[1]
        y = st[2] + 1j * st[3]
        v = st[4] + 1j * st[5]
        a, b, c = as_blocks(s.eval(t))
        b1 = float(np.real(b[0, 0]))
        b2 = float(np.real(b[1, 1]))
        a11, a12, a21, a22 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        c11 = float(np.real(c[0, 0]))
        c22 = float(np.real(c[1, 1]))
        c12 = c[0, 1]
        asum = np.conj(a11) + a22
        sig = b1 * z11 + b2 * z22 + asum
        dz11 = -(
            b1 * z11 * z11
            + 2.0 * float(np.real(a11)) * z11
            + b2 * abs(y) ** 2
            - abs(a21) ** 2 / b2
            - c11
        )
        dz22 = -(
            b2 * z22 * z22
            + 2.0 * float(np.real(a22)) * z22
            + b1 * abs(v) ** 2
            - abs(a12) ** 2 / b1
            - c22
        )
        vals = data.values(t)
        r1, r2 = vals[1:3]
        dr1, dr2 = data.slopes(t, vals)
        dy = -(sig * y + (a12 - (b1 / b2) * np.conj(a21)) * z11 - dr2 - r2 * asum - c12)
        dv = -(sig * v + (np.conj(a21) - (b2 / b1) * a12) * z22 - dr1 - r1 * asum - c12)
        return np.array([dz11, dz22, dy.real, dy.imag, dv.real, dv.imag])

    st0 = np.array([z11_0, z22_0, y0.real, y0.imag, v0.real, v0.imag])
    traj = adaptive_solve(
        field,
        st0,
        window,
        rtol,
        atol,
        escape_norm=y_max,
        underflow="event",
    )
    record = None
    if any(e.kind in ("escape", "underflow") for e in traj.events):
        record = BlowupRecord(
            escape_time=traj.t_end, last_norm=float(np.max(np.abs(traj.states[-1])))
        )
    idx = (0, 2, 3) if which == "first" else (1, 4, 5)
    proj = Trajectory(
        times=traj.times,
        states=traj.states[:, list(idx)],
        events=traj.events,
        meta={"kind": f"subsystem_{which}", "joint": traj},
        _seg_h=traj._seg_h,
        _seg_q=traj._seg_q[:, list(idx), :],
    )
    return proj, record


def coupling_bound_check(
    s: Scenario,
    window: tuple,
    *,
    z0: float = 1.0,
    tol: float = 1e-6,
    n_grid: int = 200,
) -> bool:
    """Validate the coupling envelope bound against direct integration.

    Integrates the joint substituted flow from (z0, 0) for both pairs
    and, provided both diagonal components stay nonnegative on the
    window, asserts |y| <= M + E_y and |v| <= M + E_v within
    tol * (1 + bound) on a uniform grid. A negative diagonal component
    raises HypothesisViolated: the bound promises nothing there. A
    scenario whose validation on the window withholds B_diagonal or
    B_positive raises ValueError. The envelope uses the plus_c12 drive, which is the form
    produced by the variation-of-constants representation of y and v.
    """
    if z0 < 0.0:
        raise ValueError("z0 must be nonnegative")
    if not {"B_diagonal", "B_positive"} <= coefsys.validate_scenario(s, window).tags:
        raise ValueError(f"scenario {s.name!r} lacks the B_diagonal or B_positive tag")
    traj, record = subsystem_solve(s, "first", (z0, 0.0), window)
    joint = traj.meta["joint"]
    hi = joint.t_end
    zmin = float(np.min(joint.states[:, :2]))
    if zmin < -1e-9 * (1.0 + abs(zmin)):
        tneg = float(joint.times[int(np.argmin(np.min(joint.states[:, :2], axis=1)))])
        raise HypothesisViolated("z >= 0", tneg)

    env = riccati.build_envelope_terms(
        criteria._diag_envelope_data(s), (float(window[0]), hi), "plus_c12"
    )
    ts = np.linspace(float(window[0]), hi, n_grid)
    states = joint.dense_eval(ts)
    y_abs = np.hypot(states[:, 2], states[:, 3])
    v_abs = np.hypot(states[:, 4], states[:, 5])
    for i, t in enumerate(ts):
        by = env.m_peak(t) + env.e_y(t)
        bv = env.m_peak(t) + env.e_v(t)
        if y_abs[i] > by + tol * (1.0 + by) or v_abs[i] > bv + tol * (1.0 + bv):
            return False
    return True


def full_window_condition_profile(
    k: Callable, lo: float, hi: float, rtol: float, atol: float
) -> Trajectory:
    """Augmented flow of the partition condition on one subinterval.

    State (I, L, T, Tabs): I is the inner weighted integral from lo and
    L the running exponent int [g - I]. The displayed integral carries
    the weight exp(L(t) - L(tau)); the outer exp(L(t)) factor is positive
    and drops out of the sign condition, so T accumulates exp(-L(tau)) h
    and Tabs the same with |h|, which sets the violation tolerance scale.
    This is pure quadrature (no feedback from T into its own rate), so
    stiffness cannot arise. On kernels whose weight explodes, T and Tabs
    balloon and the flow stops with an escape event well before float
    overflow; callers must not certify past t_end. The exponent cap only
    engages in that same ballooning regime, right before the escape.
    """

    def field(s, y):
        i, ell = y[0], y[1]
        gv, hv = k(s)
        w = math.exp(min(-ell, riccati._EXP_CAP))
        return np.array([hv - gv * i, gv - i, w * hv, w * abs(hv)])

    return adaptive_solve(
        field,
        np.zeros(4),
        (lo, hi),
        rtol,
        atol,
        escape_norm=riccati._PROFILE_ESCAPE,
        escape_slice=slice(2, 4),
        underflow="event",
    )


def full_window_partition_search(
    k: Callable,
    window: tuple,
    max_points: int = 64,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Optional[riccati.Partition]:
    """Greedy left-to-right search for a conforming partition.

    From the current point the augmented condition flow is integrated
    over the rest of the window and sampled on the global grid; the next
    partition point is the last grid position before the first
    violation. The search fails (returns None) when it cannot advance by
    at least (window length) / max_points, so a returned partition has
    at most max_points + 1 points. None means "not certified by this
    search", never "oscillatory".
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy T > t0")
    ts = np.linspace(lo, hi, riccati.GRID_PER_WINDOW + 1)
    min_advance = (hi - lo) / max_points
    points = [lo]
    cur = lo
    while cur < hi:
        traj = full_window_condition_profile(k, cur, hi, rtol, atol)
        tail = ts[np.searchsorted(ts, cur, side="right") :]
        sample = np.concatenate([tail, [hi]]) if len(tail) == 0 or tail[-1] < hi else tail
        states = traj.dense_eval(np.clip(sample, cur, traj.t_end))
        ok = states[:, 2] <= riccati.TOL_COND * (1.0 + states[:, 3])
        if traj.t_end < hi - 1e-12 * (1.0 + abs(hi)):
            # the condition flow itself blew up; don't certify past it
            ok &= sample <= traj.t_end
        bad = np.nonzero(~ok)[0]
        if len(bad) == 0:
            points.append(hi)
            return riccati.Partition(tuple(points))
        first_bad = bad[0]
        if first_bad == 0:
            return None
        nxt = float(sample[first_bad - 1])
        if nxt - cur < min_advance or nxt <= cur:
            return None
        points.append(nxt)
        cur = nxt
    return riccati.Partition(tuple(points))


_N_SCAN = 8192  # sign-change scan points per window in scalar_osc_test


def _scan_zeros(traj: Trajectory, lo: float, hi: float, component: int) -> tuple:
    """Zeros of one state component by sign change plus root finding."""
    ts = np.linspace(lo, hi, _N_SCAN)
    phi = traj.dense_eval(ts)[:, component]
    zeros = []
    if phi[0] == 0.0:
        zeros.append(lo)
    zeros += sign_change_roots(
        lambda t: float(traj.dense_eval(float(t))[component]), ts, phi
    )
    exact = np.nonzero(phi[1:] == 0.0)[0]
    zeros.extend(float(ts[i + 1]) for i in exact[:256])
    zeros.sort()
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 1e-9 * (1.0 + abs(z)):
            merged.append(z)
    return tuple(merged)


def per_start_scalar_osc_test(
    f11: Callable,
    f12: Callable,
    f21: Callable,
    f22: Callable,
    window: tuple,
    n_min: int,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    burn_in: float = 0.1,
) -> criteria.ScalarOscResult:
    """Oscillation of the 2d linear system by direct zero counting.

    Integrates phi' = f11 phi + f12 psi, psi' = f21 phi + f22 psi from
    the starts (1, 0) and (0, 1), counting zeros of phi by sign change.
    oscillatory: both starts reach n_min zeros and the last zero lands
    in the final quarter (log-time quarter on wide positive windows).
    non_oscillatory: no start has any zero past the burn-in prefix.
    Anything else is undecided.

    The ratio y = psi / phi obeys y' + f12 y^2 + (f11 - f22) y - f21 = 0
    and blows up exactly at the zeros of phi, so these zero times are
    also the pole times of the Riccati flow. Linear states are rescaled
    when they exceed 1e100: scaling by a positive factor moves no zero.
    """
    lo, hi = float(window[0]), float(window[1])

    def fld(t, y):
        return np.array(
            [f11(t) * y[0] + f12(t) * y[1], f21(t) * y[0] + f22(t) * y[1]]
        )

    def renorm(t, y):
        m = np.max(np.abs(y))
        return y / m if m > _RENORM_LIMIT else y

    zeros = {}
    for label, y0 in (("1,0", (1.0, 0.0)), ("0,1", (0.0, 1.0))):
        traj = adaptive_solve(fld, np.array(y0), (lo, hi), rtol, atol, post_step=renorm)
        zeros[label] = _scan_zeros(traj, lo, hi, 0)

    quarter = criteria._quarter_threshold(lo, hi)
    burn_edge = lo + burn_in * (hi - lo)
    osc = all(len(z) >= n_min and z[-1] >= quarter for z in zeros.values())
    nonosc = all(all(t <= burn_edge for t in z) for z in zeros.values())
    outcome = "oscillatory" if osc else ("non_oscillatory" if nonosc else "undecided")
    return criteria.ScalarOscResult(
        outcome=outcome,
        zeros=zeros,
        window=(lo, hi),
        n_min=n_min,
        notes=f"burn_in_edge={burn_edge:.6g} quarter_threshold={quarter:.6g}",
    )


@dataclass(frozen=True)
class ZeroRecord:
    """A detected zero of det Phi: location, residual there, and how it was found."""

    time: float
    residual: float
    kind: str  # "sign_change" or "modulus_dip"


def _indicator_arrays(traj: Trajectory, ts: np.ndarray):
    """Normalized determinant indicator on an array of times.

    zeta(t) = det Phi / (product of stacked column norms). The denominator
    is smooth and positive for a rank-2 frame, so zeros and sign changes of
    zeta are exactly those of det Phi (frame trajectories carry an extra
    positive real factor which cannot affect either).
    """
    phi, psi = _unpack_many(traj.dense_eval(ts))
    det = _det2(phi)
    stacked = np.concatenate([phi, psi], axis=1)  # (n, 4, 2)
    colnorm = np.sqrt(np.sum(np.abs(stacked) ** 2, axis=1))  # (n, 2)
    kappa = colnorm[:, 0] * colnorm[:, 1]
    phin = np.max(np.abs(phi.reshape(len(ts), 4)), axis=1)
    zeta = det / kappa
    thresh_scale = (1.0 + phin**2) / kappa
    return zeta, thresh_scale


def window_grid_det_zeros(
    traj: Trajectory,
    eps_zero: float = 1e-7,
    *,
    real_coefficients: bool = False,
) -> list[ZeroRecord]:
    """Locate zeros of det Phi along a Hamiltonian trajectory.

    Two detectors run on a normalized indicator: sign-change bisection on
    the real part (only meaningful for real-coefficient flows, where det is
    real), and modulus-dip refinement, which catches tangential zeros such
    as det = cos^2 t that never change sign. The modulus path always runs.
    A candidate t* is reported when |det Phi| <= eps_zero * (1 + |Phi|^2)
    there, evaluated in the trajectory's own normalization. Zeros closer
    than 1e-9 (1 + |t|) are merged, or 1e-7 (1 + |t|) when the two
    detectors report the same zero.
    """
    if traj.meta.get("kind") != "hamiltonian":
        raise ValueError("detect_det_zeros expects a Hamiltonian trajectory")
    t0, t_end = traj.t0, traj.t_end
    span = t_end - t0
    if span <= 0.0:
        return []
    dt = 0.01 * span
    min_step = float(np.min(np.diff(traj.times))) if len(traj.times) >= 2 else 0.0
    if min_step > 0.0:
        dt = min(dt, min_step)
    n = int(math.ceil(span / dt)) + 1
    n = min(max(n, 101), 262145)  # resolution cap keeps the scan affordable
    ts = np.linspace(t0, t_end, n)
    zeta, thresh_scale = _indicator_arrays(traj, ts)
    absz = np.abs(zeta)

    def zeta_scalar(t: float) -> complex:
        z, _ = _indicator_arrays(traj, np.array([t]))
        return complex(z[0])

    found: list[ZeroRecord] = []

    if real_coefficients:
        for root in sign_change_roots(lambda t: float(np.real(zeta_scalar(t))), ts, np.real(zeta)):
            val = zeta_scalar(root)
            _, sc = _indicator_arrays(traj, np.array([root]))
            if abs(val) <= eps_zero * float(sc[0]):
                found.append(ZeroRecord(root, abs(val), "sign_change"))

    # modulus dips: interior minima of |zeta| on the grid; runs of equal
    # values (flat indicator) collapse to a single representative so a
    # constant determinant does not trigger a refinement per grid point
    interior = np.nonzero((absz[1:-1] <= absz[:-2]) & (absz[1:-1] <= absz[2:]))[0] + 1
    clusters = np.split(interior, np.nonzero(np.diff(interior) > 1)[0] + 1) if len(interior) else []
    reps = [int(cl[np.argmin(absz[cl])]) for cl in clusters if len(cl)]
    reps.sort(key=lambda i: absz[i])
    for i in reps[:4096]:
        res = minimize_scalar(
            lambda t: abs(zeta_scalar(t)),
            bounds=(ts[i - 1], ts[i + 1]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        t_star = float(res.x)
        m_star = float(res.fun)
        _, sc = _indicator_arrays(traj, np.array([t_star]))
        if m_star <= eps_zero * float(sc[0]):
            found.append(ZeroRecord(t_star, m_star, "modulus_dip"))
    # window endpoints can sit on a zero without bracketing a grid minimum
    for j in (0, n - 1):
        if absz[j] <= eps_zero * float(thresh_scale[j]):
            found.append(ZeroRecord(float(ts[j]), float(absz[j]), "modulus_dip"))

    found.sort(key=lambda r: r.time)
    merged: list[ZeroRecord] = []
    for rec in found:
        if merged:
            prev = merged[-1]
            # the dip refiner is only good to ~1e-7 near a simple zero, so a
            # dip landing that close to a root of another kind is the same
            # zero seen by both detectors; keep the sharper record
            same_kind = rec.kind == prev.kind
            tol = (1e-9 if same_kind else 1e-7) * (1 + abs(rec.time))
            if abs(rec.time - prev.time) <= tol:
                if rec.residual < prev.residual:
                    merged[-1] = rec
                continue
        merged.append(rec)
    return merged


def lstsq_solve_sandwich(s, m, rank_tol: float = TOL_RANK) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares F with S @ F @ M = M.

    Vectorizes to the 4x4 Kronecker system (M^T kron S) vec(F) = vec(M)
    and solves by SVD-backed least squares with singular values below
    rank_tol * s_max treated as zero. Returns (F, residual) where the
    residual is the max-entry norm of S @ F @ M - M.
    """
    s = as_mat2(s)
    m = as_mat2(m)
    k = np.kron(m.T, s)
    rhs = m.reshape(-1, order="F")
    sol, _, _, _ = np.linalg.lstsq(k, rhs, rcond=rank_tol)
    f = sol.reshape((2, 2), order="F")
    residual = norm_max(s @ f @ m - m)
    return f, residual


def lstsq_sqrt_derivative(s, db, rank_tol: float = TOL_RANK) -> np.ndarray:
    """Minimum-norm least-squares S' with S S' + S' S = B'.

    Vectorizes to the 4x4 Kronecker system
    (I kron S + S^T kron I) vec(S') = vec(B') and solves by SVD-backed
    least squares with singular values below rank_tol * s_max treated
    as zero.
    """
    s = as_mat2(s)
    k = np.kron(np.eye(2), s) + np.kron(s.T, np.eye(2))
    rhs = as_mat2(db).reshape(-1, order="F")
    sol, _, _, _ = np.linalg.lstsq(k, rhs, rcond=rank_tol)
    return sol.reshape((2, 2), order="F")


def as_blocks(read) -> tuple:
    """One Scenario read, three entry 4-tuples, as three 2x2 complex arrays."""
    return tuple(np.reshape(m, (2, 2)) for m in read)


def central_difference(fn: Callable, t: float, h: float = 1e-5):
    """(fn(t + h) - fn(t - h)) / (2 h), the reference of a wired derivative."""
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


SINGULAR_TOL = 1e-12


class Singular(ValueError):
    """Determinant too small for a trustworthy inverse."""


def constant_focal_points(
    s: Scenario, phi0, psi0, window: tuple, cells_per_unit: int = 25
) -> list[tuple[float, int]]:
    """Zeros of det Phi on (lo, hi] for constant coefficients, as (time, multiplicity).

    The blocks are read once, at lo, into H = [[A, B], [C, -A*]], and
    (Phi, Psi) = exp((t - lo) H) (phi0, psi0) comes from one
    eigendecomposition of H, or from scipy's expm where H is defective
    (its eigenvector matrix has condition number over 1e6). det Phi = 0
    exactly when an eigenvalue of the unitary U = (Phi + i Psi)
    (Phi - i Psi)^{-1} is -1, and dim ker Phi is the number of them.
    Over a short interval, each crossing of pi by an eigen-angle of U
    moves the sum of the principal eigen-angles by 2 pi against the
    continuous phase of det U, so their drift counts the crossings. For
    B >= 0, where the angles move one way, that count is exact. The window is split into cells of
    1 / cells_per_unit, each crossing is bisected to round-off within
    its cell, and crossings at the same time make one zero.
    """
    lo, hi = float(window[0]), float(window[1])
    a, b, c = as_blocks(s.eval(lo))
    h = np.block([[a, b], [c, -a.conj().T]])
    z0 = np.vstack([phi0, psi0]).astype(complex)
    lam, vec = np.linalg.eig(h)
    if np.linalg.cond(vec) < 1e6:
        coef = np.linalg.solve(vec, z0)

        def flow(ts):
            return np.einsum("ij,tj,jk->tik", vec, np.exp(np.outer(ts - lo, lam)), coef)

    else:

        def flow(ts):
            return expm((ts - lo)[:, None, None] * h) @ z0

    def phases(ts):
        """(det U, sum of principal eigen-angles of U) at each time."""
        z = flow(np.asarray(ts, dtype=float))
        x, y = z[:, :2] + 1j * z[:, 2:], z[:, :2] - 1j * z[:, 2:]
        u_t = np.linalg.solve(np.swapaxes(y, 1, 2), np.swapaxes(x, 1, 2))  # U transposed
        return np.linalg.det(u_t), np.angle(np.linalg.eigvals(u_t)).sum(axis=1)

    def crossings(det0, sum0, det1, sum1):
        return np.rint((sum1 - sum0 - np.angle(det1 / det0)) / (2.0 * math.pi)).astype(int)

    ts = np.linspace(lo, hi, int(math.ceil(cells_per_unit * (hi - lo))) + 1)
    dets, sums = phases(ts)
    turn = np.abs(np.angle(dets[1:] / dets[:-1]))
    if turn.max() > 0.25 * math.pi:
        raise ValueError(f"det U turns {turn.max():.3f} in one cell; raise cells_per_unit")
    per_cell = np.abs(crossings(dets[:-1], sums[:-1], dets[1:], sums[1:]))
    # one bisection per crossing: the k-th of a cell is where k are done
    cell = np.repeat(np.arange(len(per_cell)), per_cell)
    k = np.concatenate([np.arange(1, n + 1) for n in per_cell]) if len(cell) else cell
    left, right = ts[cell], ts[cell + 1]
    for _ in range(50):
        mid = 0.5 * (left + right)
        d, sm = phases(mid)
        done = np.abs(crossings(dets[cell], sums[cell], d, sm)) >= k
        left, right = np.where(done, left, mid), np.where(done, mid, right)
    zeros = []
    for t in np.sort(right).tolist():
        if zeros and t - zeros[-1][0] <= 1e-9 * (1.0 + abs(t)):
            zeros[-1] = (zeros[-1][0], zeros[-1][1] + 1)
        else:
            zeros.append((t, 1))
    return zeros


def det_tr_inv(m) -> tuple[complex, complex, np.ndarray]:
    """Return (det, tr, inv) by the adjugate formula.

    Raises
    ------
    Singular
        When |det| <= 1e-12 * (1 + max-entry norm), which callers treat as
        a focal-point indicator rather than a numerical accident.
    """
    m = as_mat2(m)
    d = det2(m)
    t = tr2(m)
    if abs(d) <= SINGULAR_TOL * (1.0 + norm_max(m)):
        raise Singular(f"matrix is singular to tolerance (|det| = {abs(d):.3e})")
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d
    return d, t, inv


def phi_psi_at(traj: Trajectory, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense-evaluated (Phi, Psi) at a time inside the trajectory window."""
    return unpack_pair(traj.dense_eval(float(t)))


def riccati_z_at(traj: Trajectory, t: float) -> np.ndarray:
    """Dense-evaluated Hermitian Z from a matrix Riccati trajectory."""
    y = traj.dense_eval(float(t))
    z11, z22, xr, xi = y[0], y[1], y[2], y[3]
    return np.array([[z11, xr + 1j * xi], [xr - 1j * xi, z22]], dtype=complex)


def exp_weighted_integral(
    k: Callable,
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

    def field(s, y):
        g, h = k(s)
        return np.array([h - g * y[0]])

    traj = adaptive_solve(
        field,
        np.array([0.0]),
        (xi, t),
        rtol,
        atol,
    )
    return float(traj.states[-1, 0])


def check_partition_condition(
    k: Callable,
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


def matrix_chi_diag(a, b, c, j: int) -> float:
    """criteria.chi_diag as it was on 2x2 arrays, the reference of its entry-tuple form.

    chi_j from the coefficient matrices (a, b, c) at one time, for
    callers that already hold one read as arrays (as_blocks).
    """
    other = 2 - j  # 0-based index of 3-j
    cjj = float(np.real(c[j - 1, j - 1]))
    if abs(float(np.real(b[other, other]))) <= TOL_POS * (1.0 + norm_max(b)):
        return -cjj
    return -(cjj + abs(complex(a[other, j - 1])) ** 2 / float(np.real(b[other, other])))


def eigh_sqrt(b) -> np.ndarray:
    """sqrt B from np.linalg.eigh, eigenvalues <= TOL_HERM (1 + |B|) set to 0."""
    b = as_mat2(b)
    lam, u = np.linalg.eigh(0.5 * (b + b.conj().T))
    lam = np.where(lam <= TOL_HERM * (1.0 + norm_max(b)), 0.0, lam)
    return (u * np.sqrt(lam)) @ u.conj().T


def matrix_psd_reduce(s: Scenario, window: tuple) -> criteria.PsdReduction:
    """criteria.psd_reduce as it was on 2x2 arrays, the reference of its entry tuples.

    Reduce a PSD-B system to unit-B form through the square root.

    Per time: S = sqrt of B, M = A S - S', F solves the sandwich
    S F M = M (minimum-norm least squares), P = F M,
    Q = S C S symmetrized. Raises ResidualTooLarge when the sandwich
    defect exceeds 1e-8 * (1 + |M|) anywhere on the validation grid:
    downstream criteria treat that as inapplicability. The defect and
    |M| are computed on that grid only, not at every integrator stage.
    """
    if "B_psd" not in coefsys.validate_scenario(s, window).tags:
        raise mat2.NotPSD(f"scenario {s.name!r} lacks the B_psd tag")
    memo = {}

    # Constant coefficients are the common case and the pointwise path
    # (matrix square root, its derivative, least squares) is far too slow
    # to repeat per integrator stage. A block counts as constant when the
    # scenario's own declared derivative vanishes on the validation grid.
    lo = float(window[0])
    grid = np.linspace(lo, float(window[1]), 256)
    ders = [as_blocks(s.analytic_derivatives(t)) for t in grid]
    const_a = all(mat2.norm_max(np.asarray(d[0])) == 0.0 for d in ders)
    const_b = all(mat2.norm_max(np.asarray(d[1])) == 0.0 for d in ders)
    const_c = all(mat2.norm_max(np.asarray(d[2])) == 0.0 for d in ders)
    a0, b0, c0 = as_blocks(s.eval(lo))
    sq0 = eigh_sqrt(b0) if const_b else None
    m0 = a0 @ sq0 if (const_a and const_b) else None
    f0 = None
    if m0 is not None:
        f0, _ = mat2.solve_sandwich(sq0, m0)
    q0 = None
    if const_b and const_c:
        qq = sq0 @ c0 @ sq0
        q0 = 0.5 * (qq + qq.conj().T)

    def compute(t: float):
        key = float(t)
        if key in memo:
            return memo[key]
        a, b, c = (a0, b0, c0) if (const_a and const_b and const_c) else as_blocks(s.eval(key))
        if const_b:
            sq = sq0
            m = m0 if m0 is not None else a @ sq
        else:
            sq = eigh_sqrt(b)
            dsq = lstsq_sqrt_derivative(sq, as_blocks(s.analytic_derivatives(key))[1])
            m = a @ sq - dsq
        if f0 is not None:
            f = f0
        else:
            f, _ = mat2.solve_sandwich(sq, m)
        if q0 is not None:
            q = q0
        else:
            q = sq @ c @ sq
            q = 0.5 * (q + q.conj().T)
        out = ((criteria.Reduced(sq, f @ m, q), f), m)
        if len(memo) > 4096:
            memo.clear()
        memo[key] = out
        return out

    residuals = []
    for t in grid:
        (red, f), m = compute(t)
        res = float(mat2.norm_max(red.sqrt_b @ f @ m - m))
        tol = 1e-8 * (1.0 + float(mat2.norm_max(m)))
        if res > tol:
            raise criteria.ResidualTooLarge(float(t), res, tol)
        residuals.append(res)

    return criteria.PsdReduction(
        at=lambda t: compute(t)[0][0],
        max_residual=float(np.max(residuals)),
        const_b=const_b,
    )


def per_sample_validate_scenario(s: Scenario, window: tuple) -> ValidationReport:
    """coefsys.validate_scenario as it was, one sample at a time: its reference.

    Sample the window at 256 points, and a table's knots inside it, in
    increasing time, and derive the structural tags.

    Hermitian violation of B or C is a hard error: the entire theory
    assumes it. Tags are set from what the samples show, with the strict
    positivity margin TOL_POS * (1 + |B|) separating B_positive from
    B_psd. The first sample that refutes a tag records its time and the
    value that refutes it: the larger off-diagonal |b| or the lower
    eigenvalue of B (herm_eigvals).
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy T > t0")
    ts = sorted(list(np.linspace(lo, hi, 256)) + [k for k in s.knots if lo < k < hi])
    refuted = {}  # tag -> (t, value) at its first refuting sample
    blocks, derivatives = [], []
    for t in ts:
        a, b, c = as_blocks(s.eval(float(t)))
        blocks.append((a, b, c))
        derivatives.append(as_blocks(s.analytic_derivatives(float(t))))
        for which, m in (("B", b), ("C", c)):
            flag = is_hermitian(m)
            if not flag.is_hermitian:
                raise NotHermitian(flag.max_asymmetry, which, float(t))
        scale = 1.0 + norm_max(b)
        low = herm_eigvals(b)[0]
        checks = (
            ("B_diagonal", abs(b[0, 1]) > TOL_HERM * scale or abs(b[1, 0]) > TOL_HERM * scale,
             max(abs(b[0, 1]), abs(b[1, 0]))),
            ("B_psd", not is_psd(b), low),
            ("B_positive", not (is_psd(b) and is_psd(b - TOL_POS * scale * np.eye(2))), low),
        )
        for tag, bad, value in checks:
            if bad and tag not in refuted:
                refuted[tag] = (float(t), float(value))
    order = ("B_diagonal", "B_psd", "B_positive")
    return ValidationReport(
        tags=frozenset(order) - set(refuted),
        refuted=tuple((tag, *refuted[tag]) for tag in order if tag in refuted),
        times=tuple(ts), blocks=np.array(blocks), derivatives=np.array(derivatives),
    )
