"""Verdict engines for oscillation and non-oscillation of the 4d system.

Five criteria are implemented, each one-directional:

* oscillation-diagonal: diagonal nonnegative B; the system oscillates
  when either derived scalar system does.
* nonoscillation-sign-split: diagonal B with opposite signs; certifies
  non-oscillation through the partition condition on the chi_1, chi_2
  kernels.
* nonoscillation-envelope: diagonal positive B; uses the coupling
  envelope free terms chi_3, chi_4.
* oscillation-psd-reduction: positive semidefinite B; reduces through
  S = sqrt B to a unit-B system with drift P = S^+ (A S - S') and
  C-block Q = S C S, all from one eigendecomposition of B per time, and
  applies the scalar oscillation test to the reduced second-order
  equations.
* nonoscillation-psd-envelope: the envelope criterion applied to the
  reduced coefficients.

Scenario adapters (chi_diag, _diag_envelope_data, psd_reduce) turn the
coefficients into the callables of t that ``riccati`` integrates, each
kernel t -> (g, h) from one read. Each hypothesis is gated once, as an
applicability row read off the analysis' one validation report
(coefsys.validate_scenario: tags, where a withheld one failed, the grid
stacks), the only source of tags; one that fails inside a flow (NotPSD,
ZeroDiagonalB, ...) becomes an Inconclusive row.

``analyze`` runs all five in a fixed order and takes the first verdict
that is not Inconclusive. A criterion can only ever strengthen
Inconclusive into its own direction, so an Oscillatory answer next to a
NonOscillatory one is mathematically impossible; when it happens anyway
it is a sign-convention or tolerance fault and ``analyze`` raises
CriteriaConflict (and appends to CONFLICT_LOG, the regression tripwire
the test suite asserts empty).

``cross_validate`` integrates the matrix system directly from several
conjoined starts and compares detected determinant zeros against the
criterion verdict. Simulation is the ground truth at finite windows;
disagreement is reported, never suppressed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import coefsys, mat2, odeint, riccati
from .coefsys import Scenario, ValidationReport

__all__ = [
    "OSCILLATORY",
    "NON_OSCILLATORY",
    "INCONCLUSIVE",
    "CRITERION_ORDER",
    "Verdict",
    "CriterionReport",
    "PsdReduction",
    "Reduced",
    "AnalysisOptions",
    "AnalysisResult",
    "StartRecord",
    "CrossValidation",
    "CriteriaConflict",
    "ResidualTooLarge",
    "CONFLICT_LOG",
    "scalar_osc_test",
    "ScalarOscResult",
    "oscillation_from_diagonal",
    "nonoscillation_sign_split",
    "nonoscillation_envelope",
    "psd_reduce",
    "oscillation_from_psd_reduction",
    "nonoscillation_psd_envelope",
    "analyze",
    "resolve_reports",
    "simulate_starts",
    "cross_validate",
]

OSCILLATORY = "Oscillatory"
NON_OSCILLATORY = "NonOscillatory"
INCONCLUSIVE = "Inconclusive"

OSC_DIAG = "oscillation-diagonal"
NONOSC_SPLIT = "nonoscillation-sign-split"
NONOSC_ENVELOPE = "nonoscillation-envelope"
OSC_PSD = "oscillation-psd-reduction"
NONOSC_PSD_ENVELOPE = "nonoscillation-psd-envelope"

CRITERION_ORDER = (OSC_DIAG, NONOSC_SPLIT, NONOSC_ENVELOPE, OSC_PSD, NONOSC_PSD_ENVELOPE)

# the only decisive answer each one-directional criterion may give
_DIRECTION = {
    OSC_DIAG: OSCILLATORY,
    NONOSC_SPLIT: NON_OSCILLATORY,
    NONOSC_ENVELOPE: NON_OSCILLATORY,
    OSC_PSD: OSCILLATORY,
    NONOSC_PSD_ENVELOPE: NON_OSCILLATORY,
}

# every conflict ever detected in this process; the acceptance suite
# asserts this stays empty across all real scenarios
CONFLICT_LOG: list = []


class CriteriaConflict(RuntimeError):
    """Criteria disagreed, or one answered against its direction.

    Always a bug, never math.
    """

    def __init__(self, message: str, reports=None):
        super().__init__(message)
        self.reports = reports or []


class ResidualTooLarge(RuntimeError):
    def __init__(self, t: float, residual: float, tol: float):
        super().__init__(
            f"sandwich residual {residual:.3e} exceeds {tol:.3e} at t = {t:g}"
        )
        self.t = t
        self.residual = residual
        self.tol = tol


@dataclass(frozen=True)
class Verdict:
    kind: str  # Oscillatory | NonOscillatory | Inconclusive
    criterion: str  # id of the criterion that fired, "" when Inconclusive
    window: tuple
    notes: str = ""


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    verdict: Verdict
    witnesses: dict
    applicability: tuple  # of (hypothesis, held, detail)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class AnalysisOptions:
    """Every knob a verdict can depend on, recorded into reports.

    The one source of every criterion setting: each criterion takes an
    AnalysisOptions and reads n_min, max_points, sign_convention, rtol
    and atol from it. rtol and atol govern the verdict-engine
    integrations (scalar oscillation tests, partition search, envelope
    flows); direct odeint use keeps its own tighter defaults. Zero
    counting is insensitive well below these. eps_zero, n_starts, seed
    and sim_window set the simulation of cross_validate, whose own
    arguments can replace the first three. Values are checked on
    construction (and so on every replace): a bad one raises ValueError.
    from_dict accepts exactly the field names.
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    n_min: int = 5  # zeros required before a window counts as oscillatory
    max_points: int = 64  # partition search budget
    sign_convention: str = "minus_c12"  # envelope drive c12 sign
    eps_zero: float = 1e-7  # determinant zero indicator threshold
    n_starts: int = 5  # conjoined starts in cross validation
    seed: int = 42
    sim_window: Optional[tuple] = None  # cheaper window for simulation only

    def __post_init__(self):
        for name in ("n_min", "max_points", "n_starts"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        for name in ("rtol", "atol", "eps_zero"):
            v = getattr(self, name)
            if not (_is_real(v) and v > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {v!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.sign_convention not in ("minus_c12", "plus_c12"):
            raise ValueError(f"sign_convention must be minus_c12 or plus_c12, got {self.sign_convention!r}")
        w = self.sim_window
        if w is None:
            return
        if not (isinstance(w, (list, tuple)) and len(w) == 2 and all(map(_is_real, w)) and w[0] < w[1]):
            raise ValueError(f"sim_window must be None or finite [lo, hi] with lo < hi, got {w!r}")
        object.__setattr__(self, "sim_window", (float(w[0]), float(w[1])))

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisOptions":
        d = dict(raw or {})
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown options: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class AnalysisResult:
    verdict: Verdict
    reports: tuple
    scenario_name: str
    window: tuple
    options: AnalysisOptions


# ---------------------------------------------------------------------------
# Scalar oscillation test.


@dataclass(frozen=True)
class ScalarOscResult:
    outcome: str  # oscillatory | non_oscillatory | undecided
    zeros: dict  # start label -> tuple of zero times
    window: tuple
    n_min: int
    notes: str = ""


def _quarter_threshold(lo: float, hi: float) -> float:
    """Start of the 'final quarter' used by the recurrence rule.

    For windows spanning decades (hi >= 100 lo > 0) the quarter is taken
    in log time, since Euler-type zero sequences space geometrically and
    a linear quarter would starve them.
    """
    if lo > 0.0 and hi >= 100.0 * lo:
        return hi**0.75 * lo**0.25
    return lo + 0.75 * (hi - lo)


# leading fraction of a window whose zeros a "no zeros" verdict ignores,
# in the scalar test and in the simulation alike
_BURN_IN = 0.1


def _scan_zeros(flow: odeint.MagnusFlow, component: int) -> tuple:
    """Zeros of one state component at and between the accepted nodes.

    A node where the component is exactly 0 is a zero; a step whose end
    values have opposite signs holds one, found on the propagator from
    the step's node (MagnusFlow.state_at), which at a node is the stored
    state.
    """
    ts = flow.times
    phi = flow.states[:, component]
    zeros = odeint.sign_change_roots(lambda t: flow.state_at(float(t))[component], ts, phi)
    zeros.extend(float(t) for t in ts[phi == 0.0])
    return tuple(sorted(zeros))


def scalar_osc_test(
    coeffs: Callable,
    window: tuple,
    n_min: int,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> ScalarOscResult:
    """Oscillation of the 2d linear system by direct zero counting.

    coeffs(t) returns the real entries (m11, m12, m21, m22) of M(t) in
    phi' = m11 phi + m12 psi, psi' = m21 phi + m22 psi. One sixth-order
    Magnus flow (odeint.magnus_flow) carries the 2x2 fundamental matrix
    Y' = M(t) Y from the identity, so its columns are the starts (1, 0)
    and (0, 1), and each step reads M(t) four times for both. Zeros of
    each column's phi are counted by sign change between accepted nodes,
    refined on the propagator from the step's node, plus the nodes where
    phi is exactly 0. The flow's turn cap keeps phi from crossing 0
    twice within one step.
    oscillatory: both starts reach n_min zeros and the last zero lands
    in the final quarter (log-time quarter on wide positive windows).
    non_oscillatory: no start has any zero past the burn-in prefix, the
    first 10% of the window (_BURN_IN). Anything else is undecided.

    The ratio y = psi / phi obeys y' + m12 y^2 + (m11 - m22) y - m21 = 0
    and blows up exactly at the zeros of phi, so these zero times are
    also the pole times of the Riccati flow. The flow divides a column
    whose largest entry exceeds odeint._RENORM_LIMIT by that entry:
    scaling a column by a positive factor moves none of its zeros.
    """
    lo, hi = float(window[0]), float(window[1])
    flow = odeint.magnus_flow(coeffs, (lo, hi), rtol, atol)
    zeros = {"1,0": _scan_zeros(flow, 0), "0,1": _scan_zeros(flow, 2)}

    quarter = _quarter_threshold(lo, hi)
    burn_edge = lo + _BURN_IN * (hi - lo)
    osc = all(len(z) >= n_min and z[-1] >= quarter for z in zeros.values())
    nonosc = all(all(t <= burn_edge for t in z) for z in zeros.values())
    outcome = "oscillatory" if osc else ("non_oscillatory" if nonosc else "undecided")
    return ScalarOscResult(
        outcome=outcome,
        zeros=zeros,
        window=(lo, hi),
        n_min=n_min,
        notes=f"burn_in_edge={burn_edge:.6g} quarter_threshold={quarter:.6g}",
    )


# ---------------------------------------------------------------------------
# Shared hypothesis checks and criterion skeletons.


def _diag_b_checks(checks: ValidationReport) -> tuple:
    """Diagonal-B hypotheses on the validation read: (sign patterns, min b, coupling row).

    The blocks are the report's stack at its check times. Each sign
    pattern is (b_j >= -tol everywhere, b_j <= tol everywhere) for
    j = 1, 2, with tol = TOL_POS * (1 + max |b|). The coupling row
    is the applicability row of "where a diagonal b_j vanishes, both
    off-diagonal a entries do too", tested pointwise against each
    matrix's own scale. The two index conventions in circulation
    disagree on which coupling entry is tied to which b; requiring both
    is conservative: it can only withhold a verdict, never fabricate one.
    """
    a, b = checks.blocks[:, 0], checks.blocks[:, 1]
    b_diag = np.stack([b[:, 0, 0], b[:, 1, 1]], axis=1)
    b_real = np.real(b_diag)
    tol = coefsys.TOL_POS * (1.0 + float(np.max(np.abs(b_real))))
    signs = tuple((bool(np.all(v >= -tol)), bool(np.all(v <= tol))) for v in b_real.T)
    tol_a = coefsys.TOL_POS * (1.0 + np.max(np.abs(a), axis=(1, 2)))
    tol_b = coefsys.TOL_POS * (1.0 + np.max(np.abs(b), axis=(1, 2)))
    b_zero = np.any(np.abs(b_diag) <= tol_b[:, None], axis=1)
    coupled = (np.abs(a[:, 0, 1]) > tol_a) | (np.abs(a[:, 1, 0]) > tol_a)
    bad = np.array(checks.times)[b_zero & coupled]
    coupling = (
        "couplings vanish where b does",
        len(bad) == 0,
        f"violation near t = {float(bad[0]):g}" if len(bad) else "",
    )
    return signs, float(np.min(b_real)), coupling


# chi_diag is left out of __all__: it runs once per integrator stage, and
# bench/tracing.py times every function listed there as a span
def chi_diag(a, b, c, j: int) -> float:
    """The free term chi_j of the scalar criteria from (a, b, c) at one time.

    Each block is a row-major entry 4-tuple, the form of Scenario.eval.
    chi_j = -c_jj - |a_{3-j,j}|^2 / b_{3-j} where b_{3-j} is nonzero,
    and chi_j = -c_jj on the branch |b_{3-j}| <= TOL_POS * (1 + |b|).
    The sign is the corrected convention: it makes the scalar pair for
    the harmonic system literally phi'' + phi = 0, and matches the free
    term of the ratio-substituted flow.
    """
    jj = 3 * j - 3  # index of the (j, j) entry
    cjj = c[jj].real
    b_other = b[3 - jj].real  # b_{3-j}
    if abs(b_other) <= coefsys.TOL_POS * (1.0 + max(map(abs, b))):
        return -cjj
    return -(cjj + abs(a[3 - j]) ** 2 / b_other)  # a_{3-j,j}


def _diag_envelope_data(s: Scenario) -> riccati.EnvelopeData:
    """Envelope inputs of a diagonal-B scenario, one read per values call.

    values carries the kernel weights 2 Re a_jj. slopes differentiates
    the ratios by the quotient rule, from the scenario's A' and B' and
    the ratios and b_j of the values it is handed. A b_j within
    TOL_POS * (1 + |B|) of zero raises ZeroDiagonalB.
    """

    def values(t):
        t = float(t)
        a, b, c = s.eval(t)
        tol = coefsys.TOL_POS * (1.0 + max(map(abs, b)))
        b1, b2 = b[0].real, b[3].real
        for j, bj in ((1, b1), (2, b2)):
            if abs(bj) <= tol:
                raise coefsys.ZeroDiagonalB(t, j)
        return (
            a[0].conjugate() + a[3], a[1] / b1, a[2].conjugate() / b2,
            c[1], b1, b2, c[0].real, c[3].real, 2.0 * a[0].real, 2.0 * a[3].real,
        )

    def slopes(t, v):
        r1, r2, b1, b2 = v[1], v[2], v[4], v[5]
        da, db, _ = s.analytic_derivatives(t)
        return (
            da[1] / b1 - r1 * db[0].real / b1,
            da[2].conjugate() / b2 - r2 * db[3].real / b2,
        )

    return riccati.EnvelopeData(values=values, slopes=slopes)


def _inconclusive(criterion: str, window: tuple, applicability, witnesses=None, notes="") -> CriterionReport:
    return CriterionReport(
        criterion=criterion,
        verdict=Verdict(INCONCLUSIVE, "", tuple(window), notes),
        witnesses=witnesses or {},
        applicability=tuple(applicability),
    )


def _fired(criterion: str, kind: str, window: tuple, applicability, witnesses, notes="") -> CriterionReport:
    return CriterionReport(
        criterion=criterion,
        verdict=Verdict(kind, criterion, tuple(window), notes),
        witnesses=witnesses,
        applicability=tuple(applicability),
    )


def _first_oscillating(
    criterion: str, window: tuple, applicability: list, witnesses: dict,
    system: Callable, notes: tuple, opt: AnalysisOptions,
) -> CriterionReport:
    """Oscillatory at the first j = 1, 2 whose scalar system oscillates.

    system(j) returns the coefficients for scalar_osc_test. A result
    already in witnesses["scalar_j"], counted on an equation with the
    same zeros, stands in for that test. Either system suffices, so the
    possibly stiff twin of one that oscillates is skipped. notes is the
    (fired, not fired) pair; the first is formatted with j.
    """
    for j in (1, 2):
        key = f"scalar_{j}"
        if key not in witnesses:
            witnesses[key] = scalar_osc_test(system(j), window, opt.n_min, rtol=opt.rtol, atol=opt.atol)
        res = witnesses[key]
        if res.outcome == "oscillatory":
            return _fired(
                criterion, OSCILLATORY, window, applicability, witnesses, notes[0].format(j=j)
            )
    return _inconclusive(criterion, window, applicability, witnesses, notes=notes[1])


def _certified_pair(
    criterion: str, window: tuple, applicability: list, witnesses: dict,
    kernels: list, opt: AnalysisOptions, notes: str = "",
) -> CriterionReport:
    """NonOscillatory when both (label, kernel) pairs certify.

    Each kernel certifies by greedy partition search, which integrates
    the partition condition along its own flow whatever the sign of h.
    The kernels are tried in order, and the first that fails ends the
    search with an Inconclusive report: its certificate_ witness reads
    "none", and a kernel after it leaves no witness, since it could not
    change the answer.
    """
    for label, k in kernels:
        part = riccati.partition_search(k, window, opt.max_points, rtol=opt.rtol, atol=opt.atol)
        witnesses[f"certificate_{label}"] = "none" if part is None else "partition"
        if part is None:
            notes = (notes + " " if notes else "") + "partition search failed"
            return _inconclusive(criterion, window, applicability, witnesses, notes)
        witnesses[f"partition_{label}"] = part
    return _fired(criterion, NON_OSCILLATORY, window, applicability, witnesses, notes)


# ---------------------------------------------------------------------------
# Criterion: oscillation from the diagonal scalar systems.


def oscillation_from_diagonal(
    s: Scenario, window: tuple, opt: AnalysisOptions = AnalysisOptions(),
    *, checks: Optional[ValidationReport] = None,
) -> CriterionReport:
    """Oscillatory when either diagonal scalar system is.

    Needs diagonal B with b_j >= 0 and couplings vanishing where b does.
    For each j the scalar pair phi' = 2 Re(a_jj) phi + b_j psi,
    psi' = -chi_j phi runs through scalar_osc_test. One-directional:
    never returns NonOscillatory.
    """
    checks = checks or coefsys.validate_scenario(s, window)
    ok_diag = "B_diagonal" in checks.tags
    applicability = [("B diagonal", ok_diag, checks.detail("B_diagonal"))]
    if not ok_diag:
        return _inconclusive(OSC_DIAG, window, applicability)

    ((b1_nonneg, _), (b2_nonneg, _)), min_b, coupling = _diag_b_checks(checks)
    ok_sign = b1_nonneg and b2_nonneg
    applicability.append(
        ("b_1, b_2 nonnegative", ok_sign, "" if ok_sign else f"min b = {min_b:.3e}")
    )
    applicability.append(coupling)
    if not (ok_sign and coupling[1]):
        return _inconclusive(OSC_DIAG, window, applicability)

    def system(j):
        jj = 3 * j - 3  # index of the (j, j) entry

        def coeffs(t):
            a, b, c = s.eval(t)
            return (2.0 * a[jj].real, b[jj].real, -chi_diag(a, b, c, j), 0.0)

        return coeffs

    return _first_oscillating(
        OSC_DIAG, window, applicability, {}, system,
        ("scalar system j={j} oscillates", "no scalar system oscillates"), opt,
    )


# ---------------------------------------------------------------------------
# Criterion: non-oscillation from the split-sign diagonal case.


def nonoscillation_sign_split(
    s: Scenario, window: tuple, opt: AnalysisOptions = AnalysisOptions(),
    *, checks: Optional[ValidationReport] = None,
) -> CriterionReport:
    """Non-oscillation for diagonal B with b_1, b_2 of opposite signs.

    The kernel signs pair with the two cases: (b1 >= 0, b2 <= 0) tests
    (+chi_1, -chi_2) and (b1 <= 0, b2 >= 0) tests (-chi_1, +chi_2),
    each against the partition condition with weight 2 Re a_jj. Both
    kernels must certify. One-directional: never returns Oscillatory.
    """
    checks = checks or coefsys.validate_scenario(s, window)
    ok_diag = "B_diagonal" in checks.tags
    applicability = [("B diagonal", ok_diag, checks.detail("B_diagonal"))]
    if not ok_diag:
        return _inconclusive(NONOSC_SPLIT, window, applicability)

    ((b1_nonneg, b1_nonpos), (b2_nonneg, b2_nonpos)), _, coupling = _diag_b_checks(checks)
    case_a = b1_nonneg and b2_nonpos  # h signs (+chi1, -chi2)
    case_b = b1_nonpos and b2_nonneg  # h signs (-chi1, +chi2)
    applicability.append(
        (
            "b_1, b_2 have opposite signs",
            case_a or case_b,
            f"case_a={case_a} case_b={case_b}",
        )
    )
    applicability.append(coupling)
    if not ((case_a or case_b) and coupling[1]):
        return _inconclusive(NONOSC_SPLIT, window, applicability)

    kernels = []
    for j, sgn in zip((1, 2), (1.0, -1.0) if case_a else (-1.0, 1.0)):
        def kernel(t, j=j, sgn=sgn):
            a, b, c = s.eval(t)
            return 2.0 * a[3 * j - 3].real, sgn * chi_diag(a, b, c, j)

        kernels.append((str(j), kernel))
    witnesses = {"case": "b1>=0,b2<=0" if case_a else "b1<=0,b2>=0"}
    return _certified_pair(NONOSC_SPLIT, window, applicability, witnesses, kernels, opt)


# ---------------------------------------------------------------------------
# Criterion: non-oscillation from the coupling envelope, diagonal case.


def nonoscillation_envelope(
    s: Scenario, window: tuple, opt: AnalysisOptions = AnalysisOptions(),
    *, checks: Optional[ValidationReport] = None,
) -> CriterionReport:
    """Non-oscillation for positive diagonal B via chi_3, chi_4 kernels.

    The envelope bound on the off-diagonal ratio couplings gives free
    terms chi_3, chi_4; both kernels (weight 2 Re a_jj) must certify by
    partition search. One-directional.
    """
    checks = checks or coefsys.validate_scenario(s, window)
    ok_diag = "B_diagonal" in checks.tags
    ok_pos = "B_positive" in checks.tags
    applicability = [
        ("B diagonal", ok_diag, checks.detail("B_diagonal")),
        ("B positive definite", ok_pos, checks.detail("B_positive")),
    ]
    if not (ok_diag and ok_pos):
        return _inconclusive(NONOSC_ENVELOPE, window, applicability)

    env = riccati.build_envelope_terms(
        _diag_envelope_data(s), window, opt.sign_convention, rtol=opt.rtol, atol=opt.atol
    )
    notes = ""
    a0 = checks.blocks[0, 0].ravel().tolist()  # A at the first check time, lo
    if max(abs(a0[1]), abs(a0[2])) > coefsys.TOL_POS * (1.0 + max(map(abs, a0))):
        notes = (
            "coupling nonzero at window start; the envelope derivation "
            "normalizes it to zero there, so the bound is conservative"
        )
    witnesses = {"sign_convention": opt.sign_convention}
    kernels = [("3", env.kernel3), ("4", env.kernel4)]
    return _certified_pair(NONOSC_ENVELOPE, window, applicability, witnesses, kernels, opt, notes)


# ---------------------------------------------------------------------------
# The square-root reduction to unit B.


class Reduced(NamedTuple):
    """The reduced coefficients at one time.

    Each is a 2x2 matrix as its row-major entry 4-tuple
    (e11, e12, e21, e22) of Python complexes, mat2's per-stage form:
    entry (i, j) sits at index 2 (i - 1) + (j - 1).
    """

    sqrt_b: tuple
    p: tuple
    q: tuple


@dataclass(frozen=True)
class PsdReduction:
    """Pointwise reduced coefficients of a PSD-B system.

    at(t) returns Reduced(sqrt_b, p, q), each an entry 4-tuple, from
    one (memoized) read of the reduction, or the one value of a constant
    one. max_residual is the largest defect |S P - M| at the check
    times. const_b says B' was exactly 0 there, so S was read once, at
    the window start.
    """

    at: Callable
    max_residual: float
    const_b: bool


def _sym(x: tuple) -> tuple:
    """Hermitian part (X + X*) / 2 of an entry 4-tuple."""
    return (
        0.5 * (x[0] + x[0].conjugate()), 0.5 * (x[1] + x[2].conjugate()),
        0.5 * (x[2] + x[1].conjugate()), 0.5 * (x[3] + x[3].conjugate()),
    )


def psd_reduce(s: Scenario, window: tuple, *, checks: Optional[ValidationReport] = None) -> PsdReduction:
    """Reduce a PSD-B system to unit-B form through the square root.

    Per time: S = sqrt B, its pseudo-inverse S^+ and its derivative S'
    from one eigendecomposition of B (mat2._psd_root, which raises
    NotHermitian, NotPSD, or NotDifferentiable where sqrt B has no
    derivative), M = A S - S', P = S^+ M and Q = S C S symmetrized.
    P is the minimum-norm solution of S P = M, and equals F M for the
    minimum-norm F = S^+ M M^+ of the sandwich S F M = M, since
    M M^+ M = M (Penrose, Proc. Cambridge Philos. Soc. 52, 1956).
    Raises ResidualTooLarge when the defect |S P - M|, the part of M off
    the range of S, exceeds 1e-8 * (1 + |M|) at a validation check time
    (the window grid and a table's knots inside the window): downstream
    criteria treat that as inapplicability. The defect and |M| are
    computed at those points only, not at every integrator stage. No
    tag is read: an indefinite B raises NotPSD where it is first read,
    so a table entry that leaves PSD at a knot between grid points is
    met here, not left to the flows' reads.

    Constant blocks, the common case, are read once, from the first row
    (t = lo) of checks, the validation report (made here if not given),
    since the pointwise path is too slow to repeat per stage. A block is
    constant when its stacked derivative is exactly 0, so a bump narrower
    than one grid cell is missed, as flows step over one (ROADMAP probe
    P4). With all three constant the reduction is one value.
    """
    checks = checks or coefsys.validate_scenario(s, window)
    mul = mat2._mul
    const_a, const_b, const_c = (not checks.derivatives[:, k].any() for k in range(3))
    a0, b0, c0 = (tuple(m) for m in checks.blocks[0].reshape(3, 4).tolist())
    sq0 = pinv0 = m0 = p0 = q0 = None
    if const_b:
        sq0, pinv0, _ = mat2._psd_root(b0, (0j, 0j, 0j, 0j))
        if const_a:
            m0 = mul(a0, sq0)
            p0 = mul(pinv0, m0)
        if const_c:
            q0 = _sym(mul(mul(sq0, c0), sq0))

    def residual(t: float, reduced: Reduced, m: tuple) -> float:
        res = max(abs(u - v) for u, v in zip(mul(reduced.sqrt_b, reduced.p), m))
        tol = 1e-8 * (1.0 + max(map(abs, m)))
        if res > tol:
            raise ResidualTooLarge(t, res, tol)
        return res

    if const_a and const_b and const_c:
        fixed = Reduced(sq0, p0, q0)
        res = residual(checks.times[0], fixed, m0)
        return PsdReduction(at=lambda t: fixed, max_residual=res, const_b=True)

    memo = {}

    def compute(t: float):
        key = float(t)
        if key in memo:
            return memo[key]
        a, b, c = s.eval(key)
        if const_b:
            sq, pinv = sq0, pinv0
            m = m0 if m0 is not None else mul(a, sq)
        else:
            db = s.analytic_derivatives(key)[1]
            try:
                sq, pinv, dsq = mat2._psd_root(b, db)
            except mat2.NotHermitian as exc:
                raise mat2.NotHermitian(exc.max_asymmetry, "B", key) from None
            m = tuple(u - v for u, v in zip(mul(a, sq), dsq))
        p = p0 if p0 is not None else mul(pinv, m)
        q = q0 if q0 is not None else _sym(mul(mul(sq, c), sq))
        out = (Reduced(sq, p, q), m)
        if len(memo) > 4096:
            memo.clear()
        memo[key] = out
        return out

    res = max(residual(t, *compute(t)) for t in checks.times)
    return PsdReduction(at=lambda t: compute(t)[0], max_residual=res, const_b=const_b)


def _reduced(
    criterion: str, s: Scenario, window: tuple, applicability: list, checks: ValidationReport
) -> tuple:
    """The PSD prelude: (reduction, None), or (None, Inconclusive report).

    Appends the B_psd row and, when B is PSD, the sandwich residual row
    of one psd_reduce call.
    """
    ok_psd = "B_psd" in checks.tags
    applicability.append(("B positive semidefinite", ok_psd, checks.detail("B_psd")))
    if not ok_psd:
        return None, _inconclusive(criterion, window, applicability)
    try:
        red = psd_reduce(s, window, checks=checks)
    except ResidualTooLarge as exc:
        applicability.append(("sandwich residual small", False, str(exc)))
        return None, _inconclusive(criterion, window, applicability)
    applicability.append(
        ("sandwich residual small", True, f"max residual {red.max_residual:.3e}")
    )
    return red, None


def _chi_tilde(p: tuple, q: tuple, j: int) -> float:
    """Reduced free term at one time: -q_jj - |p_{3-j,j}|^2, from entry 4-tuples."""
    return -(q[3 * j - 3].real + abs(p[3 - j]) ** 2)


def oscillation_from_psd_reduction(
    s: Scenario, window: tuple, opt: AnalysisOptions = AnalysisOptions(),
    *, diagonal: Optional[CriterionReport] = None,
    checks: Optional[ValidationReport] = None,
) -> CriterionReport:
    """Oscillation via the reduced scalar equations.

    After reduction the candidate scalar equations are
    phi'' + 2 Re(p_jj) phi' + chi~_j phi = 0, encoded as first-order
    pairs and run through scalar_osc_test. Oscillatory if either one is.

    diagonal is the oscillation-diagonal report of the same analysis.
    On a diagonal B > 0 that the reduction found constant, and when that
    report holds scalar_1, its scalar_j results stand in for the reduced
    tests: S = diag(sqrt b_j) gives p_jj = a_jj and chi~_j = b_j chi_j,
    and the gauge w~ = b_j w maps the diagonal Riccati equation
    w' + b_j w^2 + 2 Re(a_jj) w + chi_j = 0 onto the reduced one, so both
    count the zeros of one function. A varying B keeps its own flows,
    which are where a B that leaves PSD between validation samples is
    caught. The reduction and its applicability rows run either way.
    """
    checks = checks or coefsys.validate_scenario(s, window)
    applicability = []
    red, report = _reduced(OSC_PSD, s, window, applicability, checks)
    if red is None:
        return report

    witnesses = {"max_residual": red.max_residual}
    notes = ("reduced scalar equation j={j} oscillates", "no reduced equation oscillates")
    if (
        {"B_diagonal", "B_positive"} <= checks.tags
        and red.const_b
        and diagonal is not None
        and "scalar_1" in diagonal.witnesses
    ):
        witnesses.update((k, v) for k, v in diagonal.witnesses.items() if k.startswith("scalar_"))
        gauge = (
            "; zeros counted on the diagonal form, which the gauge w~ = b_j w "
            "maps onto the reduced one (its (0, 1) start is the reduced one "
            "scaled by b_j(lo), which moves no zero)"
        )
        notes = tuple(n + gauge for n in notes)

    def system(j):
        jj = 3 * j - 3  # index of the (j, j) entry

        def coeffs(t):
            _, p, q = red.at(t)
            return (0.0, 1.0, -_chi_tilde(p, q, j), -2.0 * p[jj].real)

        return coeffs

    return _first_oscillating(OSC_PSD, window, applicability, witnesses, system, notes, opt)


def nonoscillation_psd_envelope(
    s: Scenario, window: tuple, opt: AnalysisOptions = AnalysisOptions(),
    *, checks: Optional[ValidationReport] = None,
) -> CriterionReport:
    """Non-oscillation via the envelope terms of the reduced system.

    Same machinery as the diagonal envelope with unit b, coefficients
    from the reduction: ratios r1 = p12, r2 = conj(p21), drives from
    q12, free terms against q11, q22, kernel weights 2 Re p_jj. Both
    kernels must certify by partition search.
    """
    checks = checks or coefsys.validate_scenario(s, window)
    applicability = []
    red, report = _reduced(NONOSC_PSD_ENVELOPE, s, window, applicability, checks)
    if red is None:
        return report

    # gross-jump tripwire on the reduced couplings: second differences on
    # the validation grid should not dwarf the local magnitude scale
    p_grid = np.array([red.at(t).p for t in coefsys.window_grid(window)])
    d2 = np.abs(p_grid[2:] - 2.0 * p_grid[1:-1] + p_grid[:-2])
    scale = 1.0 + float(np.max(np.abs(p_grid)))
    max_d2 = float(np.max(d2)) if len(d2) else 0.0
    ok_smooth = max_d2 <= 2.0 * scale
    applicability.append(
        (
            "reduced couplings smooth",
            ok_smooth,
            f"max second difference {max_d2:.3e} against scale {scale:.3e}",
        )
    )
    if not ok_smooth:
        return _inconclusive(NONOSC_PSD_ENVELOPE, window, applicability)

    def values(t):
        _, p, q = red.at(t)
        return (
            p[0].conjugate() + p[3], p[1], p[2].conjugate(),
            q[1], 1.0, 1.0, q[0].real, q[3].real, 2.0 * p[0].real, 2.0 * p[3].real,
        )

    data = riccati.EnvelopeData(values, riccati.fd_slopes(values, s.t0, s.domain_end))
    env = riccati.build_envelope_terms(
        data, window, opt.sign_convention, rtol=opt.rtol, atol=opt.atol
    )
    witnesses = {"sign_convention": opt.sign_convention, "max_residual": red.max_residual}
    kernels = [("tilde3", env.kernel3), ("tilde4", env.kernel4)]
    return _certified_pair(NONOSC_PSD_ENVELOPE, window, applicability, witnesses, kernels, opt)


# ---------------------------------------------------------------------------
# Aggregation.


# hypotheses a criterion can find violated only inside its own flows:
# each failure becomes an Inconclusive row that names it
_HYPOTHESIS_ERRORS = {
    mat2.NotPSD: "B positive semidefinite",
    mat2.NotDifferentiable: "sqrt B differentiable",
    coefsys.ZeroDiagonalB: "b_1, b_2 nonzero",
    coefsys.OutOfDomain: "window inside the coefficient domain",
    odeint.StepBudgetExhausted: "flow within the step budget",
}


def _run_criteria(s: Scenario, window: tuple, opt: AnalysisOptions) -> tuple:
    # the names are read from the module on each call, so a function
    # patched onto it (a tracer, a test's recorder) is the one that runs
    checks = coefsys.validate_scenario(s, window)
    runs = (
        oscillation_from_diagonal,
        nonoscillation_sign_split,
        nonoscillation_envelope,
        oscillation_from_psd_reduction,
        nonoscillation_psd_envelope,
    )
    reports = []
    for cid, run in zip(CRITERION_ORDER, runs):
        # the PSD oscillation test may read the diagonal one's scalar flows
        kwargs = {"diagonal": reports[0]} if cid == OSC_PSD else {}
        try:
            reports.append(run(s, window, opt, checks=checks, **kwargs))
        except tuple(_HYPOTHESIS_ERRORS) as exc:
            hypothesis = next(h for err, h in _HYPOTHESIS_ERRORS.items() if isinstance(exc, err))
            reports.append(_inconclusive(cid, window, [(hypothesis, False, str(exc))]))
    return tuple(reports)


def resolve_reports(reports) -> tuple:
    """Overall verdict from per-criterion reports: (verdict, conflict).

    First non-Inconclusive wins; a simultaneous Oscillatory and
    NonOscillatory is flagged as a conflict. Pure helper so the conflict
    path is testable without polluting CONFLICT_LOG.
    """
    kinds = {r.verdict.kind for r in reports}
    conflict = OSCILLATORY in kinds and NON_OSCILLATORY in kinds
    for r in reports:
        if r.verdict.kind != INCONCLUSIVE:
            return r.verdict, conflict
    window = reports[0].verdict.window if reports else (0.0, 0.0)
    return (
        Verdict(INCONCLUSIVE, "", window, "no criterion applied or certified"),
        conflict,
    )


def analyze(s: Scenario, window: tuple, options: Optional[AnalysisOptions] = None) -> AnalysisResult:
    """Run all criteria in fixed order and aggregate.

    The criteria run as standalone calls would, except that they share
    one validation report, and oscillation-psd-reduction is handed the
    oscillation-diagonal report: on a constant diagonal B > 0 it reads
    that report's scalar flows instead of integrating the same equations
    again (the gauge w~ = b_j w; see oscillation_from_psd_reduction).
    Nothing is kept between calls.

    A report out of its slot in CRITERION_ORDER, a report answering
    against its criterion's direction, and a cross-criterion conflict
    each raise CriteriaConflict with all reports attached and are
    appended to CONFLICT_LOG.
    """
    opt = options or AnalysisOptions()
    reports = _run_criteria(s, window, opt)
    misplaced = [
        r
        for r, cid in zip(reports, CRITERION_ORDER)
        if r.criterion != cid or r.verdict.kind not in (_DIRECTION[cid], INCONCLUSIVE)
    ]
    verdict, conflict = resolve_reports(reports)
    if misplaced or conflict:
        CONFLICT_LOG.append(
            {
                "scenario": s.name,
                "window": tuple(window),
                "kinds": sorted(r.verdict.kind for r in reports),
            }
        )
        what = "criteria out of order or direction" if misplaced else "criteria disagree"
        raise CriteriaConflict(
            f"{what} on {s.name!r}: "
            + ", ".join(f"{r.criterion}={r.verdict.kind}" for r in reports),
            reports=reports,
        )
    return AnalysisResult(
        verdict=verdict,
        reports=reports,
        scenario_name=s.name,
        window=(float(window[0]), float(window[1])),
        options=opt,
    )


# ---------------------------------------------------------------------------
# Simulation cross-validation.


@dataclass(frozen=True)
class StartRecord:
    label: str
    zeros: tuple  # zero times of det Phi
    n_zeros_after_burn_in: int
    min_log_abs_det: float
    min_abs_det: float


@dataclass(frozen=True)
class CrossValidation:
    sim_outcome: str  # SIM-oscillatory | SIM-nonoscillatory | SIM-undecided
    starts: tuple
    analysis: AnalysisResult
    consistent: bool
    window: tuple
    notes: str = ""


def simulate_starts(
    s: Scenario, window: tuple, n_starts: int, eps_zero: float = 1e-7, *, seed: int = 42
) -> Iterator[tuple]:
    """Frame-integrate conjoined starts and find the zeros of det Phi.

    The starts are (I, 0) and (I, I), then Phi0 = I with Psi0 drawn by
    random_hermitian from a generator seeded with seed; the first
    n_starts of that sequence run. The window's validation report is
    the Hermitian gate: a B or C it finds non-Hermitian raises
    mat2.NotHermitian before any start runs. Zeros come from
    odeint.detect_det_zeros, the one counter for real and complex
    coefficients. Yields one (label, trajectory, zero records) per
    start, integrating each only when asked for it, so a caller that
    keeps no trajectory holds one at a time.
    """
    coefsys.validate_scenario(s, window)
    eye = np.eye(2, dtype=complex)
    start_list = [("I,0", eye, np.zeros((2, 2), complex)), ("I,I", eye, eye)]
    rng = np.random.default_rng(seed)
    for i in range(max(0, n_starts - 2)):
        start_list.append((f"rand{i}", eye, mat2.random_hermitian(rng, 1.0)))
    for label, phi0, psi0 in start_list[:n_starts]:
        traj = odeint.solve_hamiltonian_frame(s, phi0, psi0, window)
        yield label, traj, odeint.detect_det_zeros(traj, eps_zero)


def _start_record(label: str, traj: odeint.Trajectory, zeros: list, window: tuple) -> StartRecord:
    lo, hi = float(window[0]), float(window[1])
    burn_edge = lo + _BURN_IN * (hi - lo)
    # min |det Phi| over nodes, in log form: the frame determinant is
    # order one and the accumulated scale can overflow a double
    dets, log_scale = odeint.det_phi(traj, traj.times)
    dets = np.abs(dets)
    logs = np.where(dets > 0.0, np.log(np.maximum(dets, 1e-300)), -690.0)
    logs = logs + log_scale
    min_log = float(np.min(logs))
    return StartRecord(
        label=label,
        zeros=tuple(z.time for z in zeros),
        n_zeros_after_burn_in=sum(1 for z in zeros if z.time > burn_edge),
        min_log_abs_det=min_log,
        min_abs_det=float(np.exp(min_log)) if min_log < 700.0 else float("inf"),
    )


def cross_validate(
    s: Scenario,
    window: tuple,
    n_starts: Optional[int] = None,
    eps_zero: Optional[float] = None,
    *,
    seed: Optional[int] = None,
    options: Optional[AnalysisOptions] = None,
    analysis: Optional[AnalysisResult] = None,
) -> CrossValidation:
    """Compare criterion verdicts against direct simulation.

    Integrates the matrix pair from the n_starts conjoined starts of
    simulate_starts. n_starts, eps_zero and seed are read from options
    (default AnalysisOptions()); each one given here replaces its field.
    SIM-oscillatory: every start shows at least 2 determinant zeros with
    the last in the final quarter. SIM-nonoscillatory: some start shows
    no zeros past the burn-in prefix. The simulation window may be
    narrower than the analysis window (options.sim_window) to keep stiff
    scenarios affordable; records carry the window they used.

    A mismatch (criteria say Oscillatory while simulation says
    SIM-nonoscillatory, or the reverse) is reported with a hint, never
    raised: the finite window, tolerances, or plain criterion
    conservatism can each explain it.
    """
    given = {"n_starts": n_starts, "eps_zero": eps_zero, "seed": seed}
    opt = replace(options or AnalysisOptions(), **{k: v for k, v in given.items() if v is not None})
    if analysis is None:
        analysis = analyze(s, window, opt)
    sim_window = opt.sim_window or (float(window[0]), float(window[1]))
    records = tuple(
        _start_record(label, traj, zeros, sim_window)
        for label, traj, zeros in simulate_starts(s, sim_window, opt.n_starts, opt.eps_zero, seed=opt.seed)
    )

    lo, hi = sim_window
    quarter = _quarter_threshold(lo, hi)
    osc = all(len(r.zeros) >= 2 and r.zeros[-1] >= quarter for r in records)
    nonosc = any(r.n_zeros_after_burn_in == 0 for r in records)
    sim_outcome = (
        "SIM-oscillatory" if osc else ("SIM-nonoscillatory" if nonosc else "SIM-undecided")
    )

    kind = analysis.verdict.kind
    consistent = not (
        (kind == OSCILLATORY and sim_outcome == "SIM-nonoscillatory")
        or (kind == NON_OSCILLATORY and sim_outcome == "SIM-oscillatory")
    )
    notes = ""
    if not consistent:
        short = hi - lo < 0.5 * (float(window[1]) - float(window[0]))
        notes = (
            "window too short for the zero recurrence rule"
            if kind == OSCILLATORY and (short or min(len(r.zeros) for r in records) < 2)
            else "criterion and simulation disagree; check tolerances and window"
        )
    return CrossValidation(
        sim_outcome=sim_outcome,
        starts=records,
        analysis=analysis,
        consistent=consistent,
        window=sim_window,
        notes=notes,
    )
