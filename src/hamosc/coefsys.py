"""Coefficient providers: the map t -> (A(t), B(t), C(t)) with metadata.

A Scenario bundles the coefficient triple of the 4d Hamiltonian system
with its left endpoint, its derivatives, and structural tags (diagonal
B, PSD / positive B, real coefficients). Tags are verified by sampling,
never trusted from the caller: validate_scenario is the one place that
sets them, and the built-in families wire them in because their
structure is known by construction.

The derivatives (A', B', C') are required, and are the package's only
source of coefficient derivatives: families wire them in closed form,
tables differentiate their splines, and nothing is differenced.

Built-in families:

* harmonic            A = 0, B = I, C = -I
* euler               A = 0, B = I, C = -(c/t^2) I, t0 = 1
* diag_B              constant coefficients with B = diag(b1, b2)
* vector_schrodinger  phi'' + K phi = 0 with a two-frequency potential
                      and +-10i off-diagonal coupling
* ones_B_zero_drift   B = all-ones (singular), A = 0, C = (c_sum/2) I
* ones_B_euler        B = all-ones, row sums of A equal alpha/t,
                      c11 + 2 Re c12 + c22 = (alpha - alpha^2)/t^2
* ones_B_alpha_conditions  B = all-ones, row sums a0 + a1 t, constant
                      Hermitian-part sum of C

The ones_B families fix only row sums and entry sums, so the concrete
matrices below are representatives: A spread uniformly over the row,
C diagonal. Any other representative with the same sums behaves the
same under the all-ones B reduction.

Tabulated scenarios interpolate CSV samples with cubic splines, entrywise
on real and imaginary parts, and never extrapolate. The splines are
scipy's: from_table imports scipy.interpolate on first use, so only
loading a table pays for it and the package imports without scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import mat2
from .mat2 import TOL_HERM, is_hermitian, norm_max

__all__ = [
    "Scenario",
    "TabulatedCoeffs",
    "ValidationReport",
    "UnknownFamily",
    "MissingParam",
    "OutOfDomain",
    "ZeroDiagonalB",
    "make_family",
    "from_table",
    "load_table_csv",
    "validate_scenario",
    "validated",
    "FAMILIES",
    "TOL_POS",
]

# strict-positivity margin separating B > 0 from B >= 0
TOL_POS = 1e-9


class UnknownFamily(ValueError):
    pass


class MissingParam(ValueError):
    pass


class OutOfDomain(ValueError):
    def __init__(self, t: float, lo: float, hi: float):
        super().__init__(f"t = {t!r} outside [{lo!r}, {hi!r}]")
        self.t = t


class ZeroDiagonalB(ValueError):
    def __init__(self, t: float, j: int):
        super().__init__(f"b{j}({t!r}) = 0; ratio undefined")
        self.t = t
        self.j = j


@dataclass(frozen=True)
class Scenario:
    """Coefficient triple with metadata.

    eval: t -> (A, B, C), each a 2x2 complex ndarray.
    analytic_derivatives: t -> (A', B', C'), the exact derivatives of
    eval's blocks in the same form, defined where eval is (raising
    OutOfDomain where it does). psd_reduce counts a block as constant
    when its derivative is exactly 0 on its 256-point validation grid;
    a bump narrower than one grid cell is missed.
    tags: structural flags from {B_diagonal, B_psd, B_positive,
    real_coefficients}; set by construction or by validate_scenario.
    domain_end: right end of validity (None = unbounded).
    params: a family's parameters as its builder resolved them,
    defaults included.
    knots: the sample times of a table (from_table), empty otherwise.
    Validation and the criteria's hypothesis checks read the scenario
    at those inside their window as well as on their grid (check_times),
    so a table entry that leaves PSD between grid points is met.
    """

    name: str
    t0: float
    eval: Callable
    analytic_derivatives: Callable
    tags: frozenset = frozenset()
    domain_end: float | None = None
    family: str | None = None
    params: dict = field(default_factory=dict)
    knots: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    tags: frozenset
    max_asymmetry: float
    n_samples: int
    window: tuple


_I2 = np.eye(2, dtype=complex)
_ONES = np.ones((2, 2), dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

def _require(params: dict, family: str, *names: str) -> list[float]:
    vals = []
    for nm in names:
        if nm not in params:
            raise MissingParam(f"family {family!r} needs parameter {nm!r}")
        vals.append(params[nm])
    return vals


def _const_eval(a, b, c):
    def ev(t):
        return a.copy(), b.copy(), c.copy()

    return ev


def _zero_derivs(t):
    return _Z2.copy(), _Z2.copy(), _Z2.copy()


def _make_harmonic(params):
    ev = _const_eval(_Z2, _I2, -_I2)
    return Scenario(
        name="harmonic",
        t0=0.0,
        eval=ev,
        analytic_derivatives=_zero_derivs,
        tags=frozenset({"B_diagonal", "B_psd", "B_positive", "real_coefficients"}),
    )


def _make_euler(params):
    (c,) = _require(params, "euler", "c")

    def ev(t):
        return _Z2.copy(), _I2.copy(), (-c / (t * t)) * _I2

    def dv(t):
        return _Z2.copy(), _Z2.copy(), (2.0 * c / (t * t * t)) * _I2

    return Scenario(
        name=f"euler(c={c:g})",
        t0=1.0,
        eval=ev,
        analytic_derivatives=dv,
        tags=frozenset({"B_diagonal", "B_psd", "B_positive", "real_coefficients"}),
        params={"c": c},
    )


def _make_vector_schrodinger(params):
    p1 = params.get("p1", 1.0)
    p2 = params.get("p2", 1.0)
    lam1 = params.get("lam1", 1.0)
    # default second frequency sqrt(2): rational independence of the two
    # frequencies is the user's assertion, it cannot be checked numerically
    lam2 = params.get("lam2", math.sqrt(2.0))
    th1 = params.get("theta1", 0.0)
    th2 = params.get("theta2", 0.0)

    def mu(t):
        return p1 * math.sin(lam1 * t + th1) + p2 * math.sin(lam2 * t + th2)

    def ev(t):
        c = np.array([[-mu(t), -10j], [10j, t * t]], dtype=complex)
        return _Z2.copy(), _I2.copy(), c

    def dv(t):
        dmu = p1 * lam1 * math.cos(lam1 * t + th1) + p2 * lam2 * math.cos(lam2 * t + th2)
        dc = np.array([[-dmu, 0.0], [0.0, 2.0 * t]], dtype=complex)
        return _Z2.copy(), _Z2.copy(), dc

    return Scenario(
        name="vector_schrodinger",
        t0=0.0,
        eval=ev,
        analytic_derivatives=dv,
        tags=frozenset({"B_diagonal", "B_psd", "B_positive"}),
        params=dict(p1=p1, p2=p2, lam1=lam1, lam2=lam2, theta1=th1, theta2=th2),
    )


def _make_diag_b(params):
    b1, b2 = _require(params, "diag_B", "b1", "b2")
    optional = ("a11", "a22", "a12_re", "a12_im", "a21_re", "a21_im", "c11", "c22", "c12_re", "c12_im")
    p = {"b1": b1, "b2": b2, **{nm: params.get(nm, 0.0) for nm in optional}}
    a12 = complex(p["a12_re"], p["a12_im"])
    a21 = complex(p["a21_re"], p["a21_im"])
    c12 = complex(p["c12_re"], p["c12_im"])
    a = np.array([[p["a11"], a12], [a21, p["a22"]]], dtype=complex)
    b = np.array([[b1, 0.0], [0.0, b2]], dtype=complex)
    c = np.array([[p["c11"], c12], [np.conj(c12), p["c22"]]], dtype=complex)
    tags = {"B_diagonal"}
    if b1 >= 0.0 and b2 >= 0.0:
        tags.add("B_psd")
    if b1 > TOL_POS and b2 > TOL_POS:
        tags.add("B_positive")
    if norm_max(np.imag(a) + 0j) == 0.0 and p["c12_im"] == 0.0:
        tags.add("real_coefficients")
    return Scenario(
        name="diag_B",
        t0=0.0,
        eval=_const_eval(a, b, c),
        analytic_derivatives=_zero_derivs,
        tags=frozenset(tags),
        params=p,
    )


def _make_ones_b_zero_drift(params):
    (c_sum,) = _require(params, "ones_B_zero_drift", "c_sum")

    def ev(t):
        return _Z2.copy(), _ONES.copy(), (c_sum / 2.0) * _I2

    return Scenario(
        name="ones_B_zero_drift",
        t0=0.0,
        eval=ev,
        analytic_derivatives=_zero_derivs,
        tags=frozenset({"B_psd", "real_coefficients"}),
        params={"c_sum": c_sum},
    )


def _make_ones_b_euler(params):
    (alpha,) = _require(params, "ones_B_euler", "alpha")

    def ev(t):
        a = (alpha / (2.0 * t)) * _ONES
        c = ((alpha - alpha * alpha) / (2.0 * t * t)) * _I2
        return a, _ONES.copy(), c

    def dv(t):
        da = (-alpha / (2.0 * t * t)) * _ONES
        dc = ((alpha * alpha - alpha) / (t * t * t)) * _I2
        return da, _Z2.copy(), dc

    return Scenario(
        name=f"ones_B_euler(alpha={alpha:g})",
        t0=1.0,
        eval=ev,
        analytic_derivatives=dv,
        tags=frozenset({"B_psd", "real_coefficients"}),
        params={"alpha": alpha},
    )


def _make_ones_b_alpha_conditions(params):
    a0, a1, s0 = _require(params, "ones_B_alpha_conditions", "a0", "a1", "s0")
    if a0 <= 0.0 or a1 < 0.0:
        raise ValueError("row-sum a0 + a1*t must be positive and nondecreasing")

    def ev(t):
        a = ((a0 + a1 * t) / 2.0) * _ONES
        return a, _ONES.copy(), (s0 / 2.0) * _I2

    def dv(t):
        return (a1 / 2.0) * _ONES, _Z2.copy(), _Z2.copy()

    return Scenario(
        name="ones_B_alpha_conditions",
        t0=0.0,
        eval=ev,
        analytic_derivatives=dv,
        tags=frozenset({"B_psd", "real_coefficients"}),
        params={"a0": a0, "a1": a1, "s0": s0},
    )


FAMILIES = {
    "harmonic": _make_harmonic,
    "euler": _make_euler,
    "diag_B": _make_diag_b,
    "vector_schrodinger": _make_vector_schrodinger,
    "ones_B_zero_drift": _make_ones_b_zero_drift,
    "ones_B_euler": _make_ones_b_euler,
    "ones_B_alpha_conditions": _make_ones_b_alpha_conditions,
}


def make_family(family_id: str, params: dict | None = None) -> Scenario:
    """Build a Scenario from a named parametric family.

    params maps the family's own parameter names to numbers. A name the
    family does not resolve raises ValueError, so a misspelled parameter
    cannot silently fall back to its default.
    """
    if family_id not in FAMILIES:
        raise UnknownFamily(f"unknown family {family_id!r}; known: {sorted(FAMILIES)}")
    given = {key: float(val) for key, val in (params or {}).items()}
    scen = FAMILIES[family_id](given)
    unknown = sorted(set(given) - set(scen.params))
    if unknown:
        raise ValueError(
            f"family {family_id!r} has no parameter {', '.join(map(repr, unknown))}; "
            f"known: {sorted(scen.params)}"
        )
    return replace(scen, family=family_id)


# ---------------------------------------------------------------------------
# Tabulated coefficients.

CSV_COLUMNS = ["t"] + [
    f"{part}_{entry}"
    for entry in (
        "a11", "a12", "a21", "a22",
        "b11", "b12", "b21", "b22",
        "c11", "c12", "c21", "c22",
    )
    for part in ("re", "im")
]


@dataclass(frozen=True)
class TabulatedCoeffs:
    """Sampled coefficient triples on a strictly increasing grid."""

    times: np.ndarray
    samples: np.ndarray  # (n, 3, 2, 2) complex, A/B/C per row

    def __post_init__(self):
        if len(self.times) < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")


def load_table_csv(path) -> TabulatedCoeffs:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != CSV_COLUMNS:
            raise ValueError(
                f"bad CSV header: expected {','.join(CSV_COLUMNS)!r}"
            )
        rows = [[float(x) for x in row] for row in reader if row]
    data = np.asarray(rows)
    times = data[:, 0]
    flat = data[:, 1::2] + 1j * data[:, 2::2]  # (n, 12)
    samples = flat.reshape(len(times), 3, 2, 2)
    return TabulatedCoeffs(times=times, samples=samples)


def from_table(tab: TabulatedCoeffs, name: str = "tabulated") -> Scenario:
    """Scenario interpolating the table with entrywise cubic splines.

    B and C samples must be Hermitian. Evaluation outside the sampled
    range raises OutOfDomain: no extrapolation, per the finite-window
    policy for every downstream operation.
    """
    from scipy.interpolate import CubicSpline

    for i, t in enumerate(tab.times):
        for which, mat in (("B", tab.samples[i, 1]), ("C", tab.samples[i, 2])):
            flag = is_hermitian(mat)
            if not flag.is_hermitian:
                raise mat2.NotHermitian(flag.max_asymmetry, which, float(t))

    bc = "not-a-knot" if len(tab.times) >= 4 else "natural"
    flat = tab.samples.reshape(len(tab.times), 12)
    spl_re = CubicSpline(tab.times, np.real(flat), bc_type=bc)
    spl_im = CubicSpline(tab.times, np.imag(flat), bc_type=bc)
    dre = spl_re.derivative()
    dim = spl_im.derivative()
    lo, hi = float(tab.times[0]), float(tab.times[-1])

    def _check(t):
        if t < lo - 1e-12 * (1 + abs(lo)) or t > hi + 1e-12 * (1 + abs(hi)):
            raise OutOfDomain(t, lo, hi)
        return min(max(t, lo), hi)

    def ev(t):
        t = _check(float(t))
        v = (spl_re(t) + 1j * spl_im(t)).reshape(3, 2, 2)
        return v[0], v[1], v[2]

    def dv(t):
        t = _check(float(t))
        v = (dre(t) + 1j * dim(t)).reshape(3, 2, 2)
        return v[0], v[1], v[2]

    scen = Scenario(
        name=name,
        t0=lo,
        eval=ev,
        analytic_derivatives=dv,
        domain_end=hi,
        knots=tuple(tab.times.tolist()),
    )
    report = validate_scenario(scen, (lo, hi), n_samples=max(64, 4 * len(tab.times)))
    return replace(scen, tags=report.tags)


# check_times is left out of __all__, like eval_entries below: bench/tracing.py
# times every function listed there
def check_times(s: Scenario, window: tuple, n_samples: int = 256) -> list:
    """Where a scenario's hypotheses are read on a window, in increasing order.

    The n_samples-point grid of the window, merged with a table's knots
    (Scenario.knots) strictly inside it, so that a table entry between
    grid points is read and a check that fails names its earliest time.
    """
    lo, hi = float(window[0]), float(window[1])
    return sorted(np.linspace(lo, hi, n_samples).tolist() + [k for k in s.knots if lo < k < hi])


def validate_scenario(s: Scenario, window: tuple, n_samples: int = 256) -> ValidationReport:
    """Sample the window and derive the structural tags.

    The samples are check_times: the n_samples-point grid and a table's
    knots inside the window, so a tag that a table's own knots refute is
    never granted. Hermitian violation of B or C is a hard error: the
    entire theory assumes it. mat2.NotHermitian names the earliest
    violating sample, B before C at the same sample. Tags are set from
    what the samples show, with the strict positivity margin
    TOL_POS * (1 + |B|) separating B_positive from B_psd.

    Each sample is one s.eval; the checks then run on the stacked
    (samples, 2, 2) blocks with the per-matrix tests of mat2 written
    out over the stack (max-entry norms, the closed-form eigenvalues of
    herm_eigvals).
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy T > t0")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    ts = check_times(s, (lo, hi), n_samples)
    evs = [s.eval(t) for t in ts]
    a, b, c = (np.array([e[k] for e in evs], dtype=complex) for k in range(3))
    for m in (a, b, c):
        if m.shape != (len(ts), 2, 2):
            raise ValueError(f"expected shape (2, 2), got {m.shape[1:]}")

    def norm(m):
        return np.abs(m).max(axis=(1, 2))

    def adjoint(m):
        return m.conj().transpose(0, 2, 1)

    def low_eig(m):
        """Smaller eigenvalue of each Hermitian block, as mat2.herm_eigvals."""
        h = 0.5 * (m + adjoint(m))
        tr = (h[:, 0, 0] + h[:, 1, 1]).real
        det = (h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]).real
        return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))

    def psd(m):
        return low_eig(m) >= -TOL_HERM * (1.0 + norm(m))

    na, nb, nc = norm(a), norm(b), norm(c)
    asym_b, asym_c = norm(b - adjoint(b)), norm(c - adjoint(c))
    bad_b = ~(asym_b <= TOL_HERM * (1.0 + nb))
    bad_c = ~(asym_c <= TOL_HERM * (1.0 + nc))
    if (bad_b | bad_c).any():
        i = int((bad_b | bad_c).argmax())
        if bad_b[i]:
            raise mat2.NotHermitian(float(asym_b[i]), "B", float(ts[i]))
        raise mat2.NotHermitian(float(asym_c[i]), "C", float(ts[i]))
    scale = 1.0 + nb
    off = (np.abs(b[:, 0, 1]) > TOL_HERM * scale) | (np.abs(b[:, 1, 0]) > TOL_HERM * scale)
    b_psd = psd(b)
    b_pos = b_psd & psd(b - (TOL_POS * scale)[:, None, None] * np.eye(2))
    imag = np.maximum.reduce([norm(np.imag(m)) for m in (a, b, c)])
    size = np.maximum.reduce([na, nb, nc])
    tags = set()
    if not off.any():
        tags.add("B_diagonal")
    if b_psd.all():
        tags.add("B_psd")
    if b_pos.all():
        tags.add("B_positive")
    if not (imag > TOL_HERM * (1.0 + size)).any():
        tags.add("real_coefficients")
    worst_asym = max(0.0, float(asym_b.max()), float(asym_c.max()))
    return ValidationReport(
        tags=frozenset(tags), max_asymmetry=worst_asym, n_samples=n_samples, window=(lo, hi)
    )


def validated(s: Scenario, window: tuple, n_samples: int = 256) -> Scenario:
    """Copy of the scenario carrying freshly verified tags."""
    return replace(s, tags=validate_scenario(s, window, n_samples).tags)


# eval_entries is left out of __all__: it runs once per integrator stage,
# and bench/tracing.py times every function listed there
def eval_entries(s: Scenario, t: float) -> tuple:
    """(A, B, C) at t from one s.eval, each in mat2's entry 4-tuple form.

    Each block is a list of its entries (e11, e12, e21, e22) as Python
    complexes, row-major.
    """
    a, b, c = s.eval(t)
    return a.ravel().tolist(), b.ravel().tolist(), c.ravel().tolist()
