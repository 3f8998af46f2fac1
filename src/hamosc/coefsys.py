"""Coefficient providers: the map t -> (A(t), B(t), C(t)) with metadata.

A Scenario is coefficients and metadata: the coefficient triple of the
4d Hamiltonian system, its derivatives, its left endpoint and where it
came from. It declares no structural fact. The tags (diagonal B, PSD B,
positive B) come only from validate_scenario, which reads the scenario
on a window, and every hypothesis check reads that report.

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
from .mat2 import TOL_HERM, is_hermitian

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
    """Coefficient triple with metadata; its tags come from validate_scenario.

    eval: t -> (A, B, C), each block the row-major entry 4-tuple
    (e11, e12, e21, e22) of Python complexes, mat2's per-stage form:
    entry (i, j) sits at index 2 (i - 1) + (j - 1). Constant blocks may
    be shared between reads, since a tuple cannot be changed.
    analytic_derivatives: t -> (A', B', C'), the exact derivatives of
    eval's blocks in the same form, defined where eval is (raising
    OutOfDomain where it does). psd_reduce counts a block as constant
    when its derivative is exactly 0 at every validation check time;
    a bump narrower than one grid cell is missed.
    domain_end: right end of validity (None = unbounded).
    params: a family's parameters as its builder resolved them,
    defaults included.
    knots: the sample times of a table (from_table), empty otherwise.
    Validation reads the scenario at those inside its window as well as
    on its grid, and every hypothesis check reads its report, so a table
    entry that leaves PSD between grid points is met.

    Either callable may return 2x2 numpy arrays instead: building the
    Scenario, dataclasses.replace included, reads each once at t0 and
    wraps one that does in a converter to the entry form.
    """

    name: str
    t0: float
    eval: Callable
    analytic_derivatives: Callable
    domain_end: float | None = None
    family: str | None = None
    params: dict = field(default_factory=dict)
    knots: tuple = ()

    def __post_init__(self):
        for name in ("eval", "analytic_derivatives"):
            read = getattr(self, name)
            if not isinstance(read(self.t0)[0], tuple):
                object.__setattr__(self, name, _entry_form(read))


def _entry_form(read: Callable) -> Callable:
    """read with its three numpy 2x2 blocks returned as entry 4-tuples."""

    def entries(t):
        a, b, c = read(t)
        (a11, a12), (a21, a22) = np.asarray(a, dtype=complex).tolist()
        (b11, b12), (b21, b22) = np.asarray(b, dtype=complex).tolist()
        (c11, c12), (c21, c22) = np.asarray(c, dtype=complex).tolist()
        return (a11, a12, a21, a22), (b11, b12, b21, b22), (c11, c12, c21, c22)

    return entries


# what validate_scenario records as the value that refutes each tag
_REFUTED_BY = {
    "B_diagonal": "largest off-diagonal |b|",
    "B_psd": "lowest eigenvalue of B",
    "B_positive": "lowest eigenvalue of B",
}


@dataclass(frozen=True)
class ValidationReport:
    """What one read of a scenario at its check times showed.

    refuted holds (tag, t, value) per withheld tag, in _REFUTED_BY order:
    its earliest refuting check time and the value there. blocks and
    derivatives stack s.eval and s.analytic_derivatives at times ([k, i]
    is block i at times[k]); == compares neither them nor times.
    """

    tags: frozenset
    refuted: tuple
    times: tuple = field(compare=False, repr=False)
    blocks: np.ndarray = field(compare=False, repr=False)
    derivatives: np.ndarray = field(compare=False, repr=False)

    def detail(self, tag: str) -> str:
        """Where the samples refuted tag, for an applicability row; '' when it holds."""
        for name, t, value in self.refuted:
            if name == tag:
                return f"refuted at t = {t:g}: {_REFUTED_BY[tag]} {value:.3e}"
        return ""


# Shared constant blocks as entry 4-tuples. _NEG_I is numpy's -I, every zero
# negative, so the families read the same doubles as their arrays did.
_Z = (0j, 0j, 0j, 0j)
_I = (1 + 0j, 0j, 0j, 1 + 0j)
_NEG_I = tuple(-e for e in _I)
_ONES = (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)


def _times(x: float, m: tuple) -> tuple:
    """x m for a real x, entry by entry: the doubles of numpy's x * (2x2 complex array)."""
    return (x * m[0], x * m[1], x * m[2], x * m[3])


def _require(params: dict, family: str, *names: str) -> list[float]:
    vals = []
    for nm in names:
        if nm not in params:
            raise MissingParam(f"family {family!r} needs parameter {nm!r}")
        vals.append(params[nm])
    return vals


def _make_harmonic(params):
    blocks = (_Z, _I, _NEG_I)
    return Scenario(
        name="harmonic",
        t0=0.0,
        eval=lambda t: blocks,
        analytic_derivatives=lambda t: (_Z, _Z, _Z),
    )


def _make_euler(params):
    (c,) = _require(params, "euler", "c")

    def ev(t):
        return _Z, _I, _times(-c / (t * t), _I)

    def dv(t):
        return _Z, _Z, _times(2.0 * c / (t * t * t), _I)

    return Scenario(
        name=f"euler(c={c:g})",
        t0=1.0,
        eval=ev,
        analytic_derivatives=dv,
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

    def ev(t):
        mu = p1 * math.sin(lam1 * t + th1) + p2 * math.sin(lam2 * t + th2)
        return _Z, _I, (complex(-mu), -10j, 10j, complex(t * t))

    def dv(t):
        dmu = p1 * lam1 * math.cos(lam1 * t + th1) + p2 * lam2 * math.cos(lam2 * t + th2)
        return _Z, _Z, (complex(-dmu), 0j, 0j, complex(2.0 * t))

    return Scenario(
        name="vector_schrodinger",
        t0=0.0,
        eval=ev,
        analytic_derivatives=dv,
        params=dict(p1=p1, p2=p2, lam1=lam1, lam2=lam2, theta1=th1, theta2=th2),
    )


def _make_diag_b(params):
    b1, b2 = _require(params, "diag_B", "b1", "b2")
    optional = ("a11", "a22", "a12_re", "a12_im", "a21_re", "a21_im", "c11", "c22", "c12_re", "c12_im")
    p = {"b1": b1, "b2": b2, **{nm: params.get(nm, 0.0) for nm in optional}}
    a12 = complex(p["a12_re"], p["a12_im"])
    a21 = complex(p["a21_re"], p["a21_im"])
    c12 = complex(p["c12_re"], p["c12_im"])
    a = (complex(p["a11"]), a12, a21, complex(p["a22"]))
    b = (complex(b1), 0j, 0j, complex(b2))
    c = (complex(p["c11"]), c12, c12.conjugate(), complex(p["c22"]))
    return Scenario(
        name="diag_B",
        t0=0.0,
        eval=lambda t: (a, b, c),
        analytic_derivatives=lambda t: (_Z, _Z, _Z),
        params=p,
    )


def _make_ones_b_zero_drift(params):
    (c_sum,) = _require(params, "ones_B_zero_drift", "c_sum")
    blocks = (_Z, _ONES, _times(c_sum / 2.0, _I))
    return Scenario(
        name="ones_B_zero_drift",
        t0=0.0,
        eval=lambda t: blocks,
        analytic_derivatives=lambda t: (_Z, _Z, _Z),
        params={"c_sum": c_sum},
    )


def _make_ones_b_euler(params):
    (alpha,) = _require(params, "ones_B_euler", "alpha")

    def ev(t):
        c = _times((alpha - alpha * alpha) / (2.0 * t * t), _I)
        return _times(alpha / (2.0 * t), _ONES), _ONES, c

    def dv(t):
        dc = _times((alpha * alpha - alpha) / (t * t * t), _I)
        return _times(-alpha / (2.0 * t * t), _ONES), _Z, dc

    return Scenario(
        name=f"ones_B_euler(alpha={alpha:g})",
        t0=1.0,
        eval=ev,
        analytic_derivatives=dv,
        params={"alpha": alpha},
    )


def _make_ones_b_alpha_conditions(params):
    a0, a1, s0 = _require(params, "ones_B_alpha_conditions", "a0", "a1", "s0")
    if a0 <= 0.0 or a1 < 0.0:
        raise ValueError("row-sum a0 + a1*t must be positive and nondecreasing")
    c = _times(s0 / 2.0, _I)
    derivs = (_times(a1 / 2.0, _ONES), _Z, _Z)

    def ev(t):
        return _times((a0 + a1 * t) / 2.0, _ONES), _ONES, c

    return Scenario(
        name="ones_B_alpha_conditions",
        t0=0.0,
        eval=ev,
        analytic_derivatives=lambda t: derivs,
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

    B and C samples must be Hermitian, and are checked knot by knot: a
    spline is linear in its data, so Hermitian knots give Hermitian
    values between them. The Scenario is returned as built; an analysis
    validates it on its window, knots included. Evaluation outside the
    sampled range raises OutOfDomain: no extrapolation, per the
    finite-window policy for every downstream operation.
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
        v = (spl_re(t) + 1j * spl_im(t)).tolist()
        return tuple(v[0:4]), tuple(v[4:8]), tuple(v[8:12])

    def dv(t):
        t = _check(float(t))
        v = (dre(t) + 1j * dim(t)).tolist()
        return tuple(v[0:4]), tuple(v[4:8]), tuple(v[8:12])

    return Scenario(
        name=name,
        t0=lo,
        eval=ev,
        analytic_derivatives=dv,
        domain_end=hi,
        knots=tuple(tab.times.tolist()),
    )


# window_grid and stacked are left out of __all__: bench/tracing.py times
# every function listed there
def window_grid(window: tuple, n: int = 256) -> np.ndarray:
    """The n-point uniform grid of the window, both ends included."""
    return np.linspace(float(window[0]), float(window[1]), n)


def stacked(read: Callable, ts) -> np.ndarray:
    """s.eval or s.analytic_derivatives at each time: [k, i] is block i at ts[k]."""
    return np.array([read(t) for t in ts], dtype=complex).reshape(len(ts), 3, 2, 2)


def validate_scenario(s: Scenario, window: tuple) -> ValidationReport:
    """Read the scenario once at its check times and derive the structural tags.

    The check times are the 256-point window_grid and a table's
    knots inside the window, so a tag that a table's own knots refute is
    never granted. The report carries the blocks and derivatives stacked
    there, one stacked call each: an analysis reads its grid only here.
    Hermitian violation of B or C is a hard error: the entire theory
    assumes it. mat2.NotHermitian names the earliest violating sample,
    B before C at the same sample. Tags are set from what the samples
    show, with the strict positivity margin TOL_POS * (1 + |B|)
    separating B_positive from B_psd; a withheld one is recorded with
    its first refuting sample. The checks are mat2's per-matrix tests
    written out over the stack (max-entry norms, herm_eigvals).
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy T > t0")
    ts = sorted(window_grid((lo, hi)).tolist() + [k for k in s.knots if lo < k < hi])
    v, d = (stacked(read, ts) for read in (s.eval, s.analytic_derivatives))
    b, c = v[:, 1], v[:, 2]

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

    nb, nc = norm(b), norm(c)
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

    def low_b(i):
        return mat2.herm_eigvals(b[i])[0]

    # per tag: the samples that refute it, and the value at sample i,
    # computed on that sample alone as mat2 does
    against = {
        "B_diagonal": (off, lambda i: max(abs(b[i, 0, 1]), abs(b[i, 1, 0]))),
        "B_psd": (~b_psd, low_b),
        "B_positive": (~b_pos, low_b),
    }
    tags, refuted = set(), []
    for tag, (bad, value) in against.items():
        if bad.any():
            i = int(bad.argmax())
            refuted.append((tag, float(ts[i]), float(value(i))))
        else:
            tags.add(tag)
    return ValidationReport(
        tags=frozenset(tags), refuted=tuple(refuted), times=tuple(ts), blocks=v, derivatives=d
    )

