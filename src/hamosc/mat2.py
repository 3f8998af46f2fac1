"""Exact-size complex 2x2 linear algebra.

Matrices are numpy arrays of shape (2, 2) and dtype complex128 throughout
the public API. Everything here is closed-form: determinants, traces,
pseudo-inverses, Hermitian and positive-semidefinite predicates, the
principal PSD square root, and the minimum-norm solution of the sandwich
equation S @ X @ M = M.

Code that reads a 2x2 at every integrator stage works on Python scalars
instead: the row-major entry 4-tuple (e11, e12, e21, e22), the form in
which ``coefsys.Scenario`` returns its blocks. ``_mul``, ``_pinv`` and
``_psd_root`` take and return that form, and the per-stage readers of
``criteria`` and ``riccati`` index it (entry (i, j) at 2 (i-1) + (j-1)). ``_psd_root``
gives S = sqrt B, its pseudo-inverse and its derivative from one
eigendecomposition of B, with one rank decision for all three.

Norms are max-absolute-entry unless stated otherwise; all tolerances scale
as tol * (1 + norm) so the checks behave identically across magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "NotPSD",
    "NotDifferentiable",
    "HermFlag",
    "as_mat2",
    "norm_max",
    "adjoint",
    "det2",
    "tr2",
    "is_hermitian",
    "herm_eigvals",
    "is_psd",
    "sqrt_psd",
    "solve_sandwich",
    "random_hermitian",
]

TOL_HERM = 1e-10
TOL_RANK = 1e-10


class NotHermitian(ValueError):
    """A matrix that must be Hermitian is not.

    which names it ("B" and "C" for a scenario's blocks, with t the time
    they were read at); max_asymmetry is its max-entry |M - M*|.
    """

    def __init__(self, asym: float, which: str = "matrix", t: float | None = None):
        at = "" if t is None else f"({t!r})"
        super().__init__(f"{which}{at} is not Hermitian (asymmetry {asym:.3e})")
        self.max_asymmetry, self.which, self.t = asym, which, t


class NotPSD(ValueError):
    """Operation requires a positive semidefinite input."""


class NotDifferentiable(ValueError):
    """sqrt B has no derivative: B' does not vanish on the kernel of B."""


@dataclass(frozen=True)
class HermFlag:
    """Outcome of the Hermitian test with its measured asymmetry."""

    is_hermitian: bool
    max_asymmetry: float


def as_mat2(obj) -> np.ndarray:
    m = np.asarray(obj, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected shape (2, 2), got {m.shape}")
    return m


def norm_max(m) -> float:
    """Max absolute entry."""
    return float(np.max(np.abs(m)))


def adjoint(m) -> np.ndarray:
    return np.conj(np.asarray(m).T)


def det2(m) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def tr2(m) -> complex:
    return complex(m[0, 0] + m[1, 1])


def is_hermitian(m) -> HermFlag:
    """Test M == M* up to TOL_HERM * (1 + max-entry norm)."""
    m = as_mat2(m)
    asym = norm_max(m - adjoint(m))
    return HermFlag(asym <= TOL_HERM * (1.0 + norm_max(m)), asym)


def herm_eigvals(m) -> tuple[float, float]:
    """Eigenvalues (lo, hi) of a Hermitian 2x2 by the quadratic formula.

    The input is symmetrized first, so tiny asymmetries do not leak
    imaginary parts into the result.
    """
    h = 0.5 * (as_mat2(m) + adjoint(m))
    t = float(np.real(tr2(h)))
    d = float(np.real(det2(h)))
    disc = max(t * t - 4.0 * d, 0.0)
    r = math.sqrt(disc)
    return (0.5 * (t - r), 0.5 * (t + r))


def is_psd(m) -> bool:
    """True when both eigenvalues are >= -TOL_HERM * (1 + max-entry norm).

    Raises NotHermitian when the input fails the Hermitian test, since
    positivity only makes sense for Hermitian matrices.
    """
    m = as_mat2(m)
    flag = is_hermitian(m)
    if not flag.is_hermitian:
        raise NotHermitian(flag.max_asymmetry)
    lo, _ = herm_eigvals(m)
    return lo >= -TOL_HERM * (1.0 + norm_max(m))


def sqrt_psd(m) -> np.ndarray:
    """Principal square root of a Hermitian PSD 2x2 matrix (see _psd_root).

    Raises
    ------
    NotPSD
        When an eigenvalue is below -1e-10 * (1 + norm).
    NotHermitian
        When the input is not Hermitian to tolerance.
    """
    root, _, _ = _psd_root(as_mat2(m).ravel().tolist(), (0j, 0j, 0j, 0j))
    return np.array(root, dtype=complex).reshape(2, 2)


def _psd_root(be: tuple, de: tuple) -> tuple:
    """(S, S^+, S') for S = sqrt B, from B and B' as entry 4-tuples.

    One eigendecomposition B = U diag(l_1, l_2) U* gives all three, with
    one rank decision: l_k <= TOL_HERM (1 + |B|) counts as 0. Then
    sigma_k = sqrt(l_k) or 0, S = U diag(sigma) U*, S^+ = U diag(1 /
    sigma_k or 0) U*, and S'_ij = (U* B' U)_ij / (sigma_i + sigma_j)
    (Higham, Functions of Matrices, SIAM 2008, ch. 6). Where both sigmas
    are 0, S'_ij = 0, the minimum-norm choice, and (U* B' U)_ij must
    vanish to TOL_HERM (1 + |B'|), else NotDifferentiable. The
    eigenvector of l_1 is a column of B - l_2 I, so U* B U is diagonal to
    rounding however close the eigenvalues.

    Raises NotHermitian and NotPSD on the tests of is_psd.
    """
    b11, b12, b21, b22 = be
    scale = 1.0 + max(map(abs, be))
    asym = max(2.0 * abs(b11.imag), 2.0 * abs(b22.imag), abs(b12 - b21.conjugate()))
    if asym > TOL_HERM * scale:
        raise NotHermitian(asym, "B")
    p, q, r = b11.real, 0.5 * (b12 + b21.conjugate()), b22.real
    half = 0.5 * (p - r)
    rho = math.hypot(half, abs(q))
    lam = (0.5 * (p + r) + rho, 0.5 * (p + r) - rho)
    if lam[1] < -TOL_HERM * scale:
        raise NotPSD(f"eigenvalues ({lam[1]:.3e}, {lam[0]:.3e})")
    sig = [math.sqrt(lk) if lk > TOL_HERM * scale else 0.0 for lk in lam]
    x, y = (half + rho, q.conjugate()) if half >= 0.0 else (q, rho - half)
    n = math.hypot(abs(x), abs(y))
    x, y = (x / n, y / n) if n > 0.0 else (1.0, 0.0)  # n = 0: B = l I
    xx, yy, xy = abs(x) ** 2, abs(y) ** 2, complex(x * y.conjugate())

    def spectral(f1, f2):  # U diag(f1, f2) U*
        off = (f1 - f2) * xy
        return (f1 * xx + f2 * yy + 0j, off, off.conjugate(), f1 * yy + f2 * xx + 0j)

    root = spectral(*sig)
    pinv = spectral(*(1.0 / sk if sk > 0.0 else 0.0 for sk in sig))
    u, uh = (x, -y.conjugate(), y, x.conjugate()), (x.conjugate(), y.conjugate(), -y, x)
    d = _mul(_mul(uh, de), u)
    den = [sig[k // 2] + sig[k % 2] for k in range(4)]
    small = TOL_HERM * (1.0 + max(map(abs, de)))
    bad = [abs(dk) for dk, nk in zip(d, den) if nk == 0.0 and abs(dk) > small]
    if bad:
        raise NotDifferentiable(f"B' has {max(bad):.3e} on the kernel of B, where sqrt B is 0")
    deriv = _mul(_mul(u, tuple(dk / nk if nk > 0.0 else 0j for dk, nk in zip(d, den))), uh)
    return root, pinv, deriv


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as row-major entry 4-tuples."""
    return (
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    )


def _pinv(x: tuple) -> tuple:
    """Moore-Penrose pseudo-inverse of a row-major 2x2 entry 4-tuple.

    A singular value sigma_2 < TOL_RANK * sigma_1 counts as 0. Both
    follow from sigma_1^2 + sigma_2^2 = |X|_F^2 and
    sigma_1 sigma_2 = |det X|, taken of Y = X / m with m the power of 2
    just above max |x_ij|, so that neither squares to 0 below entries of
    1e-160; the scaling is exact and X^+ = Y^+ / m. Rank 2 inverts by
    the adjugate; rank 1 uses X* / |X|_F^2, which is exact when
    sigma_2 = 0 and within TOL_RANK / sigma_1 of the truncated
    pseudo-inverse otherwise.
    """
    top = max(map(abs, x))
    if top == 0.0:
        return (0j, 0j, 0j, 0j)
    m = math.ldexp(1.0, math.frexp(top)[1])
    a, b, c, d = (v / m for v in x)
    fro2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = a * d - b * c
    s1sq = 0.5 * (fro2 + math.sqrt(max(fro2 * fro2 - 4.0 * abs(det) ** 2, 0.0)))
    if abs(det) < TOL_RANK * s1sq:
        return tuple(v.conjugate() / (fro2 * m) for v in (a, c, b, d))
    det *= m
    return (d / det, -b / det, -c / det, a / det)


def solve_sandwich(s, m) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares F with S @ F @ M = M.

    The minimum-norm least-squares solution of S F M = M is
    F = S^+ M M^+ (Penrose, Proc. Cambridge Philos. Soc. 52, 1956), and
    both 2x2 pseudo-inverses have closed forms (see _pinv). A singular
    value sigma_2 of S or of M is treated as zero when
    sigma_2 < TOL_RANK * sigma_1 of the same matrix. Returns (F,
    residual) where the residual is the max-entry norm of S @ F @ M - M.

    When both S and M are invertible the unique solution is S^{-1}. When M
    is rank deficient the equation constrains F only on the range of M, and
    the minimum-norm completion is returned (generally not S^{-1}).

    The SVD least squares on the 4x4 Kronecker system (M^T kron S)
    vec(F) = vec(M) sees the products sigma_i(S) sigma_j(M) and drops
    sigma_2(S) sigma_2(M) when the product is below
    TOL_RANK * sigma_1(S) sigma_1(M). Here that term drops only when one
    of the two ratios sigma_2 / sigma_1 is below TOL_RANK, so the two
    disagree when both ratios lie between TOL_RANK and 1 but their
    product is below TOL_RANK.
    """
    se = tuple(as_mat2(s).ravel().tolist())
    me = tuple(as_mat2(m).ravel().tolist())
    f = _mul(_mul(_pinv(se), me), _pinv(me))
    back = _mul(_mul(se, f), me)
    residual = max(abs(u - v) for u, v in zip(back, me))
    return np.array(f, dtype=complex).reshape(2, 2), residual


def random_hermitian(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian 2x2 with entries on the order of scale."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * 0.5 * (g + adjoint(g))
