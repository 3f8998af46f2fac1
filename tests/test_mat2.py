"""Unit tests for the closed-form 2x2 helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamosc import mat2
from conftest import hermitian
from oracles import Singular, det_tr_inv, eigh_sqrt, lstsq_solve_sandwich, lstsq_sqrt_derivative

EPS = float(np.finfo(float).eps)

_entry = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_centry = st.builds(complex, _entry, _entry)
_matrix = st.builds(
    lambda *e: np.array(e, dtype=complex).reshape(2, 2), _centry, _centry, _centry, _centry
)


def test_builders_validate():
    with pytest.raises(ValueError):
        mat2.as_mat2(np.zeros((3, 2)))


@given(_matrix, _matrix)
def test_trace_commutativity(m1, m2):
    # tr(AB) = tr(BA); the scale is the worst entrywise product sum
    lhs = mat2.tr2(m1 @ m2)
    rhs = mat2.tr2(m2 @ m1)
    scale = float(np.sum(np.abs(m1) * np.abs(m2.T)))
    assert abs(lhs - rhs) <= 4.0 * EPS * max(1.0, scale)


@given(_matrix)
def test_adjoint_involution_and_det(m):
    assert np.array_equal(mat2.adjoint(mat2.adjoint(m)), m)
    assert abs(mat2.det2(mat2.adjoint(m)) - np.conj(mat2.det2(m))) <= 16.0 * EPS * (
        1.0 + float(np.max(np.abs(m))) ** 2
    )


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        try:
            d, t, inv = det_tr_inv(m)
        except Singular:
            continue
        assert abs(d - np.linalg.det(m)) <= 64.0 * EPS * (1.0 + abs(d))
        assert abs(t - np.trace(m)) == 0.0
        scale = 1.0 + mat2.norm_max(m) * mat2.norm_max(inv)
        assert mat2.norm_max(m @ inv - np.eye(2)) <= 8.0 * EPS * scale
        assert mat2.norm_max(inv @ m - np.eye(2)) <= 8.0 * EPS * scale


def test_det_tr_inv_rejects_singular():
    v = np.array([1.0, 2.0 + 1.0j])
    m = np.outer(v, v.conj())  # rank one
    with pytest.raises(Singular):
        det_tr_inv(m)


def test_herm_eigvals_match_lapack():
    rng = np.random.default_rng(12)
    for _ in range(500):
        h = hermitian(rng, rng.uniform(0.1, 5.0))
        lo, hi = mat2.herm_eigvals(h)
        ref = np.linalg.eigvalsh(h)
        assert lo <= hi
        assert abs(lo - ref[0]) <= 1e-12 * (1.0 + mat2.norm_max(h))
        assert abs(hi - ref[1]) <= 1e-12 * (1.0 + mat2.norm_max(h))


def test_is_hermitian_reports_asymmetry():
    h = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]])
    flag = mat2.is_hermitian(h)
    assert flag.is_hermitian and flag.max_asymmetry <= 1e-15
    bumped = h + np.array([[0.0, 1e-6], [0.0, 0.0]])
    flag = mat2.is_hermitian(bumped)
    assert not flag.is_hermitian
    assert abs(flag.max_asymmetry - 1e-6) <= 1e-9


def test_is_psd_requires_hermitian():
    with pytest.raises(mat2.NotHermitian):
        mat2.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert mat2.is_psd(np.diag([2.0, 0.0]))
    assert not mat2.is_psd(np.diag([2.0, -1.0]))


def test_sqrt_psd_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        h = hermitian(rng, rng.uniform(0.05, 4.0))
        m = h @ h
        r = mat2.sqrt_psd(m)
        assert mat2.is_hermitian(r).is_hermitian
        assert mat2.is_psd(r)
        assert mat2.norm_max(r @ r - m) <= 1e-10 * (1.0 + mat2.norm_max(m))


def test_sqrt_psd_degenerate_shapes():
    assert mat2.norm_max(mat2.sqrt_psd(np.zeros((2, 2)))) == 0.0
    assert mat2.norm_max(mat2.sqrt_psd(np.diag([0.0, 4.0])) - np.diag([0.0, 2.0])) <= 1e-12
    v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    m = 3.0 * np.outer(v, v.conj())  # rank one, eigenvalues {0, 3}
    r = mat2.sqrt_psd(m)
    assert mat2.norm_max(r @ r - m) <= 1e-10 * (1.0 + mat2.norm_max(m))
    lo, _ = mat2.herm_eigvals(r)
    assert abs(lo) <= 1e-10  # the zero eigenvalue stays put


def test_sqrt_psd_rejections():
    with pytest.raises(mat2.NotPSD):
        mat2.sqrt_psd(np.diag([1.0, -1.0]))
    with pytest.raises(mat2.NotHermitian):
        mat2.sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_root_matches_eigh_and_numpy_pseudo_inverse():
    # S and S^+ of the one eigendecomposition against np.linalg.eigh and
    # np.linalg.pinv, for B of rank 2 (close eigenvalues too), 1 and 0
    rng = np.random.default_rng(19)
    for rank in (2, 1, 0):
        for k in range(100):
            b = _psd_of_rank(rng, rank) * rng.uniform(0.1, 10.0)
            if rank == 2 and k % 4 == 0:
                b = 1e-5 * b + np.eye(2)
            root, pinv, deriv = (
                np.reshape(m, (2, 2)) for m in mat2._psd_root(b.ravel().tolist(), (0j, 0j, 0j, 0j))
            )
            want = eigh_sqrt(b)
            assert mat2.norm_max(root - want) <= 1e-12 * (1.0 + mat2.norm_max(want)), (rank, k)
            want = np.linalg.pinv(want, rcond=1e-8)
            assert mat2.norm_max(pinv - want) <= 1e-12 * (1.0 + mat2.norm_max(want)), (rank, k)
            assert mat2.norm_max(deriv) == 0.0


def _sqrt_derivative(b, db):
    """S' of _psd_root for S = sqrt B, as an array."""
    be, de = (np.asarray(m, dtype=complex).ravel().tolist() for m in (b, db))
    return np.reshape(mat2._psd_root(be, de)[2], (2, 2))


def test_sqrt_derivative_matches_kronecker_least_squares():
    # S' against the SVD solve of (I kron S + S^T kron I) vec S' = vec B',
    # for S of rank 2 (close eigenvalues too), rank 1 and 0, with B'
    # vanishing on the kernel of S where S is singular
    rng = np.random.default_rng(17)
    for rank in (2, 1, 0):
        for k in range(100):
            g = _psd_of_rank(rng, rank) * rng.uniform(0.1, 10.0)
            if rank == 2 and k % 4 == 0:
                g = 1e-5 * g + np.eye(2)  # eigenvalues about 1e-5 apart
            s = mat2.sqrt_psd(g)
            db = hermitian(rng, rng.uniform(0.1, 10.0))
            if rank < 2:
                keep = g / np.trace(g).real if rank else np.zeros((2, 2))  # onto the range
                db = db @ keep + keep @ db - keep @ db @ keep  # zero on the kernel
            got = _sqrt_derivative(g, db)
            want = lstsq_sqrt_derivative(s, db)
            scale = 1.0 + mat2.norm_max(want)
            assert mat2.norm_max(got - want) <= 1e-10 * scale, (rank, k)
            assert mat2.norm_max(s @ got + got @ s - db) <= 1e-10 * (1.0 + mat2.norm_max(db))


def test_sqrt_derivative_rejects_derivative_on_the_kernel():
    # sqrt of diag(t, 1) at t = 0, and of t I at t = 0
    with pytest.raises(mat2.NotDifferentiable):
        _sqrt_derivative(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    with pytest.raises(mat2.NotDifferentiable):
        _sqrt_derivative(np.zeros((2, 2)), np.eye(2))
    # a B' on the range alone differentiates, with S'_22 = 0 on the kernel
    got = _sqrt_derivative(np.diag([0.0, 4.0]), np.array([[0.0, 1.0], [1.0, 3.0]]))
    assert mat2.norm_max(got - np.array([[0.0, 0.5], [0.5, 0.75]])) <= 1e-15


def test_pinv_scales_entries_before_squaring():
    # |x|^2 underflows to 0 below entries of about 1e-162, and the
    # Frobenius norm with it: X^+ came back as the zero matrix
    tiny = 1e-170
    got = mat2._pinv((tiny, 0, 0, 0))
    assert got[1:] == (0, 0, 0) and abs(got[0] * tiny - 1.0) <= 1e-15
    for x, want in (
        ((1.0, 2.0, 3.0, 4.0), (-2.0, 1.0, 1.5, -0.5)),  # rank 2: the adjugate
        ((1.0, 1.0, 1.0, 1.0), (0.25, 0.25, 0.25, 0.25)),  # rank 1: X* / |X|_F^2
    ):
        got = mat2._pinv(tuple(tiny * v for v in x))
        assert max(abs(g * tiny - w) for g, w in zip(got, want)) <= 1e-15, x
    f, res = mat2.solve_sandwich(np.eye(2), np.diag([tiny, 0.0]))
    assert mat2.norm_max(f - np.diag([1.0, 0.0])) <= 1e-15 and res == 0.0


def test_pinv_rank_test_survives_underflow():
    # TOL_RANK * sigma_1^2 underflows to 0 at these scales: a rank test
    # on that product sent X to the adjugate branch, to divide by det = 0
    got = mat2._pinv((1e-160, 0, 0, 0))
    assert got[1:] == (0, 0, 0) and abs(got[0] * 1e-160 - 1.0) <= 1e-3
    f, res = mat2.solve_sandwich(np.eye(2), np.diag([1e-160, 0.0]))
    assert np.all(np.isfinite(f)) and res <= 1e-3 * 1e-160  # subnormal rounding
    # at finite scale both branches are as before
    assert mat2._pinv((2.0, 0.0, 0.0, 4.0)) == (0.5, 0.0, 0.0, 0.25)
    assert mat2._pinv((1.0, 1.0, 1.0, 1.0)) == (0.25, 0.25, 0.25, 0.25)


def test_solve_sandwich_invertible_case():
    rng = np.random.default_rng(14)
    for _ in range(200):
        h = hermitian(rng, 1.0)
        s = h @ h + 0.5 * np.eye(2)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(mat2.det2(m)) < 1e-3:
            continue
        f, res = mat2.solve_sandwich(s, m)
        _, _, s_inv = det_tr_inv(s)
        assert res <= 1e-12
        assert mat2.norm_max(f - s_inv) <= 1e-10


def test_solve_sandwich_rank_deficient_min_norm():
    """With rank-one M the equation only pins F on range(M); the returned
    completion must still solve it and be no larger than the full inverse."""
    s = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    v = np.array([1.0, -1.0]) / math.sqrt(2.0)
    m = np.outer(v, v.conj())
    f, res = mat2.solve_sandwich(s, m)
    assert res <= 1e-12
    _, _, s_inv = det_tr_inv(s)
    assert np.linalg.norm(f) <= np.linalg.norm(s_inv) + 1e-12
    assert mat2.norm_max(f - s_inv) > 1e-3  # genuinely a different solution


def _psd_of_rank(rng, rank):
    g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
    return g @ g.conj().T


def _general_of_rank(rng, rank):
    u = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
    v = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
    return u @ v.conj().T


def test_solve_sandwich_matches_kronecker_least_squares():
    # the closed form S^+ M M^+ against the SVD solve of the 4x4 Kronecker
    # system, over every rank pairing of PSD S and general M
    rng = np.random.default_rng(16)
    for rank_s in (2, 1, 0):
        for rank_m in (2, 1, 0):
            for _ in range(100):
                s = _psd_of_rank(rng, rank_s) * rng.uniform(0.1, 10.0)
                m = _general_of_rank(rng, rank_m) * rng.uniform(0.1, 10.0)
                f, res = mat2.solve_sandwich(s, m)
                f_ref, res_ref = lstsq_solve_sandwich(s, m)
                assert mat2.norm_max(f - f_ref) <= 1e-10 * (1.0 + mat2.norm_max(f_ref))
                assert abs(res - res_ref) <= 1e-10 * (1.0 + mat2.norm_max(m))


def test_random_hermitian_is_hermitian():
    rng = np.random.default_rng(15)
    for scale in (0.1, 1.0, 10.0):
        h = mat2.random_hermitian(rng, scale)
        assert mat2.is_hermitian(h).is_hermitian
