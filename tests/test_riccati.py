"""Kernel conditions, free terms, envelopes, and the substituted pair flow."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamosc import coefsys, criteria, odeint, riccati
from conftest import const_scenario
from oracles import (
    GRID_PER_SUBINTERVAL,
    HypothesisViolated,
    check_partition_condition,
    comparison_oracle,
    coupling_bound_check,
    exp_weighted_integral,
    full_window_partition_search,
    subsystem_solve,
)

Z2 = np.zeros((2, 2), dtype=complex)
I2 = np.eye(2, dtype=complex)

ZERO = lambda t: 0.0
ONE = lambda t: 1.0


def _chi(s, j):
    """The free term t -> chi_j of a diagonal-B scenario."""
    return lambda t: criteria.chi_diag(*s.eval(t), j)


def _envelope(s, window, conv="minus_c12", **kw):
    """The envelope terms of a diagonal-B scenario, built as nonoscillation_envelope builds them."""
    return riccati.build_envelope_terms(criteria._diag_envelope_data(s), window, conv, **kw)


# ---------------------------------------------------------------------------
# Weighted tail integral.


def test_tail_integral_flat_weight():
    k = lambda t: (0.0, 1.0)
    assert abs(exp_weighted_integral(k, 0.0, 2.5) - 2.5) <= 1e-9
    assert abs(exp_weighted_integral(k, 1.0, 1.5) - 0.5) <= 1e-9


def test_tail_integral_zero_free_term():
    k = lambda t: (math.cos(t), 0.0)
    assert exp_weighted_integral(k, 0.0, 3.0) == 0.0


def test_tail_integral_exponential_weight():
    # g = h = 1 gives 1 - e^{-(t - xi)}
    k = lambda t: (1.0, 1.0)
    got = exp_weighted_integral(k, 0.0, 1.0)
    assert abs(got - (1.0 - math.exp(-1.0))) <= 1e-9


def test_tail_integral_domain_checks():
    k = lambda t: (0.0, 1.0)
    assert exp_weighted_integral(k, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        exp_weighted_integral(k, 1.0, 0.5)


@given(
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 2.0),
)
def test_tail_integral_constant_kernel_closed_form(gam, eta, span):
    # for constant g, h the IVP route must land on the closed form
    k = lambda t: (gam, eta)
    got = exp_weighted_integral(k, 0.0, span)
    # expm1 keeps the reference accurate when gam * span is tiny; below
    # 1e-300 (subnormal gam included) it underflows, and eta * span is
    # the closed form to within a relative 1e-300
    if abs(gam * span) < 1e-300:
        want = eta * span
    else:
        want = -eta * math.expm1(-gam * span) / gam
    assert abs(got - want) <= 1e-7 * (1.0 + abs(want))


def test_tail_integral_matches_nested_quadrature(rng):
    # the defining double integral, done the slow way, must agree
    worst = 0.0
    for _ in range(20):
        ga, gw, gp = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(0, 6)
        ha, hw, hp = rng.uniform(-2, 2), rng.uniform(0.5, 2), rng.uniform(0, 6)
        off = rng.uniform(-1, 1)
        g = lambda t, A=ga, w=gw, p=gp: A * math.sin(w * t + p)
        h = lambda t, A=ha, w=hw, p=hp, o=off: o + A * math.cos(w * t + p)
        xi = rng.uniform(0, 1)
        t = xi + rng.uniform(0.5, 2)
        via_ivp = exp_weighted_integral(lambda s: (g(s), h(s)), xi, t)
        inner = lambda tau, g=g, h=h, t=t: math.exp(-odeint.quadrature(g, (tau, t))) * h(tau)
        nested = odeint.quadrature(inner, (xi, t))
        worst = max(worst, abs(via_ivp - nested) / (1.0 + abs(nested)))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# Partition condition.


def test_partition_validation():
    with pytest.raises(ValueError):
        riccati.Partition((1.0,))
    with pytest.raises(ValueError):
        riccati.Partition((0.0, 0.0))
    with pytest.raises(ValueError):
        riccati.Partition((0.0, 2.0, 1.0))
    assert riccati.Partition((0, 1)).points == (0.0, 1.0)


def test_condition_holds_for_cosine_free_term():
    # h = -cos changes sign, so the early negative mass has to carry the
    # positive half-waves; the trivial partition still certifies [0, 2pi]
    k = lambda t: (0.0, -math.cos(t))
    ok, viol = check_partition_condition(k, riccati.Partition((0.0, 2.0 * math.pi)))
    assert ok and viol is None


def test_condition_holds_for_negative_free_term():
    k = lambda t: (2.0 * math.cos(t), -4.5 - math.cos(t) ** 2)
    ok, viol = check_partition_condition(k, riccati.Partition((0.0, 3.0, 10.0)))
    assert ok and viol is None


def test_condition_fails_immediately_for_positive_free_term():
    k = lambda t: (0.0, 1.0)
    ok, viol = check_partition_condition(k, riccati.Partition((0.0, 1.0)))
    assert not ok
    assert viol[0] == 0
    # first interior sample of the default 64-point grid
    assert abs(viol[1] - 1.0 / 64.0) <= 1e-12


def test_condition_refuses_truncated_profile():
    # strongly negative g makes the inner integral overflow around t ~ 7:
    # the flow ends early with an underflow event, not with a stop, and
    # the unreachable tail must not be certified
    k = lambda t: (-100.0, -1.0)
    ts = np.linspace(0.0, 8.0, GRID_PER_SUBINTERVAL + 1)
    bad, traj = riccati._condition_profile(k, 0.0, ts, 1e-10, 1e-12)
    assert [e.kind for e in traj.events] == ["underflow"]
    assert ts[bad - 1] <= traj.t_end < ts[bad]
    ok, viol = check_partition_condition(k, riccati.Partition((0.0, 8.0)))
    assert not ok
    assert viol[0] == 0 and 6.5 < viol[1] < 7.5
    assert viol[1] == traj.t_end
    ok_short, viol_short = check_partition_condition(k, riccati.Partition((0.0, 5.0)))
    assert ok_short and viol_short is None
    # the search restarts at the last grid point the flow reached, and
    # certifies nothing when that advance is too short
    tol = {"rtol": 1e-8, "atol": 1e-10}
    part = riccati.partition_search(k, (0.0, 8.0), 8, **tol)
    assert part.points[:2] == (0.0, 7.0703125) and part.points[-1] == 8.0
    assert riccati.partition_search(k, (0.0, 8.0), 1, **tol) is None


# ---------------------------------------------------------------------------
# Greedy partition search.


def test_search_certifies_sign_definite_free_term():
    k = lambda t: (0.0, -1.0 + 0.5 * math.sin(t))
    part = riccati.partition_search(k, (0.0, 40.0))
    assert part is not None
    assert part.points == (0.0, 40.0)


def test_search_gives_up_on_positive_free_term():
    assert riccati.partition_search(lambda t: (0.0, 1.0), (0.0, 2.0)) is None
    k = lambda t: (0.0, math.sin(t))
    assert riccati.partition_search(k, (0.0, math.pi)) is None


def _trig(rng):
    a1, a2 = rng.uniform(-1.0, 1.0, 2)
    w1, w2 = rng.uniform(0.3, 2.5, 2)
    return lambda t: a1 * math.sin(w1 * t) + a2 * math.cos(w2 * t)


def test_search_matches_full_window_reference():
    # the search stops each condition flow at its first failed sample; the
    # reference integrates every flow to the window end and samples it
    # afterwards. At the criteria's tolerances both must agree exactly.
    rng = np.random.default_rng(20190406)
    cases = []
    for _ in range(12):
        g, b, off = _trig(rng), _trig(rng), rng.uniform(-1.0, 0.3)
        h = lambda t, b=b, off=off: off + 0.5 * b(t)
        cases.append((lambda t, g=g, h=h: (g(t), h(t)), (0.0, 20.0)))
    # this flow blows up near t ~ 7.07, so the search restarts there
    cases.append((lambda t: (-100.0, -1.0), (0.0, 8.0)))
    outcomes = set()
    for k, window in cases:
        for max_points in (8, 64):
            got = riccati.partition_search(k, window, max_points, rtol=1e-8, atol=1e-10)
            want = full_window_partition_search(k, window, max_points, rtol=1e-8, atol=1e-10)
            assert got == want, (window, max_points, got, want)
            outcomes.add(0 if got is None else len(got.points))
    assert {0, 2} <= outcomes and max(outcomes) > 2


def test_search_stops_at_the_first_violated_sample():
    # the harmonic chi_3 envelope kernel violates at the first grid sample;
    # integrating on to its escape at t ~ 37 would take about 3,700 steps
    # of 7 h evaluations each
    window = (0.0, 100.0)
    s = coefsys.make_family("harmonic", {})
    env = _envelope(s, window, rtol=1e-8, atol=1e-10)
    calls = [0]

    def k(t):
        calls[0] += 1
        return env.kernel3(t)

    assert riccati.partition_search(k, window, rtol=1e-8, atol=1e-10) is None
    assert 0 < calls[0] <= 200


def test_condition_flow_reads_its_kernel_once_per_field_call(monkeypatch):
    # one k(t) -> (g, h) call per field call, over a one-flow search and
    # over one that restarts where its first flow blew up
    fev = [0]
    inner = riccati.adaptive_solve

    def solve(field, *args, **kwargs):
        def counted(t, y):
            fev[0] += 1
            return field(t, y)

        return inner(counted, *args, **kwargs)

    monkeypatch.setattr(riccati, "adaptive_solve", solve)
    cases = (
        (lambda t: (0.0, -1.0 + 0.5 * math.sin(t)), (0.0, 40.0), 2),
        (lambda t: (-100.0, -1.0), (0.0, 8.0), 3),
    )
    for kernel, window, n_points in cases:
        fev[0] = 0
        reads = [0]

        def k(t, kernel=kernel):
            reads[0] += 1
            return kernel(t)

        part = riccati.partition_search(k, window, 8, rtol=1e-8, atol=1e-10)
        assert len(part.points) == n_points
        assert reads[0] == fev[0] > 0


def test_search_window_validation():
    with pytest.raises(ValueError):
        riccati.partition_search(lambda t: (0.0, 1.0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# Scalar comparison oracle.


def test_oracle_accepts_identical_flows():
    assert comparison_oracle(ONE, ZERO, lambda t: -1.0, lambda t: -1.0, 0.0, 0.0, (0.0, 3.0))


def test_oracle_accepts_dominated_free_term():
    got = comparison_oracle(
        ONE, lambda t: 0.1 * math.cos(t), lambda t: -1.0, lambda t: -0.5, 0.0, 0.0, (0.0, 2.0)
    )
    assert got


def test_oracle_accepts_reference_escape():
    # the reference flow dives to -inf near pi/2 while the dominated one
    # follows tanh; existence transfer only runs up to the escape
    got = comparison_oracle(ONE, ZERO, lambda t: -1.0, ONE, 0.0, 0.0, (0.0, 3.0))
    assert got


def test_oracle_hypothesis_checks():
    with pytest.raises(HypothesisViolated) as e:
        comparison_oracle(ONE, ZERO, ZERO, lambda t: -1.0, 0.0, 0.0, (0.0, 1.0))
    assert e.value.which == "h <= h1"
    with pytest.raises(HypothesisViolated) as e:
        comparison_oracle(lambda t: -1.0, ZERO, lambda t: -1.0, lambda t: -1.0, 0.0, 0.0, (0.0, 1.0))
    assert e.value.which == "f >= 0"
    with pytest.raises(HypothesisViolated) as e:
        comparison_oracle(ONE, ZERO, lambda t: -1.0, lambda t: -1.0, 1.0, 0.0, (0.0, 1.0))
    assert e.value.which == "y(t0) >= y1(t0)"


# ---------------------------------------------------------------------------
# Diagonal free terms.


def test_free_term_tracks_potential():
    # A = 0, B = I: the first free term is minus the (1,1) potential entry
    s = coefsys.make_family("vector_schrodinger", {})
    chi1 = _chi(s, 1)
    chi2 = _chi(s, 2)
    for t in (0.0, 0.7, 2.0, 5.3):
        mu = math.sin(t) + math.sin(math.sqrt(2.0) * t)
        assert abs(chi1(t) - mu) <= 1e-12 * (1.0 + abs(mu))
        assert abs(chi2(t) + t * t) <= 1e-12 * (1.0 + t * t)


def test_free_term_zero_coefficients():
    s = const_scenario(Z2, I2, Z2, name="flat")
    assert _chi(s, 1)(0.3) == 0.0
    assert _chi(s, 2)(1.7) == 0.0


def test_free_term_coupling_penalty():
    a = Z2.copy()
    a[1, 0] = 2.0
    c = Z2.copy()
    c[0, 0] = 1.0
    s = const_scenario(a, np.diag([1.0, 2.0]), c, name="mixed")
    chi1 = _chi(s, 1)
    assert abs(chi1(0.5) - (-3.0)) <= 1e-12


def test_free_term_zero_branch():
    a = Z2.copy()
    a[1, 0] = 5.0
    s = const_scenario(a, np.diag([1.0, 0.0]), np.diag([2.0, 0.0]).astype(complex), name="bzero")
    chi1 = _chi(s, 1)
    # the coupling penalty is dropped on the degenerate branch
    assert chi1(0.4) == -2.0


# ---------------------------------------------------------------------------
# Coupling envelope.


def _ratio_test_scenario():
    # a12 = t against unit B, so r1 = t exactly
    def ev(t):
        a = np.array([[0.0, t], [0.5j, 0.0]], dtype=complex)
        return a, I2.copy(), np.zeros((2, 2), complex)

    def dv(t):
        da = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        z = np.zeros((2, 2), complex)
        return da, z, z

    return coefsys.Scenario(
        name="ratio_probe",
        t0=0.0,
        eval=ev,
        analytic_derivatives=dv,
    )


def test_diag_envelope_ratios_linear_coupling():
    data = criteria._diag_envelope_data(_ratio_test_scenario())
    vals = data.values(2.0)
    _, r1, r2 = vals[:3]
    dr1, dr2 = data.slopes(2.0, vals)
    assert abs(r1 - 2.0) <= 1e-14
    assert abs(dr1 - 1.0) <= 1e-8
    assert abs(r2 - (-0.5j)) <= 1e-14  # conj(a21)/b2
    assert abs(dr2) <= 1e-8


def test_fd_slopes_read_values_twice_per_call():
    # both ratios difference one read on each side of t; at a domain end
    # the v handed in stands for the read at t, and the second-order
    # one-sided stencil keeps the slopes on the exact derivatives
    reads = []

    def values(t):
        reads.append(t)
        return (0.0, complex(math.sin(t), t * t), complex(math.exp(-t), math.cos(t)))

    def exact(t):
        return complex(math.cos(t), 2.0 * t), complex(-math.exp(-t), -math.sin(t))

    lo, hi = 0.0, 10.0
    slopes = riccati.fd_slopes(values, lo, hi)
    for t in (lo, 3.0, hi):
        v = values(t)
        del reads[:]
        got = slopes(t, v)
        assert len(reads) == 2 and t not in reads
        for g, want in zip(got, exact(t)):
            assert abs(g - want) <= 1e-7 * (1.0 + abs(want)), (t, g, want)


def test_diag_envelope_zero_diagonal_entry():
    s = const_scenario(np.ones((2, 2)), np.diag([1.0, 0.0]), np.zeros((2, 2)))
    data = criteria._diag_envelope_data(s)
    with pytest.raises(coefsys.ZeroDiagonalB) as exc:
        data.values(5.0)
    assert exc.value.t == 5.0 and exc.value.j == 2


def test_chi_terms_read_the_envelope_flow_once(monkeypatch):
    a = np.array([[0.0, 0.3], [0.2j, 0.0]], dtype=complex)
    c = np.array([[1.0, 0.1], [0.1, 2.0]], dtype=complex)
    env = _envelope(const_scenario(a, I2, c, name="chiread"), (0.0, 2.0))
    reads = []
    inner = odeint.Trajectory.dense_eval

    def dense_eval(self, t):
        reads.append(t)
        return inner(self, t)

    monkeypatch.setattr(odeint.Trajectory, "dense_eval", dense_eval)
    for kernel in (env.kernel3, env.kernel4):
        reads.clear()
        kernel(1.3)
        assert len(reads) == 1


def test_envelope_without_coupling_is_potential_only():
    s = const_scenario(Z2, I2, np.diag([1.5, -0.5]).astype(complex), name="plaindiag")
    for conv in ("minus_c12", "plus_c12"):
        env = _envelope(s, (0.0, 2.0), conv)
        assert abs(env.kernel3(0.8)[1] + 1.5) <= 1e-10
        assert abs(env.kernel4(1.3)[1] - 0.5) <= 1e-10
        assert env.m_peak(1.0) == 0.0
        assert env.e_y(2.0) <= 1e-12
    with pytest.raises(ValueError):
        riccati.build_envelope_terms(None, (0.0, 2.0), "bogus")


def test_envelope_integrates_offdiagonal_drive():
    # A = 0, B = I, |c12| = 10: the drive envelope is exactly 10 t and
    # the quadratic free term follows (10 t)^2 + mu(t) for both signs
    s = coefsys.make_family("vector_schrodinger", {})
    for conv in ("minus_c12", "plus_c12"):
        env = _envelope(s, (0.0, 1.0), conv)
        for t in (0.0, 0.25, 0.5, 0.9):
            mu = math.sin(t) + math.sin(math.sqrt(2.0) * t)
            want = (10.0 * t) ** 2 + mu
            assert abs(env.kernel3(t)[1] - want) <= 1e-8 * (1.0 + abs(want))


def test_gap_peak_constant_coupling():
    a = Z2.copy()
    a[0, 1] = 1.0
    s = const_scenario(a, I2, Z2, name="gap1")
    peak = _envelope(s, (0.0, 2.0)).m_peak
    assert abs(peak(0.5) - 1.0) <= 1e-12
    assert abs(peak(2.0) - 1.0) <= 1e-12


def test_gap_peak_no_coupling():
    s = const_scenario(Z2, I2, np.diag([1.0, 2.0]).astype(complex), name="nocouple")
    assert _envelope(s, (0.0, 2.0)).m_peak(1.7) == 0.0


def test_gap_peak_grows_against_damping():
    # trace Re(a11* + a22) = -1 weights old gaps by e^{t - tau}; with a
    # constant unit gap the running maximum is e^t
    a = np.array([[-0.5, 1.0], [0.0, -0.5]], dtype=complex)
    s = const_scenario(a, I2, Z2, name="growgap")
    env = _envelope(s, (0.0, 1.0))
    assert abs(env.m_peak(1.0) - math.e) <= 1e-8
    # each kernel's weight is 2 Re a_jj
    assert env.kernel3(0.5)[0] == env.kernel4(0.5)[0] == -1.0


# ---------------------------------------------------------------------------
# Substituted pair flow.


def test_pair_flow_decoupled_diagonal():
    # A = C = 0, B = I: z' = -z^2 from 1 is 1/(1+t) and the drives stay 0
    s = const_scenario(Z2, I2, Z2, name="flat")
    traj, rec = subsystem_solve(s, "first", (1.0, 0.0), (0.0, 3.0))
    assert rec is None
    assert abs(traj.dense_eval(1.0)[0] - 0.5) <= 1e-8
    assert abs(traj.dense_eval(3.0)[0] - 0.25) <= 1e-8
    assert float(np.max(np.abs(traj.states[:, 1:]))) <= 1e-10
    other, _ = subsystem_solve(s, "second", (1.0, 0.0), (0.0, 3.0))
    assert abs(other.dense_eval(1.0)[0] - 0.5) <= 1e-8


def test_pair_flow_zero_stays_zero():
    s = const_scenario(Z2, I2, Z2, name="flat")
    traj, rec = subsystem_solve(s, "first", (0.0, 0.0), (0.0, 2.0))
    assert rec is None
    assert float(np.max(np.abs(traj.states))) == 0.0


def test_pair_flow_reports_escape():
    # strongly negative potential drives z to -inf in finite time
    s = const_scenario(Z2, I2, np.diag([-5.0, -5.0]).astype(complex), name="sink")
    traj, rec = subsystem_solve(s, "first", (1.0, 0.0), (0.0, 2.0))
    assert rec is not None
    assert 0.5 < rec.escape_time < 1.2
    assert rec.last_norm >= 1e6
    assert traj.t_end < 2.0


def test_pair_flow_which_validation():
    s = const_scenario(Z2, I2, Z2)
    with pytest.raises(ValueError):
        subsystem_solve(s, "third", (1.0, 0.0), (0.0, 1.0))


# ---------------------------------------------------------------------------
# Coupling bound cross-check.


def test_coupling_bound_holds_on_tame_scenario():
    a = np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex)
    c = np.array([[1.0, 0.1], [0.1, 1.0]], dtype=complex)
    s = const_scenario(a, I2, c, name="bounded")
    assert coupling_bound_check(s, (0.0, 2.0))


def test_coupling_bound_rejects_negative_diagonal():
    s = const_scenario(Z2, I2, np.diag([-5.0, -5.0]).astype(complex), name="sink")
    with pytest.raises(HypothesisViolated) as e:
        coupling_bound_check(s, (0.0, 2.0))
    assert e.value.which == "z >= 0"
    with pytest.raises(ValueError):
        coupling_bound_check(s, (0.0, 1.0), z0=-0.5)
