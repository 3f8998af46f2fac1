"""Integrator, quadrature, and zero-detection tests against closed forms."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hamosc import coefsys, criteria, mat2, odeint
from conftest import const_scenario, hermitian
from oracles import phi_psi_at, riccati_z_at, window_grid_det_zeros

I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)
DRAWS = Path(__file__).resolve().parent.parent / "bench" / "draws.py"


# ---------------------------------------------------------------------------
# Adaptive stepping.


def test_zero_field_is_exact():
    traj = odeint.adaptive_solve(lambda t, y: np.zeros_like(y), [3.0, -1.0], (0.0, 5.0))
    assert float(np.max(np.abs(traj.states - np.array([3.0, -1.0])))) == 0.0
    st = traj.dense_eval(2.345)
    assert st[0] == 3.0 and st[1] == -1.0


def test_exponential_growth():
    traj = odeint.adaptive_solve(
        lambda t, y: y, [1.0], (0.0, 1.0), rtol=1e-10, atol=1e-12
    )
    assert abs(float(traj.states[-1, 0]) - math.e) <= 1e-8


def test_circular_motion_full_revolution():
    def field(t, y):
        return np.array([y[1], -y[0]])

    traj = odeint.adaptive_solve(field, [1.0, 0.0], (0.0, 2.0 * math.pi))
    assert abs(float(traj.states[-1, 0]) - 1.0) <= 1e-7
    assert abs(float(traj.states[-1, 1])) <= 1e-7


def test_tolerance_scaling():
    # the controller must actually respond to rtol: a 10^4-fold loosening
    # has to cost well over one order of magnitude of endpoint accuracy
    def field(t, y):
        return y

    def end_error(rtol):
        traj = odeint.adaptive_solve(field, [1.0], (0.0, 1.0), rtol=rtol, atol=1e-14)
        return abs(float(traj.states[-1, 0]) - math.e)

    assert end_error(1e-6) >= 8.0 * end_error(1e-10)


def test_dense_output_matches_nodes():
    traj = odeint.adaptive_solve(lambda t, y: y, [1.0], (0.0, 1.0))
    vals = traj.dense_eval(traj.times)
    assert float(np.max(np.abs(vals - traj.states))) <= 1e-12
    with pytest.raises(ValueError):
        traj.dense_eval(1.5)


def test_stop_hook_ends_the_flow_on_the_full_run_prefix():
    def field(t, y):
        return np.array([y[1], -y[0]])

    full = odeint.adaptive_solve(field, [1.0, 0.0], (0.0, 10.0))
    seen = []

    def stop(t, h, y, q, until):
        seen.append(until == t + h)
        states = odeint.segment_states(t, h, y, q, np.array([t, t + 0.5 * h]))
        assert np.array_equal(states, full.dense_eval(np.array([t, t + 0.5 * h])))
        return t + h > 4.0

    part = odeint.adaptive_solve(field, [1.0, 0.0], (0.0, 10.0), stop=stop)
    n = len(part.times)
    assert [e.kind for e in part.events] == ["stop"]
    assert part.events[0].time == part.t_end and part.t_end > 4.0 >= part.times[-2]
    # stopping changes nothing before the stop: same nodes, same states
    assert np.array_equal(part.times, full.times[:n])
    assert np.array_equal(part.states, full.states[:n])
    assert all(seen)

    untils = []
    odeint.adaptive_solve(field, [1.0, 0.0], (0.0, 10.0), stop=lambda *a: untils.append(a[4]))
    assert untils[-1] == math.inf and untils[:-1] == list(full.times[1:-1])

    # the partial step of an escape is shown up to the crossing; it ends
    # the flow as an escape, not a stop
    untils = []

    def stop_all(t, h, y, q, until):
        untils.append(until)
        return until < t + h

    grown = odeint.adaptive_solve(lambda t, y: y, [1.0], (0.0, 5.0), escape_norm=10.0, stop=stop_all)
    assert [e.kind for e in grown.events] == ["escape"]
    assert untils[-1] == grown.t_end and abs(grown.t_end - math.log(10.0)) < 1e-6


def test_post_step_that_keeps_the_state_costs_no_field_call():
    calls = [0]

    def field(t, y):
        calls[0] += 1
        return np.array([y[1], -y[0]])

    def run(**hook):
        calls[0] = 0
        traj = odeint.adaptive_solve(field, [1.0, 0.0], (0.0, 10.0), **hook)
        return traj, calls[0]

    bare, n_bare = run()
    kept, n_kept = run(post_step=lambda t, y: y)
    assert n_kept == n_bare
    assert np.array_equal(kept.times, bare.times) and np.array_equal(kept.states, bare.states)

    # a new array, even an equal one, is a new state: f is taken there
    # again once per accepted step
    copied, n_copied = run(post_step=lambda t, y: y.copy())
    assert np.array_equal(copied.times, bare.times)
    assert n_copied == n_bare + len(bare.times) - 1


def test_step_underflow_reported():
    # 1 + y^2 escapes in finite time; without an escape guard the
    # controller must give up rather than loop forever
    def field(t, y):
        return 1.0 + y * y

    with pytest.raises(odeint.StepUnderflow):
        odeint.adaptive_solve(field, [0.0], (0.0, 3.0))


@pytest.mark.parametrize("bad", [None, math.inf, math.nan])
def test_stage_finite_check_is_exact(bad):
    # the squares of 1e300 overflow, so a finite check through dot(f, f)
    # or a sum of squares would reject the all-finite field as well
    f = np.full(4, 1e300)
    if bad is not None:
        f[2] = bad
    traj = odeint.adaptive_solve(lambda t, y: f, np.zeros(4), (0.0, 1.0), underflow="event")
    stats = traj.meta["stats"]
    if bad is None:
        assert not traj.events and abs(traj.t_end - 1.0) <= 1e-14
        assert np.max(np.abs(traj.states[-1] / 1e300 - 1.0)) <= 1e-12
    else:
        assert [e.kind for e in traj.events] == ["underflow"]
        assert traj.events[0].detail == {"reason": "non-finite"}
        assert len(traj.times) == 1 and stats["n_accept"] == 0
        # every attempt ends at its first stage: one field call each
        assert stats["nfev"] == 2 + stats["n_reject"]


@pytest.mark.parametrize("copy_hook", [False, True])
def test_solver_stats_count_the_flow(copy_hook):
    # y' = 0 before t = 1 and 1 after: y = max(0, t - 1), and the jump
    # makes the controller reject steps
    calls = [0]

    def field(t, y):
        calls[0] += 1
        return np.array([0.0 if t < 1.0 else 1.0])

    hook = {"post_step": lambda t, y: y.copy()} if copy_hook else {}
    traj = odeint.adaptive_solve(field, [0.0], (0.0, 3.0), **hook)
    stats = traj.meta["stats"]
    assert abs(traj.states[-1, 0] - 2.0) <= 1e-9
    assert stats["nfev"] == calls[0]
    assert stats["n_accept"] == len(traj.times) - 1
    assert stats["n_reject"] > 0
    # no stage went non-finite, so every attempt made six stage calls, and
    # a hook that returns a new array costs one more call per accepted step
    per_accept = 1 if copy_hook else 0
    assert calls[0] == 2 + 6 * (stats["n_accept"] + stats["n_reject"]) + per_accept * stats["n_accept"]
    steps = np.diff(traj.times)
    assert stats["h_min"] == pytest.approx(steps.min(), rel=1e-9)
    assert stats["h_max"] == pytest.approx(steps.max(), rel=1e-12)
    assert stats["wall_s"] >= 0.0


def test_flow_keeps_overflow_warnings_off_and_restores_the_error_state():
    before = np.geterr()
    seen = []

    def field(t, y):
        seen.append(np.geterr())
        return y

    def hook(t, y):
        seen.append(np.geterr())
        return y

    odeint.adaptive_solve(field, [1.0], (0.0, 1.0), post_step=hook)
    assert np.geterr() == before
    assert seen and all(s["over"] == s["invalid"] == "ignore" for s in seen)
    assert all(s["divide"] == before["divide"] for s in seen)

    with pytest.raises(odeint.StepUnderflow):
        odeint.adaptive_solve(lambda t, y: np.array([np.inf]), [0.0], (0.0, 1.0))
    assert np.geterr() == before

    drifting = const_scenario(Z2, I2, -I2 + 1e-8 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(odeint.ConjoinedDrift):
        odeint.solve_hamiltonian_frame(drifting, I2, Z2, (0.0, 10.0))
    assert np.geterr() == before


# ---------------------------------------------------------------------------
# Magnus propagator of the real 2x2 flow.


def _wavy_m(t):
    return (
        0.3 * math.sin(1.3 * t),
        1.0 + 0.4 * math.cos(0.7 * t),
        -(1.5 + 0.5 * math.sin(2.1 * t)),
        0.2 * math.cos(t),
    )


def test_magnus_exponents_are_sixth_and_fourth_order():
    # one step from t = 0.3 against a tight DP5 flow: halving h divides the
    # local error of exp(Omega6) by about 2^7 and of exp(Omega4) by 2^5
    def field(t, y):
        m11, m12, m21, m22 = _wavy_m(t)
        return np.array(
            [m11 * y[0] + m12 * y[1], m21 * y[0] + m22 * y[1],
             m11 * y[2] + m12 * y[3], m21 * y[2] + m22 * y[3]]
        )

    errs = []
    for h in (0.4, 0.2, 0.1):
        ref = odeint.adaptive_solve(field, [1.0, 0.0, 0.0, 1.0], (0.3, 0.3 + h), 1e-13, 1e-15).states[-1]
        want = ref[[0, 2, 1, 3]]  # row-major Y from its columns
        o6 = odeint._omega6(*odeint._gauss_reads(_wavy_m, 0.3, h), h)
        o4 = odeint._omega4(_wavy_m(0.3), _wavy_m(0.3 + 0.5 * h), _wavy_m(0.3 + h), h)
        errs.append([np.abs(np.array(odeint._expm2(*o)) - want).max() for o in (o6, o4)])
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse[0] / fine[0] > 2.0**6
        assert coarse[1] / fine[1] > 2.0**4


def test_magnus_flow_is_exact_for_constant_m_within_the_turn_cap():
    # phi'' + phi = 0: exact steps, each turning by at most pi / 2
    flow = odeint.magnus_flow(lambda t: (0.0, 1.0, -1.0, 0.0), (0.0, 100.0), 1e-8, 1e-10)
    stats = flow.stats
    assert stats["n_accept"] == len(flow.times) - 1 <= 100
    assert stats["reads"] == 1 + 4 * (stats["n_accept"] + stats["n_reject"])
    assert stats["wall_s"] >= 0.0
    assert flow.times[0] == 0.0 and abs(flow.times[-1] - 100.0) <= 1e-12
    assert np.diff(flow.times).max() <= math.pi / 2.0
    t = flow.times
    want = np.stack([np.cos(t), -np.sin(t), np.sin(t), np.cos(t)], axis=1)
    assert np.abs(flow.states - want).max() <= 1e-12
    # between nodes, the propagator from the step's node
    for tq in (0.05, 37.3, 99.99):
        got = flow.state_at(tq)
        assert max(abs(a - b) for a, b in zip(got, (math.cos(tq), -math.sin(tq), math.sin(tq), math.cos(tq)))) <= 1e-12


def test_magnus_flow_rejects_overflow_and_rescales():
    # phi = e^(800 t) and psi = 1: exp(Omega) overflows for h > 0.89, which
    # rejects and halves the step, and the first column is rescaled after
    # every accepted step. The second eigenvalue, 0, is kept exactly
    # beside the first, e^(800 h)
    flow = odeint.magnus_flow(lambda t: (800.0, 0.0, 0.0, 0.0), (0.0, 10.0), 1e-8, 1e-10)
    assert flow.stats["n_reject"] > 0
    assert abs(flow.times[-1] - 10.0) <= 1e-12
    assert np.all(np.isfinite(flow.states))
    assert np.abs(flow.states).max() <= odeint._RENORM_LIMIT
    assert np.abs(flow.states[-1] - [1.0, 0.0, 0.0, 1.0]).max() <= 1e-12


def test_magnus_exponential_keeps_a_decaying_eigenvalue():
    # diag(-40, 0): cosh 20 - sinh 20 = e^-20 would cancel to rounding
    for m, want in (((-40.0, 0.0, 0.0, 0.0), (math.exp(-40.0), 1.0)),
                    ((0.0, 0.0, 0.0, -40.0), (1.0, math.exp(-40.0)))):
        tau = 0.5 * (m[0] + m[3])
        e11, e12, e21, e22 = odeint._expm2(tau, 0.5 * (m[0] - m[3]), m[1], m[2])
        assert e12 == e21 == 0.0
        assert abs(e11 / want[0] - 1.0) <= 1e-14 and abs(e22 / want[1] - 1.0) <= 1e-14
    # and a non-normal one: [[-21, 1], [0, 19]] = V diag(-21, 19) V^-1
    e = np.array(odeint._expm2(-1.0, -20.0, 1.0, 0.0)).reshape(2, 2)
    v = np.array([[1.0, 1.0], [0.0, 40.0]])
    want = v @ np.diag([math.exp(-21.0), math.exp(19.0)]) @ np.linalg.inv(v)
    assert np.abs(e - want).max() <= 1e-14 * np.abs(want).max()
    assert abs(e[0, 0] / math.exp(-21.0) - 1.0) <= 1e-13


def test_magnus_flow_underflows_on_non_finite_coefficients():
    # a NaN read is a non-finite state: the step halves until it underflows
    def coeffs(t):
        return (0.0, 1.0, -1.0 if t < 1.0 else math.nan, 0.0)

    with pytest.raises(odeint.StepUnderflow) as info:
        odeint.magnus_flow(coeffs, (0.0, 3.0), 1e-8, 1e-10)
    assert info.value.t < 1.5
    assert np.all(np.isfinite(info.value.state))


# ---------------------------------------------------------------------------
# Quadrature.


def test_quadrature_closed_forms():
    assert abs(odeint.quadrature(lambda t: 1.0, (0.0, 1.0)) - 1.0) <= 1e-14
    assert abs(odeint.quadrature(math.sin, (0.0, math.pi)) - 2.0) <= 1e-12
    assert abs(odeint.quadrature(lambda t: 1.0 / t, (1.0, 2.0)) - math.log(2.0)) <= 1e-12
    assert odeint.quadrature(math.sin, (1.0, 1.0)) == 0.0
    # orientation flips the sign
    assert abs(odeint.quadrature(math.sin, (math.pi, 0.0)) + 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# Matrix pair flow.


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(31)
    phi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p2, s2 = odeint.unpack_pair(odeint.pack_pair(phi, psi))
    assert np.array_equal(p2, phi) and np.array_equal(s2, psi)


def test_harmonic_pair_flow():
    s = coefsys.make_family("harmonic", {})
    traj = odeint.solve_hamiltonian(s, I2, Z2, (0.0, 10.0))
    for t in (2.5, 10.0):
        phi, psi = phi_psi_at(traj, t)
        assert mat2.norm_max(phi - math.cos(t) * I2) <= 1e-7
        assert mat2.norm_max(psi + math.sin(t) * I2) <= 1e-7
    assert traj.meta["kind"] == "hamiltonian"
    assert traj.meta["initial_defect"] == 0.0
    assert float(np.max(traj.meta["defects"])) <= 1e-8


def test_non_conjoined_start_rejected():
    s = coefsys.make_family("harmonic", {})
    with pytest.raises(odeint.ConjoinedDrift):
        odeint.solve_hamiltonian(s, I2, 1j * I2, (0.0, 1.0))


def test_pure_drift_exponential():
    s = const_scenario(np.eye(2), Z2, Z2)
    traj = odeint.solve_hamiltonian(s, I2, Z2, (0.0, 1.0))
    phi, psi = phi_psi_at(traj, 1.0)
    assert mat2.norm_max(phi - math.e * I2) <= 1e-7
    assert mat2.norm_max(psi) == 0.0


def test_liouville_identity():
    # stacking two conjoined solutions gives a fundamental 4x4 solution;
    # its determinant evolves by exp(integral of tr A - tr A*)
    rng = np.random.default_rng(32)
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.4
    s = const_scenario(a, hermitian(rng, 0.5), hermitian(rng, 0.5))
    t1 = odeint.solve_hamiltonian(s, I2, Z2, (0.0, 2.0))
    t2 = odeint.solve_hamiltonian(s, Z2, I2, (0.0, 2.0))
    trace_rate = complex(np.trace(a) - np.conj(np.trace(a)))
    for t in np.linspace(0.0, 2.0, 9):
        p1, q1 = phi_psi_at(t1, float(t))
        p2, q2 = phi_psi_at(t2, float(t))
        x = np.block([[p1, p2], [q1, q2]])
        expected = np.exp(trace_rate * t)
        scale = float(np.max(np.abs(x))) ** 4 + 1.0
        assert abs(np.linalg.det(x) - expected) <= 1e-6 * scale


def test_frame_solver_matches_plain_on_moderate_window():
    s = coefsys.make_family("harmonic", {})
    plain = odeint.solve_hamiltonian(s, I2, Z2, (0.0, 10.0))
    frame = odeint.solve_hamiltonian_frame(s, I2, Z2, (0.0, 10.0))
    zp = odeint.detect_det_zeros(plain)
    zf = odeint.detect_det_zeros(frame)
    assert len(zp) == len(zf) == 3
    for a, b in zip(zp, zf):
        assert abs(a.time - b.time) <= 1e-6


def test_det_phi_restores_the_frame_scale():
    # Euler growth makes the frame scale matter; the window end is read
    # from the last step's state before its renormalization
    s = coefsys.make_family("euler", {"c": 2.5})
    plain = odeint.solve_hamiltonian(s, I2, Z2, (1.0, 100.0))
    frame = odeint.solve_hamiltonian_frame(s, I2, Z2, (1.0, 100.0))
    ts = np.concatenate([np.linspace(1.0, 100.0, 40), frame.times[-3:]])
    det, log_scale = odeint.det_phi(frame, ts)
    expected, zero = odeint.det_phi(plain, ts)
    assert not np.any(zero)
    assert np.max(np.abs(det * np.exp(log_scale) - expected) / (1.0 + np.abs(expected))) <= 1e-6


def test_pair_field_is_the_block_hamiltonian_product():
    # every packaged scenario has real coefficients, so a dropped conjugate
    # in the -A* block only shows with a complex, non-Hermitian A
    rng = np.random.default_rng(33)

    def cplx():
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    a0, a1 = cplx(), cplx()
    b0, b1, c0, c1 = (hermitian(rng) for _ in range(4))
    reads = []

    def coeffs(t):
        reads.append(t)
        return a0 + math.sin(t) * a1, b0 + math.cos(t) * b1, c0 + t * c1

    def derivs(t):
        return math.cos(t) * a1, -math.sin(t) * b1, c1

    s = coefsys.Scenario(name="complex_a", t0=0.0, eval=coeffs, analytic_derivatives=derivs)
    field = odeint._hamiltonian_field(s)
    for t in (0.0, 0.7, 2.5, 11.0):
        phi, psi = cplx(), cplx()
        a, b, c = coeffs(t)
        expected = np.block([[a, b], [c, -a.conj().T]]) @ np.vstack([phi, psi])
        del reads[:]
        dphi, dpsi = odeint.unpack_pair(field(t, odeint.pack_pair(phi, psi)))
        assert reads == [t]
        got = np.vstack([dphi, dpsi])
        assert np.max(np.abs(got - expected)) <= 1e-14 * (1.0 + np.max(np.abs(expected)))


@pytest.mark.parametrize("solve", [odeint.solve_hamiltonian, odeint.solve_hamiltonian_frame])
def test_conjoined_drift_raises_mid_flow(solve):
    # with a non-Hermitian C the defect of Phi* Psi grows like the integral
    # of Phi* (C - C*) Phi; from the conjoined start (I, 0) of this
    # oscillator it crosses CONJ_TOL * (1 + |Phi| |Psi|) well inside the window
    delta = 1e-8
    s = const_scenario(Z2, I2, -I2 + delta * np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(odeint.ConjoinedDrift) as exc:
        solve(s, I2, Z2, (0.0, 10.0))
    assert "defect bound exceeded" in str(exc.value)
    assert 1.0 < exc.value.t < 10.0
    assert exc.value.defect > odeint.CONJ_TOL
    # the defect is delta * (t/2 + sin(2t)/4) to first order in delta
    t = exc.value.t
    expected = delta * (t / 2.0 + math.sin(2.0 * t) / 4.0)
    assert abs(exc.value.defect - expected) <= 1e-6 * exc.value.defect


def test_qr_columns_contract():
    rng = np.random.default_rng(34)
    for _ in range(20):
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        x *= 10.0 ** rng.uniform(-3, 3)
        q, log_det_r = odeint._qr_columns(x)
        assert np.max(np.abs(q.conj().T @ q - np.eye(2))) <= 1e-14
        r = q.conj().T @ x
        assert abs(r[1, 0]) <= 1e-14 * np.max(np.abs(r))
        assert r[0, 0].real > 0.0 and r[1, 1].real > 0.0
        assert max(abs(r[0, 0].imag), abs(r[1, 1].imag)) <= 1e-14 * np.max(np.abs(r))
        assert np.max(np.abs(q @ np.triu(r) - x)) <= 1e-14 * np.max(np.abs(x))
        _, r_ref = np.linalg.qr(x)
        assert abs(log_det_r - math.log(abs(r_ref[0, 0] * r_ref[1, 1]))) <= 1e-13
    for second in (np.zeros(4), np.array([3j, 0.0, 0.0, 0.0])):
        x = np.stack([np.array([2.0, 0.0, 0.0, 0.0]), second], axis=1).astype(complex)
        with pytest.raises(RuntimeError, match="lost rank"):
            odeint._qr_columns(x)
    with pytest.raises(RuntimeError, match="lost rank"):
        odeint._qr_columns(np.stack([np.zeros(4), np.ones(4)], axis=1).astype(complex))


def test_defect_and_scale_match_the_matrix_formulas():
    rng = np.random.default_rng(35)
    for _ in range(20):
        x = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) * 10.0 ** rng.uniform(-3, 3)
        phi, psi = x[:2], x[2:]
        g = phi.conj().T @ psi
        expected = np.max(np.abs(g - g.conj().T))
        defect, scale = odeint._defect_and_scale(x)
        assert abs(defect - expected) <= 1e-14 * np.max(np.abs(x)) ** 2
        assert odeint.conjoined_defect(phi, psi) == defect
        assert scale == pytest.approx(1.0 + np.max(np.abs(phi)) * np.max(np.abs(psi)), rel=1e-15)


# ---------------------------------------------------------------------------
# Root finding.


def _smooth_brackets(n):
    """n seeded (f, a, b) with f(a) and f(b) of strictly opposite signs:
    trigonometric, cubic, exponential and arctangent shapes, some with a
    root near 0 (where xtol rules) and some near 1e3 (where rtol does).
    Every eighth is scaled by 1e-200, where the denominator of Brent's
    extrapolation step can underflow to 0."""
    rng = np.random.default_rng(20260816)
    out = []
    while len(out) < n:
        k = len(out) % 5
        p, q, r = rng.standard_normal(3)
        w, c = rng.uniform(0.2, 8.0), rng.uniform(-0.9, 0.9)
        shift = (0.0, 0.0, 0.0, 0.0, 1e3)[k] + rng.uniform(-3.0, 3.0)
        f = (
            lambda x, w=w, c=c: math.sin(w * x) + c,
            lambda x, p=p, q=q, r=r: p + q * x + r * x**3,
            lambda x, p=p, c=c: math.expm1(p * x) + 0.5 * c,
            lambda x, w=w, q=q: math.atan(w * (x - q)) + 0.1 * math.cos(3.0 * x),
            lambda x, w=w, s=shift, c=c: math.tanh(w * (x - s)) + 0.5 * c,
        )[k]
        if len(out) % 8 == 7:
            f = lambda x, f=f: 1e-200 * f(x)  # noqa: E731
        a = shift + rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(1e-3, 4.0)
        fa, fb = f(a), f(b)
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            out.append((f, a, b))
    return out


def test_brentq_returns_scipys_root_bit_for_bit():
    from scipy.optimize import brentq

    brackets = _smooth_brackets(2000)
    # the package's tolerances, then scipy's defaults
    for xtol, rtol in ((1e-13, 8.9e-16), (2e-12, 4.0 * np.finfo(float).eps)):
        differ = [
            (a, b)
            for f, a, b in brackets
            if odeint._brentq(f, a, b, xtol, rtol) != brentq(f, a, b, xtol=xtol, rtol=rtol)
        ]
        assert differ == [], (xtol, len(differ))


def test_brentq_ends_and_failures():
    # an exact zero at an end is returned as it is, a at once before b
    assert odeint._brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-13, 8.9e-16) == 1.0
    assert odeint._brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-13, 8.9e-16) == 3.0
    assert odeint._brentq(lambda x: x * (x - 3.0), 0.0, 3.0, 1e-13, 8.9e-16) == 0.0
    with pytest.raises(ValueError, match="different signs"):
        odeint._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13, 8.9e-16)
    with pytest.raises(ValueError, match="NaN"):
        odeint._brentq(lambda x: math.nan, -1.0, 1.0, 1e-13, 8.9e-16)
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        odeint._brentq(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-13, 8.9e-16, maxiter=3)
    root = odeint._brentq(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-13, 8.9e-16)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-13 + 8.9e-16 * root


# ---------------------------------------------------------------------------
# Determinant zeros.


def test_detect_det_zeros_harmonic():
    s = coefsys.make_family("harmonic", {})
    traj = odeint.solve_hamiltonian(s, I2, Z2, (0.0, 10.0))
    zeros = odeint.detect_det_zeros(traj, 1e-7)
    times = [z.time for z in zeros]
    expected = [math.pi / 2.0, 3.0 * math.pi / 2.0, 5.0 * math.pi / 2.0]
    assert len(times) == 3
    assert max(abs(a - b) for a, b in zip(times, expected)) <= 1e-6


def test_detect_det_zeros_constant_flow_has_none():
    s = const_scenario(Z2, Z2, Z2)
    traj = odeint.solve_hamiltonian(s, I2, Z2, (0.0, 10.0))
    assert odeint.detect_det_zeros(traj, 1e-7) == []


def test_detect_det_zeros_euler():
    s = coefsys.make_family("euler", {"c": 2.5})
    traj = odeint.solve_hamiltonian_frame(s, I2, Z2, (1.0, 100.0))
    zeros = odeint.detect_det_zeros(traj, 1e-7)
    times = [z.time for z in zeros]
    assert len(times) == 2
    assert abs(times[0] - 2.2995125865799344) <= 1e-4
    assert abs(times[1] - 18.67325495830934) <= 1e-4


def test_detect_det_zeros_matches_the_window_grid_reference():
    """Counting eigen-angle crossings finds the zeros the window grid finds."""
    cases = [
        ("harmonic", {}, (0.0, 20.0), (True, False)),
        ("ones_B_zero_drift", {"c_sum": -1.0}, (0.0, 30.0), (True, False)),
        ("euler", {"c": 2.5}, (1.0, 100.0), (True, False)),
        # B = diag(1, -0.5) is indefinite, so the angles may turn back;
        # det Phi is real and the reference's sign changes find its zeros
        (
            "diag_B",
            {"b1": 1.0, "b2": -0.5, "c11": -1.0, "c22": 1.0, "a12_re": 0.3, "a21_re": -0.2},
            (0.0, 20.0),
            (True,),
        ),
    ]
    n_zeros = 0
    for family, params, window, real_modes in cases:
        s = coefsys.make_family(family, params)
        for psi0 in (Z2, I2):
            traj = odeint.solve_hamiltonian_frame(s, I2, psi0, window)
            got = odeint.detect_det_zeros(traj, 1e-7)
            for real in real_modes:
                want = window_grid_det_zeros(traj, 1e-7, real_coefficients=real)
                case = (family, psi0[0, 0].real, real)
                assert len(got) == len(want), case
                for a, b in zip(got, want):
                    assert abs(a.time - b.time) <= 1e-7 * (1.0 + abs(b.time)), case
                n_zeros += len(want)
    assert n_zeros > 0


def test_detect_det_zeros_reads_the_indicator_at_the_nodes(monkeypatch):
    # det Phi = cos^2 t: both eigen-angles of U pass pi together, three
    # times; the angles are read in one pass over the accepted nodes and
    # at single times inside the steps, never on a denser grid
    s = coefsys.make_family("harmonic", {})
    traj = odeint.solve_hamiltonian_frame(s, I2, Z2, (0.0, 10.0))
    sizes = []
    inner = odeint._focal_phases

    def recorded(x, sqrt, phase):
        sizes.append(np.size(x[0]))
        return inner(x, sqrt, phase)

    monkeypatch.setattr(odeint, "_focal_phases", recorded)
    zeros = odeint.detect_det_zeros(traj, 1e-7)
    assert max(sizes) == len(traj.times)
    assert sizes.count(len(traj.times)) == 1
    expected = [math.pi / 2.0, 3.0 * math.pi / 2.0, 5.0 * math.pi / 2.0]
    assert [z.multiplicity for z in zeros] == [2, 2, 2]
    assert max(abs(z.time - e) for z, e in zip(zeros, expected)) <= 1e-6


def test_detect_det_zeros_skips_dips_at_sign_change_roots():
    # Phi = diag(cos t + 0.5 sin t, cos t - 2 sin t): seven simple zeros on
    # (0, 10), one eigen-angle of U passing pi at each
    s = coefsys.make_family("harmonic", {})
    traj = odeint.solve_hamiltonian_frame(s, I2, np.diag([0.5, -2.0]).astype(complex), (0.0, 10.0))
    zeros = odeint.detect_det_zeros(traj, 1e-7)
    expected = sorted(
        [math.atan(0.5) + k * math.pi for k in range(4)]
        + [math.pi - math.atan(2.0) + k * math.pi for k in range(3)]
    )
    assert [z.multiplicity for z in zeros] == [1] * 7
    assert max(abs(z.time - e) for z, e in zip(zeros, expected)) <= 1e-8
    # at rtol 1e-3 a phase turns up to about 1.6 over one accepted step;
    # halving such steps on the dense output keeps all 13 zeros on (0, 20)
    loose = odeint.solve_hamiltonian_frame(
        s, I2, np.diag([0.5, -2.0]).astype(complex), (0.0, 20.0), rtol=1e-3, atol=1e-5
    )
    zeros = odeint.detect_det_zeros(loose, 1e-7)
    expected = sorted(
        [math.atan(0.5) + k * math.pi for k in range(7)]
        + [math.pi - math.atan(2.0) + k * math.pi for k in range(6)]
    )
    assert len(zeros) == 13
    assert max(abs(z.time - e) for z, e in zip(zeros, expected)) <= 1e-2


def test_detect_det_zeros_keeps_two_close_zeros():
    # campaign draws 12 and 180 (complex coefficients, B > 0) each have two
    # zeros about 0.013 apart that sit around one node minimum of |det Phi|;
    # the exact flow of their constant coefficients has 10 zeros on (0, 5)
    # for each of the five starts
    spec = importlib.util.spec_from_file_location("bench_draws", DRAWS)
    draws = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(draws)
    picked = {k: s for k, (_cls, s) in enumerate(draws.campaign_draws(20260816, 200)) if k in (12, 180)}
    for k, s in picked.items():
        counts = {label: len(zeros) for label, _traj, zeros in criteria.simulate_starts(s, (0.0, 5.0), 5)}
        assert counts == {"I,0": 10, "I,I": 10, "rand0": 10, "rand1": 10, "rand2": 10}, k


def test_detect_det_zeros_wants_hamiltonian_meta():
    traj = odeint.adaptive_solve(lambda t, y: np.zeros_like(y), np.zeros(8), (0.0, 1.0))
    with pytest.raises(ValueError):
        odeint.detect_det_zeros(traj)


# ---------------------------------------------------------------------------
# Scalar Riccati flows.


def test_scalar_riccati_tanh():
    traj, rec = odeint.solve_scalar_riccati(
        lambda t: 1.0, lambda t: 0.0, lambda t: -1.0, 0.0, (0.0, 1.0)
    )
    assert rec is None
    assert abs(float(traj.states[-1, 0]) - math.tanh(1.0)) <= 1e-8


def test_scalar_riccati_tan_escape():
    traj, rec = odeint.solve_scalar_riccati(
        lambda t: -1.0, lambda t: 0.0, lambda t: -1.0, 0.0, (0.0, 3.0)
    )
    assert rec is not None
    assert abs(rec.escape_time - 1.5707963) <= 1e-3
    assert rec.last_norm >= 1e6


def test_scalar_riccati_constant():
    traj, rec = odeint.solve_scalar_riccati(
        lambda t: 0.0, lambda t: 0.0, lambda t: 0.0, 5.0, (0.0, 4.0)
    )
    assert rec is None
    assert float(np.max(np.abs(traj.states[:, 0] - 5.0))) == 0.0


# ---------------------------------------------------------------------------
# Matrix Riccati flow.


def test_matrix_riccati_inverse_linear_decay():
    s = const_scenario(Z2, I2, Z2)
    traj, rec = odeint.solve_matrix_riccati(s, I2, (0.0, 1.0))
    assert rec is None
    z = riccati_z_at(traj, 1.0)
    assert mat2.norm_max(z - 0.5 * I2) <= 1e-8


def test_matrix_riccati_linear_in_c():
    # with A = B = 0 the flow is Z' = C; complex off-diagonal drift
    # exercises the imaginary component of the Hermitian parametrization
    c = np.array([[1.0, 0.5 + 2.0j], [0.5 - 2.0j, -1.0]])
    s = const_scenario(Z2, Z2, c)
    z0 = np.array([[0.5, 0.25 - 0.5j], [0.25 + 0.5j, 2.0]])
    traj, rec = odeint.solve_matrix_riccati(s, z0, (0.0, 3.0))
    assert rec is None
    for t in (0.5, 1.75, 3.0):
        z = riccati_z_at(traj, t)
        assert mat2.norm_max(z - (z0 + t * c)) <= 1e-12


def test_matrix_riccati_escape_and_g_bound():
    s = const_scenario(Z2, I2, Z2)
    traj, rec = odeint.solve_matrix_riccati(s, -I2, (0.0, 2.0))
    assert rec is not None
    assert abs(rec.escape_time - 1.0) <= 1e-3
    # G = 2 log(1 - t) has no lower bound as the escape is approached
    assert rec.g_lower_bound <= -10.0
    assert traj.meta["kind"] == "matrix_riccati"


def test_matrix_riccati_rejects_non_hermitian_start():
    s = const_scenario(Z2, I2, Z2)
    with pytest.raises(mat2.NotHermitian):
        odeint.solve_matrix_riccati(s, np.array([[0.0, 1.0], [0.0, 0.0]]), (0.0, 1.0))


def test_riccati_matches_pair_quotient():
    # Z = Psi Phi^{-1} along a nontrivial complex-coefficient flow
    rng = np.random.default_rng(33)
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.3
    hb = hermitian(rng, 0.5)
    s = const_scenario(a, hb @ hb, hermitian(rng, 0.5))
    z0 = hermitian(rng, 0.4)
    pair = odeint.solve_hamiltonian(s, I2, z0 @ I2, (0.0, 1.0))
    ric, _ = odeint.solve_matrix_riccati(s, z0, (0.0, 1.0))
    for t in np.linspace(0.0, min(pair.t_end, ric.t_end), 12):
        phi, psi = phi_psi_at(pair, float(t))
        if abs(mat2.det2(phi)) < 1e-6:
            continue
        z = riccati_z_at(ric, float(t))
        assert mat2.norm_max(psi @ np.linalg.inv(phi) - z) <= 1e-7 * (
            1.0 + mat2.norm_max(z)
        )
