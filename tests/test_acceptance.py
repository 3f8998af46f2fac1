"""End-to-end acceptance checks for the oscillation toolkit.

Every check prints one [PASS]/[FAIL] line, so the module doubles as a
runnable checklist:

    python3 tests/test_acceptance.py

The numeric literals asserted here were computed by independent routes
(closed forms, dense-grid integration, direct simulation) before being
frozen; scripts/derive_oracles.py regenerates them.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from hamosc import cli, coefsys, criteria, mat2, odeint, riccati
from conftest import const_scenario, hermitian
from oracles import (
    HypothesisViolated,
    check_partition_condition,
    comparison_oracle,
    coupling_bound_check,
    det_tr_inv,
    phi_psi_at,
    riccati_z_at,
    subsystem_solve,
)

I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)

_RESULTS = []


def _record(ok: bool, label: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    print(line)
    _RESULTS.append((bool(ok), label))
    return bool(ok)


# ---------------------------------------------------------------------------
# 1. Harmonic ground truth.


def test_harmonic_ground_truth():
    s = coefsys.make_family("harmonic", {})
    traj = odeint.solve_hamiltonian_frame(s, I2, Z2, (0.0, 100.0))
    zeros = odeint.detect_det_zeros(traj, 1e-7)
    times = np.array([z.time for z in zeros])
    expected = np.pi / 2.0 + np.pi * np.arange(32)
    zeros_ok = len(times) == 32 and float(np.max(np.abs(times - expected))) <= 1e-6

    rep_diag = criteria.oscillation_from_diagonal(s, (0.0, 100.0))
    rep_psd = criteria.oscillation_from_psd_reduction(s, (0.0, 100.0))
    both_fire = (
        rep_diag.verdict.kind == criteria.OSCILLATORY
        and rep_psd.verdict.kind == criteria.OSCILLATORY
    )
    assert _record(
        zeros_ok and both_fire,
        "harmonic: 32 det-zeros at pi/2 + k*pi within 1e-6; both oscillation criteria fire",
    ), (len(times), rep_diag.verdict.kind, rep_psd.verdict.kind)


# ---------------------------------------------------------------------------
# 2. Vector Schroedinger scenario (two incommensurate drive frequencies).


def test_vector_schrodinger_reproduction():
    scen, window, opt, _doc = cli.load_scenario_file("example_3_1")
    res = criteria.analyze(scen, window, opt)
    diag_ok = (
        res.verdict.kind == criteria.OSCILLATORY
        and res.verdict.criterion == "oscillation-diagonal"
    )
    cv = criteria.cross_validate(scen, window, n_starts=5, options=opt, analysis=res)
    # frozen regression values: 15 zeros per start on the [0, 60]
    # simulation window, last zero near 59.236
    counts = [len(st.zeros) for st in cv.starts]
    lasts = [st.zeros[-1] for st in cv.starts if st.zeros]
    sim_ok = (
        cv.sim_outcome == "SIM-oscillatory"
        and cv.consistent
        and len(cv.starts) == 5
        and all(n >= 5 for n in counts)
        and counts == [15] * 5
        and all(abs(last - 59.236) <= 0.05 for last in lasts)
    )
    assert _record(
        diag_ok and sim_ok,
        "vector Schroedinger: oscillatory via the diagonal criterion; "
        "5/5 starts show 15 det-zeros (>= 5) on the simulation window",
    ), (res.verdict, cv.sim_outcome, counts)


# ---------------------------------------------------------------------------
# 3. Rank-one B, zero drift: oscillatory branch.


def test_rank_one_b_oscillatory_branch():
    scen, window, _opt, _doc = cli.load_scenario_file("example_3_2_zero_drift")
    rep = criteria.oscillation_from_psd_reduction(scen, window)
    crit_ok = rep.verdict.kind == criteria.OSCILLATORY

    traj = odeint.solve_hamiltonian_frame(scen, I2, Z2, window)
    zeros = odeint.detect_det_zeros(traj, 1e-7)
    times = np.array([z.time for z in zeros])
    gaps = np.diff(times)
    sim_ok = (
        len(times) == 32
        and abs(times[0] - math.pi / 2.0) <= 1e-3
        and float(np.max(np.abs(gaps - math.pi))) <= 1e-3
    )
    assert _record(
        crit_ok and sim_ok,
        "rank-one B, zero drift: reduced scalar criterion oscillatory; "
        "det-zeros recur with spacing pi within 1e-3",
    ), (rep.verdict, len(times))


# ---------------------------------------------------------------------------
# 4. Rank-one B, Euler drift: non-oscillatory branch.


def test_rank_one_b_euler_nonoscillatory_branch():
    scen, window, opt, _doc = cli.load_scenario_file("example_3_2_euler_a05")
    # the file's options hold the certifying convention: c12 entering the envelope with a plus
    # sign, exponent weight from the reduced coefficients (the minus_c12
    # drive does not certify)
    rep = criteria.nonoscillation_psd_envelope(scen, window, opt)
    crit_ok = rep.verdict.kind == criteria.NON_OSCILLATORY

    res = criteria.analyze(scen, window, opt)
    cv = criteria.cross_validate(scen, window, n_starts=5, options=opt, analysis=res)
    # frozen: det Phi stays pinned at 1 for every conjoined start
    sim_ok = (
        cv.sim_outcome == "SIM-nonoscillatory"
        and cv.consistent
        and len(cv.starts) == 5
        and all(len(st.zeros) == 0 for st in cv.starts)
        and all(st.min_abs_det > 0.999999 for st in cv.starts)
    )
    assert _record(
        crit_ok and sim_ok,
        "rank-one B, Euler drift alpha=0.5: non-oscillatory via the reduced "
        "envelope under plus_c12; min |det Phi| = 1 for all 5 starts",
    ), (rep.verdict, res.verdict, [st.min_abs_det for st in cv.starts])


# ---------------------------------------------------------------------------
# 5. Euler threshold calibration for the scalar oscillation test.


def test_euler_threshold_calibration():
    def run(c):
        return criteria.scalar_osc_test(
            lambda t, c=c: (0.0, 1.0, -c / (t * t), 0.0),
            (1.0, 1.0e4),
            n_min=2,
        )

    below = [run(c).outcome for c in (0.2, 0.25)]
    above = {c: run(c) for c in (1.0, 2.5)}
    outcome_ok = below == ["non_oscillatory"] * 2 and all(
        r.outcome == "oscillatory" for r in above.values()
    )

    # c = 2.5: zeros of sqrt(t)*trig(1.5 ln t) space geometrically by
    # exp(pi/1.5) = 8.120527396669775
    ratio = math.exp(math.pi / 1.5)
    ratio_ok = True
    for zs in above[2.5].zeros.values():
        zs = [z for z in zs if z > 1.0]
        for za, zb in zip(zs, zs[1:]):
            ratio_ok = ratio_ok and abs(zb / za - ratio) <= 1e-3 * ratio
    assert _record(
        outcome_ok and ratio_ok,
        "Euler threshold: c in {0.2, 0.25} non-oscillatory, c in {1, 2.5} "
        "oscillatory; c=2.5 zero ratios match exp(pi/1.5) within 1e-3",
    ), (below, {c: r.outcome for c, r in above.items()})


# ---------------------------------------------------------------------------
# 6. Riccati comparison monotonicity campaign.


def test_comparison_monotonicity_campaign():
    rng = np.random.default_rng(1006)
    n_true = 0
    for _ in range(100):
        q1 = rng.uniform(0.05, 0.5)
        q2 = rng.uniform(0.0, 0.5)
        w = rng.uniform(0.5, 3.0)
        g_amp = rng.uniform(-0.5, 0.5)
        h_base = -rng.uniform(0.1, 1.0)
        gap = rng.uniform(0.05, 0.8)
        dy = rng.uniform(0.0, 0.5)

        def f(t, q1=q1, q2=q2, w=w):
            return q1 + q2 * math.sin(w * t) ** 2

        def g(t, g_amp=g_amp, w=w):
            return g_amp * math.cos(w * t)

        def h1(t, h_base=h_base, w=w):
            return h_base * (1.0 + 0.3 * math.sin(w * t))

        def h(t, h1=h1, gap=gap):
            return h1(t) - gap

        if comparison_oracle(f, g, h, h1, 0.0, dy, (0.0, 2.0)):
            n_true += 1
    assert _record(
        n_true == 100,
        "comparison oracle: solution ordering holds on 100/100 random "
        "hypothesis-satisfying instances (tol 1e-6)",
    ), n_true


# ---------------------------------------------------------------------------
# 7. Partition condition on sign-definite kernels.


def _random_trig(rng):
    a1, a2 = rng.uniform(-1.0, 1.0, 2)
    w1, w2 = rng.uniform(0.3, 2.5, 2)
    return lambda t: a1 * math.sin(w1 * t) + a2 * math.cos(w2 * t)

def test_partition_condition_sign_cases():
    rng = np.random.default_rng(1007)
    neg_ok = pos_ok = 0
    for _ in range(20):
        g = _random_trig(rng)
        base = _random_trig(rng)
        floor = rng.uniform(0.05, 0.5)

        k_neg = lambda t, g=g, b=base, f=floor: (g(t), -f - b(t) ** 2)
        ok, violation = check_partition_condition(
            k_neg, riccati.Partition((0.0, 5.0))
        )
        if ok and violation is None:
            neg_ok += 1

        k_pos = lambda t, g=g, b=base, f=floor: (g(t), f + b(t) ** 2)
        ok, violation = check_partition_condition(
            k_pos, riccati.Partition((0.0, 2.5, 5.0))
        )
        if not ok and violation is not None and violation[0] == 0 and violation[1] < 2.5:
            pos_ok += 1
    assert _record(
        neg_ok == 20 and pos_ok == 20,
        "partition condition: 20/20 nonpositive kernels certify on the trivial "
        "partition; 20/20 positive kernels violate in the first subinterval",
    ), (neg_ok, pos_ok)


# ---------------------------------------------------------------------------
# 8. Coupling envelope bound campaign.


def test_coupling_bound_campaign():
    rng = np.random.default_rng(1008)
    checked = skipped = failed = 0
    for i in range(50):
        b = np.diag(rng.uniform(0.5, 2.0, 2)).astype(complex)
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.3
        c = hermitian(rng, 0.4) + np.diag(rng.uniform(-0.3, 0.8, 2))
        s = const_scenario(a, b, c, name=f"bound{i}")
        try:
            if coupling_bound_check(s, (0.0, 1.0), tol=1e-6):
                checked += 1
            else:
                failed += 1
        except HypothesisViolated:
            skipped += 1  # a diagonal component went negative: bound is silent
    assert _record(
        failed == 0 and checked >= 30,
        f"coupling bound: |y|, |v| within envelope on {checked}/50 scenarios "
        f"satisfying the nonnegativity hypothesis ({skipped} skipped)",
    ), (checked, skipped, failed)


# ---------------------------------------------------------------------------
# 9. Matrix algebra contracts.


def test_matrix_algebra_contracts():
    rng = np.random.default_rng(1009)
    eps = float(np.finfo(float).eps)

    comm_ok = True
    for _ in range(1000):
        m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = mat2.tr2(m1 @ m2)
        rhs = mat2.tr2(m2 @ m1)
        scale = float(np.sum(np.abs(m1) * np.abs(m2.T)))
        comm_ok = comm_ok and abs(lhs - rhs) <= 4.0 * eps * max(1.0, scale)

    sqrt_ok = True
    for _ in range(1000):
        h = hermitian(rng, rng.uniform(0.1, 3.0))
        m = h @ h
        r = mat2.sqrt_psd(m)
        sqrt_ok = sqrt_ok and (
            mat2.norm_max(r @ r - m) <= 1e-10 * (1.0 + mat2.norm_max(m))
            and mat2.is_psd(r)
        )

    sandwich_ok = True
    for _ in range(50):
        h = hermitian(rng, 1.0)
        s = h @ h + 0.5 * np.eye(2)  # comfortably invertible
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f, res = mat2.solve_sandwich(s, m)
        _, _, s_inv = det_tr_inv(s)
        sandwich_ok = sandwich_ok and (
            res <= 1e-12 and mat2.norm_max(f - s_inv) <= 1e-10
        )

    assert _record(
        comm_ok and sqrt_ok and sandwich_ok,
        "algebra: trace commutativity to 4 eps (1000 pairs); PSD sqrt round "
        "trip to 1e-10 (1000); sandwich solve reproduces inv(S) (50)",
    ), (comm_ok, sqrt_ok, sandwich_ok)


# ---------------------------------------------------------------------------
# 10. Riccati / linear-pair correspondence.


def test_riccati_hamiltonian_correspondence():
    rng = np.random.default_rng(1010)
    pair_ok = True
    defect_ok = True
    for i in range(50):
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.3
        hb = hermitian(rng, 0.5)
        b = hb @ hb  # PSD, sometimes near-singular
        c = hermitian(rng, 0.5)
        s = const_scenario(a, b, c, name=f"corr{i}")
        z0 = hermitian(rng, 0.4)
        lin = odeint.solve_hamiltonian(s, I2, z0, (0.0, 1.5))
        ric, _rec = odeint.solve_matrix_riccati(s, z0, (0.0, 1.5))

        for t in np.linspace(0.0, min(lin.t_end, ric.t_end), 20):
            phi, psi = phi_psi_at(lin, t)
            if abs(mat2.det2(phi)) < 1e-3:
                break  # correspondence only promised before det Phi vanishes
            z = riccati_z_at(ric, t)
            if np.max(np.abs(z)) > 50.0:
                break
            err = mat2.norm_max(psi - z @ phi)
            pair_ok = pair_ok and err <= 1e-6 * (1.0 + mat2.norm_max(psi))

        defects = lin.meta["defects"]
        defect_ok = defect_ok and float(np.max(defects)) <= 1e-8 * (
            1.0 + float(np.max(np.abs(lin.states))) ** 2
        )

    # ratio-substituted pair against the full matrix flow
    b = np.diag(rng.uniform(0.5, 1.5, 2)).astype(complex)
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.2
    s = const_scenario(a, b, hermitian(rng, 0.3))
    ratios = criteria._diag_envelope_data(s).values
    z0 = hermitian(rng, 0.3)
    full, _ = odeint.solve_matrix_riccati(s, z0, (0.0, 1.2))
    sub, _ = subsystem_solve(
        s,
        "first",
        (float(np.real(z0[0, 0])), complex(z0[0, 1]) + ratios(0.0)[2]),
        (0.0, 1.2),
        other_init=(float(np.real(z0[1, 1])), complex(z0[0, 1]) + ratios(0.0)[1]),
    )
    sub_ok = True
    for t in np.linspace(0.0, min(full.t_end, sub.t_end), 40):
        z = riccati_z_at(full, t)
        if np.max(np.abs(z)) > 5.0:
            continue
        y_full = complex(z[0, 1]) + ratios(t)[2]
        st = sub.dense_eval(t)
        scale = 1.0 + abs(y_full) + abs(z[0, 0])
        err = max(abs(st[0] - float(np.real(z[0, 0]))), abs(st[1] + 1j * st[2] - y_full))
        sub_ok = sub_ok and err <= 1e-6 * scale

    assert _record(
        pair_ok and defect_ok and sub_ok,
        "correspondence: Psi = Z Phi within 1e-6 on 50 random constant runs; "
        "conjoinedness defect within 1e-8; substituted pair matches the "
        "full matrix flow within 1e-6",
    ), (pair_ok, defect_ok, sub_ok)


# ---------------------------------------------------------------------------
# 11. No criteria conflicts anywhere.


def test_no_criteria_conflicts():
    # a genuine conflict raises CriteriaConflict at the offending call and
    # is recorded here; an empty log means every analyze() in this suite
    # stayed one-sided
    assert _record(
        len(criteria.CONFLICT_LOG) == 0,
        "no oscillation/non-oscillation conflict was recorded anywhere",
    ), criteria.CONFLICT_LOG


_CHECKS = [
    test_harmonic_ground_truth,
    test_vector_schrodinger_reproduction,
    test_rank_one_b_oscillatory_branch,
    test_rank_one_b_euler_nonoscillatory_branch,
    test_euler_threshold_calibration,
    test_comparison_monotonicity_campaign,
    test_partition_condition_sign_cases,
    test_coupling_bound_campaign,
    test_matrix_algebra_contracts,
    test_riccati_hamiltonian_correspondence,
    test_no_criteria_conflicts,
]


def main() -> int:
    failures = 0
    for check in _CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"  detail: {exc}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} acceptance checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
