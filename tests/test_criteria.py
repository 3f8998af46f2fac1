"""Criterion verdicts, the aggregate analyzer, and simulation cross-checks."""

from __future__ import annotations

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from hamosc import cli, coefsys, criteria, mat2, odeint, riccati
from conftest import const_scenario
from oracles import (
    constant_focal_points,
    matrix_chi_diag,
    matrix_psd_reduce,
    per_start_scalar_osc_test,
)

Z2 = np.zeros((2, 2), dtype=complex)
I2 = np.eye(2, dtype=complex)
ONES = np.ones((2, 2), dtype=complex)
DRAWS = Path(__file__).resolve().parent.parent / "bench" / "draws.py"


def _herm(rng, scale):
    m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * scale
    return 0.5 * (m + m.conj().T)


# ---------------------------------------------------------------------------
# Scalar oscillation test.


def test_scalar_test_harmonic_pair():
    res = criteria.scalar_osc_test(lambda t: (0.0, 1.0, -1.0, 0.0), (0.0, 50.0), 5)
    assert res.outcome == "oscillatory"
    # phi'' + phi = 0: sixteen zeros per start on [0, 50], the first at
    # pi/2 for the (1, 0) start
    assert len(res.zeros["1,0"]) == 16
    assert len(res.zeros["0,1"]) == 16
    assert abs(res.zeros["1,0"][0] - math.pi / 2.0) <= 1e-9


def test_scalar_test_exponential_pair():
    res = criteria.scalar_osc_test(lambda t: (0.0, 1.0, 1.0, 0.0), (0.0, 50.0), 5)
    assert res.outcome == "non_oscillatory"
    # the (0, 1) start touches zero only at the left endpoint
    assert len(res.zeros["1,0"]) == 0
    assert res.zeros["0,1"] == (0.0,)


def test_scalar_test_subcritical_euler():
    res = criteria.scalar_osc_test(
        lambda t: (0.0, 1.0, -0.25 / (t * t), 0.0), (1.0, 1000.0), 5
    )
    assert res.outcome == "non_oscillatory"


def test_quarter_threshold_modes():
    assert criteria._quarter_threshold(0.0, 50.0) == 37.5
    # wide positive windows switch to the geometric quarter
    assert abs(criteria._quarter_threshold(1.0, 1000.0) - 1000.0**0.75) <= 1e-9
    assert criteria._quarter_threshold(1.0, 50.0) == 1.0 + 0.75 * 49.0


def _trig_coeffs(rng):
    """A random smooth M(t) = (m11, m12, m21, m22) with m12 > 0."""
    w = rng.uniform(0.2, 2.0, 4)
    ph = rng.uniform(0.0, 2.0 * math.pi, 4)
    amp = rng.uniform(0.1, 0.6, 4)
    k = rng.uniform(-0.5, 2.0)

    def m(t):
        return (
            amp[0] * math.sin(w[0] * t + ph[0]),
            1.0 + amp[1] * math.cos(w[1] * t + ph[1]),
            -(k + amp[2] * math.sin(w[2] * t + ph[2])),
            amp[3] * math.cos(w[3] * t + ph[3]),
        )

    return m


def _reference_cases():
    cases = [
        ("harmonic", lambda t: (0.0, 1.0, -1.0, 0.0), (0.0, 50.0)),
        ("exponential", lambda t: (0.0, 1.0, 1.0, 0.0), (0.0, 50.0)),
    ]
    for c in (0.25, 2.5):
        cases.append((f"euler c={c}", lambda t, c=c: (0.0, 1.0, -c / (t * t), 0.0), (1.0, 1.0e4)))
    rng = np.random.default_rng(5150)
    cases += [(f"trig {i}", _trig_coeffs(rng), (0.0, 20.0)) for i in range(6)]
    return cases


def test_scalar_test_matches_the_per_start_reference():
    """One fundamental-matrix flow finds the zeros of two per-start flows."""
    outcomes = set()
    for name, m, window in _reference_cases():
        res = criteria.scalar_osc_test(m, window, 5)
        ref = per_start_scalar_osc_test(
            lambda t: m(t)[0], lambda t: m(t)[1], lambda t: m(t)[2], lambda t: m(t)[3],
            window, 5,
        )
        outcomes.add(ref.outcome)
        assert res.outcome == ref.outcome, name
        for label in ("1,0", "0,1"):
            got, want = res.zeros[label], ref.zeros[label]
            assert len(got) == len(want), (name, label)
            assert all(abs(a - b) <= 1e-7 * (1.0 + abs(b)) for a, b in zip(got, want)), (name, label)
    # the inputs reach all three outcomes, so the match is not vacuous
    assert outcomes == {"oscillatory", "non_oscillatory", "undecided"}


def test_scalar_test_finds_every_zero_of_a_fast_euler_equation():
    # t^2 phi'' + 100 phi = 0 on (1, 1e4): phi = sqrt(t) (a cos + b sin)(mu ln t)
    # with mu = sqrt(100 - 1/4); the first zeros are about 0.37 apart, less
    # than the 1.22 spacing of an 8192-point grid over the window
    mu = math.sqrt(100.0 - 0.25)
    hi = 1e4
    res = criteria.scalar_osc_test(lambda t: (0.0, 1.0, -100.0 / (t * t), 0.0), (1.0, hi), 5)
    n_10 = int((mu * math.log(hi) - math.atan(2.0 * mu)) / math.pi) + 1
    n_01 = int(mu * math.log(hi) / math.pi) + 1
    want = {
        "1,0": [math.exp((math.atan(2.0 * mu) + k * math.pi) / mu) for k in range(n_10)],
        "0,1": [math.exp(k * math.pi / mu) for k in range(n_01)],
    }
    assert (len(want["1,0"]), len(want["0,1"])) == (29, 30)
    for label, expected in want.items():
        got = res.zeros[label]
        assert len(got) == len(expected), label
        assert all(abs(a - b) <= 1e-8 * (1.0 + b) for a, b in zip(got, expected)), label


def test_scalar_test_counts_a_constant_rotation_exactly_at_loose_tolerance():
    # phi = cos 3t and sin(3t) / 3: 95 and 96 zeros on [0, 100]; with a
    # constant M every step is exact, so even rtol 1e-2 counts them all
    res = criteria.scalar_osc_test(
        lambda t: (0.0, 1.0, -9.0, 0.0), (0.0, 100.0), 5, rtol=1e-2, atol=1e-4
    )
    assert (len(res.zeros["1,0"]), len(res.zeros["0,1"])) == (95, 96)


def test_scalar_test_finds_every_zero_of_a_fast_rotation():
    # phi = cos 40t and sin(40t) / 40 on (0, 10): zeros pi / 40 apart. The
    # exact steps of a constant M would grow past them; the turn cap keeps
    # each step to a quarter turn
    res = criteria.scalar_osc_test(lambda t: (0.0, 1.0, -1600.0, 0.0), (0.0, 10.0), 5)
    want = {
        "1,0": [(0.5 + k) * math.pi / 40.0 for k in range(127)],
        "0,1": [k * math.pi / 40.0 for k in range(128)],
    }
    for label, expected in want.items():
        got = res.zeros[label]
        assert len(got) == len(expected), label
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-9, label


def test_scalar_test_times_the_zeros_of_a_time_changed_rotation():
    # M = f(t) J commutes with itself at all times, so Y = exp(F(t) J) with
    # F = t + 0.3 (1 - cos 3t): phi = cos F and sin F, zero where F is an
    # odd or a whole multiple of pi / 2. Only the quadrature of f steers
    # the step size here
    def big_f(t):
        return t + 0.3 * (1.0 - math.cos(3.0 * t))

    res = criteria.scalar_osc_test(
        lambda t: (0.0, 1.0 + 0.9 * math.sin(3.0 * t), -(1.0 + 0.9 * math.sin(3.0 * t)), 0.0),
        (0.0, 50.0),
        5,
    )
    for label, offset in (("1,0", 0.5), ("0,1", 0.0)):
        targets = [(k + offset) * math.pi for k in range(int(big_f(50.0) / math.pi - offset) + 1)]
        want = [brentq(lambda t: big_f(t) - x, 0.0, 50.0, xtol=1e-15) if x else 0.0 for x in targets]
        got = res.zeros[label]
        assert len(got) == len(want), label
        assert all(abs(a - b) <= 1e-7 * (1.0 + abs(b)) for a, b in zip(got, want)), label


def test_scalar_test_survives_growth_past_the_float_range():
    # cosh 2000 overflows a double; exp(Omega) overflowing rejects the step
    res = criteria.scalar_osc_test(lambda t: (0.0, 1.0, 1.0, 0.0), (0.0, 2000.0), 5)
    assert res.outcome == "non_oscillatory"
    assert res.zeros == {"1,0": (), "0,1": (0.0,)}


class _FlowRecorder:
    """Wraps odeint.adaptive_solve to record each flow and count reads.

    flows holds one record per call: its trajectory and its field calls.
    counted(fn) wraps a coefficient source; reads counts its calls made
    from inside a field call.
    """

    def __init__(self, monkeypatch):
        self.flows = []
        self.reads = 0
        self._in_field = False
        inner = odeint.adaptive_solve

        def solve(field, *args, **kwargs):
            rec = {"fev": 0}

            def recorded(t, y):
                rec["fev"] += 1
                self._in_field = True
                try:
                    return field(t, y)
                finally:
                    self._in_field = False

            rec["traj"] = inner(recorded, *args, **kwargs)
            self.flows.append(rec)
            return rec["traj"]

        monkeypatch.setattr(odeint, "adaptive_solve", solve)

    def counted(self, fn):
        def read(t):
            if self._in_field:
                self.reads += 1
            return fn(t)

        return read

    @property
    def fev(self) -> int:
        return sum(f["fev"] for f in self.flows)


class _MagnusRecorder:
    """Wraps odeint.magnus_flow and odeint.sign_change_roots to record each
    scalar flow and count coefficient reads.

    flows holds each flow; refinements counts the root finder's
    evaluations. counted(fn) wraps a coefficient source; reads counts
    its calls made while a flow reads its coefficients, in its steps or
    in a refinement.
    """

    def __init__(self, monkeypatch):
        self.flows = []
        self.reads = 0
        self.refinements = 0
        self._inside = False
        inner_flow, inner_roots = odeint.magnus_flow, odeint.sign_change_roots

        def flow(coeffs, *args, **kwargs):
            def inside(t):
                self._inside = True
                try:
                    return coeffs(t)
                finally:
                    self._inside = False

            out = inner_flow(inside, *args, **kwargs)
            self.flows.append(out)
            return out

        def roots(fn, *args):
            def refined(t):
                self.refinements += 1
                return fn(t)

            return inner_roots(refined, *args)

        monkeypatch.setattr(odeint, "magnus_flow", flow)
        monkeypatch.setattr(odeint, "sign_change_roots", roots)

    def counted(self, fn):
        def read(t):
            if self._inside:
                self.reads += 1
            return fn(t)

        return read

    def flow_reads(self) -> int:
        """Coefficient reads of all flows' steps; each flow's stats must
        count one read at its start and four per step attempt."""
        total = 0
        for f in self.flows:
            n = f.stats["n_accept"] + f.stats["n_reject"]
            assert f.stats["reads"] == 1 + 4 * n
            total += f.stats["reads"]
        return total


def test_scalar_test_rescales_each_column(monkeypatch):
    # cosh 400 ~ 1e173: both columns of the fundamental matrix pass the
    # rescaling limit long before the window end
    rec = _MagnusRecorder(monkeypatch)
    res = criteria.scalar_osc_test(lambda t: (0.0, 1.0, 1.0, 0.0), (0.0, 400.0), 5)
    assert res.outcome == "non_oscillatory"
    assert res.zeros["1,0"] == ()
    assert res.zeros["0,1"] == (0.0,)
    (flow,) = rec.flows
    states = flow.states
    assert np.all(np.isfinite(states))
    # unscaled, both columns would end near 1e173
    assert np.abs(states).max() <= odeint._RENORM_LIMIT


def test_scalar_test_is_one_flow_reading_coeffs_once_per_field_call(monkeypatch):
    # one flow for both starts, reading M once at its start, four times
    # per step attempt and three times per refinement evaluation
    rec = _MagnusRecorder(monkeypatch)
    coeffs = rec.counted(lambda t: (0.0, 1.0, -1.0, 0.0))
    res = criteria.scalar_osc_test(coeffs, (0.0, 50.0), 5)
    assert res.outcome == "oscillatory"
    assert len(rec.flows) == 1
    assert rec.refinements > 0
    assert rec.reads == rec.flow_reads() + 3 * rec.refinements


def test_diagonal_criterion_reads_the_scenario_once_per_field_call(monkeypatch):
    # each coefficient read of a scalar flow is one scenario read
    s = coefsys.make_family("harmonic", {})
    rec = _MagnusRecorder(monkeypatch)
    rep = criteria.oscillation_from_diagonal(replace(s, eval=rec.counted(s.eval)), (0.0, 30.0))
    assert rep.verdict.kind == criteria.OSCILLATORY
    assert rec.refinements > 0
    assert rec.reads == rec.flow_reads() + 3 * rec.refinements


def test_sign_split_reads_the_scenario_once_per_field_call(monkeypatch):
    # each kernel call reads the weight and the free term from one read:
    # one read at t0 when the counted copy is built (it finds the read
    # form), 256 grid reads for the sign rows, then one per field call
    # (two per call, 1,272 reads in all, when each of the pair reads the
    # scenario itself)
    window = (0.0, 20.0)
    d = np.diag([1.0, -1.0]).astype(complex)
    s = const_scenario(Z2, d, d, name="split")
    rec = _FlowRecorder(monkeypatch)
    monkeypatch.setattr(riccati, "adaptive_solve", odeint.adaptive_solve)
    total = [0]

    def counted(t):
        total[0] += 1
        return s.eval(t)

    opt = criteria.AnalysisOptions()
    rep = criteria.nonoscillation_sign_split(replace(s, eval=rec.counted(counted)), window, opt)
    assert rep.verdict.kind == criteria.NON_OSCILLATORY
    assert 0 < rec.reads == rec.fev
    assert total[0] == 1 + 256 + rec.fev
    # the same partitions as kernels that read the scenario twice per call
    for j, sgn in ((1, 1.0), (2, -1.0)):
        def k(t, j=j, sgn=sgn):
            return (
                2.0 * s.eval(t)[0][3 * j - 3].real,
                sgn * criteria.chi_diag(*s.eval(t), j),
            )

        part = riccati.partition_search(k, window, opt.max_points, rtol=opt.rtol, atol=opt.atol)
        assert rep.witnesses[f"partition_{j}"] == part


def test_psd_criterion_reads_the_reduction_once_per_field_call(monkeypatch):
    s = coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0})
    rec = _MagnusRecorder(monkeypatch)
    reduce = criteria.psd_reduce

    def counted_reduce(*args, **kwargs):
        red = reduce(*args, **kwargs)
        return replace(red, at=rec.counted(red.at))

    monkeypatch.setattr(criteria, "psd_reduce", counted_reduce)
    rep = criteria.oscillation_from_psd_reduction(s, (0.0, 30.0))
    assert rep.verdict.kind == criteria.OSCILLATORY
    assert rec.refinements > 0
    assert rec.reads == rec.flow_reads() + 3 * rec.refinements


# ---------------------------------------------------------------------------
# Oscillation from the diagonal scalar systems.


def test_diagonal_criterion_fires_on_harmonic():
    rep = criteria.oscillation_from_diagonal(coefsys.make_family("harmonic", {}), (0.0, 50.0))
    assert rep.criterion == criteria.OSC_DIAG
    assert rep.verdict.kind == criteria.OSCILLATORY
    assert "j=1" in rep.verdict.notes


def test_diagonal_criterion_is_one_directional():
    # positive potential gives non-oscillating scalar systems; the
    # criterion must withhold rather than claim NonOscillatory
    s = const_scenario(Z2, I2, I2, name="posC")
    rep = criteria.oscillation_from_diagonal(s, (0.0, 50.0))
    assert rep.verdict.kind == criteria.INCONCLUSIVE
    assert all(held for _, held, _ in rep.applicability)


# the B_diagonal row of the all-ones B, refuted at its first sample
OFF_DIAGONAL_AT_0 = "refuted at t = 0: largest off-diagonal |b| 1.000e+00"


def test_diagonal_criterion_needs_diagonal_b():
    s = coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0})
    rep = criteria.oscillation_from_diagonal(s, (0.0, 10.0))
    assert rep.verdict.kind == criteria.INCONCLUSIVE
    assert rep.applicability[0] == ("B diagonal", False, OFF_DIAGONAL_AT_0)


def _half_vanishing_b():
    # b_1 = max(0, cos t) vanishes on (pi/2, 3] while a_12 stays 0.5,
    # and b_2 = -1 throughout
    a = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)

    def ev(t):
        b = np.diag([max(0.0, math.cos(t)), -1.0]).astype(complex)
        return a.copy(), b, -I2.copy()

    def dv(t):
        db = np.diag([-math.sin(t) if math.cos(t) > 0.0 else 0.0, 0.0]).astype(complex)
        return Z2.copy(), db, Z2.copy()

    return coefsys.Scenario(
        name="half_vanishing_b", t0=0.0, eval=ev, analytic_derivatives=dv,
        params={},
    )


def test_diagonal_b_applicability_rows():
    s, window = _half_vanishing_b(), (0.0, 3.0)
    coupling = ("couplings vanish where b does", False, "violation near t = 1.57647")
    diag = criteria.oscillation_from_diagonal(s, window)
    assert diag.verdict.kind == criteria.INCONCLUSIVE
    assert diag.applicability == (
        ("B diagonal", True, ""),
        ("b_1, b_2 nonnegative", False, "min b = -1.000e+00"),
        coupling,
    )
    split = criteria.nonoscillation_sign_split(s, window)
    assert split.verdict.kind == criteria.INCONCLUSIVE
    assert split.applicability == (
        ("B diagonal", True, ""),
        ("b_1, b_2 have opposite signs", True, "case_a=True case_b=False"),
        coupling,
    )


# ---------------------------------------------------------------------------
# Non-oscillation from the split-sign case.


def test_sign_split_certifies_opposed_signs():
    s = const_scenario(Z2, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]).astype(complex), name="split")
    rep = criteria.nonoscillation_sign_split(s, (0.0, 20.0))
    assert rep.verdict.kind == criteria.NON_OSCILLATORY


def test_sign_split_certifies_frozen_flow():
    s = const_scenario(Z2, Z2, Z2, name="allzero")
    rep = criteria.nonoscillation_sign_split(s, (0.0, 20.0))
    assert rep.verdict.kind == criteria.NON_OSCILLATORY


def test_sign_split_needs_the_sign_pattern():
    s = const_scenario(Z2, I2, I2, name="bpos")
    rep = criteria.nonoscillation_sign_split(s, (0.0, 20.0))
    assert rep.verdict.kind == criteria.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Non-oscillation from the coupling envelope.


def test_envelope_certifies_positive_potential():
    s = const_scenario(Z2, I2, I2, name="posC")
    rep = criteria.nonoscillation_envelope(s, (0.0, 50.0))
    assert rep.verdict.kind == criteria.NON_OSCILLATORY
    assert rep.witnesses["certificate_3"] == "partition"


def test_envelope_certifies_zero_potential():
    s = const_scenario(Z2, I2, Z2, name="freeflow")
    rep = criteria.nonoscillation_envelope(s, (0.0, 20.0))
    assert rep.verdict.kind == criteria.NON_OSCILLATORY


def test_envelope_withholds_on_harmonic():
    rep = criteria.nonoscillation_envelope(coefsys.make_family("harmonic", {}), (0.0, 20.0))
    assert rep.verdict.kind == criteria.INCONCLUSIVE


def test_diagonal_tag_gates_are_the_rows():
    # the rows are the only check of the tags: nothing under them raises,
    # and a withheld tag's row says where the samples refuted it
    window = (0.0, 1.0)
    ones = coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0})
    semidefinite = const_scenario(Z2, np.diag([1.0, 0.0]), Z2, name="bz")
    tags = coefsys.validate_scenario(semidefinite, window).tags
    assert "B_diagonal" in tags and "B_positive" not in tags
    not_diagonal = ("B diagonal", False, OFF_DIAGONAL_AT_0)
    not_positive = ("B positive definite", False, "refuted at t = 0: lowest eigenvalue of B 0.000e+00")
    cases = (
        (criteria.nonoscillation_sign_split, ones, (not_diagonal,)),
        (criteria.nonoscillation_envelope, ones, (not_diagonal, not_positive)),
        (criteria.nonoscillation_envelope, semidefinite, (("B diagonal", True, ""), not_positive)),
    )
    for run, s, rows in cases:
        rep = run(s, window)
        assert rep.verdict.kind == criteria.INCONCLUSIVE
        assert rep.applicability == rows
        assert rep.witnesses == {}


def _spiked_table(name, b, c, block, value):
    """1001 knots on [0, 10] with constant B, C, except entry 11 of one
    block (1 for B, 2 for C) set to value at the knot t = 3."""
    times = np.linspace(0.0, 10.0, 1001)
    samples = np.zeros((len(times), 3, 2, 2), dtype=complex)
    samples[:, 1] = b
    samples[:, 2] = c
    samples[300, block, 0, 0] = value
    return coefsys.from_table(coefsys.TabulatedCoeffs(times=times, samples=samples), name)


def test_diagonal_rows_read_b_at_table_knots():
    # b11 = -3 at the knot t = 3 only, between the points of the 256-point
    # grid on (0, 10): the diagonal-B rows read the table's knots too
    window = (0.0, 10.0)
    s = _spiked_table("b11_dip", I2, -I2, 1, -3.0)
    rep = criteria.oscillation_from_diagonal(s, window)
    assert rep.verdict.kind == criteria.INCONCLUSIVE
    assert ("b_1, b_2 nonnegative", False, "min b = -3.000e+00") in rep.applicability


def test_envelope_reads_the_tags_a_table_knot_refutes():
    # ROADMAP probe P3: b11 = -3 at the knot t = 3 only. Validating on the
    # 256-point grid alone granted B_positive, and the envelope criterion
    # then ran its flows on a B that is not positive. Each row that reads
    # a withheld tag names that knot and the eigenvalue -3 of B there
    window = (0.0, 10.0)
    res = criteria.analyze(_spiked_table("b11_dip", I2, -I2, 1, -3.0), window)
    reports = {r.criterion: r for r in res.reports}
    rows = (
        (criteria.NONOSC_ENVELOPE, "B positive definite"),
        (criteria.OSC_PSD, "B positive semidefinite"),
        (criteria.NONOSC_PSD_ENVELOPE, "B positive semidefinite"),
    )
    for cid, hypothesis in rows:
        (detail,) = [d for h, held, d in reports[cid].applicability if h == hypothesis and not held]
        assert "t = 3" in detail and "-3.000e+00" in detail, (cid, detail)


@pytest.mark.parametrize("name", ["harmonic", "example_3_2_zero_drift"])
def test_analyze_reads_the_check_grid_once(monkeypatch, name):
    # one stacked read of the blocks and one of the derivatives per
    # analysis, which every tag gate, diagonal-B row and PSD constancy
    # flag then reads (the parent read the blocks three times on harmonic)
    s, window, opt, _ = cli.load_scenario_file(name)
    reads = []
    inner = coefsys.stacked

    def counted(read, ts):
        reads.append((read, len(ts)))
        return inner(read, ts)

    monkeypatch.setattr(coefsys, "stacked", counted)
    criteria.analyze(s, window, opt)
    assert reads == [(s.eval, 256), (s.analytic_derivatives, 256)]


def test_spike_between_samples_is_not_certified():
    # c11 = -2000 at one knot makes chi_3 reach +2000 near t = 3, between
    # the points of a 256-point grid where it reads -0.25; a certificate
    # resting on those samples would answer NonOscillatory
    s = _spiked_table("c11_spike", I2, I2 / 4.0, 2, -2000.0)
    res = criteria.analyze(s, (0.0, 10.0))
    assert res.verdict.kind != criteria.NON_OSCILLATORY
    envelope = res.reports[criteria.CRITERION_ORDER.index("nonoscillation-envelope")]
    assert envelope.witnesses["certificate_3"] == "none"


# ---------------------------------------------------------------------------
# PSD reduction.


def test_reduction_is_identity_for_unit_b():
    a = np.array([[0.1, 0.3 + 0.2j], [-0.1j, 0.2]], dtype=complex)
    c = np.array([[1.0, 0.4j], [-0.4j, -0.7]], dtype=complex)
    s = const_scenario(a, I2, c, name="unitB")
    red = criteria.psd_reduce(s, (0.0, 2.0))
    sqrt_b, p, q = (np.reshape(m, (2, 2)) for m in red.at(0.7))
    assert float(mat2.norm_max(sqrt_b - I2)) == 0.0
    assert float(mat2.norm_max(p - a)) <= 1e-14
    assert float(mat2.norm_max(q - c)) <= 1e-14
    assert red.max_residual <= 1e-14


def test_constant_reduction_is_one_value():
    # with A, B and C constant, at(t) is the one precomputed Reduced
    s = coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0})
    red = criteria.psd_reduce(s, (0.0, 10.0))
    assert red.at(0.5) is red.at(7.25) is red.at(0.5)


def test_reduction_of_singular_ones_block():
    s = coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0})
    red = criteria.psd_reduce(s, (0.0, 10.0))
    root = math.sqrt(2.0) / 2.0
    sqrt_b, p, q = (np.reshape(m, (2, 2)) for m in red.at(3.0))
    assert float(mat2.norm_max(sqrt_b - root * ONES)) <= 1e-12
    assert float(mat2.norm_max(p)) <= 1e-12
    assert float(mat2.norm_max(q + 0.5 * ONES)) <= 1e-12
    # M = 0, so P = S^+ M = 0 and S P = M exactly
    assert red.max_residual == 0.0


def test_reduction_of_drifting_ones_block():
    s = coefsys.make_family("ones_B_euler", {"alpha": 0.5})
    red = criteria.psd_reduce(s, (1.0, 10.0))
    # the minimum-norm P = S^+ M keeps the reduced drift spread over the
    # block: p = alpha / (2 t) in every entry
    t = 2.0
    p = np.reshape(red.at(t).p, (2, 2))
    assert float(mat2.norm_max(p - (0.5 / (2.0 * t)) * ONES)) <= 1e-12


def _varying_b_scenario(name, a, c, b_and_db):
    """A, C constant and (B(t), B'(t)) given: B is the varying block, and
    the reduction solves sqrt B' from B'."""
    a = np.asarray(a, complex)
    c = np.asarray(c, complex)

    def block(t, k):
        return np.asarray(b_and_db(t)[k], complex)

    return coefsys.Scenario(
        name=name, t0=0.0, eval=lambda t: (a.copy(), block(t, 0), c.copy()),
        analytic_derivatives=lambda t: (Z2.copy(), block(t, 1), Z2.copy()),
    )


def test_reduction_of_indefinite_b_raises_from_the_square_root():
    # psd_reduce reads no tag: an indefinite B, constant or varying,
    # meets the square root at the window start
    window = (0.0, 1.0)
    constant = const_scenario(Z2, np.diag([1.0, -1.0]), Z2, name="indefinite")
    varying = _varying_b_scenario(
        "indefinite_t", Z2, -I2, lambda t: (np.diag([1.0, t - 0.5]), np.diag([0.0, 1.0]))
    )
    for s in (constant, varying):
        assert "B_psd" not in coefsys.validate_scenario(s, window).tags
        with pytest.raises(mat2.NotPSD, match="eigenvalues"):
            criteria.psd_reduce(s, window)


def _bump(t):
    """A smooth bump supported on (2, 5) with peak 1 at t = 3.5, and its derivative."""
    u = (t - 3.5) / 1.5
    if abs(u) >= 1.0:
        return 0.0, 0.0
    v = math.exp(1.0 - 1.0 / (1.0 - u * u))
    return v, v * (-2.0 * u / (1.0 - u * u) ** 2) / 1.5


def test_reduction_reads_constancy_on_its_grid():
    # B = (1 + 1e4 bump) I varies on (2, 5) only, between the five points
    # lo + {0, 0.137, 0.55, 0.83, 1} (hi - lo) that once decided it was
    # constant; the 256-point grid sees the bump, and sqrt B at its peak
    # is sqrt(10001) = 100.005, not the I read at lo
    def b_and_db(t):
        v, dv = _bump(t)
        return (1.0 + 1e4 * v) * I2, (1e4 * dv) * I2

    window = (0.0, 10.0)
    s = _varying_b_scenario("bump", Z2, -0.01 * I2, b_and_db)
    red = criteria.psd_reduce(s, window)
    want = math.sqrt(1.0 + 1e4)
    sqrt_b = np.reshape(red.at(3.5).sqrt_b, (2, 2))
    assert float(mat2.norm_max(sqrt_b - want * I2)) <= 1e-12 * want
    assert red.max_residual <= 1e-12


def _p8_beam(t):
    """ROADMAP probe P8: B = (1 + 0.5 sin t)^2 v v* in a generic complex
    direction v, and its derivative."""
    v = np.array([[1.0 + 0.3j], [-0.7 + 1.1j]])
    vv = v @ v.conj().T
    g = 1.0 + 0.5 * math.sin(t)
    return g * g * vv, g * math.cos(t) * vv


def _reduction_cases(rng):
    """(label, scenario, window) over the B shapes of psd_reduce.

    With rank-1 B, S P = M is solvable only when A maps the range of
    S into itself: a_keep does, and a general A makes both reductions
    raise.
    """
    def cplx(scale):
        return (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * scale

    cases = []
    window = (0.0, 3.0)
    for k in range(4):
        a, c = cplx(0.7), _herm(rng, 1.0)
        g = cplx(1.0)
        v = cplx(1.0)[:, :1]
        rot = np.linalg.qr(cplx(1.0))[0]
        full = g @ g.conj().T + 0.2 * I2
        rank1 = v @ v.conj().T
        a_keep = rng.normal() * I2 + cplx(0.7) @ (I2 - rank1 / np.trace(rank1).real)
        consts = (
            ("full", a, full), ("rank1", a_keep, rank1), ("rank1_unsolvable", a, rank1),
            ("zero", a, np.zeros((2, 2), complex)),
        )
        for shape, a_k, b in consts:
            s = const_scenario(a_k, b, c, name=f"{shape}{k}")
            cases.append((f"{shape}{k}", s, window))

        def spread(t, rot=rot, d=rng.uniform(0.3, 1.5, 2), w=rng.uniform(0.5, 2.0)):
            cs, sn = np.cos(w * t), np.sin(w * t)
            u = rot @ np.array([[cs, -sn], [sn, cs]])  # eigenvalues d, turning eigenvectors
            du = w * rot @ np.array([[-sn, -cs], [cs, -sn]])
            b = u @ np.diag(d) @ u.conj().T
            db = du @ np.diag(d) @ u.conj().T
            return b, db + db.conj().T

        pattern = (ONES, np.array([[1.0, -1j], [1j, 1.0]]), np.diag([1.0, 0.0]))[k % 3]
        pattern_keep = rng.normal() * I2 + cplx(0.7) @ (I2 - pattern / np.trace(pattern).real)

        def beam(t, pattern=pattern, r=rng.uniform(0.5, 2.0), w=rng.uniform(0.5, 2.0)):
            g = 1.0 + 0.5 * np.sin(w * t)
            return (g * g * r) * pattern, (g * w * np.cos(w * t) * r) * pattern

        varying = (("varying_full", a, spread), ("varying_rank1", pattern_keep, beam))
        for shape, a_k, b_and_db in varying:
            s = _varying_b_scenario(f"{shape}{k}", a_k, c, b_and_db)
            cases.append((f"{shape}{k}", s, window))
    # a varying rank-1 B in a generic complex direction (P8)
    p8 = _varying_b_scenario("p8", 0.4 * I2, -I2, _p8_beam)
    cases.append(("p8", p8, window))
    return cases


def test_reduction_entries_match_matrix_reference(rng):
    # the entry-tuple reduction against the same reduction on 2x2 arrays:
    # constant full-rank, rank-1 and zero B, varying B, whose S' the
    # reference solves by least squares, and P = S^+ M against the
    # reference's F M with the minimum-norm sandwich F = S^+ M M^+
    for label, s, window in _reduction_cases(rng):
        assert "B_psd" in coefsys.validate_scenario(s, window).tags, label
        try:
            ref = matrix_psd_reduce(s, window)
        except criteria.ResidualTooLarge as exc:
            with pytest.raises(criteria.ResidualTooLarge) as got:
                criteria.psd_reduce(s, window)
            assert got.value.t == exc.t, label
            continue
        red = criteria.psd_reduce(s, window)
        assert abs(red.max_residual - ref.max_residual) <= 1e-14, label
        ts = np.concatenate([coefsys.window_grid(window)[::17], rng.uniform(*window, 5)])
        for t in ts:
            for name, got, want in zip(criteria.Reduced._fields, red.at(t), ref.at(t)):
                err = float(np.max(np.abs(np.reshape(got, (2, 2)) - want)))
                assert err <= 1e-14 * (1.0 + float(np.max(np.abs(want)))), (label, name, t, err)
            assert all(type(x) is complex for x in red.at(t).p), label


def test_varying_rank_one_b_reduces_exactly():
    # P8: S' = (g' / |v|) v v* lies in the range of S, so S P = M is
    # solvable exactly; a differenced S' left part of it off that range
    window = (0.0, 3.0)
    s = _varying_b_scenario("p8", 0.4 * I2, -I2, _p8_beam)
    assert criteria.psd_reduce(s, window).max_residual <= 1e-12


def test_non_differentiable_root_is_a_named_inconclusive_row():
    # B = diag(t, 1): at t = 0, B' = diag(1, 0) lies on the kernel of B,
    # and sqrt t has no derivative there
    def b_and_db(t):
        return np.diag([t, 1.0]), np.diag([1.0, 0.0])

    window = (0.0, 2.0)
    s = _varying_b_scenario("root_t", 0.3 * I2, -I2, b_and_db)
    with pytest.raises(mat2.NotDifferentiable):
        criteria.psd_reduce(s, window)
    reports = {r.criterion: r for r in criteria.analyze(s, window).reports}
    for cid in (criteria.OSC_PSD, criteria.NONOSC_PSD_ENVELOPE):
        rep = reports[cid]
        assert rep.verdict.kind == criteria.INCONCLUSIVE
        assert [(name, held) for name, held, _ in rep.applicability] == [
            ("sqrt B differentiable", False)
        ]


def test_chi_diag_entries_match_matrix_reference(rng):
    for k in range(40):
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * rng.uniform(0.1, 3.0)
        diag = rng.uniform(-2.0, 2.0, 2)
        if k % 4 == 0:
            diag[k // 4 % 2] = 0.0  # the b_{3-j} = 0 branch of one chi_j
        b = np.diag(diag).astype(complex)
        c = _herm(rng, 1.5)
        entries = [m.ravel().tolist() for m in (a, b, c)]
        for j in (1, 2):
            got = criteria.chi_diag(*entries, j)
            want = matrix_chi_diag(a, b, c, j)
            assert abs(got - want) <= 1e-14 * (1.0 + abs(want)), (k, j)


# ---------------------------------------------------------------------------
# Oscillation through the reduction.


def test_reduced_oscillation_on_singular_b():
    s = coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0})
    rep = criteria.oscillation_from_psd_reduction(s, (0.0, 100.0))
    assert rep.verdict.kind == criteria.OSCILLATORY


def test_reduced_oscillation_matches_plain_on_unit_b():
    rep = criteria.oscillation_from_psd_reduction(coefsys.make_family("harmonic", {}), (0.0, 50.0))
    assert rep.verdict.kind == criteria.OSCILLATORY
    s = const_scenario(Z2, I2, I2, name="posC")
    assert criteria.oscillation_from_psd_reduction(s, (0.0, 50.0)).verdict.kind == criteria.INCONCLUSIVE


def test_reduced_envelope_convention_split():
    # the drifting ones block certifies under the plus drive and only
    # under it; the minus drive must withhold, not contradict
    s = coefsys.make_family("ones_B_euler", {"alpha": 0.5})
    plus = criteria.nonoscillation_psd_envelope(
        s, (1.0, 1000.0), criteria.AnalysisOptions(sign_convention="plus_c12")
    )
    assert plus.verdict.kind == criteria.NON_OSCILLATORY
    minus = criteria.nonoscillation_psd_envelope(
        s, (1.0, 1000.0), criteria.AnalysisOptions(sign_convention="minus_c12")
    )
    assert minus.verdict.kind == criteria.INCONCLUSIVE


def test_reduction_identity_for_unit_b_verdicts():
    # with B = I the reduction is a no-op, so the reduced criteria must
    # reproduce the plain verdicts case by case
    for name, c in (("negC", -I2), ("mixedC", np.diag([1.5, -0.5]).astype(complex))):
        s = const_scenario(Z2, I2, c, name=name)
        plain_osc = criteria.oscillation_from_diagonal(s, (0.0, 30.0))
        red_osc = criteria.oscillation_from_psd_reduction(s, (0.0, 30.0))
        assert plain_osc.verdict.kind == red_osc.verdict.kind
        plain_env = criteria.nonoscillation_envelope(s, (0.0, 30.0))
        red_env = criteria.nonoscillation_psd_envelope(s, (0.0, 30.0))
        assert plain_env.verdict.kind == red_env.verdict.kind


def _twin_blocks(k):
    """A and C of the oscillation-twin scenarios (ROADMAP P14)."""
    a = np.array([[0.3 + 0.2j, 0.4], [0.25 + 0.1j, -0.2]])
    c = np.array([[-k, 0.3], [0.3, -0.8 * k]], dtype=complex)
    return a, c


def _count_scalar_tests(monkeypatch) -> list:
    calls = [0]
    inner = criteria.scalar_osc_test

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(criteria, "scalar_osc_test", counted)
    return calls


def _zeros_close(ours, theirs):
    """Same zero counts per start, with times within 1e-8 (1 + |t|)."""
    assert ours.zeros.keys() == theirs.zeros.keys()
    for start, zs in theirs.zeros.items():
        mine = np.asarray(ours.zeros[start])
        assert len(mine) == len(zs)
        assert np.all(np.abs(mine - zs) <= 1e-8 * (1.0 + np.abs(zs)))


@pytest.mark.parametrize("k", [1.0, 4.0])
def test_psd_twin_reads_the_diagonal_flows_on_a_constant_b(monkeypatch, k):
    # on a constant diagonal B > 0 the two oscillation criteria count the
    # zeros of one Riccati equation (the gauge w~ = b_j w), so in analyze
    # the PSD one reads the diagonal one's scalar flows instead of its own
    window = (0.0, 30.0)
    a, c = _twin_blocks(k)
    s = const_scenario(a, np.diag([0.5, 2.0]), c, name=f"twin_k{k:g}")
    calls = _count_scalar_tests(monkeypatch)
    res = criteria.analyze(s, window)
    in_analyze, calls[0] = calls[0], 0
    own = criteria.oscillation_from_psd_reduction(s, window)
    criteria.oscillation_from_diagonal(s, window)
    assert 2 * in_analyze == calls[0] > 0
    diag, psd = res.reports[0], res.reports[3]
    assert diag.verdict.kind == psd.verdict.kind == own.verdict.kind == criteria.OSCILLATORY
    assert "gauge" in psd.verdict.notes and "gauge" not in own.verdict.notes
    assert psd.applicability == own.applicability
    shared = [key for key in psd.witnesses if key.startswith("scalar_")]
    assert shared == [key for key in own.witnesses if key.startswith("scalar_")]
    for key in shared:
        assert psd.witnesses[key] is diag.witnesses[key]
        _zeros_close(own.witnesses[key], psd.witnesses[key])


def test_psd_twin_keeps_its_own_flows_on_a_varying_b(monkeypatch):
    # P14's varying B: the gauge holds there too, but the PSD flow is
    # also where a B that leaves PSD between samples is caught, so the
    # twin still integrates its own equations
    window = (0.0, 30.0)
    a, c = _twin_blocks(1.0)

    def b_and_db(t):
        b = np.diag([1.0 + 0.5 * math.sin(t), 2.0 + math.cos(1.3 * t)])
        return b, np.diag([0.5 * math.cos(t), -1.3 * math.sin(1.3 * t)])

    s = _varying_b_scenario("twin_varying_b", a, c, b_and_db)
    assert {"B_diagonal", "B_positive"} <= coefsys.validate_scenario(s, window).tags
    calls = _count_scalar_tests(monkeypatch)
    res = criteria.analyze(s, window)
    in_analyze, calls[0] = calls[0], 0
    criteria.oscillation_from_diagonal(s, window)
    criteria.oscillation_from_psd_reduction(s, window)
    assert in_analyze == calls[0] > 0
    diag, psd = res.reports[0], res.reports[3]
    assert diag.verdict.kind == psd.verdict.kind == criteria.OSCILLATORY
    assert "gauge" not in psd.verdict.notes
    assert psd.witnesses["scalar_1"] is not diag.witnesses["scalar_1"]
    _zeros_close(psd.witnesses["scalar_1"], diag.witnesses["scalar_1"])


# ---------------------------------------------------------------------------
# Options plumbing.


def test_options_from_dict_rejects_unknown():
    # options take their field names only: no aliases, and the removed
    # sandwich override and burn-in fraction are unknown names
    for raw in (
        {"nope": 1},
        {"F_override": "mystery"},
        {"F_override": "sqrt2_identity"},
        {"f_override": None},
        {"ε_zero": 1e-6},
        {"burn_in": 0.1},
    ):
        with pytest.raises(ValueError):
            criteria.AnalysisOptions.from_dict(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"n_min": "5"}, {"n_min": 0}, {"n_min": True}, {"n_min": 2.5},
        {"max_points": -1}, {"max_points": None},
        {"n_starts": 0}, {"n_starts": False},
        {"rtol": 0.0}, {"rtol": -1e-8}, {"rtol": "1e-8"}, {"rtol": True},
        {"atol": math.inf}, {"eps_zero": math.nan}, {"eps_zero": None},
        {"seed": 1.5}, {"seed": "42"}, {"seed": True},
        {"sign_convention": "bogus"}, {"sign_convention": None},
        {"sim_window": [5, 1]}, {"sim_window": [1.0, 1.0]}, {"sim_window": [0.0]},
        {"sim_window": [0.0, "a"]}, {"sim_window": [0.0, None]},
        {"sim_window": [0.0, math.inf]}, {"sim_window": 5}, {"sim_window": "ab"},
    ],
)
def test_options_reject_bad_values(raw):
    with pytest.raises(ValueError):
        criteria.AnalysisOptions.from_dict(raw)


def test_options_accept_good_values():
    opt = criteria.AnalysisOptions.from_dict(
        {"n_min": np.int64(3), "rtol": 1, "seed": -7, "sim_window": [0, 60]}
    )
    assert opt.sim_window == (0.0, 60.0) and isinstance(opt.sim_window[0], float)
    assert replace(opt, sign_convention="plus_c12").sign_convention == "plus_c12"
    with pytest.raises(ValueError):
        replace(opt, n_starts=0)


def test_analyze_calls_each_criterion_with_the_options_object(monkeypatch):
    # analyze looks the criteria up on the module, which tracing relies
    # on: a patched criterion must be the one called, with (s, window, opt)
    calls = {}
    for name in ("nonoscillation_sign_split", "oscillation_from_psd_reduction"):
        inner = getattr(criteria, name)

        def recording(*args, inner=inner, name=name, **kwargs):
            calls.setdefault(name, []).append((args, kwargs))
            return inner(*args, **kwargs)

        monkeypatch.setattr(criteria, name, recording)
    window = (0.0, 20.0)
    opt = criteria.AnalysisOptions(n_min=3, max_points=16, rtol=1e-7, atol=1e-9)
    res = criteria.analyze(coefsys.make_family("harmonic", {}), window, opt)
    assert res.verdict.kind == criteria.OSCILLATORY
    assert sorted(calls) == ["nonoscillation_sign_split", "oscillation_from_psd_reduction"]
    for (((s, w, o), _),) in calls.values():
        assert s.name == "harmonic" and w == window and o is opt
    # every criterion is handed the one validation report, and the PSD
    # oscillation test alone also the diagonal report
    (split_kw,) = (kw for _, kw in calls["nonoscillation_sign_split"])
    (psd_kw,) = (kw for _, kw in calls["oscillation_from_psd_reduction"])
    assert list(split_kw) == ["checks"] and sorted(psd_kw) == ["checks", "diagonal"]
    assert psd_kw["checks"] is split_kw["checks"]
    assert psd_kw["diagonal"] is res.reports[0]


# ---------------------------------------------------------------------------
# Aggregation.


def _fake_report(cid, kind):
    v = criteria.Verdict(kind, cid if kind != criteria.INCONCLUSIVE else "", (0.0, 1.0))
    return criteria.CriterionReport(cid, v, {}, ())


def test_resolver_picks_first_decisive():
    allinc = [_fake_report(c, criteria.INCONCLUSIVE) for c in criteria.CRITERION_ORDER]
    verdict, conflict = criteria.resolve_reports(allinc)
    assert verdict.kind == criteria.INCONCLUSIVE and not conflict
    decided = [_fake_report(criteria.OSC_DIAG, criteria.OSCILLATORY)] + allinc[1:]
    verdict, conflict = criteria.resolve_reports(decided)
    assert verdict.kind == criteria.OSCILLATORY
    assert verdict.criterion == criteria.OSC_DIAG
    assert not conflict


def test_resolver_flags_contradiction():
    reports = [
        _fake_report(criteria.OSC_DIAG, criteria.OSCILLATORY),
        _fake_report(criteria.NONOSC_SPLIT, criteria.NON_OSCILLATORY),
    ] + [_fake_report(c, criteria.INCONCLUSIVE) for c in criteria.CRITERION_ORDER[2:]]
    _, conflict = criteria.resolve_reports(reports)
    assert conflict


def test_analyze_surfaces_contradiction(monkeypatch):
    inconclusive_rest = [
        _fake_report(c, criteria.INCONCLUSIVE) for c in criteria.CRITERION_ORDER[2:]
    ]
    conflicting = [
        _fake_report(criteria.OSC_DIAG, criteria.OSCILLATORY),
        _fake_report(criteria.NONOSC_SPLIT, criteria.NON_OSCILLATORY),
    ]
    # a non-oscillation criterion answering Oscillatory breaks its direction
    wrong_direction = [
        _fake_report(criteria.OSC_DIAG, criteria.INCONCLUSIVE),
        _fake_report(criteria.NONOSC_SPLIT, criteria.OSCILLATORY),
    ]
    s = const_scenario(Z2, Z2, Z2, name="forced")
    for head in (conflicting, wrong_direction):
        reports = tuple(head + inconclusive_rest)
        monkeypatch.setattr(criteria, "_run_criteria", lambda s, w, o: reports)
        before = len(criteria.CONFLICT_LOG)
        try:
            with pytest.raises(criteria.CriteriaConflict):
                criteria.analyze(s, (0.0, 1.0))
            assert len(criteria.CONFLICT_LOG) == before + 1
            assert criteria.CONFLICT_LOG[-1]["scenario"] == "forced"
        finally:
            # keep the global log clean for the rest of the suite
            del criteria.CONFLICT_LOG[before:]


def test_hypothesis_failing_inside_a_criterion_is_inconclusive():
    window = (0.0, 10.0)
    # b11 = -3 at one knot: validation reads the table's knots as well as
    # its grid, so analyze's tags withhold B_psd and B_positive
    dip = _spiked_table("b11_dip", I2, -I2, 1, -3.0)
    assert not {"B_psd", "B_positive"} & coefsys.validate_scenario(dip, window).tags
    # b11 = cos(51 pi t) reads 1 at every point of the 256-point grid on
    # (0, 10) and is negative between them: the square root inside the
    # PSD reduction's flow meets the indefinite B
    w = 51.0 * math.pi
    between = _varying_b_scenario(
        "between_samples", Z2, -I2,
        lambda t: (np.diag([math.cos(w * t), 1.0]), np.diag([-w * math.sin(w * t), 0.0])),
    )
    assert "B_psd" in coefsys.validate_scenario(between, window).tags
    for s in (dip, between):
        res = criteria.analyze(s, window)
        assert res.verdict.kind == criteria.INCONCLUSIVE, s.name
        for cid in (criteria.OSC_PSD, criteria.NONOSC_PSD_ENVELOPE):
            psd = res.reports[criteria.CRITERION_ORDER.index(cid)]
            assert psd.criterion == cid
            ((hypothesis, held, detail),) = psd.applicability
            assert hypothesis == "B positive semidefinite" and not held, (s.name, cid)
    psd = res.reports[criteria.CRITERION_ORDER.index(criteria.OSC_PSD)]
    assert psd.applicability[0][2].startswith("eigenvalues")


def test_step_budget_is_a_named_inconclusive_row(monkeypatch):
    # 10 step attempts end harmonic's scalar flows early (each takes
    # about 16 steps on this window); the diagonal report then holds no
    # scalar_1, so the PSD twin runs its own flow, which meets the same
    # budget
    monkeypatch.setattr(odeint, "_MAX_STEPS", 10)
    res = criteria.analyze(coefsys.make_family("harmonic", {}), (0.0, 20.0))
    assert res.verdict.kind == criteria.INCONCLUSIVE
    for cid in (criteria.OSC_DIAG, criteria.OSC_PSD):
        ((hypothesis, held, detail),) = res.reports[criteria.CRITERION_ORDER.index(cid)].applicability
        assert hypothesis == "flow within the step budget" and not held
        assert "step budget of 10" in detail


def test_analyze_reports_in_fixed_order():
    s = const_scenario(Z2, Z2, Z2, name="allzero")
    res = criteria.analyze(s, (0.0, 20.0))
    assert res.verdict.kind == criteria.NON_OSCILLATORY
    assert res.verdict.criterion == criteria.NONOSC_SPLIT
    assert tuple(r.criterion for r in res.reports) == criteria.CRITERION_ORDER


# ---------------------------------------------------------------------------
# Simulation cross-validation.


@pytest.mark.parametrize(
    "family, params, counts",
    [
        ("harmonic", {}, [32, 32, 64, 64, 64]),
        ("ones_B_zero_drift", {"c_sum": -1.0}, [32, 31, 32, 32, 32]),
    ],
)
def test_simulation_matches_the_exact_constant_focal_points(family, params, counts):
    # the packaged harmonic and example_3_2_zero_drift on (0, 100). On
    # harmonic, Phi is cos t I from (I, 0) and (cos t + sin t) I from
    # (I, I), with double zeros; on zero_drift, det Phi is cos t and
    # cos t + 2 sin t, with simple ones
    s = coefsys.make_family(family, params)
    assert _simulate_against_exact(s, (0.0, 100.0)) == counts


def _simulate_against_exact(s, window):
    """simulate_starts' five starts against constant_focal_points, zero by
    zero (multiplicity, and time within 1e-6 (1 + |t|)); their counts."""
    # simulate_starts' own: (I, 0), (I, I), then Psi0 drawn with seed 42
    eye = np.eye(2, dtype=complex)
    rng = np.random.default_rng(42)
    starts = [(eye, 0.0 * eye), (eye, eye)]
    starts += [(eye, mat2.random_hermitian(rng, 1.0)) for _ in range(3)]
    sims = list(criteria.simulate_starts(s, window, len(starts)))
    for (label, _, zeros), (phi0, psi0) in zip(sims, starts):
        try:
            exact = constant_focal_points(s, phi0, psi0, window)
        except ValueError as exc:  # det U turns fast: finer cells
            if "raise cells_per_unit" not in str(exc):
                raise
            exact = constant_focal_points(s, phi0, psi0, window, cells_per_unit=100)
        assert [z.multiplicity for z in zeros] == [m for _, m in exact], (s.name, label)
        for z, (t, _) in zip(zeros, exact):
            assert abs(z.time - t) <= 1e-6 * (1.0 + abs(t)), (s.name, label, z.time, t)
    return [len(zeros) for _, _, zeros in sims]


def test_cross_validation_agrees_on_harmonic():
    s = coefsys.make_family("harmonic", {})
    analysis = criteria.analyze(s, (0.0, 40.0))
    assert analysis.verdict.kind == criteria.OSCILLATORY
    cv = criteria.cross_validate(s, (0.0, 40.0), analysis=analysis)
    assert cv.sim_outcome == "SIM-oscillatory"
    assert cv.consistent
    assert all(len(rec.zeros) >= 2 for rec in cv.starts)

    # a simulation window too short to see even one zero has to be
    # reported as a window problem, not silently accepted
    opt = criteria.AnalysisOptions(sim_window=(0.0, 1.0))
    short = criteria.cross_validate(s, (0.0, 40.0), options=opt, analysis=analysis)
    assert short.sim_outcome == "SIM-nonoscillatory"
    assert not short.consistent
    assert short.notes == "window too short for the zero recurrence rule"


def _harmonic_sim_zeros(**kwargs):
    """Zero times per start of cross_validate on harmonic over (0, 10)."""
    s, window = coefsys.make_family("harmonic", {}), (0.0, 10.0)
    analysis = criteria.analyze(s, window)
    cv = criteria.cross_validate(s, window, analysis=analysis, **kwargs)
    return {r.label: r.zeros for r in cv.starts}


def test_cross_validation_arguments_replace_options():
    opt = criteria.AnalysisOptions()
    tight = _harmonic_sim_zeros(n_starts=2, eps_zero=1e-30, options=opt)
    assert tight == _harmonic_sim_zeros(n_starts=2, eps_zero=1e-30)
    assert tight != _harmonic_sim_zeros(n_starts=2, options=opt)


def test_cross_validation_reads_options_without_arguments():
    few = _harmonic_sim_zeros(options=criteria.AnalysisOptions(n_starts=3, seed=7))
    assert list(few) == ["I,0", "I,I", "rand0"]
    assert few == _harmonic_sim_zeros(n_starts=3, seed=7)
    assert few != _harmonic_sim_zeros(n_starts=3)


def test_cross_validation_start_count_validation():
    with pytest.raises(ValueError):
        criteria.cross_validate(coefsys.make_family("harmonic", {}), (0.0, 10.0), n_starts=0)


# ---------------------------------------------------------------------------
# Randomized no-conflict campaign.


def _load_draws():
    """The benchmark's campaign draw generator, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_draws", DRAWS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_simulation_matches_the_exact_focal_points_on_constant_draws():
    # the constant-coefficient classes 0-5 of the first 40 campaign draws
    # on the campaign's window, indefinite B (class 1) and rank-one B
    # (class 3) included
    draws = [s for cls, s in _load_draws().campaign_draws(20260816, 40) if cls <= 5]
    assert len(draws) == 30
    counts = [_simulate_against_exact(s, (0.0, 5.0)) for s in draws]
    # 344 zero times over the 150 starts; 24 starts turn too fast for the
    # oracle's default cells
    assert sum(map(sum, counts)) == 344


def test_start_zero_counts_agree_within_two_on_wavy_draws():
    # Sturm comparison: under B > 0 the focal-point counts of any two
    # conjoined bases on the window differ by at most n = 2 (Reid 1980),
    # so the detector's counts for the five starts must too. Classes 6-7
    # of the first 40 campaign draws have constant diagonal B > 0 and a
    # varying C, the draws without an exact count.
    draws = [s for cls, s in _load_draws().campaign_draws(20260816, 40) if cls >= 6]
    assert len(draws) == 10
    window = (0.0, 5.0)
    for s in draws:
        assert "B_positive" in coefsys.validate_scenario(s, window).tags, s.name
        counts = [len(zeros) for _, _, zeros in criteria.simulate_starts(s, window, 5)]
        assert max(counts) - min(counts) <= 2, (s.name, counts)


def test_campaign_never_conflicts():
    # 200 random constant and slowly varying draws; the one-directional
    # criteria must never contradict each other on any of them
    opts = criteria.AnalysisOptions(rtol=1e-6, atol=1e-8, n_min=3, max_points=16)
    before = len(criteria.CONFLICT_LOG)
    kinds = {criteria.OSCILLATORY: 0, criteria.NON_OSCILLATORY: 0, criteria.INCONCLUSIVE: 0}
    for _cls, s in _load_draws().campaign_draws(20260816, 200):
        res = criteria.analyze(s, (0.0, 5.0), opts)
        kinds[res.verdict.kind] += 1
    assert len(criteria.CONFLICT_LOG) == before
    assert sum(kinds.values()) == 200
    # the draws are built so both decisive answers occur in bulk
    assert kinds[criteria.OSCILLATORY] >= 30
    assert kinds[criteria.NON_OSCILLATORY] >= 30
