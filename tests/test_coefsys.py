"""Tests for coefficient families, tabulated scenarios, and derivatives."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from hamosc import cli, coefsys, criteria, mat2
from conftest import const_scenario
from oracles import as_blocks, central_difference, per_sample_validate_scenario

I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# Parametric families.


def test_harmonic_family():
    s = coefsys.make_family("harmonic", {})
    a, b, c = as_blocks(s.eval(3.7))
    assert mat2.norm_max(a) == 0.0
    assert mat2.norm_max(b - I2) == 0.0
    assert mat2.norm_max(c + I2) == 0.0
    assert coefsys.validate_scenario(s, (0.0, 1.0)).tags == {"B_diagonal", "B_psd", "B_positive"}
    assert s.family == "harmonic"


def test_euler_family_values_and_derivative():
    s = coefsys.make_family("euler", {"c": 2.5})
    _, _, c = as_blocks(s.eval(1.0))
    assert mat2.norm_max(c + 2.5 * I2) <= 1e-14
    # the derivative of C = -(c / t^2) I at t = 1 is 2c I
    da, db, dc = as_blocks(s.analytic_derivatives(1.0))
    assert mat2.norm_max(dc - 5.0 * I2) <= 1e-12
    assert mat2.norm_max(da) == 0.0 and mat2.norm_max(db) == 0.0


def test_vector_schrodinger_family():
    s = coefsys.make_family("vector_schrodinger", {})
    a, b, c = as_blocks(s.eval(0.0))
    assert mat2.norm_max(a) == 0.0 and mat2.norm_max(b - I2) == 0.0
    expected = np.array([[0.0, -10.0j], [10.0j, 0.0]])
    assert mat2.norm_max(c - expected) <= 1e-14
    assert "B_positive" in coefsys.validate_scenario(s, (0.0, 10.0)).tags
    # the C diagonal picks up t^2 growth
    _, _, c5 = s.eval(5.0)
    assert abs(c5[3] - 25.0) <= 1e-12


def test_param_aliases_and_misspellings_rejected():
    # a name the family does not resolve raises instead of leaving the
    # parameter it meant at its default
    for family, params in (
        ("vector_schrodinger", {"λ1": 2.0}),
        ("vector_schrodinger", {"lambda1": 2.0, "theta1": 0.25}),
        ("ones_B_euler", {"alpha": 0.5, "α": 0.5}),
        ("diag_B", {"b1": 1.0, "b2": 1.0, "a12": 0.5}),
        ("harmonic", {"c": 1.0}),
    ):
        with pytest.raises(ValueError, match="has no parameter"):
            coefsys.make_family(family, params)
    s = coefsys.make_family("vector_schrodinger", {"lam1": 2.0, "theta1": 0.25})
    assert s.params["lam1"] == 2.0
    assert s.params["theta1"] == 0.25
    d = coefsys.make_family("diag_B", {"b1": 1.0, "b2": 1.0, "a12_re": 0.5})
    assert len(d.params) == 12
    assert d.eval(0.0)[0][1] == 0.5


def test_ones_b_euler_family():
    s = coefsys.make_family("ones_B_euler", {"alpha": 0.5})
    a, b, c = as_blocks(s.eval(1.0))
    assert abs(a[0, 0] + a[0, 1] - 0.5) <= 1e-14  # row sum = alpha
    assert abs(a[1, 0] + a[1, 1] - 0.5) <= 1e-14
    assert mat2.norm_max(b - np.ones((2, 2))) == 0.0
    assert abs(c[0, 0] + 2.0 * np.real(c[0, 1]) + c[1, 1] - 0.25) <= 1e-14
    # rank-one B: semidefinite but not strictly positive
    tags = coefsys.validate_scenario(s, (1.0, 10.0)).tags
    assert "B_psd" in tags and "B_positive" not in tags
    # B is constant, so the derivative of its square root is exactly 0
    _, _, droot = mat2._psd_root(s.eval(2.0)[1], s.analytic_derivatives(2.0)[1])
    assert droot == (0j, 0j, 0j, 0j)


def test_family_errors():
    with pytest.raises(coefsys.UnknownFamily):
        coefsys.make_family("no_such_family", {})
    with pytest.raises(coefsys.MissingParam):
        coefsys.make_family("euler", {})
    with pytest.raises(coefsys.MissingParam):
        coefsys.make_family("diag_B", {"b1": 1.0})


def test_analytic_derivatives_match_finite_differences():
    # every family's wired A', B', C' against central differences on 100 points
    cases = [
        coefsys.make_family("harmonic", {}),
        coefsys.make_family("euler", {"c": 1.7}),
        coefsys.make_family(
            "diag_B", {"b1": 1.0, "b2": -0.5, "a12_im": 0.5, "c11": -1.0, "c12_re": 0.3}
        ),
        coefsys.make_family("vector_schrodinger", {"p1": 0.8, "lam2": 2.2}),
        coefsys.make_family("ones_B_zero_drift", {"c_sum": -1.0}),
        coefsys.make_family("ones_B_euler", {"alpha": 0.3}),
        coefsys.make_family("ones_B_alpha_conditions", {"a0": 0.5, "a1": 0.2, "s0": -1.0}),
    ]
    assert {s.family for s in cases} == set(coefsys.FAMILIES)
    rng = np.random.default_rng(21)
    for s in cases:
        ts = s.t0 + rng.uniform(0.05, 10.0, 100)
        for k, which in enumerate("ABC"):
            for t in ts:
                ana = s.analytic_derivatives(float(t))[k]
                num = central_difference(lambda u: s.eval(u)[k], float(t))
                assert mat2.norm_max(ana - num) <= 1e-6 * (
                    1.0 + mat2.norm_max(ana)
                ), (s.name, which, t)


# ---------------------------------------------------------------------------
# The read form: three row-major entry 4-tuples of Python complexes.

_ONE_OF_EACH = {
    "harmonic": {},
    "euler": {"c": 2.5},
    "diag_B": {"b1": 1.0, "b2": -0.5, "a12_im": 0.5, "c11": -1.0, "c12_re": 0.3},
    "vector_schrodinger": {},
    "ones_B_zero_drift": {"c_sum": -1.0},
    "ones_B_euler": {"alpha": 0.5},
    "ones_B_alpha_conditions": {"a0": 1.0, "a1": 0.5, "s0": -1.0},
}


def _is_entry_read(read) -> bool:
    return (
        type(read) is tuple
        and len(read) == 3
        and all(type(m) is tuple and len(m) == 4 for m in read)
        and all(type(e) is complex for m in read for e in m)
    )


def test_every_read_is_three_entry_tuples():
    assert set(_ONE_OF_EACH) == set(coefsys.FAMILIES)
    scenarios = [coefsys.make_family(fam, params) for fam, params in _ONE_OF_EACH.items()]
    times = np.linspace(0.0, 2.0, 5)
    samples = np.stack([np.stack([0.1 * t * I2, I2, -(1.0 + t) * I2]) for t in times])
    scenarios.append(coefsys.from_table(coefsys.TabulatedCoeffs(times=times, samples=samples)))
    scenarios.append(const_scenario(np.zeros((2, 2)), np.eye(2), -np.eye(2)))
    for s in scenarios:
        for t in (s.t0, s.t0 + 0.7, s.t0 + 2.0):
            assert _is_entry_read(s.eval(t)), (s.name, t)
            assert _is_entry_read(s.analytic_derivatives(t)), (s.name, t)


def test_numpy_blocks_are_converted_once_when_built():
    reads = []

    def ev(t):
        reads.append(t)
        return np.zeros((2, 2)), np.eye(2), np.array([[-1.0, 0.5j], [-0.5j, -2.0]])

    def dv(t):
        return np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))

    s = coefsys.Scenario(name="arrays", t0=0.5, eval=ev, analytic_derivatives=dv)
    assert reads == [0.5]  # the one read that finds the form
    assert s.eval(1.0) == ((0j,) * 4, (1 + 0j, 0j, 0j, 1 + 0j), (-1 + 0j, 0.5j, -0.5j, -2 + 0j))
    assert _is_entry_read(s.analytic_derivatives(1.0))
    # a replaced Scenario keeps the converter as it is, and a wrapper of
    # the converted read (as a tracing copy makes) stays in entry form;
    # each build reads once more, at t0
    assert replace(s, name="again").eval is s.eval
    wrapped = replace(s, eval=lambda t: s.eval(t))
    assert _is_entry_read(wrapped.eval(1.0))
    assert reads == [0.5, 1.0, 0.5, 0.5, 1.0]


def _entry_twin(a, b, c):
    """Constant coefficients written straight into entry 4-tuples."""
    blocks = tuple(tuple(complex(e) for e in np.asarray(m, complex).ravel()) for m in (a, b, c))
    return coefsys.Scenario(
        name="twin", t0=0.0, eval=lambda t: blocks, analytic_derivatives=lambda t: ((0j,) * 4,) * 3
    )


def test_numpy_block_twin_analyzes_and_simulates_as_its_entry_twin():
    # a diagonal B > 0 with coupling (the diagonal criterion fires) and a
    # rank-one B (the reduction's criterion fires); both twins read the
    # same doubles, so reports and zero records are equal, not close
    opt = criteria.AnalysisOptions(rtol=1e-6, atol=1e-8, n_min=3, max_points=16)
    v = np.array([1.0, 0.5j])
    cases = [
        (np.array([[0.1, 0.3 + 0.2j], [-0.2j, -0.1]]), np.diag([1.0, 0.6]),
         np.array([[-4.0, 0.5 + 0.5j], [0.5 - 0.5j, -3.0]])),
        (0.2 * np.eye(2), np.outer(v, v.conj()), np.array([[-9.0, 0.2], [0.2, -6.0]])),
    ]
    for a, b, c in cases:
        outcomes = []
        for s in (const_scenario(a, b, c, name="twin"), _entry_twin(a, b, c)):
            result = criteria.analyze(s, (0.0, 4.0), opt)
            payload = cli.report_payload(result, {})
            del payload["generated_at"]
            zeros = [
                (label, [(z.time, z.residual, z.multiplicity) for z in found])
                for label, _, found in criteria.simulate_starts(s, (0.0, 4.0), 3)
            ]
            outcomes.append((result.verdict.kind, json.dumps(payload, sort_keys=True), zeros))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == criteria.OSCILLATORY
        assert all(len(found) == 4 for _, found in outcomes[0][2])


# ---------------------------------------------------------------------------
# Tabulated scenarios.


def _const_table(times, a, b, c):
    samples = np.stack([np.stack([a, b, c]) for _ in times])
    return coefsys.TabulatedCoeffs(times=np.asarray(times, float), samples=samples)


def test_from_table_constant_nodes_exact():
    a = np.array([[0.3, 1.0 + 2.0j], [0.5 - 0.25j, -0.7]])
    c = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    tab = _const_table([0.0, 0.5, 1.0, 1.5, 2.0], a, np.eye(2), c)
    s = coefsys.from_table(tab)
    for t in tab.times:
        av, bv, cv = as_blocks(s.eval(float(t)))
        assert mat2.norm_max(av - a) == 0.0
        assert mat2.norm_max(bv - np.eye(2)) == 0.0
        assert mat2.norm_max(cv - c) == 0.0
    assert coefsys.validate_scenario(s, (0.0, 2.0)).tags == {"B_diagonal", "B_psd", "B_positive"}
    assert s.domain_end == 2.0


def test_from_table_reproduces_linear_data():
    times = np.linspace(0.0, 2.0, 5)
    a = np.array([[0.3, 1.0 + 2.0j], [0.5 - 0.25j, -0.7]])
    c = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    samples = np.stack([np.stack([a * t, np.eye(2) + 0j, c * (1 + t)]) for t in times])
    s = coefsys.from_table(coefsys.TabulatedCoeffs(times=times, samples=samples))
    av, _, cv = as_blocks(s.eval(0.75))
    assert mat2.norm_max(av - 0.75 * a) <= 1e-12
    assert mat2.norm_max(cv - 1.75 * c) <= 1e-12
    da, db, dc = as_blocks(s.analytic_derivatives(0.75))
    assert mat2.norm_max(da - a) <= 1e-12
    assert mat2.norm_max(db) <= 1e-12
    assert mat2.norm_max(dc - c) <= 1e-12


def test_from_table_rejects_non_hermitian_sample():
    bad_c = np.array([[1.0, 1.0], [0.0, 1.0]])
    tab = _const_table([0.0, 1.0, 2.0], np.zeros((2, 2)), np.eye(2), bad_c)
    with pytest.raises(mat2.NotHermitian) as exc:
        coefsys.from_table(tab)
    assert exc.value.which == "C"


def test_from_table_no_extrapolation():
    tab = _const_table([1.0, 2.0, 3.0], np.zeros((2, 2)), np.eye(2), np.eye(2))
    s = coefsys.from_table(tab)
    with pytest.raises(coefsys.OutOfDomain):
        s.eval(0.9)
    with pytest.raises(coefsys.OutOfDomain):
        s.eval(3.2)
    s.eval(3.0 + 1e-13)  # within the domain slack
    # the spline derivatives check the domain the same way
    for t in (0.9, 3.2):
        with pytest.raises(coefsys.OutOfDomain):
            s.analytic_derivatives(t)
    s.analytic_derivatives(3.0 + 1e-13)


def test_table_validation():
    with pytest.raises(ValueError):
        coefsys.TabulatedCoeffs(
            times=np.array([0.0]), samples=np.zeros((1, 3, 2, 2), complex)
        )
    with pytest.raises(ValueError):
        coefsys.TabulatedCoeffs(
            times=np.array([0.0, 0.0]), samples=np.zeros((2, 3, 2, 2), complex)
        )


def test_load_table_csv_round_trip(tmp_path):
    times = [0.0, 1.0, 2.0]
    a = np.array([[0.1, 0.2 + 0.3j], [-0.4j, 0.5]])
    b = np.diag([1.0, 2.0]).astype(complex)
    c = np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, -2.0]])
    lines = [",".join(coefsys.CSV_COLUMNS)]
    for t in times:
        vals = [t]
        for m in (a, b, c):
            for entry in m.reshape(-1):
                vals.extend([float(np.real(entry)), float(np.imag(entry))])
        lines.append(",".join(repr(v) for v in vals))
    path = tmp_path / "coeffs.csv"
    path.write_text("\n".join(lines) + "\n")

    tab = coefsys.load_table_csv(path)
    assert np.array_equal(tab.times, np.asarray(times))
    assert np.array_equal(tab.samples[1, 0], a)
    assert np.array_equal(tab.samples[1, 1], b)
    assert np.array_equal(tab.samples[1, 2], c)

    bad = tmp_path / "bad.csv"
    bad.write_text("t,a11\n0.0,1.0\n")
    with pytest.raises(ValueError, match="bad CSV header"):
        coefsys.load_table_csv(bad)


# ---------------------------------------------------------------------------
# Validation and tags.


def test_validate_scenario_tag_soundness():
    pos = coefsys.make_family("diag_B", {"b1": 1.0, "b2": 2.0})
    rep = coefsys.validate_scenario(pos, (0.0, 1.0))
    assert rep.tags == {"B_diagonal", "B_psd", "B_positive"}

    semi = coefsys.make_family("diag_B", {"b1": 1.0, "b2": 0.0})
    rep = coefsys.validate_scenario(semi, (0.0, 1.0))
    assert "B_psd" in rep.tags and "B_positive" not in rep.tags

    indef = coefsys.make_family("diag_B", {"b1": 1.0, "b2": -1.0})
    rep = coefsys.validate_scenario(indef, (0.0, 1.0))
    assert "B_psd" not in rep.tags and "B_positive" not in rep.tags


def test_validate_scenario_rejects_non_hermitian_c():
    bad = const_scenario(
        np.zeros((2, 2)), np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])
    )
    with pytest.raises(mat2.NotHermitian):
        coefsys.validate_scenario(bad, (0.0, 1.0))


def _validation_outcome(validate, s, window):
    """The report, or what NotHermitian said and where."""
    try:
        return validate(s, window)
    except mat2.NotHermitian as exc:
        return ("NotHermitian", exc.t, exc.which, str(exc))


def _validation_draw(rng, k):
    """Seeded coefficients over the tag boundaries, some of them varying
    in time, and every fifth one turning non-Hermitian part-way."""
    def cplx(scale):
        return (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * scale

    def herm(scale):
        g = cplx(scale)
        return 0.5 * (g + g.conj().T)

    a = cplx(0.5) if k % 3 else cplx(0.5).real.astype(complex)
    kind = k % 5
    if kind == 0:
        b = np.diag(rng.uniform(-1.0, 2.0, 2)).astype(complex)
    elif kind == 1:
        g = cplx(1.0)
        b = g @ g.conj().T
    elif kind == 2:
        v = cplx(1.0)[:, :1]
        b = v @ v.conj().T
    elif kind == 3:
        b = herm(1.0)
    else:
        b = np.diag([1.0, 0.0]).astype(complex) + 1e-11 * herm(1.0)
    c = herm(1.0) if k % 2 else herm(1.0).real.astype(complex)
    db, w = herm(0.3), rng.uniform(0.5, 3.0)
    varying = k % 4 == 1
    onset = rng.uniform(0.0, 1.0) if k % 5 == 4 else np.inf
    skew = rng.choice([1e-3, 1e-9, 1e-12]) * np.array([[0.0, 1.0], [0.0, 0.0]])
    skewed = ((0,), (1,), (0, 1))[k % 3]  # B, C or both from the onset on

    def ev(t):
        bt = b + np.sin(w * t) * db if varying else b.copy()
        ct = c.copy()
        if t >= onset:
            for i in skewed:
                (bt, ct)[i][...] += skew
        return a.copy(), bt, ct

    def dv(t):
        z = np.zeros((2, 2), complex)
        return z, w * np.cos(w * t) * db if varying else z.copy(), z.copy()

    return coefsys.Scenario(name=f"draw{k}", t0=0.0, eval=ev, analytic_derivatives=dv)


def _spiked(block, value):
    times = np.linspace(0.0, 10.0, 1001)
    samples = np.zeros((len(times), 3, 2, 2), dtype=complex)
    samples[:, 1] = np.eye(2)
    samples[:, 2] = -np.eye(2) if block == 1 else np.eye(2) / 4.0
    samples[300, block, 0, 0] = value
    return coefsys.from_table(coefsys.TabulatedCoeffs(times=times, samples=samples))


def test_validation_matches_per_sample_reference(rng):
    # the stacked checks against the parent's one-sample-at-a-time loop:
    # tags, where each withheld tag was first refuted and by what value,
    # and the sample NotHermitian names
    cases = [
        (coefsys.make_family(fam, params), window)
        for fam, params, window in (
            ("harmonic", {}, (0.0, 100.0)),
            ("euler", {"c": 2.5}, (1.0, 50.0)),
            ("diag_B", {"b1": 1.0, "b2": 0.0, "a12_im": 0.5}, (0.0, 1.0)),
            ("diag_B", {"b1": 1.0, "b2": -1.0, "c12_re": 0.3}, (0.0, 1.0)),
            ("vector_schrodinger", {}, (0.0, 200.0)),
            ("ones_B_zero_drift", {"c_sum": -1.0}, (0.0, 100.0)),
            ("ones_B_euler", {"alpha": 0.5}, (1.0, 1000.0)),
            ("ones_B_alpha_conditions", {"a0": 1.0, "a1": 0.5, "s0": -1.0}, (0.0, 10.0)),
        )
    ]
    # ROADMAP probes P2 (a one-knot c11 spike) and P3 (b11 = -3 at one knot)
    cases += [(_spiked(2, -2000.0), (0.0, 10.0)), (_spiked(1, -3.0), (0.0, 10.0))]
    cases += [(_validation_draw(rng, k), (0.0, 1.0)) for k in range(50)]
    raised, refuted = 0, set()
    for s, window in cases:
        got = _validation_outcome(coefsys.validate_scenario, s, window)
        want = _validation_outcome(per_sample_validate_scenario, s, window)
        assert got == want, s.name
        raised += isinstance(want, tuple)
        if not isinstance(want, tuple):
            refuted.update(tag for tag, _, _ in want.refuted)
    assert raised >= 5
    assert refuted == {"B_diagonal", "B_psd", "B_positive"}
