"""Tracing of the hamosc layers from outside the package.

A Tracer replaces public functions of ``mat2``, ``coefsys``, ``odeint``,
``riccati`` and ``criteria`` with timing wrappers in every hamosc module
namespace that holds them, so calls resolve to the wrapper whichever
module the caller looks the name up in. ``Tracer.scenario`` wraps a
scenario's ``eval`` the same way. Solver entry points and everything
above them become spans (name, start, end, parent span, op id), kept in
memory; the per-point functions (``eval``, integrator field callbacks,
the ``mat2`` kernels, ``coefsys`` helpers) are only counted and summed,
since they run millions of times per pass.

Every wrapper frame sits on one stack, so each name also gets a self
time: its duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from hamosc import cli, coefsys, criteria, mat2, odeint, riccati
import hamosc

# per-point kernels the criteria and validation call; the other mat2
# helpers (norm_max, adjoint, ...) run inside every integrator stage and
# feed no layer metric, so they stay unwrapped
MAT2_KERNELS = ("is_psd", "is_hermitian", "sqrt_psd", "solve_sandwich", "random_hermitian")
ODEINT_SOLVERS = (
    "adaptive_solve",
    "quadrature",
    "solve_hamiltonian",
    "solve_hamiltonian_frame",
    "solve_scalar_riccati",
    "solve_matrix_riccati",
    "detect_det_zeros",
)
NAMESPACES = (hamosc, cli, coefsys, criteria, mat2, odeint, riccati)

CRITERION_FUNCS = {
    "oscillation_from_diagonal",
    "nonoscillation_sign_split",
    "nonoscillation_envelope",
    "oscillation_from_psd_reduction",
    "nonoscillation_psd_envelope",
}
ENVELOPE_FUNCS = {"riccati.build_envelope_terms", "riccati.envelope_terms_diag"}


def _public_functions(mod) -> list:
    return [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]


def _steps(traj) -> int:
    return len(traj.times) - 1


# what a span keeps of its function's result
NOTES = {
    "odeint.adaptive_solve": _steps,
    "odeint.solve_hamiltonian_frame": _steps,
    "odeint.solve_scalar_riccati": lambda out: _steps(out[0]),
    "odeint.detect_det_zeros": len,
}
for _fn in CRITERION_FUNCS:
    NOTES[f"criteria.{_fn}"] = lambda rep: (rep.criterion, rep.verdict.kind)


class Tracer:
    """Counters and spans for one traced pass; see the module docstring."""

    def __init__(self):
        self.op = None  # id of the op now running, stamped on each span
        self.spans = []  # [name, start, end, parent index, op, note]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # (counter name, enclosing span name) -> [calls, seconds]
        self.under = defaultdict(lambda: [0, 0.0])
        self.patched = []  # (namespace, attribute, original)
        self._stack = [[0.0, None]]  # frames: [child seconds, span index]

    def _wrap(self, name: str, fn, span: bool, count_arg0: str | None = None):
        stack, spans = self._stack, self.spans
        calls, total_s, self_s, under = self.calls, self.total_s, self.self_s, self.under
        note = NOTES.get(name)
        counter_of = self._counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_arg0 is not None:
                args = (counter_of(count_arg0, args[0]),) + args[1:]
            parent = stack[-1]
            if span:
                idx = len(spans)
                rec = [name, 0.0, 0.0, parent[1], self.op, None]
                spans.append(rec)
                frame = [0.0, idx]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                parent[0] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if span:
                    rec[1], rec[2] = t0, t0 + dt
                elif parent[1] is not None:
                    u = under[(name, spans[parent[1]][0])]
                    u[0] += 1
                    u[1] += dt
            if span and note is not None:
                rec[5] = note(out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        return self._wrap(name, fn, span=False)

    def scenario(self, s):
        """Copy of a scenario whose eval is counted as coefsys.eval."""
        return dataclasses.replace(s, eval=self._counter("coefsys.eval", s.eval))

    def _patch(self, original, wrapper):
        for ns in NAMESPACES:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self.patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap the library for the duration of the block, then restore it."""
        targets = [(mat2, n, False) for n in MAT2_KERNELS]
        targets += [(coefsys, n, False) for n in _public_functions(coefsys)]
        targets += [(odeint, n, True) for n in ODEINT_SOLVERS]
        targets += [(riccati, n, True) for n in _public_functions(riccati)]
        targets += [(criteria, n, True) for n in _public_functions(criteria)]
        try:
            for mod, attr, span in targets:
                short = mod.__name__.rsplit(".", 1)[-1]
                original = getattr(mod, attr)
                # integrator field callbacks are counted per call
                arg0 = "odeint.small.field" if attr == "adaptive_solve" else None
                self._patch(original, self._wrap(f"{short}.{attr}", original, span, arg0))
            yield self
        finally:
            for ns, attr, original in reversed(self.patched):
                setattr(ns, attr, original)

    # -- derived per-layer numbers ---------------------------------------

    def _has_ancestor(self, rec, names) -> bool:
        parent = rec[3]
        while parent is not None:
            prec = self.spans[parent]
            if prec[0] in names:
                return True
            parent = prec[3]
        return False

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, keyed by metric name (values only)."""
        c, tot, slf = self.calls, self.total_s, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        spans = self.spans
        small_steps = sum(r[5] for r in spans if r[0] == "odeint.adaptive_solve" and r[5])
        frame_steps = sum(r[5] for r in spans if r[0] == "odeint.solve_hamiltonian_frame" and r[5])
        frame_fev = self.under[("coefsys.eval", "odeint.solve_hamiltonian_frame")][0]
        profiles = sum(
            1
            for r in spans
            if r[0] == "odeint.adaptive_solve"
            and self._has_ancestor(r, {"riccati.partition_search"})
        )
        envelopes = [
            r for r in spans if r[0] in ENVELOPE_FUNCS and not self._has_ancestor(r, ENVELOPE_FUNCS)
        ]
        crit = [r for r in spans if r[0].split(".", 1)[1] in CRITERION_FUNCS and r[5]]
        crit_s = sum(r[2] - r[1] for r in crit)
        inconclusive_s = sum(r[2] - r[1] for r in crit if r[5][1] == criteria.INCONCLUSIVE)
        mat2_names = [f"mat2.{n}" for n in MAT2_KERNELS]

        m = {
            "coefsys.eval.calls": c["coefsys.eval"],
            "coefsys.eval.us_per_call": 1e6 * ratio(tot["coefsys.eval"], c["coefsys.eval"]),
            "coefsys.validate.calls": c["coefsys.validate_scenario"],
            "coefsys.validate.s": tot["coefsys.validate_scenario"],
            "mat2.calls": sum(c[n] for n in mat2_names),
            "mat2.self_s": sum(slf[n] for n in mat2_names),
            "odeint.small.solves": c["odeint.adaptive_solve"],
            "odeint.small.steps": small_steps,
            "odeint.small.fev_per_step": ratio(c["odeint.small.field"], small_steps),
            "odeint.small.stepper_us_per_step": 1e6 * ratio(slf["odeint.adaptive_solve"], small_steps),
            "odeint.small.field_us_per_eval": 1e6
            * ratio(tot["odeint.small.field"], c["odeint.small.field"]),
            "odeint.frame.solves": c["odeint.solve_hamiltonian_frame"],
            "odeint.frame.steps": frame_steps,
            "odeint.frame.fev_per_step": ratio(frame_fev, frame_steps),
            "odeint.frame.stepper_us_per_step": 1e6
            * ratio(slf["odeint.solve_hamiltonian_frame"], frame_steps),
            "odeint.detect.calls": c["odeint.detect_det_zeros"],
            "odeint.detect.s": tot["odeint.detect_det_zeros"],
            "odeint.detect.zeros": sum(r[5] for r in spans if r[0] == "odeint.detect_det_zeros" and r[5]),
            "odeint.scalar_riccati.solves": c["odeint.solve_scalar_riccati"],
            "odeint.scalar_riccati.s": tot["odeint.solve_scalar_riccati"],
            "riccati.partition_search.calls": c["riccati.partition_search"],
            "riccati.partition_search.s": tot["riccati.partition_search"],
            "riccati.partition_search.profiles": profiles,
            "riccati.envelope.calls": len(envelopes),
            "riccati.envelope.s": sum(r[2] - r[1] for r in envelopes),
        }
        for cid in criteria.CRITERION_ORDER:
            m[f"criteria.{cid}.s"] = sum(r[2] - r[1] for r in crit if r[5][0] == cid)
        m.update(
            {
                "criteria.scalar_osc_test.calls": c["criteria.scalar_osc_test"],
                "criteria.scalar_osc_test.s": tot["criteria.scalar_osc_test"],
                "criteria.psd_reduce.calls": c["criteria.psd_reduce"],
                "criteria.psd_reduce.s": tot["criteria.psd_reduce"],
                "criteria.inconclusive_share": ratio(inconclusive_s, crit_s),
            }
        )
        return m


# unit of every per-layer metric that layer_metrics returns
LAYER_UNITS = {
    "coefsys.eval.calls": "count",
    "coefsys.eval.us_per_call": "us",
    "coefsys.validate.calls": "count",
    "coefsys.validate.s": "s",
    "mat2.calls": "count",
    "mat2.self_s": "s",
    "odeint.small.solves": "count",
    "odeint.small.steps": "count",
    "odeint.small.fev_per_step": "count/step",
    "odeint.small.stepper_us_per_step": "us/step",
    "odeint.small.field_us_per_eval": "us",
    "odeint.frame.solves": "count",
    "odeint.frame.steps": "count",
    "odeint.frame.fev_per_step": "count/step",
    "odeint.frame.stepper_us_per_step": "us/step",
    "odeint.detect.calls": "count",
    "odeint.detect.s": "s",
    "odeint.detect.zeros": "count",
    "odeint.scalar_riccati.solves": "count",
    "odeint.scalar_riccati.s": "s",
    "riccati.partition_search.calls": "count",
    "riccati.partition_search.s": "s",
    "riccati.partition_search.profiles": "count",
    "riccati.envelope.calls": "count",
    "riccati.envelope.s": "s",
    **{f"criteria.{cid}.s": "s" for cid in criteria.CRITERION_ORDER},
    "criteria.scalar_osc_test.calls": "count",
    "criteria.scalar_osc_test.s": "s",
    "criteria.psd_reduce.calls": "count",
    "criteria.psd_reduce.s": "s",
    "criteria.inconclusive_share": "ratio",
}
