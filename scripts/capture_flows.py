#!/usr/bin/env python3
"""Hash every integrated flow, report and detected zero of the packaged scenarios.

Runs ``criteria.analyze`` on the four packaged scenarios with their own
windows and options, and after each one ``criteria.cross_validate`` on
that analysis, then ``analyze`` on the first N draws of the no-conflict
campaign (``bench/draws.py``: seed 20260816, window (0, 5), the campaign
options of the test suite). It prints one line per integrated flow (each
DP5(4) solve, each DOP853 pair flow of a simulated start and each Magnus
flow of a scalar oscillation test, in the order they ran), one per
report and one per simulated start:

    flow   <op> <k> <accepted steps> <sha256 of the flow>
    report <op> <verdict> <sha256 of the `hamosc analyze` JSON payload without generated_at>
    zeros  <op> <start> <count> <sha256 of the zero times, residuals and multiplicities>

A DP5(4) or DOP853 flow hashes its times, steps, states and dense
coefficients, and a Magnus flow its nodes and states. The ops are
``analyze.<name>``, ``simulate.<name>`` and ``campaign.<draw>``. Two
checkouts that print the same lines integrated the same flows bit for
bit, wrote the same reports and detected the same determinant zeros.
Run it in each and diff the output:

    python3 scripts/capture_flows.py --draws 40 > flows.txt

With ``--values`` it prints, in place of the hashes, what each report
decided and the numbers it decided on, so that two checkouts whose
flows differ only by rounding can be compared against a tolerance. It
skips the simulation:

    verdict <op> <overall verdict> <criterion that fired>
    value   <op> <criterion> verdict <verdict>
    value   <op> <criterion> certificate_<label> partition | none
    value   <op> <criterion> partition_<label> <repr of the points>
    value   <op> <criterion> scalar_<j> <outcome> <repr of the zero times per start>
    value   <op> <criterion> max_residual <repr>

The hamosc sources imported are the ones of the checkout holding this
script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hamosc import cli, criteria, dop853, odeint  # noqa: E402

PACKAGED = ("harmonic", "example_3_1", "example_3_2_zero_drift", "example_3_2_euler_a05")
CAMPAIGN_SEED = 20260816
CAMPAIGN_WINDOW = (0.0, 5.0)
CAMPAIGN_OPTIONS = criteria.AnalysisOptions(rtol=1e-6, atol=1e-8, n_min=3, max_points=16)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _flow_lines(op: str, flows: list) -> list:
    """flows holds (accepted steps, digest) per flow, in the order they ran."""
    return [f"flow {op} {k} {steps} {digest}" for k, (steps, digest) in enumerate(flows)]


def _value_lines(op: str, result) -> list:
    """The --values lines of one analysis."""
    lines = [f"verdict {op} {result.verdict.kind} {result.verdict.criterion or '-'}"]
    for rep in result.reports:
        lines.append(f"value {op} {rep.criterion} verdict {rep.verdict.kind}")
        for key, w in sorted(rep.witnesses.items()):
            if key.startswith("certificate_"):
                text = w
            elif key.startswith("partition_"):
                text = repr(list(w.points))
            elif key.startswith("scalar_"):
                text = f"{w.outcome} " + repr({lbl: list(ts) for lbl, ts in sorted(w.zeros.items())})
            elif key == "max_residual":
                text = repr(w)
            else:
                continue
            lines.append(f"value {op} {rep.criterion} {key} {text}")
    return lines


def capture(n_draws: int, values: bool = False) -> list:
    """Output lines for the packaged scenarios and the first n_draws draws."""
    lines = []
    flows = []  # (accepted steps, digest) of each flow of the op now running
    detected = []  # zero records of each start of the op now running
    original, original_pair, original_magnus = odeint._dp45, dop853.integrate, odeint.magnus_flow
    original_detect = odeint.detect_det_zeros

    def recorded(traj):
        flows.append(
            (len(traj.times) - 1, _digest(traj.times, traj._seg_h, traj.states, traj._seg_q))
        )
        return traj

    def recording(*args, **kwargs):
        return recorded(original(*args, **kwargs))

    def recording_pair(*args, **kwargs):
        return recorded(original_pair(*args, **kwargs))

    def recording_magnus(*args, **kwargs):
        flow = original_magnus(*args, **kwargs)
        flows.append((len(flow.times) - 1, _digest(flow.times, flow.states)))
        return flow

    def detecting(*args, **kwargs):
        zeros = original_detect(*args, **kwargs)
        detected.append(zeros)
        return zeros

    jobs = []
    for name in PACKAGED:
        scen, window, options, doc = cli.load_scenario_file(name)
        jobs.append((f"analyze.{name}", scen, window, options, doc))
    if n_draws > 0:
        from draws import campaign_draws

        for _cls, scen in campaign_draws(CAMPAIGN_SEED, n_draws):
            jobs.append((f"campaign.{scen.name}", scen, CAMPAIGN_WINDOW, CAMPAIGN_OPTIONS, {}))

    odeint._dp45, dop853.integrate, odeint.magnus_flow = recording, recording_pair, recording_magnus
    odeint.detect_det_zeros = detecting
    try:
        for op, scen, window, options, doc in jobs:
            flows.clear()
            result = criteria.analyze(scen, window, options)
            if values:
                lines.extend(_value_lines(op, result))
                continue
            lines.extend(_flow_lines(op, flows))
            payload = cli.report_payload(result, doc)
            del payload["generated_at"]
            text = json.dumps(payload, sort_keys=True).encode()
            lines.append(
                f"report {op} {result.verdict.kind} {hashlib.sha256(text).hexdigest()[:16]}"
            )
            if not op.startswith("analyze."):
                continue
            sim_op = "simulate." + op.split(".", 1)[1]
            flows.clear()
            detected.clear()
            cv = criteria.cross_validate(scen, window, options=options, analysis=result)
            lines.extend(_flow_lines(sim_op, flows))
            for rec, zeros in zip(cv.starts, detected):
                text = repr([(z.time, z.residual, z.multiplicity) for z in zeros]).encode()
                lines.append(
                    f"zeros {sim_op} {rec.label} {len(zeros)} {hashlib.sha256(text).hexdigest()[:16]}"
                )
    finally:
        odeint._dp45, dop853.integrate, odeint.magnus_flow = original, original_pair, original_magnus
        odeint.detect_det_zeros = original_detect
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=0, help="campaign draws to analyze after the packaged scenarios")
    p.add_argument(
        "--values", action="store_true",
        help="print verdicts, certificates, partitions, zero times and residuals instead of hashes",
    )
    args = p.parse_args(argv)
    for line in capture(args.draws, args.values):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
