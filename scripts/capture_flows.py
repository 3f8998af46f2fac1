#!/usr/bin/env python3
"""Hash every DP5(4) flow and every report of the packaged analyses.

Runs ``criteria.analyze`` on the four packaged scenarios with their own
windows and options, then on the first N draws of the no-conflict
campaign (``bench/draws.py``: seed 20260816, window (0, 5), the campaign
options of the test suite). It prints one line per integrated flow and
one per report:

    flow   <op> <k> <accepted steps> <sha256 of times, steps, states, dense coefficients>
    report <op> <verdict> <sha256 of the `hamosc analyze` JSON payload without generated_at>

Two checkouts that print the same lines integrated the same flows bit
for bit and wrote the same reports. Run it in each and diff the output:

    python3 scripts/capture_flows.py --draws 40 > flows.txt

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

from hamosc import cli, criteria, odeint  # noqa: E402

PACKAGED = ("harmonic", "example_3_1", "example_3_2_zero_drift", "example_3_2_euler_a05")
CAMPAIGN_SEED = 20260816
CAMPAIGN_WINDOW = (0.0, 5.0)
CAMPAIGN_OPTIONS = criteria.AnalysisOptions(rtol=1e-6, atol=1e-8, n_min=3, max_points=16)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def capture(n_draws: int) -> list:
    """Output lines for the packaged scenarios and the first n_draws draws."""
    lines = []
    flows = []  # trajectories of the op now running
    original = odeint._dp45

    def recording(*args, **kwargs):
        traj = original(*args, **kwargs)
        flows.append(traj)
        return traj

    jobs = []
    for name in PACKAGED:
        scen, window, options, doc = cli.load_scenario_file(name)
        jobs.append((f"analyze.{name}", scen, window, options, doc))
    if n_draws > 0:
        from draws import campaign_draws

        for _cls, scen in campaign_draws(CAMPAIGN_SEED, n_draws):
            jobs.append((f"campaign.{scen.name}", scen, CAMPAIGN_WINDOW, CAMPAIGN_OPTIONS, {}))

    odeint._dp45 = recording
    try:
        for op, scen, window, options, doc in jobs:
            flows.clear()
            result = criteria.analyze(scen, window, options)
            for k, traj in enumerate(flows):
                digest = _digest(traj.times, traj._seg_h, traj.states, traj._seg_q)
                lines.append(f"flow {op} {k} {len(traj.times) - 1} {digest}")
            payload = cli.report_payload(result, doc)
            del payload["generated_at"]
            text = json.dumps(payload, sort_keys=True).encode()
            lines.append(
                f"report {op} {result.verdict.kind} {hashlib.sha256(text).hexdigest()[:16]}"
            )
    finally:
        odeint._dp45 = original
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=0, help="campaign draws to analyze after the packaged scenarios")
    args = p.parse_args(argv)
    for line in capture(args.draws):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
