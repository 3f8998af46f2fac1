"""Benchmark workloads: their inputs, their ops, and the output checks.

An op is one library call. ``Op.run(hook)`` passes each scenario through
``hook`` first (identity when untraced, ``Tracer.scenario`` when traced)
and returns a small JSON-able summary of the output, which ``check``
compares with the reference recorded in ``references.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from hamosc import cli, criteria

from draws import campaign_draws

REFERENCES = Path(__file__).with_name("references.json")

ANALYZE_SCENARIOS = ("harmonic", "example_3_1", "example_3_2_zero_drift", "example_3_2_euler_a05")
# example_3_1 is left out: its five frame solves take about a minute
SIMULATE_SCENARIOS = ("harmonic", "example_3_2_zero_drift", "example_3_2_euler_a05")

CAMPAIGN_SEED = 20260816
CAMPAIGN_DRAWS = 40
CAMPAIGN_WINDOW = (0.0, 5.0)
CAMPAIGN_OPTIONS = dict(rtol=1e-6, atol=1e-8, n_min=3, max_points=16)

WORKLOADS = ("packaged_analyze", "packaged_simulate", "campaign")

# per-op time metrics of the packaged workloads, reported by every traced run
PER_OP_METRICS = [f"op.analyze.{n}_s" for n in ANALYZE_SCENARIOS] + [
    f"op.simulate.{n}_s" for n in SIMULATE_SCENARIOS
]


@dataclass(frozen=True)
class Op:
    name: str  # unique within the workload, e.g. "analyze.harmonic"
    group: str  # per-op time metric it feeds, e.g. "op.analyze.harmonic_s"
    run: Callable  # hook -> output summary


def _verdict(result: criteria.AnalysisResult) -> dict:
    return {"kind": result.verdict.kind, "criterion": result.verdict.criterion}


def _analyze_op(name: str) -> Op:
    scen, window, options, _doc = cli.load_scenario_file(name)

    def run(hook):
        return _verdict(criteria.analyze(hook(scen), window, options))

    return Op(f"analyze.{name}", f"op.analyze.{name}_s", run)


def _simulate_op(name: str, verdict: dict) -> Op:
    """cross_validate as the verify command runs it, after the criteria.

    The reference verdict stands in for the analysis, so the op runs the
    frame solves and zero detection only.
    """
    scen, window, options, _doc = cli.load_scenario_file(name)
    analysis = criteria.AnalysisResult(
        verdict=criteria.Verdict(verdict["kind"], verdict["criterion"], window),
        reports=(),
        scenario_name=scen.name,
        window=window,
        options=options,
    )

    def run(hook):
        cv = criteria.cross_validate(
            hook(scen),
            window,
            n_starts=options.n_starts,
            eps_zero=options.eps_zero,
            seed=options.seed,
            options=options,
            analysis=analysis,
        )
        return {
            "sim_outcome": cv.sim_outcome,
            "consistent": cv.consistent,
            "zeros": [len(r.zeros) for r in cv.starts],
        }

    return Op(f"simulate.{name}", f"op.simulate.{name}_s", run)


def _campaign_op(cls: int, scen) -> Op:
    options = criteria.AnalysisOptions(**CAMPAIGN_OPTIONS)

    def run(hook):
        return _verdict(criteria.analyze(hook(scen), CAMPAIGN_WINDOW, options))

    return Op(f"campaign.{scen.name}", f"op.campaign.cls{cls}_p50_s", run)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def reference_key(workload: str, seed: int) -> str:
    """Campaign draws depend on the seed, so their references do too."""
    return f"campaign.seed{seed}" if workload == "campaign" else workload


def build(workload: str, seed: int, references: Optional[dict]) -> list:
    """The ops of a workload. Packaged workloads have no random input."""
    if workload == "packaged_analyze":
        return [_analyze_op(n) for n in ANALYZE_SCENARIOS]
    if workload == "packaged_simulate":
        verdicts = (references or {}).get("packaged_analyze")
        if verdicts is None:
            raise ValueError("packaged_simulate needs the packaged_analyze reference verdicts")
        return [_simulate_op(n, verdicts[f"analyze.{n}"]) for n in SIMULATE_SCENARIOS]
    if workload == "campaign":
        return [_campaign_op(cls, s) for cls, s in campaign_draws(seed, CAMPAIGN_DRAWS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check(output, error: Optional[str], conflicts: int, reference: Optional[dict]) -> Optional[str]:
    """Why an op failed, or None when it passed.

    An op fails when it raised, when it appended to the criteria
    conflict log, or when a reference exists and the output differs.
    """
    if error is not None:
        return f"raised {error}"
    if conflicts:
        return f"logged {conflicts} criteria conflict(s)"
    if reference is not None and output != reference:
        return f"output {output} differs from reference {reference}"
    return None
