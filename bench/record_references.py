"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record_references.py

Runs each op of the two packaged workloads and of the campaign on its
default seed once, untraced, and writes bench/references.json. Rerun
only when a change is meant to alter verdicts or zero counts, and say
so in the change: the benchmark's correctness check compares against
this file.
"""

import json
import sys

import run


def main() -> int:
    run.import_library()
    import workloads

    refs = {}
    # the simulate ops take the analyze verdicts as their analysis
    for workload, seed in (
        ("packaged_analyze", 0),
        ("packaged_simulate", 0),
        ("campaign", workloads.CAMPAIGN_SEED),
    ):
        ops = workloads.build(workload, seed, refs)
        refs[workloads.reference_key(workload, seed)] = {op.name: op.run(lambda s: s) for op in ops}
        print(f"recorded {len(ops)} outputs of {workload}", file=sys.stderr)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
