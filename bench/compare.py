"""Compare two sets of benchmark result files metric by metric.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a result file or a directory of them (as written
by bench/run.py under bench/results/). Results are grouped by workload
and by traced/untraced. For every metric the table gives each side's
median with its quartiles over the runs, and the change of the NEW
median relative to the BASE median. End-to-end metrics also get the
bound from BENCHMARK.json and a status:

  worse     NEW's median is worse than BASE's by more than the bound
  unresolved  BASE's own quartile spread exceeds the bound, so a change
            within it cannot be told from noise
  ok        neither of the above

Per-layer metrics (traced runs) have no bound; they show where a change
in an end-to-end number came from.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> dict:
    """(workload, trace) -> metric -> list of values."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        key = (rec["meta"]["workload"], rec["meta"]["trace"])
        for name, m in rec["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'}): "
              f"{len(next(iter(base[key].values())))} vs {len(next(iter(new[key].values())))} runs")
        for name in sorted(set(base[key]) & set(new[key])):
            bq1, bmed, bq3 = quartiles(base[key][name])
            nq1, nmed, nq3 = quartiles(new[key][name])
            change = nmed / bmed - 1.0 if bmed else float("nan")
            line = (f"  {name:40s} {bmed:11.4g} [{bq1:.4g}, {bq3:.4g}]  ->  "
                    f"{nmed:11.4g} [{nq1:.4g}, {nq3:.4g}]  {change:+8.1%}")
            if name in spec:
                bound = spec[name]["bound"]
                worse = change if spec[name]["better"] == "lower" else -change
                spread = (bq3 - bq1) / bmed if bmed else 0.0
                status = "worse" if worse > bound else ("unresolved" if spread > bound else "ok")
                line += f"  bound {bound:.0%}  {status}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
