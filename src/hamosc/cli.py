"""Command-line front end.

Subcommands:

* ``analyze``   run the criteria on a scenario, emit a JSON report
* ``simulate``  integrate the matrix system from the conjoined starts
                that ``verify`` uses (criteria.simulate_starts), print
                determinant zeros, optionally dump a trajectory CSV of
                the first start
* ``verify``    run criteria and simulation, print the consistency table
* ``list``      catalogue of built-in scenarios

Exit codes: 0 a verdict was produced (Inconclusive counts: it is a
legitimate answer); 2 scenario validation or parse error, including an
option with a bad value; 3 criteria conflict (a tool fault, never
mathematics); 4 verify found a mismatch between criteria and simulation.

Scenario files are JSON:

    {"name": ..., "family": ... | "table_csv_path": ...,
     "params": {...}, "window": [t0, T], "options": {...}}

Params map the family's own parameter names to numbers; an unknown
name is an error. Options are AnalysisOptions field names: rtol, atol,
n_min, max_points, sign_convention, eps_zero, n_starts, seed,
sim_window; an unknown name or a value AnalysisOptions refuses is an
error. The seed option fixes the random conjoined starts (default 42).

All file output is written atomically (temp file + rename) and numbers
are serialized with shortest round-trip decimal text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__, coefsys, criteria, mat2, odeint, riccati

__all__ = ["main", "load_scenario_file", "builtin_names", "ScenarioError"]


class ScenarioError(ValueError):
    """Anything wrong with a scenario file: schema, values, domain."""


_SCHEMA_KEYS = {"name", "family", "table_csv_path", "params", "window", "options", "description"}


def _finite_number(x) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def builtin_names() -> list:
    """Names of the packaged scenarios, sorted."""
    root = resources.files("hamosc").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _builtin_text(name: str) -> str:
    path = resources.files("hamosc").joinpath("scenarios", f"{name}.json")
    return path.read_text()


def _read_scenario_text(arg: str) -> tuple:
    """Returns (text, base_dir, fallback_name). Built-ins by bare name."""
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read(), os.path.dirname(os.path.abspath(arg)), os.path.basename(arg)
    base = arg[:-5] if arg.endswith(".json") else arg
    if base in builtin_names():
        return _builtin_text(base), None, base
    raise ScenarioError(f"no such scenario file or built-in name: {arg!r}")


def load_scenario_file(arg: str):
    """Parse and validate a scenario file or built-in name.

    Returns (scenario, window, options, doc). Raises ScenarioError with
    a line/column position for malformed JSON.
    """
    text, base_dir, fallback = _read_scenario_text(arg)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must be a JSON object")
    unknown = set(doc) - _SCHEMA_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    has_family = "family" in doc
    has_table = "table_csv_path" in doc
    if has_family == has_table:
        raise ScenarioError("exactly one of 'family' or 'table_csv_path' is required")
    source = "family" if has_family else "table_csv_path"
    if not isinstance(doc[source], str):
        raise ScenarioError(f"'{source}' must be a string")
    params, raw_options = doc.get("params") or {}, doc.get("options") or {}
    for key, val in (("params", params), ("options", raw_options)):
        if not isinstance(val, dict):
            raise ScenarioError(f"'{key}' must be a JSON object")
    not_numbers = sorted(k for k, v in params.items() if not _finite_number(v))
    if not_numbers:
        raise ScenarioError(f"'params' values must be finite numbers: {not_numbers}")

    window = doc.get("window")
    if (
        not isinstance(window, (list, tuple))
        or len(window) != 2
        or not all(map(_finite_number, window))
    ):
        raise ScenarioError("'window' must be [t0, T] with finite numbers")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ScenarioError(f"'window' needs T > t0, got [{lo:g}, {hi:g}]")

    try:
        if has_family:
            scen = coefsys.make_family(doc["family"], params)
        else:
            path = doc["table_csv_path"]
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            scen = coefsys.from_table(coefsys.load_table_csv(path))
        name = doc.get("name") or fallback or scen.name
        scen = dataclasses.replace(scen, name=str(name))
        if lo < scen.t0 - 1e-12 * (1.0 + abs(scen.t0)):
            raise ScenarioError(
                f"window starts at {lo:g}, before the scenario domain start {scen.t0:g}"
            )
        if scen.domain_end is not None and hi > scen.domain_end + 1e-12:
            raise ScenarioError(
                f"window ends at {hi:g}, past the tabulated domain end {scen.domain_end:g}"
            )
        options = criteria.AnalysisOptions.from_dict(raw_options)
    except ScenarioError:
        raise
    except (ValueError, OSError) as exc:
        raise ScenarioError(str(exc)) from exc
    return scen, (lo, hi), options, doc


# ---------------------------------------------------------------------------
# JSON serialization of report objects.


def _json_safe(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return [_json_safe(obj.real), _json_safe(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(obj.item())
    if isinstance(obj, np.complexfloating):
        return _json_safe(complex(obj))
    if isinstance(obj, np.ndarray):
        return [_json_safe(x) for x in obj.tolist()]
    if isinstance(obj, riccati.Partition):
        return list(obj.points)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _json_safe(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not callable(getattr(obj, f.name))
        }
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if callable(obj):
        return getattr(obj, "__name__", "callable")
    return str(obj)


def _tolerances_payload() -> dict:
    return {
        "herm_tol": mat2.TOL_HERM,
        "rank_tol": mat2.TOL_RANK,
        "pos_tol": coefsys.TOL_POS,
        "conjoined_tol": odeint.CONJ_TOL,
        "partition_cond_tol": riccati.TOL_COND,
        "grid_per_window": riccati.GRID_PER_WINDOW,
    }


def report_payload(result: criteria.AnalysisResult, doc: dict) -> dict:
    scen_block = {k: doc[k] for k in ("name", "family", "table_csv_path", "params") if k in doc}
    scen_block["name"] = result.scenario_name
    return {
        "tool": {"name": "hamosc", "version": __version__},
        "scenario": _json_safe(scen_block),
        "window": list(result.window),
        "options": _json_safe(result.options),
        "tolerances": _tolerances_payload(),
        "verdict": _json_safe(result.verdict),
        "criteria": [_json_safe(r) for r in result.reports],
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hamosc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out_path):
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_analyze(args) -> int:
    scen, window, options, doc = load_scenario_file(args.scenario)
    try:
        result = criteria.analyze(scen, window, options)
    except criteria.CriteriaConflict as exc:
        print(f"criteria conflict: {exc}", file=sys.stderr)
        for rep in exc.reports:
            print(
                f"  {rep.criterion}: {rep.verdict.kind} ({rep.verdict.notes})",
                file=sys.stderr,
            )
        return 3
    payload = report_payload(result, doc)
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    v = result.verdict
    tail = f" via {v.criterion}" if v.criterion else ""
    print(f"{result.scenario_name}: {v.kind}{tail}", file=sys.stderr)
    return 0


_CSV_HEADER = "t,re_det,im_det,abs_det,conjoined_defect"


def _det_series(traj, ts):
    """det Phi at sample times, frame scale restored."""
    det, log_scale = odeint.det_phi(traj, ts)
    with np.errstate(over="ignore"):
        return det * np.exp(log_scale)


def cmd_simulate(args) -> int:
    scen, window, options, _doc = load_scenario_file(args.scenario)
    first_traj = None
    first_zeros = None
    for label, traj, zeros in criteria.simulate_starts(
        scen, window, max(1, args.starts), options.eps_zero, seed=options.seed
    ):
        if first_traj is None:
            first_traj, first_zeros = traj, zeros
        print(f"start ({label}): {len(zeros)} det-zero(s)")
        for z in zeros:
            print(f"  t = {z.time:.6f}  (indicator {z.residual:.3e}, multiplicity {z.multiplicity})")
        if not zeros:
            ts = np.linspace(window[0], window[1], 2001)
            det = _det_series(traj, ts)
            print(f"  min |det Phi| on sample grid: {np.min(np.abs(det)):.6e}")

    if args.csv:
        ts = np.linspace(window[0], window[1], max(1000, args.points))
        extra = [z.time for z in first_zeros]
        ts = np.unique(np.concatenate([ts, np.array(extra)])) if extra else ts
        ts = ts[(ts >= window[0]) & (ts <= first_traj.t_end)]
        det = _det_series(first_traj, ts)
        defect = [odeint.conjoined_defect(*odeint.unpack_pair(y)) for y in first_traj.dense_eval(ts)]
        lines = [_CSV_HEADER]
        for i, t in enumerate(ts):
            lines.append(
                f"{t:.17g},{det[i].real:.17g},{det[i].imag:.17g},"
                f"{abs(det[i]):.17g},{defect[i]:.17g}"
            )
        _atomic_write(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {len(ts)} samples to {args.csv}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    scen, window, options, _doc = load_scenario_file(args.scenario)
    try:
        result = criteria.analyze(scen, window, options)
    except criteria.CriteriaConflict as exc:
        print(f"criteria conflict: {exc}", file=sys.stderr)
        return 3
    # --starts 0 keeps the scenario's own n_starts
    cv = criteria.cross_validate(
        scen, window, n_starts=args.starts or None, options=options, analysis=result
    )

    print(f"scenario: {result.scenario_name}   window: [{window[0]:g}, {window[1]:g}]")
    print(f"{'criterion':34s} verdict")
    for rep in result.reports:
        print(f"{rep.criterion:34s} {rep.verdict.kind}")
    v = result.verdict
    tail = f" via {v.criterion}" if v.criterion else ""
    print(f"{'overall':34s} {v.kind}{tail}")
    print(
        f"simulation on [{cv.window[0]:g}, {cv.window[1]:g}] "
        f"with {len(cv.starts)} start(s): {cv.sim_outcome}"
    )
    for rec in cv.starts:
        last = f", last at {rec.zeros[-1]:.6g}" if rec.zeros else ""
        print(
            f"  {rec.label:6s} {len(rec.zeros)} zero(s){last}, "
            f"min |det Phi| = {rec.min_abs_det:.6e}"
        )
    if cv.consistent:
        print("consistency: OK")
        return 0
    print(f"consistency: MISMATCH ({cv.notes})")
    return 4


def cmd_list(args) -> int:
    for name in builtin_names():
        doc = json.loads(_builtin_text(name))
        fam = doc.get("family", "(tabulated)")
        lo, hi = doc["window"]
        desc = doc.get("description", "")
        print(f"{name:26s} family={fam:26s} window=[{lo:g}, {hi:g}]")
        if desc:
            print(f"{'':26s} {desc}")
    return 0


def _start_count(text: str) -> int:  # argparse exits 2 when this raises
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamosc",
        description=(
            "Oscillation analysis of 4d linear Hamiltonian systems: "
            "criterion verdicts, direct simulation, and cross-validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the criteria, emit a JSON report")
    p.add_argument("scenario", help="scenario JSON path or built-in name")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate the system, report det zeros")
    p.add_argument("scenario")
    p.add_argument("--csv", default=None, help="write a trajectory CSV here")
    p.add_argument("--starts", type=_start_count, default=1, help="number of conjoined starts")
    p.add_argument("--points", type=int, default=1000, help="uniform CSV sample count")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="criteria against simulation, consistency table")
    p.add_argument("scenario")
    p.add_argument("--starts", type=_start_count, default=0, help="override the start count")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("list", help="catalogue of built-in scenarios")
    p.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, mat2.NotHermitian, coefsys.OutOfDomain) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
