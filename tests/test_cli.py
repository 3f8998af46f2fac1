"""The command-line front end against the library calls it wraps."""

from __future__ import annotations

import json
import re

from hamosc import cli, coefsys, criteria


def test_simulate_prints_the_cross_validation_zero_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HAMOSC_SEED", raising=False)
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps({"family": "harmonic", "window": [0.0, 10.0]}))
    assert cli.main(["simulate", str(path), "--starts", "3"]) == 0
    printed = dict(re.findall(r"^start \((.+)\): (\d+) det-zero", capsys.readouterr().out, re.M))

    opt = criteria.AnalysisOptions()
    cv = criteria.cross_validate(
        coefsys.make_family("harmonic", {}), (0.0, 10.0), n_starts=3, seed=opt.seed
    )
    assert {r.label: str(len(r.zeros)) for r in cv.starts} == printed
    assert list(printed) == ["I,0", "I,I", "rand0"]
