"""The gates in :data:`repro.perf.SUITES` and how ``repro-nay bench`` applies them.

Nothing here times anything: the tests read the committed ``BENCH_*.json``
artifacts and hand-made summaries.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

#: Every ``(suite, gate, quick)`` whose bar is checked in that mode.
CHECKED = [
    (name, gate, quick)
    for name, suite in perf.SUITES.items()
    for gate in suite.gates
    for quick in (False, True)
    if gate.bar(quick) is not None
]

#: A value just past each comparison's bar.
JUST_PAST = {
    ">=": lambda bar: bar - 1e-6,
    "<=": lambda bar: bar + 1e-6,
    "is": lambda bar: not bar,
}


@pytest.mark.parametrize("name", ["domains", "grammar", "serve"])
def test_committed_artifact_meets_its_full_bars(name):
    report = json.loads((ROOT / perf.SUITES[name].path).read_text())
    assert report["suite"] == name and report["quick"] is False
    results = perf.check_gates(report)
    assert results and all(passed for passed, _ in results), results


@pytest.mark.parametrize("name", ["domains", "grammar", "serve"])
def test_committed_artifact_renders_one_line_per_row(name):
    # Every column of every suite points at a scalar: the renderer formats
    # no lists or dicts, so such a cell would print as a Python repr.
    suite = perf.SUITES[name]
    report = json.loads((ROOT / suite.path).read_text())
    lines = perf.render(report).splitlines()
    rows = len(report[suite.rows])
    assert len(lines) == 1 + rows + len(report["summary"])
    for line in lines[: 1 + rows]:
        assert len(re.split(r"\s{2,}", line.strip())) == len(suite.columns), line
        assert not set("[]{}") & set(line), line


def test_retired_chaos_suite_is_rejected(capsys):
    # The fault slate it ran is tests/test_fabric.py's now.
    assert "chaos" not in perf.SUITES
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["bench", "--suite", "chaos", "--quick"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'chaos'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,gate,quick",
    CHECKED,
    ids=[
        f"{name}-{gate.key}-{'quick' if quick else 'full'}"
        for name, gate, quick in CHECKED
    ],
)
def test_gate_passes_at_its_bar_and_fails_past_it(name, gate, quick):
    bar = gate.bar(quick)
    assert gate.check({gate.key: bar}, quick)[0]
    passed, line = gate.check({gate.key: JUST_PAST[gate.op](bar)}, quick)
    assert not passed and "FAIL" in line
    passed, line = gate.check({}, quick)
    assert not passed and gate.key in line and "missing" in line


def _fake_serve(monkeypatch, summary, **fields):
    def run(repetitions, quick):
        return {"legs": [], "summary": summary}

    suite = dataclasses.replace(perf.SUITES["serve"], run=run, **fields)
    monkeypatch.setitem(perf.SUITES, "serve", suite)


def test_bench_exit_code_follows_the_gates(monkeypatch, tmp_path, capsys):
    argv = ["bench", "--suite", "serve", "--quick", "--repeat", "1"]
    argv += ["--out", str(tmp_path / "BENCH_serve_fresh.json")]
    summary = {
        "gate_warm_vs_cold_throughput": 3.0,
        "all_schema_valid": True,
        "warm_hit_ratio": 1.0,
    }
    _fake_serve(monkeypatch, summary)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.count(" ok\n") == 3

    _fake_serve(monkeypatch, dict(summary, gate_warm_vs_cold_throughput=2.9))
    assert cli_main(argv) == 1
    out = capsys.readouterr().out
    assert "gate gate_warm_vs_cold_throughput >= 3.0: 2.9 FAIL" in out
    assert json.loads((tmp_path / "BENCH_serve_fresh.json").read_text())["quick"]


def test_quick_run_without_out_leaves_the_suite_artifact_alone(
    monkeypatch, tmp_path, capsys
):
    committed = tmp_path / "BENCH_serve.json"
    committed.write_text("committed full run\n")
    monkeypatch.chdir(tmp_path)
    summary = {
        "gate_warm_vs_cold_throughput": 5.0,
        "all_schema_valid": True,
        "all_definitive": True,
        "warm_hit_ratio": 1.0,
    }
    _fake_serve(monkeypatch, summary, path=str(committed))
    assert cli_main(["bench", "--suite", "serve", "--quick", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "wrote" not in out and out.count(" ok\n") == 3
    assert committed.read_text() == "committed full run\n"
    assert os.listdir(tmp_path) == ["BENCH_serve.json"]

    # A full run still refreshes the suite's artifact.
    assert cli_main(["bench", "--suite", "serve", "--repeat", "1"]) == 0
    assert f"wrote {committed}" in capsys.readouterr().out
    assert json.loads(committed.read_text())["quick"] is False


def test_bench_rejects_repeat_below_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["bench", "--suite", "grammar", "--quick", "--repeat", "0"])
    assert excinfo.value.code == 2
    assert "--repeat: must be >= 1" in capsys.readouterr().err


def test_bench_without_a_suite_is_rejected(capsys):
    # No default suite: a bare ``bench`` would run a full sweep and
    # overwrite a committed artifact.
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["bench"])
    assert excinfo.value.code == 2
    assert "--suite" in capsys.readouterr().err


def test_cli_import_does_not_load_the_harness():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = "import sys, repro.cli; print('repro.perf' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "False"
