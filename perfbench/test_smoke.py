"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tiny input size, traced and untraced, and
checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that each traced run measured exactly the per-layer metrics of
the layers that run on its workload, that the outputs passed their
checks, and that ``BENCHMARK.json`` keeps to the benchmark format.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


WORKLOADS = [w["name"] for w in _bench()["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_the_catalogue_covers_every_per_layer_metric():
    assert set(catalogue.LAYERS) == {m["name"] for m in _bench()["per_layer"]}
    for layer in catalogue.LAYERS.values():
        assert layer.runs_on and set(layer.runs_on) <= set(WORKLOADS)


def test_a_metric_missing_where_its_layer_runs_is_an_error():
    family = _bench()["per_layer"]
    want = run.expected(family, "vectorized_ingest", trace=1)
    measured = dict.fromkeys(want, 1.0)
    assert set(run.report(family, measured, want)) == {m["name"] for m in family}
    with pytest.raises(RuntimeError, match="missing"):
        run.report(family, {k: v for k, v in measured.items() if k != "ring.max_backlog"}, want)
    with pytest.raises(RuntimeError, match="unexpected"):
        run.report(family, {**measured, "journal.bytes": 1.0}, want)


def test_benchmark_json_respects_the_format_limits():
    bench = _bench()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    family = _bench()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in family}
    printed = dict(line.split(" ", 1) for line in done.stdout.splitlines()[:-1] if " " in line)
    for metric in family:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        assert metric["name"] in printed  # printed by name
    if trace:
        # Measured exactly where the catalogue says the layer runs; the
        # rest are marked as not run rather than passed off as figures.
        for name, layer in catalogue.LAYERS.items():
            assert printed[name].startswith("not-run") == (workload not in layer.runs_on)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in family)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sampling_serial", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
