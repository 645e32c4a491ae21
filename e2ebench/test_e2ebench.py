"""Self-tests of the end-to-end benchmark.

Opt-in (a few minutes; not part of the repository's tier-1 suite).  Run
from the repository root::

    python3 -m pytest -q e2ebench

Each workload runs twice through ``run.py`` in a subprocess, seed 1: once
untraced and once traced.  Together they are three executions of the
same simulated prefix (untraced run, the traced run's plain twin, the
traced twin), which must agree exactly on simulated latencies and
answers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("drilldown", "scan_burst", "all_on")
SEED = 1

#: ``(per-layer metric, heavy workload, light workload)``: the reason
#: each workload exists, as measured facts.  ``*.share`` is a layer's
#: self time over the traced run's wall time.
HEAVY_LIGHT = [
    # drilldown: string decode, group-by, SmartIndex reuse and the client
    # path, which parses every query three times (syntax check, ACL
    # pre-flight, master) where the gateway parses twice.
    ("columnar.decode.share", "drilldown", "scan_burst"),
    ("columnar.string_decode.share", "drilldown", "scan_burst"),
    ("engine.aggregate.share", "drilldown", "scan_burst"),
    ("client.preflight.share", "drilldown", "scan_burst"),
    ("sql.parse_calls_per_query", "drilldown", "scan_burst"),
    ("index.hit_ratio", "drilldown", "scan_burst"),
    # scan_burst: scheduling, the event loop, block headers, index
    # inserts on misses, gateway admission.  Planning and index probes
    # scale with the tasks per query, so they weigh more here too.
    ("columnar.block_parse.share", "scan_burst", "drilldown"),
    ("storage.read.share", "scan_burst", "drilldown"),
    ("sim.loop.share", "scan_burst", "drilldown"),
    ("sim.process.share", "scan_burst", "drilldown"),
    ("cluster.place.share", "scan_burst", "drilldown"),
    ("planner.plan.share", "scan_burst", "drilldown"),
    ("gateway.self.share", "scan_burst", "drilldown"),
    ("index.probe.share", "scan_burst", "drilldown"),
    ("index.insert.share", "scan_burst", "drilldown"),
    ("cluster.tasks_per_query", "scan_burst", "drilldown"),
    ("sim.events_per_query", "scan_burst", "drilldown"),
    # all_on: joins and daemon work between queries.
    ("engine.join.share", "all_on", "drilldown"),
    ("storage.gap_wall.share", "all_on", "drilldown"),
    ("storage.replica_mb_moved", "all_on", "drilldown"),
]


def _run(workload: str, seed: int, trace: int):
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=900,
        cwd=HERE.parent,
    )
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("detail ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            cache[workload, trace] = _run(workload, SEED, trace)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answers_correct_and_simulation_repeats(runs, workload):
    plain_result, plain = runs(workload, 0)
    traced_result, traced = runs(workload, 1)
    for result in (plain_result, traced_result):
        assert result["correct"] and result["failed"] == 0, result
    assert plain["sim"]["queries"] >= 200
    assert plain["sim"] == traced["plain_sim"] == traced["sim"]
    assert plain["answers_digest"] == traced["plain_answers_digest"] == traced["answers_digest"]
    assert plain_result["metrics"]["sim_p50_s"]["value"] == plain["sim"]["p50_s"]


def test_heavy_layers_outweigh_light(runs):
    metrics = {w: runs(w, 1)[0]["metrics"] for w in WORKLOADS}
    failures = [
        f"{name}: {heavy} {metrics[heavy][name]['value']:.4g} <= "
        f"{light} {metrics[light][name]['value']:.4g}"
        for name, heavy, light in HEAVY_LIGHT
        if not metrics[heavy][name]["value"] > metrics[light][name]["value"]
    ]
    assert not failures, failures


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs(workload):
    import run

    run._import_program()
    digests = set()
    for seed in (SEED, SEED + 1):
        dep, _ = run._deploy(workload, seed)
        digests.add(run._inputs_digest(workload, dep))
    assert len(digests) == 2


@pytest.mark.parametrize("rows", [3, 8_000])
def test_answer_check_rejects_wrong_rows(rows):
    import reference

    rng = np.random.default_rng(0)
    want = [
        rng.integers(0, 50, rows),
        rng.random(rows),
        np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, rows)],
    ]
    order = rng.permutation(rows)
    assert reference.mismatch([c[order] for c in want], want) is None
    for col in range(3):
        got = [c.copy() for c in want]
        got[col][0] = "zz" if got[col].dtype == object else got[col][0] + 1
        assert reference.mismatch(got, want) is not None
    assert reference.mismatch([c[1:] for c in want], want) is not None
