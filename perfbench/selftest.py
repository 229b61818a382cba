"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's tier-1 ``python -m pytest`` run never collects it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer, layer_calls, layer_metrics  # noqa: E402
from measure import MIN_BEYOND, percentile_summary, refused_env, samples_beyond  # noqa: E402


# --------------------------------------------------------------------- #
# The window plan
# --------------------------------------------------------------------- #


def _delivered(plan, traces):
    """Every (session, kind, row) the plan's windows hand over, in order."""
    by_id = {trace.session_id: trace for trace in traces}
    rows = []
    opened = set()
    for window in plan.windows():
        for i, ev0, ev1, d0, d1, opens in window:
            session_id = plan.session_ids[i]
            assert opens == (session_id not in opened)
            opened.add(session_id)
            rows += [(session_id, "event", row) for row in range(ev0, ev1)]
            rows += [(session_id, "decision", row) for row in range(d0, d1)]
    expected = [
        (trace.session_id, kind, row)
        for trace in sorted(by_id.values(), key=lambda trace: trace.session_id)
        for kind, count in (("event", trace.n_events), ("decision", trace.n_decisions))
        for row in range(count)
    ]
    return sorted(rows), sorted(expected)


@pytest.mark.parametrize("workload", ["manager-dense", "fleet-bursty"])
def test_window_plan_delivers_every_row_exactly_once(workload):
    shape = workloads.WORKLOADS[workload]
    small = replace(shape, sessions=60)
    traces = workloads.make_traces(small, seed=3)
    plan = workloads.make_plan(traces, small.steps)
    delivered, expected = _delivered(plan, traces)
    assert delivered == expected
    assert plan.steps == small.steps


def test_window_plan_covers_a_decision_after_the_last_event():
    traces = workloads.make_traces(workloads.ReplayShape("manager", 5, 8, 2, 4, 1), seed=0)
    horizon = max(float(trace.t[-1]) for trace in traces)
    late = replace(traces[0], d_t=np.array([1.0, horizon + 5.0]))
    plan = workloads.make_plan([late] + traces[1:], 4)
    delivered, expected = _delivered(plan, [late] + traces[1:])
    assert delivered == expected


def test_bursty_sessions_stay_inside_their_burst():
    shape = workloads.WORKLOADS["fleet-bursty"]
    traces = workloads.make_traces(
        workloads.ReplayShape("fleet", 50, 32, 4, 48, 12, burst_s=shape.burst_s), seed=5
    )
    for trace in traces:
        start = min(trace.t[0], trace.d_t[0])
        assert trace.horizon - start <= shape.burst_s
        assert 0.0 <= start and trace.horizon <= workloads.HORIZON_S


def test_inputs_are_a_function_of_the_seed():
    from repro.adapters import trace_fingerprint

    shape = workloads.ReplayShape("manager", 20, 8, 2, 4, 1, burst_s=5.0)
    first = trace_fingerprint(workloads.make_traces(shape, seed=9))
    assert first == trace_fingerprint(workloads.make_traces(shape, seed=9))
    assert first != trace_fingerprint(workloads.make_traces(shape, seed=10))


# --------------------------------------------------------------------- #
# Freshness
# --------------------------------------------------------------------- #


def _plan(decision_goals):
    decision_goals = np.asarray(decision_goals)
    ids = [f"s{i}" for i in range(decision_goals.shape[0])]
    return workloads.WindowPlan(ids, np.zeros_like(decision_goals), decision_goals)


def test_freshness_samples_are_the_scored_sessions_handed_in_the_interval():
    # Three sessions, two windows, a pass after each.  s2 has no decision
    # before window 2, so the first pass cannot score it.
    plan = _plan([[0, 1, 2], [0, 1, 1], [0, 0, 1]])
    first = workloads.Pass(10.0, ("s0", "s1"), np.array([4.0, 5.0, 6.0]))
    second = workloads.Pass(20.0, ("s0", "s2"), np.array([14.0, 5.0, 16.0]))
    index = {session_id: i for i, session_id in enumerate(plan.session_ids)}
    assert workloads.freshness_samples([first, second], index) == [6.0, 5.0, 6.0, 4.0]
    assert workloads.freshness_problems([first, second], plan, 1, started_at=0.0) == []


@pytest.mark.parametrize(
    "scored",
    [("s0",), ("s0", "s1", "s2"), ("s0", "s1", "s1")],
    ids=["missed-session", "unhanded-session", "duplicate"],
)
def test_freshness_problems_flag_any_other_scored_set(scored):
    plan = _plan([[0, 1], [0, 1], [0, 1]])
    last_call = np.array([4.0, 5.0, 0.0])  # s2 was never handed input
    problems = workloads.freshness_problems(
        [workloads.Pass(10.0, scored, last_call)], plan, 1, started_at=1.0
    )
    assert len(problems) == 1


# --------------------------------------------------------------------- #
# Percentiles and the environment
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, top",
    [(9, None), (20, 50.0), (40, 75.0), (100, 90.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_percentile_summary_reports_count_and_supported_percentile(n, top):
    summary = percentile_summary(np.arange(n, dtype=float))
    assert summary["n"] == n
    assert summary["top"] == top
    if top is not None:
        assert samples_beyond(n, top) >= MIN_BEYOND
        assert summary["top_value"] == np.percentile(np.arange(n), top)


def test_percentile_summary_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile_summary([])


def test_pinned_environment_is_refused(monkeypatch, capsys):
    assert refused_env({"REPRO_OBS": "1", "REPRO_RUNTIME": "", "HOME": "/"}) == ["REPRO_OBS"]
    monkeypatch.setenv("REPRO_FAULTS", "stream.ingest:times=1")
    code = run.main(["--workload", "identify", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert "{" not in capsys.readouterr().out


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "manager-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #


def test_trace_wrappers_are_removed_after_the_traced_run():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in layer_calls()}
    tracer = LayerTracer().install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_self_times_partition_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start/end, outer end

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return False

    tracer = LayerTracer(clock=lambda: next(ticks))
    tracer.wrap(Layer, "outer", "a")
    tracer.wrap(Layer, "inner", "b", refused=True)
    try:
        Layer().outer()
    finally:
        tracer.uninstall()
    assert tracer.get("a").self_s == 8.0 and tracer.get("b").self_s == 2.0
    assert tracer.covered_s == 10.0
    assert tracer.get("b").refused == 1 and tracer.get("a").refused == 0


# --------------------------------------------------------------------- #
# A small replay end to end, with every correctness check
# --------------------------------------------------------------------- #


SMALL = workloads.ReplayShape("manager", 24, 16, 3, 4, 2)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("perfbench")
    workloads.write_inputs(SMALL, 7, workdir)
    return workdir


@pytest.mark.parametrize("target", ["manager", "fleet"])
def test_small_replay_passes_every_check(small_inputs, target):
    from repro.stream import QuarantineLog

    shape = replace(SMALL, target=target)
    plan = workloads.WindowPlan.load(small_inputs / "plan.npz")
    built = workloads.build_target(shape, workloads.load_service(small_inputs / "bundle"))
    try:
        quarantine = QuarantineLog()
        replayed = workloads.replay(
            built, f"jsonl:{small_inputs / 'traces.jsonl'}", plan.windows(),
            len(plan.session_ids), shape.report_every, quarantine,
        )
        assert replayed.failed == 0 and len(replayed.passes) == 2
        problems, digest = workloads.check_replay(
            built, replayed, plan, shape, quarantine, small_inputs,
            compare_manager=target == "fleet",
        )
    finally:
        workloads.close_target(built)
    assert problems == []
    assert digest
    meta = json.loads((small_inputs / "meta.json").read_text())
    assert int(replayed.accepted_events.sum()) == meta["events"] == 24 * 16


def test_refused_and_raising_calls_are_counted(monkeypatch):
    class Refusing:
        def open(self, *args, **kwargs):
            pass

        def ingest_events(self, *args):
            return False

        def add_decision(self, *args):
            raise RuntimeError("refused")

        def recharacterize(self, **kwargs):
            return SimpleNamespace(matcher_ids=())

    traces = workloads.make_traces(workloads.ReplayShape("manager", 2, 3, 1, 1, 1), seed=0)
    monkeypatch.setattr("repro.adapters.read_source", lambda source, quarantine=None: traces)
    # Two sessions, one window: 2 opens, 2 ingests, 2 decisions and 1 pass.
    windows = [[(0, 0, 3, 0, 1, True), (1, 0, 3, 0, 1, True)]]
    replayed = workloads.replay(Refusing(), "jsonl:unused", windows, 2, 1, None)
    assert replayed.attempted == 7
    assert replayed.failed == 4
    assert replayed.accepted_events.sum() == 0


# --------------------------------------------------------------------- #
# Isolation from the tier-1 suite
# --------------------------------------------------------------------- #


def test_tier1_pytest_collects_nothing_here():
    names = [path.name for path in HERE.rglob("*.py")]
    assert not [name for name in names if name.startswith("test_") or name.endswith("_test.py")]
    assert "conftest.py" not in names
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", HERE.name],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 5, completed.stdout  # 5: no tests collected


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = layer_metrics(
        LayerTracer(), wall_s=1.0, untraced_wall_s=1.0, covered_s=0.0, quarantined=0
    )
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.per_layer_unit(metric["name"])
