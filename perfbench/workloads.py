"""The four workloads: seeded inputs, the window plan, the replay client and the checks.

Every replay is a closed loop with one client: the client hands one
window's deliveries to the system through its public calls, waits for
the scheduled recharacterize to return, and only then sends the next
window.  The deliveries are planned before timing starts
(:func:`make_plan`), from the generated traces, as row ranges per
session; inside the timed region the client parses the ``jsonl`` file
and slices the parsed columns by that plan.  The program receives only
the file and the model bundle.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: Event-time horizon every replay workload spans, in seconds.
HORIZON_S = 60.0

#: Shards of the fleet workloads.
N_SHARDS = 4


@dataclass(frozen=True)
class ReplayShape:
    """A replay workload: who serves it, how big it is, how it is windowed."""

    target: str  # "manager" or "fleet"
    sessions: int
    events: int
    decisions: int
    steps: int
    report_every: int
    #: Each session is active for this many seconds at a seeded offset;
    #: ``None`` spreads every session over the whole horizon.
    burst_s: Optional[float] = None


@dataclass(frozen=True)
class IdentifyShape:
    """The Table IIa identification workload."""

    n_po_matchers: int
    n_folds: int


#: Session counts are sized so that three or more repetitions of each replay
#: fit a run's timed budget on a 2-core host, and the run reports their median.
WORKLOADS = {
    "manager-dense": ReplayShape("manager", 500, 64, 6, steps=8, report_every=1),
    "fleet-dense": ReplayShape("fleet", 500, 64, 6, steps=8, report_every=1),
    "fleet-bursty": ReplayShape("fleet", 1000, 32, 4, steps=48, report_every=12, burst_s=10.0),
    "identify": IdentifyShape(n_po_matchers=40, n_folds=3),
}


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #


def make_traces(shape: ReplayShape, seed: int) -> list:
    """The workload's traces, a pure function of ``seed``."""
    from repro.shard.replay import synthetic_traces

    common = dict(seed=seed, n_events=shape.events, n_decisions=shape.decisions)
    if shape.burst_s is None:
        return synthetic_traces(shape.sessions, horizon=HORIZON_S, **common)
    traces = synthetic_traces(shape.sessions, horizon=shape.burst_s, **common)
    offsets = np.random.default_rng([seed, 1]).uniform(
        0.0, HORIZON_S - shape.burst_s, shape.sessions
    )
    return [
        replace(trace, t=trace.t + offset, d_t=trace.d_t + offset)
        for trace, offset in zip(traces, offsets)
    ]


def write_inputs(shape: ReplayShape, seed: int, workdir: Path) -> None:
    """Write a replay workload's trace file, model bundle, plan and metadata."""
    from repro.adapters import get_format, trace_fingerprint
    from repro.serve import save_model
    from repro.stream.cli import build_service

    traces = make_traces(shape, seed)
    get_format("jsonl").write(workdir / "traces.jsonl", traces)
    save_model(build_service(None, scale="tiny", seed=seed).model, workdir / "bundle")
    make_plan(traces, shape.steps).save(workdir / "plan.npz")
    meta = {
        "fingerprint": trace_fingerprint(traces),
        "events": int(sum(trace.n_events for trace in traces)),
        "decisions": int(sum(trace.n_decisions for trace in traces)),
    }
    (workdir / "meta.json").write_text(json.dumps(meta))


# --------------------------------------------------------------------- #
# The window plan
# --------------------------------------------------------------------- #


@dataclass
class WindowPlan:
    """Cumulative rows due per session by the end of each window.

    ``event_goals[i, k]`` is how many of session ``i``'s events have a
    timestamp at or before window ``k``'s end (column 0 is the start, all
    zeros); window ``k`` delivers rows ``[goals[i, k-1], goals[i, k])``.
    """

    session_ids: list[str]
    event_goals: np.ndarray
    decision_goals: np.ndarray

    @property
    def steps(self) -> int:
        return self.event_goals.shape[1] - 1

    def windows(self) -> list[list[tuple[int, int, int, int, int, bool]]]:
        """Per window, ``(session, ev0, ev1, d0, d1, opens)`` for each session it feeds.

        ``opens`` marks a session's first delivery, where the client opens it.
        """
        events, decisions = self.event_goals, self.decision_goals
        windows = []
        for k in range(1, self.steps + 1):
            fed = np.flatnonzero(
                (events[:, k] > events[:, k - 1]) | (decisions[:, k] > decisions[:, k - 1])
            )
            windows.append(
                [
                    (
                        int(i),
                        int(events[i, k - 1]),
                        int(events[i, k]),
                        int(decisions[i, k - 1]),
                        int(decisions[i, k]),
                        bool(events[i, k - 1] == 0 and decisions[i, k - 1] == 0),
                    )
                    for i in fed
                ]
            )
        return windows

    def save(self, path: Path) -> None:
        np.savez(
            path,
            session_ids=np.array(self.session_ids),
            event_goals=self.event_goals,
            decision_goals=self.decision_goals,
        )

    @classmethod
    def load(cls, path: Path) -> "WindowPlan":
        with np.load(path) as data:
            return cls(
                [str(name) for name in data["session_ids"]],
                data["event_goals"],
                data["decision_goals"],
            )


def make_plan(traces, steps: int) -> WindowPlan:
    """Split event time into ``steps`` equal windows over every trace row.

    The horizon is the latest timestamp of any event *or decision*, and
    the last window's end is nudged past it, so every row is due by the
    last window.  Sessions are ordered by id, as a parse returns them.
    """
    traces = sorted(traces, key=lambda trace: trace.session_id)
    horizon = max(trace.horizon for trace in traces)
    edges = np.linspace(0.0, horizon, steps + 1)[1:]
    edges[-1] = np.nextafter(horizon, np.inf)
    event_goals = np.zeros((len(traces), steps + 1), dtype=np.int64)
    decision_goals = np.zeros_like(event_goals)
    for i, trace in enumerate(traces):
        event_goals[i, 1:] = np.searchsorted(trace.t, edges, side="right")
        decision_goals[i, 1:] = np.searchsorted(trace.d_t, edges, side="right")
    return WindowPlan([trace.session_id for trace in traces], event_goals, decision_goals)


# --------------------------------------------------------------------- #
# Replay targets
# --------------------------------------------------------------------- #


def load_service(bundle: Path):
    from repro.serve import CharacterizationService

    return CharacterizationService.from_bundle(bundle, runtime="serial")


def build_target(shape: ReplayShape, service):
    """A fresh ``SessionManager`` or serial ``ShardFleet`` over ``service``."""
    if shape.target == "manager":
        from repro.stream import SessionManager

        return SessionManager(service)
    from repro.shard import ShardFleet

    return ShardFleet(service, N_SHARDS, extract_runtime="serial")


def close_target(target) -> None:
    close = getattr(target, "close", None)
    if close is not None:
        close()


def recharacterizer(target, *, force: bool = False) -> Callable:
    """The scheduled pass of ``target``, in the fleet's canonical id order."""
    from repro.stream import SessionManager

    if isinstance(target, SessionManager):
        return lambda: target.recharacterize(order="id", force=force)
    return lambda: target.recharacterize(force=force)


# --------------------------------------------------------------------- #
# The closed-loop replay
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """One scheduled recharacterize: when it returned, whom it scored, and
    each session's latest input-call start at that moment."""

    returned_at: float
    scored: tuple[str, ...]
    last_call: np.ndarray


@dataclass
class ReplayRun:
    started_at: float
    wall_s: float
    traces: list
    passes: list[Pass]
    attempted: int
    failed: int
    accepted_events: np.ndarray
    accepted_decisions: np.ndarray


def replay(target, source: str, windows, n_sessions: int, report_every: int, quarantine) -> ReplayRun:
    """Drive one replay; timed from ``read_source`` to the last scheduled pass."""
    from repro.adapters import read_source

    recharacterize = recharacterizer(target)
    clock = time.perf_counter
    last_call = np.zeros(n_sessions)
    accepted_events = np.zeros(n_sessions, dtype=np.int64)
    accepted_decisions = np.zeros(n_sessions, dtype=np.int64)
    passes: list[Pass] = []
    attempted = failed = 0

    def refused(error: Exception) -> None:
        nonlocal failed
        if not failed:
            traceback.print_exception(error, file=sys.stderr)
        failed += 1

    started = clock()
    traces = read_source(source, quarantine=quarantine)
    for step, window in enumerate(windows, start=1):
        for i, ev0, ev1, d0, d1, opens in window:
            trace = traces[i]
            session_id = trace.session_id
            if opens:
                attempted += 1
                try:
                    target.open(session_id, trace.shape, screen=trace.screen)
                except Exception as error:  # counted in fail_ratio; the run goes on
                    refused(error)
            if ev1 > ev0:
                attempted += 1
                last_call[i] = clock()
                try:
                    accepted = target.ingest_events(
                        session_id,
                        trace.x[ev0:ev1],
                        trace.y[ev0:ev1],
                        trace.codes[ev0:ev1],
                        trace.t[ev0:ev1],
                    )
                except Exception as error:
                    refused(error)
                else:
                    if accepted is False:
                        failed += 1
                    else:
                        accepted_events[i] += ev1 - ev0
            for j in range(d0, d1):
                attempted += 1
                last_call[i] = clock()
                try:
                    accepted = target.add_decision(
                        session_id,
                        int(trace.d_rows[j]),
                        int(trace.d_cols[j]),
                        float(trace.d_conf[j]),
                        float(trace.d_t[j]),
                    )
                except Exception as error:
                    refused(error)
                else:
                    if accepted is False:
                        failed += 1
                    else:
                        accepted_decisions[i] += 1
        if step % report_every == 0:
            attempted += 1
            try:
                scores = recharacterize()
            except Exception as error:
                refused(error)
            else:
                passes.append(Pass(clock(), scores.matcher_ids, last_call.copy()))
    ended = passes[-1].returned_at if passes else clock()
    return ReplayRun(
        started, ended - started, traces, passes, attempted, failed,
        accepted_events, accepted_decisions,
    )


def freshness_samples(passes: list[Pass], index: dict[str, int]) -> list[float]:
    """Per scored session per pass: pass return minus its latest input-call start."""
    return [
        scored_pass.returned_at - scored_pass.last_call[index[session_id]]
        for scored_pass in passes
        for session_id in scored_pass.scored
    ]


def freshness_problems(
    passes: list[Pass], plan: WindowPlan, report_every: int, started_at: float
) -> list[str]:
    """Each pass must score exactly the scoreable sessions handed input since
    the previous pass (the sessions its freshness samples are taken for)."""
    problems = []
    previous = started_at
    for number, scored_pass in enumerate(passes, start=1):
        window = number * report_every
        handed = scored_pass.last_call > previous
        scoreable = plan.decision_goals[:, window] > 0
        expected = {plan.session_ids[i] for i in np.flatnonzero(handed & scoreable)}
        if set(scored_pass.scored) != expected or len(scored_pass.scored) != len(expected):
            problems.append(
                f"pass {number} scored {len(scored_pass.scored)} sessions; "
                f"{len(expected)} scoreable sessions were handed input since the last pass"
            )
        previous = scored_pass.returned_at
    return problems


# --------------------------------------------------------------------- #
# Checks (outside the timed region)
# --------------------------------------------------------------------- #


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    left, right = np.asarray(left), np.asarray(right)
    return left.dtype == right.dtype and left.shape == right.shape and left.tobytes() == right.tobytes()


def scores_digest(matcher_ids, labels, probabilities) -> str:
    digest = hashlib.blake2b(digest_size=12)
    digest.update("\n".join(matcher_ids).encode())
    digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(probabilities, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _compare(name: str, left, right) -> list[str]:
    if tuple(left.matcher_ids) != tuple(right.matcher_ids):
        return [f"{name}: scored matcher ids differ"]
    problems = []
    if not bitwise_equal(left.labels, right.labels):
        problems.append(f"{name}: labels are not bitwise equal")
    if not bitwise_equal(left.probabilities, right.probabilities):
        problems.append(f"{name}: probabilities are not bitwise equal")
    return problems


def check_replay(
    target, run: ReplayRun, plan: WindowPlan, shape: ReplayShape,
    quarantine, workdir: Path, *, compare_manager: bool,
) -> tuple[list[str], str]:
    """Every check of a replay run; returns the problems and the final-score digest."""
    from repro.adapters import trace_fingerprint
    from repro.serve import load_model
    from repro.serve.service import BatchScores

    problems: list[str] = []
    meta = json.loads((workdir / "meta.json").read_text())
    quarantined = quarantine.counts()["total"]
    if quarantined:
        problems.append(f"{quarantined} clean rows were quarantined")
    if [trace.session_id for trace in run.traces] != plan.session_ids:
        problems.append("parsed sessions differ from the planned sessions")
        return problems, ""
    if trace_fingerprint(run.traces) != meta["fingerprint"]:
        problems.append("parsed traces differ from the written traces")
    # Every handed call was accepted by the system or counted as failed.
    for i, trace in enumerate(run.traces):
        session = target.session(trace.session_id)
        if (len(session.buffer), len(session.decisions)) != (
            run.accepted_events[i], run.accepted_decisions[i]
        ):
            problems.append(f"session {trace.session_id} holds rows the client did not count")
            break
    if run.failed == 0 and (
        int(run.accepted_events.sum()) != meta["events"]
        or int(run.accepted_decisions.sum()) != meta["decisions"]
    ):
        problems.append("not every trace row was delivered")
    problems += freshness_problems(run.passes, plan, shape.report_every, run.started_at)

    final = recharacterizer(target, force=True)()
    matchers = [trace.to_matcher() for trace in run.traces]
    labels, probabilities = load_model(workdir / "bundle").characterize(matchers)
    oracle = BatchScores(tuple(m.matcher_id for m in matchers), labels, probabilities)
    problems += _compare("forced pass vs direct characterize", final, oracle)
    if compare_manager:
        problems += _compare("fleet vs manager", final, manager_scores(run.traces, workdir))
    return problems, scores_digest(final.matcher_ids, final.labels, final.probabilities)


def manager_scores(traces, workdir: Path):
    """A forced ``SessionManager(order="id")`` pass over whole traces."""
    from repro.stream import SessionManager

    manager = SessionManager(load_service(workdir / "bundle"))
    for trace in traces:
        manager.open(trace.session_id, trace.shape, screen=trace.screen)
        manager.ingest_events(trace.session_id, trace.x, trace.y, trace.codes, trace.t)
        for j in range(trace.n_decisions):
            manager.add_decision(
                trace.session_id, int(trace.d_rows[j]), int(trace.d_cols[j]),
                float(trace.d_conf[j]), float(trace.d_t[j]),
            )
    return manager.recharacterize(order="id", force=True)


# --------------------------------------------------------------------- #
# Identification
# --------------------------------------------------------------------- #


def identify_config(shape: IdentifyShape, seed: int):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        n_po_matchers=shape.n_po_matchers, n_folds=shape.n_folds,
        random_state=seed, runtime="serial",
    )


def identify_inputs(shape: IdentifyShape, seed: int) -> list:
    """The PO cohort, simulated from ``seed`` (input generation, never timed)."""
    from repro.simulation.dataset import build_dataset

    config = identify_config(shape, seed)
    dataset = build_dataset(
        n_po_matchers=config.n_po_matchers, n_oaei_matchers=2, random_state=seed
    )
    return list(dataset.po_matchers)


def identify(shape: IdentifyShape, seed: int, matchers: list):
    """One timed Table IIa run with a fresh feature cache; ``(result, seconds)``."""
    from repro.core.features.cache import FeatureBlockCache
    from repro.experiments.identification import run_identification_experiment

    config = identify_config(shape, seed)
    cache = FeatureBlockCache()
    started = time.perf_counter()
    result = run_identification_experiment(config, matchers=matchers, cache=cache)
    return result, time.perf_counter() - started


def check_identify(result, seed: int) -> tuple[list[str], str]:
    """Every method row present, every A_ML finite in [0, 1]; plus a row digest."""
    from repro.core.baselines import default_baselines

    expected = [baseline.name for baseline in default_baselines(seed)]
    expected += ["MExI_empty", "MExI_50", "MExI_70"]
    problems = []
    names = [method.method for method in result.methods]
    if names != expected:
        problems.append(f"method rows {names} != {expected}")
    rows = []
    for method in result.methods:
        a_ml = method.mean_accuracies.get("A_ML", float("nan"))
        if not (math.isfinite(a_ml) and 0.0 <= a_ml <= 1.0):
            problems.append(f"{method.method}: A_ML {a_ml!r} is not a finite value in [0, 1]")
        rows.append([method.method, sorted((k, v.hex()) for k, v in method.mean_accuracies.items())])
    digest = hashlib.blake2b(json.dumps(rows).encode(), digest_size=12).hexdigest()
    return problems, digest
