"""End-to-end benchmark of the MExI serving and training paths.

Run from the repository root::

    python3 perfbench/run.py --workload manager-dense --seed 1 --seconds 16 --trace 0

Workloads: ``manager-dense``, ``fleet-dense``, ``fleet-bursty`` (closed-loop
replays of a seeded ``jsonl`` trace file) and ``identify`` (Table IIa).
The run writes its inputs under ``perfbench/.work/`` and removes them
when it ends.  It prints a readable report, then, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of one
extra traced repetition with ``--trace 1``.

The process started here prepares the inputs and then runs the workload
in a fresh interpreter, whose time to accept its first input is one
``setup_s`` sample; two more fresh interpreters that only set up and exit
give the other samples.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Native thread pools of the workload interpreters, pinned to one thread so
#: every measured run is single-threaded.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Fresh interpreters that only set up, in addition to the measured one.
SETUP_PROBES = 2

#: Wall-clock budget of one workload interpreter before it is killed.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "result_s": "s",
    "fresh_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed budget of the untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the fresh interpreters this script starts.
    parser.add_argument("--role", choices=("main", "workload", "probe"), default="main", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------- #
# The workload interpreter
# --------------------------------------------------------------------- #


def another_run(walls: list[float], seconds: float) -> bool:
    """Whether one more repetition would end nearer the budget than stopping now."""
    return sum(walls) + walls[-1] / 2 <= seconds


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def run_replay(args, shape, workdir: Path) -> dict:
    import workloads
    from layers import LayerTracer, layer_metrics
    from measure import peak_rss_mb, percentile_summary

    import repro.adapters  # noqa: F401  (the workload parses its input)
    from repro.stream import QuarantineLog

    target = workloads.build_target(shape, workloads.load_service(workdir / "bundle"))
    print("ready", flush=True)
    if args.role == "probe":
        workloads.close_target(target)
        return {}

    plan = workloads.WindowPlan.load(workdir / "plan.npz")
    windows = plan.windows()
    index = {session_id: i for i, session_id in enumerate(plan.session_ids)}
    source = f"jsonl:{workdir / 'traces.jsonl'}"

    def one_run(target):
        quarantine = QuarantineLog()
        run = workloads.replay(
            target, source, windows, len(plan.session_ids), shape.report_every, quarantine
        )
        return run, quarantine

    runs = []
    problems: list[str] = []
    try:
        while True:
            run, quarantine = one_run(target)
            runs.append(run)
            problems += workloads.freshness_problems(
                run.passes, plan, shape.report_every, run.started_at
            )
            if not another_run([r.wall_s for r in runs], args.seconds):
                break
            workloads.close_target(target)
            target = workloads.build_target(shape, workloads.load_service(workdir / "bundle"))
        rss = peak_rss_mb()
        walls = [r.wall_s for r in runs]
        layers = None
        if args.trace:
            workloads.close_target(target)
            tracer = LayerTracer().install()
            try:
                target = workloads.build_target(shape, workloads.load_service(workdir / "bundle"))
                covered = tracer.covered_s
                run, quarantine = one_run(target)
                covered = tracer.covered_s - covered
            finally:
                tracer.uninstall()
            runs.append(run)
            layers = layer_metrics(
                tracer,
                wall_s=run.wall_s,
                untraced_wall_s=statistics.median(walls),
                covered_s=covered,
                quarantined=quarantine.counts()["total"],
            )
        checked, digest = workloads.check_replay(
            target, run, plan, shape, quarantine, workdir,
            compare_manager=args.workload == "fleet-dense",
        )
        problems += checked
    finally:
        workloads.close_target(target)
    untraced = runs[: len(walls)]
    fresh = [
        percentile_summary(workloads.freshness_samples(r.passes, index)) for r in untraced
    ]
    return {
        "walls": walls,
        "events": [int(r.accepted_events.sum()) for r in untraced],
        "fresh": fresh,
        "peak_rss_mb": rss,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "problems": problems,
        "digest": digest,
        "layers": layers,
    }


def run_identify(args, shape) -> dict:
    import workloads
    from layers import LayerTracer, layer_metrics
    from measure import peak_rss_mb, percentile_summary

    import repro.experiments.identification  # noqa: F401  (the workload's imports)

    print("ready", flush=True)
    if args.role == "probe":
        return {}

    walls, attempted, rows = [], 0, 0
    while True:
        matchers = workloads.identify_inputs(shape, args.seed)
        attempted += 1
        result, seconds = workloads.identify(shape, args.seed, matchers)
        walls.append(seconds)
        rows = len(result.methods)
        if not another_run(walls, args.seconds):
            break
    rss = peak_rss_mb()
    layers = None
    if args.trace:
        matchers = workloads.identify_inputs(shape, args.seed)
        attempted += 1
        with LayerTracer() as tracer:
            covered = tracer.covered_s
            result, seconds = workloads.identify(shape, args.seed, matchers)
            covered = tracer.covered_s - covered
        layers = layer_metrics(
            tracer,
            wall_s=seconds,
            untraced_wall_s=statistics.median(walls),
            covered_s=covered,
            quarantined=0,
        )
    problems, digest = workloads.check_identify(result, args.seed)
    # Table IIa returns every method row at once: each row's freshness is
    # the time from handing the cohort in to the result's return.
    fresh = [percentile_summary([wall] * rows) for wall in walls]
    return {
        "walls": walls,
        "events": None,
        "fresh": fresh,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": 0,
        "problems": problems,
        "digest": digest,
        "layers": layers,
    }


def workload_main(args) -> int:
    from workloads import WORKLOADS, IdentifyShape

    shape = WORKLOADS[args.workload]
    if isinstance(shape, IdentifyShape):
        result = run_identify(args, shape)
    else:
        result = run_replay(args, shape, Path(args.workdir))
    if args.role == "workload":
        _emit(result)
    return 0


# --------------------------------------------------------------------- #
# The main process: inputs, interpreters, report
# --------------------------------------------------------------------- #


def start(args, role: str, workdir: Path):
    """Start a fresh workload interpreter; return it and its seconds to ``ready``."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=dict(os.environ, **THREAD_ENV)
    )
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - started
        if line.strip() != "ready":
            raise RuntimeError(f"{role} interpreter did not become ready: {line!r}")
    except BaseException:
        process.kill()
        process.wait()
        raise
    return process, ready


def finish(process) -> str:
    """Wait for an interpreter (killing it past the budget); return its stdout."""
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"workload interpreter exited with {process.returncode}")
    return out


def report(args, env: dict, setups: list[float], result: dict) -> dict:
    """Print the readable report; return the end-to-end metrics."""
    walls = result["walls"]
    fresh = result["fresh"]
    metrics = {
        "setup_s": statistics.median(setups),
        "result_s": statistics.median(walls),
        "fresh_p50_ms": statistics.median(rep["p50"] for rep in fresh) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    fresh_p99_ms = statistics.median(rep["p99"] for rep in fresh) * 1e3
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    print(f"  setup_s        {metrics['setup_s']:.4f} s   (median of {len(setups)}: "
          + ", ".join(f"{value:.3f}" for value in setups) + ")")
    print(f"  result_s       {metrics['result_s']:.4f} s   (median of {len(walls)} runs: "
          + ", ".join(f"{value:.3f}" for value in walls) + ")")
    if result["events"] is not None:
        rates = [events / wall for events, wall in zip(result["events"], walls)]
        print(f"  events_per_s   {statistics.median(rates):.1f} events/s")
    else:
        print(f"  identify_s     {metrics['result_s']:.4f} s")
    print(f"  fresh_p50_ms   {metrics['fresh_p50_ms']:.3f} ms  (median over runs)")
    print(f"  fresh_p99_ms   {fresh_p99_ms:.3f} ms  (median over runs)")
    for number, rep in enumerate(fresh, start=1):
        top = "none" if rep["top"] is None else f"p{rep['top']:g} = {rep['top_value'] * 1e3:.2f} ms"
        print(f"    run {number}: n={rep['n']} p50={rep['p50'] * 1e3:.2f} ms "
              f"p99={rep['p99'] * 1e3:.2f} ms, highest supported {top}")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio     {failed / attempted:.6f}  ({failed} of {attempted} public calls)")
    print(f"  digest         {result['digest']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED   {problem}")
    if result["layers"]:
        print("  per-layer (traced run, self times):")
        for name, value in result["layers"].items():
            print(f"    {name:34s} {value:.6g} {per_layer_unit(name)}")
    return metrics


def main_process(args) -> int:
    from measure import environment, refused_env

    refused = refused_env()
    if refused:
        print(f"perfbench: refusing to time a run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / ".work"))
    try:
        shape = workloads.WORKLOADS[args.workload]
        if not isinstance(shape, workloads.IdentifyShape):
            workloads.write_inputs(shape, args.seed, workdir)
        process, ready = start(args, "workload", workdir)
        result = json.loads(finish(process).splitlines()[-1])
        setups = [ready]
        for _ in range(SETUP_PROBES):
            probe, ready = start(args, "probe", workdir)
            finish(probe)
            setups.append(ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = dict(environment(), threads=",".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    metrics = report(args, env, setups, result)
    if args.trace:
        metrics = result["layers"]
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    correct = not result["problems"]
    _emit(
        {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return main_process(args)
    sys.path.insert(0, str(SRC))
    return workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
