"""Per-layer tracing for the traced run, by wrapping each layer's public calls.

The benchmark traces the program from the outside: :class:`LayerTracer`
replaces a fixed list of public methods (one row of :func:`layer_calls`
per wrapped call, named after the ``src/repro`` module that owns it)
with wrappers that keep a span stack in memory.  A span's *self time*
is its duration minus the time its child spans cover, so the self times
of all layers plus :attr:`LayerTracer.outside_s` partition the timed
wall clock.  Code a wrapped call runs in an unwrapped callee counts as
that call's self time.

:meth:`LayerTracer.uninstall` puts the original attributes back, so
untraced runs never pay for the wrappers.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class LayerStats:
    """What one wrapped key saw: calls, self seconds, items and refusals."""

    calls: int = 0
    self_s: float = 0.0
    items: int = 0
    refused: int = 0


class LayerTracer:
    """Installs span-recording wrappers on classes and removes them again."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        #: Summed duration of top-level spans (spans with no traced parent).
        self.covered_s = 0.0
        #: Instances of tracked classes constructed while installed.
        self.instances: list = []
        self._stack: list[float] = []
        self._patches: list[tuple[type, str, object]] = []

    def _span(self, func, key: str, items, refused: bool):
        stats = self.stats.setdefault(key, LayerStats())
        clock = self.clock
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if items is not None:
                stats.items += items(args, kwargs, result)
            if refused and result is False:
                stats.refused += 1
            return result

        return traced

    def _tracker(self, func):
        instances = self.instances

        @functools.wraps(func)
        def tracked(instance, *args, **kwargs):
            func(instance, *args, **kwargs)
            instances.append(instance)

        return tracked

    def _patch(self, owner: type, attr: str, make) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: type,
        attr: str,
        key: str,
        *,
        items: Optional[Callable] = None,
        refused: bool = False,
    ) -> None:
        """Record a span under ``key`` around every call of ``owner.attr``.

        ``items(args, kwargs, result)`` returns a count added to the key's
        ``items``; with ``refused`` a ``False`` result counts as refused.
        """
        self._patch(owner, attr, lambda func: self._span(func, key, items, refused))

    def track(self, owner: type) -> None:
        """Collect every ``owner`` instance constructed while installed."""
        self._patch(owner, "__init__", self._tracker)

    def install(self) -> "LayerTracer":
        """Wrap every call of :func:`layer_calls` and track feature caches."""
        from repro.core.features.cache import FeatureBlockCache

        for owner, attr, key, items, refused in layer_calls():
            self.wrap(owner, attr, key, items=items, refused=refused)
        self.track(FeatureBlockCache)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def get(self, key: str) -> LayerStats:
        return self.stats.get(key, LayerStats())


def _rows(args, kwargs, traces) -> int:
    return sum(trace.n_events + trace.n_decisions for trace in traces)


def _matchers(args, kwargs, result) -> int:
    return len(args[1])


def _extracted(args, kwargs, result) -> int:
    """Matchers extracted by ``transform_blocks`` (fully precomputed calls: 0)."""
    pipeline, matchers = args[0], args[1]
    precomputed = args[2] if len(args) > 2 else kwargs.get("precomputed")
    if precomputed is not None and all(name in precomputed for name in pipeline.include):
        return 0
    return len(matchers)


def layer_calls() -> list[tuple]:
    """``(owner, attribute, key, items, refused)`` for every wrapped public call."""
    from repro.adapters.base import TraceFormat
    from repro.core.characterizer import MExICharacterizer
    from repro.core.features.pipeline import FeaturePipeline
    from repro.ml.base import BaseClassifier
    from repro.ml.model_selection import GridSearchCV
    from repro.ml.multilabel import BinaryRelevance, ClassifierChain
    from repro.nn.network import Sequential
    from repro.runtime.runner import TaskRunner
    from repro.serve.service import CharacterizationService
    from repro.shard.fleet import ShardFleet
    from repro.shard.router import ShardRouter
    from repro.stream.session import MatcherSession, SessionManager

    return [
        (TraceFormat, "read", "adapters.read", _rows, False),
        (SessionManager, "ingest_events", "stream.ingest", None, False),
        (SessionManager, "add_decision", "stream.decision", None, False),
        (SessionManager, "open", "stream.open", None, False),
        (MatcherSession, "matcher", "stream.matcher", None, False),
        (ShardFleet, "__init__", "shard.setup", None, False),
        (ShardFleet, "ingest_events", "shard.dispatch", None, True),
        (ShardFleet, "add_decision", "shard.dispatch", None, True),
        (ShardFleet, "recharacterize", "shard.coordinator", None, False),
        (ShardRouter, "route", "shard.route", None, False),
        (CharacterizationService, "from_bundle", "serve.load", None, False),
        (CharacterizationService, "score_batch", "serve.score_batch", _matchers, False),
        (FeaturePipeline, "transform_blocks", "core.features.extract", _extracted, False),
        (FeaturePipeline, "fit", "core.features.fit", None, False),
        (MExICharacterizer, "characterize", "core.characterizer.classify", None, False),
        (MExICharacterizer, "fit", "core.characterizer.fit", None, False),
        (BaseClassifier, "fit", "ml.fit", None, False),
        (BinaryRelevance, "fit", "ml.fit", None, False),
        (ClassifierChain, "fit", "ml.fit", None, False),
        (GridSearchCV, "fit", "ml.fit", None, False),
        (Sequential, "fit", "nn.fit", None, False),
        (TaskRunner, "map", "runtime.map", None, False),
    ]


def layer_metrics(
    tracer: LayerTracer,
    *,
    wall_s: float,
    untraced_wall_s: float,
    covered_s: float,
    quarantined: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed as in ``BENCHMARK.json``.

    ``wall_s`` is the traced run's timed wall, ``covered_s`` the part of
    it top-level spans covered and ``untraced_wall_s`` the median timed
    wall of the untraced runs before it.
    """
    get = tracer.get
    caches = [cache.stats() for cache in tracer.instances]
    hits = sum(stats["hits"] for stats in caches)
    misses = sum(stats["misses"] for stats in caches)
    dispatch = get("shard.dispatch")
    return {
        "adapters.read_s": get("adapters.read").self_s,
        "adapters.rows": get("adapters.read").items,
        "adapters.quarantined": quarantined,
        "stream.ingest_calls": get("stream.ingest").calls,
        "stream.ingest_s": get("stream.ingest").self_s,
        "stream.decision_calls": get("stream.decision").calls,
        "stream.decision_s": get("stream.decision").self_s,
        "stream.open_s": get("stream.open").self_s,
        "stream.matcher_s": get("stream.matcher").self_s,
        "shard.dispatch_calls": dispatch.calls,
        "shard.dispatch_s": dispatch.self_s,
        "shard.route_calls": get("shard.route").calls,
        "shard.route_s": get("shard.route").self_s,
        "shard.rejected": dispatch.refused,
        "shard.coordinator_s": get("shard.coordinator").self_s,
        "shard.setup_s": get("shard.setup").self_s,
        "serve.load_s": get("serve.load").self_s,
        "serve.score_batch_s": get("serve.score_batch").self_s,
        "serve.matchers_scored": get("serve.score_batch").items,
        "core.features.extract_s": get("core.features.extract").self_s,
        "core.features.extract_matchers": get("core.features.extract").items,
        "core.features.cache_hits": hits,
        "core.features.cache_misses": misses,
        "core.features.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.features.fit_s": get("core.features.fit").self_s,
        "core.characterizer.classify_s": get("core.characterizer.classify").self_s,
        "core.characterizer.fit_s": get("core.characterizer.fit").self_s,
        "ml.fit_calls": get("ml.fit").calls,
        "ml.fit_s": get("ml.fit").self_s,
        "nn.fit_calls": get("nn.fit").calls,
        "nn.fit_s": get("nn.fit").self_s,
        "runtime.map_calls": get("runtime.map").calls,
        "runtime.map_s": get("runtime.map").self_s,
        "trace.wall_s": wall_s,
        "trace.outside_s": wall_s - covered_s,
        "trace.overhead": wall_s / untraced_wall_s - 1.0,
    }
