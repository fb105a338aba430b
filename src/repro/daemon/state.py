"""Project state for the daemon: persistent sessions, locks, LRU.

A :class:`ProjectRegistry` owns every live :class:`ProjectState`.
Each project is one warm :class:`~repro.daemon.delta.ProjectAnalysis`
guarded by a per-project :class:`asyncio.Lock` (requests for the same
project serialise; different projects interleave freely on the event
loop). The registry keeps at most ``capacity`` warm graphs: the least
recently used project is evicted down to its definition sources and
transparently **rehydrated** (replayed cold) on next touch — so
eviction trades latency, never state.

Everything the registry does is counted under ``daemon.*`` in the
shared :class:`~repro.obs.metrics.MetricsRegistry` the server
exposes via the ``status`` verb.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.daemon.delta import ProjectAnalysis
from repro.obs.events import emit_event
from repro.obs.metrics import MetricsRegistry

#: Default number of warm project graphs kept resident.
DEFAULT_CAPACITY = 8


class ProjectState:
    """One project: a warm analysis plus its request lock."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.analysis = ProjectAnalysis()
        self.lock = asyncio.Lock()

    def snapshot_defs(self) -> List[Tuple[str, str]]:
        """The definition history as (name, source) pairs — enough to
        rehydrate the project after eviction."""
        return [(d.name, d.source) for d in self.analysis.defs]


class ProjectRegistry:
    """LRU registry of warm projects with cold-storage rehydration."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.registry = registry if registry is not None else MetricsRegistry()
        self._states: "OrderedDict[str, ProjectState]" = OrderedDict()
        #: Evicted projects' definition sources, awaiting rehydration.
        self._cold: Dict[str, List[Tuple[str, str]]] = {}
        #: Per-project touch accounting: a ``get`` that found the
        #: project warm vs one that had to build it (create or
        #: rehydrate). Survives eviction so hit rates stay honest.
        self.hits: Dict[str, Dict[str, int]] = {}
        self._c_created = self.registry.counter("daemon.projects.created")
        self._c_evicted = self.registry.counter("daemon.projects.evictions")
        self._c_rehydrated = self.registry.counter(
            "daemon.projects.rehydrations"
        )

    def get(self, name: str) -> ProjectState:
        """The project's warm state — created, or rehydrated from its
        evicted definition history, on first touch. Marks it most
        recently used and evicts past capacity."""
        hits = self.hits.setdefault(name, {"warm": 0, "cold": 0})
        state = self._states.get(name)
        if state is not None:
            self._states.move_to_end(name)
            hits["warm"] += 1
            emit_event("registry", component="registry",
                       action="warm-hit", project=name)
            return state
        hits["cold"] += 1
        state = ProjectState(name)
        history = self._cold.get(name)
        if history is not None:
            # A failed replay leaves the history for the next touch.
            state.analysis.rehydrate(history)
            del self._cold[name]
            self._c_rehydrated.inc()
            emit_event("registry", component="registry",
                       action="rehydrate", project=name,
                       definitions=len(history))
        else:
            self._c_created.inc()
            emit_event("registry", component="registry",
                       action="create", project=name)
        self._states[name] = state
        self._evict()
        return state

    def _evict(self) -> None:
        """Evict least-recently-used projects down to capacity.

        A project whose lock is currently held has a request in
        flight; it is skipped this round (capacity may transiently
        overshoot) rather than snapshotted mid-mutation."""
        while len(self._states) > self.capacity:
            victim = None
            for name, state in self._states.items():
                if name != next(reversed(self._states)) and not (
                    state.lock.locked()
                ):
                    victim = name
                    break
            if victim is None:
                return
            state = self._states.pop(victim)
            self._cold[victim] = state.snapshot_defs()
            self._c_evicted.inc()
            emit_event("registry", component="registry",
                       action="evict", project=victim)

    def project_names(self) -> List[str]:
        """All known projects, warm first (LRU order), then cold."""
        return list(self._states) + sorted(self._cold)

    def status(self) -> Dict[str, object]:
        return {
            "warm": [
                {
                    "project": name,
                    "definitions": len(state.analysis.defs),
                    "version": state.analysis.version,
                    "fallbacks": dict(state.analysis.fallbacks),
                    "hits": dict(
                        self.hits.get(name, {"warm": 0, "cold": 0})
                    ),
                }
                for name, state in self._states.items()
            ],
            "cold": sorted(self._cold),
            "capacity": self.capacity,
        }
