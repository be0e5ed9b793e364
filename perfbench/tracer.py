"""In-memory spans around calls into the simulator's modules, and self times.

A traced section replaces selected functions with wrappers that record one
span per call: the wrapped name, start and end (host `perf_counter`
seconds), the span that was open when the call began, and the run and round
it belongs to. Each function is replaced where its callers look it up and
put back when the section ends, so the simulator's source is never edited.
"""

from __future__ import annotations

import csv
import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # id of the span open when this one began, -1 at top level
    run: int     # which simulation of the process the span belongs to
    round: int   # simulated round; 0 while setting up, -1 while writing results


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner` is a dotted path to a module or class."""

    name: str
    owner: str
    attr: str
    count_only: bool = False  # count calls without recording spans


def resolve(path: str):
    """The module or class a dotted path names, or None if it does not exist."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
        return obj
    return None


class Tracer:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.run = 0
        self.round = 0
        self.missing: list[str] = []
        self._open: list[int] = []

    def _wrap(self, target: Target, fn):
        name = target.name
        if target.count_only:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = open_spans[-1] if open_spans else -1
            run, rnd = self.run, self.round
            spans.append(None)
            open_spans.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[sid] = Span(sid, name, start, end, parent, run, rnd)

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the block, then restore it.

        A target whose owner or attribute does not exist is skipped and
        listed in `missing`; its metrics then read zero.
        """
        saved = []
        try:
            for target in targets:
                owner = resolve(target.owner)
                original = vars(owner).get(target.attr) if owner is not None else None
                if original is None:
                    if target.name not in self.missing:
                        self.missing.append(target.name)
                    continue
                saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path: str | Path) -> None:
        """Write every recorded span, times relative to the first span's start."""
        spans = [s for s in self.spans if s is not None]
        t0 = min((s.start for s in spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "run", "round"])
            for s in spans:
                writer.writerow([s.id, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                                 s.parent, s.run, s.round])


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are the spans whose `parent` is the span's id. Their intervals
    are clipped to the parent and merged first, so overlapping children are
    not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def span_stats(spans: Sequence[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, summed self seconds, summed inclusive seconds)."""
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        total_s[s.name] += s.end - s.start
    return {name: (calls[name], self_s[name], total_s[name]) for name in calls}
