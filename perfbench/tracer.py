"""In-memory call-site tracer for the benchmark's per-layer metrics.

A :class:`Tracer` replaces a function at the place it is *looked up*:
the imported name in the calling module (``synthstab.flow.sad_volume``)
or the attribute of a class (``ConvRegressor.loss_and_grads``).
Patching the defining module alone would intercept nothing, because
every caller holds its own reference.  Each call records a span (name,
start, end, parent) and may run a counter that derives extra
quantities from the call's arguments and result.  :meth:`restore`
puts every original back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Counter = Callable[["Span", tuple, dict, Any], None]


@dataclass
class Span:
    """One traced call; ``parent`` indexes the enclosing span or is -1."""

    name: str
    start: float
    end: float
    parent: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PatchPoint:
    """Where to intercept a call and what to name its span.

    ``owner`` is a module or class; ``attr`` is the name looked up on
    it at the call site.
    """

    owner: Any
    attr: str
    span: str
    counter: Counter | None = None


class Tracer:
    """Records nested spans of patched calls; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _wrap(self, point: PatchPoint, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(point.span, clock(), float("nan"), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if point.counter is not None:
                point.counter(span, args, kwargs, out)
            return out

        return traced

    def install(self, points: list[PatchPoint]) -> None:
        """Patch every point; raises if one is already patched."""
        for p in points:
            # vars() yields the raw function even for a class attribute,
            # so restoring it later leaves the class exactly as found.
            original = vars(p.owner)[p.attr]
            if any(o is p.owner and a == p.attr for o, a, _ in self._originals):
                raise ValueError(f"{p.owner!r}.{p.attr} patched twice")
            self._originals.append((p.owner, p.attr, original))
            setattr(p.owner, p.attr, self._wrap(p, original))

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(kids):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


@dataclass
class LayerStats:
    """Totals over all spans of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Aggregate spans by name: calls, inclusive and self time, counts.

    Inclusive time counts only outermost spans of a name, so a
    recursive or re-entrant layer is not double counted.
    """
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for i, (s, own) in enumerate(zip(spans, selfs)):
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.self_s += own
        st.durations.append(s.duration)
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            st.total_s += s.duration
        for k, v in s.counts.items():
            st.counts[k] = st.counts.get(k, 0.0) + v
    return stats
