"""Measurement plumbing shared by every workload.

* :class:`Tracer` keeps spans (name, start, end, parent) and counts in
  memory; :class:`NullTracer` is the untraced stand-in with the same
  surface, so the timed loops are identical in both kinds of run.
* :func:`profile_layers` runs a callable under ``cProfile`` and groups
  self time by the source file it was spent in, for the layers the
  benchmark cannot wrap from outside (expression evaluation, the ring,
  cost charging, metric lookups).
* :class:`Clock` times a repetition in segments and converts them to
  reference-speed seconds, discounting the machine's changing speed.
* :func:`measure` is the untraced loop: repeated set-up and runs at both
  input sizes for the requested number of seconds, reduced to medians.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import pstats
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Tail percentiles tried from the highest down; the first with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is reported.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


# -- tracing ----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    count: int = 0  # records (or bytes) that crossed the boundary

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False

    @contextmanager
    def span(self, name: str, count: int = 0) -> Iterator[Span]:
        yield Span(name, 0.0, 0.0, None, count)


class Tracer(NullTracer):
    """Spans at layer boundaries, kept in memory.

    ``with tracer.span(name, count):`` times one call into a layer,
    parented to the innermost open span; ``count`` (also settable on the
    yielded span) is what crossed the boundary.  A span's self time is
    its duration minus the durations of its direct children (children
    never overlap: the benchmark records spans from one thread).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, count: int = 0) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, count)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + span.seconds - child[index]
        return out

    def dump(self) -> Dict[str, Any]:
        origin = self.spans[0].start if self.spans else 0.0
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + span.count
        return {
            "spans": [
                {"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "count": s.count}
                for s in self.spans
            ],
            "self_s": self.self_times(),
            "counts": counts,
        }


# -- cProfile grouped by module file -------------------------------------------

#: (path fragment, layer) — first match wins; paths use "/" separators.
PROFILE_LAYERS = (
    ("repro/dsms/expr.py", "expr"),
    ("repro/dsms/ring_buffer.py", "ring"),
    ("repro/dsms/cost.py", "cost"),
    ("repro/obs/", "obs"),
    ("repro/dsms/stateful.py", "stateful"),
    ("repro/algorithms/", "stateful"),
    ("repro/dsms/vectorized/batch.py", "vectorized.batch"),
)


def profile_layers(fn: Callable[[], Any]) -> Dict[str, Dict[str, float]]:
    """Run ``fn`` under cProfile; self seconds and calls per layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    out: Dict[str, Dict[str, float]] = {}
    for (path, _line, _func), (_cc, calls, self_s, _cum, _callers) in (
        pstats.Stats(profiler).stats.items()  # type: ignore[attr-defined]
    ):
        path = path.replace(os.sep, "/")
        for fragment, layer in PROFILE_LAYERS:
            if fragment in path:
                entry = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += self_s
                entry["calls"] += calls
                break
    return out


# -- a clock that discounts the machine's changing speed ------------------------

#: Seconds one calibration loop takes at the reference speed (a fast,
#: uncontended 2-CPU x86 VM running CPython 3.11).
CALIBRATION_REF_S = 0.37e-3


def calibration_loop(iterations: int = 1500) -> float:
    """Seconds taken by a fixed stretch of allocation and dict work.

    Run twice, timing the second pass, so the cache footprint left by
    what ran before does not leak into the figure; the cyclic collector
    is paused so the heap size does not either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            started = time.perf_counter()
            table: Dict[tuple, int] = {}
            kept = []
            for i in range(iterations):
                key = (i, i & 7)
                table[key] = table.get(key, 0) + i
                kept.append(key)
            elapsed = time.perf_counter() - started
        return elapsed
    finally:
        if was_enabled:
            gc.enable()


#: Boundaries on each side of a segment whose speed samples are pooled.
SPEED_WINDOW = 2


def _program_threads() -> bool:
    """Whether a thread other than the harness's own is alive.

    asyncio's child watcher (``asyncio-waitpid-*``), which waits for the
    HTTP client process, is the harness's and sits in ``os.waitpid``.
    """
    return any(
        t is not threading.main_thread() and not t.name.startswith("asyncio-waitpid")
        for t in threading.enumerate()
    )


class Clock:
    """One repetition's wall time in segments, in reference-speed seconds.

    Shared machines change speed under their neighbours' load: on the
    2-CPU VM this benchmark was built on, a fixed loop ran 10-30% slower
    or faster from one moment to the next, in spells of milliseconds to
    seconds, and the same run's wall time moved by 13-30% between runs.
    A speed sampled only between repetitions misses most of that; a
    sibling process sampling alongside does not see it at all (both were
    tried).  So the clock samples the speed (:func:`calibration_loop`)
    at every segment boundary, which the workloads place between two
    calls into the program: the harness's thread is the only one
    running then, and an event loop is suspended in the harness's
    callback.  A boundary where any other thread is alive (one that
    could hold the GIL) takes no sample.  The first sample is taken
    before the repetition builds anything.

    A segment's speed is the median of the samples at up to
    ``SPEED_WINDOW`` boundaries on each side of it, so one preempted
    sample cannot move it; its scaled time is its wall time times
    ``CALIBRATION_REF_S`` over that speed.  A program that slowed the
    loop itself (GIL, heap, caches) would be divided out, so every run
    reports how the last samples of each repetition, taken among the
    program's objects, compare with ones taken just after they are freed
    (:func:`measure`, :func:`summarize`).
    """

    def __init__(self) -> None:
        self.samples: List[Optional[float]] = []
        self.segments: List[Tuple[str, float, int]] = []  # (label, wall s, end boundary)
        self._since = 0.0
        self.start()

    def _sample(self) -> None:
        self.samples.append(None if _program_threads() else calibration_loop())

    def start(self) -> None:
        """Begin a segment here without counting the time since the last."""
        self._sample()
        self._since = time.perf_counter()

    def mark(self, label: str) -> None:
        """End the current segment, labelled ``label``, and begin the next."""
        ended = time.perf_counter()
        self.segments.append((label, ended - self._since, len(self.samples)))
        self._sample()
        self._since = time.perf_counter()

    def _speed(self, boundary: int) -> float:
        lo = max(0, boundary - 1 - SPEED_WINDOW)
        near = [s for s in self.samples[lo : boundary + 1 + SPEED_WINDOW] if s is not None]
        if not near:
            near = [s for s in self.samples if s is not None] or [CALIBRATION_REF_S]
        return statistics.median(near)

    def timed(self) -> List[Tuple[str, float, float]]:
        """``(label, reference-speed seconds, wall seconds)`` per segment."""
        return [
            (label, wall * CALIBRATION_REF_S / self._speed(end), wall)
            for label, wall, end in self.segments
        ]


# -- small measurement helpers ---------------------------------------------------


def digest(value: Any) -> str:
    """A stable fingerprint of an output (rows, metrics, cost)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float], guaranteed: Optional[int] = None) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it.

    ``guaranteed`` is the sample count every run reaches; choosing the
    percentile by it rather than by ``len(values)`` keeps one workload on
    one percentile however many repetitions a run fits in, so a run never
    flips between the two modes of a bimodal latency distribution.
    """
    n = len(values) if guaranteed is None else min(guaranteed, len(values))
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


# -- the untraced measurement loop -----------------------------------------------


@dataclass
class Rep:
    """One set-up plus one run at one input size."""

    records: int
    digest: str
    attempted: int
    failed: int
    clock: Clock
    #: Reference-speed seconds (see :class:`Clock`) of the set-up, of the
    #: run from the first feed to the last row out, and of each batch.
    setup_s: float = 0.0
    wall_s: float = 0.0
    batch_s: List[float] = field(default_factory=list)
    #: The same three as unscaled wall time.
    raw: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: The clock's last speed samples over ones taken just after the
    #: rep's objects were freed (medians of three; set by :func:`measure`).
    drift: Optional[float] = None


def timed_rep(clock: Clock, **fields: Any) -> Rep:
    """A :class:`Rep` whose times come from ``clock``'s segments.

    Labels: ``setup``; ``batch`` (one ``feed`` call); ``commit`` (added
    to the batch before it, which triggered it); ``run`` (the rest of
    the run: decoding, HTTP handling, ``finish``, the final commit).
    """
    times: Dict[str, Any] = {
        kind: {"setup_s": 0.0, "wall_s": 0.0, "batch_s": []} for kind in ("scaled", "raw")
    }
    for label, scaled, wall in clock.timed():
        for kind, seconds in (("scaled", scaled), ("raw", wall)):
            t = times[kind]
            if label == "setup":
                t["setup_s"] += seconds
                continue
            t["wall_s"] += seconds
            if label == "batch":
                t["batch_s"].append(seconds)
            elif label == "commit":
                t["batch_s"][-1] += seconds
    return Rep(clock=clock, raw=times["raw"], **times["scaled"], **fields)


#: Repetitions of each size every untraced run makes, however long.
MIN_REPS = 3


def measure(run: Callable[[str], Rep], seconds: float) -> Dict[str, List[Rep]]:
    """Alternate small and large runs until ``seconds`` have passed.

    Returns ``{"small": [...], "large": [...]}``.  A warm-up pair runs
    first (imports, lazy set-up, allocator growth) and is discarded.
    """
    run("small")
    run("large")
    reps: Dict[str, List[Rep]] = {"small": [], "large": []}
    reset_peak_rss()
    started = time.perf_counter()
    while (
        len(reps["large"]) < MIN_REPS
        or time.perf_counter() - started < seconds
    ):
        for size in ("small", "large"):
            gc.collect()
            rep = run(size)
            last = [x for x in rep.clock.samples[-3:] if x is not None]
            gc.collect()  # an untraced rep keeps no program object
            if last:
                quiet = [calibration_loop() for _ in range(3)]
                rep.drift = statistics.median(last) / statistics.median(quiet)
            reps[size].append(rep)
    return reps


def end_to_end(reps: Dict[str, List[Rep]], sizes: Dict[str, int], scaled: bool) -> Dict[str, Any]:
    """The timed end-to-end metrics, in reference-speed or wall seconds."""

    def get(rep: Rep, name: str) -> Any:
        return getattr(rep, name) if scaled else rep.raw[name]

    large = statistics.median(get(r, "wall_s") for r in reps["large"])
    batches = [b for r in reps["large"] for b in get(r, "batch_s")]
    tail_p, tail_s = tail(batches, MIN_REPS * min(len(r.batch_s) for r in reps["large"]))
    # Each large run is paired with the small run just before it, so the
    # ratio cancels slow drifts in machine speed between repetitions.
    ratio = statistics.median(
        (get(lg, "wall_s") / sizes["large"]) / (get(sm, "wall_s") / sizes["small"])
        for sm, lg in zip(reps["small"], reps["large"])
    )
    return {
        "records_per_s": sizes["large"] / large,
        "scaling_ratio": ratio,
        "batch_p50_ms": statistics.median(batches) * 1e3,
        "batch_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(get(r, "setup_s") for r in reps["small"] + reps["large"]),
        "_tail_percentile": tail_p,
        "_batch_samples": len(batches),
    }


def summarize(reps: Dict[str, List[Rep]], sizes: Dict[str, int]) -> Dict[str, Any]:
    """End-to-end metrics from the repetitions of :func:`measure`."""
    every = reps["small"] + reps["large"]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    metrics = end_to_end(reps, sizes, scaled=True)
    wall = end_to_end(reps, sizes, scaled=False)
    drifts = [r.drift for r in every if r.drift is not None]
    drift = statistics.median(drifts) if drifts else 1.0
    return {
        **{k: v for k, v in metrics.items() if not k.startswith("_")},
        "ok_ratio": 1.0 - failed / attempted,
        "_attempted": attempted,
        "_failed": failed,
        "_wall": {k: v for k, v in wall.items() if not k.startswith("_")},
        "_drift": drift,
        "_details": {
            "sizes": sizes,
            "reps": len(reps["large"]),
            "wall_s": {k: [r.raw["wall_s"] for r in v] for k, v in reps.items()},
            "scaled_wall_s": {k: [r.wall_s for r in v] for k, v in reps.items()},
            "calibration_drift": drift,
            "batch_samples": metrics["_batch_samples"],
            "batch_tail_percentile": metrics["_tail_percentile"],
            "extra": [r.extra for r in every if r.extra],
        },
    }
