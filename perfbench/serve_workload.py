"""The ``serve_journaled`` workload: standing queries behind the server.

A :class:`~repro.serving.StandingQueryEngine` with a journal serves four
selection signatures twice each plus subset-sum and heavy hitters
through a :class:`~repro.serving.QueryServer`, committing every four
batches.  A separate client process (``http_client.py``) sends reads at
a fixed rate and a few writes while the feed runs.  The benchmark talks
to it only through asyncio pipes, so it never blocks the server's event
loop, and the client has stopped before the HTTP plane does.

Every served query, including those the client registered, is checked
against a private serial run of its text over exactly the records it
was subscribed for (the serving tests' ``solo_state`` oracle): rows,
comparable metrics and cost must all be equal.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from typing import Any, Dict, List

from harness import Clock, Rep, Tracer, digest, percentile, tail, timed_rep
from workloads import (
    NULL, Workload, _records, _refused, instance_layers, profiled_layers,
    runtime_layers, trace_runtime,
)

from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    SUBSET_SUM_QUERY,
    basic_subset_sum_library,
    distinct_sampling_library,
    heavy_hitters_library,
    reservoir_library,
    subset_sum_library,
)
from repro.dsms import CostModel, Gigascope
from repro.serving import QueryServer, StandingQueryEngine
from repro.serving.journal import ServingJournal
from repro.streams import TCP_SCHEMA, research_center_feed
from tests.serving.conftest import instance_state, solo_state

CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "http_client.py")

TEXTS = [
    f"SELECT time, srcIP, destIP, len FROM TCP WHERE len > {cut}"
    for cut in (200, 600, 1000, 1400)
] * 2 + [
    SUBSET_SUM_QUERY.format(window=20, target=100),
    HEAVY_HITTERS_QUERY.format(window=60, bucket=100),
]


def make_instance(profile: bool = False) -> Gigascope:
    """The serving tests' solo-shaped instance, optionally profiled."""
    gs = Gigascope(cost_model=CostModel(), profile=profile)
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.use_stateful_library(basic_subset_sum_library())
    gs.use_stateful_library(reservoir_library())
    gs.use_stateful_library(heavy_hitters_library())
    gs.use_stateful_library(distinct_sampling_library())
    return gs


class ServeJournaled(Workload):
    name = "serve_journaled"
    small = 3000
    batch = 512
    commit_interval = 4
    rate = 10.0  # client requests per second; not from observed use (http_client.py)

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.records = _records(research_center_feed, seed, self.sizes["large"])
        self.journal_path = os.path.join(workdir, f"{self.name}.journal")
        self._oracles: Dict[tuple, Any] = {}

    def rep(self, size: str, tracer=NULL, profile: bool = False) -> Rep:
        clock = Clock()  # before the event loop exists
        return asyncio.run(self._serve(size, tracer, profile, clock))

    async def _serve(self, size: str, tracer, profile: bool, clock: Clock) -> Rep:
        records = self.records[: self.sizes[size]]
        ring = {"max_backlog": 0}

        def instance() -> Gigascope:
            gs = make_instance(profile)
            if tracer.enabled:
                trace_runtime(gs, tracer, ring)
            return gs

        with tracer.span("setup"):
            linter = make_instance()
            for text in TEXTS:
                with tracer.span("analysis.lint"):
                    linter.lint(text, name="q")
            engine = StandingQueryEngine(
                instance, journal=ServingJournal(self.journal_path, fresh=True)
            )
            ids = []
            for text in TEXTS:
                with tracer.span("parser.compile"):
                    ids.append(engine.register(text, name="q").qid)
            server = QueryServer(
                engine, batch_size=self.batch, commit_interval=self.commit_interval
            )
            _, port = await server.start_http()
        clock.mark("setup")

        client = await asyncio.create_subprocess_exec(
            sys.executable, CLIENT, "--port", str(port), "--rate", str(self.rate),
            "--ids", ",".join(ids),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        try:
            if (await client.stdout.readline()).strip() != b"ready":
                raise RuntimeError("the HTTP client did not start")
            commits = self._instrument(engine, tracer, clock)
            clock.start()  # starting the client is not the server's time
            with tracer.span("run"):
                await server.ingest(records, close=False)
            clock.mark("run")
            # Stop the client (and wait for it) before closing anything,
            # so no request can meet a closed engine or HTTP plane.
            client.stdin.write(b"stop\n")
            await client.stdin.drain()
            client.stdin.close()
            summary = json.loads((await client.stdout.read()).decode().splitlines()[-1])
        except BaseException:
            client.kill()
            raise
        finally:
            await client.wait()
        clock.start()  # waiting for the client is not the server's time
        with tracer.span("serving.close"):
            engine.close()
        clock.mark("run")
        await server.stop_http()

        # Digest first: run_report() below creates ring gauges of its own.
        served = digest([instance_state(sq.instance, sq.name) for sq in engine.queries()])
        failed = len(summary["errors"]) + engine.report()["dead_letters"]["total"]
        failed += sum(_refused(sq.instance.run_report()) for sq in engine.queries())
        extra: Dict[str, Any] = {
            "subscriptions": [
                (sq.qid, sq.text, sq.registered_at, sq.unregistered_at)
                for sq in engine.queries()
            ],
            "journal_bytes": os.path.getsize(self.journal_path),
            "http_errors": summary["errors"],
        }
        if tracer.enabled:
            extra.update(http=summary, engine=engine, commits=commits, **ring)
        batches = sum(label == "batch" for label, _, _ in clock.segments)
        return timed_rep(
            clock, records=len(records), digest=served,
            attempted=batches + summary["requests"] + len(records),
            failed=failed, extra=extra,
        )

    @staticmethod
    def _instrument(engine: StandingQueryEngine, tracer, clock: Clock) -> List[tuple]:
        """Time each feed and commit the server makes, from outside.

        Each call is a ``clock`` segment (``batch``, or ``commit`` for a
        commit a batch triggered; the final commit is part of the
        ``run``), and so is the stretch before it (HTTP handling).
        Returns the list that gets, per commit, ``(wall seconds, bytes
        appended to the journal)``.
        """
        feed, commit = engine.feed, engine.commit
        commits: List[tuple] = []
        path = engine.journal.path

        def timed_feed(batch):
            clock.mark("run")
            with tracer.span("serving.feed", len(batch)):
                n = feed(batch)
            clock.mark("batch")
            return n

        def timed_commit(*args, **kwargs):
            before = os.path.getsize(path)
            clock.mark("run")
            with tracer.span("journal.commit") as span:
                commit(*args, **kwargs)
            clock.mark("run" if kwargs.get("kind") == "final" else "commit")
            span.count = os.path.getsize(path) - before
            commits.append((span.seconds, span.count))

        engine.feed = timed_feed
        engine.commit = timed_commit
        return commits

    def check(self, size: str, rep: Rep) -> List[str]:
        """Every served query against a solo run over the records it saw
        (``[registered_at, unregistered_at)``, in the server's batches)."""
        records = self.records[: self.sizes[size]]
        expected = []
        for _qid, text, registered, unregistered in rep.extra["subscriptions"]:
            end = len(records) if unregistered is None else unregistered
            key = (text, registered, end)
            if key not in self._oracles:
                self._oracles[key] = solo_state(
                    text, records[registered:end], batch_size=self.batch
                )
            expected.append(self._oracles[key])
        errors = [f"HTTP {e['status']} on {e['kind']}" for e in rep.extra["http_errors"]]
        if rep.digest != digest(expected):
            errors.append(
                f"{self.name}/{size}: a served query differs from its solo oracle"
            )
        return errors

    def layers(self, rep: Rep, tracer: Tracer, profiled) -> Dict[str, float]:
        engine = rep.extra["engine"]
        http = rep.extra["http"]
        commits = rep.extra["commits"]
        report = engine.report()
        instances = [sq.instance for sq in engine.queries()]
        out = instance_layers(instances, rep.records)
        out.update(profiled_layers(profiled))
        out.update(runtime_layers(tracer, out.pop("_operator_s"), rep.extra["max_backlog"]))
        latency = http["latency_ms"] or [0.0]
        journal_bytes = rep.extra["journal_bytes"]
        out.update({
            "serving.feed_s": tracer.total("serving.feed"),
            "serving.shared_replays": engine.metrics.total("serving_shared_replays_total"),
            "serving.groups": len(report["shared_groups"]),
            "serving.dead_letters": report["dead_letters"]["total"],
            "serving.quota_shed": sum(
                gs.metrics.total("stream_quota_shed_total") for gs in instances
            ),
            "journal.commit_s": sum(seconds for seconds, _ in commits),
            "journal.commits": len(commits),
            "journal.bytes": journal_bytes,
            "journal.bytes_per_record": journal_bytes / rep.records,
            "journal.commit_growth": commits[-1][1] / commits[0][1],
            "http.requests": http["requests"],
            "http.errors": len(http["errors"]),
            "http.p50_ms": percentile(latency, 50),
            "http.tail_ms": tail(latency)[1],
            "http.late_ms": percentile(http["late_ms"] or [0.0], 50),
            "http.metrics_bytes": percentile(http["metrics_bytes"] or [0], 50),
        })
        return out
