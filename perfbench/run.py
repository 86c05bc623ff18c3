"""The repository benchmark: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload sampling_serial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; ``all`` runs every workload in turn, each
in its own process.  The workload's input is generated from
``--seed`` by ``repro.streams.traces`` before anything is timed; every
output is checked against a reference over the same input.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
and a run at both input sizes (4x apart), repeated for ``--seconds`` and
reduced to medians.  ``--trace 1`` makes one untraced run, one traced
run (spans around every call into a layer, ``Gigascope(profile=True)``
operator timings) and one ``cProfile`` run, all at the larger size, and
reports the per-layer metrics plus the tracing overhead; for
``sampling_serial`` it also runs the sharding probe (serial, inline and
supervised shards) behind the ``sharding.*`` metrics.

Each metric is printed as ``name value unit``: end-to-end times with the
unscaled wall-time figure beside them, per-layer metrics with their
layer and the end-to-end metric they should move (``catalogue.py``), or
``not-run`` where their layer does not run on the workload (reported as
0 in the JSON).  Names and units come from ``BENCHMARK.json``.  Details
(per-repetition times and speed factors, the tail percentile used,
spans) go to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.  The last line
of a workload's output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when an output check
fails and 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import catalogue

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def untraced(wl, seconds: float) -> dict:
    from harness import measure, peak_rss_mb, summarize

    reps = measure(wl.rep, seconds)
    peak = peak_rss_mb()  # before the reference runs add their own memory
    errors = [e for size, rs in reps.items() for r in rs for e in wl.check(size, r)]
    summary = summarize(reps, wl.sizes)
    metrics = {k: v for k, v in summary.items() if not k.startswith("_")}
    metrics["peak_rss_mb"] = peak
    return {
        "metrics": metrics, "wall": summary["_wall"], "drift": summary["_drift"],
        "errors": errors,
        "attempted": summary["_attempted"], "failed": summary["_failed"],
        "details": summary["_details"],
    }


def traced(wl) -> dict:
    from harness import Tracer, profile_layers

    wl.rep("small")
    wl.rep("large")
    plain = wl.rep("large")
    tracer = Tracer()
    spanned = wl.rep("large", tracer, profile=True)
    layers = wl.layers(spanned, tracer, profile_layers(lambda: wl.rep("large")))
    layers["parser.compile_s"] = tracer.total("parser.compile")
    layers["analysis.lint_s"] = tracer.total("analysis.lint")
    layers["tracing.overhead_s"] = spanned.wall_s - plain.wall_s
    errors = wl.check("large", plain) + wl.check("large", spanned)
    errors += layers.pop("_errors", [])
    return {
        "metrics": layers, "errors": errors,
        "attempted": plain.attempted + spanned.attempted,
        "failed": plain.failed + spanned.failed,
        "details": {"sizes": wl.sizes, "untraced_s": plain.wall_s,
                    "traced_s": spanned.wall_s, "trace": tracer.dump()},
    }


def expected(family: list, workload: str, trace: int) -> set:
    """The metrics a run must measure: every end-to-end metric, or the
    per-layer metrics of the layers that run on ``workload``."""
    return {
        m["name"] for m in family
        if not trace or workload in catalogue.LAYERS[m["name"]].runs_on
    }


def report(family: list, measured: dict, want: set) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of ``family``.

    A metric in ``want`` must have been measured, and nothing else may
    have been; metrics outside ``want`` (their layer does not run on the
    workload) are reported as 0.
    """
    if set(measured) != want:
        raise RuntimeError(
            f"measured metrics do not match the catalogue: missing"
            f" {sorted(want - set(measured))}, unexpected {sorted(set(measured) - want)}"
        )
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in family
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink both input sizes (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout"
              " of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload == "all":
        status = 0
        for name in names:
            print(f"== {name}", flush=True)
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--scale", str(args.scale)]
            status = max(status, subprocess.run(argv).returncode)
        return status
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT, args.scale)
    try:
        result = traced(wl) if args.trace else untraced(wl, args.seconds)
    finally:
        wl.close()

    family = contract["per_layer" if args.trace else "end_to_end"]
    want = expected(family, args.workload, args.trace)
    metrics = report(family, result["metrics"], want)
    for name, metric in metrics.items():
        if args.trace:
            layer = catalogue.LAYERS[name]
            shown = f"{metric['value']:.6g}" if name in want else "not-run"
            print(f"{name} {shown} {metric['unit']}  [{layer.layer} -> {layer.moves}]")
        else:
            print(f"{name} {metric['value']:.6g} {metric['unit']}"
                  + (f"  (unscaled wall: {result['wall'][name]:.6g})"
                     if name in result["wall"] else ""))
    if not args.trace:
        # Near 1 unless the program itself slowed the calibration loop.
        print(f"calibration drift {result['drift']:.4f} (in-run over quiet speed samples)")
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    details = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details, "w") as fh:
        json.dump({**result, "metrics": metrics, "not_run": sorted(set(metrics) - want)},
                  fh, indent=1, default=str)
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct, "attempted": int(result["attempted"]),
        "failed": int(result["failed"]), "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
