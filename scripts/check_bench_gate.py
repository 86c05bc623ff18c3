#!/usr/bin/env python3
"""CI gate over one entry of a tracked ``BENCH_*.json`` document.

Usage: ``python scripts/check_bench_gate.py FILE KEY``

Run after the benchmark that writes FILE has regenerated it: fails
(exit 1) unless ``FILE[KEY]`` exists and its ``speedup`` is at least
its recorded ``ci_min_speedup`` floor.  The floor lives in the JSON, next
to the number it gates, so the benchmark and the gate cannot drift
apart; a missing entry, speedup or floor fails the gate rather than
falling back to a default.
"""

from __future__ import annotations

import json
import sys


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: check_bench_gate.py FILE KEY", file=sys.stderr)
        return 2
    path, key = argv
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    entry = data.get(key)
    if not isinstance(entry, dict):
        print(f"{path} has no {key} entry — did the benchmark run?",
              file=sys.stderr)
        return 1
    missing = [field for field in ("speedup", "ci_min_speedup") if field not in entry]
    if missing:
        print(f"{path} entry {key} lacks {', '.join(missing)}", file=sys.stderr)
        return 1
    speedup, floor = entry["speedup"], entry["ci_min_speedup"]
    print(f"{key}: {speedup}x (floor {floor}x)")
    if speedup < floor:
        print(f"bench gate FAILED: {key} fell below its {floor}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
