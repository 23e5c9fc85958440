#!/usr/bin/env python3
"""Smoke gate for the panel fit schedule (docs/PERFORMANCE.md).

Reads a TMARK_BENCH_JSON dump from bench_perf_tmark, finds the
"fit-engine comparison" table, and asserts that one width-q panel solve
("width_q") costs no more per column-iteration than the per-class schedule
of q width-1 solves ("width1") times --slack (default 1.5x — deliberately
generous: the gate exists to catch a panel path that has regressed to
uselessness, not to certify a speedup on a loaded CI machine;
docs/PERFORMANCE.md quotes the real numbers from quiet-machine runs).

Usage: check_fit_engine.py FILE [--slack 1.5]
"""

import argparse
import json
import sys

TABLE_TITLE = "fit-engine comparison"


def fail(message):
    print(f"check_fit_engine: {message}", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--slack", type=float, default=1.5,
                        help="allowed width_q/width1 ms_per_iter ratio")
    args = parser.parse_args()

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read {args.file}: {e}")

    table = next((t for t in doc.get("tables", [])
                  if t.get("title") == TABLE_TITLE), None)
    if table is None:
        return fail(f"{args.file}: no '{TABLE_TITLE}' table "
                    "(bench_perf_tmark out of date?)")

    headers = table["headers"]
    try:
        engine_col = headers.index("engine")
        iter_col = headers.index("ms_per_iter")
        count_col = headers.index("iterations")
    except ValueError as e:
        return fail(f"{args.file}: comparison table missing column: {e}")

    per_iter = {row[engine_col]: float(row[iter_col])
                for row in table["rows"]}
    iterations = {row[engine_col]: int(row[count_col])
                  for row in table["rows"]}
    for engine in ("width1", "width_q"):
        if engine not in per_iter:
            return fail(f"{args.file}: no '{engine}' row in the "
                        "comparison table")

    # Bit-identical schedules must agree on the total column-iteration
    # count; a mismatch means the comparison timed two different workloads.
    if iterations["width_q"] != iterations["width1"]:
        return fail(f"{args.file}: iteration counts differ "
                    f"(width_q {iterations['width_q']} vs width1 "
                    f"{iterations['width1']}) — schedules diverged?")

    limit = per_iter["width1"] * args.slack
    if per_iter["width_q"] > limit:
        return fail(
            f"{args.file}: width-q panel solve is too slow: "
            f"{per_iter['width_q']:.5f} ms/iter vs width1 "
            f"{per_iter['width1']:.5f} ms/iter "
            f"(allowed up to {limit:.5f} with slack {args.slack})")

    print(f"check_fit_engine: ok — width_q {per_iter['width_q']:.5f} "
          f"ms/iter vs width1 {per_iter['width1']:.5f} ms/iter "
          f"(slack {args.slack})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
