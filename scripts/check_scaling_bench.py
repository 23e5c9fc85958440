#!/usr/bin/env python3
"""Gate for the scaling bench (docs/PERFORMANCE.md "Scaling").

Reads a TMARK_BENCH_JSON dump from bench_perf_scaling and asserts, for
every n of the "scaling curve" table (one row per (n, threads)):

  * a 1-thread row is present, and no (n, threads) cell appears twice,
  * every thread count ran the same number of iterations (the fit is
    bit-identical across thread counts, so a mismatch means two different
    workloads were timed),
  * no N-thread row's ms_per_iter exceeds the 1-thread row's by more than
    --slack (default 1.5x — deliberately generous, like
    check_fit_engine.py: the gate catches a parallel dispatch that
    regressed to uselessness, not timing noise on a loaded CI machine),

and, for every row of the "scaling memory" table, that the compact
(adaptive 32-bit) structures are strictly smaller than the forced-wide
64-bit ones — for the CSR slices and the merged view alike. The memory
comparison is analytic byte accounting, so it is exact and noise-free.

Usage: check_scaling_bench.py FILE [--slack 1.5]
"""

import argparse
import collections
import json
import sys

CURVE_TITLE = "scaling curve"
MEMORY_TITLE = "scaling memory"


def fail(message):
    print(f"check_scaling_bench: {message}", file=sys.stderr)
    return 1


def find_table(doc, title, path):
    table = next((t for t in doc.get("tables", [])
                  if t.get("title") == title), None)
    if table is None:
        raise KeyError(f"{path}: no '{title}' table "
                       "(bench_perf_scaling out of date?)")
    return table


def columns(table, names, path):
    headers = table["headers"]
    try:
        return [headers.index(name) for name in names]
    except ValueError as e:
        raise KeyError(f"{path}: table missing column: {e}")


def check_curve(table, slack, path):
    n_col, t_col, iter_col, per_col = columns(
        table, ["n", "threads", "iterations", "ms_per_iter"], path)
    cells = collections.defaultdict(dict)
    for row in table["rows"]:
        by_threads = cells[row[n_col]]
        threads = int(row[t_col])
        if threads in by_threads:
            raise ValueError(
                f"{path}: n={row[n_col]} threads={threads}: duplicate row")
        by_threads[threads] = (int(row[iter_col]), float(row[per_col]))
    if not cells:
        raise ValueError(f"{path}: '{CURVE_TITLE}' table has no rows")
    for n, by_threads in sorted(cells.items(), key=lambda kv: int(kv[0])):
        if 1 not in by_threads:
            raise ValueError(f"{path}: n={n}: no 1-thread row")
        base_iters, base = by_threads[1]
        for threads, (iters, per_iter) in sorted(by_threads.items()):
            where = f"n={n} threads={threads}"
            if iters != base_iters:
                raise ValueError(
                    f"{path}: {where}: iteration count {iters} differs from "
                    f"the 1-thread row's {base_iters} — fits diverged?")
            if per_iter > base * slack:
                raise ValueError(
                    f"{path}: {where}: too slow: {per_iter:.5f} ms/iter vs "
                    f"1 thread {base:.5f} ms/iter (allowed up to "
                    f"{base * slack:.5f} with slack {slack})")
            print(f"check_scaling_bench: {where}: {per_iter:.5f} vs "
                  f"1 thread {base:.5f} ms/iter")


def check_memory(table, path):
    cols = columns(
        table,
        ["n", "csr_compact_bytes", "csr_wide_bytes",
         "merged_compact_bytes", "merged_wide_bytes"], path)
    if not table["rows"]:
        raise ValueError(f"{path}: '{MEMORY_TITLE}' table has no rows")
    for row in table["rows"]:
        n, csr_c, csr_w, mv_c, mv_w = (row[c] for c in cols)
        for label, compact, wide in (("csr", int(csr_c), int(csr_w)),
                                     ("merged", int(mv_c), int(mv_w))):
            if compact >= wide:
                raise ValueError(
                    f"{path}: n={n}: compact {label} structures are not "
                    f"smaller than wide ones ({compact} vs {wide} bytes)")
        print(f"check_scaling_bench: n={n}: csr {csr_c}/{csr_w} "
              f"merged {mv_c}/{mv_w} compact/wide bytes")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--slack", type=float, default=1.5,
                        help="allowed N-thread/1-thread ms_per_iter ratio")
    args = parser.parse_args()

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read {args.file}: {e}")

    try:
        check_curve(find_table(doc, CURVE_TITLE, args.file), args.slack,
                    args.file)
        check_memory(find_table(doc, MEMORY_TITLE, args.file), args.file)
    except (KeyError, ValueError) as e:
        return fail(str(e).strip("'"))

    print(f"check_scaling_bench: ok (slack {args.slack})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
