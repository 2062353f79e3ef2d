#!/usr/bin/env python3
"""Diff a bench_batch run against the checked-in baseline.

Usage: check_batch.py CANDIDATE.json [BASELINE.json]

Fails (exit 1) when bit-identity breaks or the batch path's speedup over the
scalar classify() loop collapses.  Bit-identity is the hard gate: it holds on
every build flavor or the batch pipeline is wrong, full stop.  The 2x-at-
batch-16 acceptance criterion, by contrast, is a statement about optimized
builds -- the CI coverage job runs -O1 + gcov where auto-vectorization is
off -- so the speedup is checked as a wide band against the baseline (which
IS recorded from a Release build and must carry criterion_batch16_2x=true),
clamped to "batching must never be slower than scalar".  Stdlib only, so the
CI job needs nothing beyond python3.
"""
import json
import sys
from pathlib import Path

# Candidate speedup must reach this fraction of the baseline's recorded
# speedup.  0.4 is deliberately loose: the baseline is a Release number and
# the coverage job measures an instrumented -O1 build where the SIMD share
# of the win is gone and only the amortization share remains.
SPEEDUP_FRACTION = 0.4
# ...but never below parity: if classify_batch is SLOWER than the scalar
# loop, the hot path has regressed no matter the build flavor.
SPEEDUP_FLOOR = 1.0
# Absolute throughput band, same rationale as check_fleet.py.
THROUGHPUT_FRACTION = 0.1


def lookup(doc, section, key):
    node = doc if section is None else doc.get(section, {})
    return node.get(key)


def batch_row(doc, batch):
    for row in doc.get("batch", []):
        if row.get("batch") == batch:
            return row
    return {}


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    candidate = json.loads(Path(argv[1]).read_text())
    baseline_path = argv[2] if len(argv) > 2 else str(Path(__file__).parent / "BENCH_batch.json")
    baseline = json.loads(Path(baseline_path).read_text())

    failures = []
    rows = []

    # Hard gates.  Identity must hold everywhere; the 2x criterion must hold
    # in the BASELINE (the recorded Release evidence) -- a baseline without
    # it should never have been pinned.
    got_ident = lookup(candidate, "identity", "criterion_identical")
    rows.append(("criterion_identical", lookup(baseline, "identity", "criterion_identical"), got_ident))
    if got_ident is not True:
        failures.append(f"bit-identity broke: criterion_identical is {got_ident}")
    if lookup(baseline, "comparison", "criterion_batch16_2x") is not True:
        failures.append("baseline does not carry criterion_batch16_2x=true; "
                        "re-record it from a Release build")
    if lookup(candidate, "identity", "windows_checked") in (None, 0):
        failures.append("identity check ran over zero windows")

    # Banded speedups: candidate vs a fraction of the baseline, floored at
    # parity with the scalar loop.
    for batch in (16, 64):
        key = f"speedup_batch{batch}"
        base = batch_row(baseline, batch).get("speedup_vs_scalar")
        got = batch_row(candidate, batch).get("speedup_vs_scalar")
        rows.append((key, base, got))
        if base is None or got is None:
            failures.append(f"metric '{key}' missing (baseline={base}, candidate={got})")
            continue
        need = max(base * SPEEDUP_FRACTION, SPEEDUP_FLOOR)
        if got < need:
            failures.append(f"'{key}' collapsed: {base} -> {got} (needs >= {need:.2f})")

    # Batch 1 runs the same one-window body as the per-window classify()
    # loop ("scalar"); it should track it, not fall off a cliff (dispatch
    # overhead bound).
    b1 = batch_row(candidate, 1).get("speedup_vs_scalar")
    rows.append(("speedup_batch1", batch_row(baseline, 1).get("speedup_vs_scalar"), b1))
    if b1 is None or b1 < 0.5:
        failures.append(f"batch-1 dispatch overhead blew up: {b1} (needs >= 0.5x scalar)")

    base_wps = lookup(baseline, "scalar", "windows_per_sec")
    got_wps = lookup(candidate, "scalar", "windows_per_sec")
    rows.append(("scalar_windows_per_sec", base_wps, got_wps))
    if base_wps is None or got_wps is None or got_wps < base_wps * THROUGHPUT_FRACTION:
        failures.append(
            f"scalar throughput collapsed: {base_wps} -> {got_wps} "
            f"(needs >= {0 if base_wps is None else base_wps * THROUGHPUT_FRACTION:.1f})")

    width = max(len(r[0]) for r in rows)
    print(f"{'metric'.ljust(width)}  baseline  candidate")
    for key, base, got in rows:
        fmt = lambda v: f"{v:.2f}" if isinstance(v, float) else str(v)
        print(f"{key.ljust(width)}  {fmt(base):>8}  {fmt(got):>9}")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: batch hot-path metrics within tolerance of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
