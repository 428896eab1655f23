#!/usr/bin/env python3
"""Diff two bench JSONL files (see bench/bench_util.h) field by field.

Usage: scripts/bench_diff.py [--gate] [--threshold=PCT] BASELINE.jsonl CURRENT.jsonl

Datapoints are matched by their "bench" name; numeric fields shared by both
sides are printed with their relative change.  Fields present on only one
side are listed (new benches and new fields are normal as the suite grows).

Without --gate the exit code is always 0 — a trajectory report.  With
--gate the guarded sections below (full_gc / trace / summarize / daemon /
mesh_depth) fail the run (exit 1) when a headline field regresses by more
than the threshold
(default 10%); benches or fields absent from either side are skipped, so
filtered runs gate only what they measured.
"""
import json
import sys

# Section -> {field: better-direction}.  Only headline wall-time/throughput
# fields gate; counters and shape fields (reclaimed, allocs, ...) are
# asserted by tests, not by the perf gate.  The trace and summarize
# sections repeat their timing and gate the median (each carries a
# *_spread field, the interquartile range over the median, for reading
# how far a single run can swing); baselines that predate the medians hold
# only single-shot fields, which the gate skips.
GATED = {
    "lgc_hotpath.trace": {"objects_per_sec_median": "higher"},
    "lgc_hotpath.full_gc": {"serial_ms": "lower", "parallel_ms": "lower"},
    "lgc_hotpath.summarize": {"one_pass_ms_median": "lower"},
    # Adaptive daemon scheduling (bench/ablation_policies.cpp, Ablation 5):
    # GC bytes per reclaimed spanning cycle and the ledger's p90 e2e are the
    # headline claims for the adaptive policy; bench/lgc_hotpath.cpp's
    # daemon section gates the background-GC wall time under it.
    "ablation_policies.daemon_adaptive": {
        "bytes_per_cycle": "lower",
        "p90_e2e": "lower",
    },
    "lgc_hotpath.daemon": {"adaptive_ms": "lower"},
    # CDM detection scaling (bench/lgc_hotpath.cpp mesh_depth section): the
    # detection wall time and the CDM count at each mesh depth.  The CDM
    # count is deterministic, so any rise there is a protocol change.
    **{
        f"lgc_hotpath.mesh_depth.d{depth}": {"detect_us": "lower", "cdms": "lower"}
        for depth in (3, 6, 12, 24)
    },
}


def load(path):
    """bench name -> {field: value}; last record wins on duplicate names."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            name = rec.pop("bench", None) or rec.pop("name", None)
            if name is None:
                continue
            out[name] = rec
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main():
    args = sys.argv[1:]
    gate = False
    threshold = 10.0
    paths = []
    for arg in args:
        if arg == "--gate":
            gate = True
        elif arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_path, cur_path = paths
    base, cur = load(base_path), load(cur_path)

    print(f"bench diff: {base_path} -> {cur_path}")
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"  {name}: new bench (no baseline)")
            continue
        if name not in cur:
            print(f"  {name}: missing from current run")
            continue
        b, c = base[name], cur[name]
        print(f"  {name}:")
        for field in sorted(set(b) | set(c)):
            if field in ("ts", "git", "host"):
                continue
            bv, cv = b.get(field), c.get(field)
            if bv is None:
                print(f"    {field}: (new) {cv}")
            elif cv is None:
                print(f"    {field}: {bv} (dropped)")
            elif is_number(bv) and is_number(cv):
                if bv != 0:
                    delta = (cv - bv) / abs(bv) * 100.0
                    print(f"    {field}: {bv:g} -> {cv:g} ({delta:+.1f}%)")
                else:
                    print(f"    {field}: {bv:g} -> {cv:g}")
            elif bv != cv:
                print(f"    {field}: {bv!r} -> {cv!r}")

    if not gate:
        return 0
    failures = []
    for name, fields in GATED.items():
        if name not in base or name not in cur:
            continue
        for field, better in fields.items():
            bv, cv = base[name].get(field), cur[name].get(field)
            if not (is_number(bv) and is_number(cv)) or bv == 0:
                continue
            delta = (cv - bv) / abs(bv) * 100.0
            regression = delta if better == "lower" else -delta
            if regression > threshold:
                failures.append(
                    f"{name}.{field}: {bv:g} -> {cv:g} "
                    f"({regression:+.1f}% worse, threshold {threshold:g}%)")
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} regression(s)):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"perf gate passed (threshold {threshold:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
