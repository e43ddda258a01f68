#!/usr/bin/env python3
"""Compare two perfbench results.

    python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are full result files written by perfbench/run.py under
.bench_out/ (<workload>-seed<n>[-trace].json). Prints each metric of
both with its relative change, marking changes past the metric's
BENCHMARK.json bound. Two results are comparable only when they were
measured the same way: same workload, seed, run length, trace mode,
scale, core count, pool size, SIMD level, compiler and build type.
Otherwise it names every difference, prints no delta and exits 3.
"""

import json
import os
import sys

# Environment keys that must match; commit and source_digest are
# what a comparison is about, so they may differ.
MUST_MATCH = ["workload", "seed", "seconds", "trace", "scale", "nproc",
              "pool_threads", "simd", "compiler", "build_type"]


def load(path):
    with open(path) as handle:
        return json.load(handle)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    differences = [
        f"{key}: {base['env'].get(key)!r} vs {new['env'].get(key)!r}"
        for key in MUST_MATCH
        if base["env"].get(key) != new["env"].get(key)]
    if differences:
        print("not comparable, the environments differ; no delta "
              "reported:")
        for line in differences:
            print("  " + line)
        return 3

    spec_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    spec = {}
    if os.path.exists(spec_path):
        bench = load(spec_path)
        spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{base['env']['workload']} seed {base['env']['seed']}: "
          f"{base['env']['commit'][:12]} -> {new['env']['commit'][:12]} "
          f"(sources {base['env']['source_digest']} -> "
          f"{new['env']['source_digest']})")
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        a = base["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (base["metrics"].get(name) or new["metrics"][name])["unit"]
        if a is None or b is None:
            print(f"  {name:38s} only in {'new' if a is None else 'base'}")
            continue
        change = (b - a) / abs(a) if a else 0.0
        verdict = ""
        meta = spec.get(name)
        if meta is not None and "bound" in meta:
            worse = change > 0 if meta["better"] == "lower" else change < 0
            if worse and abs(change) > meta["bound"]:
                verdict = f"  worse than bound {meta['bound']}"
        print(f"  {name:38s} {a:14.6g} -> {b:14.6g} {unit:9s} "
              f"{change:+8.2%}{verdict}")
    for label, result in (("base", base), ("new", new)):
        if not result["correct"]:
            print(f"  {label} run failed its checks: "
                  + "; ".join(result["check_failures"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
