#!/usr/bin/env python3
"""Compare two directories of perf result files.

    perf/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the `result-<workload>.json` files of one or more runs
(`perf/run.sh --runs 5 --out DIR` writes them under DIR/run-<i>/). One row is
printed per (workload, end-to-end metric): both medians, the spread (the
distance between the first and third quartile as a share of the median, the
wider of the two sides), the bound from BENCHMARK.json, and a verdict:

    ok          the new median is no worse than the base by more than the bound
    regressed   it is worse by more than the bound
    unresolved  the spread is wider than the bound, so the runs cannot tell,
                unless every new run reads better than every base run (ok)

A run that reported failed operations or checks counts as regressed. Where
both directories also hold `layers-<workload>.json` files, the per-layer
medians are printed after each workload, without a verdict (they have no
bound). Exits 1 if anything regressed, 0 otherwise.
"""
import argparse
import json
import pathlib
import statistics
import sys


def load(directory, prefix):
    """{workload: [result, ...]} for every `<prefix>-*.json` below directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob(f"{prefix}-*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def spread(vals):
    """Interquartile distance as a share of the median; 0 for a single run."""
    if len(vals) < 2 or statistics.median(vals) == 0:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(statistics.median(vals))


def verdict(base, new, better, bound):
    """(worsening as a share of the base median, spread, verdict)."""
    b, n = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n - b) / abs(b) if b else 0.0
    wide = max(spread(base), spread(new))
    if wide > bound:
        if better == "lower":
            all_better = max(new) < min(base)
        else:
            all_better = min(new) > max(base)
        return worse, wide, "ok" if all_better else "unresolved"
    return worse, wide, "regressed" if worse > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    default = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    parser.add_argument("--benchmark", default=default)
    args = parser.parse_args()

    manifest = json.loads(pathlib.Path(args.benchmark).read_text())
    base, new = load(args.base, "result"), load(args.new, "result")
    base_layers, new_layers = load(args.base, "layers"), load(args.new, "layers")
    if not base or not new:
        sys.exit(f"no result-*.json files under {args.base if not base else args.new}")

    regressed = False
    header = f"{'workload':16} {'metric':26} {'base':>12} {'new':>12} {'worse':>8} {'spread':>8} {'bound':>7}  verdict"
    print(header)
    for workload in [w["name"] for w in manifest["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:16} (missing on one side)")
            continue
        for side, results in (("base", base[workload]), ("new", new[workload])):
            bad = [r for r in results if not r["correct"] or r["failed"]]
            if bad:
                print(f"{workload:16} {len(bad)} of {len(results)} {side} runs reported failures")
                regressed |= side == "new"
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            b, n = values(base[workload], name), values(new[workload], name)
            if not b or not n:
                continue
            worse, wide, word = verdict(b, n, metric["better"], metric["bound"])
            regressed |= word == "regressed"
            print(
                f"{workload:16} {name:26} {statistics.median(b):12.4f} {statistics.median(n):12.4f} "
                f"{worse:+8.1%} {wide:8.1%} {metric['bound']:7.0%}  {word}"
            )
        if workload in base_layers and workload in new_layers:
            for metric in manifest["per_layer"]:
                name = metric["name"]
                b, n = values(base_layers[workload], name), values(new_layers[workload], name)
                if b and n and (any(b) or any(n)):
                    print(
                        f"{workload:16} {name:38} {statistics.median(b):12.4f} "
                        f"{statistics.median(n):12.4f} {metric['unit']}"
                    )
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
