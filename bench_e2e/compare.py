#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, metric by metric and workload by workload.

    python3 bench_e2e/compare.py <base_dir> <change_dir> [--benchmark BENCHMARK.json]
    python3 bench_e2e/compare.py --self-test

Each directory holds one JSON file per run: the file `bench_e2e --out` writes,
or the run's last stdout line saved as <workload>-<seed>.json. Runs pair up by
(workload, seed). Run the two sides alternately, pair by pair, changing which
side goes first; this script cannot see the order and does not check it.
For every metric x workload it prints both sides' median and quartiles, the
pairs the change won, and a verdict:

  failures    the change's runs failed more requests than the base's (a
              failed request is also an incorrect run); no other verdict
              counts while this holds;
  improved    at least 10 pairs, the change won at least 9/10 of them (ties
              count for neither), and the medians differ by more than the
              base's own quartile spread;
  pass        the change's median is no worse than the base's by more than
              the metric's bound;
  regress     it is worse by more than the bound;
  unresolved  the base's quartile spread (as a share of its median) is wider
              than the bound, so "no worse" cannot be told apart from noise,
              unless every change run reads better than every base run.

Per-layer metrics have no bound: they get medians, pairs and "improved",
"failures" or "-". Exit status 1 when any end-to-end metric regresses or any
workload has failures, else 0.
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        workload = doc.get("workload")
        seed = doc.get("seed")
        if workload is None or seed is None:
            workload, _, seed = path.stem.rpartition("-")
        runs[(workload, int(seed))] = doc
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failures(runs):
    """Failed requests over runs, an incorrect run counting at least one."""
    return sum(max(int(r.get("failed", 0)), 0 if r.get("correct", True) else 1) for r in runs)


def verdict(base, change, better, bound, base_failed=0, change_failed=0):
    """Returns (verdict, wins, pairs) for paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    pairs = len(base)
    if change_failed > base_failed:
        return "failures", wins, pairs
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    spread = bq3 - bq1
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and sign * (cmed - bmed) > spread:
        return "improved", wins, pairs
    if bound is None:
        return "-", wins, pairs
    if all(sign * (c - b) > 0 for c in change for b in base):
        return "pass", wins, pairs
    scale = abs(bmed) if bmed else 1.0
    if spread / scale > bound:
        return "unresolved", wins, pairs
    worse = sign * (bmed - cmed) / scale
    return ("regress" if worse > bound else "pass"), wins, pairs


def compare(base_runs, change_runs, benchmark, out=sys.stdout):
    """Prints the table; returns the number of end-to-end regressions plus
    the number of workloads where the change failed more requests."""
    metrics = [(m, m["bound"]) for m in benchmark["end_to_end"]]
    metrics += [(m, None) for m in benchmark["per_layer"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    bad = 0
    header = (f"{'workload':18} {'metric':34} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>6}  verdict")
    print(header, file=out)
    for workload in workloads:
        seeds = sorted(s for (w, s) in base_runs if w == workload and (w, s) in change_runs)
        if not seeds:
            continue
        base_failed = failures(base_runs[(workload, s)] for s in seeds)
        change_failed = failures(change_runs[(workload, s)] for s in seeds)
        print(f"{workload:18} {'failed requests':34} {base_failed:>34} {change_failed:>34}",
              file=out)
        bad += change_failed > base_failed
        for metric, bound in metrics:
            name = metric["name"]
            pairs = [(base_runs[(workload, s)]["metrics"].get(name),
                      change_runs[(workload, s)]["metrics"].get(name)) for s in seeds]
            pairs = [(b["value"], c["value"]) for b, c in pairs if b and c]
            if not pairs:
                continue
            base = [b for b, _ in pairs]
            change = [c for _, c in pairs]
            v, wins, n = verdict(base, change, metric["better"], bound, base_failed,
                                 change_failed)
            bad += v == "regress"
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            delta = (cmed - bmed) / abs(bmed) * 100 if bmed else 0.0
            print(f"{workload:18} {name:34} {bmed:12.5g} [{bq1:9.4g}, {bq3:9.4g}] "
                  f"{cmed:12.5g} [{cq1:9.4g}, {cq3:9.4g}] {delta:+7.2f}% {wins:2d}/{n:<3d} {v}",
                  file=out)
    return bad


def self_test():
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.05},
                       {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.05}],
        "per_layer": [{"name": "layer_us", "unit": "us", "better": "lower"}],
    }
    noise = [0.99, 1.01, 1.0, 0.995, 1.005, 0.998, 1.002, 0.997, 1.003, 1.0]
    same = [100 * x for x in noise], [100 * x for x in reversed(noise)]
    same_lat = [10 * x for x in noise], [10 * x for x in reversed(noise)]
    cases = {
        # label: (base qps, change qps, base lat, change lat, change failed per
        # run, pairs used, expected (qps, lat) verdicts, expected compare() result)
        "same": (*same, *same_lat, 0, 10, ("pass", "pass"), 0),
        "worse": ([100 * x for x in noise], [80 * x for x in noise],
                  [10 * x for x in noise], [12 * x for x in noise], 0, 10,
                  ("regress", "regress"), 2),
        "better": ([100 * x for x in noise], [110 * x for x in noise],
                   [10 * x for x in noise], [9 * x for x in noise], 0, 10,
                   ("improved", "improved"), 0),
        # Faster only because requests failed: never pass or improved.
        "better_but_failing": ([100 * x for x in noise], [110 * x for x in noise],
                               [10 * x for x in noise], [9 * x for x in noise], 3, 10,
                               ("failures", "failures"), 1),
        # Nine clean wins out of nine pairs: too few pairs to claim a gain.
        "better_few_pairs": ([100 * x for x in noise], [110 * x for x in noise],
                             [10 * x for x in noise], [9 * x for x in noise], 0, 9,
                             ("pass", "pass"), 0),
        "noisy": ([100 * (1 + 0.3 * (i % 3 - 1)) for i in range(10)],
                  [97 * (1 + 0.3 * (i % 3 - 1)) for i in range(10)],
                  [10 * (1 + 0.3 * (i % 3 - 1)) for i in range(10)],
                  [10.3 * (1 + 0.3 * (i % 3 - 1)) for i in range(10)], 0, 10,
                  ("unresolved", "unresolved"), 0),
    }
    failed_tests = 0
    for label, (bq, cq, bl, cl, change_failed, n, want, want_bad) in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp) / "base", Path(tmp) / "change"]
            for d, qps, lat, fails in ((dirs[0], bq, bl, 0), (dirs[1], cq, cl, change_failed)):
                d.mkdir()
                for seed, (q, l) in enumerate(zip(qps[:n], lat[:n])):
                    doc = {"correct": fails == 0, "attempted": 100, "failed": fails,
                           "metrics": {"qps": {"value": q, "unit": "1/s"},
                                       "lat": {"value": l, "unit": "ms"},
                                       "layer_us": {"value": l, "unit": "us"}}}
                    (d / f"w-{seed}.json").write_text(json.dumps(doc))
            base, change = load_runs(dirs[0]), load_runs(dirs[1])
            base_failed = failures(base.values())
            change_failed_total = failures(change.values())
            got = []
            for metric in benchmark["end_to_end"]:
                b = [base[("w", s)]["metrics"][metric["name"]]["value"] for s in range(n)]
                c = [change[("w", s)]["metrics"][metric["name"]]["value"] for s in range(n)]
                got.append(verdict(b, c, metric["better"], metric["bound"], base_failed,
                                   change_failed_total)[0])
            ok = tuple(got) == want
            failed_tests += not ok
            print(f"self-test {label}: {got} {'ok' if ok else f'FAIL, want {list(want)}'}")
            with open(Path(tmp) / "table.txt", "w") as sink:
                bad = compare(base, change, benchmark, out=sink)
            if bad != want_bad:
                failed_tests += 1
                print(f"self-test {label}: compare() returned {bad}, want {want_bad}")
    print("self-test", "passed" if failed_tests == 0 else f"FAILED ({failed_tests})")
    return 1 if failed_tests else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                                   / "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("need <base_dir> and <change_dir>")
    benchmark = json.loads(Path(args.benchmark).read_text())
    return 1 if compare(load_runs(args.base), load_runs(args.change), benchmark) else 0


if __name__ == "__main__":
    sys.exit(main())
