"""Many benchmark runs at once: a seed sweep of one checkout, or paired runs of two.

    python3 perfbench/campaign.py seeds --seeds 1-10 [--workloads a,b] [--out FILE]
    python3 perfbench/campaign.py pairs BASE_DIR HEAD_DIR --workload W [--pairs 10]

`seeds` runs the BENCHMARK.json command once per seed on each workload of the
checkout this file sits in and reports, per end-to-end metric, the median and
the spread: the distance between the first and third quartile as a share of
the median.  With --out it writes every run's result and metadata there, which
is how the results/BENCH_*.json files are made.

`pairs` runs the command alternately in two checkouts (BASE first on even
pairs, HEAD first on odd ones), one seed per pair, and applies the paired-run
rule: HEAD gains on a metric when it wins at least nine tenths of the pairs and
the medians differ by more than BASE's own quartile spread; it regresses when
its median is worse than BASE's by more than the metric's bound; a metric
whose BASE spread exceeds its bound is unresolved unless every HEAD run beats
every BASE run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root: Path, spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    """One run of the benchmark command in a checkout; its result, metadata and wall time."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "run_wall_s": wall, "meta": meta, "result": result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values_of(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_seeds(args) -> int:
    spec = load_spec(ROOT)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in parse_seeds(args.seeds):
        for name in names:
            run = run_once(ROOT, spec, name, seed, args.trace)
            r = run["result"]
            print(f"{name} seed {seed}: exit {run['exit']} in {run['run_wall_s']:.1f} s, "
                  f"correct={r and r['correct']} failed={r and r['failed']}", flush=True)
            runs.append(run)
    summary = {}
    ok = True
    metrics = spec["end_to_end"] if not args.trace else spec["per_layer"]
    print(f"\n{'workload':18s} {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        ok &= all(r["result"] and r["result"]["correct"] for r in mine)
        for m in metrics:
            vals = values_of(mine, m["name"])
            if not vals:
                continue
            bound = m.get("bound")
            s = spread(vals)
            flag = ""
            if bound is not None and m["name"] != "setup_s" and s > bound / 3:
                flag = "  over a third of the bound"
            summary.setdefault(name, {})[m["name"]] = {
                "median": statistics.median(vals), "quartiles": quartiles(vals),
                "spread": s, "n": len(vals), "unit": m["unit"],
            }
            print(f"{name:18s} {m['name']:16s} {statistics.median(vals):12.5f} {s:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        walls = [r["run_wall_s"] for r in mine]
        print(f"{name:18s} run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"benchmark": spec, "seeds": args.seeds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED OR WERE INCORRECT")
    return 0 if ok else 1


def cmd_pairs(args) -> int:
    base, head = Path(args.base).resolve(), Path(args.head).resolve()
    spec = load_spec(base)
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("base", base), ("head", head)] if i % 2 == 0 else [("head", head), ("base", base)]
        pair = {side: run_once(root, spec, args.workload, seed) for side, root in order}
        pairs.append(pair)
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{side} correct={pair[side]['result'] and pair[side]['result']['correct']}"
            for side in ("base", "head")), flush=True)
    print(f"\n{'metric':16s} {'base median':>12s} {'head median':>12s} {'base spread':>11s} "
          f"{'wins':>6s}  verdict")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        full = [p for p in pairs if p["base"]["result"] and p["head"]["result"]]
        b = [p["base"]["result"]["metrics"][name]["value"] for p in full]
        h = [p["head"]["result"]["metrics"][name]["value"] for p in full]
        if not b:
            print(f"{name:16s} no complete pairs")
            continue
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        q1, bmed, q3 = quartiles(b)
        hmed = statistics.median(h)
        worse = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
        all_better = all((y < min(b)) if lower else (y > max(b)) for y in h)
        if wins >= 0.9 * len(full) and abs(hmed - bmed) > q3 - q1:
            verdict = "gain"
        elif spread(b) > m["bound"] and not all_better:
            verdict = "unresolved (base spread over bound)"
        elif worse > m["bound"]:
            verdict = "regression"
        else:
            verdict = "no change beyond bound"
        print(f"{name:16s} {bmed:12.5f} {hmed:12.5f} {spread(b):11.4f} "
              f"{wins:3d}/{len(full):<3d} {verdict}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    seeds = sub.add_parser("seeds", help="seed sweep of this checkout")
    seeds.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    seeds.add_argument("--workloads", default="", help="comma-separated; default all")
    seeds.add_argument("--trace", type=int, choices=(0, 1), default=0)
    seeds.add_argument("--out", default="")
    pairs = sub.add_parser("pairs", help="paired runs of two checkouts")
    pairs.add_argument("base")
    pairs.add_argument("head")
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()
    return cmd_seeds(args) if args.cmd == "seeds" else cmd_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
