"""The supercong benchmark: timed `supercong verify` sweeps, each in a fresh interpreter.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The seed picks the sweep's window (see
workloads.py); the program receives only the generated `verify` arguments.
The run first times a few bare `import supercong.cli` interpreters
(`setup_s`), then runs sweeps one after another (a closed loop, one parent
process, at most the workload's worker count of pool processes) until
`--seconds` have passed, at least MIN_SWEEPS of them.  Every report is
checked against the rows recorded under expected/; a missing, failing or
changed row counts as failed, and a crashed sweep fails all of its rows.

`--trace 0` prints the end-to-end metrics, `--trace 1` alternates untraced
and traced sweeps and prints the per-layer metrics.  The last line of stdout
is the JSON result; the lines before it are the run's metadata and tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Workload, band_window

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

SETUP_SAMPLES = 3
MIN_SWEEPS = 2
CHILD_TIMEOUT_S = 150

ROW_FIELDS = ("check", "p", "status", "lhs", "rhs", "modulus", "note")

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "decided_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "padic_gamma.calls": "count",
    "padic_gamma.busy_s": "s",
    "padic_gamma.max_call_s": "s",
    "padic_gamma.repeat_share": "ratio",
    "hypergeom.identity.calls": "count",
    "hypergeom.identity.busy_s": "s",
    "hypergeom.series.calls": "count",
    "hypergeom.series.busy_s": "s",
    "exact.calls": "count",
    "exact.busy_s": "s",
    "eta.table_builds": "count",
    "eta.table_build_s": "s",
    "eta.lookups": "count",
    "eta.busy_s": "s",
    "variety.calls": "count",
    "variety.busy_s": "s",
    "verifier.tasks": "count",
    "verifier.task_busy_s": "s",
    "verifier.task_max_s": "s",
    "verifier.skipped_share": "ratio",
    "verifier.overhead_s": "s",
    "verifier.idle_s": "s",
    "verifier.self_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "trace_overhead_share": "ratio",
}


def row_key(row: dict) -> str:
    return f"{row['check']} {row['p']}"


def row_digest(row: dict) -> str:
    fields = json.dumps([row[k] for k in ROW_FIELDS])
    return hashlib.sha256(fields.encode()).hexdigest()[:16]


@dataclass
class Tally:
    """Outcomes attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


@dataclass
class Sweep:
    setup_s: float
    rc: int | None = None
    result: dict | None = None
    data: bytes | None = None
    rows: list[dict] = field(default_factory=list)
    workers: int = 1


class Bench:
    """Spawns the fresh interpreters of one run and checks what they produce."""

    def __init__(self, workdir: Path):
        src = ROOT / "src"
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )
        self.count = 0

    def spawn(self, *args: str) -> tuple[int | None, dict | None, float]:
        """Run child.py; returns (exit code, its JSON, seconds from spawn to imported CLI)."""
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,  # so a timeout can kill its pool workers too
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, None, time.perf_counter() - start
        except BaseException:  # interrupted or terminated: take the sweep down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        try:
            result = json.loads(out.decode().strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(err.decode()[-2000:])
            return proc.returncode, None, time.perf_counter() - start
        return proc.returncode, result, result["imported_at"] - start

    def setup(self) -> float:
        return self.spawn("import")[2]

    def sweep(self, argv: list[str], traced: bool = False, timing: bool = True) -> Sweep:
        self.count += 1
        out = self.workdir / f"report-{self.count}.json"
        full = argv + ["--out", str(out)] + ([] if timing else ["--no-timing"])
        rc, result, setup_s = self.spawn("sweep", json.dumps({"argv": full, "traced": traced}))
        sweep = Sweep(setup_s, rc, result, workers=int(argv[argv.index("--workers") + 1]))
        if out.exists():
            sweep.data = out.read_bytes()
            out.unlink()
            try:
                sweep.rows = json.loads(sweep.data)["outcomes"]
            except (ValueError, KeyError, TypeError):
                sweep.rows = []
        return sweep


def expected_rows(w: Workload, window: tuple[int, int]) -> dict[str, str]:
    recorded = json.loads((EXPECTED / f"{w.expected}.json").read_text())["rows"]
    lo, hi = window
    return {k: d for k, d in recorded.items() if lo <= int(k.split()[1]) <= hi}


def check_sweep(sweep: Sweep, expected: dict[str, str], tally: Tally) -> None:
    """Count each expected row; a missing, failing or changed row is a failure."""
    tally.attempted += len(expected)
    if sweep.result is None or sweep.rc not in (0, 1) or sweep.data is None:
        tally.fail(len(expected), f"sweep crashed (exit {sweep.rc}); all {len(expected)} rows failed")
        return
    seen: set[str] = set()
    for row in sweep.rows:
        key = row_key(row)
        if key not in expected or key in seen:
            tally.attempted += 1
            tally.fail(1, f"unexpected row {key}")
            continue
        seen.add(key)
        if row["status"] == "fail":
            tally.fail(1, f"{key} failed: {row['note']}")
        elif row_digest(row) != expected[key]:
            tally.fail(1, f"{key} differs from the recorded row")
    missing = len(expected) - len(seen)
    if missing:
        tally.fail(missing, f"{missing} rows missing")
    fails = sum(row["status"] == "fail" for row in sweep.rows)
    if (sweep.rc == 0) != (fails == 0):
        tally.attempted += 1
        tally.fail(1, f"exit code {sweep.rc} disagrees with {fails} failed rows")


def sweep_metrics(sweep: Sweep) -> dict[str, float]:
    """End-to-end figures of one sweep, plus the report-based verifier.* and cli figures."""
    r = sweep.result
    task_s = [row.get("elapsed_ms", 0.0) / 1000.0 for row in sweep.rows]
    busy = sum(task_s)
    decided = sum(row["status"] in ("pass", "fail") for row in sweep.rows)
    skipped = sum(row["status"] == "skipped" for row in sweep.rows)
    return {
        "sweep_s": r["sweep_s"],
        "decided_per_s": decided / r["sweep_s"],
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "verifier.tasks": len(sweep.rows),
        "verifier.task_busy_s": busy,
        "verifier.task_max_s": max(task_s, default=0.0),
        "verifier.skipped_share": skipped / len(sweep.rows) if sweep.rows else 0.0,
        "verifier.overhead_s": r["sweep_s"] - busy / sweep.workers,
        "verifier.idle_s": sweep.workers * r["sweep_s"] - busy,
        "cli.report_bytes": len(sweep.data),
    }


def median_of(samples: list[dict], name: str) -> float:
    return statistics.median(s[name] for s in samples)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git rev-parse failed)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run(w: Workload, seed: int, seconds: float, trace: bool, bench: Bench) -> dict:
    """One benchmark run: set-up samples, the timed sweeps, checks; returns the result."""
    meta = {
        "workload": w.name,
        "seed": seed,
        "argv": w.argv(seed),
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }
    expected = expected_rows(w, w.window(seed))
    tally = Tally()
    setups = [bench.setup() for _ in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for kind in (("plain", "traced") if trace else ("plain",)):
            sweep = bench.sweep(meta["argv"], traced=kind == "traced")
            setups.append(sweep.setup_s)
            check_sweep(sweep, expected, tally)
            if sweep.result is None or sweep.data is None:
                continue
            meta.setdefault("numpy", sweep.result.get("numpy"))
            sample = sweep_metrics(sweep)
            if kind == "traced":
                sample.update(tracing.layer_metrics(sweep.result["spans"]))
                traced.append(sample)
            else:
                plain.append(sample)
        durations.append(time.perf_counter() - start)
        enough = len(durations) >= (1 if trace else MIN_SWEEPS)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            break

    if w.workers > 1:
        # the worker count must not change the report: compare --no-timing bytes
        one = bench.sweep(w.argv(seed, workers=1), timing=False)
        many = bench.sweep(meta["argv"], timing=False)
        for sweep in (one, many):
            check_sweep(sweep, expected, tally)
        tally.attempted += 1
        if one.data is None or one.data != many.data:
            tally.fail(1, f"--no-timing report differs between 1 and {w.workers} workers")

    meta["loadavg_end"] = os.getloadavg()
    meta["sweeps"] = len(plain) + len(traced)
    meta["samples"] = {
        name: [round(s[name], 6) for s in plain]
        for name in ("sweep_s", "cpu_s", "verifier.task_max_s")
    }
    meta["setup_samples"] = len(setups)
    metrics: dict[str, float] = {}
    if plain:
        metrics = {name: median_of(plain, name) for name in plain[0]}
    metrics["setup_s"] = statistics.median(setups)
    if traced:
        # report-based figures (verifier.*, cli.report_bytes) stay from the untraced sweeps
        for name in traced[0]:
            if name in PER_LAYER_UNITS and name not in metrics:
                metrics[name] = median_of(traced, name)
        if plain:
            metrics["trace_overhead_share"] = (
                median_of(traced, "sweep_s") / median_of(plain, "sweep_s") - 1.0
            )
    return {"meta": meta, "tally": tally, "metrics": metrics,
            "samples": {"plain": len(plain), "traced": len(traced)}}


def print_report(out: dict, trace: bool) -> dict:
    """Print the tables; return the result object for the last line."""
    meta, tally, metrics = out["meta"], out["tally"], out["metrics"]
    print("# meta " + json.dumps(meta))
    print(f"# {meta['workload']} seed {meta['seed']}: {' '.join(meta['argv'])}")
    n = out["samples"]
    print(f"# sweeps: {n['plain']} untraced, {n['traced']} traced; "
          f"setup samples: {meta['setup_samples']}; values are medians")
    for name, unit in END_TO_END_UNITS.items():
        if name in metrics:
            print(f"{name:28s} {metrics[name]:14.6f} {unit}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_share':28s} {share:14.6f} ratio ({tally.failed} of {tally.attempted})")
    for problem in tally.problems:
        print(f"# problem: {problem}")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = [name for name in units if name not in metrics]
    if not trace:
        print("# from the reports (per-layer, unbounded)")
        for name, unit in PER_LAYER_UNITS.items():
            if name in metrics:
                print(f"{name:28s} {metrics[name]:14.6f} {unit}")
    elif not missing:
        print("# per-layer (self time is span time minus child spans)")
        for name in PER_LAYER_UNITS:
            print(f"{name:28s} {metrics[name]:14.6f} {PER_LAYER_UNITS[name]}")
        own = tracing.self_time_by_layer(metrics)
        print("# largest self time: " + max(own, key=own.get))
    if missing:
        tally.fail(1, f"no measurement for {', '.join(missing)}")
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def record(workloads: list[Workload], bench: Bench) -> None:
    """Write expected/<name>.json: the row digests of one sweep over each band."""
    done = set()
    for w in workloads:
        if w.expected in done:
            continue
        done.add(w.expected)
        pmin, pmax = band_window(w)
        argv = w.argv(DEFAULT_SEED, workers=1)
        argv[argv.index("--pmin") + 1] = str(pmin)
        argv[argv.index("--pmax") + 1] = str(pmax)
        sweep = bench.sweep(argv, timing=False)
        if sweep.rc != 0 or not sweep.rows:
            raise SystemExit(f"{w.expected}: sweep failed (exit {sweep.rc}); nothing recorded")
        rows = {row_key(r): row_digest(r) for r in sweep.rows}
        body = {"argv": argv, "rows": rows}
        (EXPECTED / f"{w.expected}.json").write_text(json.dumps(body, indent=1) + "\n")
        print(f"recorded {len(rows)} rows for {w.expected}: {' '.join(argv)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the expected rows of every workload's band")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "supercong" / "cli.py").is_file():
        sys.stderr.write(f"error: no supercong sources under {ROOT / 'src'}\n")
        return 2
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        bench = Bench(workdir)
        if args.record:
            record(list(WORKLOADS.values()), bench)
            return 0
        w = WORKLOADS[args.workload]
        if w.workers > nproc():
            print(f"# skipped {w.name}: nproc = {nproc()} < {w.workers} workers "
                  "(the pool would be oversubscribed)")
            return 3
        out = run(w, args.seed, args.seconds, bool(args.trace), bench)
        result = print_report(out, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
