"""Self-test of the benchmark on tiny windows; takes well under a minute.

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its unit,
that a report with one tampered `lhs` is counted as one failure and a crashed
sweep as all of its rows failed, that traced spans nest (`eta.a_p` contains
`eta.f_coefficients`, also inside pool workers), that seeds give fixed windows
inside their bands, and that the benchmark refuses to run, printing no result,
where the checkout holds no program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# tiny windows inside the recorded sweep-default rows
TINY = Workload("tiny", (), 1, 3, 30, (3, 5), (29, 30), "sweep-default")
TINY_W2 = Workload("tiny-w2", (), 2, 3, 30, (3, 5), (29, 30), "sweep-default")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def printed_result(w: Workload, trace: bool, bench: run.Bench) -> tuple[dict, str]:
    out = run.run(w, DEFAULT_SEED, 0.1, trace, bench)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result = run.print_report(out, trace)
    return result, text.getvalue()


def test_metrics_printed(bench: run.Bench) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, text = printed_result(TINY, trace, bench)
        check(result["correct"] and result["failed"] == 0,
              f"trace={int(trace)}: tiny run is correct ({result['attempted']} attempted)")
        for m in SPEC[key]:
            got = result["metrics"].get(m["name"], {})
            line = next((l for l in text.splitlines() if l.split()[:1] == [m["name"]]), "")
            check(got.get("unit") == m["unit"] and line.endswith(m["unit"]),
                  f"{m['name']} printed with unit {m['unit']}")
        check(set(result["metrics"]) == {m["name"] for m in SPEC[key]},
              f"trace={int(trace)}: the result holds exactly the {key} metrics")


def test_tampered_and_crashed(bench: run.Bench) -> None:
    expected = run.expected_rows(TINY, TINY.window(DEFAULT_SEED))
    sweep = bench.sweep(TINY.argv(DEFAULT_SEED))
    clean = run.Tally()
    run.check_sweep(sweep, expected, clean)
    check(clean.failed == 0 and clean.attempted == len(expected), "untouched report passes")

    row = next(r for r in sweep.rows if r["lhs"] is not None)
    row["lhs"] = str(int(row["lhs"]) + 1)
    tampered = run.Tally()
    run.check_sweep(sweep, expected, tampered)
    check(tampered.failed == 1, f"one tampered lhs ({row['check']} {row['p']}) counts as one failure")

    crashed = run.Tally()
    run.check_sweep(run.Sweep(setup_s=0.0, rc=None), expected, crashed)
    check(crashed.failed == len(expected), "a crashed sweep fails all of its rows")


def test_spans_nest(bench: run.Bench) -> None:
    for w in (TINY, TINY_W2):
        sweep = bench.sweep(w.argv(DEFAULT_SEED), traced=True)
        spans = sweep.result["spans"]
        by_id = {s[tracing.ID]: s for s in spans}
        tables = [s for s in spans if s[tracing.LAYER] == "eta.table"]
        nested = all(
            (parent := by_id.get(s[tracing.PARENT])) is not None
            and parent[tracing.LAYER] == "eta" and parent[tracing.NAME] == "a_p"
            and parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
            for s in tables
        )
        check(bool(tables) and nested, f"{w.name}: every f_coefficients span lies inside an a_p span")
        own = tracing.self_times(spans)
        check(all(own[s[tracing.PARENT]] < by_id[s[tracing.PARENT]][tracing.END]
                  - by_id[s[tracing.PARENT]][tracing.START] for s in tables),
              f"{w.name}: a_p self time excludes its f_coefficients child")
        metrics = tracing.layer_metrics(spans)
        check(metrics["padic_gamma.calls"] > 0 and metrics["eta.table_builds"] == w.workers,
              f"{w.name}: spans come back from every process "
              f"({metrics['eta.table_builds']} table builds, {w.workers} workers)")


def test_seeds() -> None:
    for w in WORKLOADS.values():
        check(w.window(DEFAULT_SEED) == (w.pmin, w.pmax), f"{w.name}: seed 0 is the reference window")
        inside = all(
            w.pmin_band[0] <= lo <= w.pmin_band[1] and w.pmax_band[0] <= hi <= w.pmax_band[1]
            and w.window(seed) == (lo, hi)
            for seed in range(1, 50) for lo, hi in [w.window(seed)]
        )
        check(inside, f"{w.name}: seeded windows are repeatable and inside the bands")


def test_refuses_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_build"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "sweep-default", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and proc.stdout == "",
              f"without src/ it exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_build"))
    try:
        bench = run.Bench(workdir)
        test_seeds()
        test_metrics_printed(bench)
        test_tampered_and_crashed(bench)
        test_spans_nest(bench)
        test_refuses_without_program()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
