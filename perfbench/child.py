"""One fresh interpreter of the benchmark: import the CLI, then optionally run one `verify`.

    python3 child.py import
    python3 child.py sweep '{"argv": [...], "traced": false}'

Prints one JSON object: the perf_counter reading right after
`import supercong.cli` (the parent compares it with the time it spawned this
process), and for `sweep` the wall, CPU and peak memory of `cli.main(argv)`
plus, when traced, its spans.  The report itself goes to the `--out` file
named in argv.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    mode = sys.argv[1]
    from supercong import cli

    result: dict = {"imported_at": time.perf_counter(), "numpy": sys.modules["numpy"].__version__}
    if mode == "sweep":
        spec = json.loads(sys.argv[2])
        tracer = captured = None
        if spec["traced"]:
            import tracing

            tracer = tracing.Tracer()
            captured = tracing.install(tracer)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        rc = cli.main(spec["argv"])
        end = time.perf_counter()
        own = resource.getrusage(resource.RUSAGE_SELF)
        pool = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, all joined by now
        result.update(
            rc=rc,
            sweep_s=end - start,
            cpu_s=_cpu(own) - _cpu(before) + _cpu(pool),
            peak_rss_mb=(own.ru_maxrss + pool.ru_maxrss) / 1024.0,  # ru_maxrss is KiB on Linux
        )
        if tracer is not None:
            result["spans"] = tracing.collect(tracer, captured["report"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
