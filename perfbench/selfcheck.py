"""Self-check of the benchmark: every workload at a tiny size, untraced and
traced, in a few seconds.

    python3 perfbench/selfcheck.py

Asserts that each run prints every metric of BENCHMARK.json and every named
figure of NOTES.md with its unit, that the error-rate counts are printed, and
that the last line has exactly the keys of the benchmark's output format.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run

NAMED = {"sweep": ["ops_per_s", "sweep2_points_per_s", "sweep3_points_per_s"],
         "verify": ["ops_per_s", "verify_s"],
         "requests": ["ops_per_s", "measure_p50_ms", "measure_p90_ms",
                      "decompose_p50_ms", "decompose_p90_ms"]}


def check(workload: str, trace: bool, spec: dict) -> None:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result = run.run(workload, seed=1, seconds=0.3, trace=trace, tiny=True, setup_repeats=1)
    report = text.getvalue()
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["attempted"] >= 1, result
    assert list(result["metrics"]) == [m["name"] for m in declared], "metric names"
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in report.splitlines()), m
    if not trace:
        for name in NAMED[workload]:
            unit = run.NAMED_UNITS[name]
            assert any(line.startswith(f"  {name} = ") and f" {unit}  (samples " in line
                       for line in report.splitlines()), name
    assert "  error_rate = " in report and " attempted; " in report, "error_rate counts"
    print(f"ok  {workload:8s} trace {int(trace)}  attempted {result['attempted']}, "
          f"failed {result['failed']}, {len(result['metrics'])} metrics")


def main() -> int:
    spec = run.load_spec()
    try:
        for workload in NAMED:
            for trace in (False, True):
                check(workload, trace, spec)
    except AssertionError as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
