"""boxlab benchmark: times boxlab from outside, through boxlab.cli.main, and
checks every output against the reference values in oracle.py.

    python3 perfbench/run.py --workload {sweep,verify,requests} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports boxlab from ./src. It prints
a report, then as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
`end_to_end` ones of BENCHMARK.json, with --trace 1 the `per_layer` ones.
Results, and the spans of a traced run, are also written to .perfbench_out/.
NOTES.md says what each workload and metric is for.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer, TracingError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9          # fresh interpreters per run; setup_s is their median
# Operations in one round of a workload: the four sweep families, one
# verify, or a measure and a decompose request for each box of the mix.
ROUND = {"sweep": len(inputs.SWEEPS), "verify": 1, "requests": 2 * len(inputs.REQUEST_ROUND)}
# Rounds per second of --seconds in an untraced run. A run's work is fixed
# before it starts: round(seconds * ROUNDS_PER_S) rounds, at least one, so a
# seed always gives the same operations and the same attempted and failed
# counts, whatever the machine's speed. The rates are those of the reference
# machine (NOTES.md), so a run takes about --seconds there; on verify one
# acceptance run takes about 30 s, and a run holds one.
ROUNDS_PER_S = {"sweep": 5.0, "verify": 1 / 30, "requests": 4.0}
# Rounds in a traced run (one at the self-check's tiny size). It runs a fixed
# list, once untraced and once traced, so its counts repeat exactly for a seed.
TRACED_ROUNDS = {"sweep": 8, "verify": 1, "requests": 10}

# Layers each workload must enter: a traced run in which one of them has no
# call is a broken probe (a function renamed, moved or inlined), not a gain.
# The other per-layer metrics of a workload may read 0. On requests,
# boxcore.apply_lro is entered only by a bipartite frame search, and it is
# checked against frames_tried instead.
ENTERED = {
    "sweep": ["qstate.born_box2", "qstate.born_box3", "qstate.density_matrix",
              "qstate.settings_catalog", "boxcore.make_box", "discord2.measures",
              "tribox.make_box3", "tribox.measures", "cli.main"],
    "verify": ["qstate.born_box2", "qstate.born_box3", "qstate.density_matrix",
               "qstate.settings_catalog", "qstate.correlation_data", "boxcore.make_box",
               "discord2.measures", "tribox.make_box3", "tribox.measures",
               "tribox.three_decomposition3", "polytope.lp_vertex_weights",
               "polytope.three_decomposition", "cli.main",
               *(f"acceptance.criterion_{n}" for n in range(1, 17))],
    "requests": ["boxcore.make_box", "boxcore.json", "discord2.measures", "tribox.make_box3",
                 "tribox.measures", "tribox.tri_vertex_matrix", "tribox.three_decomposition3",
                 "tribox.json", "polytope.lp_vertex_weights", "polytope.three_decomposition",
                 "cli.main"],
}
TINY_VERIFY = [1, 14]


class BenchmarkError(Exception):
    pass


def load_boxlab():
    """boxlab from this checkout's src/, never from an installed copy."""
    if not (SRC / "boxlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no boxlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import boxlab
    from boxlab import acceptance, cli  # noqa: F401  (load every module)
    if Path(boxlab.__file__).resolve().parent != SRC / "boxlab":
        raise BenchmarkError(f"imported boxlab from {boxlab.__file__}, not from {SRC}")
    return boxlab


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"missing {path}")
    return json.loads(path.read_text())


# -- operations ----------------------------------------------------------------

def workload_ops(name: str, rng, outdir: Path, boxlab, tiny: bool):
    """(warm-up ops, endless op stream) of a workload."""
    if name == "sweep":
        return inputs.sweep_warmup(outdir), inputs.sweep_ops(rng, outdir)
    if name == "verify":
        warmup = [inputs.Op(["verify", "--only", "1"], "verify", expect={"criteria": 1})]
        return warmup, inputs.verify_ops(TINY_VERIFY if tiny else None)
    if name == "requests":
        # The first bipartite and the first tripartite box of the first
        # round, each measured and decomposed: that fills every lazy cache.
        # The rest of the round is not sent.
        stream = inputs.request_ops(rng, outdir, boxlab)
        first = list(islice(stream, ROUND["requests"]))
        warmup = [op for op in first if op.category in ("ns_flat", "sv_flat")][:2]
        warmup += [op for op in first if op.category == "sv_flat"]
        return warmup, stream
    raise BenchmarkError(f"unknown workload {name!r}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    refused: Counter = field(default_factory=Counter)  # no-witness refusals, by category
    failures: list = field(default_factory=list)     # operations that gave no result
    wrong: list = field(default_factory=list)        # results the oracle rejects
    latency: dict = field(default_factory=lambda: defaultdict(list))
    points: dict = field(default_factory=lambda: defaultdict(int))

    def fail(self, op, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{op.kind}/{op.category}: {message}")


def call(boxlab, op):
    """Run one operation; returns (seconds, exit code, error, stdout, whether
    the error is a documented refusal). Exit 2 is the CLI's input error, not
    a refusal: the CLI raises its refusals."""
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    refusals = (boxlab.polytope.ResidualInvalidError, boxlab.tribox.NotInPolytopeError)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = boxlab.cli.main(op.argv)
        except Exception as err:  # a refusal or a crash; judge() tells them apart
            exc = err
        end = perf_counter()
    if exc is None and code not in (0, 1):
        exc = RuntimeError(f"exit {code}: {stderr.getvalue().strip()}")
    return end - start, code, exc, stdout.getvalue(), isinstance(exc, refusals)


def judge(op, code, exc, refused: bool, stdout: str, tally: Tally) -> None:
    """Score one operation's output against the oracle."""
    if op.kind == "verify":
        verdicts = [line.strip() for line in stdout.splitlines() if line[:6] in ("[PASS]", "[FAIL]")]
        tally.attempted += op.expect["criteria"]
        if exc is not None or len(verdicts) != op.expect["criteria"]:
            tally.wrong.append(f"verify: {len(verdicts)} verdicts, error {exc!r}")
            return
        for line in verdicts:
            if line.startswith("[FAIL]"):
                tally.fail(op, line)
        return
    tally.attempted += 1
    witness = op.expect.get("witness")
    if op.kind == "decompose" and refused:
        if witness is None:
            tally.refused[op.category] += 1
        else:
            tally.fail(op, f"refused a box with canonical witness mu, nu = {witness}: {exc!r}")
        return
    if exc is not None or code != 0:
        tally.fail(op, f"exit {code}, error {exc!r}")
        return
    text = op.out.read_text()
    if op.kind in ("sweep2", "sweep3"):
        problems = oracle.check_sweep_csv(text, op.category, op.expect["values"],
                                          op.expect["measures"])
    elif op.kind == "measure":
        report, table = json.loads(text), op.expect["table"]
        if table.ndim == 4:
            problems = oracle.check_measure2(table, report)
        else:
            problems = oracle.check_measure3(table, report, op.expect.get("in_sv_polytope", False))
    else:
        report = json.loads(text)
        problems = oracle.check_decomposition(op.expect["table"], report)
        if witness is not None and max(abs(report["mu"] - witness[0]),
                                       abs(report["nu"] - witness[1])) > oracle.TOL:
            problems.append(f"mu, nu = {report['mu']!r}, {report['nu']!r}; witness {witness}")
    if problems:
        tally.wrong.append(f"{op.kind}/{op.category}: {'; '.join(problems[:3])}")


def run_ops(boxlab, ops, tracer: Tracer | None = None, tally: Tally | None = None) -> Tally:
    """Closed loop, one client, no think time: each operation is sent when
    the previous one is done."""
    tally = Tally() if tally is None else tally
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        seconds_op, code, exc, stdout, refused = call(boxlab, op)
        tally.latency[op.kind].append(seconds_op)
        tally.points[op.kind] += op.points
        judge(op, code, exc, refused, stdout, tally)
    return tally


def run_traced(boxlab, ops, chunk: int):
    """Each chunk of `ops` runs untraced, then traced, so that a drift in
    machine speed falls on both sides of the tracing overhead alike."""
    tracer, untraced, traced = Tracer(boxlab), Tally(), Tally()
    for i in range(0, len(ops), chunk):
        run_ops(boxlab, ops[i:i + chunk], tally=untraced)
        with tracer:
            run_ops(boxlab, ops[i:i + chunk], tracer, traced)
    return tracer, untraced, traced


def setup_probe(warmup, outdir: Path):
    """A function that measures set-up once: the seconds from before
    `import boxlab` to the end of the warm-up, in a fresh interpreter."""
    argv_file = outdir / "warmup.json"
    argv_file.write_text(json.dumps([op.argv for op in warmup]))

    def probe() -> float:
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(argv_file)],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1])

    return probe


def run_measured(boxlab, ops, n_ops: int, probe, repeats: int):
    """The untraced run: the closed loop of run_ops over the `n_ops`
    operations of `ops`, paused for `repeats` set-up probes at even steps of
    the operation count, so that the probes sample the same stretch of
    machine speed as the operations. Probes still due at the end (on verify,
    with its single operation) follow the loop. Returns (tally, set-up
    times)."""
    tally, setup = Tally(), []
    for i, op in enumerate(ops):
        while len(setup) < repeats and i >= len(setup) * n_ops / repeats:
            setup.append(probe())
        run_ops(boxlab, [op], tally=tally)
    setup += [probe() for _ in range(repeats - len(setup))]
    return tally, setup


# -- metrics ---------------------------------------------------------------------

def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def all_latencies(tally: Tally) -> list[float]:
    return [v for values in tally.latency.values() for v in values]


def end_to_end_values(name: str, tally: Tally, setup: list[float]) -> dict:
    """Every end-to-end figure: the generic ones that BENCHMARK.json lists,
    and the workload's own, named as in NOTES.md."""
    lat = all_latencies(tally)
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(lat) / sum(lat),
        "op_p90_ms": 1e3 * percentile(lat, 90),
    }
    if name == "sweep":
        for kind in ("sweep2", "sweep3"):
            values[f"{kind}_points_per_s"] = tally.points[kind] / sum(tally.latency[kind])
    elif name == "verify":
        values["verify_s"] = statistics.median(tally.latency["verify"])
    else:
        for kind in ("measure", "decompose"):
            for q in (50, 90):
                values[f"{kind}_p{q}_ms"] = 1e3 * percentile(tally.latency[kind], q)
    return values


NAMED_UNITS = {"ops_per_s": "1/s", "sweep2_points_per_s": "1/s", "sweep3_points_per_s": "1/s", "verify_s": "s",
               "measure_p50_ms": "ms", "measure_p90_ms": "ms",
               "decompose_p50_ms": "ms", "decompose_p90_ms": "ms"}


def per_layer_values(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    values = {}
    for layer, rec in tracer.stats.items():
        values[f"{layer}.calls"] = rec["calls"]
        values[f"{layer}.self_s"] = rec["self_s"]
        if layer.startswith("acceptance.criterion_"):
            values[f"{layer}.s"] = rec["total_s"]
        failed = rec["calls"] - rec["status:ok"] - rec["status:none"]
        if layer == "boxcore.make_box":
            values[f"{layer}.rejected"] = failed
        elif layer == "polytope.lp_vertex_weights":
            values[f"{layer}.infeasible"] = rec["status:none"]
            values[f"{layer}.failed"] = failed
        elif layer == "polytope.three_decomposition":
            values[f"{layer}.undecomposable"] = rec["status:ResidualInvalidError"]
            values[f"{layer}.frames_tried"] = rec["frames_tried"]
            values[f"{layer}.frames_hit"] = rec["frames_hit"]
            values[f"{layer}.frames_hit_ratio"] = (rec["frames_hit"] / rec["frames_tried"]
                                                   if rec["frames_tried"] else 0.0)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return values


def check_entered(workload: str, tracer: Tracer, tiny: bool) -> None:
    """Every layer of ENTERED[workload] must have calls in a traced run."""
    expected = ENTERED[workload]
    if workload == "verify" and tiny:
        expected = ["cli.main", *(f"acceptance.criterion_{n}" for n in TINY_VERIFY)]
    stats = tracer.stats
    missing = [layer for layer in expected if not stats[layer]["calls"]]
    if stats["polytope.three_decomposition"]["frames_tried"] and not stats["boxcore.apply_lro"]["calls"]:
        missing.append("boxcore.apply_lro (frames were tried)")
    if missing:
        raise BenchmarkError(f"{workload}: no calls traced into {missing}")


def environment() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def select(values: dict, declared: list[dict], default=None) -> dict:
    """The declared metrics, in order, each with its unit. A metric without a
    value takes `default`; with no default it is a benchmark defect."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and default is None:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values.get(m["name"], default)), "unit": m["unit"]}
            for m in declared}


# -- main ------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    spec = load_spec()
    boxlab = load_boxlab()
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)
    env = environment()
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        outdir = Path(tmp)
        warmup, stream = workload_ops(workload, rng, outdir, boxlab, tiny)
        run_ops(boxlab, warmup)
        setup = []
        if trace:
            rounds = 1 if tiny else TRACED_ROUNDS[workload]
            ops = list(islice(stream, rounds * ROUND[workload]))
            tracer, untraced, tally = run_traced(boxlab, ops, ROUND[workload])
            check_entered(workload, tracer, tiny)
            values = per_layer_values(tracer, sum(all_latencies(untraced)),
                                      sum(all_latencies(tally)))
            # check_entered has vouched for the layers the workload must
            # enter; the others have no spans: 0 calls, 0 s
            metrics = select(values, spec["per_layer"], default=0)
            tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.json")
        else:
            n_ops = max(1, round(seconds * ROUNDS_PER_S[workload])) * ROUND[workload]
            tally, setup = run_measured(boxlab, islice(stream, n_ops), n_ops,
                                        setup_probe(warmup, outdir), setup_repeats)
            values = end_to_end_values(workload, tally, setup)
            metrics = select(values, spec["end_to_end"])
    wrong = len(tally.wrong)
    result = {"correct": wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed + wrong, "metrics": metrics}
    print_report(workload, trace, values, metrics, tally)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "environment": env,
         "values": values, "setup_runs": setup, "result": result, "refused": dict(tally.refused),
         "failures": tally.failures, "wrong": tally.wrong}, indent=1))
    return result


def print_report(workload, trace, values, metrics, tally) -> None:
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if not trace:
        for name, unit in NAMED_UNITS.items():
            if name in values:
                kind = name.split("_")[0]
                n = len(tally.latency[kind]) if kind in tally.latency else len(all_latencies(tally))
                print(f"  {name} = {values[name]!r} {unit}  (samples {n})")
    samples = {kind: len(v) for kind, v in tally.latency.items()}
    print(f"  samples {samples}  points {dict(tally.points)}")
    rate = tally.failed + len(tally.wrong)
    print(f"  error_rate = {rate / max(tally.attempted, 1)!r}  "
          f"(failed {rate} of {tally.attempted} attempted; {sum(tally.refused.values())} documented refusals "
          f"{dict(tally.refused)}, "
          f"{len(tally.wrong)} wrong outputs)")
    for line in (tally.failures + tally.wrong)[:10]:
        print(f"    {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, TracingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
