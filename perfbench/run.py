"""Seeded closed-loop benchmark of the convexcodes command line.

One client in one process calls `convexcodes.cli.main(argv)` on generated
input files and sends the next operation only when the previous one has
returned.  An operation is one CLI invocation; interpreter start and package
import are measured apart, in fresh interpreters, as `setup_s`.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload in turn
    python3 perfbench/run.py --check       # default seed: digests, checks, repeatable counts

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it runs every operation of the workload's reference block
untraced and under two tracers, and reports the per-layer metrics, the
tracing overhead, and whether the counts of the two traced passes agree.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
HASH_SEED = "0"  # string point labels live in sets; fix their iteration order

SETUP_RUNS = 11  # at least this many fresh interpreters; setup_s is their median
WARMUP_OPS = 6  # first operations of the reference block, run untimed
MIN_OPS = 100  # latency_p90_ms needs ten samples beyond it
# Timed blocks generated per run: more than a 30 s window uses today, so a
# run rarely repeats an input.  Block 0 is the reference block.
TIMED_BLOCKS = 12

# A cover with 16 distinct planes, above the 14-plane cap of the exact engine.
PROBE_COVER = "d=2 n=2 ambient=whole\n" + "".join(
    "SET\n" + "".join(f"H 1 {s * (8 * r + j)} : {j + 1} lt\n" for j in range(8))
    for r, s in ((0, 1), (1, -1))
)


def load_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    return bench, spec


# ---------------------------------------------------------------------------
# running one operation


def invoke(cli, argv) -> tuple[float, int, str, str]:
    """Run one CLI invocation in-process: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception exits 1 from the console script
            rc = 1
            error = traceback.format_exc()
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), error


class Runner:
    """Runs operations, checks every output and keeps the verdict facts."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict[int, str] = {}  # by id(op): digest of the first facts seen

    def run(self, op, tracer=None) -> float:
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.begin_op(self.attempted)
        dt, rc, stdout, error = invoke(self.cli, op.argv)
        self.attempted += 1
        if tracer is not None:
            written = len(stdout.encode())
            if op.out_dir is not None and op.out_dir.is_dir():
                written += sum(p.stat().st_size for p in op.out_dir.iterdir())
            tracer.counts["bytes_written"] += written
        try:
            ok, reason, facts = op.check(rc, stdout, op)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, reason, facts = False, f"output check raised {exc!r}", None
        if ok:
            # a digest, not the facts: memory must not grow with the op count
            h = hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()
            if self.facts.setdefault(id(op), h) != h:
                ok, reason = False, "facts differ from an earlier run of the same input"
        if not ok:
            self.failures.append(f"{op.category} {' '.join(op.argv)}: {reason}\n{error}".rstrip())
        return dt

    def digest(self, ops) -> str:
        blob = " ".join(self.facts.get(id(op), "-") for op in ops)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# measurements outside the timed window


def fresh_import_s() -> float:
    """Wall time of one fresh interpreter importing convexcodes.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import convexcodes.cli"], env=env, check=True)
    return perf_counter() - t0


def capability_probe(work: Path) -> str:
    """cover-code on a 16-plane cover, as a user runs it; reported, never timed."""
    path = work / "probe16.cover"
    path.write_text(PROBE_COVER)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(
        [sys.executable, "-m", "convexcodes.cli", "cover-code", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
    if proc.returncode == 3:
        verdict = "budget error with the contract's exit 3"
    elif "Traceback" in proc.stderr:
        verdict = "KNOWN FAILURE: uncaught traceback where the CLI contract says exit 3"
    else:
        verdict = f"KNOWN FAILURE: exit {proc.returncode} where the CLI contract says exit 3"
    return f"capability probe: cover-code on 16 planes -> exit {proc.returncode} ({last}); {verdict}"


# ---------------------------------------------------------------------------
# one workload


def generate(workload: str, seed: int, blocks: int):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    files = workloads.InputFiles(work / "inputs")
    rng = random.Random(f"{workload}:{seed}")
    make = workloads.WORKLOADS[workload]
    return work, [make(rng, files) for _ in range(blocks)]


def run_timed(runner, blocks, seconds: float, between_blocks):
    """Complete timed blocks until both `seconds` and MIN_OPS are reached."""
    latencies: list[float] = []
    window = 0.0
    rounds = 0
    while window < seconds or len(latencies) < MIN_OPS:
        for op in blocks[1 + rounds % (len(blocks) - 1)]:
            dt = runner.run(op)
            latencies.append(dt)
            window += dt
        rounds += 1
        between_blocks()
    return latencies, window, rounds


def end_to_end(args, cli, bench) -> dict:
    work, blocks = generate(args.workload, args.seed, 1 + TIMED_BLOCKS)
    print(capability_probe(work))
    runner = Runner(cli)
    for op in blocks[0][:WARMUP_OPS]:
        runner.run(op)
    # Set-up is timed between blocks, outside the window, so that its samples
    # meet the same drift in host speed as the operations do.
    setups = [fresh_import_s()]
    latencies, window, rounds = run_timed(
        runner, blocks, args.seconds, lambda: setups.append(fresh_import_s())
    )
    while len(setups) < SETUP_RUNS:
        setups.append(fresh_import_s())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = sorted(x * 1000 for x in latencies)
    values = {
        "ops_per_s": len(ms) / window,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }
    timed = len(latencies)
    failed = len(runner.failures)
    print(
        f"{args.workload} seed={args.seed}: {timed} timed ops in {window:.2f} s over "
        f"{rounds} blocks of {len(blocks[1])}; {WARMUP_OPS} warm-up ops excluded; "
        f"error_rate={failed / runner.attempted:.4f} ({failed} of {runner.attempted})"
    )
    samples = {"ops_per_s": timed, "latency_p50_ms": timed, "latency_p90_ms": timed,
               "setup_s": len(setups), "peak_rss_mb": 1}
    return report(bench["end_to_end"], values, samples, runner)


def traced(args, cli, bench, spec) -> dict:
    work, blocks = generate(args.workload, args.seed, 1)
    print(capability_probe(work))
    ref = blocks[0]
    runner = Runner(cli)
    for op in ref[:WARMUP_OPS]:
        runner.run(op)
    # Each operation runs untraced and under both tracers back to back, in an
    # order that alternates, so host speed drifts alike over all three.
    tracers = (Tracer(), Tracer())
    untraced = 0.0
    op_s = [0.0, 0.0]
    for j, op in enumerate(ref):
        for side in ((None, 0, 1) if j % 2 == 0 else (1, 0, None)):
            if side is None:
                untraced += runner.run(op)
                continue
            tracers[side].install()
            try:
                op_s[side] += runner.run(op, tracers[side])
            finally:
                tracers[side].uninstall()
    for i, t in enumerate(tracers):
        t.write(work / f"spans{i + 1}.tsv.gz")
    tracer, op_s = tracers[0], op_s[0]
    own, _, roots = tracer.self_times()
    values = tracer.layer_metrics()
    values.update({
        "trace.ops": len(ref),
        "trace.op_s": op_s,
        "trace.untraced_op_s": untraced,
        "trace.overhead_share": op_s / untraced - 1,
    })
    repeat = tracers[0].count_metrics() == tracers[1].count_metrics()
    layer_sum = sum(own.values())
    accounted = abs(layer_sum - op_s) <= 0.01 * op_s
    print(
        f"{args.workload} seed={args.seed} traced: {len(ref)} ops; untraced {untraced:.3f} s, "
        f"traced {op_s:.3f} s (overhead {op_s / untraced - 1:+.1%}); layer self times sum "
        f"to {layer_sum:.3f} s of {roots:.3f} s in root spans; counts repeat across two "
        f"traced passes: {repeat}; no wait metrics (single thread, no queue)"
    )
    if not repeat:
        runner.failures.append("per-layer counts differ between the two traced passes")
    if not accounted:
        runner.failures.append("layer self times do not account for the traced op time")
    if args.seed == spec["default_seed"]:
        got, want = runner.digest(ref), spec["digests"].get(args.workload)
        print(f"verdict-fact digest of the reference block: {got} (recorded {want})")
        if got != want:
            runner.failures.append("verdict-fact digest differs from the recorded one")
    samples = dict.fromkeys(values, len(ref))
    return report(bench["per_layer"], values, samples, runner)


def report(declared, values, samples, runner) -> dict:
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {values[m['name']]:>16.6f} {m['unit']:<6} (n={samples[m['name']]})")
    for f in runner.failures[:20]:
        print(f"FAILED {f}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(args, bench) -> int:
    ok = True
    for w in bench["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            ok = False
            continue
        ok = ok and json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    bench, spec = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="every workload traced at the default seed; exit 1 on any mismatch")
    args = parser.parse_args(argv)
    if args.check:
        args.workload, args.trace, args.seed = "all", 1, spec["default_seed"]
    if args.workload == "all":
        return run_all(args, bench)

    sys.path.insert(0, str(SRC))
    from convexcodes import cli

    if args.trace:
        result = traced(args, cli, bench, spec)
    else:
        result = end_to_end(args, cli, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "convexcodes" / "cli.py").is_file():
        sys.exit(f"no program sources at {SRC}")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
