"""Decision benchmark for the grigorchuk package.

Run from the repository root:

    python3 perfbench/run.py --workload conj-stream --seed 1 --seconds 10 --trace 0

One client, closed loop: each decision starts when the previous one has
returned.  Inputs are generated from the seed in batches, before each
batch is timed.  Every verdict is checked against how its input was
built; a wrong verdict or an exception is a failure.

With ``--trace 0`` the run makes the workload's number of rounds, one
at a time, each in a fresh process.  The first round generates batches
from the seed and times them until it has spent its share of
``--seconds`` on timed decisions (and made at least MIN_DECISIONS); it
saves its cases, and every later round decides the same cases in the
same order, so decision i does the same work from the same state in
every round.  A decision's latency is the mean of its rounds, so that
it reflects the host's pace over the whole run: on a shared two-vCPU
virtual machine pure-Python code ran at two paces 1.4 to 1.8 times
apart, switching every few milliseconds to minutes, and the fastest or
the median of a few timings would jump between them.  Set-up time is
sampled SETUP_SAMPLES times, before the first round and after every
round.

With ``--trace 1`` it decides a fixed set of cases, the first ones of
the timed run with the same seed, in TRACE_PASSES untraced and as many
traced passes, alternating, each in a fresh process.  It reports the
per-layer metrics of the traced passes, the tracing overhead against the
untraced ones, and fails if any count differs between traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every verdict was right.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# at least ten samples above p90
MIN_DECISIONS = 100
SETUP_SAMPLES = 10
TRACE_PASSES = 3
SETUP_CODE = ("import grigorchuk as g; g.standard_quotient(); "
              "g.standard_lift_table(); g.shared_context()")
CHILD_TIMEOUT_S = 150

clock = time.perf_counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one round or pass, in its own process
    parser.add_argument("--child",
                        choices=("first", "repeat", "plain", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--tag", default="1", help=argparse.SUPPRESS)
    parser.add_argument("--cases", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "grigorchuk" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.child in ("first", "repeat"):
        return timed_round(workload, args)
    if args.child:
        return fixed_pass(workload, args)
    if args.trace:
        return traced_run(workload, args)
    return timed_run(workload, args)


# -- one pass, in a child process ----------------------------------------


def run_cases(workload, cases, tracer=None):
    """Decide each case in turn; return verdicts (an exception stands in
    for a verdict that raised) and per-decision seconds."""
    verdicts = []
    latencies = []
    decide = workload.decide
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.decision = i
        t0 = clock()
        try:
            verdict = decide(*case.args)
        except Exception as exc:  # a failed decision; reported below
            verdict = exc
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.decision = None
        verdicts.append(verdict)
    return verdicts, latencies


def count_failures(workload, cases, verdicts) -> int:
    """Report each case whose verdict is wrong or raised; return how many."""
    failed = 0
    for case, verdict in zip(cases, verdicts):
        if isinstance(verdict, Exception):
            text = "".join(traceback.format_exception(verdict)).strip()
            line = f"{case.kind}: raised\n{text}"
        elif not workload.check(case, verdict):
            lengths = "x".join(str(len(a)) for a in case.args)
            line = (f"{case.kind} (lengths {lengths}): got {verdict!r}, "
                    f"expected {case.expected!r}")
        else:
            continue
        failed += 1
        if failed <= 10:
            print(f"FAIL {line}", file=sys.stderr)
    return failed


def timed_round(workload, args) -> int:
    """One timed round.  The first generates batches from the seed until
    its share of the seconds is spent on timed decisions and
    MIN_DECISIONS are made, and saves its cases; a repeat loads them."""
    import pickle

    import grigorchuk
    from workloads import batch_rng

    grigorchuk.shared_context()
    cases_file = Path(args.cases)
    if args.child == "repeat":
        cases = pickle.loads(cases_file.read_bytes())
        verdicts, latencies = run_cases(workload, cases)
        print(json.dumps({"latencies": latencies,
                          "failed": count_failures(workload, cases,
                                                   verdicts)}))
        return 0
    budget = args.seconds / workload.rounds
    cases = []
    latencies: list[float] = []
    failed = 0
    rss_mb = None
    while sum(latencies) < budget or len(latencies) < MIN_DECISIONS:
        rng = batch_rng(workload.name, args.seed, len(cases) // workload.batch)
        batch = workload.generate(rng, workload.batch)
        verdicts, lat = run_cases(workload, batch)
        cases += batch
        latencies += lat
        failed += count_failures(workload, batch, verdicts)
        # memory after a fixed amount of work, the same on every commit
        if rss_mb is None and len(latencies) >= MIN_DECISIONS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cases_file.write_bytes(pickle.dumps(cases))
    print(json.dumps({"latencies": latencies,
                      "kinds": [case.kind for case in cases],
                      "failed": failed, "rss_mb": rss_mb}))
    return 0


def traced_cases(workload, seed: int):
    from workloads import batch_rng

    cases = []
    batch = 0
    while len(cases) < workload.traced:
        cases += workload.generate(batch_rng(workload.name, seed, batch),
                                   workload.batch)
        batch += 1
    return cases[:workload.traced]


def fixed_pass(workload, args) -> int:
    """The fixed traced cases, with or without tracing."""
    import grigorchuk

    t0 = clock()
    grigorchuk.standard_quotient()
    grigorchuk.standard_lift_table()
    build_s = clock() - t0
    grigorchuk.shared_context()
    cases = traced_cases(workload, args.seed)
    tracer = None
    if args.child == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    verdicts, latencies = run_cases(workload, cases, tracer)
    if tracer is not None:
        tracer.uninstall()
    result = {"latencies": latencies,
              "failed": count_failures(workload, cases, verdicts)}
    if tracer is not None:
        result["metrics"] = tracer.metrics(build_s)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}"
                                 f"-{args.tag}.tsv")
    print(json.dumps(result))
    return 0


# -- the parent ------------------------------------------------------------


def spawn(args, kind: str, tag: str, cases: Path | None = None) -> dict:
    """One round or pass in a fresh process; return its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--child", kind, "--tag", tag]
    if cases is not None:
        cmd += ["--cases", str(cases)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out = proc.communicate(timeout=CHILD_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to a ready package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = clock()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)
    return clock() - t0


def mean_times(passes: list[dict]) -> list[float]:
    """Per decision, the mean time of the rounds or passes."""
    n = min(len(p["latencies"]) for p in passes)
    return [statistics.fmean(p["latencies"][i] for p in passes)
            for i in range(n)]


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def timed_run(workload, args) -> int:
    OUT.mkdir(exist_ok=True)
    cases = OUT / f"cases-{workload.name}-seed{args.seed}-{os.getpid()}.pickle"
    setup_times = [measure_setup()]
    rounds = []
    try:
        for r in range(workload.rounds):
            rounds.append(spawn(args, "repeat" if r else "first", str(r),
                                cases))
            # the remaining samples, spread over the gaps between rounds
            due = (SETUP_SAMPLES - 1) * (r + 1) // workload.rounds
            setup_times += [measure_setup()
                            for _ in range(due - len(setup_times) + 1)]
    finally:
        cases.unlink(missing_ok=True)
    per_decision = mean_times(rounds)
    attempted = sum(len(p["latencies"]) for p in rounds)
    failed = sum(p["failed"] for p in rounds)
    ms = sorted(x * 1000.0 for x in per_decision)
    metrics = {
        "latency_ms_p50": (statistics.median(ms), "ms"),
        "latency_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "throughput_qps": (len(per_decision) / sum(per_decision), "1/s"),
        "peak_rss_mb": (rounds[0]["rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    print(f"workload {workload.name}  seed {args.seed}  decisions "
          f"{len(per_decision)} x {workload.rounds} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<16} {failed / attempted:12.4f}")
    kinds: dict[str, list[float]] = {}
    for kind, seconds in zip(rounds[0]["kinds"], per_decision):
        kinds.setdefault(kind, []).append(seconds)
    for kind, values in sorted(kinds.items()):
        print(f"  class {kind:<10} n={len(values):<5} "
              f"p50 {statistics.median(values) * 1000:9.3f} ms")
    emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def traced_run(workload, args) -> int:
    from tracer import METRICS

    plain, traced = [], []
    for k in range(TRACE_PASSES):
        plain.append(spawn(args, "plain", f"plain{k}"))
        traced.append(spawn(args, "traced", str(k)))
    runs = [t["metrics"] for t in traced]
    # every metric but the times is exact for a given seed; times take
    # the fastest pass
    differ = [name for name, unit, _b in METRICS
              if unit != "s" and len({r[name] for r in runs}) > 1]
    metrics = {name: (min(r[name] for r in runs) if unit == "s"
                      else runs[0][name], unit)
               for name, unit, _b in METRICS}
    metrics["trace.overhead_frac"] = (
        sum(mean_times(traced)) / sum(mean_times(plain)) - 1.0, "ratio")
    print(f"workload {workload.name}  seed {args.seed}  traced decisions "
          f"{len(traced[0]['latencies'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value!r:>22} {unit}")
    for name in differ:
        print(f"NONDETERMINISTIC {name}: {[r[name] for r in runs]!r}",
              file=sys.stderr)
    passes = plain + traced
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not differ
    emit(correct, sum(len(p["latencies"]) for p in passes), failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
