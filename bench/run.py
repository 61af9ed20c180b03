"""Benchmark of the cpdilate CLI commands, one workload per process.

    python3 bench/run.py --workload dilate-full --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  ``--workload all`` runs every workload, each in its own process.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Instance and report files live in
``.bench_work/`` and are removed at exit; the traced run leaves its spans
there.  See ``bench/README.md``.
"""

import os
import sys
import time

START = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of bench/workloads.py, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names):
    """Each workload in its own process, one after another."""
    worst = 0
    for name in names:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, done.returncode)
    return worst


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def run_workload(args, work_dir, import_s):
    from cpdilate.cli import main as cli_main

    from bench import measure, workloads

    profile = workloads.PROFILES[args.workload]
    print(f"workload {args.workload}: cpdilate {profile.command}, A={list(profile.source)}, "
          f"B={list(profile.target)}, closed loop with 1 client, seed {args.seed}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    # Set-up: draw and write the pool, then one warm-up op, several times.
    loop, setups, digests = None, [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = workloads.write_pool(profile, args.seed, work_dir)
        loop = loop or workloads.ClosedLoop(profile.command, pool, work_dir)
        loop.op()
        setups.append(time.perf_counter() - start)
        digests.add(tuple(inst.sha256 for inst in pool))
    for i, inst in enumerate(pool):
        print(f"instance {i} sha256 {inst.sha256} discarded_draws {inst.discarded}")

    problems = []
    if len(digests) != 1:
        problems.append("the same seed wrote different instance files")
    paper_report = os.path.join(work_dir, "paper-example.json")
    if cli_main(["paper-example", "--output", paper_report]) != 0:
        problems.append("paper-example does not pass")
    if args.trace:
        first = loop.first_reports.get(0)
        if first is None:
            problems.append("the warm-up op wrote no report")
        else:
            problems += workloads.cross_check(profile, pool[0].path, first[1])
    if problems:
        for problem in problems:
            print(f"correctness gate failed: {problem}", file=sys.stderr)
        return 3

    warmups = loop.records[:]
    if args.trace:
        # Pairs of ops on one instance, one untraced and one traced, in
        # alternating order, so both sides see the same inputs and load.
        tracer = measure.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            pair = len(traced)
            index = pair % len(pool)
            if pair % 2:
                untraced.append(loop.op(index))
            tracer.op = pair
            with tracer.installed():
                traced.append(loop.op(index))
            if not pair % 2:
                untraced.append(loop.op(index))
        metrics = measure.layer_metrics(tracer.spans, [r.latency for r in untraced],
                                        [r.latency for r in traced])
        spans_path = work_dir.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "spans": tracer.as_records(),
            "untraced_latencies": [r.latency for r in untraced],
            "traced_latencies": [r.latency for r in traced]}))
        print(f"spans {spans_path.relative_to(ROOT)}: {len(tracer.spans)} spans "
              f"over {len(traced)} traced ops")
        records = untraced + traced
        units = measure.PER_LAYER
    else:
        records, elapsed = loop.run_for(args.seconds)
        latencies = [r.latency for r in records]
        certified = [r for r in records if r.failure is None]
        tail, percentile, count = measure.tail(latencies)
        # Reports repeat byte for byte per instance, so take one per instance.
        headrooms = [h for h in (measure.headroom_decades(report)
                                 for _, report in loop.first_reports.values())
                     if h is not None]
        print(f"latency_tail_s is p{percentile:.1f} of {count} ops "
              f"({measure.TAIL_BEYOND} beyond it)")
        print(f"cert headroom over {len(headrooms)} instances: "
              f"min {min(headrooms, default=0.0):.3f} decades")
        metrics = {
            "certified_per_s": len(certified) / elapsed,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cert_headroom_decades": statistics.median(headrooms) if headrooms else 0.0,
            "certified_fraction": len(certified) / len(records),
            "setup_s": import_s + statistics.median(setups),
        }
        units = measure.END_TO_END

    failures = [r.failure for r in warmups + records if r.failure is not None]
    for failure in failures[:5]:
        print(f"failed op: {failure}", file=sys.stderr)
    for name, unit, _ in units:
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cpdilate" / "__init__.py").is_file():
        print(f"no cpdilate sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.workloads import PROFILES  # imports numpy, cpdilate and its CLI
    if args.workload == "all":
        return run_all(args, PROFILES)
    if args.workload not in PROFILES:
        print(f"unknown workload {args.workload!r}; choose from {sorted(PROFILES)} or all",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run_workload(args, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
