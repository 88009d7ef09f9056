"""trionlab benchmark: one workload per call, run from the checkout root.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: species-table, radius-sweep, basis-optimize, cli-cache, or
`all` for the four in turn.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it holds the run's inputs, rounds, check failures,
set-up samples and environment (nproc, library versions, BLAS threads).

The workload runs in a fresh process (`bench.py`), with trionlab taken
from `src/` of the checkout and every BLAS library limited to one thread.
`setup_s` is the median over five fresh processes (four that stop after
set-up, and the measured one) of the time from process start to the
first timed operation: interpreter start, the trionlab import and input
generation.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "bench.py")
WORKLOADS = ("species-table", "radius-sweep", "basis-optimize", "cli-cache")
SETUP_PROBES = 4
# Time a workload gets beyond --seconds: the set-up probes, the last round
# (which may start just before --seconds and take up to about 25 s), the
# traced round and the checks.
DEADLINE_SLACK_S = 150.0


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # Two OpenBLAS libraries load (numpy's and scipy's), each starting one
    # thread per core by default; one thread each keeps BLAS within nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start(args, workload, env, deadline, setup_only=False):
    """Run bench.py; return (seconds until it is ready, its JSON result)."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only
                                          else [])
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, process_group=0)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload}: bench.py exited {code}"
                           + (" (killed at the deadline)" if code ==
                              -signal.SIGKILL else ""))
    return ready, (None if setup_only else json.loads(rest.splitlines()[-1]))


def run_workload(args, workload, spec, deadline):
    env = worker_env()
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(start(args, workload, env, deadline, True)[0])
    ready, res = start(args, workload, env, deadline)
    setup.append(ready)
    if args.trace:
        values, wanted = res.pop("layers"), spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "ops_per_s": res["ops_per_s"],
                  "op_p50_ms": res["op_p50_ms"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail = {k: res[k] for k in ("inputs", "rounds", "failures", "errors",
                                  "info")}
    detail.update(workload=workload, setup_samples_s=setup)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trionlab",
                                       "__init__.py")):
        print("perfbench: no trionlab sources under src/ of this checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + args.seconds + DEADLINE_SLACK_S
        try:
            result, detail = run_workload(args, name, spec, deadline)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(detail))
        results[name] = result
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    else:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
