"""One workload in one process: set up, timed rounds, checks, traced round.

    python3 perfbench/bench.py --workload NAME --seed N --seconds T
                               --trace 0|1 [--setup-only]

`run.py` starts this process and reads its stdout: the line `ready` when
set-up is done (imports and inputs; `--setup-only` exits there), then one
JSON line with the run's results.  Every workload is a closed loop with
one caller: each operation starts when the previous one returns.  A run
repeats whole rounds of the same operations until `--seconds` have
passed; every round draws fresh inputs of the same make-up from the seed
and the round's index (`round_rng`).  With
`--trace 1` one more round runs with spans recorded.
"""
import argparse
import ctypes
import glob
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import trionlab  # noqa: E402
from trionlab import analysis, basis, optimizer, solver  # noqa: E402
from trionlab.basis import AngularSet, AxialBasis, BasisSpec  # noqa: E402
from trionlab import tightbinding as tb  # noqa: E402
from trionlab.units import Environment  # noqa: E402

MODELS = ("1d", "2d")
ENV = Environment(checks.EPSILON)


class Recorder:
    """Operation latencies and failures of one set of rounds."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracer = tracer
        self.op = 0

    def next_op(self):
        self.op += 1
        if self.tracer:
            self.tracer.op = self.op


def round_rng(seed, key):
    """The random source of one round: `key` is its index or "trace"."""
    return random.Random(f"{seed}:{key}")


# --- species-table ----------------------------------------------------------
# The table the workload stands for is every semiconducting species with
# radius in 3-15 A (294 of them).  Sorted by subband count N, it is cut
# into this many strata of equal size, and a round draws one species
# within +-3% of each stratum's middle N.  The cost of `effective_masses`
# grows with N, so the round has the table's mix of cheap and dear tubes
# (tight binding 40% of the time in both) and a cost that hardly depends
# on the seed, while the species themselves change from round to round.
# The peak memory grows with the largest N of a round, which the narrow
# window holds within 3%.
SPECIES_STRATA = 8
SPECIES_N_WINDOW = 0.03


class SpeciesTable:
    """Physical E_B of a seeded table of species, 1D and 2D, both charges.

    One operation is one species: masses and units (`species_units`),
    then `binding_both_charges` per model, the body of `sweep_species`.
    The stratum whose middle N lies nearest (6,5)'s (N = 182, 3.8 A)
    always gives (6,5).
    """

    def __init__(self, seed):
        self.seed = seed
        self.swept = False
        pool = sorted(((n, m) for n in range(1, 41) for m in range(n + 1)
                       if (n - m) % 3
                       and 3.0 <= checks.tube_radius(n, m) <= 15.0),
                      key=lambda s: (checks.subband_count(*s), s))
        k = len(pool)
        targets = [checks.subband_count(*pool[(2 * i + 1) * k //
                                              (2 * SPECIES_STRATA)])
                   for i in range(SPECIES_STRATA)]
        near_6_5 = min(targets, key=lambda t: abs(t - 182) / t)
        self.choices = [
            [(6, 5)] if t == near_6_5 else
            [s for s in pool if abs(checks.subband_count(*s) - t)
             <= SPECIES_N_WINDOW * t] for t in targets]

    def draw(self, key):
        rng = round_rng(self.seed, key)
        self.species = [rng.choice(group) for group in self.choices]

    def describe(self):
        return {"species": self.species,
                "subbands": [checks.subband_count(*s) for s in self.species]}

    def tasks(self, rec):
        return [(1, lambda s=s: (self.one(s), None)) for s in self.species]

    @staticmethod
    def one(species):
        masses, u, r_ang, r = analysis.species_units(
            tb.ChiralIndex(*species), ENV)
        row = {"n": species[0], "m": species[1], "r_A": float(r_ang),
               "gap": masses.gap, "m_e": float(masses.m_e),
               "m_h": float(masses.m_h), "mu": float(masses.mu),
               "sigma": float(masses.sigma), "Ry_eV": u.rydberg,
               "aB_A": u.bohr, "r_aB": float(r)}
        for model in MODELS:
            both = analysis.binding_both_charges(r, masses.sigma, model)
            for charge, name in (("-", "minus"), ("+", "plus")):
                res = both[charge]
                row[f"E_X_{name}_{model}"] = res.E_X
                row[f"E_T_{name}_{model}"] = res.E_T
                row[f"E_B_{name}_{model}"] = res.E_B
        return row

    def check(self, results):
        rows = [row for row, _ in results]
        # `sweep_species` itself, once per run (on the first round), on
        # one-species windows around (6,5) and the round's smallest-N
        # species above 8 A: its rows must match the parts and flag
        # `detectable` exactly when E_B > 26 meV.
        swept = []
        if not self.swept:
            self.swept = True
            above = min((s for s in self.species
                         if checks.tube_radius(*s) > 8),
                        key=lambda s: checks.subband_count(*s))
            for s in ((6, 5), above):
                r_a = float(tb.radius(tb.ChiralIndex(*s)))
                swept += [d for d in analysis.sweep_species(r_a, r_a, ENV)
                          if (d["n"], d["m"]) == s]
        data = {"rows": rows, "sweep_rows": swept}
        return data, lambda d: checks.check_species(d["rows"],
                                                    d["sweep_rows"]), \
            ("E_B +1%", "mass +3%")


# --- radius-sweep -----------------------------------------------------------
class RadiusSweep:
    """`sweep_radius` with both models, methods full and hf, three sigmas.

    One call per radius; one operation is one output row, so a row's
    latency is its call's time over the call's rows.  The grid always
    holds r = 0.1 and 0.3 (the published model-gap and HF anchors) and
    one seeded radius; the sigmas are 0, a seeded s and 1/s (the charge
    map S+(s) = S-(1/s)).
    """

    def __init__(self, seed):
        self.seed = seed

    def draw(self, key):
        rng = round_rng(self.seed, key)
        self.radii = [0.1, round(rng.uniform(0.12, 0.28), 4), 0.3]
        s = round(rng.uniform(0.5, 0.95), 4)
        self.sigmas = (0.0, s, 1.0 / s)

    def describe(self):
        return {"radii": self.radii, "sigmas": self.sigmas}

    def tasks(self, rec):
        rows = len(MODELS) * (1 + 2 * (len(self.sigmas) - 1) + 1)
        return [(rows, lambda r=r: self.one(r)) for r in self.radii]

    def one(self, r):
        states = []
        hf = analysis.hf_binding_energy

        def keep_state(*args, **kwargs):
            res, state = hf(*args, **kwargs)
            states.append(state)
            return res, state
        analysis.hf_binding_energy = keep_state
        try:
            t = time.perf_counter()
            rows = analysis.sweep_radius([r], self.sigmas, MODELS,
                                         ("full", "hf"))
            dt = time.perf_counter() - t
        finally:
            analysis.hf_binding_energy = hf
        return (rows, states), [dt / len(rows)] * len(rows)

    def check(self, results):
        data = {"rows": [row for (rows, _), _ in results for row in rows],
                "hf_states": [s for (_, states), _ in results
                              for s in states],
                "sigma": self.sigmas[1]}
        return data, lambda d: checks.check_radius(
            d["rows"], d["hf_states"], d["sigma"]), ("E_B +1%", "energy +1%")


# --- basis-optimize ---------------------------------------------------------
class BasisOptimize:
    """`optimize` of the 2D exciton, the 1D trion (from two starts) and the
    2D trion from seeded, detuned exponents (user-supplied bases), one
    descent step each.

    One operation is one objective evaluation, timed by wrapping the
    objective functions `optimizer` calls.  Every evaluation assembles at
    new exponents, so nothing can be reused across evaluations.  The 1D
    trion's 24 evaluations are the middle of the 54, so the median latency
    falls inside one kind of evaluation rather than between two; its two
    starts open and close the round, so that median averages over the run.
    """

    JOBS = (("trion", "1d"), ("exciton", "2d"), ("trion", "2d"),
            ("trion", "1d"))
    OBJECTIVES = ("exciton_ground", "trion_energy", "scf")
    # (index, direction) of the exponent moved into the gap toward its
    # neighbour: far enough (0.8-1.1 in log) that the first line-search
    # step is usually accepted, so the evaluation count, and with it the
    # mix of cheap and dear evaluations, hardly depends on the seed.
    MOVES = ((0, 1), (1, -1), (2, -1))

    def __init__(self, seed):
        self.seed = seed

    def draw(self, key):
        rng = round_rng(self.seed, key)
        self.jobs = []
        for problem, model in self.JOBS:
            ax = basis.preset_basis(problem + model).axial
            groups = [list(ax.alphas_i)]
            if (problem, model) == ("trion", "2d"):
                groups.append(list(ax.alphas_k))
            groups = [[a * math.exp(rng.uniform(-0.05, 0.05)) for a in g]
                      for g in groups]
            index, direction = rng.choice(self.MOVES)
            groups[0][index] *= math.exp(direction * rng.uniform(0.8, 1.1))
            self.jobs.append((problem, model, tuple(map(tuple, groups))))

    def describe(self):
        return {"jobs": self.jobs}

    def tasks(self, rec):
        return [(1, lambda job=job: self.one(job, rec)) for job in self.jobs]

    def one(self, job, rec):
        problem, model, initial = job
        latencies = []
        saved = {name: getattr(optimizer, name) for name in self.OBJECTIVES}

        def timed(fn):
            def call(*args, **kwargs):
                rec.next_op()
                t = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    latencies.append(time.perf_counter() - t)
            return call
        for name, fn in saved.items():
            setattr(optimizer, name, timed(fn))
        try:
            run = optimizer.optimize(problem, model, initial, max_steps=1)
        finally:
            for name, fn in saved.items():
                setattr(optimizer, name, fn)
        return run, latencies

    def check(self, results):
        runs, again = [], []
        exciton_1d = None
        for run, _ in results:
            runs.append({"problem": run.problem, "model": run.model,
                         "history": list(run.history),
                         "accepted": run.accepted})
            built = final_basis(run.problem, run.model, run.final)
            if run.problem == "exciton":
                again.append(solver.exciton_ground(0.1, run.model, built))
                flat = final_basis("exciton", "1d", run.final)
                exciton_1d = solver.exciton_ground(0.1, "1d", flat)
            else:
                again.append(solver.trion_energy(0.1, 0.0, "-", run.model,
                                                 built))
        data = {"runs": runs, "recomputed": again, "exciton_1d": exciton_1d,
                "fd_limit": checks.fd_exciton_limit(0.1)}
        return data, lambda d: checks.check_optimize(
            d["runs"], d["recomputed"], d["exciton_1d"], d["fd_limit"]), \
            ("energy +1%",)


# --- cli-cache --------------------------------------------------------------
class CliCache:
    """Fixed `trionlab` commands, each its own process, one at a time.

    Every command runs three times: into an empty --cache-dir (compute and
    write), again (read), and with the other --format.  The format is part
    of the cache key, so the third run misses and computes again.  One
    operation is one invocation, timed from process start to exit.
    """

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "cache")
        self.env = dict(os.environ)
        self.max_rss_kb = 0
        self.exact_hf_ref = None

    def draw(self, key):
        rng = round_rng(self.seed, key)
        self.exciton_r = round(rng.uniform(0.1, 0.3), 4)
        self.sweep_r = round(rng.uniform(0.05, 0.3), 4)
        self.commands = [
            ("masses", ["masses", "--chirality", "6,5"]),
            ("exciton", ["exciton", "--radius", str(self.exciton_r),
                         "--model", "1d"]),
            ("trion", ["trion", "--chirality", "6,5"]),
            ("hf", ["hf", "--radius", "0.3"]),
            ("sweep-sigma", ["sweep-sigma", "--radius", str(self.sweep_r),
                             "--points", "3", "--model", "1d"]),
        ]
        self.formats = {name: rng.choice((("csv", "json"), ("json", "csv")))
                        for name, _ in self.commands}

    def describe(self):
        return {"commands": [c for _, c in self.commands],
                "first_format": {k: v[0] for k, v in self.formats.items()}}

    def tasks(self, rec):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        out = []
        for name, argv in self.commands:
            first, other = self.formats[name]
            for kind, fmt in (("cold", first), ("warm", first),
                              ("other", other)):
                out.append((1, lambda n=name, a=argv, k=kind, f=fmt:
                            self.one(n, a, k, f)))
        return out

    def _entries(self):
        return {p: (os.path.getsize(p), os.stat(p).st_mtime_ns)
                for p in glob.glob(os.path.join(self.cache_dir, "*.json"))}

    def one(self, name, argv, kind, fmt):
        before = self._entries()
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out:
            t = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "trionlab.cli", *argv, "--format", fmt,
                 "--cache-dir", self.cache_dir], stdout=out, env=self.env,
                cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out_path) as fh:
            text = fh.read()
        rows = (json.loads(text)["rows"] if fmt == "json" and text
                else checks.parse_csv(text))
        hit = self._entries() == before
        return {"command": name, "kind": kind, "format": fmt,
                "code": proc.returncode, "stdout": text, "rows": rows,
                "hit": hit, "seconds": dt}, [dt]

    def cache_metrics(self, results):
        runs = [run for run, _ in results]
        entries = self._entries()
        return {
            "cli.cold_p50_ms": 1e3 * statistics.median(
                r["seconds"] for r in runs if r["kind"] == "cold"),
            "cli.warm_p50_ms": 1e3 * statistics.median(
                r["seconds"] for r in runs if r["kind"] == "warm"),
            "cache.hits": sum(r["hit"] for r in runs),
            "cache.misses": sum(not r["hit"] for r in runs),
            "cache.entries": len(entries),
            "cache.bytes": sum(size for size, _ in entries.values()),
        }

    def check(self, results):
        if self.exact_hf_ref is None:
            self.exact_hf_ref = solver.binding_energy(0.3, 0.0).E_B
        data = {"runs": [run for run, _ in results],
                "fd_limit": checks.fd_exciton_limit(self.exciton_r),
                "exact_hf_ref": self.exact_hf_ref}
        return data, lambda d: checks.check_cli(
            d["runs"], d["fd_limit"], d["exact_hf_ref"]), \
            ("E_B +1%", "mass +3%")


def final_basis(problem, model, groups):
    """The basis that `optimize` evaluates for one set of exponent groups."""
    if problem == "exciton":
        (al,) = groups
        return BasisSpec(AxialBasis(al, (1.0,), (1.0,)),
                         AngularSet.CONSTANT if model == "1d"
                         else AngularSet.EXCITON_PAIR, model)
    if model == "1d":
        (al,) = groups
        return BasisSpec(AxialBasis(al, al, al), AngularSet.CONSTANT, "1d")
    aij, ak = groups
    return BasisSpec(AxialBasis(aij, aij, ak), AngularSet.FULL4, "2d")


WORKLOADS = {"species-table": SpeciesTable, "radius-sweep": RadiusSweep,
             "basis-optimize": BasisOptimize, "cli-cache": CliCache}


# --- running ----------------------------------------------------------------
def run_round(workload, rec):
    results = []
    for n_ops, task in workload.tasks(rec):
        rec.next_op()
        t = time.perf_counter()
        try:
            result, latencies = task()
        except Exception as exc:  # an operation failed: count it, go on
            rec.attempted += n_ops
            rec.failed += n_ops
            rec.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        if latencies is None:
            latencies = [time.perf_counter() - t]
        rec.attempted += len(latencies)
        rec.latencies += latencies
        results.append((result, latencies))
    return results


def blas_info():
    """OpenBLAS libraries loaded in this process, with their thread counts."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    symbols = [(f"{p}_get_num_threads{s}", f"{p}_get_config{s}")
               for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for threads, config in symbols:
            if hasattr(lib, threads) and hasattr(lib, config):
                getattr(lib, config).restype = ctypes.c_char_p
                out.append({"config": getattr(lib, config)().decode(),
                            "threads": int(getattr(lib, threads)())})
                break
    return out


def cli_import_ms(samples=3):
    """Median wall time of a process that only imports trionlab.cli."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import trionlab.cli"],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "cli-cache":
            workload = CliCache(args.seed, workdir)
        else:
            workload = WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        return measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_round(workload, results, self_test):
    """Failure messages of one round's outputs (and, with self_test, of
    the self-test on them).  Runs outside the timed part."""
    try:
        data, check, perturbations = workload.check(results)
        failures = check(data)
        if self_test and not failures:
            failures = checks.self_test(check, data, perturbations)
    except Exception as exc:  # outputs too broken to check: report that
        failures = [f"checks raised {type(exc).__name__}: {exc}"]
    return failures


def measure(args, workload):
    rec = Recorder()
    round_s, inputs, failures = [], [], []
    while True:
        workload.draw(len(round_s))
        inputs.append(workload.describe())
        t = time.perf_counter()
        results = run_round(workload, rec)
        round_s.append(time.perf_counter() - t)
        if len(round_s) == 1:
            # Every round draws a new table of the same size, so the first
            # round's peak is what the workload needs; the peak over a
            # number of rounds that varies with the machine's speed would
            # also vary with it.
            peak_kb = getattr(workload, "max_rss_kb", 0) or \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures += check_round(workload, results, len(round_s) == 1)
        if sum(round_s) >= args.seconds:
            break
    wall = sum(round_s)
    out = {"attempted": rec.attempted, "failed": rec.failed,
           "errors": rec.errors[:5], "rounds": len(round_s),
           "ops_per_s": (rec.attempted - rec.failed) / wall,
           "op_p50_ms": 1e3 * statistics.median(rec.latencies),
           "peak_rss_mb": peak_kb / 1024.0}

    if args.trace:
        workload.draw("trace")
        inputs.append(workload.describe())
        tracer = spans.Tracer()
        traced_rec = Recorder(tracer)
        tracer.install()
        try:
            t = time.perf_counter()
            results = run_round(workload, traced_rec)
            traced_s = time.perf_counter() - t
        finally:
            tracer.uninstall()
        failures += check_round(workload, results, False)
        layers = spans.span_metrics(tracer.spans)
        layers.update({"cli.cold_p50_ms": 0.0, "cli.warm_p50_ms": 0.0,
                       "cache.hits": 0, "cache.misses": 0,
                       "cache.entries": 0, "cache.bytes": 0})
        if isinstance(workload, CliCache):
            layers.update(workload.cache_metrics(results))
        layers["cli.import_ms"] = cli_import_ms()
        untraced = statistics.median(round_s)
        layers.update({"trace.untraced_round_s": untraced,
                       "trace.traced_round_s": traced_s,
                       "trace.overhead_s": traced_s - untraced,
                       "trace.spans": len(tracer.spans)})
        out["layers"] = layers
        out["attempted"] += traced_rec.attempted
        out["failed"] += traced_rec.failed
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))

    # Failed operations are counted in `failed`; `correct` speaks of the
    # outputs of the operations that did not fail.
    out["correct"] = not failures
    out["failures"] = failures[:20]
    out["inputs"] = inputs
    out["info"] = {"nproc": len(os.sched_getaffinity(0)),
                   "python": sys.version.split()[0],
                   "numpy": np.__version__, "scipy": scipy.__version__,
                   "trionlab": trionlab.__version__, "blas": blas_info()}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
