"""hopfront benchmark: end-to-end and per-layer metrics of `hopfront sweep`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ex2b-compare --seed 1 --seconds 30 --trace 0

The benchmark drives the CLI the way users run it, as in-process
``hopfront.cli.main(["sweep", ...])`` calls: one client in a closed loop, no
threads, BLAS pinned to one thread. The workload seed becomes the CLI's
``--seed``, which seeds the Monte Carlo clouds. Sweeps repeat while the next
one, at the run's median sweep time, would end within ``--seconds`` (at least
one runs).

The host's speed drifts by a quarter in phases of minutes, so sweep wall
time is reported against a fixed kernel timed every 0.25 s during each
sweep (``HostClock``): ``front_cal`` is the median over the run's sweeps of
sweep time / median kernel time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
untraced sweeps, then one sweep under ``tracer.Tracer`` and prints the
per-layer metrics; the difference between the two is the tracing overhead.
Either way every front.csv is checked independently of the library's own
bookkeeping: duality-gap certificates are recomputed against the
certification cloud, and runs of the same source and seed must give
byte-identical front.csv files.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. LAYERS.md lists which layer metric
should move which end-to-end metric on which workload.
"""
import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # before numpy loads; child interpreters inherit it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# workload -> (problem id, extra sweep flags, Monte Carlo cloud size);
# BENCHMARK.json and LAYERS.md say why each was chosen. ex3b's cloud is half
# the CLI default: at 20000 its O(n^2) filter alone takes about 30 s, more
# than a run's time budget allows. ex3a-d100-cold is not in BENCHMARK.json
# (see LAYERS.md) but runs by hand as the bypass workload for warm-start and
# oracle changes.
WORKLOADS = {
    "ex1-compare": ("ex1", ["--compare"], 20000),
    "ex2b-compare": ("ex2b", ["--compare"], 20000),
    "ex3b-compare": ("ex3b", ["--compare", "--mc", "10000"], 10000),
    "ex3a-d100-cold": ("ex3a-d100", ["--cold-start"], 20000),
}
N_SAMPLES = 100
PREF_EPS = 0.1  # the CLI's default --pref-eps
CERT_TOL = 1e-6  # the tolerance of hopfront's own certify_gap
SETUP_REPS = 5

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import hopfront
hopfront.get_problem(sys.argv[1])
print(time.perf_counter() - t0)
"""
IMPORT_GROUPS = ("numpy", "scipy")  # today "scipy" is scipy.optimize, for nnls


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(*args):
    """Run a fresh interpreter on the checkout's sources and wait for it."""
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)


# -- set-up -------------------------------------------------------------------


def measure_setup(problem_id):
    """Median of SETUP_REPS fresh-interpreter `import hopfront` + get_problem."""
    times = [float(python("-c", SETUP_PROBE, problem_id).stdout.split()[-1])
             for _ in range(SETUP_REPS + 1)]
    return statistics.median(times[1:])  # the first one also writes bytecode caches


def import_breakdown(reps=3):
    """`python -X importtime -c "import hopfront"` split by what hopfront's
    modules import directly: median seconds per group over ``reps`` runs."""
    samples = []
    for _ in range(reps):
        stderr = python("-X", "importtime", "-c", "import hopfront").stderr
        samples.append(parse_importtime(stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def parse_importtime(text):
    # Lines come in post-order: "import time: self | cumulative |   name",
    # two spaces of indent per nesting level.
    pending = {}  # level -> finished nodes waiting for their parent
    nodes = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip()) - 1) // 2
        node = {"name": name.strip(), "self": int(self_us) / 1e6, "cum": int(cum_us) / 1e6,
                "children": pending.pop(level + 1, [])}
        pending.setdefault(level, []).append(node)
        nodes.append(node)
    out = {"setup.import_s": 0.0, "setup.import_s.hopfront": 0.0}
    out.update({f"setup.import_s.{g}": 0.0 for g in IMPORT_GROUPS})
    out["setup.import_s.other"] = 0.0
    for node in nodes:
        if node["name"] == "hopfront":
            out["setup.import_s"] = node["cum"]
        if node["name"] != "hopfront" and not node["name"].startswith("hopfront."):
            continue
        out["setup.import_s.hopfront"] += node["self"]
        for child in node["children"]:
            if child["name"].startswith("hopfront"):
                continue
            group = next((g for g in IMPORT_GROUPS
                          if child["name"] == g or child["name"].startswith(g + ".")), "other")
            out[f"setup.import_s.{group}"] += child["cum"]
    return out


# -- the sweeps ---------------------------------------------------------------


def sweep_argv(workload, seed, out):
    problem_id, extra, _ = WORKLOADS[workload]
    return ["sweep", "--problem", problem_id, *extra, "--n", str(N_SAMPLES),
            "--seed", str(seed), "--out", str(out)]


def run_cli(cli, argv):
    """One CLI call with its stdout discarded: (exit code, wall seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed


class HostClock:
    """Samples the host's speed while a sweep runs: every PERIOD_S seconds a
    SIGALRM handler times a small fixed kernel that loads the CPU the way a
    sweep does: 2x2 solves dispatched from Python (the solver's hot path),
    plain interpreter work, a vectorised dominance count (the oracle's
    filter) and a sort of an 800 kB array. The kernel runs no hopfront code,
    so its time tracks only the host. Its arrays, about 2 MB, are allocated
    once, before the timed sweeps, so they add a constant to the process's
    peak memory instead of moving it at random.

    ``samples`` holds the kernel's times and ``spent`` the handler's total
    time, which the caller takes off the sweep's wall time.
    """

    PERIOD_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.A = np.array([[2.0, 0.5], [0.5, 3.0]])
        self.y = rng.random(2000)
        self.le = np.empty((2000, 200), dtype=bool)
        self.z = rng.random(100_000)
        self.buf = np.empty_like(self.z)

    def kernel(self):
        np = self.np
        b, acc, table = np.ones(2), 0.0, {}
        t0 = time.perf_counter()
        for _ in range(80):
            x = np.linalg.solve(self.A, b)
            acc += float(np.exp(x).sum())
            b = 0.999 * b + 0.001
        for i in range(5_000):
            table[i % 97] = 0.5 * table.get(i % 97, 0.0) + i
        np.less_equal(self.y[:, None], self.y[None, :200], out=self.le)
        acc += int(np.count_nonzero(self.le))
        self.buf[:] = self.z
        self.buf.sort()
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@contextlib.contextmanager
def counted_methods(cls, names, counts):
    """Count calls of ``cls.<name>`` into ``counts[name]`` while active."""
    originals = {name: cls.__dict__[name] for name in names}

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(cls, name, counter(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cls, name, fn)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- output checks ------------------------------------------------------------


def read_front(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if [int(r["sample_index"]) for r in rows] != list(range(N_SAMPLES)):
        raise ValueError(f"{path}: expected {N_SAMPLES} rows in sample order")
    return rows


def softmax(Y, eps=PREF_EPS):
    import numpy as np

    z = np.asarray(Y, dtype=float) / eps
    m = z.max(axis=-1, keepdims=True)
    return eps * (m[..., 0] + np.log(np.exp(z - m).sum(axis=-1)))


def check_front(rows, problem, cloud_obj, reference_obj):
    """Recompute each sample's gap certificate against ``cloud_obj`` and the
    front's forward distance to ``reference_obj``.

    Returns (certified flags, front_fwd, problems found).
    """
    import numpy as np

    def vec(row, prefix, n):
        return np.array([float(row[f"{prefix}_{i + 1}"]) for i in range(n)])

    d, n_obj = problem.objective.dim_u, problem.objective.dim_obj
    certified, errors, converged_pts = [], [], []
    for row in rows:
        if row["converged"] != "true":
            certified.append(False)
            continue
        u, ell, E = vec(row, "u", d), vec(row, "ell", n_obj), vec(row, "E", n_obj)
        converged_pts.append(ell)
        gap = float(softmax(ell + E) - softmax(cloud_obj + E).min())
        p = problem.c * (problem.x - problem.alpha * u)
        bound = 0.5 * problem.mu * float(np.sum((u - p / problem.mu) ** 2))
        certified.append(-CERT_TOL <= gap <= bound + CERT_TOL)
        for key, mine in (("gap", gap), ("bregman_bound", bound)):
            if row[key] and abs(float(row[key]) - mine) > 1e-9 * max(1.0, abs(mine)):
                errors.append(f"sample {row['sample_index']}: front.csv {key}={row[key]}, "
                              f"recomputed {mine!r}")
    fwd = 0.0
    for y in converged_pts:
        fwd = max(fwd, float(np.sqrt(((reference_obj - y) ** 2).sum(axis=1).min())))
    return certified, fwd, errors


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hopfront").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def remember_digest(key, digest):
    """False when an earlier run of the same source and seed wrote another front.csv."""
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    if store.setdefault(key, digest) != digest:
        return False
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return True


def environment(src_sha):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": src_sha,
    }


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(tr, sweep_s, traced_s, out_dir):
    import numpy as np

    def incl(key):
        return sum(s.duration for s in tr.by_key(key))

    def self_s(*keys):
        return sum(tr.self_time(s) for key in keys for s in tr.by_key(key))

    def attr_sum(key, name):
        return sum(s.attrs.get(name, 0) for s in tr.by_key(key))

    m = {}
    m["oracle.sample_s"] = incl("sample")
    m["oracle.batch_rows"] = tr.leaf("batch")[2]
    m["oracle.cert_cloud_s"] = incl("cert_cloud")
    m["oracle.filter_s"] = incl("filter")
    m["oracle.filter_in"] = attr_sum("filter", "rows_in")
    m["oracle.filter_kept"] = attr_sum("filter", "rows_kept")
    m["oracle.envelope_s"] = incl("envelope")
    m["oracle.envelope_obj_evals"] = sum(
        s.leaves.get("value", (0, 0.0))[0] for s in tr.subtree(tr.by_key("envelope")))

    solves = [s for s in tr.subtree(tr.by_key("sweep")) if s.key == "solve"]
    retries = [b for a, b in zip(solves, solves[1:])
               if not b.attrs.get("warm", True) and b.attrs.get("tau") == a.attrs.get("tau")]
    samples = attr_sum("sweep", "samples")
    durations_ms = [1e3 * s.duration for s in solves] or [0.0]
    m["sweep.s"] = incl("sweep")
    m["sweep.solves"] = len(solves)
    m["sweep.retries"] = len(retries)
    m["sweep.retry_rescued"] = sum(1 for s in retries if s.attrs.get("converged"))
    m["sweep.useful_solve_ratio"] = samples / len(solves) if solves else 0.0
    m["sweep.solve_ms_p50"] = float(np.percentile(durations_ms, 50))
    m["sweep.solve_ms_p90"] = float(np.percentile(durations_ms, 90))

    outer = attr_sum("solve", "iterations")
    merit_calls, merit_s, _ = tr.leaf("merit")
    m["constrained.outer_iters"] = outer
    m["constrained.solve_self_s"] = self_s("solve", "primal_dual")
    m["constrained.merit_calls"] = merit_calls
    m["constrained.merit_s"] = merit_s
    m["constrained.merit_per_iter"] = merit_calls / outer if outer else 0.0
    for layer, key in (("constrained", "multiplier"), ("constrained", "project"),
                       ("solver", "dual_step"), ("solver", "spd_solve"), ("solver", "gap"),
                       ("core", "value"), ("core", "jacobian"), ("core", "prox")):
        calls, seconds, _ = tr.leaf(key)
        m[f"{layer}.{key}_calls"] = calls
        m[f"{layer}.{key}_s"] = seconds
    m["core.as_vector_calls"] = tr.leaf("as_vector")[0]

    m["cli.write_s"] = incl("write")
    m["cli.bytes"] = sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())
    m["trace.front_s"] = traced_s
    m["trace.overhead_s"] = traced_s - sweep_s
    m["trace.spans"] = len(tr.spans)
    m["trace.missing_targets"] = len(tr.missing)
    return m


# -- main ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hopfront" / "__init__.py").is_file():
        print(f"error: no hopfront sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    problem_id, flags, mc = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # set-up cost, in fresh interpreters, before this process imports anything
    if args.trace:
        layers = import_breakdown()
    else:
        setup_s = measure_setup(problem_id)

    sys.path.insert(0, str(SRC))
    import hopfront
    from hopfront import cli

    if not Path(hopfront.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hopfront from {hopfront.__file__}, not {SRC}")

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # warm-up: first-call costs of numpy/scipy, the solve path and, with
        # --compare, the oracle, on a small cloud
        small = [f for f in flags if f in ("--cold-start", "--compare")]
        run_cli(cli, ["sweep", "--problem", problem_id, *small, "--mc", "500", "--n", "2",
                      "--out", str(run_dir / "warmup")])

        out_dir = run_dir / "sweep"
        argv = sweep_argv(args.workload, args.seed, out_dir)
        counts = {"value": 0, "jacobian": 0}
        times, rcs, digests, evals = [], [], [], []
        clock, kernel_s, ratios = HostClock(), [], []
        start = time.perf_counter()
        with counted_methods(hopfront.VectorObjective, ("value", "jacobian"), counts):
            # stop before a sweep that would likely end after the deadline
            while not times or (time.perf_counter() - start + statistics.median(times)
                                <= args.seconds):
                (out_dir / "front.csv").unlink(missing_ok=True)
                before = dict(counts)
                with clock:
                    rc, elapsed = run_cli(cli, argv)
                times.append(elapsed - clock.spent)
                kernel_s.append(statistics.median(clock.samples or [clock.kernel()]))
                ratios.append(times[-1] / kernel_s[-1])
                rcs.append(rc)
                evals.append((counts["value"] - before["value"],
                              counts["jacobian"] - before["jacobian"]))
                digests.append(sha256(out_dir / "front.csv"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        front_s = statistics.median(times)
        front_cal = statistics.median(ratios)

        if args.trace:
            from tracer import Tracer

            traced_dir = run_dir / "traced"
            with Tracer() as tr:
                tr.run = 1
                root = tr.open("cli")
                rc, traced_s = run_cli(cli, sweep_argv(args.workload, args.seed, traced_dir))
                tr.close(root)
            rcs.append(rc)
            digests.append(sha256(traced_dir / "front.csv"))
            layers.update(layer_metrics(tr, front_s, traced_s, traced_dir))
            layers["front.wall_s"] = front_s
            layers["front.kernel_ms"] = 1e3 * statistics.median(kernel_s)

        # checks, after all timing. Certificates use the cloud the CLI
        # certified against; front_fwd uses the library's default cloud,
        # which does not depend on the seed, so it measures only the front.
        problem = hopfront.get_problem(problem_id)
        cloud = hopfront.certification_cloud(problem, mc=mc, seed=args.seed)
        reference = hopfront.certification_cloud(problem)
        certified, front_fwd, errors = check_front(
            read_front(out_dir / "front.csv"), problem, cloud.points_obj, reference.points_obj)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    src_sha = source_digest()
    if any(rc != 0 for rc in rcs):
        errors.append(f"sweep exit codes {rcs}")
    if len(set(digests)) != 1:
        errors.append(f"front.csv differs between sweeps of one run: {sorted(set(digests))}")
    if len(set(evals)) != 1:
        errors.append(f"objective/Jacobian call counts differ between sweeps: {evals}")
    if not remember_digest(f"{src_sha}|{args.workload}|seed={args.seed}", digests[0]):
        errors.append("front.csv differs from an earlier run of the same source and seed")

    n_sweeps = len(times)
    failed_per_sweep = certified.count(False)
    print("env " + json.dumps(environment(src_sha), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {n_sweeps} sweeps, "
          f"sweep wall s {[round(t, 4) for t in times]}, "
          f"median kernel ms {[round(1e3 * k, 3) for k in kernel_s]}")
    print(f"front.csv sha256 {digests[0]}")
    for err in errors:
        print(f"CHECK FAILED: {err}")

    if args.trace:
        print(f"{'kind':5} {'span/leaf':12} {'calls':>8} {'incl_s':>9} {'self_s':>9}")
        for kind, key, calls, inclusive, self_time in tr.table():
            if calls:
                print(f"{kind:5} {key:12} {calls:8d} {inclusive:9.4f} {self_time:9.4f}")
        if tr.missing:
            print("missing trace targets: " + ", ".join(tr.missing))
        values, declared = layers, spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "front_cal": front_cal,
            "obj_evals": evals[0][0],
            "jac_evals": evals[0][1],
            "certified_frac": certified.count(True) / N_SAMPLES,
            "front_fwd": front_fwd,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    print(json.dumps({
        "correct": not errors,
        "attempted": N_SAMPLES * n_sweeps,
        "failed": failed_per_sweep * n_sweeps,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
