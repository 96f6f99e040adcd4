"""The lucascert benchmark: four CLI-level workloads, checked outputs, medians.

Usage, from the root of a checkout that holds `src/lucascert`:

    python3 bench/run.py --workload certify [--seed 1] [--seconds 22] [--trace 0]

Each repetition of the workload's job list runs in a fresh child process
(`child.py`), so the library's module-level caches start cold as they do
for a CLI user.  The load is a closed loop from one client: one child at a
time, jobs one after another.  A run starts one uncounted warm-up child,
then a few set-up-only children, then repeats the job list for about
`--seconds`, at least twice.  With `--trace 1` it alternates untraced and traced
repetitions and reports the per-layer metrics instead.  The times reported
as metrics are adjusted for the host's speed (`hostspeed.py`); the raw
wall times are printed beside them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
medians, quartiles and sample counts for people.  See README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import hostspeed
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify", "opinfo", "shadow", "casebook")
DEFAULT_SEED = 1
SETUP_CHILDREN = 3
MIN_REPS = 2
JOB_BUDGET_S = 30.0
CHILD_ALARM_S = 100

# operators in ascending derivative order, as in lucascert's catalog; the
# integer is one whose prime factors are exactly the bad primes: the
# singular point 1/64 of g3 and f3, the discriminant 2^7 3^2 of
# 1 - 34z + z^2 for apery
OPERATORS = {
    "g3": ("delta", [[0, -8], [0, -48], [0, -96], [1, -64]], 64),
    "f3": ("delta", [[0, 8], [0, 16], [0, -32], [1, -64]], 64),
    "apery": ("d", [[-5, 1], [1, -112, 7], [0, 3, -153, 6], [0, 0, 1, -34, 1]], 1152),
}
OPINFO_BOUND = 100
# p-curvature at 31 costs about 0.26 s more than at 29 on apery, and about
# as much more on g3 and f3 together: the seed picks one of two
# assignments of equal cost
LOW_PAIR, HIGH_PAIR = (29, 37), (31, 37)
N_BAND = (10**14, 10**9)  # the singular point 1/N has N prime in [base, base + width)
CASEBOOK_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def certify_jobs(rng, workdir):
    jobs = [{"runner": "cli", "label": f"certify {s}@{p}", "series": s, "p": p,
             "argv": ["certify", s, "-p", str(p)]}
            for s, p in (("f2", 3), ("f3", 3), ("f2", 5), ("apery", 37))]
    rng.shuffle(jobs)
    # apery@37 stays before f2@5, so f2@5 expands on top of apery's cached
    # terms; in the other order the peak RSS is 280 MB instead of 330 MB
    labels = [job["label"] for job in jobs]
    i, j = labels.index("certify apery@37"), labels.index("certify f2@5")
    if i > j:
        jobs[i], jobs[j] = jobs[j], jobs[i]
    return jobs


def opinfo_jobs(rng, workdir):
    n = N_BAND[0] + rng.randrange(N_BAND[1])
    while not _is_prime(n):
        n += 1
    ops = dict(OPERATORS, large_singularity=("d", [[-2], [1, -n]], n))
    apery_high = rng.random() < 0.5
    pairs = {"g3": LOW_PAIR if apery_high else HIGH_PAIR,
             "f3": LOW_PAIR if apery_high else HIGH_PAIR,
             "apery": HIGH_PAIR if apery_high else LOW_PAIR,
             "large_singularity": rng.choice((LOW_PAIR, HIGH_PAIR))}
    jobs = []
    for name, (basis, polys, bad_integer) in ops.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"basis": basis, "coeffs": [{"num": c} for c in polys]}, fh)
        primes = list(pairs[name])
        jobs.append({
            "runner": "cli", "label": f"opinfo {name} --primes {primes[0]},{primes[1]}",
            "bad_integer": bad_integer,
            "bound": OPINFO_BOUND, "primes": primes,
            "argv": ["opinfo", path, "--bound", str(OPINFO_BOUND),
                     "--primes", ",".join(map(str, primes)), "--format", "json"],
        })
    rng.shuffle(jobs)
    return jobs


def shadow_jobs(rng, workdir):
    jobs = [{"runner": "shadow", "label": f"shadow {s}@{p}", "series": s, "p": p, "T": 243}
            for s, p in (("f2", 3), ("apery", 5))]
    rng.shuffle(jobs)
    return jobs


def casebook_jobs(rng, workdir):
    primes = list(CASEBOOK_PRIMES)
    rng.shuffle(primes)
    return [{"runner": "cli", "label": "casebook all", "cases": list(tracing.CASE_IDS),
             "primes": primes, "argv": ["casebook", "all", "--primes", ",".join(map(str, primes))]}]


JOBS = {"certify": certify_jobs, "opinfo": opinfo_jobs,
        "shadow": shadow_jobs, "casebook": casebook_jobs}


def spawn(workdir, jobs, trace=False, spans=None):
    """Run one child to completion; returns (peak_rss_mb, report or None).

    The report gains `setup`, the time from spawning the child to its
    `ready`, and `wall`, from its first job's start to its last job's end,
    both adjusted for the host's speed, and the same raw as `setup_raw` and
    `wall_raw`.
    """
    result = os.path.join(workdir, "result.json")
    if os.path.exists(result):
        os.remove(result)
    spec = os.path.join(workdir, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "jobs": jobs, "trace": trace, "spans": spans,
                   "alarm_s": CHILD_ALARM_S, "result": result}, fh)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec],
                            stdout=sys.stderr)
    try:
        # rusage of this child alone; RUSAGE_CHILDREN would carry earlier children's peaks
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024
    if proc.returncode != 0 or not os.path.exists(result):
        return peak, None
    with open(result, encoding="utf-8") as fh:
        report = json.load(fh)
    starts, times = report["probe"]["starts"], report["probe"]["times"]
    smoothed = hostspeed.smooth(times)
    report["setup"] = hostspeed.adjusted(spawned, report["ready"], starts, times, smoothed)
    report["setup_raw"] = report["ready"] - spawned
    if report["jobs"]:
        begin, end = report["jobs"][0]["start"], report["jobs"][-1]["end"]
        report["wall"] = hostspeed.adjusted(begin, end, starts, times, smoothed)
        report["wall_raw"] = end - begin
    return peak, report


class Tally:
    """Counts jobs and checks their outputs; identical outputs are checked once."""

    def __init__(self, workload, jobs):
        self.check = checks.CHECKS[workload]
        self.jobs = jobs
        self.attempted = self.failed = 0
        self.problems = []
        self._verdicts = {}
        self._references = {}

    def add(self, report):
        """Count one repetition; returns False if the child failed."""
        self.attempted += len(self.jobs)
        if report is None or len(report["jobs"]) != len(self.jobs):
            self.failed += len(self.jobs)
            self.problems.append("child process failed")
            return False
        for job, done in zip(self.jobs, report["jobs"]):
            problems = self._verdict(job, done["output"])
            if done["end"] - done["start"] > JOB_BUDGET_S:
                problems = problems + [f"over its {JOB_BUDGET_S} s budget"]
            if problems:
                self.failed += 1
                self.problems.extend(f"{job['label']}: {p}" for p in problems)
        return True

    def _verdict(self, job, output):
        if "error" in output:
            return [output["error"]]
        if output.get("rc", 0) != 0:
            return [f"exit code {output['rc']}: {output['stderr'].strip()[:200]}"]
        key = json.dumps([job, output], sort_keys=True)
        if key not in self._verdicts:
            self._verdicts[key] = self.check(job, output, self._references)
        return self._verdicts[key]


def describe(values):
    """Median, quartiles and count, as printed on the summary lines."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return f"median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def time_left(started, done, seconds):
    """Whether one more repetition ends less than half a repetition past `seconds`."""
    elapsed = time.monotonic() - started
    return elapsed + elapsed / done / 2 < seconds


def measure(workdir, jobs, tally, seconds):
    """Untraced run: end-to-end metrics."""
    children = []
    for _ in range(SETUP_CHILDREN):
        _, report = spawn(workdir, [])
        if report is not None:
            children.append(report)
    reps, rss = [], []
    started = time.monotonic()
    while len(reps) < MIN_REPS or time_left(started, len(reps), seconds):
        peak, report = spawn(workdir, jobs)
        if not tally.add(report):
            break
        children.append(report)
        reps.append(report)
        rss.append(peak)
    if not reps or not children:
        return None
    walls = [r["wall"] for r in reps]
    setups = [r["setup"] for r in children]
    print(f"wall_s       {describe(walls)}")
    print(f"  raw        {describe([r['wall_raw'] for r in reps])}")
    print(f"setup_s      {describe(setups)}")
    print(f"  raw        {describe([r['setup_raw'] for r in children])}")
    print(f"peak_rss_mb  {describe(rss)}")
    ok = (tally.attempted - tally.failed) / tally.attempted
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": (ok, "ratio"),
    }


def measure_traced(workdir, jobs, tally, seconds, workload, seed):
    """Traced run: per-layer metrics, and the tracing overhead on wall time."""
    os.makedirs(os.path.join(BENCH_DIR, "traces"), exist_ok=True)
    spans = os.path.join(BENCH_DIR, "traces", f"{workload}-seed{seed}.jsonl")
    plain, traced, layers, span_counts = [], [], [], []
    started = time.monotonic()
    while not traced or time_left(started, len(traced), seconds):
        _, report = spawn(workdir, jobs)
        ok = tally.add(report)
        _, treport = spawn(workdir, jobs, trace=True, spans=None if traced else spans)
        if not (tally.add(treport) and ok):
            return None
        plain.append(report["wall"])
        traced.append(treport["wall"])
        layers.append(treport["layer"])
        span_counts.append(treport["layer"]["spans"])
    print(f"untraced wall_s  {describe(plain)}")
    print(f"traced wall_s    {describe(traced)}")
    print(f"spans per rep    {describe(span_counts)}; first traced rep written to {spans}")
    unused = [m for m, home in tracing.HOME.items()
              if home == workload and any(layer["calls"][m] == 0 for layer in layers)]
    if unused:
        raise SystemExit(f"error: no calls recorded on the home workload {workload} for "
                         + ", ".join(unused))
    metrics = {}
    for m in tracing.METRICS:
        values = [layer["metrics"][m] for layer in layers]
        metrics[m] = (statistics.median(values), tracing.unit(m))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.spans"] = (statistics.median(span_counts), "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "lucascert", "__init__.py")):
        print(f"error: no lucascert package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2

    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = JOBS[args.workload](random.Random(args.seed), workdir)
        print(f"workload {args.workload}  seed {args.seed}  jobs: "
              + "; ".join(job["label"] for job in jobs))
        if spawn(workdir, [])[1] is None:  # warm-up: fills the disk cache, not counted
            print("error: the set-up child failed", file=sys.stderr)
            return 1
        tally = Tally(args.workload, jobs)
        if args.trace:
            metrics = measure_traced(workdir, jobs, tally, args.seconds, args.workload, args.seed)
        else:
            metrics = measure(workdir, jobs, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    if metrics is None:
        print("error: a benchmark child failed; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
