"""facetforge benchmark: seeded CLI workloads, checked, with per-layer traces.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 26 --trace 0

Run from the repository root.  One client drives the public entry point
facetforge.cli.main(argv) in-process as a closed loop: each job starts when
the previous one has finished, as when a researcher scripts the tool.  Jobs
read and write real files in a temporary directory under perfbench/out/,
their output is captured and checked outside the timed span, and only the
generated inputs reach facetforge.  Every job has a wall-clock deadline
enforced with SIGALRM; a missed deadline is a failure.

Workloads (every workload runs every job kind, because every end-to-end
metric is reported on every workload; the other kinds run as a small share
at fixed small sizes):

  certify  construct --out, verify --expect and export over seeded
           signatures with max <= 16 and a fifth at n = 24 and 32, plus
           construct --decompose and malformed requests.  The exact core,
           constructor and JSON codec do the work; the float kernel little.
  probe    verify --probe at 2000 and 10000 samples on templates within
           {0..7}, {0..10} and {0..12}, direct sums, every class of single
           quadratic; plain verify on blocks the exact path declines; slices.
           The float kernel and the per-sample loop do the work.
  search   decompose and lowerbound on seeded dense signatures up to the
           default cap 24, after a prologue of complete intervals {0..L},
           L <= 16.  Only the signature search works here.

No job of a workload is meant to fail: the known defects (the decompose
search past the deadline at {0..20} and up, the ValueError out of main on
verify --probe --samples -5) are not sent, and a failed job shows in the
result's failed count.

Times are reported at a reference machine speed.  On a shared 2-vCPU VM the
speed of the same pure-Python work drifts by up to 2x in phases of 10-20 s,
which moved the medians of raw 30 s runs by about 20%.  A fixed calibration
kernel is therefore timed between jobs (at least every CAL_EVERY_S), and each
job's wall time is multiplied by CAL_REF_S over the kernel's time around it;
--seconds counts such reference seconds, within WALL_CAP times as much wall
time.  Raw wall times are kept in the
result file next to the scaled ones.  The set-up time is the median time a
fresh interpreter takes to import facetforge (once before the loop and once
every IMPORT_EVERY_S of it) plus the median of five seeded generations of
the first round's inputs, both scaled.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
traces a fixed number of rounds, derived from --seconds, then runs as many
rounds untraced, and reports per-layer calls and self time and the tracing
overhead (traced minus untraced jobs per second).  Each run writes its
environment, per-job records and metrics to perfbench/out/.  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# One process with BLAS pinned to one thread; must precede numpy's import.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, Verdict, Workload, check, nominal_bucket  # noqa: E402
from tracing import UNITS, Tracer  # noqa: E402

DEADLINE_S = 8.0
SETUP_REPEATS = 5
# Wall seconds between two fresh-interpreter imports of a timed run.  The
# machine's speed drifts in phases, so imports spread over the run vary less
# from run to run than imports made back to back.
IMPORT_EVERY_S = 3.0
# Calibration kernel time at the reference speed, about its time in the fast
# phases of a 2-vCPU x86 VM, and the longest gap between two calibrations.
CAL_REF_S = 2.5e-3
CAL_EVERY_S = 0.5
# On a slow machine a run stops after this many times --seconds of wall
# time, even if it has not measured --seconds of reference time.
WALL_CAP = 1.25
# Wall seconds per round at the seed commit on that VM.  A traced run covers
# round(seconds / 2 / ROUND_S) rounds traced and as many untraced, so that
# its counts repeat for a seed and it lasts about as long as an untraced run.
ROUND_S = {"certify": 2.7, "probe": 7.0, "search": 1.0}
BUCKETS = ("construct", "verify_exact", "verify_probe", "decompose", "export", "slice")
TAILS = ("construct", "verify_exact", "verify_probe", "decompose")


class DeadlineExceeded(BaseException):
    """Raised into a job from SIGALRM; not an Exception, so no handler in
    facetforge can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def quantile(values, p: float) -> float:
    """Nearest-rank p-quantile, lowered until ten samples lie beyond it,
    and never below the median."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    if p <= 0.5 or len(ordered) < 11:
        return median
    return max(median, ordered[min(math.ceil(p * len(ordered)) - 1, len(ordered) - 11)])


_CAL_M = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(16)]
          for i in range(16)]


def calibration_kernel():
    """Fixed pure-Python work of the kinds facetforge does: rational sums, a
    rational matrix-vector product, a JSON round trip of rationals and a
    float loop.  It uses no facetforge code, so no change to facetforge
    can move it."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    product = [sum(a * b for a, b in zip(row, _CAL_M[0])) for row in _CAL_M]
    text = json.dumps([[str(e) for e in row] for row in _CAL_M])
    back = [[Fraction(e) for e in row] for row in json.loads(text)]
    x = 0.0
    for i in range(3000):
        x = x * 0.5 + i
    return total, product, back, x


class Speed:
    """Calibration samples over the run: (time taken, kernel seconds)."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []

    def sample(self):
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            calibration_kernel()
            best = min(best, perf_counter() - start)
        self.times.append(perf_counter())
        self.kernel.append(best)

    def scaled(self, seconds: float) -> float:
        """seconds at the reference speed, by the latest calibration."""
        return seconds * CAL_REF_S / self.kernel[-1]

    def maybe_sample(self):
        if not self.times or perf_counter() - self.times[-1] >= CAL_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean kernel time of the last calibration
        before start and the first after end."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return CAL_REF_S / ((self.kernel[before] + self.kernel[after]) / 2)


def run_job(main, argv, deadline):
    """(exit code or failure label, stdout, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                code = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        code = "timeout"
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a traceback out of main is a failed job
        code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - start


class Loop:
    """Runs jobs one after another and keeps a record of each."""

    def __init__(self, cli, deadline):
        self.cli = cli
        self.deadline = deadline
        self.records: list[dict] = []
        self.tracer: Tracer | None = None
        self.speed = Speed()

    def run(self, jobs, phase) -> list[dict]:
        records = []
        for job in jobs:
            self.speed.maybe_sample()
            if self.tracer:
                self.tracer.job = len(self.records)
            start = perf_counter()
            code, stdout, elapsed = run_job(self.cli.main, job.argv, self.deadline)
            if isinstance(code, int):
                verdict = check(job, code, stdout)
            else:
                verdict = Verdict("fail", code, bucket=nominal_bucket(job))
            record = {
                "id": len(self.records), "phase": phase, "kind": job.kind,
                "note": job.note, "command": job.argv[0], "n": job.dim,
                "samples": job.samples, "seed": job.seed,
                "expected": job.truth, "result": verdict.result,
                "start": start, "wall_s": elapsed,
                "est_s": self.deadline if code == "timeout" else self.speed.scaled(elapsed),
                "status": verdict.status,
                "reason": verdict.reason, "bucket": verdict.bucket,
                "found": verdict.found, "true": verdict.true,
                "timeout": code == "timeout",
            }
            self.records.append(record)
            records.append(record)
        return records

    def busy(self, records) -> float:
        """Busy time of records at the reference speed, by the calibration
        before each job."""
        return sum(r["est_s"] for r in records)

    def finish(self):
        """Scale every job's wall time to the reference speed.  A missed
        deadline is charged at the deadline, which is wall-clock."""
        self.speed.sample()
        for r in self.records:
            r["scale"] = self.speed.factor(r["start"], r["start"] + r["wall_s"])
            r["seconds"] = self.deadline if r["timeout"] else r["wall_s"] * r["scale"]


def jobs_per_s(records) -> float:
    return sum(r["status"] == "ok" for r in records) / sum(r["seconds"] for r in records)


def end_to_end(records, setup_s):
    ok = [r for r in records if r["status"] == "ok"]
    probe = [r for r in ok if r["true"]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s(records), "1/s"),
        "probe_recall": (sum(r["found"] for r in probe) / max(sum(r["true"] for r in probe), 1),
                         "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {}
    for bucket in BUCKETS:
        # Latency of answered jobs; a missed deadline counts at its length.
        ms = [r["seconds"] * 1e3 for r in records
              if r["bucket"] == bucket and (r["status"] == "ok" or r["timeout"])]
        counts[bucket] = len(ms)
        if not ms:
            sys.exit(f"no {bucket} job was answered; cannot report {bucket}_ms")
        metrics[f"{bucket}_ms.p50"] = (quantile(ms, 0.5), "ms")
        if bucket in TAILS:
            metrics[f"{bucket}_ms.p90"] = (quantile(ms, 0.9), "ms")
    return metrics, counts


def git_commit() -> str:
    """HEAD of the checkout when it is a git clone, else 'unknown'."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": DEADLINE_S,
        "calibration_ref_s": CAL_REF_S,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import facetforge.cli, which a
    CLI user pays on every call."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import facetforge.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def scaled_import_s(speed: Speed) -> float:
    """child_import_s at the reference speed, by calibrations just before
    and after it.  Slow phases of the machine slow the import about as much
    as the calibration kernel."""
    speed.sample()
    start = perf_counter()
    seconds = child_import_s()
    speed.sample()
    return seconds * speed.factor(start, start + seconds)


def import_facetforge():
    """Import facetforge from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    try:
        import facetforge
        import facetforge.cli
    except ImportError as exc:
        sys.exit(f"cannot import facetforge from {src}: {exc}")
    elapsed = perf_counter() - start
    if not Path(facetforge.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"facetforge was imported from {facetforge.__file__}, not {src}")
    return facetforge, elapsed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    facetforge, import_s = import_facetforge()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return measure(args, facetforge, import_s, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, facetforge, import_s, workdir, out_dir) -> int:
    # Set-up: the prologue's and first round's inputs are generated from the
    # seed and written, SETUP_REPEATS times (the last copy is used), and a
    # fresh interpreter imports facetforge, here and, in a timed run, again
    # every IMPORT_EVERY_S between rounds.
    speed = Speed()
    generated = []
    for rep in range(SETUP_REPEATS):
        sub = workdir / f"w{rep}"
        sub.mkdir()
        speed.sample()
        start = perf_counter()
        workload = Workload(args.workload, args.seed, sub)
        prologue, first = workload.prologue(), workload.next_round()
        elapsed = perf_counter() - start
        speed.sample()
        generated.append((elapsed, elapsed * speed.factor(start, start + elapsed)))
    imports = [scaled_import_s(speed)]

    loop = Loop(facetforge.cli, DEADLINE_S)
    result = {"environment": environment(args), "import_wall_s": import_s,
              "setup_import_s": imports, "setup_generate_s": generated}
    if args.trace:
        rounds = max(1, round(args.seconds / 2 / ROUND_S[args.workload]))
        tracer = Tracer()
        tracer.install(facetforge)
        loop.tracer = tracer
        loop.run(prologue, "prologue")
        traced = loop.run(first, "traced")
        for _ in range(rounds - 1):
            traced += loop.run(workload.next_round(), "traced")
        tracer.uninstall()
        loop.tracer = None
        plain = []
        for _ in range(rounds):
            plain += loop.run(workload.next_round(), "untraced")
        loop.finish()
        scale = [r["scale"] for r in loop.records]
        metrics = tracer.per_layer(scale.__getitem__)
        metrics["trace.overhead_jobs_per_s"] = jobs_per_s(traced) - jobs_per_s(plain)
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        tracer.write(out_dir / f"spans-{args.workload}.csv.gz")
        result["trace_rounds"] = rounds
    else:
        timed = loop.run(prologue, "timed") + loop.run(first, "timed")
        next_import = perf_counter() + IMPORT_EVERY_S
        while (loop.busy(timed) < args.seconds
               and sum(r["wall_s"] for r in timed) < WALL_CAP * args.seconds):
            timed += loop.run(workload.next_round(), "timed")
            if perf_counter() >= next_import:
                imports.append(scaled_import_s(loop.speed))
                next_import = perf_counter() + IMPORT_EVERY_S
        loop.finish()
        setup_s = statistics.median(imports) + statistics.median(g for _, g in generated)
        metrics, counts = end_to_end(timed, setup_s)
        result["samples_per_bucket"] = counts

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    failed = [r for r in loop.records if r["status"] != "ok"]
    wrong = [r for r in failed if r["status"] == "wrong"]
    summary = {"correct": not wrong, "attempted": len(loop.records), "failed": len(failed),
               "metrics": metrics}
    result.update(summary=summary, rounds=workload.rounds, jobs=loop.records)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1))

    reasons = collections.Counter((r["status"], r["kind"], r["reason"][:72]) for r in failed)
    for (status, kind, reason), count in sorted(reasons.items()):
        print(f"{status}: {count} x {kind}: {reason}")
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
