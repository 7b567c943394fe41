"""Check that two source trees give byte-identical CLI output on seeded jobs.

    python3 scripts/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 77 78]
        [--rounds certify=3,probe=2,search=2]

PARENT_SRC and CHANGE_SRC are the src/ directories of two checkouts.  For
each seed and workload, the job stream of perfbench/jobs.py (the workload's
prologue, then the given number of rounds) runs through each tree's
facetforge.cli.main, each tree in its own process and work directory, with
BLAS on one thread and a fixed hash seed.  Per job, the exit code, stdout,
stderr and every file the job wrote (construct's .plan.json included) are
compared, with the work directory masked.  Prints one line per stream and
one more per differing job, and exits 1 when any job differs.

A differing verify job is a real difference when its exit code, stderr,
signature, method, confidence, warnings or witness dimensions differ; when
only witness coordinates differ, the line gives their count and the largest
absolute difference.  The last line sums both kinds over all streams.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASK = "<work>"
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _files(work: Path) -> dict[str, tuple[int, int]]:
    return {str(p.relative_to(work)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(work.rglob("*")) if p.is_file()}


def run_stream(src: str, workload: str, seed: int, rounds: int, out: str):
    """Run one job stream through src's CLI; write one record per job to out."""
    spec = importlib.util.spec_from_file_location("jobs", ROOT / "perfbench" / "jobs.py")
    jobs_mod = sys.modules["jobs"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs_mod)
    sys.path.insert(0, src)
    import facetforge.cli

    if not Path(facetforge.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"facetforge was imported from {facetforge.cli.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        stream = jobs_mod.Workload(workload, seed, work)
        jobs = stream.prologue() + [j for _ in range(rounds) for j in stream.next_round()]

        def mask(text: str) -> str:
            return text.replace(str(work.resolve()), MASK).replace(str(work), MASK)

        before = _files(work)
        records = []
        for job in jobs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = facetforge.cli.main(job.argv)
                except SystemExit as exc:  # argparse errors
                    code = exc.code
                except Exception as exc:
                    code = f"exception {type(exc).__name__}: {exc}"
            after = _files(work)
            written = {name: _digest(mask((work / name).read_text()))
                       for name, stamp in after.items() if before.get(name) != stamp}
            before = after
            record = {"argv": mask(" ".join(job.argv)), "code": code,
                      "stdout": _digest(mask(stdout.getvalue())),
                      "stderr": _digest(mask(stderr.getvalue())), "files": written}
            if job.argv[0] == "verify":
                with contextlib.suppress(ValueError):
                    record["report"] = json.loads(stdout.getvalue())
            records.append(record)
    Path(out).write_text(json.dumps(records))


def _witness_gap(p: dict, c: dict) -> tuple[int, float] | None:
    """(differing coordinates, largest absolute difference) when two
    verify reports differ in witness coordinates only, else None."""
    rp, rc = p.get("report"), c.get("report")
    if not isinstance(rp, dict) or not isinstance(rc, dict) or "witnesses" not in rp:
        return None
    if any(p[key] != c[key] for key in ("code", "stderr", "files")):
        return None
    if {k: v for k, v in rp.items() if k != "witnesses"} != \
            {k: v for k, v in rc.items() if k != "witnesses"}:
        return None
    wp, wc = rp["witnesses"], rc.get("witnesses", {})
    if wp.keys() != wc.keys() or any(len(wp[d]) != len(wc[d]) for d in wp):
        return None
    gaps = [abs(float(Fraction(x)) - float(Fraction(y)))
            for d in wp for x, y in zip(wp[d], wc[d]) if x != y]
    return len(gaps), max(gaps, default=0.0)


def compare(parent: list[dict], change: list[dict]) -> tuple[list[str], list[tuple[int, float]]]:
    """One line per differing job, real differences and witness-only
    differences alike, and the (count, largest) of each witness-only one."""
    if len(parent) != len(change):
        return [f"job counts differ: {len(parent)} vs {len(change)}"], []
    lines, gaps = [], []
    for k, (p, c) in enumerate(zip(parent, change)):
        parts = [key for key in ("code", "stdout", "stderr", "files") if p[key] != c[key]]
        if not parts:
            continue
        gap = _witness_gap(p, c)
        if gap is None:
            lines.append(f"job {k} ({p['argv']}): {', '.join(parts)} differ")
        else:
            gaps.append(gap)
            lines.append(f"job {k} ({p['argv']}): witnesses only, {gap[0]} "
                         f"coordinate(s), largest difference {gap[1]:.3g}")
    return lines, gaps


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        src, workload, seed, rounds, out = sys.argv[2:]
        run_stream(src, workload, int(seed), int(rounds), out)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--seeds", type=int, nargs="+", default=[77, 78])
    p.add_argument("--rounds", default="certify=3,probe=2,search=2",
                   help="rounds per workload, as name=count pairs")
    args = p.parse_args(argv)
    rounds = {name: int(count) for name, count in
              (pair.split("=") for pair in args.rounds.split(","))}
    env = {**os.environ, **CHILD_ENV}
    real = witness_only = 0
    largest = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload, count in rounds.items():
                outs, procs = [], []
                for tag, src in (("parent", args.parent_src), ("change", args.change_src)):
                    out = str(Path(tmp) / f"{tag}-{workload}-{seed}.json")
                    cmd = [sys.executable, __file__, "--child", src, workload, str(seed),
                           str(count), out]
                    procs.append(subprocess.Popen(cmd, env=env))
                    outs.append(out)
                if any([proc.wait() for proc in procs]):
                    print(f"seed {seed} {workload}: a child process failed")
                    return 2
                parent, change = (json.loads(Path(o).read_text()) for o in outs)
                lines, gaps = compare(parent, change)
                real += len(lines) - len(gaps)
                witness_only += len(gaps)
                largest = max([largest] + [g for _, g in gaps])
                print(f"seed {seed} {workload}: {len(parent)} jobs, "
                      f"{len(lines)} differ", flush=True)
                for line in lines:
                    print(f"  {line}", flush=True)
    print(f"real differences: {real}; witness-only differences: {witness_only}, "
          f"largest {largest:.3g}")
    return 0 if real + witness_only == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
