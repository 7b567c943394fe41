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
exits 1 when some job differs, naming the first such job of each stream.
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
            records.append({"argv": mask(" ".join(job.argv)), "code": code,
                            "stdout": _digest(mask(stdout.getvalue())),
                            "stderr": _digest(mask(stderr.getvalue())), "files": written})
    Path(out).write_text(json.dumps(records))


def compare(parent: list[dict], change: list[dict]) -> str | None:
    """The first differing job, described, or None when all agree."""
    if len(parent) != len(change):
        return f"job counts differ: {len(parent)} vs {len(change)}"
    for k, (p, c) in enumerate(zip(parent, change)):
        parts = [key for key in ("code", "stdout", "stderr", "files") if p[key] != c[key]]
        if parts:
            return f"job {k} ({p['argv']}): {', '.join(parts)} differ"
    return None


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
    same = True
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
                diff = compare(parent, change)
                same = same and diff is None
                print(f"seed {seed} {workload}: "
                      f"{diff or f'{len(parent)} jobs identical'}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
