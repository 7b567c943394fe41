"""Seeded CLI jobs for the three workloads, with their expected outcomes.

Nothing here imports facetforge.  Input systems are written as JSON from
their defining formulas, and every expected signature comes from how the
input was built: the ball-and-cylinders template theory, the seven classes
of a single convex quadratic, intersections of offset balls, and Minkowski
sums for direct sums.  A facetforge answer is never used as the truth.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Template cylinder parameters; facetforge's defaults c = 7/10, r = 8/5.
C = Fraction(7, 10)
R = Fraction(8, 5)

PROBE_SMALL = 2000
PROBE_LARGE = 10000


@dataclass
class Job:
    """One CLI call and what a correct answer looks like.

    kind selects the check: construct, verify_exact, verify, probe, export,
    slice, decompose, lowerbound or malformed.  truth is the expected
    signature (None for an empty set); dim and count describe the system a
    job reads, when it reads one.
    """

    kind: str
    argv: list[str]
    truth: tuple[int, ...] | None = None
    dim: int | None = None
    count: int | None = None
    samples: int | None = None
    seed: int | None = None
    out: str | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# Systems as dense rational data


@dataclass
class System:
    dim: int
    cons: list = field(default_factory=list)  # (A rows, a, alpha) triples
    witness: list | None = None
    truth: tuple[int, ...] | None = ()

    def to_json(self) -> str:
        def vec(v):
            return [str(Fraction(e)) for e in v]

        return json.dumps(
            {
                "dim": self.dim,
                "constraints": [
                    {"A": [vec(row) for row in A], "a": vec(a), "alpha": str(alpha)}
                    for A, a, alpha in self.cons
                ],
                "interior_witness": None if self.witness is None else vec(self.witness),
            }
        )


def sumset(a, b) -> tuple[int, ...]:
    return tuple(sorted({x + y for x in a for y in b}))


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _diag(n, ones, a=None, alpha=0):
    A = _zeros(n)
    for i in ones:
        A[i][i] = Fraction(1)
    vec = [Fraction(0)] * n
    for i, v in (a or {}).items():
        vec[i] = Fraction(v)
    return A, vec, Fraction(alpha)


def template(sig) -> System:
    """Unit ball on the first max-min coordinates plus one centered cylinder
    per interior element and min free coordinates: signature sig."""
    sig = tuple(sorted(set(sig)))
    m, n = sig[0], sig[-1]
    d = n - m
    if len(sig) == 1:
        return System(n, [], [0] * n, sig)
    cons = [_diag(n, range(d), alpha=-1)]
    for i in sig[1:-1]:
        cons.append(_diag(n, range(i - m, d), {i - m: C}, C * C - R * R))
    return System(n, cons, [0] * n, sig)


def permuted(s: System, perm) -> System:
    """The same set with coordinates relabelled; the signature is unchanged."""
    cons = [
        ([[A[p][q] for q in perm] for p in perm], [a[p] for p in perm], alpha)
        for A, a, alpha in s.cons
    ]
    witness = None if s.witness is None else [s.witness[p] for p in perm]
    return System(s.dim, cons, witness, s.truth)


def direct_sum(s: System, t: System) -> System:
    n = s.dim + t.dim
    cons = []
    for (A, a, alpha), off, d in [(c, 0, s.dim) for c in s.cons] + [
        (c, s.dim, t.dim) for c in t.cons
    ]:
        big = _zeros(n)
        for i in range(d):
            big[off + i][off : off + d] = A[i]
        vec = [Fraction(0)] * n
        vec[off : off + d] = a
        cons.append((big, vec, alpha))
    witness = None
    if s.witness is not None and t.witness is not None:
        witness = list(s.witness) + list(t.witness)
    truth = None if s.truth is None or t.truth is None else sumset(s.truth, t.truth)
    return System(n, cons, witness, truth)


def _unimodular(rng: random.Random, n: int):
    """Integer Q with det 1 and its integer inverse, from row operations."""
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    Qi = [row[:] for row in Q]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        Q[i] = [Q[i][k] + c * Q[j][k] for k in range(n)]
        for r in range(n):
            Qi[r][j] -= c * Qi[r][i]
    return Q, Qi


QUADRATIC_CLASSES = (
    "full", "halfspace", "singleton", "affine", "cylinder", "paraboloid", "empty",
)


def single_quadratic(rng: random.Random, n: int, kind: str) -> System:
    """One convex quadratic of the given class (see quadratics.py) in R^n.

    A = Q^T D Q with Q unimodular has nullity m = number of zero entries of
    D, and null(A) is spanned by the columns of Q^-1 at those entries.
    """
    zero = [Fraction(0)] * n
    if kind == "full":
        alpha = -Fraction(rng.randint(0, 10**6), rng.randint(1, 10**3))
        return System(n, [(_zeros(n), zero, alpha)], None, (n,))
    if kind == "halfspace":
        a = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        a[rng.randrange(n)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2))
        return System(n, [(_zeros(n), a, Fraction(rng.randint(-3, 3)))], None, (n - 1, n))
    m = {
        "singleton": 0,
        "affine": rng.randint(1, n - 1),
        "cylinder": rng.randint(0, n - 1),
        "paraboloid": rng.randint(1, n - 1),
        "empty": rng.randint(0, n - 1),
    }[kind]
    D = [rng.randint(1, 3) for _ in range(n - m)] + [0] * m
    Q, Qi = _unimodular(rng, n)
    A = [
        [Fraction(sum(Q[k][r] * D[k] * Q[k][s] for k in range(n))) for s in range(n)]
        for r in range(n)
    ]
    x0 = [Fraction(rng.randint(-2, 2), 2) for _ in range(n)]
    Ax0 = [sum(A[r][s] * x0[s] for s in range(n)) for r in range(n)]
    base = sum(x0[r] * Ax0[r] for r in range(n))
    a = [-v for v in Ax0]
    rho = Fraction(rng.randint(1, 4), 2)
    if kind in ("singleton", "affine"):
        return System(n, [(A, a, base)], None, (m,))
    if kind == "cylinder":
        return System(n, [(A, a, base - rho)], None, (m, n))
    if kind == "empty":
        return System(n, [(A, a, base + rho)], None, None)
    k = n - m + rng.randrange(m)
    sign = rng.choice((-1, 1))
    a = [a[r] + sign * Qi[r][k] for r in range(n)]
    return System(n, [(A, a, Fraction(rng.randint(-3, 3)))], None, (m - 1, n))


def offset_balls(rng: random.Random, n: int, count: int = 2) -> System:
    """Intersection of balls |x - p|^2 <= |p|^2 + rho with p != 0.

    Each ball holds the origin strictly inside and is strictly convex, so
    every proper face is a point: signature {0, n}.  No ball is the unit
    ball, so the exact path's template match declines the block.
    """
    cons = []
    for _ in range(count):
        p = [Fraction(rng.randint(-2, 2), 2) for _ in range(n)]
        if not any(p):
            p[rng.randrange(n)] = Fraction(1, 2)
        A, _, _ = _diag(n, range(n))
        cons.append((A, [-e for e in p], -Fraction(rng.randint(1, 4), 2)))
    return System(n, cons, None, (0, n))


def ball_halfspace(rng: random.Random, n: int) -> System:
    """Unit ball cut by 2<w, x> <= k with k^2 < 4|w|^2: signature {0, n-1, n}.

    The plane misses the origin (k > 0) and lies within distance 1 of it, so
    the flat facet has dimension n-1 and every other boundary point,
    including the ridge, is an extreme point.
    """
    w = [rng.randint(-2, 2) for _ in range(n)]
    if not any(w):
        w[rng.randrange(n)] = 1
    k = rng.randint(1, math.isqrt(4 * sum(e * e for e in w) - 1))
    half = (_zeros(n), [Fraction(e) for e in w], Fraction(-k))
    return System(n, [_diag(n, range(n), alpha=-1), half], [0] * n, (0, n - 1, n))


# ---------------------------------------------------------------------------
# Workloads


def template_params() -> list[tuple[Fraction, Fraction]]:
    """Cylinder parameters (c, r) with denominator 40 whose template margins
    are positive: r^2 - c^2 - 1 > sqrt(2) c and r < 1 + c."""
    out = []
    for i in range(20, 33):
        for j in range(40, 80):
            c, r = Fraction(i, 40), Fraction(j, 40)
            excess = r * r - c * c - 1
            if excess > 0 and excess * excess - 2 * c * c > 0 and 1 + c - r > 0:
                out.append((c, r))
    return out


PARAMS = template_params()


def _subset(rng, lo, hi, density):
    return [e for e in range(lo + 1, hi) if rng.random() < density]


def _sized(rng, lo, hi, size):
    """{lo, hi} and size - 2 distinct elements strictly between them."""
    return tuple([lo] + sorted(rng.sample(range(lo + 1, hi), size - 2)) + [hi])


def interleave(jobs: list[Job], groups: list[list[Job]]) -> list[Job]:
    """jobs with each group inserted at evenly spaced positions."""
    out, step = [], len(jobs) / len(groups)
    for i, job in enumerate(jobs):
        out.append(job)
        for g in range(len(groups)):
            if int(g * step) == i:
                out += groups[g]
    return out


class Workload:
    """Seeded job stream: an optional prologue, then rounds of equal mix.

    Each round has the same job kinds and size classes, so the mix of a run
    does not depend on the seed.  Inputs never repeat within a run:
    decompose_min_cost is lru_cached, and CLI users pay for every call.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = random.Random(f"facetforge-bench:{name}:{seed}")
        self.dir = Path(workdir)
        self.seen: set = set()
        self.files = 0
        self.rounds = 0

    # -- helpers -----------------------------------------------------------

    def fresh(self, draw, key=None):
        """Call draw() until it yields an input not used before in this run;
        key(item) identifies an input when the item itself cannot."""
        for _ in range(1000):
            item = draw()
            k = key(item) if key else item
            if k not in self.seen:
                self.seen.add(k)
                return item
        raise RuntimeError("input space exhausted; widen the generator")

    def path(self, suffix: str) -> str:
        self.files += 1
        return str(self.dir / f"{self.name}-{self.files:05d}{suffix}")

    def write(self, text: str, suffix: str = ".json") -> str:
        p = self.path(suffix)
        Path(p).write_text(text)
        return p

    @staticmethod
    def text(sig) -> str:
        return ",".join(str(e) for e in sig)

    # -- job builders ------------------------------------------------------

    def chain(self, draw, fmt=None, decompose=False, note="") -> list[Job]:
        """construct --out, verify --expect, then export when fmt is given.

        The signature comes from draw(); the cylinder parameters are the
        default or, half of the time, another valid pair passed as --params.
        """
        def pick():
            params = self.rng.choice(PARAMS) if self.rng.random() < 0.5 else None
            return draw(), params

        sig, params = self.fresh(pick)
        text = self.text(sig)
        out = self.path(".json")
        argv = ["construct", "--signature", text, "--out", out]
        if params:
            argv += ["--params", f"{params[0]},{params[1]}"]
        if decompose:
            argv.append("--decompose")
            note = "decompose"
        count = len(sig) - 1
        jobs = [
            Job("construct", argv, sig, sig[-1], count, out=out, note=note),
            Job("verify_exact", ["verify", out, "--expect", text], sig, sig[-1], count,
                note=note),
        ]
        if fmt:
            jobs.append(Job("export", ["export", out, "--format", fmt], sig, sig[-1],
                            None if decompose else count, note=fmt))
        return jobs

    def probe_job(self, draw, samples: int, plain=False, note="") -> Job:
        """verify --probe, or plain verify, on a new system from draw()."""
        system = self.fresh(draw, System.to_json)
        f = self.write(system.to_json())
        seed = self.rng.randrange(1, 2**31)
        argv = ["verify", f, "--samples", str(samples), "--seed", str(seed)]
        if not plain:
            argv.insert(2, "--probe")
        return Job("verify" if plain else "probe", argv, system.truth, system.dim,
                   len(system.cons), samples, seed, note=note)

    def slice_job(self, draw, note="") -> Job:
        """Slice a new system from draw() through the origin, which every
        sliced system holds inside."""
        system = self.fresh(draw, System.to_json)
        f = self.write(system.to_json())
        n = system.dim
        i, j = self.rng.sample(range(n), 2)
        spec = {
            "base_point": [0.0] * n,
            "u": [float(k == i) for k in range(n)],
            "v": [float(k == j) for k in range(n)],
            "resolution": 48,
            "extent": 16.0,
        }
        sp = self.write(json.dumps(spec), ".spec.json")
        return Job("slice", ["slice", f, "--spec", sp, "--out", self.path(".csv")],
                   system.truth, n, note=note)

    def decompose_pair(self, mx: int, density: float) -> list[Job]:
        sig = self.fresh(lambda: tuple([0] + _subset(self.rng, 0, mx, density) + [mx]))
        text = self.text(sig)
        return [
            Job("decompose", ["decompose", "--signature", text], sig, mx,
                note=f"{mx}/{density}"),
            Job("lowerbound", ["lowerbound", "--signature", text], sig, mx),
        ]

    def permuted_template(self, n: int, size: int) -> System:
        """A template on a size-element signature within {0..n}, with its
        coordinates shuffled."""
        sig = _sized(self.rng, 0, n, size)
        return permuted(template(sig), self.rng.sample(range(n), n))

    def malformed(self) -> list[Job]:
        """Bad signature text and unreadable system JSON: each is malformed
        input and must exit 2."""
        text = f"0,x,{self.rng.randint(2, 99)}"
        bad = self.write(f'{{"dim": {self.rng.randint(2, 10**6)}, "constraints": [')
        return [
            Job("malformed", ["construct", "--signature", text, "--out", self.path(".json")],
                note="bad signature"),
            Job("malformed", ["verify", bad], note="unreadable json"),
        ]

    def minor_probe(self) -> Job:
        """verify --probe at 500 samples on a small template."""
        return self.probe_job(lambda: self.permuted_template(7, 3), 500, note="minor")

    def minor_chain(self) -> list[Job]:
        """A small construct/verify/export chain at n = 9 with one free
        coordinate."""
        return self.chain(lambda: _sized(self.rng, 1, 9, 4),
                          self.rng.choice(("socp", "sdpa")), note="minor")

    # -- rounds ------------------------------------------------------------

    def prologue(self) -> list[Job]:
        if self.name != "search":
            return []
        # Complete intervals, whose dyadic seed already meets the lower bound.
        # None reaches L = 20, where the search runs past the deadline: every
        # job of a workload must succeed.
        jobs = []
        for L in (10, 12, 13, 14, 15, 16):
            sig = tuple(range(L + 1))
            self.seen.add(sig)
            jobs.append(Job("decompose", ["decompose", "--signature", self.text(sig)],
                            sig, L, note=f"complete {L}"))
        return jobs

    def next_round(self) -> list[Job]:
        self.rounds += 1
        return getattr(self, "_round_" + self.name)()

    def _round_certify(self) -> list[Job]:
        rng, k = self.rng, self.rounds
        # Every slot fixes n (or cycles it with the round, not the seed) and
        # the signature's size, and draws the elements: the cost of a chain
        # depends mostly on n and size, so every seed gets the same mix.

        def complete(lengths, n_max=16):
            length = lengths[k % len(lengths)]
            return lambda: tuple(range(a := rng.randint(0, n_max - length), a + length + 1))

        def sized(n, size, mins=(0,)):
            m = mins[k % len(mins)]
            return lambda: _sized(rng, m, n, size)

        slots = [
            ("complete", complete((4, 5, 6, 7, 8))),
            ("complete", complete((9, 10, 11, 12))),
            ("complete", complete((13, 14, 15))),
            ("complete", complete((15, 14, 13))),
            ("sparse", sized(16, 4)),
            ("sparse", sized(12, 3)),
            ("dense", sized(10, 6)),
            ("min>0", sized(16, 5, (1, 2, 3, 4))),
            ("min>0", sized(14, 6, (1, 2, 3, 4))),
            # The n = 24 and 32 tail: two of the eleven chains.
            ("tail 24", sized(24, 4, (0, 1, 2, 3))),
            ("tail 32", sized(32, 4, (1, 2, 3, 4))),
        ]
        jobs = []
        for i, (note, draw) in enumerate(slots):
            jobs += self.chain(draw, ("socp", "sdpa")[(i + k) % 2], note=note)
        jobs += self.chain(sized(10, 7), decompose=True)
        jobs += self.malformed()
        # Minor share of the other job kinds, at small fixed sizes.
        # Decompose pairs are cheap, so they come in numbers that steady
        # their percentiles.
        minors = [[self.minor_probe()] + self.decompose_pair(12, 0.5)
                  + self.decompose_pair(14, 0.5) for _ in range(6)]
        minors += [[self.slice_job(lambda: self.permuted_template(8, 4), note="minor")]
                   + self.decompose_pair(12, 0.5) + self.decompose_pair(14, 0.5)
                   for _ in range(2)]
        return interleave(jobs, minors)

    def _round_probe(self) -> list[Job]:
        rng = self.rng
        # Three heavy probes of similar cost make a sixth of the probe-path
        # jobs, so the p90 falls inside one group rather than on the edge
        # between two.
        jobs = [
            self.probe_job(lambda: self.permuted_template(10, 11), PROBE_SMALL, note="0..10"),
            self.probe_job(lambda: self.permuted_template(12, 13), PROBE_SMALL, note="0..12"),
            self.probe_job(lambda: self.permuted_template(7, 5), PROBE_LARGE, note="within 0..7"),
            self.probe_job(lambda: self.permuted_template(7, 4), PROBE_SMALL, note="within 0..7"),
            self.probe_job(lambda: self.permuted_template(7, 6), PROBE_SMALL, note="within 0..7"),
            self.probe_job(lambda: direct_sum(self.permuted_template(5, 3),
                                      self.permuted_template(5, 4)), PROBE_SMALL,
                           note="sum"),
        ]
        for kind, n in zip(QUADRATIC_CLASSES, (8, 7, 4, 6, 6, 5, 5)):
            jobs.append(self.probe_job(lambda: single_quadratic(rng, n, kind), PROBE_SMALL,
                                       note=kind))
        # Plain verify on blocks the exact path declines; it falls back to
        # the probe.
        jobs.append(self.probe_job(lambda: offset_balls(rng, 4), PROBE_SMALL, plain=True,
                                   note="offset balls"))
        jobs.append(self.probe_job(lambda: ball_halfspace(rng, 5), PROBE_SMALL, plain=True,
                                   note="ball and halfspace"))
        jobs.append(self.probe_job(lambda: direct_sum(ball_halfspace(rng, 3),
                                              self.permuted_template(4, 3)),
                                   PROBE_SMALL, plain=True, note="sum"))
        for _ in range(6):
            jobs.append(self.slice_job(lambda: self.permuted_template(6, 4)))
            jobs.append(self.slice_job(lambda: offset_balls(rng, 3)))
        # Minor share of the other job kinds, spread through the round.
        minors = [self.minor_chain() + self.decompose_pair(12, 0.5) + self.decompose_pair(14, 0.5)
                  + self.decompose_pair(12, 0.5) + self.decompose_pair(14, 0.5)
                  for _ in range(16)]
        return interleave(jobs, minors)

    def _round_search(self) -> list[Job]:
        jobs = []
        # Dense random signatures up to the default cap 24.  These densities
        # keep the exponential search's tail short enough for steady
        # percentiles; the complete intervals are in the prologue.
        for _ in range(8):
            for mx, density in ((14, 0.6), (16, 0.5), (16, 0.6), (20, 0.4),
                                (20, 0.5), (24, 0.4)):
                jobs += self.decompose_pair(mx, density)
        # Minor share of the other job kinds, spread through the round.
        return interleave(jobs, [
            *(self.minor_chain() for _ in range(4)),
            [self.minor_probe()],
            [self.minor_probe()],
            [self.slice_job(lambda: self.permuted_template(8, 4), note="minor")],
        ])


WORKLOADS = ("certify", "probe", "search")


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Verdict:
    """ok, or fail (a crash, a refused or missing answer), or wrong (an
    answer that contradicts the expected one)."""

    status: str
    reason: str = ""
    result: tuple[int, ...] | None = None
    bucket: str | None = None
    found: int = 0  # probe path: |found & true| and |true|
    true: int = 0


def _fail(reason, bucket=None):
    return Verdict("fail", reason, bucket=bucket)


def _wrong(reason, bucket=None, result=None):
    return Verdict("wrong", reason, result, bucket)


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def nominal_bucket(job: Job) -> str | None:
    """The latency bucket of a job whose answer is unknown."""
    if job.kind in ("probe", "verify"):
        return "verify_probe"
    if job.kind in ("lowerbound", "malformed"):
        return None
    return job.kind


def check(job: Job, code: int, stdout: str) -> Verdict:
    """Judge one finished job from its exit code and output."""
    kind = job.kind
    if kind == "malformed":
        if code == 2:
            return Verdict("ok")
        return _fail(f"malformed input gave exit {code}, expected 2")
    bucket = nominal_bucket(job)
    if code != 0:
        if kind == "verify_exact" and code == 1:
            return _wrong("verify --expect reported a mismatch", bucket)
        return _fail(f"exit {code}", bucket)
    return globals()["_check_" + kind](job, stdout, bucket)


def _check_construct(job, stdout, bucket):
    data = _json(Path(job.out).read_text()) if Path(job.out).exists() else None
    if not isinstance(data, dict):
        return _fail("no system file written", bucket)
    count = len(data.get("constraints", []))
    if data.get("dim") != job.dim:
        return _wrong(f"dim {data.get('dim')} != {job.dim}", bucket)
    if job.note == "decompose" and not 1 <= count <= job.count:
        return _wrong(f"{count} inequalities, direct build needs {job.count}", bucket)
    if job.note != "decompose" and count != job.count:
        return _wrong(f"{count} inequalities != |I| - 1 = {job.count}", bucket)
    if not Path(job.out).with_suffix(".plan.json").exists():
        return _fail("no plan file written", bucket)
    return Verdict("ok", bucket=bucket)


def _report(stdout, bucket):
    data = _json(stdout)
    if not isinstance(data, dict):
        return None, _fail("report is not JSON", bucket)
    return data, None


def _check_verify_exact(job, stdout, bucket):
    data, bad = _report(stdout, bucket)
    if bad:
        return bad
    sig = tuple(data.get("signature") or ())
    if data.get("method") != "exact":
        bucket = "verify_probe"
    if sig != job.truth:
        return _wrong(f"signature {sig} != {job.truth}", bucket, sig)
    witnesses = data.get("witnesses", {})
    if sorted(int(k) for k in witnesses) != list(job.truth):
        return _wrong("witnesses do not match the dimensions one to one", bucket, sig)
    if any(len(p) != job.dim for p in witnesses.values()):
        return _wrong("a witness has the wrong length", bucket, sig)
    return Verdict("ok", result=sig, bucket=bucket)


def _check_probe(job, stdout, bucket):
    """The probe may underclaim but never overclaim."""
    data, bad = _report(stdout, bucket)
    if bad:
        return bad
    if job.truth is None:
        if data.get("infeasible") is True:
            return Verdict("ok", bucket=bucket)
        return _wrong("empty set not reported infeasible", bucket)
    sig = tuple(data.get("signature") or ())
    if job.kind == "verify" and data.get("method") == "exact":
        bucket = "verify_exact"
        if sig != job.truth:
            return _wrong(f"exact signature {sig} != {job.truth}", bucket, sig)
    extra = set(sig) - set(job.truth)
    if not sig or extra:
        return _wrong(f"overclaimed {sorted(extra)} beyond {job.truth}", bucket, sig)
    if set(int(k) for k in data.get("witnesses", {})) != set(sig):
        return _wrong("witnesses do not match the dimensions", bucket, sig)
    return Verdict("ok", result=sig, bucket=bucket, found=len(sig), true=len(job.truth))


_check_verify = _check_probe


def _check_export(job, stdout, bucket):
    if job.note == "socp":
        data = _json(stdout)
        if not isinstance(data, dict):
            return _fail("SOCP output is not JSON", bucket)
        dim, count = data.get("dim"), len(data.get("cones", []))
    else:
        head = [line.split()[0] for line in stdout.splitlines()[:2] if line.strip()]
        if len(head) < 2:
            return _fail("SDPA output has no header", bucket)
        dim, count = int(head[0]), int(head[1])
    if dim != job.dim or (job.count is not None and count != job.count):
        return _wrong(f"header says dim {dim}, {count} blocks; expected "
                      f"{job.dim}, {job.count}", bucket)
    return Verdict("ok", bucket=bucket)


def _check_slice(job, stdout, bucket):
    out = Path(job.argv[-1])
    rows = out.read_text().splitlines() if out.exists() else []
    if len(rows) < 2:
        return _fail("slice CSV has no rows", bucket)
    if any(len(r.split(",")) != 3 + job.dim for r in rows):
        return _wrong("slice CSV rows have the wrong width", bucket)
    return Verdict("ok", bucket=bucket)


def _check_decompose(job, stdout, bucket):
    data = _json(stdout)
    if not isinstance(data, dict):
        return _fail("decompose output is not JSON", bucket)

    def leaves(node):
        if "leaf" in node:
            return [tuple(node["leaf"])]
        return [leaf for part in node["sum"] for leaf in leaves(part)]

    parts = leaves(data["tree"])
    total = (0,)
    for leaf in parts:
        total = sumset(total, leaf)
    cost = sum(len(leaf) - 1 for leaf in parts)
    if total != job.truth:
        return _wrong(f"leaves sum to {total}, not {job.truth}", bucket, total)
    if data.get("cost") != cost or data.get("leaf_count") != len(parts):
        return _wrong("cost or leaf count disagrees with the tree", bucket, total)
    if cost > len(job.truth) - 1:
        return _wrong("costlier than the direct template", bucket, total)
    return Verdict("ok", result=total, bucket=bucket)


def _check_lowerbound(job, stdout, bucket):
    """Re-check the certificate's claim: the intervals
    [max(0, d_1 + ... + d_m - (m-1)n), d_m] and {n} cover the signature."""
    first, _, rest = stdout.partition("\n")
    cert = _json(rest)
    if not isinstance(cert, dict) or not first.strip().isdigit():
        return _fail("lowerbound output is malformed", None)
    n, ds, k = cert.get("n"), list(cert.get("ds", [])), cert.get("k")
    sig = job.truth
    if n != sig[-1] or k != len(ds) or int(first) != k:
        return _wrong("certificate header disagrees", None)
    if any(not 0 <= d <= n - 1 for d in ds) or ds != sorted(ds, reverse=True):
        return _wrong("certificate entries out of order or range", None)
    covered, total = {n}, 0
    for m, d in enumerate(ds, start=1):
        total += d
        covered.update(range(max(0, total - (m - 1) * n), d + 1))
    if not set(sig) <= covered or k > len(sig) - 1:
        return _wrong("certificate does not cover the signature", None)
    return Verdict("ok", result=sig)
