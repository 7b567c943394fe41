"""Serialization and export: exact JSON, SOCP data, SDPA files, 2D slices.

Exact rational JSON is the source of truth and round-trips losslessly; the
conic exports and slice figures are numeric with documented tolerances.

Every JSON payload is written by `dumps` with a 2-space indent, sorted keys
and ASCII escapes: byte for byte what `json.dumps(data, indent=2,
sort_keys=True)` writes, plus a final newline.  A system's matrices are
written from their nonzero rows, every other entry the string "0".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructor import ConstructionParams, RealizationPlan
from .quadratics import ConvexQuadratic, QuadraticSystem
from .signatures import (
    Leaf,
    LowerBoundCertificate,
    Signature,
    Sum,
    tree_cost,
)
from .verifier import (
    Confidence,
    NoInteriorFound,
    VerificationReport,
    _float_interior,
    _FloatSystem,
)

EIGENVALUE_CLIP = 1e-12


def rational_to_json(x: Fraction) -> str:
    return str(x) if type(x) is Fraction else str(Fraction(x))


def rational_from_json(text) -> Fraction:
    if isinstance(text, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(text, (int, str)):
        return Fraction(text)
    raise ValueError(f"expected a rational as 'p/q' string or integer: {text!r}")


def _vec_to_json(vec) -> list[str]:
    return [rational_to_json(e) for e in vec]


def _vec_from_json(data, field: str) -> tuple[Fraction, ...]:
    if not isinstance(data, list):
        raise ValueError(f"{field} must be a list of rationals")
    return tuple(rational_from_json(e) for e in data)


def quadratic_to_json(q: ConvexQuadratic) -> dict:
    zeros = ["0"] * q.dim
    A = [zeros.copy() for _ in zeros]
    for i, row in q.A.items():
        out = A[i]
        for j, e in row.items():
            out[j] = str(e)
    return {
        "A": A,
        "a": _vec_to_json(q.a),
        "alpha": rational_to_json(q.alpha),
    }


def quadratic_from_json(data: dict) -> ConvexQuadratic:
    if not isinstance(data, dict) or set(data) != {"A", "a", "alpha"}:
        raise ValueError("constraint must be an object with exactly the keys A, a, alpha")
    if not isinstance(data["A"], list):
        raise ValueError("A must be a list of rows")
    return ConvexQuadratic(
        A=tuple(_vec_from_json(row, "each row of A") for row in data["A"]),
        a=_vec_from_json(data["a"], "a"),
        alpha=rational_from_json(data["alpha"]),
    )


def system_to_json(s: QuadraticSystem) -> dict:
    return {
        "dim": s.dim,
        "constraints": [quadratic_to_json(q) for q in s.constraints],
        "interior_witness": None
        if s.interior_witness is None
        else _vec_to_json(s.interior_witness),
    }


def system_from_json(data: dict) -> QuadraticSystem:
    if not isinstance(data, dict) or "dim" not in data or "constraints" not in data:
        raise ValueError("system must be an object with keys dim, constraints")
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer: {dim!r}")
    if not isinstance(data["constraints"], list):
        raise ValueError("constraints must be a list")
    witness = data.get("interior_witness")
    return QuadraticSystem(
        dim=dim,
        constraints=tuple(quadratic_from_json(c) for c in data["constraints"]),
        interior_witness=None
        if witness is None
        else _vec_from_json(witness, "interior_witness"),
    )


def signature_to_json(sig: Signature) -> list[int]:
    return list(sig.elements)


parse_signature_text = Signature.from_string


def tree_to_json(tree) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": signature_to_json(tree.signature)}
    return {"sum": [tree_to_json(p) for p in tree.parts]}


def tree_from_json(data: dict):
    if not isinstance(data, dict):
        raise ValueError("tree node must be an object")
    if "leaf" in data:
        return Leaf(Signature.of(*data["leaf"]))
    if "sum" in data:
        return Sum(tuple(tree_from_json(p) for p in data["sum"]))
    raise ValueError("tree node needs a 'leaf' or 'sum' key")


def plan_to_json(plan: RealizationPlan) -> dict:
    return {
        "tree": tree_to_json(plan.tree),
        "shift": plan.shift,
        "params": {
            "c": rational_to_json(plan.params.c),
            "r": rational_to_json(plan.params.r),
        },
        "total_inequalities": plan.total_inequalities,
    }


def plan_from_json(data: dict) -> RealizationPlan:
    params = data["params"]
    return RealizationPlan(
        tree=tree_from_json(data["tree"]),
        shift=int(data["shift"]),
        params=ConstructionParams(
            c=rational_from_json(params["c"]), r=rational_from_json(params["r"])
        ),
        total_inequalities=int(data["total_inequalities"]),
    )


def certificate_to_json(cert: LowerBoundCertificate) -> dict:
    return {"n": cert.n, "ds": list(cert.ds), "k": cert.k}


def certificate_from_json(data: dict) -> LowerBoundCertificate:
    return LowerBoundCertificate(n=int(data["n"]), ds=tuple(data["ds"]))


def report_to_json(report: VerificationReport) -> dict:
    witnesses = {}
    for dim, point in sorted(report.witnesses.items()):
        witnesses[str(dim)] = [
            rational_to_json(e) if isinstance(e, (Fraction, int)) else float(e)
            for e in point
        ]
    conf = {"kind": report.confidence.kind}
    if report.confidence.samples is not None:
        conf["samples"] = report.confidence.samples
    if report.confidence.tolerance is not None:
        conf["tolerance"] = report.confidence.tolerance
    return {
        "signature": signature_to_json(report.signature),
        "method": report.method,
        "confidence": conf,
        "witnesses": witnesses,
        "warnings": list(report.warnings),
    }


def report_from_json(data: dict) -> VerificationReport:
    conf = data["confidence"]
    witnesses = {}
    for key, point in data["witnesses"].items():
        witnesses[int(key)] = tuple(
            rational_from_json(e) if isinstance(e, (str, int)) else float(e)
            for e in point
        )
    return VerificationReport(
        signature=Signature.of(*data["signature"]),
        method=data["method"],
        confidence=Confidence(
            kind=conf["kind"],
            samples=conf.get("samples"),
            tolerance=conf.get("tolerance"),
        ),
        witnesses=witnesses,
        warnings=tuple(data.get("warnings", ())),
    )


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


# Text of every item of a list whose items all have this exact type; floats
# qualify only when all are finite.
_LEAF_TEXT = {str: _quote, int: int.__repr__, float: float.__repr__}


def _scalar_text(o) -> str | None:
    """json's text for a str, None, bool, int or float (subclasses too);
    None for anything else."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _write(o, indent: str, out: list[str]) -> None:
    """Append json's text of o to out; indent is a newline and o's indent."""
    text = _scalar_text(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[" + inner)
        kinds = set(map(type, o))
        leaf = _LEAF_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf is float.__repr__ and not all(map(math.isfinite, o)):
            leaf = None
        if leaf is not None:
            out.append(("," + inner).join(map(leaf, o)))
        else:
            for k, item in enumerate(o):
                if k:
                    out.append("," + inner)
                _write(item, inner, out)
        out.append(indent + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{" + inner)
        for k, (key, value) in enumerate(sorted(o.items())):
            if not isinstance(key, str):
                text = _scalar_text(key)
                if text is None:
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = text
            if k:
                out.append("," + inner)
            out.append(_quote(key) + ": ")
            _write(value, inner, out)
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(data) -> str:
    """What json.dumps(data, indent=2, sort_keys=True) writes, byte for
    byte, plus a final newline.

    Items of a list that all share the exact type str, int or finite float
    are written in one join.
    """
    out: list[str] = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Second-order cone export


@dataclass(frozen=True)
class ConeConstraint:
    """One quadratic as ||L x + p||^2 + 2 <b, x> + gamma <= 0."""

    L: np.ndarray
    p: np.ndarray
    b: np.ndarray
    gamma: float

    def evaluate(self, x: np.ndarray) -> float:
        r = self.L @ x + self.p
        return float(r @ r + 2.0 * self.b @ x + self.gamma)


@dataclass(frozen=True)
class SocpForm:
    dim: int
    cones: tuple[ConeConstraint, ...]


def export_socp(s: QuadraticSystem) -> SocpForm:
    """Numeric factorization A = L^T L per constraint.

    Eigenvalues below 1e-12 are clamped to zero, so L has one row per
    significantly positive eigenvalue; p solves L^T p = (range component of
    a) and b carries the remaining null component.
    """
    cones = []
    fs = _FloatSystem.from_system(s)
    for k, (a, alpha) in enumerate(zip(fs.a, fs.alpha)):
        w, V = np.linalg.eigh(fs.matrix(k))
        keep = w > EIGENVALUE_CLIP
        L = (np.sqrt(w[keep])[:, None] * V[:, keep].T) if keep.any() else np.zeros(
            (0, s.dim)
        )
        if len(L):
            p, *_ = np.linalg.lstsq(L.T, a, rcond=None)
        else:
            p = np.zeros(0)
        b = a - L.T @ p
        gamma = float(alpha) - float(p @ p)
        cones.append(ConeConstraint(L=L, p=p, b=b, gamma=gamma))
    return SocpForm(dim=s.dim, cones=tuple(cones))


def socp_to_json(form: SocpForm) -> dict:
    return {
        "dim": form.dim,
        "cones": [
            {
                "L": [list(map(float, row)) for row in cone.L],
                "p": list(map(float, cone.p)),
                "b": list(map(float, cone.b)),
                "gamma": cone.gamma,
            }
            for cone in form.cones
        ],
    }


# ---------------------------------------------------------------------------
# SDPA sparse export


def export_sdpa(s: QuadraticSystem) -> str:
    """SDPA sparse text: one Schur-complement LMI block per quadratic.

    Each constraint becomes M(x) = [[I, Lx+p], [(Lx+p)^T, -2<b,x>-gamma]]
    which is positive semidefinite exactly on the quadratic's solution set;
    the file encodes sum_i x_i F_i - F0 >= 0 with F_i holding the linear
    part and F0 = -M(0).
    """
    form = export_socp(s)
    sizes = [len(cone.L) + 1 for cone in form.cones]
    # Placeholder "0" keeps the header at four nonblank lines even for the
    # zero-block or zero-variable file.
    lines = [
        f"{s.dim}",
        f"{len(sizes)}",
        " ".join(str(z) for z in sizes) if sizes else "0",
        " ".join("0" for _ in range(s.dim)) if s.dim else "0",
    ]

    def emit(mat_no: int, blk_no: int, i: int, j: int, value: float):
        if value != 0.0:
            lines.append(f"{mat_no} {blk_no} {i} {j} {value!r}")

    for blk_no, cone in enumerate(form.cones, start=1):
        k = len(cone.L)
        corner = k + 1
        # F0 = -M(0) with M(0) = [[I, p], [p^T, -gamma]].
        for i in range(1, k + 1):
            emit(0, blk_no, i, i, -1.0)
            emit(0, blk_no, i, corner, -float(cone.p[i - 1]))
        emit(0, blk_no, corner, corner, float(cone.gamma))
        for var in range(1, s.dim + 1):
            col = cone.L[:, var - 1] if k else np.zeros(0)
            for i in range(1, k + 1):
                emit(var, blk_no, i, corner, float(col[i - 1]))
            emit(var, blk_no, corner, corner, -2.0 * float(cone.b[var - 1]))
    return "\n".join(lines) + "\n"


def parse_sdpa(text: str) -> dict:
    """Header and entries of an SDPA sparse file.

    Returns {"nvars", "block_sizes", "entries"} with entries as
    (mat_no, blk_no, i, j, value) tuples; block sizes observed in entries
    are validated against the declared header.
    """
    rows = [
        line
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith(('"', "*"))
    ]
    if len(rows) < 3:
        raise ValueError("truncated SDPA file")
    nvars = int(rows[0].split()[0])
    nblocks = int(rows[1].split()[0])
    sizes = [abs(int(tok)) for tok in rows[2].split()] if nblocks else []
    if len(sizes) != nblocks:
        raise ValueError("block size line disagrees with block count")
    entries = []
    for line in rows[4:]:
        toks = line.replace(",", " ").split()
        mat_no, blk_no, i, j = (int(t) for t in toks[:4])
        value = float(toks[4])
        if not 0 <= mat_no <= nvars:
            raise ValueError(f"matrix index {mat_no} out of range")
        if not 1 <= blk_no <= nblocks:
            raise ValueError(f"block index {blk_no} out of range")
        if not (1 <= i <= sizes[blk_no - 1] and 1 <= j <= sizes[blk_no - 1]):
            raise ValueError(f"entry ({i},{j}) exceeds block size")
        entries.append((mat_no, blk_no, i, j, value))
    return {"nvars": nvars, "block_sizes": sizes, "entries": entries}


# ---------------------------------------------------------------------------
# 2D slices


class EmptySlice(RuntimeError):
    """The slice plane does not meet the set's interior."""


@dataclass(frozen=True)
class SliceSpec:
    base_point: tuple[float, ...]
    u: tuple[float, ...]
    v: tuple[float, ...]
    resolution: int = 64
    extent: float = 16.0

    def __post_init__(self):
        base = tuple(float(e) for e in self.base_point)
        uu = tuple(float(e) for e in self.u)
        vv = tuple(float(e) for e in self.v)
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "u", uu)
        object.__setattr__(self, "v", vv)
        un, vn = np.array(uu), np.array(vv)
        if not (len(base) == len(uu) == len(vv)):
            raise ValueError("base point and plane directions disagree in length")
        if abs(np.linalg.norm(un) - 1.0) > 1e-12 or abs(np.linalg.norm(vn) - 1.0) > 1e-12:
            raise ValueError("plane directions must be unit vectors")
        if abs(float(un @ vn)) > 1e-12:
            raise ValueError("plane directions must be orthogonal within 1e-12")
        if self.resolution < 8:
            raise ValueError("resolution must be at least 8")
        if not self.extent > 0:
            raise ValueError("extent must be positive")


def _is_json_number(x) -> bool:
    """A finite JSON number: an int or float, not a bool, NaN or infinity."""
    return type(x) in (int, float) and math.isfinite(x)


def slice_spec_from_json(data: dict) -> SliceSpec:
    fields = {}
    for field in ("base_point", "u", "v"):
        vec = data[field]
        if not isinstance(vec, list) or not all(map(_is_json_number, vec)):
            raise ValueError(f"{field} must be a list of numbers: {vec!r}")
        fields[field] = tuple(vec)
    resolution = data.get("resolution", 64)
    if type(resolution) is not int:
        raise ValueError(f"resolution must be an integer: {resolution!r}")
    extent = data.get("extent", 16.0)
    if not _is_json_number(extent):
        raise ValueError(f"extent must be a number: {extent!r}")
    return SliceSpec(**fields, resolution=resolution, extent=float(extent))


def slice_boundary(s: QuadraticSystem, spec: SliceSpec):
    """Boundary samples of the slice: (thetas, st pairs, ambient points).

    The system is restricted to the plane, an interior point of the
    restriction is the center, and one ray per angle leaves it through
    _FloatSystem.ray_exit, whose hit points are the st pairs.  A ray is
    kept iff it exits within spec.extent of the center, so unbounded slices
    come back as partial polylines.
    """
    if len(spec.base_point) != s.dim:
        raise ValueError("slice base point dimension mismatch")
    base = np.array(spec.base_point)
    U = np.array([spec.u, spec.v])
    plane = _FloatSystem.from_system(s).restrict(base, U)
    try:
        center = _float_interior(plane)
    except NoInteriorFound as exc:
        raise EmptySlice("no strictly feasible point found in the slice plane") from exc

    thetas = 2.0 * np.pi * np.arange(spec.resolution) / spec.resolution
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    t, st_rows, _ = plane.ray_exit(center, dirs)
    keep = t <= spec.extent
    if not keep.any():
        raise EmptySlice("every ray stayed feasible out to the extent")
    st_rows = st_rows[keep]
    points = base + st_rows @ U
    return list(thetas[keep]), list(st_rows), list(points)


def emit_slice_csv(s: QuadraticSystem, spec: SliceSpec) -> str:
    thetas, st_rows, points = slice_boundary(s, spec)
    header = ["theta", "s", "t"] + [f"x{i + 1}" for i in range(s.dim)]
    lines = [",".join(header)]
    for theta, st, x in zip(thetas, st_rows, points):
        row = [f"{theta:.12g}", f"{st[0]:.12g}", f"{st[1]:.12g}"]
        row += [f"{coord:.12g}" for coord in x]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_slice_svg(s: QuadraticSystem, spec: SliceSpec, size: int = 480) -> str:
    _, st_rows, _ = slice_boundary(s, spec)
    pts = np.array(st_rows)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span

    def cx(val: float) -> float:
        return (val - lo[0] + pad) / (span + 2 * pad) * size

    def cy(val: float) -> float:
        return size - (val - lo[1] + pad) / (span + 2 * pad) * size

    path = " ".join(
        f"{'M' if i == 0 else 'L'} {cx(p[0]):.3f} {cy(p[1]):.3f}"
        for i, p in enumerate(pts)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f'  <path d="{path} Z" fill="none" stroke="black" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def emit_slice(s: QuadraticSystem, spec: SliceSpec, fmt: str) -> str:
    if fmt == "csv":
        return emit_slice_csv(s, spec)
    if fmt == "svg":
        return emit_slice_svg(s, spec)
    raise ValueError(f"unknown slice format: {fmt}")
