"""Command-line front end.

Exit codes: 2 for malformed input, 1 for a verification mismatch when
--expect is passed, 0 otherwise.  The probe seed defaults to 42 and can be
overridden by the FACETFORGE_SEED environment variable or --seed, each a
non-negative integer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import formats
from .constructor import ConstructionParams, realize
from .formats import parse_signature_text
from .signatures import (
    DecompositionCapExceeded,
    Signature,
    decompose_min_cost,
    lower_bound,
    tree_cost,
    tree_leaves,
)
from .verifier import (
    DEFAULT_SEED,
    InfeasibleSystem,
    NoInteriorFound,
    UnrecognizedStructure,
    VerificationReport,
    exact_signature,
    probe_signature,
)


class _InputError(Exception):
    """Bad file contents or inconsistent arguments; maps to exit code 2."""


def _parse_params(text: str) -> ConstructionParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise _InputError("--params expects 'c,r' with two rationals")
    try:
        return ConstructionParams(
            c=formats.rational_from_json(parts[0].strip()),
            r=formats.rational_from_json(parts[1].strip()),
        )
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise _InputError(f"bad --params: {exc}") from exc


def _load_system(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return formats.system_from_json(data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _InputError(f"{path} is not a valid system: {exc}") from exc


def _parse_signature(text: str) -> Signature:
    try:
        return parse_signature_text(text)
    except ValueError as exc:
        raise _InputError(f"bad signature {text!r}: {exc}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _write_or_print(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_construct(args) -> int:
    sig = _parse_signature(args.signature)
    params = _parse_params(args.params) if args.params else None
    try:
        result = realize(
            sig,
            params=params,
            use_decomposition=args.decompose,
            budget=args.budget,
        )
    except (ValueError, DecompositionCapExceeded) as exc:
        raise _InputError(str(exc)) from exc
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    system_text = formats.dumps(formats.system_to_json(result.system))
    plan_text = formats.dumps(formats.plan_to_json(result.plan))
    if args.out is None:
        sys.stdout.write(system_text)
        return 0
    Path(args.out).write_text(system_text)
    plan_path = Path(args.out).with_suffix(".plan.json")
    plan_path.write_text(plan_text)
    print(
        f"wrote {args.out} ({result.plan.total_inequalities} inequalities in "
        f"dimension {result.system.dim}) and {plan_path}"
    )
    return 0


def _cmd_verify(args) -> int:
    system = _load_system(args.system)
    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("FACETFORGE_SEED")
        try:
            seed = DEFAULT_SEED if env_seed is None else _non_negative_int(env_seed)
        except argparse.ArgumentTypeError as exc:
            raise _InputError(f"bad FACETFORGE_SEED: {exc}") from exc

    report: VerificationReport | None = None
    infeasible = False
    try:
        if args.probe:
            report = probe_signature(system, samples=args.samples, seed=seed)
        else:
            try:
                report = exact_signature(system)
            except UnrecognizedStructure as exc:
                fallback = probe_signature(system, samples=args.samples, seed=seed)
                report = dataclasses.replace(
                    fallback,
                    warnings=(f"exact path declined: {exc}",) + fallback.warnings,
                )
    except InfeasibleSystem:
        infeasible = True
    except NoInteriorFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if infeasible:
        sys.stdout.write(formats.dumps({"infeasible": True, "signature": None}))
        if args.expect is not None:
            print("mismatch: system is infeasible", file=sys.stderr)
            return 1
        return 0

    sys.stdout.write(formats.dumps(formats.report_to_json(report)))
    if args.expect is not None:
        expected = _parse_signature(args.expect)
        if expected != report.signature:
            print(
                f"mismatch: expected {expected}, verified {report.signature}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_lowerbound(args) -> int:
    sig = _parse_signature(args.signature)
    cert = lower_bound(sig)
    print(cert.k)
    sys.stdout.write(formats.dumps(formats.certificate_to_json(cert)))
    return 0


def _cmd_decompose(args) -> int:
    sig = _parse_signature(args.signature)
    try:
        tree = decompose_min_cost(sig, budget=args.budget)
    except (ValueError, DecompositionCapExceeded) as exc:
        raise _InputError(str(exc)) from exc
    payload = {
        "tree": formats.tree_to_json(tree),
        "cost": tree_cost(tree),
        "leaf_count": len(tree_leaves(tree)),
    }
    sys.stdout.write(formats.dumps(payload))
    return 0


def _cmd_export(args) -> int:
    system = _load_system(args.system)
    if args.format == "socp":
        text = formats.dumps(formats.socp_to_json(formats.export_socp(system)))
    else:
        text = formats.export_sdpa(system)
    _write_or_print(text, args.out)
    return 0


def _cmd_slice(args) -> int:
    system = _load_system(args.system)
    try:
        spec_data = json.loads(Path(args.spec).read_text())
        spec = formats.slice_spec_from_json(spec_data)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"bad slice spec: {exc}") from exc
    fmt = "svg" if args.out and args.out.endswith(".svg") else "csv"
    try:
        text = formats.emit_slice(system, spec, fmt)
    except formats.EmptySlice as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_or_print(text, args.out)
    return 0


# The experiment searches {0, p_1, ..., p_k} past the default decomposition
# cap; k = 20 ends at p_20 = 71.
PRIMES_MAX_K = 20


def _first_primes(k: int) -> list[int]:
    out: list[int] = []
    candidate = 2
    while len(out) < k:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


def _cmd_experiment(args) -> int:
    if args.name != "primes":
        raise _InputError(f"unknown experiment {args.name!r}")
    if not 1 <= args.k <= PRIMES_MAX_K:
        raise _InputError(f"--k must lie in 1..{PRIMES_MAX_K}")
    sig = Signature.of(0, *_first_primes(args.k))
    direct = realize(sig, use_decomposition=False)
    decomposed = realize(sig, use_decomposition=True, budget=max(sig.max, 24))
    cert = lower_bound(sig)
    print(f"signature: {sig}")
    print(f"direct construction cost: {direct.plan.total_inequalities} "
          f"inequalities (k = {args.k})")
    print(f"cheapest decomposition found: "
          f"{decomposed.plan.total_inequalities} inequalities")
    print(f"certified lower bound: {cert.k}")
    print("note: counts above are constructions and a certified floor; "
          "no minimality is asserted")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetforge",
        description="Construct and verify convex quadratic systems with "
        "prescribed facial dimension signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a system with a given signature")
    p.add_argument("--signature", required=True, help="e.g. 0,2,3")
    p.add_argument("--params", help="cylinder parameters as 'c,r'")
    p.add_argument("--decompose", action="store_true", help="search for a "
                   "cheaper sumset decomposition first")
    p.add_argument("--budget", type=int, help="decomposition search cap")
    p.add_argument("--out", help="output system path (plan goes beside it)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify the signature of a system file")
    p.add_argument("system", help="system JSON path")
    p.add_argument("--probe", action="store_true", help="force the sampling path")
    p.add_argument("--samples", type=_positive_int, default=10000,
                   help="rays per probed block (default 10000)")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--expect", help="signature to compare against, e.g. 0,2,3")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lowerbound", help="certified minimum constraint count")
    p.add_argument("--signature", required=True)
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("decompose", help="minimum-cost sumset decomposition")
    p.add_argument("--signature", required=True)
    p.add_argument("--budget", type=int, help="search cap on the max element")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("export", help="emit SOCP data or an SDPA file")
    p.add_argument("system", help="system JSON path")
    p.add_argument("--format", choices=("socp", "sdpa"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("slice", help="emit a 2D boundary slice as CSV or SVG")
    p.add_argument("system", help="system JSON path")
    p.add_argument("--spec", required=True, help="slice spec JSON path")
    p.add_argument("--out", help="output path; .svg selects SVG, else CSV")
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("experiment", help="bundled experiments")
    p.add_argument("name", help="experiment name (primes)")
    p.add_argument("--k", type=int, default=4,
                   help=f"number of primes, 1..{PRIMES_MAX_K} (default 4)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # Only input rationals beyond the float range reach float().
        print(f"error: an input value is beyond the float range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
