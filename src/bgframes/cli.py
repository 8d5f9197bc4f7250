"""Command-line front end: ``bgf``.

Loads frame systems from JSON interchange files, runs classification,
duals, reconstruction, lifting, coefficient-identity checks, and seeded
generation. Machine-readable reports go to stdout and are byte-identical
across runs for the same inputs and flags; diagnostics and wall time go to
stderr.

Exit codes:
    0  verdict true / success
    1  verdict false (a mathematically valid negative)
    2  input, schema, or shape error
    3  numerical failure
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .bigframes import (
    BiGFrameSystem,
    canonical_pair,
    classify_bi_g_frame,
    coefficient_identity_terms,
    lift_to_biframe,
    reconstruct,
    solve_synthesis_coefficients,
)
from .errors import FrameToolError, NotBiGFrame, SchemaError
from .fileio import (
    FrameFile,
    dumps_json,
    load_frame_file,
    load_matrix,
    save_frame_file,
    sha256_of_file,
)
from .frames import classify_biframe
from .generators import (
    KIND_NON_HERMITIAN,
    KIND_PRESCRIBED,
    KIND_RANDOM,
    KIND_RANK_DEFICIENT,
    GenSpec,
    gen_bi_g_frame,
    gen_g_frame,
    gen_negative,
)
from .gframes import CoefficientSequence, classify_g_frame
from .kernel import DEFAULT_TOL

_TOL_ENV = "BGF_TOL"
_IDENTITY_SEED = 0


def _positive_finite(value: float, message: str) -> float:
    if not (value > 0.0 and np.isfinite(value)):
        raise SchemaError(message)
    return value


def _tol(args) -> float:
    """The verdict tolerance: ``--tol``, else ``$BGF_TOL``, else the default."""
    if args.tol is not None:
        return _positive_finite(args.tol, "--tol must be positive and finite")
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"{_TOL_ENV}: expected a number, got {raw!r}")
    return _positive_finite(value, f"{_TOL_ENV}: tolerance must be positive and finite")


def _pair_names(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(f"expected two names 'L,G', got {text!r}")
    return parts


def _dims_list(text: str):
    try:
        dims = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not dims or any(m < 1 for m in dims):
        raise argparse.ArgumentTypeError("block dims must be positive integers")
    return dims


def _count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return count


def _lookup(table: dict, what: str, name: str, path: str):
    """``table[name]``; a missing name is a schema error listing the names present."""
    try:
        return table[name]
    except KeyError:
        raise SchemaError(f"{path}: {what} {name!r} not found (available: {sorted(table)})")


def _pair(frame_file: FrameFile, names, path: str) -> BiGFrameSystem:
    lam, gam = (_lookup(frame_file.systems, "system", name, path) for name in names)
    return BiGFrameSystem(lam, gam)


def _emit(doc) -> None:
    sys.stdout.write(dumps_json(doc))
    sys.stdout.write("\n")


def _base_doc(command: str, args, tol: float) -> dict:
    return {
        "command": command,
        "input": args.file,
        "input_sha256": sha256_of_file(args.file),
        "tolerance": tol,
    }


def _verdict_doc(report) -> dict:
    return {
        "is_bessel": report.is_bessel,
        "is_frame": report.is_frame,
        "is_tight": report.is_tight,
        "is_parseval": report.is_parseval,
    }


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args, bounds_only: bool = False) -> int:
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    system = _pair(frame_file, args.pair, args.file)
    report = classify_bi_g_frame(system, tol)
    doc = _base_doc("bounds" if bounds_only else "check", args, tol)
    doc["pair"] = list(args.pair)
    if bounds_only:
        doc["is_frame"] = report.is_frame
    else:
        doc["verdicts"] = _verdict_doc(report)
        doc["hermitian_deviation"] = report.hermitian_deviation
    if report.is_frame:
        doc["bounds"] = {"lower": report.bounds.lower, "upper": report.bounds.upper}
        if not bounds_only:
            doc["inverse_norm"] = report.inverse_norm
    _emit(doc)
    return 0 if report.is_frame else 1


def _cmd_bounds(args) -> int:
    return _cmd_check(args, bounds_only=True)


def _cmd_gcheck(args) -> int:
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    system = _lookup(frame_file.systems, "system", args.system, args.file)
    report = classify_g_frame(system, tol)
    doc = _base_doc("gcheck", args, tol)
    doc["system"] = args.system
    doc["verdicts"] = _verdict_doc(report)
    doc["verdicts"]["is_riesz"] = report.is_riesz
    doc["hermitian_deviation"] = report.hermitian_deviation
    if report.is_frame:
        doc["bounds"] = {"lower": report.bounds.lower, "upper": report.bounds.upper}
    _emit(doc)
    return 0 if report.is_frame else 1


def _cmd_dual(args) -> int:
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    lname, gname = args.pair
    system = _pair(frame_file, args.pair, args.file)
    report = classify_bi_g_frame(system, tol)
    doc = _base_doc("dual", args, tol)
    doc["pair"] = list(args.pair)
    doc["verdicts"] = _verdict_doc(report)
    doc["hermitian_deviation"] = report.hermitian_deviation
    if not report.is_frame:
        _emit(doc)
        return 1
    dual = canonical_pair(system, tol)
    out_systems = dict(frame_file.systems)
    out_systems[f"{lname}~"] = dual.lam
    out_systems[f"{gname}~"] = dual.gam
    save_frame_file(
        args.out,
        FrameFile(dim=frame_file.dim, systems=out_systems, vectors=frame_file.vectors),
    )
    doc["bounds"] = {"lower": report.bounds.lower, "upper": report.bounds.upper}
    doc["written"] = [f"{lname}~", f"{gname}~"]
    doc["out"] = args.out
    _emit(doc)
    return 0


def _cmd_reconstruct(args) -> int:
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    system = _pair(frame_file, args.pair, args.file)
    vectors = _lookup(frame_file.vectors, "vectors entry", args.vector, args.file)
    report = classify_bi_g_frame(system, tol)
    doc = _base_doc("reconstruct", args, tol)
    doc["pair"] = list(args.pair)
    doc["vector"] = args.vector
    doc["variant"] = args.variant
    if not report.is_frame:
        doc["verdicts"] = _verdict_doc(report)
        doc["hermitian_deviation"] = report.hermitian_deviation
        _emit(doc)
        return 1
    residuals = []
    for vec in vectors:
        rebuilt = reconstruct(system, vec, args.variant, tol)
        scale = float(np.linalg.norm(vec))
        residual = float(np.linalg.norm(rebuilt - vec))
        residuals.append(residual / scale if scale > 0 else residual)
    ok = all(r <= tol for r in residuals)
    doc["residuals"] = residuals
    doc["max_residual"] = max(residuals)
    doc["ok"] = ok
    _emit(doc)
    return 0 if ok else 3


def _cmd_lift(args) -> int:
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    lname, gname = args.pair
    system = _pair(frame_file, args.pair, args.file)
    pair_report = classify_bi_g_frame(system, tol)
    u, v = lift_to_biframe(system)
    lift_report = classify_biframe(u, v, tol)
    out_vectors = dict(frame_file.vectors)
    out_vectors[f"{lname}_lifted"] = list(u.vectors)
    out_vectors[f"{gname}_lifted"] = list(v.vectors)
    save_frame_file(
        args.out,
        FrameFile(dim=frame_file.dim, systems=frame_file.systems, vectors=out_vectors),
    )
    doc = _base_doc("lift", args, tol)
    doc["pair"] = list(args.pair)
    doc["pair_verdicts"] = _verdict_doc(pair_report)
    doc["lift_verdicts"] = _verdict_doc(lift_report)
    doc["verdicts_agree"] = doc["pair_verdicts"] == doc["lift_verdicts"]
    if lift_report.is_frame:
        doc["bounds"] = {
            "lower": lift_report.bounds.lower,
            "upper": lift_report.bounds.upper,
        }
    doc["written"] = [f"{lname}_lifted", f"{gname}_lifted"]
    doc["out"] = args.out
    _emit(doc)
    return 0 if lift_report.is_frame else 1


def _cmd_gen(args) -> int:
    dims = tuple(args.dims)
    kind = KIND_PRESCRIBED if args.target_op else args.kind
    spec = GenSpec(dim=args.dim, block_dims=dims, seed=args.seed, kind=kind)
    if kind == KIND_RANDOM:
        systems = {"L": gen_g_frame(spec)}
    elif kind == KIND_PRESCRIBED:
        target = load_matrix(args.target_op)
        pair = gen_bi_g_frame(spec, target)
        systems = {"L": pair.lam, "G": pair.gam}
    else:
        pair = gen_negative(spec)
        systems = {"L": pair.lam, "G": pair.gam}
    basis_vector = np.zeros(args.dim, dtype=np.complex128)
    basis_vector[0] = 1.0
    save_frame_file(
        args.out,
        FrameFile(dim=args.dim, systems=systems, vectors={"e1": [basis_vector]}),
    )
    _emit(
        {
            "command": "gen",
            "out": args.out,
            "dim": args.dim,
            "block_dims": list(dims),
            "seed": args.seed,
            "kind": kind,
            "systems": list(systems),
        }
    )
    return 0


def _perturbed(particular, nullbasis, rng) -> CoefficientSequence:
    flat = particular.to_flat()
    for basis_vec in nullbasis:
        coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
        flat = flat + coeff * basis_vec.to_flat()
    return CoefficientSequence.from_flat(flat, particular.block_dims)


def _cmd_identity(args) -> int:
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    system = _pair(frame_file, args.pair, args.file)
    vectors = _lookup(frame_file.vectors, "vectors entry", args.vector, args.file)
    doc = _base_doc("identity", args, tol)
    doc["pair"] = list(args.pair)
    doc["vector"] = args.vector
    doc["perturbations"] = args.perturb
    try:
        sides = ("gamma", "lambda") if args.side == "both" else (args.side,)
        results = []
        all_ok = True
        for index, vec in enumerate(vectors):
            for side in sides:
                particular, nullbasis = solve_synthesis_coefficients(system, vec, side, tol)
                lhs, rhs = coefficient_identity_terms(system, vec, particular, side, tol)
                ok = abs(lhs - rhs) <= tol * (1.0 + abs(lhs))
                rng = np.random.default_rng(_IDENTITY_SEED + index)
                perturbed_ok = True
                for _ in range(args.perturb):
                    candidate = _perturbed(particular, nullbasis, rng)
                    p_lhs, p_rhs = coefficient_identity_terms(
                        system, vec, candidate, side, tol
                    )
                    perturbed_ok = perturbed_ok and abs(p_lhs - p_rhs) <= tol * (
                        1.0 + abs(p_lhs)
                    )
                all_ok = all_ok and ok and perturbed_ok
                results.append(
                    {
                        "vector_index": index,
                        "side": side,
                        "lhs": lhs,
                        "rhs_re": rhs.real,
                        "rhs_im": rhs.imag,
                        "kernel_dim": len(nullbasis),
                        "ok": ok,
                        "perturbations_ok": perturbed_ok,
                    }
                )
    except NotBiGFrame as exc:
        doc["verdicts"] = _verdict_doc(exc.report)
        doc["hermitian_deviation"] = exc.report.hermitian_deviation
        _emit(doc)
        return 1
    doc["results"] = results
    doc["ok"] = all_ok
    _emit(doc)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgf",
        description="Classify, dualize, reconstruct, lift, and generate "
        "finite-dimensional frame systems stored as JSON.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"verdict tolerance (default: ${_TOL_ENV} or {DEFAULT_TOL})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[common], help="classify a pair of systems")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", parents=[common], help="bounds-only pair check")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gcheck", parents=[common], help="classify a single system")
    p.add_argument("file")
    p.add_argument("--system", required=True, metavar="NAME")
    p.set_defaults(func=_cmd_gcheck)

    p = sub.add_parser("dual", parents=[common], help="write the canonical dual pair")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("reconstruct", parents=[common], help="reconstruction residuals")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    p.add_argument("--vector", required=True, metavar="NAME")
    p.add_argument("--variant", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("lift", parents=[common], help="write induced vector families")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--dims", type=_dims_list, required=True, metavar="M1,M2,...")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=(KIND_RANDOM, KIND_RANK_DEFICIENT, KIND_NON_HERMITIAN),
        default=KIND_RANDOM,
    )
    p.add_argument("--target-op", default=None, metavar="P.json",
                   help="target operator; implies a prescribed-operator pair")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("identity", parents=[common],
                       help="coefficient-identity report for a pair")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    p.add_argument("--vector", required=True, metavar="NAME")
    p.add_argument("--perturb", type=_count, default=0, metavar="K")
    p.add_argument("--side", choices=("both", "gamma", "lambda"), default="both")
    p.set_defaults(func=_cmd_identity)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotBiGFrame as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FrameToolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed_ms = (time.perf_counter() - start) * 1e3
        print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
