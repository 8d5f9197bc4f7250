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
import sys
import time
from dataclasses import replace

import numpy as np

from .bigframes import (
    BiGFrameSystem,
    _coefficient_identity_terms,
    _reconstruct,
    canonical_pair,
    classify_bi_g_frame,
    classify_g_frame,
    lift_to_biframe,
    solve_synthesis_coefficients,
)
from .errors import ConstraintViolated, FrameToolError, SchemaError
from .fileio import FrameFile, dumps_json, load_frame_file, load_matrix, save_frame_file
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
from .gframes import CoefficientSequence
from .kernel import DEFAULT_TOL

_IDENTITY_SEED = 0


def _tol(args) -> float:
    """The verdict tolerance: ``--tol``, else the default."""
    tol = DEFAULT_TOL if args.tol is None else args.tol
    if not (tol > 0.0 and np.isfinite(tol)):
        raise SchemaError("--tol must be positive and finite")
    return tol


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


def _emit(doc) -> None:
    sys.stdout.write(dumps_json(doc))
    sys.stdout.write("\n")


def _open(args):
    """Tolerance, one read of the input, every lookup and the report's opening
    fields, then the classification: a missing name exits 2 even where the
    factorization would break down. ``input_sha256`` hashes the bytes parsed,
    before anything is written (``--out`` may name the input). Returns
    ``(frame_file, pair or gcheck's system, its report, --vector's entry, doc)``."""
    tol = _tol(args)
    frame_file = load_frame_file(args.file)
    doc = {"command": args.subcommand, "input": args.file,
           "input_sha256": frame_file.sha256, "tolerance": tol}
    if args.subcommand == "gcheck":
        doc["system"] = args.system
        system = _lookup(frame_file.systems, "system", args.system, args.file)
        return frame_file, system, classify_g_frame(system, tol), None, doc
    system = BiGFrameSystem(*(_lookup(frame_file.systems, "system", name, args.file)
                              for name in args.pair))
    doc["pair"] = list(args.pair)
    vectors = None
    if "vector" in args:
        vectors = _lookup(frame_file.vectors, "vectors entry", args.vector, args.file)
        doc["vector"] = args.vector
    return frame_file, system, classify_bi_g_frame(system, tol), vectors, doc


def _verdict_doc(report) -> dict:
    return {
        "is_bessel": report.is_bessel,
        "is_frame": report.is_frame,
        "is_tight": report.is_tight,
        "is_parseval": report.is_parseval,
    }


def _bounds_doc(report) -> dict:
    return {"lower": report.bounds.lower, "upper": report.bounds.upper}


def _report(doc, report):
    """Write the verdicts, the Hermitian deviation and, on frames, the bounds."""
    doc["verdicts"] = _verdict_doc(report)
    doc["hermitian_deviation"] = report.hermitian_deviation
    if report.is_frame:
        doc["bounds"] = _bounds_doc(report)


def _negative(doc, report) -> int:
    """Report a pair that is not a bi-g-frame: its verdicts, exit 1."""
    _report(doc, report)
    _emit(doc)
    return 1


def _write_beside(args, frame_file: FrameFile, doc, field: str, suffix: str, entries) -> None:
    """Save the input's systems and vectors to ``--out``, with ``entries`` added
    to ``field`` under the pair's names plus ``suffix``; record each name once."""
    written = dict(zip((f"{name}{suffix}" for name in args.pair), entries))
    added = {**getattr(frame_file, field), **written}
    save_frame_file(args.out, replace(frame_file, **{field: added}))
    doc["written"] = list(written)
    doc["out"] = args.out


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    """``check``, or with ``bounds`` only the frame verdict and bounds."""
    _, _, report, _, doc = _open(args)
    if args.subcommand == "bounds":
        doc["is_frame"] = report.is_frame
        if report.is_frame:
            doc["bounds"] = _bounds_doc(report)
    else:
        _report(doc, report)
        if report.is_frame:
            doc["inverse_norm"] = report.inverse_norm
    _emit(doc)
    return 0 if report.is_frame else 1


def _cmd_gcheck(args) -> int:
    _, _, report, _, doc = _open(args)
    _report(doc, report)
    doc["verdicts"]["is_riesz"] = report.is_riesz
    _emit(doc)
    return 0 if report.is_frame else 1


def _cmd_dual(args) -> int:
    frame_file, pair, report, _, doc = _open(args)
    if not report.is_frame:
        return _negative(doc, report)
    dual = canonical_pair(pair, doc["tolerance"])
    _report(doc, report)
    _write_beside(args, frame_file, doc, "systems", "~", (dual.lam, dual.gam))
    _emit(doc)
    return 0


def _cmd_reconstruct(args) -> int:
    _, pair, report, vectors, doc = _open(args)
    doc["variant"] = args.variant
    if not report.is_frame:
        return _negative(doc, report)
    rebuilt = _reconstruct(pair, vectors, args.variant, doc["tolerance"])
    # Relative to each vector's norm (a zero vector's: absolute), gated as backward errors.
    residuals = [float(np.linalg.norm(r - v)) / (float(np.linalg.norm(v)) or 1.0)
                 for r, v in zip(rebuilt, vectors)]
    scale = pair.lam._frobenius * pair.gam._frobenius * report.inverse_norm
    ok = all(r <= doc["tolerance"] * scale for r in residuals)
    doc.update(residuals=residuals, max_residual=max(residuals), ok=ok)
    _emit(doc)
    if not ok:
        raise np.linalg.LinAlgError(f"residual {doc['max_residual']:.3e} above its rounding bound")
    return 0


def _cmd_lift(args) -> int:
    frame_file, pair, report, _, doc = _open(args)
    u, v = lift_to_biframe(pair)
    lift_report = classify_biframe(u, v, doc["tolerance"])
    doc["pair_verdicts"] = _verdict_doc(report)
    doc["lift_verdicts"] = _verdict_doc(lift_report)
    doc["verdicts_agree"] = doc["pair_verdicts"] == doc["lift_verdicts"]
    if lift_report.is_frame:
        doc["bounds"] = _bounds_doc(lift_report)
    _write_beside(args, frame_file, doc, "vectors", "_lifted", (list(u.vectors), list(v.vectors)))
    _emit(doc)
    return 0 if lift_report.is_frame else 1


def _cmd_gen(args) -> int:
    dims = tuple(args.dims)
    kind = KIND_PRESCRIBED if args.target_op else args.kind or KIND_RANDOM
    spec = GenSpec(dim=args.dim, block_dims=dims, seed=args.seed, kind=kind)
    if kind == KIND_RANDOM:
        systems = {"L": gen_g_frame(spec)}
    else:
        pair = (gen_bi_g_frame(spec, load_matrix(args.target_op)) if kind == KIND_PRESCRIBED
                else gen_negative(spec))
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
    _, pair, report, vectors, doc = _open(args)
    tol = doc["tolerance"]
    doc["perturbations"] = args.perturb
    if not report.is_frame:
        return _negative(doc, report)
    sides = ("gamma", "lambda") if args.side == "both" else (args.side,)
    results = []
    for index, vec in enumerate(vectors):
        for side in sides:
            particular, nullbasis = solve_synthesis_coefficients(pair, vec, side, tol)
            rng = np.random.default_rng(_IDENTITY_SEED + index)
            draws = [_perturbed(particular, nullbasis, rng) for _ in range(args.perturb)]
            try:
                terms = _coefficient_identity_terms(pair, vec, [particular, *draws], side, tol)
            except ConstraintViolated as exc:  # own coefficients: numerical, not input
                raise np.linalg.LinAlgError(exc) from exc
            holds = [abs(lhs - rhs) <= tol * (1.0 + abs(lhs)) for lhs, rhs in terms]
            lhs, rhs = terms[0]
            results.append(
                {
                    "vector_index": index,
                    "side": side,
                    "lhs": lhs,
                    "rhs_re": rhs.real,
                    "rhs_im": rhs.imag,
                    "kernel_dim": len(nullbasis),
                    "ok": holds[0],
                    "perturbations_ok": all(holds[1:]),
                }
            )
    doc["results"] = results
    doc["ok"] = all(r["ok"] and r["perturbations_ok"] for r in results)
    _emit(doc)
    return 0 if doc["ok"] else 1


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
        help=f"verdict tolerance (default: {DEFAULT_TOL})",
    )
    pair = argparse.ArgumentParser(add_help=False, parents=[common])
    pair.add_argument("file")
    pair.add_argument("--pair", type=_pair_names, required=True, metavar="L,G")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[pair], help="classify a pair of systems")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", parents=[pair], help="bounds-only pair check")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gcheck", parents=[common], help="classify a single system")
    p.add_argument("file")
    p.add_argument("--system", required=True, metavar="NAME")
    p.set_defaults(func=_cmd_gcheck)

    p = sub.add_parser("dual", parents=[pair], help="write the canonical dual pair")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("reconstruct", parents=[pair], help="reconstruction residuals")
    p.add_argument("--vector", required=True, metavar="NAME")
    p.add_argument("--variant", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("lift", parents=[pair], help="write induced vector families")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--dims", type=_dims_list, required=True, metavar="M1,M2,...")
    p.add_argument("--seed", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument(
        "--kind",
        choices=(KIND_RANDOM, KIND_RANK_DEFICIENT, KIND_NON_HERMITIAN),
        default=None,  # a given --kind is never the default object, so it excludes --target-op
    )
    kind.add_argument("--target-op", default=None, metavar="P.json",
                      help="target operator; implies a prescribed-operator pair")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("identity", parents=[pair],
                       help="coefficient-identity report for a pair")
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
