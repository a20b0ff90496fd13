"""Command-line interface.

Subcommands:

    compute   exact connectivity matrix + spectrum + bounds + critical vertices
    mc        Monte Carlo estimate (--samples, --seed)
    bounds    entrywise bounds only
    spectrum  eigenvalues and quality verdicts only
    critical  critical-vertex findings only
    walk      z-step walk-probability matrix (--z)
    rank      link-improvement ranking (--include-absent for candidate links)

All subcommands read a graph file via --input and print one JSON document
to stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 stdout
closed before the document was written, 2 bad input or usage, 3
enumeration limit exceeded (switch to `mc`) or out of memory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .bounds import compute_bounds, find_critical_vertices
from .exact import DEFAULT_MAX_EDGES, EdgeLimitExceeded, exact_connectivity
from .fileio import GraphFileError, parse_graph_file, to_json
from .graph import (
    GraphValidationError,
    ProbGraph,
    _pattern_blocks,
    adjacency_matrix,
    support_components,
)
from .montecarlo import mc_connectivity
from .sensitivity import rank_improvements
from .spectral import spectral_report
from .walks import walk_matrix, walk_probabilities

SCHEMA_VERSION = "1.0.0"

_DEFAULT_BOUNDS_TOL = 1e-12
_DEFAULT_CRITICAL_TOL = 1e-9  # also the spectral verdicts


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probconn",
        description="Connectivity quality analysis of networks with unreliable links.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="graph file to analyze")
    common.add_argument(
        "--max-edges",
        type=_nonneg_int,
        default=DEFAULT_MAX_EDGES,
        help="per-component edge limit for exact enumeration",
    )
    common.add_argument(
        "--tolerance",
        type=_nonneg_float,
        default=None,
        help="override the analysis tolerance",
    )
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("compute", parents=[common], help="full exact analysis")
    mc = sub.add_parser("mc", parents=[common], help="Monte Carlo estimate")
    mc.add_argument("--samples", type=_positive_int, required=True)
    mc.add_argument("--seed", type=int, default=0)
    sub.add_parser("bounds", parents=[common], help="entrywise bounds")
    sub.add_parser("spectrum", parents=[common], help="eigenvalues and verdicts")
    sub.add_parser("critical", parents=[common], help="critical vertices")
    walk = sub.add_parser("walk", parents=[common], help="walk probabilities")
    walk.add_argument("--z", type=_positive_int, required=True, help="walk length")
    rank = sub.add_parser("rank", parents=[common], help="link-improvement ranking")
    rank.add_argument(
        "--include-absent",
        action="store_true",
        help="also evaluate vertex pairs without an edge as candidate links",
    )
    return parser


def _tolerance(args, default: float) -> float:
    return default if args.tolerance is None else args.tolerance


def _q_section(g: ProbGraph, q, est, args, partition, blocks) -> dict:
    return {"q": q}


def _spectrum_section(g: ProbGraph, q, est, args, partition, blocks) -> dict:
    report = spectral_report(q, partition, _tolerance(args, _DEFAULT_CRITICAL_TOL), blocks)
    fields = {
        "components": [
            {"vertices": block, "lambda_max": lam}
            for block, lam in zip(partition, report.component_lambdas)
        ],
        "eigenvalues": report.eigenvalues.tolist(),
        "lambda_max": report.lambda_max,
        "lambda_max_normalized": report.lambda_max_normalized,
        "psd": report.psd,
        "definite": report.definite,
    }
    if args.command == "spectrum":
        fields["principal_eigenvector"] = report.principal_eigvec.tolist()
    return fields


def _bounds_section(g: ProbGraph, q, est, args, partition, blocks) -> dict:
    report = compute_bounds(adjacency_matrix(g), q, _tolerance(args, _DEFAULT_BOUNDS_TOL), blocks)
    return {
        "bounds": {
            "lower": report.lower,
            "upper": report.upper,
            "tolerance": report.tolerance,
            "violations": [v._asdict() for v in report.violations],
            "unconstrained_pairs": report.unconstrained_pairs,
        }
    }


def _critical_section(g: ProbGraph, q, est, args, partition, blocks) -> dict:
    tolerance = _tolerance(args, _DEFAULT_CRITICAL_TOL)
    findings = [
        {
            "k": f.k,
            "witnesses": f.witnesses,
            "partition": None
            if f.partition_hint is None
            else {"v1": f.partition_hint[0], "v3": f.partition_hint[1]},
            "warnings": [{"l": l, "m": m, "error": err} for l, m, err in f.warnings],
        }
        for f in find_critical_vertices(q, tolerance, blocks=blocks)
    ]
    return {"critical_tolerance": tolerance, "critical_vertices": findings}


def _mc_section(g: ProbGraph, q, est, args, partition, blocks) -> dict:
    return {"mc": {"samples": est.samples, "seed": est.seed, "std_err": est.std_err}}


# The document sections of each subcommand that analyzes a connectivity
# matrix, in output order; `mc` estimates the matrix, the others compute it.
# Each section gets the support components and the blocks of the matrix's
# nonzero pattern, found once per job.
_SECTIONS = {
    "compute": (_q_section, _spectrum_section, _bounds_section, _critical_section),
    "mc": (_q_section, _spectrum_section, _mc_section),
    "bounds": (_q_section, _bounds_section),
    "spectrum": (_spectrum_section,),
    "critical": (_critical_section,),
}


_PARSER = build_parser()  # built once, at import: building costs about 20 parses


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        # utf-8-sig: a leading byte-order mark is dropped, not read as text
        with open(args.input, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"probconn: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2

    try:
        g = parse_graph_file(text)
    except (GraphFileError, GraphValidationError) as exc:
        print(f"probconn: {args.input}: {exc}", file=sys.stderr)
        return 2

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "n": g.n,
        "m": g.m,
    }
    try:
        if args.command in _SECTIONS:
            est = None
            if args.command == "mc":
                est = mc_connectivity(g, args.samples, args.seed)
                doc["engine"], q = "mc", est.q_hat
            else:
                doc["engine"], q = "exact", exact_connectivity(g, args.max_edges)
            # both engines leave every entry across support components exactly 0: q's
            # blocks are those components or finer, and spectral_report zeroes nothing
            partition = support_components(g)
            blocks = _pattern_blocks(q != 0.0, partition)
            for section in _SECTIONS[args.command]:
                doc.update(section(g, q, est, args, partition, blocks))
        elif args.command == "walk":
            walked = walk_probabilities(walk_matrix(g), args.z)
            doc["z"] = walked.z
            doc["walk"] = walked.entries
        else:  # rank
            ranking = rank_improvements(g, args.include_absent, args.max_edges)
            doc["engine"] = "exact"
            doc["lambda_max"] = ranking.lambda_max
            doc["include_absent"] = args.include_absent
            doc["ranking"] = [vars(e) for e in ranking.entries]
        text = to_json(doc, pretty=args.pretty)
    except EdgeLimitExceeded as exc:
        print(
            f"probconn: {exc}\nprobconn: try the `mc` subcommand for graphs "
            f"this large",
            file=sys.stderr,
        )
        return 3
    except MemoryError:
        print(
            f"probconn: out of memory on a graph with n={g.n} and m={g.m}: every "
            f"result holds n x n matrices, so try a graph with fewer vertices",
            file=sys.stderr,
        )
        return 3

    print(text)
    return 0


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
