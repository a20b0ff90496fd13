"""Graph file parsing and deterministic JSON output.

Graph files are plain text:

    # comment lines start with '#'
    n 4
    e 0 1 0.9
    e 1 2 0.8

Exactly one header line ``n <count>`` must precede the ``e <i> <j> <p>``
edge lines; vertex indices are 0-based.  Blank lines are ignored.  Counts,
endpoints and probabilities are ASCII tokens without ``_`` separators.
Parse errors carry the offending line number.

JSON documents are emitted by the standard library encoder in the key order
the document was built in.  Floats are written in Python's shortest
round-trip ``repr`` (``0.27885``, ``1.0``), so every number parses back to
the same double and output for a given input is byte-identical across runs.
NaN and infinities are refused with ValueError.
"""

from __future__ import annotations

import json

from .graph import (
    GraphValidationError,
    ProbGraph,
    _check_edge,
    _check_vertex_count,
    build_graph,
)

__all__ = ["GraphFileError", "format_graph_file", "parse_graph_file", "to_json"]


class GraphFileError(ValueError):
    """A graph file is malformed; `line` locates the problem when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _number(kind, token: str):
    """int or float of `token`, refusing the `_` separators and non-ASCII
    digits that Python's own conversions accept."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not an ASCII number: {token!r}")
    return kind(token)


def parse_graph_file(text: str) -> ProbGraph:
    """Parse the text form of a graph into a validated ProbGraph."""
    n: int | None = None
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "n":
            if n is not None:
                raise GraphFileError("duplicate 'n' header", lineno)
            if len(fields) != 2:
                raise GraphFileError("header must be 'n <count>'", lineno)
            try:
                n = _number(int, fields[1])
            except ValueError:
                raise GraphFileError(f"vertex count {fields[1]!r} is not an integer", lineno)
            try:
                _check_vertex_count(n)
            except GraphValidationError as exc:
                raise GraphFileError(str(exc), lineno) from exc
        elif tag == "e":
            if n is None:
                raise GraphFileError("edge line before the 'n' header", lineno)
            if len(fields) != 4:
                raise GraphFileError("edge line must be 'e <i> <j> <p>'", lineno)
            try:
                i, j = _number(int, fields[1]), _number(int, fields[2])
            except ValueError:
                raise GraphFileError("edge endpoints must be integers", lineno)
            try:
                p = _number(float, fields[3])
            except ValueError:
                raise GraphFileError(f"probability {fields[3]!r} is not a number", lineno)
            try:
                edges.append(_check_edge(n, i, j, p, seen))
            except GraphValidationError as exc:
                raise GraphFileError(str(exc), lineno) from exc
        else:
            raise GraphFileError(f"unknown directive {tag!r}", lineno)
    if n is None:
        raise GraphFileError("missing 'n' header")
    return build_graph(n, edges)


def format_graph_file(g: ProbGraph) -> str:
    """Canonical text form; parse_graph_file round-trips it exactly."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {i} {j} {p!r}" for i, j, p in g.edges)
    return "\n".join(lines) + "\n"


def to_json(document, pretty: bool = False) -> str:
    """Serialize a result document deterministically.

    Compact output has no whitespace; `pretty` indents by two spaces.
    Floats are written in their shortest round-trip ``repr``.  Raises
    ValueError if the document holds a NaN or an infinity.
    """
    try:
        # check_circular=False: documents are trees, so the encoder's only
        # ValueError left is an out-of-range float
        return json.dumps(
            document,
            allow_nan=False,
            check_circular=False,
            indent=2 if pretty else None,
            separators=None if pretty else (",", ":"),
        )
    except ValueError as exc:
        raise ValueError("non-finite number in JSON document") from exc
