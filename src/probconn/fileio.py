"""Graph file parsing and deterministic JSON output.

Graph files are plain text:

    # comment lines start with '#'
    n 4
    e 0 1 0.9
    e 1 2 0.8

Exactly one header line ``n <count>`` must precede the ``e <i> <j> <p>``
edge lines; vertex indices are 0-based.  Lines end at LF, CRLF or CR, the
newlines that text-mode ``open()`` translates.  Blank lines are ignored.
Counts, endpoints and probabilities are ASCII tokens without ``_``
separators.  The parser only reads this format; ``build_graph`` checks the
graph, its header first, then each edge in file order, and an error names
the first offending line of the file.

JSON documents are written in the key order the document was built in,
byte for byte as ``json.dumps`` writes them with every float array listed
by ``.tolist()``.  Float arrays, at the top level or as values of dicts,
are rendered from the arrays themselves, with one ``repr`` per distinct
value among them; everything else is emitted by the standard library
encoder.  Floats are written in Python's shortest
round-trip ``repr`` (``0.27885``, ``1.0``), so every number parses back to
the same double and output for a given input is byte-identical across runs.
NaN and infinities are refused with ValueError.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import GraphValidationError, ProbGraph, build_graph

__all__ = ["GraphFileError", "format_graph_file", "parse_graph_file", "to_json"]


class GraphFileError(ValueError):
    """A graph file is malformed; `line` locates the problem when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _number(kind, token: str, problem: str, line: int):
    """int or float of `token`, refusing the `_` separators and non-ASCII
    digits that Python's own conversions accept; else GraphFileError of
    `problem`, formatted with the token."""
    try:
        if "_" not in token and token.isascii():
            return kind(token)
    except ValueError:
        pass
    raise GraphFileError(problem.format(token), line)


def parse_graph_file(text: str) -> ProbGraph:
    """Parse the text form of a graph into a validated ProbGraph: the format
    up to its first malformed line, then build_graph checks what it read."""
    n = fault = None
    edges: list[tuple[int, int, float]] = []
    lines: list[int] = []  # the header's line, then each edge's
    # not str.splitlines(): it also breaks at form feeds, NEL and U+2028
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    try:
        for lineno, raw in enumerate(rows, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] == "n":
                if n is not None:
                    raise GraphFileError("duplicate 'n' header", lineno)
                if len(fields) != 2:
                    raise GraphFileError("header must be 'n <count>'", lineno)
                n = _number(int, fields[1], "vertex count {!r} is not an integer", lineno)
            elif fields[0] == "e":
                if n is None:
                    raise GraphFileError("edge line before the 'n' header", lineno)
                if len(fields) != 4:
                    raise GraphFileError("edge line must be 'e <i> <j> <p>'", lineno)
                i = _number(int, fields[1], "edge endpoints must be integers", lineno)
                j = _number(int, fields[2], "edge endpoints must be integers", lineno)
                p = _number(float, fields[3], "probability {!r} is not a number", lineno)
                edges.append((i, j, p))
            else:
                raise GraphFileError(f"unknown directive {fields[0]!r}", lineno)
            lines.append(lineno)
    except GraphFileError as exc:
        fault = exc
    if n is None:
        raise fault or GraphFileError("missing 'n' header")
    at = iter(lines)  # one step per edge build_graph takes: next(at) is the line it checks
    try:
        g = build_graph(n, (edge for edge, _ in zip(edges, at)))
    except GraphValidationError as exc:
        raise GraphFileError(str(exc), next(at)) from exc
    if fault:
        raise fault
    return g


def format_graph_file(g: ProbGraph) -> str:
    """Canonical text form; parse_graph_file round-trips it exactly."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {i} {j} {p!r}" for i, j, p in g.edges)
    return "\n".join(lines) + "\n"


# the two layouts of to_json; check_circular=False: documents are trees, so
# the encoder's only ValueError left is an out-of-range float
_COMPACT = json.JSONEncoder(allow_nan=False, check_circular=False, separators=(",", ":"))
_PRETTY = json.JSONEncoder(allow_nan=False, check_circular=False, indent=2)


def _newline(encoder: json.JSONEncoder, level: int) -> str:
    """What starts a line at indent `level`: nothing in compact output."""
    return "" if encoder.indent is None else "\n" + " " * (encoder.indent * level)


def _arrays(value, found: list[np.ndarray]) -> list[np.ndarray]:
    """`found` plus the float arrays of a document: the document itself, or
    dict values at any depth."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "f" or value.dtype.itemsize > 8:
            raise TypeError(f"Object of type ndarray of {value.dtype} is not JSON serializable")
        found.append(value)
    elif isinstance(value, dict):
        for item in value.values():
            if isinstance(item, (np.ndarray, dict)):
                _arrays(item, found)
    return found


def _array_rows(arrays: list[np.ndarray]) -> dict[int, list[list[str]]]:
    """The entries of each array as rows of text, keyed by ``id``, from one
    ``repr`` per distinct value across all of them."""
    if not arrays:
        return {}
    bits = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays]).view(
        np.uint64)
    nonzero = bits != 0  # +0.0 only: -0.0 keeps its sign bit
    patterns, inverse = np.unique(bits[nonzero], return_inverse=True)
    values = patterns.view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in array")
    table = np.array(["0.0", *map(float.__repr__, values.tolist())], dtype=object)
    index = np.zeros(bits.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    texts = table[index]
    rows, start = {}, 0
    for a in arrays:
        if a.ndim and a.size:
            rows[id(a)] = texts[start:start + a.size].reshape(-1, a.shape[-1]).tolist()
        start += a.size
    return rows


def _array_text(a: np.ndarray, rows: list[list[str]], encoder: json.JSONEncoder,
                level: int) -> str:
    """``json.dumps`` text of ``a.tolist()`` from the text of its innermost lists."""
    # the innermost lists first, then each outer axis in turn: the brackets
    # that close one list and open the next go into the glue between them
    opening = closing = ""
    for depth in range(a.ndim - 1, -1, -1):
        inner = _newline(encoder, level + depth + 1)
        glue = closing + encoder.item_separator + inner + opening
        if depth == a.ndim - 1:
            items = [glue.join(row) for row in rows]
        else:
            size = a.shape[depth]
            items = [glue.join(items[k:k + size]) for k in range(0, len(items), size)]
        opening = "[" + inner + opening
        closing += _newline(encoder, level + depth) + "]"
    return opening + items[0] + closing


def _plain(value, encoder: json.JSONEncoder, level: int) -> str:
    """The encoder's text of `value`, its lines indented from `level` on."""
    # the encoder writes no raw newline inside a string, only between lines
    return encoder.encode(value).replace("\n", _newline(encoder, level))


def _text(value, array_rows: dict, encoder: json.JSONEncoder, level: int) -> str:
    """JSON text of `value` whose first line sits at indent `level`;
    `array_rows` holds the text of its arrays (`_array_rows`)."""
    if isinstance(value, np.ndarray):
        if id(value) not in array_rows:  # a lone float, or nested empty lists
            return _plain(value.tolist(), encoder, level)
        return _array_text(value, array_rows[id(value)], encoder, level)
    if not isinstance(value, dict):
        return _plain(value, encoder, level)
    # the encoder writes the items in runs, each run as a dict cut out of its
    # braces; a run ends at an array or a dict, whose own text replaces the
    # placeholder 0 after its key
    inner, outer = _newline(encoder, level + 1), _newline(encoder, level)
    parts, run = [], {}
    for key, item in value.items():
        nested = isinstance(item, (np.ndarray, dict))
        run[key] = 0 if nested else item
        if nested:
            body = _plain(run, encoder, level)[1 + len(inner):-1 - len(outer)]
            parts.append(body[:-1] + _text(item, array_rows, encoder, level + 1))
            run = {}
    if run:
        parts.append(_plain(run, encoder, level)[1 + len(inner):-1 - len(outer)])
    if not parts:
        return "{}"
    return "{" + inner + (encoder.item_separator + inner).join(parts) + outer + "}"


def to_json(document, pretty: bool = False) -> str:
    """Serialize a result document deterministically.

    Compact output has no whitespace; `pretty` indents by two spaces.  The
    text is exactly ``json.dumps`` of the document with every float array
    replaced by its ``.tolist()``; such arrays may sit at the top level or
    as values of dicts, and are rendered straight from their values.  Floats
    are written in their shortest round-trip ``repr``.  Raises ValueError if
    the document holds a NaN or an infinity, and TypeError for an array that
    is not of floats.
    """
    try:
        array_rows = _array_rows(_arrays(document, []))
        return _text(document, array_rows, _PRETTY if pretty else _COMPACT, 0)
    except ValueError as exc:
        raise ValueError("non-finite number in JSON document") from exc
