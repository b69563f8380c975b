"""Instance file format: load and save arrival sequences.

Layout (text, '#' starts a comment anywhere on a line):

    geomis-instance v1
    dim <d>          one positive integer, or "-" for abstract streams
    <arrival lines>  one per arrival, in order

Arrival lines are one of

    ball <x1> ... <xd> <radius>
    rect <l1> <u1> ... <ld> <ud>
    vertex <id> <comma-separated earlier ids, or ->

A file holds one kind of line only.  Geometric files derive adjacency
from the closed intersection predicates on load; abstract files carry
it explicitly.  Floats are written with full round-trip precision, so
save followed by load reproduces the sequence exactly.  A malformed
file raises InstanceFormatError, which names the offending line; a
dim past adversaries.DIM_LIMIT raises OracleRefusal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .adversaries import refuse_oversized
from .geometry import Ball, HyperRectangle, Shape, UsageError
from .online import ArrivalSequence, RunResult

MAGIC = "geomis-instance v1"


class InstanceFormatError(UsageError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _effective_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"expected a number, got {token!r}") from None


def read_utf8(path: Union[str, Path]) -> str:
    """A file's text, decoded as UTF-8 whatever the locale; a decode
    error names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_dim(line: str) -> Optional[int]:
    """The dimension a dim line gives; None for "dim -".  A dimension
    past adversaries.DIM_LIMIT is refused before any arrival is read."""
    parts = line.split()
    if len(parts) != 2:
        raise UsageError("dim line needs exactly one value")
    if parts[1] == "-":
        return None
    try:
        dim = int(parts[1])
    except ValueError:
        raise UsageError(f"bad dimension {parts[1]!r}") from None
    if dim < 1:
        raise UsageError(f"dimension must be >= 1, got {dim}")
    refuse_oversized(0, dim)
    return dim


def _parse_shape(tag: str, fields: list[str], dim: Optional[int]) -> Shape:
    """The Ball or HyperRectangle of a ball or rect line's fields."""
    if dim is None:
        raise UsageError(f"{tag} lines require a numeric dim")
    values = [_parse_float(t) for t in fields]
    if tag == "ball":
        if len(values) != dim + 1:
            raise UsageError(f"ball line needs {dim} coordinates plus a radius")
        return Ball(center=values[:dim], radius=values[dim])
    if len(values) != 2 * dim:
        raise UsageError(f"rect line needs {2 * dim} values (lo/hi per axis)")
    return HyperRectangle(lo=values[0::2], hi=values[1::2])


def _parse_vertex(fields: list[str], dim: Optional[int], expected: int) -> frozenset[int]:
    """The earlier neighbours a vertex line gives the vertex expected."""
    if dim is not None:
        raise UsageError("vertex lines require 'dim -'")
    if len(fields) != 2:
        raise UsageError("vertex line needs an id and a neighbor list (or -)")
    try:
        vid = int(fields[0])
    except ValueError:
        raise UsageError(f"bad vertex id {fields[0]!r}") from None
    if vid != expected:
        raise UsageError(f"vertex id {vid} out of order; expected {expected}")
    if fields[1] == "-":
        return frozenset()
    try:
        nbrs = frozenset(int(t) for t in fields[1].split(","))
    except ValueError:
        raise UsageError(f"bad neighbor list {fields[1]!r}") from None
    for nb in nbrs:
        if not 0 <= nb < vid:
            raise UsageError(f"neighbor {nb} has not arrived before vertex {vid}")
    return nbrs


def load_instance(path: Union[str, Path]) -> ArrivalSequence:
    """Parse an instance file into an ArrivalSequence.

    The magic line and the presence of a dim line are checked here;
    the dim line and every arrival line go to their parser, and the
    UsageError a parser raises is tagged with its line number.
    """
    lines = _effective_lines(read_utf8(path))
    if not lines or lines[0][1] != MAGIC:
        raise InstanceFormatError(lines[0][0] if lines else 1, f"first line must be {MAGIC!r}")
    if len(lines) < 2 or lines[1][1].split()[0] != "dim":
        raise InstanceFormatError(
            lines[1][0] if len(lines) > 1 else lines[0][0], "second line must be 'dim <d>' or 'dim -'"
        )
    line_no, line = lines[1]
    items: list = []
    kind: Optional[str] = None
    try:
        dim = _parse_dim(line)
        for line_no, line in lines[2:]:
            tag, *fields = line.split()
            if tag not in ("ball", "rect", "vertex"):
                raise UsageError(f"unknown line tag {tag!r}")
            if kind is None:
                kind = tag
            elif tag != kind:
                raise UsageError(f"mixed {kind!r} and {tag!r} lines in one file")
            if tag == "vertex":
                items.append(_parse_vertex(fields, dim, len(items)))
            else:
                items.append(_parse_shape(tag, fields, dim))
    except UsageError as exc:
        raise InstanceFormatError(line_no, str(exc)) from None
    if dim is None:
        return ArrivalSequence.from_neighbor_lists(items)
    if items:
        return ArrivalSequence.from_objects(items)
    return ArrivalSequence(events=(), dim=dim)


def _format_event_line(ev) -> str:
    if ev.payload is None:
        nbrs = ",".join(str(n) for n in sorted(ev.neighbors)) if ev.neighbors else "-"
        return f"vertex {ev.id} {nbrs}"
    shape = ev.payload
    if isinstance(shape, Ball):
        coords = " ".join(repr(x) for x in shape.center)
        return f"ball {coords} {shape.radius!r}"
    pairs = " ".join(f"{l!r} {u!r}" for l, u in zip(shape.lo, shape.hi))
    return f"rect {pairs}"


def _write(path: Union[str, Path], stream: ArrivalSequence, lines: list[str]) -> None:
    """Write the magic and dim header lines, then lines."""
    header = [MAGIC, f"dim {stream.dim}" if stream.dim is not None else "dim -"]
    Path(path).write_text("\n".join(header + lines) + "\n")


def save_instance(stream: ArrivalSequence, path: Union[str, Path]) -> None:
    """Write a sequence in the instance format (round-trip exact)."""
    _write(path, stream, [_format_event_line(ev) for ev in stream.events])


def save_transcript(
    stream: ArrivalSequence, result: RunResult, path: Union[str, Path]
) -> None:
    """Write a sequence annotated with one decision comment per arrival.

    The annotations are comments, so the file remains loadable as a
    plain instance for replay.
    """
    if len(result.decisions) != len(stream.events):
        raise UsageError("result does not match the stream length")
    lines = [f"# accepted {result.size} of {len(stream.events)}"]
    for ev, dec in zip(stream.events, result.decisions):
        verdict = "accepted" if dec else "rejected"
        lines.append(f"{_format_event_line(ev)}  # {verdict}")
    _write(path, stream, lines)
