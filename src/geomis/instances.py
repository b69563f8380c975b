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
save followed by load reproduces the sequence exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .geometry import Ball, HyperRectangle, Point, SizedObject, UsageError
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


def _parse_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise InstanceFormatError(line_no, f"expected a number, got {token!r}") from None


def read_utf8(path: Union[str, Path]) -> str:
    """A file's text, decoded as UTF-8 whatever the locale; a decode
    error names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def load_instance(path: Union[str, Path]) -> ArrivalSequence:
    """Parse an instance file into an ArrivalSequence."""
    text = read_utf8(path)
    lines = _effective_lines(text)
    if not lines or lines[0][1] != MAGIC:
        line_no = lines[0][0] if lines else 1
        raise InstanceFormatError(line_no, f"first line must be {MAGIC!r}")
    if len(lines) < 2 or not lines[1][1].startswith("dim"):
        raise InstanceFormatError(
            lines[1][0] if len(lines) > 1 else lines[0][0], "second line must be 'dim <d>' or 'dim -'"
        )
    dim_no, dim_line = lines[1]
    parts = dim_line.split()
    if len(parts) != 2:
        raise InstanceFormatError(dim_no, "dim line needs exactly one value")
    dim: Optional[int]
    if parts[1] == "-":
        dim = None
    else:
        try:
            dim = int(parts[1])
        except ValueError:
            raise InstanceFormatError(dim_no, f"bad dimension {parts[1]!r}") from None
        if dim < 1:
            raise InstanceFormatError(dim_no, f"dimension must be >= 1, got {dim}")

    objects: list[SizedObject] = []
    neighbor_lists: list[frozenset[int]] = []
    kind: Optional[str] = None
    for line_no, line in lines[2:]:
        tokens = line.split()
        tag = tokens[0]
        if tag not in ("ball", "rect", "vertex"):
            raise InstanceFormatError(line_no, f"unknown line tag {tag!r}")
        if kind is None:
            kind = tag
        elif tag != kind:
            raise InstanceFormatError(
                line_no, f"mixed {kind!r} and {tag!r} lines in one file"
            )
        if tag == "vertex":
            if dim is not None:
                raise InstanceFormatError(
                    line_no, "vertex lines require 'dim -'"
                )
            if len(tokens) != 3:
                raise InstanceFormatError(
                    line_no, "vertex line needs an id and a neighbor list (or -)"
                )
            try:
                vid = int(tokens[1])
            except ValueError:
                raise InstanceFormatError(line_no, f"bad vertex id {tokens[1]!r}") from None
            if vid != len(neighbor_lists):
                raise InstanceFormatError(
                    line_no, f"vertex id {vid} out of order; expected {len(neighbor_lists)}"
                )
            if tokens[2] == "-":
                nbrs: frozenset[int] = frozenset()
            else:
                try:
                    nbrs = frozenset(int(t) for t in tokens[2].split(","))
                except ValueError:
                    raise InstanceFormatError(
                        line_no, f"bad neighbor list {tokens[2]!r}"
                    ) from None
                for nb in nbrs:
                    if not 0 <= nb < vid:
                        raise InstanceFormatError(
                            line_no, f"neighbor {nb} has not arrived before vertex {vid}"
                        )
            neighbor_lists.append(nbrs)
            continue
        if dim is None:
            raise InstanceFormatError(line_no, f"{tag} lines require a numeric dim")
        values = [_parse_float(t, line_no) for t in tokens[1:]]
        if tag == "ball":
            if len(values) != dim + 1:
                raise InstanceFormatError(
                    line_no, f"ball line needs {dim} coordinates plus a radius"
                )
            try:
                objects.append(
                    SizedObject(Ball(center=Point(tuple(values[:dim])), radius=values[dim]))
                )
            except UsageError as exc:
                raise InstanceFormatError(line_no, str(exc)) from None
        else:
            if len(values) != 2 * dim:
                raise InstanceFormatError(
                    line_no, f"rect line needs {2 * dim} values (lo/hi per axis)"
                )
            lo = tuple(values[2 * i] for i in range(dim))
            hi = tuple(values[2 * i + 1] for i in range(dim))
            try:
                objects.append(
                    SizedObject(HyperRectangle(lo=Point(lo), hi=Point(hi)))
                )
            except UsageError as exc:
                raise InstanceFormatError(line_no, str(exc)) from None

    if kind == "vertex" or dim is None:
        return ArrivalSequence.from_neighbor_lists(neighbor_lists)
    if objects:
        return ArrivalSequence.from_objects(objects)
    return ArrivalSequence(events=(), dim=dim)


def _format_event_line(ev) -> str:
    if ev.payload is None:
        nbrs = ",".join(str(n) for n in sorted(ev.neighbors)) if ev.neighbors else "-"
        return f"vertex {ev.id} {nbrs}"
    shape = ev.payload.shape
    if isinstance(shape, Ball):
        coords = " ".join(repr(x) for x in shape.center.coords)
        return f"ball {coords} {shape.radius!r}"
    pairs = " ".join(
        f"{l!r} {u!r}" for l, u in zip(shape.lo.coords, shape.hi.coords)
    )
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
