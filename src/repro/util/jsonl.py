"""The JSON Lines framing a trace and a telemetry file share: one header
object, ``{"kind": "<artifact>-header", "schema": N, ...}``, then one
JSON object per line.  What the header and the objects must hold beyond
that is each loader's own check."""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any


def read_jsonl(
    source: str | Path | Iterable[str],
    schemas: Mapping[str, int],
    error: type[ValueError] = ValueError,
) -> tuple[str, dict[str, Any], Iterator[tuple[int, Any]]]:
    """Frame the artifact at ``source`` (a path or the lines themselves).

    ``schemas`` maps each artifact the caller reads (``"trace"`` reads a
    ``trace-header``) to the schema version it reads.  Returns the
    artifact the header names, the header, and ``(line number, value)``
    for each non-blank line after it.  Raises ``error`` when there is no
    header, when it names none of those artifacts or another schema, and
    (while iterating) when a line is not JSON.
    """
    if isinstance(source, (str, Path)):
        source = Path(source).read_text().splitlines()
    lines = iter(source)
    first = next(lines, None)
    if first is None:
        raise error(f"empty {' or '.join(schemas)} file: no header line")
    names = " nor a ".join(schemas)
    not_a = f"not a {names}" if len(schemas) == 1 else f"neither a {names}"
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise error(f"{not_a} file: header is not JSON: {exc}") from None
    kind = header.get("kind") if isinstance(header, dict) else None
    artifact = next((a for a in schemas if kind == f"{a}-header"), None)
    if artifact is None:
        heads = " or a ".join(f"{a}-header" for a in schemas)
        raise error(f"{not_a} file: first line is not a {heads}")
    if header.get("schema") != schemas[artifact]:
        raise error(f"unsupported {artifact} schema {header.get('schema')!r} "
                    f"(this build reads schema {schemas[artifact]})")
    return artifact, header, _values(lines, error)


def _values(
    lines: Iterator[str], error: type[ValueError]
) -> Iterator[tuple[int, Any]]:
    for lineno, line in enumerate(lines, start=2):
        if line.strip():
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"line {lineno}: not JSON: {exc}") from None
