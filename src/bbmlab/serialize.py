"""Small shared helpers for deterministic text output."""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence


def fmt_float(x) -> str:
    """Format a number with 17 significant digits (lossless float64 round-trip)."""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def csv_lines(header: str, rows: Iterable[Sequence]) -> list[str]:
    """The header line, then one line per row.

    A str cell is written as is; any other cell goes through fmt_float.
    """
    return [header] + [
        ",".join(c if isinstance(c, str) else fmt_float(c) for c in row) for row in rows
    ]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
