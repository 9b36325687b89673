"""The golden file: every expected value, one check per line.

Every expectation lives in the plain-text fixture ``data/golden.txt``;
nothing is hard-coded in the package.  A line reads

    <id> <kind> key=value [key=value ...]

with ``#`` comments and blank lines ignored.  Ids are unique in a file
and a key appears at most once on a line.  This module reads the file
and filters its checks; ``verify`` runs them.  It imports nothing of
the package but ``errors``, so reading the file loads none of the math.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError


@dataclass(frozen=True)
class GoldenCheck:
    id: str
    kind: str
    fields: dict[str, str]

    def get(self, key: str) -> str:
        try:
            return self.fields[key]
        except KeyError:
            raise InputError(f"golden check {self.id} lacks field {key}") from None


def load_golden(path=None) -> list[GoldenCheck]:
    """The checks of the golden file at ``path``, by default the packaged
    ``data/golden.txt``; errors name the file that was read."""
    name = "golden.txt" if path is None else str(path)
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
            raise InputError(f"cannot read golden file {str(path)!r}: {exc}") from None
    else:
        text = (
            importlib.resources.files("flatlyap") / "data" / "golden.txt"
        ).read_text()
    checks, first_line = [], {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise InputError(f"{name} line {lineno}: too few fields")
        cid, kind = parts[0], parts[1]
        if cid in first_line:
            raise InputError(
                f"{name} line {lineno}: check id {cid!r} repeats line {first_line[cid]}"
            )
        first_line[cid] = lineno
        fields = {}
        for tok in parts[2:]:
            key, sep, value = tok.partition("=")
            if not sep:
                raise InputError(f"{name} line {lineno}: bad token {tok!r}")
            if key in fields:
                raise InputError(f"{name} line {lineno}: key {key!r} given twice")
            fields[key] = value
        checks.append(GoldenCheck(cid, kind, fields))
    return checks


def select_checks(
    checks: list[GoldenCheck],
    genus: str = "all",
    skip_enumeration: bool = False,
) -> list[GoldenCheck]:
    """Filter by genus tag; ``skip_enumeration`` keeps only the checks
    that finish in seconds (drops the exhaustive scans and the orbit
    searches tagged slow)."""
    out = []
    for check in checks:
        if skip_enumeration and (
            check.kind == "enum" or check.fields.get("slow") == "1"
        ):
            continue
        if genus != "all" and check.fields.get("g", "") not in ("", genus):
            continue
        out.append(check)
    return out
