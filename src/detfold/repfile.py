"""Line-oriented representation files.

Format (whitespace-insensitive inside expressions, '#' starts a comment):

    field rational          # or: field fp 13
    vars x1 x2 x3
    row 0: x1, 0, 0, 0
    row 1: 0, x2, 0, 0
    row 2: 0, 0, x3, 0
    row 3: 0, 0, 0, x1^3 + x2^3 + x3^3

A line's first word names its directive exactly: `field` and `vars` each
appear once, before the rows, and each row index 0-3 once.  Any other
word, or a repeated directive, is refused with the line's number.
"""

from __future__ import annotations

from .algebra import VARS_X, format_terms, parse_poly
from .algebra.fields import checked_prime, decimal
from .algebra.parser import PolyParseError
from .detrep import SymDetRep, validate_rep
from .errors import InputError


def parse_rep_file(text: str) -> SymDetRep:
    q = None  # the characteristic the file declares
    vars_seen = False
    rows: dict[int, list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split()[0]
        if (word == "field" and q is not None) or (word == "vars" and vars_seen):
            raise InputError(f"line {lineno}: repeated '{word}' declaration")
        if word == "field":
            parts = line.split()
            if parts[1:] == ["rational"]:
                q = 0
            elif len(parts) == 3 and parts[1] == "fp":
                try:
                    q = checked_prime(decimal(parts[2]))
                except ValueError:
                    raise InputError(f"line {lineno}: bad prime {parts[2]!r}") from None
            else:
                raise InputError(f"line {lineno}: expected 'field rational' or 'field fp Q'")
        elif word == "vars":
            if line.split() != ["vars", "x1", "x2", "x3"]:
                raise InputError(f"line {lineno}: expected 'vars x1 x2 x3'")
            vars_seen = True
        elif word == "row":
            if q is None or not vars_seen:
                raise InputError(f"line {lineno}: field and vars must come before rows")
            head, _, body = line.partition(":")
            parts = head.split()
            if len(parts) != 2 or not body:
                raise InputError(f"line {lineno}: expected 'row I: e, e, e, e'")
            try:
                idx = decimal(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad row index {parts[1]!r}") from None
            if idx not in range(4) or idx in rows:
                raise InputError(f"line {lineno}: row index {idx} out of range or repeated")
            exprs = body.split(",")
            if len(exprs) != 4:
                raise InputError(f"line {lineno}: row needs exactly 4 entries, got {len(exprs)}")
            entries = []
            for col, expr in enumerate(exprs):
                try:
                    entries.append(parse_poly(expr.strip(), VARS_X, q))
                except PolyParseError as e:
                    raise InputError(f"line {lineno}, entry {col + 1}: {e}") from None
            rows[idx] = entries
        else:
            raise InputError(f"line {lineno}: unrecognized directive {word!r}")
    if q is None:
        raise InputError("missing 'field' declaration")
    if not vars_seen:
        raise InputError("missing 'vars' declaration")
    missing = [i for i in range(4) if i not in rows]
    if missing:
        raise InputError(f"missing rows: {missing}")
    return validate_rep([rows[i] for i in range(4)], q)


def write_rep_file(rep: SymDetRep) -> str:
    lines = [f"field fp {rep.q}" if rep.q else "field rational", "vars x1 x2 x3"]
    for i in range(4):
        entries = ", ".join(format_terms(rep.entry(i, j), VARS_X, rep.den) for j in range(4))
        lines.append(f"row {i}: {entries}")
    return "\n".join(lines) + "\n"
