"""Text formats for rankings, selection sequences, and sample profiles.

Profile files: a header line ``n,r`` or ``n,r,beta``, then one line per
sample, ``S:0,2,4|R:4,0,2``.  Selection-only files omit the ``R:`` part.
Rankings serialize as a single comma-separated line of alternatives in
rank order.  All identifiers are 0-based.
"""

from __future__ import annotations

from .core import Ranking, SampleProfile, SelectionSequence
from .sampling import verify_p_frequent


# a larger header n is refused before any n x n table is made; one int64 table at this n takes 512 MiB
_MAX_HEADER_N = 8192


class FileFormatError(ValueError):
    """A profile or selection file violates the format or its invariants."""

    def __init__(self, errors: list[dict]):
        self.errors = errors
        super().__init__("; ".join(e["message"] for e in errors[:5]) + ("" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"))


def _err(line: int, message: str, **extra) -> dict:
    rec = {"line": line, "message": message}
    rec.update(extra)
    return rec


def format_profile(profile: SampleProfile, beta: float | None = None) -> str:
    header = f"{profile.n},{len(profile)}" + (f",{beta:g}" if beta is not None else "")
    lines = [header]
    for s, rk in zip(profile.selection, profile.rankings):
        lines.append("S:" + ",".join(map(str, s)) + "|R:" + rk.to_line())
    return "\n".join(lines) + "\n"


def format_selection(selection: SelectionSequence) -> str:
    lines = [f"{selection.n},{len(selection)}"]
    for s in selection:
        lines.append("S:" + ",".join(map(str, s)))
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> tuple[int, int, float | None]:
    parts = line.strip().split(",")
    if len(parts) not in (2, 3):
        raise FileFormatError([_err(1, "header must be 'n,r' or 'n,r,beta'")])
    try:
        n, r = int(parts[0]), int(parts[1])
        beta = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise FileFormatError([_err(1, f"unparseable header {line.strip()!r}")]) from None
    if n < 1 or r < 0:
        raise FileFormatError([_err(1, f"header values out of range: n={n}, r={r}")])
    if n > _MAX_HEADER_N:
        raise FileFormatError([_err(1, f"header n={n} is over the limit of {_MAX_HEADER_N} alternatives")])
    if beta is not None and not 0 < beta < float("inf"):
        raise FileFormatError([_err(1, f"header beta must be positive and finite, got {parts[2].strip()}")])
    return n, r, beta


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty token is an error, an empty text no integers."""
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def _scan(text: str) -> tuple[int, float | None, list[tuple[int, ...]], list[tuple[int, ...] | None]]:
    """Tokenize and check every line once; raises FileFormatError listing every error.

    Returns ``(n, beta, sets, rankings)``: the sorted selection set of every
    sample line, and its ranking, or None on a selection-only line.  Every
    invariant the core types check on construction has been checked.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError([_err(1, "missing header line")])
    n, r, beta = _parse_header(lines[0])

    errors: list[dict] = []
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != r:
        errors.append(_err(1, f"header declares r={r} but file holds {len(body)} sample lines"))
    sets: list[tuple[int, ...]] = []
    rankings: list[tuple[int, ...] | None] = []
    for line_no, raw in enumerate(body, start=2):
        part = raw.strip()
        if not part.startswith("S:"):
            errors.append(_err(line_no, "sample line must start with 'S:'"))
            continue
        payload = part[2:]
        s_text, has_ranking, r_text = payload.partition("|R:")
        try:
            s_items = _ints(s_text)
        except ValueError:
            errors.append(_err(line_no, f"unparseable selection set {s_text!r}"))
            continue
        s_sorted = tuple(sorted(s_items))
        if len(set(s_sorted)) != len(s_sorted):
            dup = sorted({x for x in s_items if s_items.count(x) > 1})
            errors.append(_err(line_no, f"duplicate alternative {dup[0]} in selection set", item=dup[0]))
            continue
        if len(s_sorted) < 2:
            errors.append(_err(line_no, "selection set needs at least two alternatives"))
            continue
        if s_sorted[0] < 0 or s_sorted[-1] >= n:
            bad = [x for x in s_items if x < 0 or x >= n]
            errors.append(_err(line_no, f"alternative {bad[0]} outside [0, {n})", item=bad[0]))
            continue
        sets.append(s_sorted)
        if not has_ranking:
            rankings.append(None)
            continue
        try:
            r_items = _ints(r_text)
        except ValueError:
            errors.append(_err(line_no, f"unparseable ranking {r_text!r}"))
            continue
        if len(set(r_items)) != len(r_items):
            dup = sorted({x for x in r_items if r_items.count(x) > 1})
            errors.append(_err(line_no, f"duplicate alternative {dup[0]} in ranking", item=dup[0]))
            continue
        if tuple(sorted(r_items)) != s_sorted:
            errors.append(_err(line_no, "ranking is not a permutation of its selection set"))
            continue
        rankings.append(r_items)
    if errors:
        raise FileFormatError(errors)
    return n, beta, sets, rankings


def collect_profile_errors(text: str, p: float | None = None) -> list[dict]:
    """Validate profile text; returns an itemized error list (empty when valid)."""
    try:
        n, _beta, sets, _rankings = _scan(text)
    except FileFormatError as exc:
        return exc.errors
    if p is None or not sets:
        return []
    report = verify_p_frequent(SelectionSequence(sets, n, validate=False), p)
    if report.ok:
        return []
    pair = report.worst_pairs()[0]
    count = int(report.counts[pair[0], pair[1]])
    message = f"sequence is not {p:g}-frequent: pair {pair} co-appears in {count}/{len(sets)} sets"
    return [_err(1, message, pair=list(pair), count=count)]


def parse_profile(text: str) -> tuple[SampleProfile, float | None]:
    """Parse a profile file; raises FileFormatError with itemized errors."""
    n, beta, sets, rankings = _scan(text)
    if None in rankings:
        raise FileFormatError([_err(1, "profile file has selection-only lines; use parse_selection")])
    selection = SelectionSequence(sets, n, validate=False)
    return SampleProfile([Ranking(rk, validate=False) for rk in rankings], selection, validate=False), beta


def parse_selection(text: str) -> SelectionSequence:
    n, _beta, sets, _rankings = _scan(text)
    return SelectionSequence(sets, n, validate=False)
