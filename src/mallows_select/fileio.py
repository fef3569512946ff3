"""Text formats for rankings, selection sequences, and sample profiles.

Profile files: a header line ``n,r`` or ``n,r,beta``, then one line per
sample, ``S:0,2,4|R:4,0,2``.  Selection-only files omit the ``R:`` part.
Rankings serialize as a single comma-separated line of alternatives in
rank order.  All identifiers are 0-based.

The per-line checks of :func:`_check_line` define the accepted language
and word every error: the lines are those of ``str.splitlines``, blank
lines are skipped and take no line number, and a token is whatever
``int`` reads after the line is stripped, so spaces around a token, a
``+`` sign, ``_`` separators and non-ASCII digits are accepted.  A file
is read in two passes.  A byte pass tokenises the UTF-8 of all non-blank
lines at once with array operations and reads every line in the form
that :func:`format_profile` writes whose invariants all hold: the line
shape, no empty token, no duplicate (by sorting ``line * n + item``),
every item in ``[0, n)``, a set of at least two, a ranking whose sorted
items equal the set's.  When every line passes, the byte pass's arrays
are the file's, and the common file builds no per-line object.  When any
line leaves it, the whole file is read line by line by the per-line
checks instead, so a file reads, and fails, exactly as it would line by
line, errors and their order included.  Readers pass the CSR arrays to
the core types as they are; writers read them.
"""

from __future__ import annotations

import numpy as np

from .core import _MAX_N, SampleProfile, SelectionSequence, _csr_arrays
from .sampling import _check_frequency, verify_p_frequent


class FileFormatError(ValueError):
    """A profile or selection file violates the format or its invariants."""

    def __init__(self, errors: list[dict]):
        self.errors = errors
        super().__init__("; ".join(e["message"] for e in errors[:5]) + ("" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"))


def _err(line: int, message: str, **extra) -> dict:
    rec = {"line": line, "message": message}
    rec.update(extra)
    return rec


def _row_texts(n: int, offsets: np.ndarray, items: np.ndarray) -> list[str]:
    """Each CSR row ``items[offsets[l]:offsets[l+1]]`` as comma-joined labels, read from one label table."""
    labels = [str(x) for x in range(n)]
    text = list(map(labels.__getitem__, items.tolist()))
    bounds = offsets.tolist()
    return [",".join(text[a:b]) for a, b in zip(bounds, bounds[1:])]


def format_profile(profile: SampleProfile, beta: float | None = None) -> str:
    header = f"{profile.n},{len(profile)}" + (f",{beta:g}" if beta is not None else "")
    rows = (_row_texts(profile.n, profile.offsets, items) for items in (profile.set_items, profile.rank_items))
    return "\n".join([header] + [f"S:{s}|R:{rk}" for s, rk in zip(*rows)]) + "\n"


def format_selection(selection: SelectionSequence) -> str:
    sets = _row_texts(selection.n, selection.offsets, selection.items)
    return "\n".join([f"{selection.n},{len(selection)}"] + [f"S:{s}" for s in sets]) + "\n"


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
    if n > _MAX_N:
        raise FileFormatError([_err(1, f"header n={n} is over the limit of {_MAX_N} alternatives")])
    if beta is not None and not 0 < beta < float("inf"):
        raise FileFormatError([_err(1, f"header beta must be positive and finite, got {parts[2].strip()}")])
    return n, r, beta


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty token is an error, an empty text no integers."""
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def _check_line(raw: str, line_no: int, n: int) -> dict | tuple[tuple[int, ...], tuple[int, ...] | None]:
    """One sample line read by the definition of the format: its sorted set and its ranking (None on a
    selection-only line), or the error record of the first check it fails."""
    part = raw.strip()
    if not part.startswith("S:"):
        return _err(line_no, "sample line must start with 'S:'")
    payload = part[2:]
    s_text, has_ranking, r_text = payload.partition("|R:")
    try:
        s_items = _ints(s_text)
    except ValueError:
        return _err(line_no, f"unparseable selection set {s_text!r}")
    s_sorted = tuple(sorted(s_items))
    if len(set(s_sorted)) != len(s_sorted):
        dup = sorted({x for x in s_items if s_items.count(x) > 1})
        return _err(line_no, f"duplicate alternative {dup[0]} in selection set", item=dup[0])
    if len(s_sorted) < 2:
        return _err(line_no, "selection set needs at least two alternatives")
    if s_sorted[0] < 0 or s_sorted[-1] >= n:
        bad = [x for x in s_items if x < 0 or x >= n]
        return _err(line_no, f"alternative {bad[0]} outside [0, {n})", item=bad[0])
    if not has_ranking:
        return s_sorted, None
    try:
        r_items = _ints(r_text)
    except ValueError:
        return _err(line_no, f"unparseable ranking {r_text!r}")
    if len(set(r_items)) != len(r_items):
        dup = sorted({x for x in r_items if r_items.count(x) > 1})
        return _err(line_no, f"duplicate alternative {dup[0]} in ranking", item=dup[0])
    if tuple(sorted(r_items)) != s_sorted:
        return _err(line_no, "ranking is not a permutation of its selection set")
    return s_sorted, r_items


# byte classes of the byte pass: digits, commas, and every other byte, which a canonical line holds
# exactly six of, in the order of _LAYOUT
_DIGIT, _COMMA = 1, 2
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord(",")] = _COMMA
_LAYOUT = np.frombuffer(b"S:|R:\n", dtype=np.uint8)
_MAX_DIGITS = 9  # int32 holds every shorter digit run; a longer one goes to the per-line checks


def _positions(mask: np.ndarray) -> np.ndarray:
    """The indices of the true entries of ``mask``, as int32."""
    return np.flatnonzero(mask).astype(np.int32)


def _byte_pass(body: list[str], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read the lines of ``body`` that are canonical and valid, all at once from their bytes.

    Returns ``(ok, offsets, set_items, rank_items)``: ``ok[i]`` marks line
    i as read, and the CSR arrays hold the read lines in order, sets
    sorted.  A line is read when it is ``S:<set>|R:<ranking>``, each part
    runs of at most nine ASCII digits joined by single commas, its set
    holds at least two distinct items below n, and its ranking is a
    permutation of its set.  Every other line is left to the per-line
    checks.  Positions are int32 and bytes uint8, so the scratch arrays
    stay a few times the size of the text.
    """
    lines = len(body)
    if not lines:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=bool), np.zeros(1, dtype=np.int64), empty, empty
    data = np.frombuffer(("\n".join(body) + "\n").encode(errors="surrogatepass"), dtype=np.uint8)
    cls = _BYTE_CLASS[data]
    ends = _positions(data == 10)  # line i ends at ends[i]
    starts = np.concatenate(([0], ends[:-1] + 1)).astype(np.int32)

    # line shape: the six layout bytes in place, both parts nonempty
    marks = _positions(cls == 0)
    per_line = np.diff(np.searchsorted(marks, ends, side="right"), prepend=0)
    shaped = np.flatnonzero(per_line == 6)
    at = marks[np.cumsum(per_line)[shaped, None] - 6 + np.arange(6)]
    ok = np.zeros(lines, dtype=bool)
    ok[shaped] = (
        (data[at] == _LAYOUT).all(axis=1) & (at[:, 0] == starts[shaped]) & (at[:, 1] == at[:, 0] + 1)
        & (at[:, 3] == at[:, 2] + 1) & (at[:, 4] == at[:, 2] + 2) & (at[:, 2] > at[:, 1] + 1) & (at[:, 5] > at[:, 4] + 1)
    )
    pipe = starts.copy()
    pipe[shaped] = at[:, 2]

    # tokens: commas only between digits, digit runs of at most _MAX_DIGITS, each part's count
    comma = _positions(cls == _COMMA)
    ok[np.searchsorted(ends, comma[(cls[comma - 1] != _DIGIT) | (cls[comma + 1] != _DIGIT)])] = False
    step = np.diff((cls == _DIGIT).view(np.int8), prepend=np.int8(0))  # +1 where a run starts, -1 after it ends
    del comma, cls
    tok = _positions(step == 1)
    length = _positions(step == -1) - tok  # the text ends in a newline, so every run ends
    del step
    ok[np.searchsorted(ends, tok[length > _MAX_DIGITS])] = False
    first, mid, last = (np.searchsorted(tok, bound).astype(np.int32) for bound in (starts, pipe, ends))
    set_count = mid - first
    ok &= (set_count >= 2) & (set_count == last - mid)

    # values, in range
    values = (data[tok] - 48).astype(np.int32)
    for k in range(1, min(int(length.max(initial=0)), _MAX_DIGITS)):
        more = length > k
        values[more] = values[more] * 10 + (data[tok[more] + k] - 48)
    del tok, length
    line = np.repeat(np.arange(lines, dtype=np.int32), last - first)
    ok[line[values >= n]] = False

    # per line: distinct set items, and a ranking whose sorted items are the set's
    in_ranking = np.arange(len(line), dtype=np.int32) >= np.repeat(mid, last - first)
    take = ok[line]
    set_keys = np.sort(line[take & ~in_ranking].astype(np.int64) * n + values[take & ~in_ranking])
    take &= in_ranking
    rank_keys = line[take].astype(np.int64) * n + values[take]
    del line, values, in_ranking, take
    ok[set_keys[1:][set_keys[1:] == set_keys[:-1]] // n] = False
    ok[set_keys[set_keys != np.sort(rank_keys)] // n] = False
    set_keys, rank_keys = set_keys[ok[set_keys // n]], rank_keys[ok[rank_keys // n]]
    return ok, np.concatenate(([0], np.cumsum(set_count[ok], dtype=np.int64))), set_keys % n, rank_keys % n


def _scan(text: str) -> tuple[float | None, SelectionSequence, np.ndarray, bool]:
    """Read and check every line; raises FileFormatError listing every error.

    Returns ``(beta, selection, rank_items, selection_only)``: the sample
    lines' sets, their rankings as rows on the selection's offsets, and
    whether any line is selection-only (its ranking row repeats its set).
    Every invariant the core types check on construction has been checked.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError([_err(1, "missing header line")])
    n, r, beta = _parse_header(lines[0])

    errors: list[dict] = []
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != r:
        errors.append(_err(1, f"header declares r={r} but file holds {len(body)} sample lines"))
    ok, offsets, set_items, rank_items = _byte_pass(body, n)
    # a line the byte pass reads gives no error, so when any line leaves it, reading every line changes no error
    checked = [] if ok.all() else [_check_line(line, i + 2, n) for i, line in enumerate(body)]
    errors += [c for c in checked if isinstance(c, dict)]
    if errors:
        raise FileFormatError(errors)
    if checked:
        offsets, set_items = _csr_arrays([s for s, _ in checked])
        rank_items = _csr_arrays([s if rk is None else rk for s, rk in checked])[1]
    return beta, SelectionSequence._from_arrays(n, offsets, set_items), rank_items, any(rk is None for _, rk in checked)


def collect_profile_errors(text: str, p: float | None = None) -> list[dict]:
    """Validate profile text; returns an itemized error list (empty when valid); a bad ``p`` raises first."""
    if p is not None:
        _check_frequency(p)
    try:
        selection = _scan(text)[1]
    except FileFormatError as exc:
        return exc.errors
    if p is None or not len(selection):
        return []
    report = verify_p_frequent(selection, p)
    if report.ok:
        return []
    pair = report.worst_pairs()[0]
    count = int(report.counts[pair[0], pair[1]])
    message = f"sequence is not {p:g}-frequent: pair {pair} co-appears in {count}/{len(selection)} sets"
    return [_err(1, message, pair=list(pair), count=count)]


def parse_profile(text: str) -> tuple[SampleProfile, float | None]:
    """Parse a profile file; raises FileFormatError with itemized errors."""
    beta, selection, rank_items, selection_only = _scan(text)
    if selection_only:
        raise FileFormatError([_err(1, "profile file has selection-only lines; use parse_selection")])
    return SampleProfile._from_arrays(selection, rank_items), beta


def parse_selection(text: str) -> SelectionSequence:
    return _scan(text)[1]
