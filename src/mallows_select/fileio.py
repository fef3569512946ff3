"""Text formats for rankings, selection sequences, and sample profiles.

Profile files: a header line ``n,r`` or ``n,r,beta``, then one line per
sample, ``S:0,2,4|R:4,0,2``.  Selection-only files omit the ``R:`` part.
Rankings serialize as a single comma-separated line of alternatives in
rank order.  All identifiers are 0-based.

The per-line checks of :func:`_check_line` define the accepted language
and word every error: the lines are those of ``str.splitlines``, blank
lines are skipped and take no line number, and a token is whatever
``int`` reads after the line is stripped, so spaces around a token, a
``+`` sign, ``_`` separators and non-ASCII digits are accepted.  The
UTF-8 of the text after the header line, or of a file's bytes where they
are ASCII without a ``\\r``, is read whole or declined by a byte pass,
one pass of ``scan_rows`` in ``_rows.c``, where core's compiled kernels
load; where they do not, every file is read line by line.  The pass
reads a body whose lines, ended by ``\\n`` or ``\\r\\n`` and blank only
at its ends, all take the form that :func:`format_profile` writes, or
all the form of :func:`format_selection`, and whose invariants all
hold: the line shape, no empty token, items in ``[0, n)``, each set
ascending with two items or more and each ranking a permutation of
its set.  Its arrays are then the file's.  Only a file it declines is
decoded and split into lines, for the per-line checks, so a file reads,
and fails, exactly as line by line, errors and their order included.
Readers pass the CSR arrays to the core types as they are.  Writers read
them: one pass of ``format_rows`` in ``_rows.c`` writes every line into
one buffer where the compiled kernels load, and the rows are joined from
per-item labels otherwise, with the same bytes.
"""

from __future__ import annotations

import io

import numpy as np

from . import core
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


def _label_table(n: int) -> np.ndarray:
    """Row x < n of an n x 8 byte table, as ``format_rows`` reads it: the digits of x, a comma and zeros, with the
    count of digits in the last byte (so n is at most 10^6)."""
    x, width, digits = np.arange(n), len(str(max(n - 1, 0))), np.ones(n, np.int64)
    for k in range(1, width):
        digits += x >= 10**k
    table = np.zeros((n, 8), np.uint8)
    for k in range(width):  # the k-th digit from the right
        has = digits > k
        table[x[has], digits[has] - 1 - k] = ord("0") + x[has] // 10**k % 10
    table[x, digits] = ord(",")
    table[:, 7] = digits
    return table


def _format_rows(header: str, n: int, offsets: np.ndarray, set_items: np.ndarray, rank_items: np.ndarray | None) -> str:
    """``header``, then one line per CSR row: ``S:<set>|R:<ranking>``, or ``S:<set>`` where ``rank_items`` is None.

    Where core's compiled kernels load, ``format_rows`` writes the lines
    into one buffer behind the header, sized by the digits of ``n - 1``,
    copying each label from :func:`_label_table`, and the text is decoded
    from it once; :func:`_row_texts` builds them otherwise, with the same
    result.
    """
    kernels = core._row_kernels()
    if kernels is None:
        parts = [_row_texts(n, offsets, items) for items in (set_items, rank_items) if items is not None]
        return "\n".join([header] + [f"S:{line}" for line in map("|R:".join, zip(*parts))]) + "\n"
    offsets, set_items = core._checked_csr(offsets, set_items)
    ranks = None if rank_items is None else core._checked_csr(offsets, rank_items)[1]
    head, rows = f"{header}\n".encode(), len(offsets) - 1
    # with d the digits of n - 1, each part of a row of m items takes at most 2 + m (d + 1) bytes, and the last label
    # copied may write 6 bytes past the text
    part = 2 * rows + len(set_items) * (len(str(n - 1)) + 1)
    buf = np.empty(len(head) + (1 if ranks is None else 2) * part + 6, np.uint8)
    buf[: len(head)] = np.frombuffer(head, np.uint8)
    rank_data, labels = None if ranks is None else ranks.ctypes.data, _label_table(n)
    written = kernels.format_rows(
        n, rows, offsets.ctypes.data, set_items.ctypes.data, rank_data, labels.ctypes.data, buf.ctypes.data + len(head)
    )
    if written < 0:
        raise IndexError(f"a row holds an item outside [0, {n})")
    return str(memoryview(buf)[: len(head) + written], "ascii")


def format_profile(profile: SampleProfile, beta: float | None = None) -> str:
    header = f"{profile.n},{len(profile)}" + (f",{beta:g}" if beta is not None else "")
    return _format_rows(header, profile.n, profile.offsets, profile.set_items, profile.rank_items)


def format_selection(selection: SelectionSequence) -> str:
    return _format_rows(f"{selection.n},{len(selection)}", selection.n, selection.offsets, selection.items, None)


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


def _byte_pass(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """Read every line of ``data``, the UTF-8 of a file's body after its header line, or decline the whole file.

    Returns ``(offsets, set_items, rank_items)``, the CSR arrays of the
    lines in order, as written, when every line is canonical and valid,
    and None as soon as any check fails.  All lines, each ended by a
    newline, take the layout of the first: ``S:<set>|R:<ranking>``, or
    ``S:<set>``, for which ``rank_items`` is None; an empty body reads as
    the former.  Each part is runs of at most nine ASCII digits joined by
    single commas, a set holds at least two items below n in ascending
    order, and a ranking is a permutation of its set.  The C pass,
    ``scan_rows``, reads the bytes once into arrays sized by the token
    count, commas plus one per part.  Without core's compiled kernels,
    every file is declined, and the per-line checks read it.
    """
    kernels = core._row_kernels()
    if kernels is None or data and not data.endswith(b"\n"):
        return None
    lines = np.count_nonzero((view := np.frombuffer(data, np.uint8)) == ord("\n"))
    parts = 2 if not lines or b"|" in data[: data.index(b"\n")] else 1
    tokens = np.count_nonzero(view == ord(",")) + lines * parts
    if tokens % parts:
        return None
    offsets, stamp = np.empty(lines + 1, np.int64), np.zeros(n, np.int64)
    set_items = np.empty(tokens // parts, np.int64)
    rank_items = np.empty(len(set_items), np.int64) if parts == 2 else None
    failed = kernels.scan_rows(
        data, len(data), lines, n, parts == 2, len(set_items), stamp.ctypes.data, offsets.ctypes.data,
        set_items.ctypes.data, None if rank_items is None else rank_items.ctypes.data,
    )
    return None if failed else (offsets, set_items, rank_items)


def _scan(text: str | bytes) -> tuple[float | None, SelectionSequence, np.ndarray, bool]:
    """Read and check every line of a text, or of a file's bytes; raises FileFormatError listing every error.

    Returns ``(beta, selection, rank_items, selection_only)``: the sample
    lines' sets, their rankings as rows on the selection's offsets, and
    whether any line is selection-only (its ranking row repeats its set).
    Every invariant the core types check on construction has been checked.
    Bytes read as ``Path.read_text`` reads their file: as they are where ASCII
    without a ``\\r``, and otherwise decoded by the locale codec, strict, with universal newlines.
    """
    if isinstance(text, bytes) and not (text.isascii() and b"\r" not in text):
        text = io.TextIOWrapper(io.BytesIO(text), encoding=io.text_encoding(None)).read()
    raw = isinstance(text, bytes)
    head, _, rest = text.partition(b"\n" if raw else "\n")
    head = head.decode() if raw else head
    first = head.splitlines()[:1]  # the text's first line, as str.splitlines reads it
    if not first or not first[0].strip():
        raise FileFormatError([_err(1, "missing header line")])
    n, r, beta = _parse_header(first[0])

    # the body after a header line ended by "\n" or "\r\n" takes the byte pass, "\r\n" read as "\n", the blank lines at
    # its ends dropped and a final newline put in; only a file it declines is decoded, if bytes, and split into lines
    data = rest if raw else (rest.replace("\r\n", "\n") if "\r" in rest else rest).encode(errors="surrogatepass")
    if data[:1] == b"\n" or not data.endswith(b"\n") or data.endswith(b"\n\n"):
        data = (data.strip(b"\n") + b"\n").lstrip(b"\n")
    read = _byte_pass(data, n) if first == [head.removesuffix("\r")] else None
    body = [] if read is not None else [ln for ln in (text.decode() if raw else text).splitlines()[1:] if ln.strip()]
    checked = [] if read is not None else [_check_line(line, i + 2, n) for i, line in enumerate(body)]
    count = len(body) if read is None else len(read[0]) - 1
    errors = [] if count == r else [_err(1, f"header declares r={r} but file holds {count} sample lines")]
    errors += [c for c in checked if isinstance(c, dict)]
    if errors:
        raise FileFormatError(errors)
    if read is None:
        offsets, set_items = _csr_arrays([s for s, _ in checked])
        read = offsets, set_items, _csr_arrays([s if rk is None else rk for s, rk in checked])[1]
    offsets, set_items, rank_items = read
    selection_only = rank_items is None or any(rk is None for _, rk in checked)
    return beta, SelectionSequence._from_arrays(n, offsets, set_items), set_items if rank_items is None else rank_items, selection_only


def collect_profile_errors(text: str | bytes, p: float | None = None) -> list[dict]:
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
    # the first minimal pair of the row-major upper triangle, worst_pairs()[0], without building the others
    n, counts = selection.n, report.counts
    upper = np.arange(n)[:, None] < np.arange(n)
    pair = divmod(int(np.argmax((counts == np.min(counts, initial=len(selection), where=upper)) & upper)), n)
    count = int(counts[pair])
    message = f"sequence is not {p:g}-frequent: pair {pair} co-appears in {count}/{len(selection)} sets"
    return [_err(1, message, pair=list(pair), count=count)]


def parse_profile(text: str | bytes) -> tuple[SampleProfile, float | None]:
    """Parse a profile file; raises FileFormatError with itemized errors."""
    beta, selection, rank_items, selection_only = _scan(text)
    if selection_only:
        raise FileFormatError([_err(1, "profile file has selection-only lines; use parse_selection")])
    return SampleProfile._from_arrays(selection, rank_items), beta


def parse_selection(text: str | bytes) -> SelectionSequence:
    return _scan(text)[1]
