"""File formats: panel CSV, edge lists, flat result records, and JSON reports.

Panel CSV contract: a header ``unit,time,<var1>,...,<varm>``, then one
row per (unit, time) cell in any order, with integer unit and time labels
and decimal floats for values.  The panel keeps the sorted labels:
``residuals.csv`` carries them, and edge lists name units by them.  Blank
lines and ``#`` comment lines may appear anywhere; a ``# policies=K``
comment sets K, the last one winning.  Numbers follow Python's
``int``/``float`` grammar (so ``nan`` and ``inf`` parse) less underscores
and non-ASCII digits, and labels fit in int64.  A (unit, time) cell given
twice is an error, as is one left out.

Reading: the lines up to the header are read one by one, as bytes.  The
body after it is split into blocks of whole lines, about 1 MB each, that
forked workers parse (``workers.in_shares``); a body under one block is
parsed in this process.  Each block is read from the file by the process
that parses it: one call of numpy's C text reader parses every data row,
and then only the lines that hold a ``#`` are looked at.  If the reader
rejects a row, the block's lines are scanned again in Python for the
first bad one.  This process numbers the blocks' lines in file order, so
the first bad line of the file is reported, and the last K annotated
wins, whatever the split.
Writing: panel-shaped grids (``panel.csv``, ``residuals.csv``) go through
``write_grid``, which formats blocks of rows with one %-template on forked
workers and writes their bytes in order once every block is back; a grid
under one block is formatted in this process.
Result records are flat dicts written as CSV or JSON lines.  Panel grids
and records write floats at 17 significant digits; in records an integral
float keeps a ``.0`` (``1.0``, not ``1``), so that it reads back as a
float, not an int.  Nested reports (``truth.json``, ``fit.json``,
``diagnostics.json``) are written as key-sorted, indented JSON by
``json.dump``, whose floats take Python's shortest round-trip form
(``0.2``, ``4.787232868183451e-18``).  Either way artifacts are byte-stable
and floats round-trip exactly.  Both JSON forms are strict JSON:
a non-finite float is written as ``null`` (CSV keeps ``nan``/``inf``,
which round-trip).  Files are read as UTF-8, past a leading byte-order mark
such as spreadsheet "CSV UTF-8" exports write.  Files that cannot be
opened, decoded as UTF-8 or written raise IoError.
"""

from __future__ import annotations

import codecs
import contextlib
import itertools
import json
import math
import os
import re
import warnings

import numpy as np

from . import workers
from .errors import BadConfig, IoError, ParseError
from .panel import PanelDataset, panel_from_records

__all__ = [
    "fmt_float",
    "write_records",
    "read_records",
    "write_json",
    "load_panel_csv",
    "write_panel_csv",
    "write_grid",
    "load_edge_list",
]


_READ_BLOCK = 1 << 20  # body bytes per read task, rounded up to a line end
_BLOCK_ROWS = 16384  # grid rows per write task
_PIECE_ROWS = 1024  # rows of a write task formatted at once, so little text is held as str
_LONE_CR = re.compile(rb"(?<=\r)(?!\n)")  # the end of a line that ends in a lone CR


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _fmt_value(v, json_lines: bool = False) -> str:
    """Record field text; None is an empty CSV field and JSON null, as is a
    non-finite float in JSON lines; an integral float gains ``.0``, so that
    it reads back as a float."""
    if v is None:
        return "null" if json_lines else ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if json_lines and not math.isfinite(v):
            return "null"
        text = fmt_float(v)
        return text + ".0" if text.lstrip("-").isdigit() else text
    return json.dumps(str(v)) if json_lines else str(v)


def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "json-lines"):
        raise BadConfig(f"unknown format {fmt!r}")


def write_records(records, path, fmt: str = "csv") -> None:
    """Write flat result records as CSV or JSON lines (UTF-8, LF endings).

    The first record's keys name the fields.  An unknown ``fmt``, or an
    empty record set as CSV, which has no header, raises BadConfig before
    ``path`` is opened.
    """
    _check_format(fmt)
    records = list(records)
    if not records and fmt == "csv":
        raise BadConfig("empty record set has no CSV header")
    fieldnames = list(records[0].keys()) if records else []
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "csv":
                fh.write(",".join(fieldnames) + "\n")
                for rec in records:
                    fh.write(",".join(_fmt_value(rec[k]) for k in fieldnames) + "\n")
            else:
                for rec in records:
                    body = ", ".join(
                        f"{json.dumps(k)}: {_fmt_value(rec[k], json_lines=True)}"
                        for k in fieldnames
                    )
                    fh.write("{" + body + "}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(obj, path) -> None:
    """Write a nested report as key-sorted, indented, strict JSON (UTF-8, LF endings).

    numpy arrays become lists and numpy scalars plain numbers; non-finite
    floats become null, as None does in records; any other non-JSON value
    is written as its string form.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_jsonable(obj), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _jsonable(v):
    """``v`` in plain JSON values, with non-finite floats as None."""
    if isinstance(v, dict):
        return {key: _jsonable(x) for key, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if v is None or isinstance(v, (str, int)):
        return v
    return str(v)


def read_records(path, fmt: str = "csv") -> list[dict]:
    """Inverse of write_records; numbers parsed back to int/float, empty fields to None."""
    _check_format(fmt)
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        if fmt == "json-lines":
            for line in fh:
                if line.strip():
                    out.append(json.loads(line))
            return out
        header = fh.readline().strip().split(",")
        for line in fh:
            if not line.strip():
                continue
            rec = {}
            for key, tok in zip(header, line.rstrip("\n").split(",")):
                rec[key] = _parse_token(tok)
            out.append(rec)
    return out


def _parse_token(tok: str):
    if tok == "":
        return None
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def load_panel_csv(path, n_policies: int | None = None) -> PanelDataset:
    """Read a panel CSV into a validated PanelDataset.

    K comes from the ``# policies=K`` annotation unless overridden by
    ``n_policies``.  Row order does not matter: sorting by (unit, time)
    is canonical, and the panel keeps the sorted labels.  A (unit, time)
    cell given twice raises UnbalancedPanel naming it as repeated.

    The body after the header is parsed in blocks of whole lines, about
    ``_READ_BLOCK`` bytes each, shared among forked workers
    (``workers.in_shares``); a body under one block is parsed here.  The
    first bad line of the file is reported whatever the split.
    """
    with _reading(path), open(path, "rb") as fh:
        header, lineno, annotated_k, body = _read_header(fh)
        bounds = _block_bounds(fh, body)
    ncols = len(header)

    def share(first, stop):
        return [_parse_block(path, bounds[i], bounds[i + 1], ncols) for i in range(first, stop)]

    parts, rejected = [], None
    blocks = itertools.chain.from_iterable(workers.in_shares(share, len(bounds) - 1))
    for rows, n_lines, k, problem in blocks:
        if problem is not None:
            at, message = problem
            if at is not None:  # the first bad line of the file
                raise ParseError(message, lineno + at)
            rejected = rejected or ParseError(message)
        annotated_k = annotated_k if k is None else k
        parts.append(rows)
        lineno += n_lines
    if rejected:  # a row numpy's reader rejects and no line check finds
        raise rejected
    rows = np.concatenate(parts)
    if not rows.size:
        raise ParseError("file has no data rows", 2)
    k = n_policies if n_policies is not None else annotated_k
    if k is None:
        raise BadConfig(
            "number of policy variables unknown: add '# policies=K' or pass a flag"
        )
    return panel_from_records(rows["unit"], rows["time"], rows["values"], k, tuple(header[2:]))


@contextlib.contextmanager
def _reading(path):
    """Filesystem and decoding failures within, as IoError naming ``path``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


_MALFORMED = "malformed policies annotation"


def _annotation(line: str, k):
    """K after the comment ``line``: its ``policies=K`` value, else ``k``
    unchanged; ValueError if that value is not an integer."""
    body = line[1:].strip()
    return int(body.split("=", 1)[1]) if body.startswith("policies=") else k


def _read_header(fh):
    """Read the binary file ``fh`` through the header line: (its fields, its
    line number, K annotated so far, the byte offset of the next line).

    Lines end as in text mode (``\\n``, ``\\r\\n`` or a lone ``\\r``), and a
    leading byte-order mark is skipped.
    """
    k, lineno, end = None, 0, 0
    for raw in iter(fh.readline, b""):
        if end == 0 and raw.startswith(codecs.BOM_UTF8):
            raw, end = raw[len(codecs.BOM_UTF8):], len(codecs.BOM_UTF8)
        for piece in filter(None, _LONE_CR.split(raw)):
            end += len(piece)
            lineno += 1
            line = piece.decode("utf-8").strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    k = _annotation(line, k)
                except ValueError:
                    raise ParseError(_MALFORMED, lineno) from None
                continue
            header = [h.strip() for h in line.split(",")]
            if header[:2] != ["unit", "time"] or len(header) < 4:
                raise ParseError("header must be unit,time,<var1>,...,<varm> with m >= 2", lineno)
            return header, lineno, k, end
    raise ParseError("file has no header", 1)


def _block_bounds(fh, body: int) -> list[int]:
    """Byte offsets that split the binary file ``fh``, from ``body`` to its
    end, into the fewest blocks of at most ``_READ_BLOCK`` bytes, of about
    equal size, each then moved on to the next line start."""
    size = os.fstat(fh.fileno()).st_size
    n_blocks = max(1, -(-(size - body) // _READ_BLOCK))
    bounds = [body]
    for i in range(1, n_blocks):
        fh.seek(body + i * (size - body) // n_blocks - 1)
        fh.readline()  # through the end of the line that holds that byte
        bounds.append(fh.tell())
    return bounds + [size]


def _parse_block(path, start: int, stop: int, ncols: int):
    """Parse the body lines in bytes ``start..stop - 1`` of ``path``, which
    start and end on line bounds.

    Lines are stripped first, so blank and comment lines are skipped
    whatever their indentation; every data row is parsed by one call of
    numpy's C reader, and then only the lines that hold a ``#`` are looked
    at.  If the reader rejects a row, every line is looked at.  Returns
    (the rows, the block's line count, the K it annotates last or None, the
    problem), where the problem is None or (the first bad line's number
    within the block, from 1, and why it is bad); a row the reader rejects
    but no line check finds has line number None.
    """
    with _reading(path), open(path, "rb") as fh:
        fh.seek(start)
        text = fh.read(stop - start).decode("utf-8")
    if "\r" in text:  # line ends as text mode reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    dtype = [("unit", "i8"), ("time", "i8"), ("values", "f8", (ncols - 2,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(map(str.strip, lines), dtype=dtype, delimiter=",",
                              comments="#", ndmin=1)
        looked_at, rejected = _lines_with_hash(text), None
    except ValueError as exc:
        rows, rejected = None, (None, f"data rows rejected: {exc}")
        looked_at = enumerate(map(str.strip, lines), start=1)
    k = None
    for at, line in looked_at:
        if line.startswith("#"):
            try:
                k = _annotation(line, k)
            except ValueError:
                return None, 0, None, (at, _MALFORMED)
        elif line and (problem := _row_error(line, ncols)):
            return None, 0, None, (at, problem)
    return rows, text.count("\n"), k, rejected


def _row_error(line: str, ncols: int):
    """Why ``line`` is not a data row of ``ncols`` fields, or None if it is one."""
    toks = line.split(",")
    if len(toks) != ncols:
        return f"expected {ncols} fields, got {len(toks)}"
    if not all(_is_number(tok, int) for tok in toks[:2]):
        return "unit and time must be integers"
    if not all(_is_number(tok, float) for tok in toks[2:]):
        return "values must be decimal floats"
    return None


def _is_number(tok: str, kind) -> bool:
    """Whether numpy's reader takes ``tok`` as a ``kind`` (int or float).

    That is Python's grammar less underscores and non-ASCII digits, with
    integers inside int64.
    """
    tok = tok.strip()
    if "_" in tok or not tok.isascii():
        return False
    try:
        value = kind(tok)
    except ValueError:
        return False
    return kind is float or -(2**63) <= value < 2**63


def _lines_with_hash(text: str):
    """(line number from 1, stripped text) of each line of ``text`` that holds a '#'.

    Looks only at the lines around each '#', so no Python code runs per
    line without one.
    """
    lineno, pos = 0, 0
    while (hit := text.find("#", pos)) >= 0:
        start = text.rfind("\n", 0, hit) + 1
        end = text.find("\n", hit) + 1 or len(text)
        lineno += text.count("\n", pos, start) + 1
        yield lineno, text[start:end].strip()
        pos = end


def write_grid(values, path, variable_names, unit_labels, time_labels, preamble: str = "") -> None:
    """Write an (n, t, m) grid as ``unit,time,<vars>`` CSV rows.

    Units are labelled by the n integer ``unit_labels`` and times by the t
    ``time_labels``; ``preamble`` goes before the header.  Rows are
    formatted with one %-template (``'%.17g' % x`` is ``fmt_float(x)``) in
    blocks of ``_BLOCK_ROWS``, shared among forked workers
    (``workers.in_shares``); a grid under one block is formatted here.
    ``path`` is opened only once every block's bytes are back, so an error
    in formatting leaves it as it was.
    """
    n, t, m = values.shape
    row = "%d,%d" + ",%.17g" * m + "\n"
    flat = values.reshape(n * t, m)
    units = np.repeat(unit_labels, t)
    times = np.tile(time_labels, n)

    def share(first, stop):
        end = min(stop * _BLOCK_ROWS, n * t)
        pieces = []
        for a in range(first * _BLOCK_ROWS, end, _PIECE_ROWS):
            b = min(a + _PIECE_ROWS, end)
            cells = zip(units[a:b].tolist(), times[a:b].tolist(), *flat[a:b].T.tolist())
            pieces.append("".join(map(row.__mod__, cells)).encode())
        return pieces

    shares = workers.in_shares(share, max(1, -(-n * t // _BLOCK_ROWS)))
    try:
        with open(path, "wb") as fh:
            fh.write((preamble + "unit,time," + ",".join(variable_names) + "\n").encode())
            for pieces in shares:
                fh.writelines(pieces)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write a panel with its unit/time labels and the K annotation."""
    write_grid(panel.values, path, panel.variable_names, panel.unit_labels, panel.time_labels,
               preamble=f"# policies={panel.n_policies}\n")


def load_edge_list(path, unit_labels) -> np.ndarray:
    """Read ``unit_a,unit_b`` lines into an adjacency matrix over ``unit_labels``.

    Endpoints are unit labels, as in the panel CSV; row and column i of the
    matrix belong to ``unit_labels[i]``.
    """
    position = {int(label): i for i, label in enumerate(unit_labels)}
    adj = np.zeros((len(position), len(position)))
    with _reading(path), open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split(",")
            if len(toks) != 2:
                raise ParseError("edge lines must be 'unit_a,unit_b'", lineno)
            try:
                ends = [int(tok) for tok in toks]
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno)
            if unknown := [end for end in ends if end not in position]:
                raise ParseError(f"edge endpoint {unknown[0]} is not a unit of the panel", lineno)
            a, b = (position[end] for end in ends)
            if a == b:
                raise ParseError("self-loops are not allowed", lineno)
            adj[a, b] = adj[b, a] = 1.0
    return adj


def ensure_dir(path) -> None:
    """Create the output directory ``path`` and its parents if missing."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc
