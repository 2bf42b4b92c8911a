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

Reading: the lines up to the header are read one by one; every data row
is then parsed by one call of numpy's C text reader, and a second pass
looks only at the lines that hold a ``#``.  If the reader rejects a row,
the rows are scanned again in Python to report the first bad line.
Writing: panel-shaped grids (``panel.csv``, ``residuals.csv``) go through
``write_grid``, which formats rows with one %-template and streams them.
Result records are flat dicts written as CSV or JSON lines.  Panel grids
and records write floats at 17 significant digits; in records an integral
float keeps a ``.0`` (``1.0``, not ``1``), so that it reads back as a
float, not an int.  Nested reports (``truth.json``, ``fit.json``,
``diagnostics.json``) are written as key-sorted, indented JSON by
``json.dump``, whose floats take Python's shortest round-trip form
(``0.2``, ``4.787232868183451e-18``).  Either way artifacts are byte-stable
and floats round-trip exactly.  Both JSON forms are strict JSON:
a non-finite float is written as ``null`` (CSV keeps ``nan``/``inf``,
which round-trip).  Files that cannot be opened, decoded as UTF-8 or
written raise IoError.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings

import numpy as np

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


_BLOCK_ROWS = 8192  # grid rows formatted per writelines call


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


def write_records(records, path, fmt: str = "csv", fieldnames=None) -> None:
    """Write flat result records as CSV or JSON lines (UTF-8, LF endings)."""
    records = list(records)
    if fieldnames is None:
        if not records and fmt == "csv":
            raise BadConfig("empty record set needs explicit fieldnames for the header")
        fieldnames = list(records[0].keys()) if records else []
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "csv":
                fh.write(",".join(fieldnames) + "\n")
                for rec in records:
                    fh.write(",".join(_fmt_value(rec[k]) for k in fieldnames) + "\n")
            elif fmt == "json-lines":
                for rec in records:
                    body = ", ".join(
                        f"{json.dumps(k)}: {_fmt_value(rec[k], json_lines=True)}"
                        for k in fieldnames
                    )
                    fh.write("{" + body + "}\n")
            else:
                raise BadConfig(f"unknown format {fmt!r}")
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
    out = []
    with open(path, encoding="utf-8") as fh:
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
    """
    with _read_text(path) as fh:
        header, lineno, annotated_k = _read_header(fh)
        ncols = len(header)
        body = fh.tell()
        rows = _read_rows(fh, lineno, ncols, body)
        fh.seek(body)
        for at, line in _lines_with_hash(fh, lineno):
            if not line.startswith("#"):
                raise ParseError(_row_error(line, ncols), at)
            annotated_k = _annotation(line, at, annotated_k)
    if not rows.size:
        raise ParseError("file has no data rows", 2)
    k = n_policies if n_policies is not None else annotated_k
    if k is None:
        raise BadConfig(
            "number of policy variables unknown: add '# policies=K' or pass a flag"
        )
    return panel_from_records(rows["unit"], rows["time"], rows["values"], k, tuple(header[2:]))


@contextlib.contextmanager
def _read_text(path):
    """Open ``path`` as UTF-8 text; filesystem and decoding failures become IoError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _annotation(line: str, lineno: int, k):
    """K after the comment ``line``: its ``policies=K`` value, else ``k`` unchanged."""
    body = line[1:].strip()
    if not body.startswith("policies="):
        return k
    try:
        return int(body.split("=", 1)[1])
    except ValueError:
        raise ParseError("malformed policies annotation", lineno)


def _read_header(fh):
    """Read through the header line: (its fields, its line number, K annotated so far)."""
    k = None
    for lineno, raw in enumerate(iter(fh.readline, ""), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            k = _annotation(line, lineno, k)
            continue
        header = [h.strip() for h in line.split(",")]
        if header[:2] != ["unit", "time"] or len(header) < 4:
            raise ParseError("header must be unit,time,<var1>,...,<varm> with m >= 2", lineno)
        return header, lineno, k
    raise ParseError("file has no header", 1)


def _read_rows(fh, lineno: int, ncols: int, body):
    """Every data row after the header, parsed by numpy's C reader.

    Lines are stripped first, so blank and comment lines are skipped
    whatever their indentation.  If the reader rejects a row, the lines
    are scanned again from ``body`` (the position after the header) and
    the first one that is not a data row raises ParseError.
    """
    dtype = [("unit", "i8"), ("time", "i8"), ("values", "f8", (ncols - 2,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(map(str.strip, fh), dtype=dtype, delimiter=",",
                              comments="#", ndmin=1)
    except ValueError as exc:
        fh.seek(body)
        for at, raw in enumerate(fh, start=lineno + 1):
            line = raw.strip()
            if line.startswith("#"):
                _annotation(line, at, None)
            elif line and (problem := _row_error(line, ncols)):
                raise ParseError(problem, at)
        raise ParseError(f"data rows rejected: {exc}") from exc


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


def _lines_with_hash(fh, lineno: int):
    """(line number, stripped text) of each line after line ``lineno`` that holds a '#'.

    Reads in blocks and looks only at the lines around each '#', so no
    Python code runs per line without one.
    """
    while block := fh.read(1 << 20):
        block += fh.readline()
        pos = 0
        while (hit := block.find("#", pos)) >= 0:
            start = block.rfind("\n", 0, hit) + 1
            end = block.find("\n", hit) + 1 or len(block)
            lineno += block.count("\n", pos, start) + 1
            yield lineno, block[start:end].strip()
            pos = end
        lineno += block.count("\n", pos)


def write_grid(values, path, variable_names, unit_labels, time_labels, preamble: str = "") -> None:
    """Write an (n, t, m) grid as ``unit,time,<vars>`` CSV rows.

    Units are labelled by the n integer ``unit_labels`` and times by the t
    ``time_labels``; ``preamble`` goes before the header.  Rows are
    formatted with one %-template in blocks of ``_BLOCK_ROWS`` and streamed
    to the file; ``'%.17g' % x`` is ``fmt_float(x)``.
    """
    n, t, m = values.shape
    row = "%d,%d" + ",%.17g" * m + "\n"
    flat = values.reshape(n * t, m)
    units = np.repeat(unit_labels, t)
    times = np.tile(time_labels, n)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(preamble + "unit,time," + ",".join(variable_names) + "\n")
            for a in range(0, n * t, _BLOCK_ROWS):
                b = a + _BLOCK_ROWS
                cells = zip(units[a:b].tolist(), times[a:b].tolist(), *flat[a:b].T.tolist())
                fh.writelines(map(row.__mod__, cells))
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
    with _read_text(path) as fh:
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
