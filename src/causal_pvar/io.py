"""File formats: panel CSV, edge lists, flat result records, and JSON reports.

Panel CSV contract: an optional ``# policies=K`` comment line, a header
``unit,time,<var1>,...,<varm>``, rows sorted by (unit, time), integer unit
and time labels, decimal floats for values.  Result records are flat
dicts written as CSV or JSON lines with floats at 17 significant digits
so artifacts are byte-stable and round-trip exactly.  Nested reports
(truth, fit, diagnostics) are written as key-sorted, indented JSON.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import BadConfig, IoError, ParseError, UnbalancedPanel
from .panel import PanelDataset, panel_from_records

__all__ = [
    "fmt_float",
    "write_records",
    "read_records",
    "write_json",
    "load_panel_csv",
    "write_panel_csv",
    "load_edge_list",
]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _fmt_value(v, quote=str) -> str:
    """Record field text; ``quote`` renders non-numeric values (json.dumps for JSON)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return quote(str(v))


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
                        f"{json.dumps(k)}: {_fmt_value(rec[k], json.dumps)}" for k in fieldnames
                    )
                    fh.write("{" + body + "}\n")
            else:
                raise BadConfig(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(obj, path) -> None:
    """Write a nested report as key-sorted, indented JSON (UTF-8, LF endings).

    numpy arrays become lists and numpy scalars plain numbers; any other
    non-JSON value is written as its string form.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2, default=_jsonable)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    return str(v)


def read_records(path, fmt: str = "csv") -> list[dict]:
    """Inverse of write_records; numbers parsed back to int/float."""
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
    is canonical.
    """
    units, times, rows = [], [], []
    header = None
    annotated_k = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("policies="):
                    try:
                        annotated_k = int(body.split("=", 1)[1])
                    except ValueError:
                        raise ParseError("malformed policies annotation", lineno)
                continue
            if header is None:
                header = [h.strip() for h in line.split(",")]
                if header[:2] != ["unit", "time"] or len(header) < 4:
                    raise ParseError(
                        "header must be unit,time,<var1>,...,<varm> with m >= 2", lineno
                    )
                continue
            toks = line.split(",")
            if len(toks) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(toks)}", lineno)
            try:
                units.append(int(toks[0]))
                times.append(int(toks[1]))
            except ValueError:
                raise ParseError("unit and time must be integers", lineno)
            try:
                rows.append([float(v) for v in toks[2:]])
            except ValueError:
                raise ParseError("values must be decimal floats", lineno)
    if header is None:
        raise ParseError("file has no header", 1)
    if not rows:
        raise ParseError("file has no data rows", 2)
    k = n_policies if n_policies is not None else annotated_k
    if k is None:
        raise BadConfig(
            "number of policy variables unknown: add '# policies=K' or pass a flag"
        )
    order = np.lexsort((times, units))
    units = np.asarray(units)[order]
    times = np.asarray(times)[order]
    values = np.asarray(rows, dtype=float)[order]
    pairs = set()
    for u, t in zip(units, times):
        if (u, t) in pairs:
            raise UnbalancedPanel(u, t)
        pairs.add((u, t))
    return panel_from_records(units, times, values, k, tuple(header[2:]))


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Write a panel with 1-based unit/time labels and the K annotation."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# policies={panel.n_policies}\n")
            fh.write("unit,time," + ",".join(panel.variable_names) + "\n")
            for i in range(panel.n_units):
                for t in range(panel.n_times):
                    vals = ",".join(fmt_float(v) for v in panel.values[i, t])
                    fh.write(f"{i + 1},{t + 1},{vals}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_edge_list(path, n_units: int) -> np.ndarray:
    """Read ``unit_a,unit_b`` lines (1-based labels) into an adjacency matrix."""
    adj = np.zeros((n_units, n_units))
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split(",")
            if len(toks) != 2:
                raise ParseError("edge lines must be 'unit_a,unit_b'", lineno)
            try:
                a, b = int(toks[0]) - 1, int(toks[1]) - 1
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno)
            if not (0 <= a < n_units and 0 <= b < n_units):
                raise ParseError(f"edge endpoint outside 1..{n_units}", lineno)
            if a == b:
                raise ParseError("self-loops are not allowed", lineno)
            adj[a, b] = adj[b, a] = 1.0
    return adj


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
