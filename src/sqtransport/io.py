"""Deterministic CSV/JSON emission and the matching reader.

CSV files carry the fully resolved run configuration in '#'-prefixed header
comments, one 'key = value' per line, followed by a column-name line and
comma-separated rows.  Floating-point values are printed with 17 significant
digits so that re-parsing reproduces them bit-exactly.  No timestamps or
other run-dependent noise are written: identical configurations produce
identical bytes.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# exact type -> formatter of the common cells; numpy scalars take _format_value
_FORMAT_BY_TYPE = {float: lambda value: format(value, ".17g"), int: str, str: str,
                   type(None): _format_value}


def csv_lines(columns, rows) -> list[str]:
    """The column-name line and one line per row (dicts keyed by column name)."""
    cell = _FORMAT_BY_TYPE.get
    return [",".join(columns)] + [
        ",".join([cell(type(value), _format_value)(value) for value in map(row.get, columns)])
        for row in rows]


def write_csv(path, columns, rows, config: dict | None = None) -> None:
    """Write ``csv_lines`` below a header of '#'-prefixed config comments."""
    config = config or {}
    lines = [f"# {key} = {_format_value(config[key])}" for key in sorted(config)]
    lines += csv_lines(columns, rows)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_cell(cell: str):
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv(path):
    """Read a file written by ``write_csv``.

    Returns (config, columns, rows) with numeric cells parsed back to
    int/float and the header comments to a key -> string dict.
    """
    config = {}
    columns = None
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                config[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
                continue
            rows.append({col: _parse_cell(cell) for col, cell in zip(columns, cells)})
    return config, columns or [], rows


def write_json(path, command: str, config: dict, columns, rows) -> None:
    """Machine-readable twin of the CSV output."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {key: config[key] for key in sorted(config)},
        "columns": list(columns),
        "rows": [{col: row.get(col) for col in columns} for row in rows],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=False)
        handle.write("\n")
