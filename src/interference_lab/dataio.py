"""Dataset directory I/O.

Layout (UTF-8, comma-separated, headers mandatory):

    units.csv       unit_id,eligible[,x_1,...,x_k]
    treatments.csv  unit_id,t,w          (t in 1..T, w in {0,1})
    outcomes.csv    unit_id,t,y          (t in 0..T)
    graph.csv       treatment_unit_id,connected_unit_id,weight   (optional)
    meta.json       {"n_periods": T, "pre_period_end": p, "design": "staggered"}

Rows are ordered by unit id, then time, and floats are written in shortest
round-trip form, so saving the same dataset twice produces byte-identical
files. Connected units with no edges are not representable (graph.csv is an
edge list); save_dataset rejects them.

Reading and writing are columnar. A file is read into columns by one of two
tiers, which give the same arrays:

- A plain numeric file goes through numpy's C reader (`np.loadtxt`, whose C
  parser arrived in numpy 1.23). It qualifies when it has the exact header
  line (so a units.csv with covariates never does) and then only digits, `.`,
  `,`, `+`, `-`, `e`, `E` and `\\n` line ends; no blank line; no line longer
  than csv's field limit; `w` and `eligible` cells exactly `0` or `1`; and
  no error or warning from `np.loadtxt`. Within that alphabet `csv.reader`
  splits each line at its commas, and numpy's integer and float parsers
  accept a subset of what Python's `int` and `float` accept, with the same
  values. The file is read in blocks of about READ_BLOCK_BYTES, each ending
  at a line end; each block is checked and parsed on its own, every rule
  above being one about whole lines, and the blocks' columns are joined. A
  block that fails sends the whole file to the other tier.
- Every other file is tokenised by `csv.reader` (its quoting and line-ending
  rules are the accepted dialect) and each column is parsed by Python's own
  `int` or `float`.

Every row check then runs as an array mask, and each panel is filled by one
scatter. These whole-column checks only decide whether a file is good. A bad
file is then read again by `csv.reader` and its rows are walked once in
Python, in file order, each row's checks run in turn, and the first row that
fails one is named in the `file:line` error (units.csv is walked this way
whenever it is not plain numeric). So the accepted language, the values and
the errors are those of the `csv` tier. Saving builds each file's text from
columns, SAVE_BLOCK_ROWS units (or edges) at a time, and writes each block
as it is built.
"""

from __future__ import annotations

import csv
import gc
import itertools
import json
import math
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (
    DESIGN_TAGS,
    BipartiteGraph,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    validate_dataset,
)

_INT64 = np.iinfo(np.int64)
# Rows (units of a panel, edges of the graph) that `save_dataset` formats at a time, and bytes that the plain
# numeric tier reads at a time, extended to the end of the line.
SAVE_BLOCK_ROWS = 4096
READ_BLOCK_BYTES = 1 << 20


class DataFormatError(ValueError):
    """Malformed or inconsistent dataset files, reported with file and line."""

    def __init__(self, filename: str, line: int | None, message: str):
        self.filename = filename
        self.line = line
        where = f"{filename}:{line}" if line is not None else filename
        super().__init__(f"{where}: {message}")


def _write_blocks(path: Path, header: str, blocks) -> None:
    """Write `header`, then each text of the iterable `blocks` as it is built."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(header)
        for text in blocks:
            f.write(text)


def _block_rows(template: str, columns: list[np.ndarray]):
    """`template` formatted with the row's value of each column, for every row, joined in blocks of
    SAVE_BLOCK_ROWS rows. The values become Python ints and floats, which format by repr, the shortest
    round-trip form."""
    for lo in range(0, len(columns[0]), SAVE_BLOCK_ROWS):
        yield "".join(map(template.format, *(column[lo:lo + SAVE_BLOCK_ROWS].tolist() for column in columns)))


def _write_panel(path: Path, header: str, t_first: int, matrix: np.ndarray) -> None:
    """Long-format rows `id,t,value` of a unit-by-period panel, ids from 1."""
    # One format call per unit: the template holds every period's row.
    template = "".join(f"{{0}},{t_first + t},{{{t + 1}!r}}\n" for t in range(matrix.shape[1]))
    _write_blocks(path, header, _block_rows(template, [np.arange(1, len(matrix) + 1), *matrix.T]))


def save_dataset(d: ExperimentDataset, path: str | Path) -> None:
    """Write the dataset directory; deterministic bytes for a given dataset."""
    violations = validate_dataset(d)
    if violations:
        raise ValueError("refusing to save invalid dataset: " + "; ".join(violations[:5]))

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    n = d.n_units
    T = d.n_periods

    if d.graph is not None:
        used = np.unique(d.graph.edge_connected)
        isolated = np.setdiff1d(d.graph.connected_ids, used)
        if isolated.size:
            raise ValueError(
                f"graph has connected units with no edges (ids {isolated[:5].tolist()}...); "
                "not representable in graph.csv"
            )

    k = d.covariates.n_features if d.covariates is not None else 0
    template = "{0},1" + "".join(f",{{{j + 1}!r}}" for j in range(k)) + "\n"
    units = _block_rows(template, [np.arange(1, n + 1), *(d.covariates.values.T if k else [])])
    if d.graph is not None:
        # BipartiteGraph keeps its units sorted by id and its edges by (treatment, connected)
        ineligible = d.graph.treatment_ids[~d.graph.eligible]
        units = itertools.chain(units, _block_rows(f"{{}},0{',' * k}\n", [ineligible]))
    _write_blocks(out / "units.csv", ",".join(["unit_id", "eligible"] + [f"x_{j + 1}" for j in range(k)]) + "\n",
                  units)
    _write_panel(out / "treatments.csv", "unit_id,t,w\n", 1, d.treatments.assignments)
    _write_panel(out / "outcomes.csv", "unit_id,t,y\n", 0, d.outcomes.outcomes)

    graph_file = out / "graph.csv"
    if d.graph is not None:
        g = d.graph
        _write_blocks(graph_file, "treatment_unit_id,connected_unit_id,weight\n",
                      _block_rows("{},{},{!r}\n", [g.edge_treatment, g.edge_connected, g.edge_weight]))
    elif graph_file.exists():
        graph_file.unlink()

    meta = {"n_periods": T, "pre_period_end": d.pre_period_end, "design": d.treatments.design_tag}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _not_utf8(path: Path) -> DataFormatError:
    """The error for a file that does not decode as UTF-8, at the line of its first bad byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return DataFormatError(path.name, line, f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})")
    return DataFormatError(path.name, None, "not UTF-8 text")


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector: building a file's rows allocates one list per row, none of
    them in a cycle, and the collections that allocation triggers cost more than the tokenising."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_table(path: Path, expected_header: list[str], allow_extra: bool = False):
    """(header, rows, lines): the file's non-blank records after the header and their line numbers."""
    if not path.exists():
        raise DataFormatError(path.name, None, "missing file")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(path.name, 1, "empty file, header required")
            if header[: len(expected_header)] != expected_header or (
                not allow_extra and len(header) != len(expected_header)
            ):
                raise DataFormatError(
                    path.name, 1, f"expected header starting {','.join(expected_header)}, got {','.join(header)}"
                )
            with _gc_paused():
                rows = list(reader)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except csv.Error as exc:
            raise DataFormatError(path.name, reader.line_num, str(exc)) from None
    # A line number counts records, blank ones included: record i is line i + 2.
    if all(rows):
        return header, rows, np.arange(2, len(rows) + 2)
    kept = [i for i, row in enumerate(rows) if row]
    return header, [rows[i] for i in kept], np.array(kept, dtype=np.intp) + 2


_W_CODES = {"0": 0, "1": 1}
# Column parsers: (the function that reads a cell, the column's dtype).
_INT = (int, np.int64)
_FLOAT = (float, np.float64)
_CODE = (_W_CODES.__getitem__, np.int8)  # exactly `0` or `1`
_PLAIN_BYTES = b"0123456789.,+-eE\n"


def _parse_columns(rows: list, parsers: list) -> list[np.ndarray] | None:
    """The columns of the rows through `parsers`, or None when a row has the wrong width or a cell fails its
    parser (an int beyond int64 fails too)."""
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    if (widths != len(parsers)).any():
        return None
    try:
        return [np.fromiter(map(parse, map(itemgetter(j), rows)), dtype, len(rows))
                for j, (parse, dtype) in enumerate(parsers)]
    except (ValueError, KeyError, OverflowError):
        return None


def _plain_numeric_block(body: bytes, parsers: list, dtype: np.dtype):
    """The structured rows of whole `\\n`-ended lines in `body`, or None unless they are plain numeric."""
    import io
    import warnings

    if body.translate(None, _PLAIN_BYTES):
        return None
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n"))
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit():
        return None
    # Each line ends in its own `\n`, so these counts cover every line only if each last cell is 0 or 1.
    if parsers[-1] == _CODE and body.count(b",0\n") + body.count(b",1\n") != ends.size:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # older numpy reads `1.0` into an int column with a DeprecationWarning
        try:
            return np.loadtxt(io.BytesIO(body), dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _line_blocks(f):
    """The rest of the binary file `f` in blocks of about READ_BLOCK_BYTES, each ending at a line end; an
    unterminated last line gets its `\\n`."""
    rest = b""
    for data in iter(lambda: f.read(READ_BLOCK_BYTES), b""):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield rest + data[:cut]
            rest = data[cut:]
        else:
            rest += data
    if rest:
        yield rest + b"\n"


def _plain_numeric_columns(path: Path, header: list[str], parsers: list) -> list[np.ndarray] | None:
    """The columns `_parse_columns` returns for a plain numeric file, read block by block by `np.loadtxt`, or
    None for any other file (see the module docstring). Only the last of `parsers` may be `_CODE`."""
    head = (",".join(header) + "\n").encode()
    dtype = np.dtype([(f"c{j}", column_dtype) for j, (_, column_dtype) in enumerate(parsers)])
    tables = []
    try:
        with open(path, "rb") as f:
            if f.read(len(head)) != head:
                return None
            for body in _line_blocks(f):
                table = _plain_numeric_block(body, parsers, dtype)
                if table is None:
                    return None
                tables.append(table)
    except OSError:
        return None
    if not tables:
        return None
    return [np.concatenate([table[name] for table in tables]) for name in dtype.names]


def _read_columns(path: Path, header: list[str], parsers: list) -> list[np.ndarray] | None:
    """The columns of the file's rows after `header` through `parsers`, or None when a row has the wrong width
    or a cell fails its parser. Raises `_read_table`'s errors."""
    columns = _plain_numeric_columns(path, header, parsers)
    if columns is None:
        _, rows, _ = _read_table(path, header)
        columns = _parse_columns(rows, parsers)
    return columns


def _parse_int(value: str, path: Path, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataFormatError(path.name, lineno, f"non-integer {what}: {value!r}") from None


def _parse_id(value: str, path: Path, lineno: int, what: str) -> int:
    """An integer cell that the graph stores in an int64 array."""
    x = _parse_int(value, path, lineno, what)
    if not _INT64.min <= x <= _INT64.max:
        raise DataFormatError(path.name, lineno, f"{what} beyond the 64-bit integer range: {value!r}")
    return x


def _parse_float(value: str, path: Path, lineno: int, what: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise DataFormatError(path.name, lineno, f"non-numeric {what}: {value!r}") from None
    if not math.isfinite(x):
        raise DataFormatError(path.name, lineno, f"non-finite {what}: {value!r}")
    return x


def _is_int(value) -> bool:
    """A JSON integer; `true` and `false` parse to bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_meta(root: Path) -> dict:
    path = root / "meta.json"
    if not path.exists():
        raise DataFormatError("meta.json", None, "missing file")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise DataFormatError("meta.json", exc.lineno, exc.msg) from None
    if not isinstance(meta, dict):
        raise DataFormatError("meta.json", None, f"must be a JSON object, got {type(meta).__name__}")
    for key in ("n_periods", "pre_period_end", "design"):
        if key not in meta:
            raise DataFormatError("meta.json", None, f"missing key {key!r}")
    if not _is_int(meta["n_periods"]) or meta["n_periods"] < 1:
        raise DataFormatError("meta.json", None, f"n_periods must be a positive integer, got {meta['n_periods']!r}")
    if not _is_int(meta["pre_period_end"]):
        raise DataFormatError("meta.json", None, f"pre_period_end must be an integer, got {meta['pre_period_end']!r}")
    if meta["design"] not in DESIGN_TAGS:
        raise DataFormatError("meta.json", None, f"unknown design {meta['design']!r}")
    return meta


def _raise_first_panel_error(path: Path, col: str, n: int, t_lo: int, t_hi: int):
    """Raise at the first row, in file order, that fails a panel check, running each row's checks in turn."""
    _, rows, lines = _read_table(path, ["unit_id", "t", col])
    seen = set()
    for lineno, row in zip(lines.tolist(), rows):
        if len(row) != 3:
            raise DataFormatError(path.name, lineno, f"expected 3 columns, got {len(row)}")
        uid = _parse_int(row[0], path, lineno, "unit_id")
        t = _parse_int(row[1], path, lineno, "t")
        if not 1 <= uid <= n:
            raise DataFormatError(path.name, lineno, f"unit_id {uid} outside 1..{n}")
        if not t_lo <= t <= t_hi:
            raise DataFormatError(path.name, lineno, f"t={t} outside {t_lo}..{t_hi}")
        if (uid, t) in seen:
            raise DataFormatError(path.name, lineno, f"duplicate entry for unit {uid}, t={t}")
        seen.add((uid, t))
        if col == "y":
            _parse_float(row[2], path, lineno, col)
        elif row[2] not in _W_CODES:
            raise DataFormatError(path.name, lineno, f"w must be 0 or 1, got {row[2]!r}")


def _load_panel_file(path: Path, col: str, n: int, t_lo: int, t_hi: int) -> np.ndarray:
    """The n x (t_hi - t_lo + 1) panel of a `unit_id,t,<col>` file: int8 for w, float for y."""
    columns = _read_columns(path, ["unit_id", "t", col], [_INT, _INT, _CODE if col == "w" else _FLOAT])
    if columns is None:
        _raise_first_panel_error(path, col, n, t_lo, t_hi)
    uid, t, values = columns
    if not ((uid >= 1) & (uid <= n) & (t >= t_lo) & (t <= t_hi) & np.isfinite(values)).all():
        _raise_first_panel_error(path, col, n, t_lo, t_hi)
    width = t_hi - t_lo + 1
    keys = (uid - 1) * width + (t - t_lo)
    counts = np.bincount(keys, minlength=n * width)
    if counts.max(initial=0) > 1:
        _raise_first_panel_error(path, col, n, t_lo, t_hi)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        i, t_missing = divmod(int(missing[0]), width)
        raise DataFormatError(path.name, None, f"missing entry for unit {i + 1}, t={t_missing + t_lo}")
    matrix = np.empty(n * width, dtype=values.dtype)
    matrix[keys] = values
    return matrix.reshape(n, width)


def _load_units(root: Path):
    path = root / "units.csv"
    columns = _plain_numeric_columns(path, ["unit_id", "eligible"], [_INT, _CODE])
    if columns is not None:  # no covariates: the rows below would raise nothing if these hold
        ids, eligible = columns
        eligible_ids = np.sort(ids[eligible == 1])
        if np.unique(ids).size == ids.size and np.array_equal(eligible_ids, np.arange(1, eligible_ids.size + 1)):
            return eligible_ids.size, np.sort(ids[eligible == 0]).tolist(), None
    header, rows, lines = _read_table(path, ["unit_id", "eligible"], allow_extra=True)
    cov_names = header[2:]
    for j, name in enumerate(cov_names):
        if name != f"x_{j + 1}":
            raise DataFormatError(path.name, 1, f"covariate columns must be x_1..x_k, got {name!r}")
    records = []
    for lineno, row in zip(lines.tolist(), rows):
        if len(row) != len(header):
            raise DataFormatError(path.name, lineno, f"expected {len(header)} columns, got {len(row)}")
        uid = _parse_id(row[0], path, lineno, "unit_id")
        if row[1] not in ("0", "1"):
            raise DataFormatError(path.name, lineno, f"eligible must be 0 or 1, got {row[1]!r}")
        records.append((lineno, uid, row[1] == "1", row[2:]))
    if not records:
        raise DataFormatError(path.name, None, "no units listed")

    ids = [r[1] for r in records]
    if len(set(ids)) != len(ids):
        raise DataFormatError(path.name, None, "duplicate unit ids")
    eligible_rows = [r for r in records if r[2]]
    n = len(eligible_rows)
    if sorted(r[1] for r in eligible_rows) != list(range(1, n + 1)):
        raise DataFormatError(path.name, None, "eligible unit ids must be exactly 1..N")

    covariates = None
    if cov_names:
        values = np.empty((n, len(cov_names)))
        for lineno, uid, _, cells in eligible_rows:
            for j, cell in enumerate(cells):
                if cell == "":
                    raise DataFormatError(path.name, lineno, f"missing covariate x_{j + 1} for eligible unit {uid}")
                values[uid - 1, j] = _parse_float(cell, path, lineno, f"x_{j + 1}")
        for lineno, uid, elig, cells in records:
            if not elig and any(cell != "" for cell in cells):
                raise DataFormatError(path.name, lineno, f"ineligible unit {uid} must have empty covariate cells")
        covariates = UnitCovariates(values)

    ineligible_ids = sorted(r[1] for r in records if not r[2])
    return n, ineligible_ids, covariates


_GRAPH_HEADER = ["treatment_unit_id", "connected_unit_id", "weight"]


def _raise_first_graph_error(path: Path, n_eligible: int, ineligible_ids: list[int]):
    """Raise at the first row, in file order, that fails a graph check, running each row's checks in turn."""
    _, rows, lines = _read_table(path, _GRAPH_HEADER)
    ineligible = set(ineligible_ids)
    for lineno, row in zip(lines.tolist(), rows):
        if len(row) != 3:
            raise DataFormatError(path.name, lineno, f"expected 3 columns, got {len(row)}")
        tid = _parse_int(row[0], path, lineno, "treatment_unit_id")
        _parse_id(row[1], path, lineno, "connected_unit_id")
        weight = _parse_float(row[2], path, lineno, "weight")
        if not (1 <= tid <= n_eligible or tid in ineligible):
            raise DataFormatError(path.name, lineno, f"treatment unit {tid} not listed in units.csv")
        if weight < 0:
            raise DataFormatError(path.name, lineno, f"negative weight {weight}")


def _load_graph(root: Path, n_eligible: int, ineligible_ids: list[int]) -> BipartiteGraph:
    path = root / "graph.csv"
    columns = _read_columns(path, _GRAPH_HEADER, [_INT, _INT, _FLOAT])
    if columns is None:
        _raise_first_graph_error(path, n_eligible, ineligible_ids)
    et, ec, ew = columns
    known = ((et >= 1) & (et <= n_eligible)) | np.isin(et, ineligible_ids)
    if not (known & np.isfinite(ew) & (ew >= 0)).all():
        _raise_first_graph_error(path, n_eligible, ineligible_ids)
    return BipartiteGraph(
        treatment_ids=list(range(1, n_eligible + 1)) + ineligible_ids,
        eligible=[True] * n_eligible + [False] * len(ineligible_ids),
        connected_ids=np.unique(np.asarray(ec, dtype=np.int64)),
        edge_treatment=et,
        edge_connected=ec,
        edge_weight=ew,
    )


def load_dataset(path: str | Path) -> ExperimentDataset:
    """Read a dataset directory; the result always passes validate_dataset."""
    root = Path(path)
    if not root.is_dir():
        raise DataFormatError(str(path), None, "dataset directory does not exist")

    meta = _load_meta(root)
    T = meta["n_periods"]
    n, ineligible_ids, covariates = _load_units(root)
    assignments = _load_panel_file(root / "treatments.csv", "w", n, 1, T)
    outcomes = _load_panel_file(root / "outcomes.csv", "y", n, 0, T)

    graph = None
    if (root / "graph.csv").exists():
        graph = _load_graph(root, n, ineligible_ids)
    elif ineligible_ids:
        raise DataFormatError("units.csv", None, "ineligible units listed but graph.csv is absent")

    dataset = ExperimentDataset(
        outcomes=OutcomePanel(outcomes),
        treatments=TreatmentPanel(assignments, design_tag=meta["design"]),
        pre_period_end=meta["pre_period_end"],
        graph=graph,
        covariates=covariates,
    )
    violations = validate_dataset(dataset)
    if violations:
        raise DataFormatError(str(path), None, "invalid dataset: " + "; ".join(violations[:5]))
    return dataset
