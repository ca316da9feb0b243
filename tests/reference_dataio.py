"""The line-by-line dataset reader and csv.writer saver that `dataio` replaced.

Kept as the reference the columnar `interference_lab.dataio` is checked
against: the same loaded dataset or the same `DataFormatError` text, and the
same written bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from interference_lab.core import (
    DESIGN_TAGS,
    BipartiteGraph,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    validate_dataset,
)
from interference_lab.dataio import DataFormatError


def _fmt(x: float) -> str:
    return repr(float(x))


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
    with open(out / "units.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["unit_id", "eligible"] + [f"x_{j + 1}" for j in range(k)])
        for i in range(n):
            row = [str(i + 1), "1"]
            if k:
                row += [_fmt(v) for v in d.covariates.values[i]]
            w.writerow(row)
        if d.graph is not None:
            ineligible = np.sort(d.graph.treatment_ids[~d.graph.eligible])
            for uid in ineligible:
                w.writerow([str(uid), "0"] + [""] * k)

    with open(out / "treatments.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["unit_id", "t", "w"])
        a = d.treatments.assignments
        for i in range(n):
            for t in range(T):
                w.writerow([str(i + 1), str(t + 1), str(int(a[i, t]))])

    with open(out / "outcomes.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["unit_id", "t", "y"])
        y = d.outcomes.outcomes
        for i in range(n):
            for t in range(T + 1):
                w.writerow([str(i + 1), str(t), _fmt(y[i, t])])

    if d.graph is not None:
        g = d.graph
        order = np.lexsort((g.edge_connected, g.edge_treatment))
        with open(out / "graph.csv", "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["treatment_unit_id", "connected_unit_id", "weight"])
            for e in order:
                w.writerow([str(g.edge_treatment[e]), str(g.edge_connected[e]), _fmt(g.edge_weight[e])])
    else:
        graph_file = out / "graph.csv"
        if graph_file.exists():
            graph_file.unlink()

    meta = {"n_periods": T, "pre_period_end": d.pre_period_end, "design": d.treatments.design_tag}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_rows(path: Path, expected_header: list[str], allow_extra: bool = False):
    if not path.exists():
        raise DataFormatError(path.name, None, "missing file")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(path.name, 1, "empty file, header required") from None
        if header[: len(expected_header)] != expected_header or (
            not allow_extra and len(header) != len(expected_header)
        ):
            raise DataFormatError(
                path.name, 1, f"expected header starting {','.join(expected_header)}, got {','.join(header)}"
            )
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]
    return header, rows


def _parse_int(value: str, path: Path, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataFormatError(path.name, lineno, f"non-integer {what}: {value!r}") from None


def _parse_id(value: str, path: Path, lineno: int, what: str) -> int:
    """An integer cell that the graph stores in an int64 array."""
    x = _parse_int(value, path, lineno, what)
    if not -(2**63) <= x < 2**63:
        raise DataFormatError(path.name, lineno, f"{what} beyond the 64-bit integer range: {value!r}")
    return x


def _parse_float(value: str, path: Path, lineno: int, what: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise DataFormatError(path.name, lineno, f"non-numeric {what}: {value!r}") from None
    if not np.isfinite(x):
        raise DataFormatError(path.name, lineno, f"non-finite {what}: {value!r}")
    return x


def _load_meta(root: Path) -> dict:
    path = root / "meta.json"
    if not path.exists():
        raise DataFormatError("meta.json", None, "missing file")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError("meta.json", exc.lineno, exc.msg) from None
    for key in ("n_periods", "pre_period_end", "design"):
        if key not in meta:
            raise DataFormatError("meta.json", None, f"missing key {key!r}")
    if not isinstance(meta["n_periods"], int) or meta["n_periods"] < 1:
        raise DataFormatError("meta.json", None, f"n_periods must be a positive integer, got {meta['n_periods']!r}")
    if not isinstance(meta["pre_period_end"], int):
        raise DataFormatError("meta.json", None, f"pre_period_end must be an integer, got {meta['pre_period_end']!r}")
    if meta["design"] not in DESIGN_TAGS:
        raise DataFormatError("meta.json", None, f"unknown design {meta['design']!r}")
    return meta


def _load_panel_file(path: Path, col: str, n: int, t_range: tuple[int, int], parse):
    _, rows = _read_rows(path, ["unit_id", "t", col])
    t_lo, t_hi = t_range
    width = t_hi - t_lo + 1
    matrix = np.full((n, width), np.nan)
    for lineno, row in rows:
        if len(row) != 3:
            raise DataFormatError(path.name, lineno, f"expected 3 columns, got {len(row)}")
        uid = _parse_int(row[0], path, lineno, "unit_id")
        t = _parse_int(row[1], path, lineno, "t")
        if not 1 <= uid <= n:
            raise DataFormatError(path.name, lineno, f"unit_id {uid} outside 1..{n}")
        if not t_lo <= t <= t_hi:
            raise DataFormatError(path.name, lineno, f"t={t} outside {t_lo}..{t_hi}")
        if not np.isnan(matrix[uid - 1, t - t_lo]):
            raise DataFormatError(path.name, lineno, f"duplicate entry for unit {uid}, t={t}")
        matrix[uid - 1, t - t_lo] = parse(row[2], path, lineno)
    missing = np.argwhere(np.isnan(matrix))
    if missing.size:
        i, t = missing[0]
        raise DataFormatError(path.name, None, f"missing entry for unit {i + 1}, t={t + t_lo}")
    return matrix


def _load_units(root: Path):
    path = root / "units.csv"
    header, rows = _read_rows(path, ["unit_id", "eligible"], allow_extra=True)
    cov_names = header[2:]
    for j, name in enumerate(cov_names):
        if name != f"x_{j + 1}":
            raise DataFormatError(path.name, 1, f"covariate columns must be x_1..x_k, got {name!r}")
    records = []
    for lineno, row in rows:
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


def _load_graph(root: Path, n_eligible: int, ineligible_ids: list[int]) -> BipartiteGraph:
    path = root / "graph.csv"
    _, rows = _read_rows(path, ["treatment_unit_id", "connected_unit_id", "weight"])
    known = set(range(1, n_eligible + 1)) | set(ineligible_ids)
    et, ec, ew = [], [], []
    for lineno, row in rows:
        if len(row) != 3:
            raise DataFormatError(path.name, lineno, f"expected 3 columns, got {len(row)}")
        tid = _parse_int(row[0], path, lineno, "treatment_unit_id")
        cid = _parse_id(row[1], path, lineno, "connected_unit_id")
        weight = _parse_float(row[2], path, lineno, "weight")
        if tid not in known:
            raise DataFormatError(path.name, lineno, f"treatment unit {tid} not listed in units.csv")
        if weight < 0:
            raise DataFormatError(path.name, lineno, f"negative weight {weight}")
        et.append(tid)
        ec.append(cid)
        ew.append(weight)
    treatment_ids = list(range(1, n_eligible + 1)) + ineligible_ids
    eligible = [True] * n_eligible + [False] * len(ineligible_ids)
    return BipartiteGraph(
        treatment_ids=treatment_ids,
        eligible=eligible,
        connected_ids=np.unique(np.asarray(ec, dtype=np.int64)) if ec else np.empty(0, dtype=np.int64),
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

    def parse_w(cell, p, lineno):
        if cell not in ("0", "1"):
            raise DataFormatError(p.name, lineno, f"w must be 0 or 1, got {cell!r}")
        return int(cell)

    assignments = _load_panel_file(root / "treatments.csv", "w", n, (1, T), parse_w)
    outcomes = _load_panel_file(
        root / "outcomes.csv", "y", n, (0, T), lambda cell, p, ln: _parse_float(cell, p, ln, "y")
    )

    graph = None
    if (root / "graph.csv").exists():
        graph = _load_graph(root, n, ineligible_ids)
    elif ineligible_ids:
        raise DataFormatError("units.csv", None, "ineligible units listed but graph.csv is absent")

    dataset = ExperimentDataset(
        outcomes=OutcomePanel(outcomes),
        treatments=TreatmentPanel(assignments.astype(np.int8), design_tag=meta["design"]),
        pre_period_end=meta["pre_period_end"],
        graph=graph,
        covariates=covariates,
    )
    violations = validate_dataset(dataset)
    if violations:
        raise DataFormatError(str(path), None, "invalid dataset: " + "; ".join(violations[:5]))
    return dataset
