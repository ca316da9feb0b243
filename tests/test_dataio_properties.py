"""Property tests of dataset I/O: round trips over generated datasets, and the
columnar reader against the line-by-line reference on mutated files."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference_dataio  # noqa: E402
from interference_lab.core import (  # noqa: E402
    BipartiteGraph,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    datasets_equal,
)
from interference_lab.dataio import load_dataset, save_dataset  # noqa: E402
from test_dataio import assert_same_outcome, read_bytes  # noqa: E402

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
WEIGHTS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1.0]), st.floats(min_value=0, allow_infinity=False))

BOUNDED = settings(max_examples=60, deadline=2000)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    T = draw(st.integers(1, 5))
    adopt = np.array(draw(st.lists(st.integers(1, T + 1), min_size=n, max_size=n)))
    assignments = (np.arange(1, T + 1)[None, :] >= adopt[:, None]).astype(np.int8)
    outcomes = np.array(draw(st.lists(FLOATS, min_size=n * (T + 1), max_size=n * (T + 1)))).reshape(n, T + 1)
    k = draw(st.integers(0, 2))
    covariates = None
    if k:
        covariates = UnitCovariates(np.array(draw(st.lists(FLOATS, min_size=n * k, max_size=n * k))).reshape(n, k))
    graph = None
    if draw(st.booleans()):
        n_ineligible = draw(st.integers(0, 2))
        n_treat = n + n_ineligible
        pairs = draw(st.lists(st.tuples(st.integers(1, n_treat), st.integers(1, 5)), max_size=12, unique=True))
        weights = draw(st.lists(WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
        graph = BipartiteGraph(
            treatment_ids=np.arange(1, n_treat + 1),
            eligible=np.arange(n_treat) < n,
            connected_ids=np.unique([c for _, c in pairs]).astype(np.int64),
            edge_treatment=[t for t, _ in pairs],
            edge_connected=[c for _, c in pairs],
            edge_weight=weights,
        )
    return ExperimentDataset(
        outcomes=OutcomePanel(outcomes),
        treatments=TreatmentPanel(assignments),
        pre_period_end=draw(st.integers(0, T - 1)),
        graph=graph,
        covariates=covariates,
    )


@BOUNDED
@given(datasets())
def test_round_trip_and_reference_bytes(d):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_dataset(d, root / "new")
        reference_dataio.save_dataset(d, root / "reference")
        assert read_bytes(root / "new") == read_bytes(root / "reference")
        loaded = load_dataset(root / "new")
        assert datasets_equal(d, loaded)
        save_dataset(loaded, root / "again")  # keeps what datasets_equal cannot see, e.g. -0.0
        assert read_bytes(root / "again") == read_bytes(root / "new")


TOKENS = ["", "0", "1", "2", "-1", " 1", "+1", "1_0", "٣", "1.5", "-0.0", "nan", "inf", "1e999", "x",
          '"1"', '"1,2"', "99999999999999999999", "01", "+0", "1.0", "1e1", "5.", ".5", "1e400"]


@st.composite
def mutations(draw):
    """(file name, edit): one adversarial change to a saved file's lines."""
    name = draw(st.sampled_from(["treatments.csv", "outcomes.csv", "graph.csv", "units.csv"]))
    kind = draw(st.sampled_from(["cell", "cell", "delete", "duplicate", "blank", "swap", "extra", "crlf",
                                 "no_final_newline", "header_only"]))
    line = draw(st.integers(0, 40))
    other = draw(st.integers(0, 40))
    col = draw(st.integers(0, 3))
    token = draw(st.sampled_from(TOKENS))

    def edit(text):
        lines = text.rstrip("\n").split("\n")
        i, j = line % len(lines), other % len(lines)
        if kind == "cell":
            cells = lines[i].split(",")
            cells[col % len(cells)] = token
            lines[i] = ",".join(cells)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "extra":
            lines[i] += "," + token
        elif kind == "header_only":
            del lines[1:]
        elif kind == "no_final_newline":
            return "\n".join(lines)
        out = "\n".join(lines) + "\n"
        return out.replace("\n", "\r\n") if kind == "crlf" else out

    return name, edit


@settings(max_examples=150, deadline=2000)
@given(datasets(), st.lists(mutations(), min_size=1, max_size=3))
def test_mutated_files_load_as_the_reference_reads_them(d, edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_dataset(d, root)
        for name, edit in edits:
            path = root / name
            if path.exists():
                path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8", newline="")
        assert_same_outcome(root)
