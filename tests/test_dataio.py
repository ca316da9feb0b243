import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import reference_dataio
from interference_lab import dataio
from interference_lab.core import BipartiteGraph, OutcomePanel, UnitCovariates, datasets_equal, validate_dataset
from interference_lab.dataio import DataFormatError, load_dataset, save_dataset
from interference_lab.sim import DgpParams, GraphParams, RolloutParams, simulate_experiment

from conftest import small_dataset


def simulated_dataset(seed=7):
    return simulate_experiment(
        GraphParams(n_eligible=12, n_ineligible=3, n_connected=20, avg_degree=2.5),
        DgpParams(beta=1.0, gamma=0.5, rho=0.2, sigma=0.3, baseline_mean=5.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.7)),
        T=5,
        seed=seed,
    )


def read_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_round_trip_simulated_dataset(tmp_path):
    d = simulated_dataset()
    save_dataset(d, tmp_path)
    loaded = load_dataset(tmp_path)
    assert validate_dataset(loaded) == []
    assert datasets_equal(d, loaded)


def test_round_trip_with_covariates(tmp_path):
    d = small_dataset(with_covariates=True)
    save_dataset(d, tmp_path)
    assert datasets_equal(d, load_dataset(tmp_path))


def test_round_trip_without_graph(tmp_path):
    d = small_dataset(with_graph=False)
    save_dataset(d, tmp_path)
    assert not (tmp_path / "graph.csv").exists()
    assert datasets_equal(d, load_dataset(tmp_path))


def test_save_twice_is_byte_identical(tmp_path):
    d = simulated_dataset()
    save_dataset(d, tmp_path / "a")
    save_dataset(d, tmp_path / "b")
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")


def test_non_numeric_outcome_cites_file_and_line(tmp_path):
    save_dataset(small_dataset(), tmp_path)
    path = tmp_path / "outcomes.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "outcomes.csv:4" in str(err.value)


def test_missing_file_reported(tmp_path):
    save_dataset(small_dataset(), tmp_path)
    (tmp_path / "treatments.csv").unlink()
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "treatments.csv" in str(err.value) and "missing" in str(err.value)


def test_duplicate_panel_entry_rejected(tmp_path):
    save_dataset(small_dataset(), tmp_path)
    path = tmp_path / "treatments.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "duplicate" in str(err.value)


def test_missing_panel_entry_rejected(tmp_path):
    save_dataset(small_dataset(), tmp_path)
    path = tmp_path / "treatments.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "missing entry" in str(err.value)


def test_invalid_monotonicity_rejected_on_load(tmp_path):
    save_dataset(small_dataset(), tmp_path)
    path = tmp_path / "treatments.csv"
    text = path.read_text().replace("1,4,1", "1,4,0")
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "monotone" in str(err.value)


def test_ineligible_units_require_graph(tmp_path):
    save_dataset(small_dataset(), tmp_path)
    (tmp_path / "graph.csv").unlink()
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "ineligible" in str(err.value)


def test_eligible_ids_must_be_dense(tmp_path):
    save_dataset(small_dataset(with_graph=False), tmp_path)
    path = tmp_path / "units.csv"
    path.write_text(path.read_text().replace("3,1", "5,1"))
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert "1..N" in str(err.value)


def test_isolated_connected_units_not_saved(tmp_path):
    d = small_dataset()
    g = d.graph
    bad = BipartiteGraph(
        treatment_ids=g.treatment_ids,
        eligible=g.eligible,
        connected_ids=np.append(g.connected_ids, 50),
        edge_treatment=g.edge_treatment,
        edge_connected=g.edge_connected,
        edge_weight=g.edge_weight,
    )
    with pytest.raises(ValueError, match="no edges"):
        save_dataset(dataclasses.replace(d, graph=bad), tmp_path)


def test_save_refuses_invalid_dataset(tmp_path):
    d = dataclasses.replace(small_dataset(), pre_period_end=9)
    with pytest.raises(ValueError, match="invalid dataset"):
        save_dataset(d, tmp_path)


# --- columnar reader and writer against the line-by-line reference -------------------------------


def covariate_dataset():
    d = simulated_dataset(seed=11)
    x = np.random.default_rng(3).normal(size=(d.n_units, 3))
    return dataclasses.replace(d, covariates=UnitCovariates(x))


def lognormal_dataset():
    return simulate_experiment(
        GraphParams(n_eligible=15, n_ineligible=4, n_connected=25, avg_degree=2.0, weight_mode="lognormal"),
        DgpParams(beta=1.0, gamma=-0.5, rho=0.3, sigma=1.0, baseline_mean=10.0, baseline_sd=2.0),
        RolloutParams((2, 4), (0.2, 0.6)),
        T=6,
        seed=5,
    )


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7, -1.5e300, 123456789.125, 2.0**-1022]


def edge_float_dataset():
    d = covariate_dataset()
    y = d.outcomes.outcomes.copy()
    y.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS
    x = d.covariates.values.copy()
    x.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS[::-1]
    weights = d.graph.edge_weight.copy()
    weights[:5] = [5e-324, 1e16, -0.0, 0.0, 0.1 + 0.2]
    return dataclasses.replace(
        d,
        outcomes=OutcomePanel(y),
        covariates=UnitCovariates(x),
        graph=dataclasses.replace(d.graph, edge_weight=weights),
    )


SAVE_CASES = {
    "graph": simulated_dataset,
    "graph_covariates": covariate_dataset,
    "no_graph": lambda: small_dataset(with_graph=False),
    "no_graph_covariates": lambda: small_dataset(with_graph=False, with_covariates=True),
    "lognormal_weights": lognormal_dataset,
    "edge_floats": edge_float_dataset,
}


@pytest.mark.parametrize("case", sorted(SAVE_CASES))
def test_save_bytes_match_reference_writer(tmp_path, monkeypatch, case):
    """Also in write blocks of 4 rows, which split every file of these datasets several times."""
    d = SAVE_CASES[case]()
    save_dataset(d, tmp_path / "new")
    reference_dataio.save_dataset(d, tmp_path / "reference")
    assert read_bytes(tmp_path / "new") == read_bytes(tmp_path / "reference")
    assert datasets_equal(d, load_dataset(tmp_path / "new"))
    monkeypatch.setattr(dataio, "SAVE_BLOCK_ROWS", 4)
    save_dataset(d, tmp_path / "blocks")
    assert read_bytes(tmp_path / "blocks") == read_bytes(tmp_path / "reference")


def test_edge_floats_survive_a_second_save(tmp_path):
    d = edge_float_dataset()
    save_dataset(d, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")
    assert "-0.0" in (tmp_path / "b" / "outcomes.csv").read_text()


def load_outcome(loader, path):
    """('ok', dataset) or (exception type, message): what a loader makes of a directory."""
    try:
        return "ok", loader(path)
    except Exception as exc:  # every failure kind must match the reference, not only DataFormatError
        return type(exc).__name__, str(exc)


def assert_same_outcome(path):
    new = load_outcome(load_dataset, path)
    ref = load_outcome(reference_dataio.load_dataset, path)
    if new[0] == ref[0] == "ok":
        assert datasets_equal(new[1], ref[1])
    else:
        assert new == ref
    return new


# Edits of a saved file's text; line numbers are 1-based and count the header.
def cell(line, col, value):
    def edit(text):
        lines = text.split("\n")
        cells = lines[line - 1].split(",")
        cells[col] = value
        lines[line - 1] = ",".join(cells)
        return "\n".join(lines)

    return edit


def put(line, row):
    def edit(text):
        lines = text.split("\n")
        lines[line - 1] = row
        return "\n".join(lines)

    return edit


def insert(line, row):
    def edit(text):
        lines = text.split("\n")
        lines.insert(line - 1, row)
        return "\n".join(lines)

    return edit


def drop(line):
    def edit(text):
        lines = text.split("\n")
        del lines[line - 1]
        return "\n".join(lines)

    return edit


def append(row):
    return lambda text: text + row + "\n"


def crlf(text):
    return text.replace("\n", "\r\n")


def chain(*edits):
    """Apply the edits left to right."""

    def edit(text):
        for e in edits:
            text = e(text)
        return text

    return edit


# (file, edit, expected message, or "ok" when the edited file still loads)
LOAD_CORPUS = {
    # treatments.csv: rows 2..13 are units 1..3 x t=1..4
    "w_two": ("treatments.csv", cell(3, 2, "2"), "treatments.csv:3: w must be 0 or 1, got '2'"),
    "w_padded": ("treatments.csv", cell(3, 2, " 1"), "treatments.csv:3: w must be 0 or 1, got ' 1'"),
    "w_float": ("treatments.csv", cell(3, 2, "1.0"), "treatments.csv:3: w must be 0 or 1, got '1.0'"),
    "short_row": ("treatments.csv", put(4, "1,3"), "treatments.csv:4: expected 3 columns, got 2"),
    "extra_column": ("treatments.csv", put(4, "1,3,1,9"), "treatments.csv:4: expected 3 columns, got 4"),
    "unit_id_text": ("treatments.csv", cell(5, 0, "x"), "treatments.csv:5: non-integer unit_id: 'x'"),
    "t_float": ("treatments.csv", cell(5, 1, "4.0"), "treatments.csv:5: non-integer t: '4.0'"),
    "unit_id_range": ("treatments.csv", cell(6, 0, "9"), "treatments.csv:6: unit_id 9 outside 1..3"),
    "unit_id_huge": ("treatments.csv", cell(6, 0, "99999999999999999999"),
                     "treatments.csv:6: unit_id 99999999999999999999 outside 1..3"),
    "t_zero": ("treatments.csv", cell(6, 1, "0"), "treatments.csv:6: t=0 outside 1..4"),
    "range_before_value": ("treatments.csv", put(5, "7,4,9"), "treatments.csv:5: unit_id 7 outside 1..3"),
    "duplicate": ("treatments.csv", append("1,1,0"), "treatments.csv:14: duplicate entry for unit 1, t=1"),
    "duplicate_before_value": ("treatments.csv", insert(4, "1,1,7"),
                               "treatments.csv:4: duplicate entry for unit 1, t=1"),
    "missing": ("treatments.csv", drop(7), "treatments.csv: missing entry for unit 2, t=2"),
    "two_errors": ("treatments.csv", chain(cell(9, 2, "5"), cell(4, 0, "x")),
                   "treatments.csv:4: non-integer unit_id: 'x'"),
    "error_before_duplicate": ("treatments.csv", chain(append("1,1,0"), cell(8, 1, "x")),
                               "treatments.csv:8: non-integer t: 'x'"),
    "duplicate_before_error": ("treatments.csv", chain(cell(10, 2, "x"), insert(3, "1,1,0")),
                               "treatments.csv:3: duplicate entry for unit 1, t=1"),
    "blank_lines": ("treatments.csv", chain(insert(3, ""), insert(7, ""), append("")), "ok"),
    "blank_line_counts": ("treatments.csv", chain(cell(6, 2, "x"), insert(3, "")),
                          "treatments.csv:7: w must be 0 or 1, got 'x'"),
    "crlf": ("treatments.csv", crlf, "ok"),
    "cr_line_ends": ("treatments.csv", lambda text: text.replace("\n", "\r"), "ok"),
    "crlf_error": ("treatments.csv", chain(cell(3, 2, "2"), crlf), "treatments.csv:3: w must be 0 or 1, got '2'"),
    "quoted_cells": ("treatments.csv", put(3, '"1","2","1"'), "ok"),
    "quoted_newline": ("treatments.csv", chain(cell(5, 2, "x"), put(2, '"1\n",1,0')),
                       "treatments.csv:5: w must be 0 or 1, got 'x'"),
    "int_padded": ("treatments.csv", cell(3, 0, " 1"), "ok"),
    "int_plus": ("treatments.csv", cell(3, 0, "+1"), "ok"),
    "int_underscore": ("treatments.csv", cell(3, 1, "0_2"), "ok"),
    "int_unicode_digit": ("treatments.csv", cell(2, 0, "١"), "ok"),
    "t_underscore_range": ("treatments.csv", cell(3, 1, "1_0"), "treatments.csv:3: t=10 outside 1..4"),
    "wrong_header": ("treatments.csv", put(1, "unit_id,t,treated"),
                     "treatments.csv:1: expected header starting unit_id,t,w, got unit_id,t,treated"),
    "header_extra_column": ("treatments.csv", put(1, "unit_id,t,w,z"),
                            "treatments.csv:1: expected header starting unit_id,t,w, got unit_id,t,w,z"),
    "empty_file": ("treatments.csv", lambda text: "", "treatments.csv:1: empty file, header required"),
    "header_only": ("treatments.csv", lambda text: "unit_id,t,w\n", "treatments.csv: missing entry for unit 1, t=1"),
    "not_monotone": ("treatments.csv", cell(4, 2, "0"), "invalid dataset: treatments.monotone"),
    # outcomes.csv: rows 2..16 are units 1..3 x t=0..4
    "y_nan": ("outcomes.csv", cell(4, 2, "nan"), "outcomes.csv:4: non-finite y: 'nan'"),
    "y_minus_inf": ("outcomes.csv", cell(4, 2, "-inf"), "outcomes.csv:4: non-finite y: '-inf'"),
    "y_overflow": ("outcomes.csv", cell(4, 2, "1e999"), "outcomes.csv:4: non-finite y: '1e999'"),
    "y_text": ("outcomes.csv", cell(4, 2, "oops"), "outcomes.csv:4: non-numeric y: 'oops'"),
    "y_empty": ("outcomes.csv", cell(4, 2, ""), "outcomes.csv:4: non-numeric y: ''"),
    "y_hex": ("outcomes.csv", cell(4, 2, "0x1"), "outcomes.csv:4: non-numeric y: '0x1'"),
    "y_quoted_comma": ("outcomes.csv", put(4, '1,2,"3,0"'), "outcomes.csv:4: non-numeric y: '3,0'"),
    "y_forms": ("outcomes.csv", chain(cell(3, 2, " 1.0"), cell(4, 2, "+3.0"), cell(5, 2, "3_0.0"),
                                      cell(6, 2, "INFINITY"[:0] + "3e0")), "ok"),
    "y_t_range": ("outcomes.csv", cell(4, 1, "5"), "outcomes.csv:4: t=5 outside 0..4"),
    "y_t_negative": ("outcomes.csv", cell(4, 1, "-1"), "outcomes.csv:4: t=-1 outside 0..4"),
    "y_duplicate": ("outcomes.csv", append("3,4,0.5"), "outcomes.csv:17: duplicate entry for unit 3, t=4"),
    "y_two_errors": ("outcomes.csv", chain(cell(10, 2, "nan"), cell(5, 2, "x")), "outcomes.csv:5: non-numeric y: 'x'"),
    "y_missing": ("outcomes.csv", drop(16), "outcomes.csv: missing entry for unit 3, t=4"),
    # graph.csv: rows 2..8 are the edges (1,1) (2,1) (2,2) (3,2) (3,3) (3,4) (4,4)
    "negative_weight": ("graph.csv", cell(3, 2, "-1.5"), "graph.csv:3: negative weight -1.5"),
    "negative_zero_weight": ("graph.csv", cell(3, 2, "-0.0"), "ok"),
    "weight_nan": ("graph.csv", cell(3, 2, "nan"), "graph.csv:3: non-finite weight: 'nan'"),
    "weight_text": ("graph.csv", cell(3, 2, "w"), "graph.csv:3: non-numeric weight: 'w'"),
    "unknown_treatment_unit": ("graph.csv", cell(4, 0, "9"), "graph.csv:4: treatment unit 9 not listed in units.csv"),
    "ineligible_treatment_unit": ("graph.csv", cell(2, 0, "4"), "ok"),
    "unknown_before_negative": ("graph.csv", put(4, "9,2,-1.0"),
                                "graph.csv:4: treatment unit 9 not listed in units.csv"),
    "graph_two_errors": ("graph.csv", chain(cell(6, 2, "-1"), cell(3, 0, "x")),
                         "graph.csv:3: non-integer treatment_unit_id: 'x'"),
    "connected_id_text": ("graph.csv", cell(3, 1, "c"), "graph.csv:3: non-integer connected_unit_id: 'c'"),
    "connected_id_huge": ("graph.csv", cell(3, 1, "99999999999999999999"),
                          "graph.csv:3: connected_unit_id beyond the 64-bit integer range: '99999999999999999999'"),
    "graph_short_row": ("graph.csv", put(5, "3,2"), "graph.csv:5: expected 3 columns, got 2"),
    "duplicate_edge": ("graph.csv", append("1,1,1.0"), "invalid dataset: graph.duplicate_edge"),
    "graph_header": ("graph.csv", put(1, "a,b,c"),
                     "graph.csv:1: expected header starting treatment_unit_id,connected_unit_id,weight, got a,b,c"),
    "graph_blank_and_crlf": ("graph.csv", chain(insert(4, ""), crlf), "ok"),
    # units.csv: rows 2..4 are the eligible units with x_1,x_2; row 5 the ineligible unit 4
    "units_blank_and_crlf": ("units.csv", chain(insert(3, ""), crlf), "ok"),
    "eligible_two": ("units.csv", cell(3, 1, "2"), "units.csv:3: eligible must be 0 or 1, got '2'"),
    "covariate_nan": ("units.csv", cell(4, 2, "nan"), "units.csv:4: non-finite x_1: 'nan'"),
    "ineligible_id_huge": ("units.csv", cell(5, 0, "99999999999999999999"),
                           "units.csv:5: unit_id beyond the 64-bit integer range: '99999999999999999999'"),
}


# A units.csv without covariates is plain numeric; rows 2..4 are the eligible units, row 5 the ineligible unit 4
PLAIN_UNITS_CORPUS = {
    "plain_units": ("units.csv", lambda text: text, "ok"),
    "unit_id_zero_padded": ("units.csv", cell(3, 0, "02"), "ok"),
    "duplicate_ineligible": ("units.csv", append("4,0"), "units.csv: duplicate unit ids"),
    "duplicate_eligible": ("units.csv", append("2,1"), "units.csv: duplicate unit ids"),
    "eligible_gap": ("units.csv", cell(4, 0, "5"), "units.csv: eligible unit ids must be exactly 1..N"),
    "eligible_zero_padded": ("units.csv", cell(3, 1, "01"), "units.csv:3: eligible must be 0 or 1, got '01'"),
    "eligible_plus": ("units.csv", cell(3, 1, "+1"), "units.csv:3: eligible must be 0 or 1, got '+1'"),
    "eligible_two": ("units.csv", cell(5, 1, "2"), "units.csv:5: eligible must be 0 or 1, got '2'"),
    "unit_id_huge": ("units.csv", cell(5, 0, "99999999999999999999"),
                     "units.csv:5: unit_id beyond the 64-bit integer range: '99999999999999999999'"),
    "no_units": ("units.csv", lambda text: "unit_id,eligible\n", "units.csv: no units listed"),
}


@pytest.mark.parametrize("case", sorted(LOAD_CORPUS))
def test_load_matches_reference_reader(tmp_path, case):
    assert_corpus_case(tmp_path, small_dataset(with_covariates=True), *LOAD_CORPUS[case])


@pytest.mark.parametrize("case", sorted(PLAIN_UNITS_CORPUS))
def test_plain_units_match_reference_reader(tmp_path, case):
    assert_corpus_case(tmp_path, small_dataset(), *PLAIN_UNITS_CORPUS[case])


def write_corpus_case(tmp_path, d, name, edit):
    save_dataset(d, tmp_path)
    path = tmp_path / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8", newline="")


def assert_corpus_case(tmp_path, d, name, edit, expected):
    write_corpus_case(tmp_path, d, name, edit)
    kind, result = assert_same_outcome(tmp_path)
    if expected == "ok":
        assert kind == "ok", result
    else:
        assert expected in result


def write_bytes_into(path, line, data):
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += data
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("name", ["units.csv", "treatments.csv", "outcomes.csv", "graph.csv", "meta.json"])
def test_non_utf8_byte_names_file_and_line(tmp_path, name):
    save_dataset(small_dataset(with_covariates=True), tmp_path)
    write_bytes_into(tmp_path / name, 3, b"\xe9")
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert str(err.value).startswith(f"{name}:3: not UTF-8 text: byte 0xe9")


@pytest.mark.parametrize("name", ["units.csv", "treatments.csv", "outcomes.csv", "graph.csv"])
def test_oversized_cell_names_file_and_line(tmp_path, name):
    save_dataset(small_dataset(with_covariates=True), tmp_path)
    path = tmp_path / name
    lines = path.read_text().split("\n")
    lines[2] += "9" * (csv.field_size_limit() + 1)
    path.write_text("\n".join(lines))
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert str(err.value).startswith(f"{name}:3: field larger than field limit")


@pytest.mark.parametrize("line, last", [(4, False), (16, True)], ids=["inner_line", "unterminated_last_line"])
def test_digit_cell_past_the_field_limit_fails_as_in_the_reference(tmp_path, line, last):
    """A finite all-digit y cell one character past csv's field limit: numpy would read it, csv refuses it."""
    save_dataset(small_dataset(with_covariates=True), tmp_path)
    path = tmp_path / "outcomes.csv"
    text = cell(line, 2, "0" * (csv.field_size_limit() + 1))(path.read_text())
    path.write_text(text.rstrip("\n") if last else text)
    with pytest.raises(csv.Error) as reference:  # the reference names no file and line
        reference_dataio.load_dataset(tmp_path)
    with pytest.raises(DataFormatError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == f"outcomes.csv:{line}: {reference.value}"


@pytest.mark.parametrize("meta", ["[1]", "3", '"staggered"', "null"])
def test_meta_must_be_a_json_object(tmp_path, meta):
    save_dataset(small_dataset(), tmp_path)
    (tmp_path / "meta.json").write_text(meta)
    with pytest.raises(DataFormatError, match="^meta.json: must be a JSON object, got "):
        load_dataset(tmp_path)


@pytest.mark.parametrize("key, message", [("n_periods", "a positive integer"), ("pre_period_end", "an integer")])
@pytest.mark.parametrize("value", [True, False])
def test_meta_rejects_json_booleans(tmp_path, key, message, value):
    save_dataset(small_dataset(), tmp_path)
    path = tmp_path / "meta.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match=f"^meta.json: {key} must be {message}, got {value}$"):
        load_dataset(tmp_path)


# --- the numeric tier: plain files never reach csv.reader ----------------------------------------


def csv_reader_only_for(monkeypatch, names):
    """Make `csv.reader` raise for any file not named in `names`; returns the names it read."""
    real_reader = csv.reader
    read = []

    def reader(f, *args, **kwargs):
        name = Path(f.name).name
        if name not in names:
            raise AssertionError(f"{name} went through csv.reader")
        read.append(name)
        return real_reader(f, *args, **kwargs)

    monkeypatch.setattr(dataio.csv, "reader", reader)
    return read


def mid_size_dataset(with_covariates):
    d = simulate_experiment(
        GraphParams(n_eligible=500, n_ineligible=60, n_connected=700, avg_degree=3.0, weight_mode="lognormal"),
        DgpParams(beta=1.0, gamma=0.5, rho=0.2, sigma=1.0, baseline_mean=0.0, baseline_sd=1e6),
        RolloutParams((2, 4), (0.3, 0.6)),
        T=6,
        seed=13,
    )
    y = d.outcomes.outcomes.copy()
    y.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS
    covariates = UnitCovariates(np.random.default_rng(4).normal(size=(d.n_units, 2))) if with_covariates else None
    return dataclasses.replace(d, outcomes=OutcomePanel(y), covariates=covariates)


@pytest.mark.parametrize("with_covariates", [False, True], ids=["plain", "covariates"])
def test_saved_files_load_without_csv_reader(tmp_path, monkeypatch, with_covariates):
    """Also in read blocks that end inside a line, or (5 bytes) inside a cell, and with the last outcome line
    unterminated."""
    d = mid_size_dataset(with_covariates)
    save_dataset(d, tmp_path)
    # covariate cells of ineligible units are empty, so such a units.csv is not plain numeric
    read = csv_reader_only_for(monkeypatch, {"units.csv"} if with_covariates else set())
    loaded = load_dataset(tmp_path)
    assert read == (["units.csv"] if with_covariates else [])
    assert datasets_equal(d, loaded)
    assert np.array_equal(loaded.outcomes.outcomes.view(np.int64), d.outcomes.outcomes.view(np.int64))
    path = tmp_path / "outcomes.csv"
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    for block_bytes in (5, 100):
        monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", block_bytes)
        assert datasets_equal(d, load_dataset(tmp_path))
    assert read == (["units.csv"] * 3 if with_covariates else [])


@pytest.mark.parametrize("case", ["quoted_cells", "crlf", "blank_lines", "graph_blank_and_crlf",
                                  "units_blank_and_crlf"])
def test_non_plain_files_load_through_csv_reader(tmp_path, monkeypatch, case):
    name, edit, expected = LOAD_CORPUS[case]
    write_corpus_case(tmp_path, small_dataset(with_covariates=True), name, edit)
    reference = reference_dataio.load_dataset(tmp_path)
    read = csv_reader_only_for(monkeypatch, {"units.csv", name})
    assert expected == "ok" and datasets_equal(load_dataset(tmp_path), reference)
    assert name in read


# --- block-wise save and load ----------------------------------------------------------------------


# (file, line, column, new cell, the error after `file:line: `, or None when the edited file still loads)
LATER_BLOCK_CORPUS = {
    "y_nan": ("outcomes.csv", 900, 2, "nan", "non-finite y: 'nan'"),
    "y_quoted": ("outcomes.csv", 1700, 2, '"1.5"', None),
    "w_two": ("treatments.csv", 1500, 2, "2", "w must be 0 or 1, got '2'"),
    "unit_id_range": ("treatments.csv", 2000, 0, "999", "unit_id 999 outside 1..500"),
    "weight_negative": ("graph.csv", 1200, 2, "-1.0", "negative weight -1.0"),
}


@pytest.mark.parametrize("case", sorted(LATER_BLOCK_CORPUS))
def test_bad_row_in_a_later_read_block_falls_back_to_csv(tmp_path, monkeypatch, case):
    """A row edited past the first two 4 KiB read blocks sends the whole file to the csv tier, which loads it or
    names the row, as the reference reader does."""
    name, line, column, value, message = LATER_BLOCK_CORPUS[case]
    write_corpus_case(tmp_path, mid_size_dataset(with_covariates=False), name, cell(line, column, value))
    assert len("".join((tmp_path / name).read_text().splitlines(True)[:line - 1])) > 2 * 4096
    reference = load_outcome(reference_dataio.load_dataset, tmp_path)
    monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", 4096)
    read = csv_reader_only_for(monkeypatch, {name})
    got = load_outcome(load_dataset, tmp_path)
    assert name in read
    if message is None:
        assert got[0] == reference[0] == "ok" and datasets_equal(got[1], reference[1])
    else:
        assert got == reference == ("DataFormatError", f"{name}:{line}: {message}")
