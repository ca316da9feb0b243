import json

import pytest

from interference_lab.bench import run_scenario, scenario_from_dict, simulate_scenario_dataset
from interference_lab.cli import cli_main, load_scenario_configs
from interference_lab.core import METHODS
from interference_lab.dataio import save_dataset

from reference_rng import child_seed

TINY_SCENARIO = {
    "name": "cli_tiny",
    "graph": {"n_eligible": 30, "n_ineligible": 5, "n_connected": 45, "avg_degree": 2.0},
    "dgp": {"beta": 1.0, "gamma": 0.4, "rho": 0.2, "sigma": 0.3, "baseline_mean": 4.0, "baseline_sd": 1.0},
    "rollout": {"stage_boundaries": [1, 3], "stage_probabilities": [0.3, 0.6]},
    "T": 6,
    "seed": 71,
    "replicates": 2,
    "estimators": {
        "basic": {"learner": {"kind": "ridge", "lambda_grid": [1e-8]}, "n_bootstrap": 20},
        "network": {"learner": {"kind": "ridge", "lambda_grid": [1e-8]}, "n_bootstrap": 20},
        "cmp": {
            "learner": {"kind": "ridge", "lambda_grid": [1e-8, 1e-6]},
            "n_bootstrap": 20,
            "n_subpopulations": 4,
        },
    },
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return str(path)


def read_tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_full_pipeline(tmp_path, scenario_file, capsys):
    data_dir = tmp_path / "data"
    assert cli_main(["simulate", "--config", scenario_file, "--out", str(data_dir)]) == 0
    assert (data_dir / "meta.json").exists()
    assert (data_dir / "graph.csv").exists()

    for method in ("basic", "network", "cmp"):
        out = tmp_path / f"est_{method}.json"
        code = cli_main(["estimate", "--data", str(data_dir), "--method", method, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"method", "point", "ci_low", "ci_high", "significant_5pct", "n_bootstrap"}
        assert payload["ci_low"] <= payload["point"] <= payload["ci_high"]

    report_path = tmp_path / "report.json"
    assert cli_main(["bench", "--config", scenario_file, "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["schema"] == 1

    assert cli_main(["report", "--in", str(report_path), "--format", "markdown"]) == 0
    rendered = capsys.readouterr().out
    assert "| basic |" in rendered and "| cmp |" in rendered

    md_path = tmp_path / "report.md"
    assert cli_main(["report", "--in", str(report_path), "--format", "json", "--out", str(md_path)]) == 0
    assert json.loads(md_path.read_text())["schema"] == 1


def test_cli_outputs_are_deterministic(tmp_path, scenario_file):
    for tag in ("a", "b"):
        cli_main(["simulate", "--config", scenario_file, "--out", str(tmp_path / f"data_{tag}")])
    assert read_tree(tmp_path / "data_a") == read_tree(tmp_path / "data_b")

    for tag in ("a", "b"):
        cli_main(["bench", "--config", scenario_file, "--out", str(tmp_path / f"report_{tag}.json")])
    assert (tmp_path / "report_a.json").read_bytes() == (tmp_path / "report_b.json").read_bytes()

    for tag in ("a", "b"):
        cli_main([
            "estimate", "--data", str(tmp_path / "data_a"), "--method", "cmp",
            "--out", str(tmp_path / f"cmp_{tag}.json"),
        ])
    assert (tmp_path / "cmp_a.json").read_bytes() == (tmp_path / "cmp_b.json").read_bytes()


def test_env_seed_overrides_config(tmp_path, scenario_file, monkeypatch):
    override = dict(TINY_SCENARIO, seed=9999)
    override_file = tmp_path / "override.json"
    override_file.write_text(json.dumps(override))
    cli_main(["simulate", "--config", str(override_file), "--out", str(tmp_path / "direct")])

    monkeypatch.setenv("INTERFERENCE_LAB_SEED", "9999")
    cli_main(["simulate", "--config", scenario_file, "--out", str(tmp_path / "via_env")])
    assert read_tree(tmp_path / "direct") == read_tree(tmp_path / "via_env")

    monkeypatch.setenv("INTERFERENCE_LAB_SEED", "not-a-number")
    assert cli_main(["simulate", "--config", scenario_file, "--out", str(tmp_path / "bad")]) == 1


def test_unknown_flag_exits_one_with_usage(capsys):
    assert cli_main(["simulate", "--bogus", "x"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_dataset_exits_one(tmp_path, capsys):
    code = cli_main(["estimate", "--data", str(tmp_path / "nope"), "--method", "basic", "--out", "x.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def append_to_line_2(data: bytes, extra: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[1] += extra
    return b"\n".join(lines)


def set_cell(data: bytes, line: int, col: int, value: bytes) -> bytes:
    lines = data.split(b"\n")
    cells = lines[line - 1].split(b",")
    cells[col] = value
    lines[line - 1] = b",".join(cells)
    return b"\n".join(lines)


HUGE_ID = b"99999999999999999999"


@pytest.mark.parametrize(
    "name, corrupt, where",
    [
        ("outcomes.csv", lambda data: append_to_line_2(data, b"9" * 131073), "outcomes.csv:2: field larger"),
        ("outcomes.csv", lambda data: append_to_line_2(data, b"\xe9"), "outcomes.csv:2: not UTF-8"),
        ("meta.json", lambda data: b"[1]", "meta.json: must be a JSON object"),
        ("graph.csv", lambda data: set_cell(data, 3, 1, HUGE_ID),
         "graph.csv:3: connected_unit_id beyond the 64-bit integer range: '99999999999999999999'\n"),
        # line 32 is the first ineligible unit (ids 1..30 are eligible)
        ("units.csv", lambda data: set_cell(data, 32, 0, HUGE_ID),
         "units.csv:32: unit_id beyond the 64-bit integer range: '99999999999999999999'\n"),
    ],
    ids=["oversized_cell", "non_utf8", "meta_not_object", "connected_id_huge", "ineligible_id_huge"],
)
def test_bad_dataset_file_exits_one_naming_it(tmp_path, scenario_file, capsys, name, corrupt, where):
    data_dir = tmp_path / "data"
    cli_main(["simulate", "--config", scenario_file, "--out", str(data_dir)])
    path = data_dir / name
    path.write_bytes(corrupt(path.read_bytes()))
    code = cli_main(["estimate", "--data", str(data_dir), "--method", "basic", "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_network_without_graph_exits_one(tmp_path, scenario_file, capsys):
    data_dir = tmp_path / "data"
    cli_main(["simulate", "--config", scenario_file, "--out", str(data_dir)])
    (data_dir / "graph.csv").unlink()
    # drop the ineligible units that graph.csv carried
    units = (data_dir / "units.csv").read_text().splitlines()
    keep = [row for row in units if not row.endswith(",0")]
    (data_dir / "units.csv").write_text("\n".join(keep) + "\n")
    code = cli_main(["estimate", "--data", str(data_dir), "--method", "network", "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "graph" in capsys.readouterr().err


def test_estimator_config_is_honored(tmp_path, scenario_file):
    data_dir = tmp_path / "data"
    cli_main(["simulate", "--config", scenario_file, "--out", str(data_dir)])
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps({"n_bootstrap": 7, "seed": 3}))
    out = tmp_path / "est_out.json"
    assert cli_main([
        "estimate", "--data", str(data_dir), "--method", "basic",
        "--config", str(est_cfg), "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["n_bootstrap"] == 7


@pytest.mark.parametrize("seed", ["71", 71.5, True])
def test_non_integer_seed_exits_one(tmp_path, scenario_file, capsys, seed):
    bad_scenario = tmp_path / "bad_scenario.json"
    bad_scenario.write_text(json.dumps(dict(TINY_SCENARIO, seed=seed)))
    assert cli_main(["bench", "--config", str(bad_scenario), "--out", str(tmp_path / "r.json")]) == 1
    assert "seed must be an integer" in capsys.readouterr().err

    data_dir = tmp_path / "data"
    cli_main(["simulate", "--config", scenario_file, "--out", str(data_dir)])
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps({"n_bootstrap": 7, "seed": seed}))
    argv = ["estimate", "--data", str(data_dir), "--method", "basic", "--config", str(est_cfg),
            "--out", str(tmp_path / "o.json")]
    assert cli_main(argv) == 1
    assert "seed must be an integer" in capsys.readouterr().err


def test_non_object_estimate_config_exits_one(tmp_path, scenario_file, capsys):
    data_dir = tmp_path / "data"
    cli_main(["simulate", "--config", scenario_file, "--out", str(data_dir)])
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps([{"n_bootstrap": 7}]))
    argv = ["estimate", "--data", str(data_dir), "--method", "cmp", "--config", str(est_cfg),
            "--out", str(tmp_path / "o.json")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert str(est_cfg) in err and "JSON object" in err


def test_corrupt_scenario_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["bench", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("command", [
    ["bench", "--config", "{dir}", "--out", "{out}"],
    ["estimate", "--data", "{dir}", "--method", "cmp", "--config", "{dir}", "--out", "{out}"],
    ["report", "--in", "{dir}", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_directory_as_input_file_exits_one(tmp_path, capsys, command):
    argv = [arg.format(dir=tmp_path, out=tmp_path / "out") for arg in command]
    assert cli_main(argv) == 1
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def hand_written_report(methods, sign_agreement, bias_direction=None):
    scenario = {"name": "x", "config": {}, "n_replicates": 1, "truth_mean": 0.0, "methods": methods,
                "sign_agreement": sign_agreement, "bias_direction": bias_direction, "warnings": {},
                "metadata": {}, "replicates": []}
    return {"schema": 1, "scenarios": [scenario]}


FULL_AGREEMENT = {a: {b: None for b in METHODS} for a in METHODS}


@pytest.mark.parametrize("report, message", [
    ([1, 2], "report must be a JSON object, got list"),
    ({"schema": 1}, "report is missing required keys ['scenarios']"),
    ({"schema": 1, "scenarios": [{"name": "x"}]},
     "report.scenarios[0] is missing required keys ['config', 'n_replicates', 'truth_mean', 'methods', "
     "'sign_agreement', 'bias_direction', 'warnings', 'metadata', 'replicates']"),
    (hand_written_report({m: {"n_ok": 1} for m in METHODS}, FULL_AGREEMENT),
     "report.scenarios[0].methods.basic has n_ok 1 but is missing keys "
     "['estimate_mean', 'estimate_sd', 'significance_rate', 'bias_mean']"),
    (hand_written_report({m: {} for m in METHODS}, {}),
     "report.scenarios[0].methods.basic is missing required keys ['n_ok']"),
    (hand_written_report({m: {"n_ok": 0} for m in METHODS}, {}),
     "report.scenarios[0].sign_agreement is missing required keys ['basic', 'network_aware', 'cmp']"),
    (hand_written_report({m: {"n_ok": 0} for m in METHODS}, dict(FULL_AGREEMENT, cmp={"basic": None})),
     "report.scenarios[0].sign_agreement.cmp is missing required keys ['network_aware', 'cmp']"),
    (hand_written_report({m: {"n_ok": 0} for m in METHODS}, FULL_AGREEMENT, {"expected": "positive"}),
     "report.scenarios[0].bias_direction is missing required keys ['basic_match_rate', 'verdict']"),
    (hand_written_report({m: {"n_ok": 0} for m in METHODS}, FULL_AGREEMENT, [1]),
     "report.scenarios[0].bias_direction must be a JSON object, got list"),
], ids=["list", "no_scenarios", "bare_scenario", "summary_without_fields", "empty_summaries",
        "empty_sign_agreement", "partial_sign_agreement", "bias_direction_without_verdict",
        "bias_direction_list"])
def test_malformed_report_exits_one(tmp_path, capsys, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli_main(["report", "--in", str(path)]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err


def test_hand_written_report_of_failed_methods_renders(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(hand_written_report({m: {"n_ok": 0} for m in METHODS}, FULL_AGREEMENT)))
    assert cli_main(["report", "--in", str(path)]) == 0
    assert "| cmp | failed (0) | - | - | - |" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_jobs_below_one_exits_one(tmp_path, scenario_file, capsys, jobs):
    out = tmp_path / "r.json"
    assert cli_main(["bench", "--config", scenario_file, "--out", str(out), "--jobs", jobs]) == 1
    assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


# One bad field per estimator block, merged into TINY_SCENARIO's block: (block, fields, error message).
BAD_ESTIMATOR_BLOCKS = [
    ("basic", {"n_bootstrap": 0}, "basic settings: n_replicates must be >= 1, got 0"),
    ("basic", {"n_bootstrap": True}, "basic settings: n_replicates must be an integer, got True"),
    ("network", {"n_bootstrap": 2.5}, "network settings: n_replicates must be an integer, got 2.5"),
    ("cmp", {"moment_order": 0}, "cmp settings: moment_order must be >= 1, got 0"),
    ("cmp", {"n_subpopulations": 1}, "cmp settings: n_subpopulations must be >= 2, got 1"),
    ("cmp", {"learner": {"kind": "ridge", "lambda_grid": [1e-8, 1e-6], "cv_folds": 1}},
     "learner config: cv_folds must be >= 2, got 1"),
    ("basic", {"learner": {"kind": "ridge", "lambda_grid": [-1.0]}},
     "learner config: lambda_grid values must be >= 0, got -1.0"),
    ("network", {"learner": {"kind": "kernel_ridge", "lambda_grid": [0.1], "kernel": "poly"}},
     "learner config: unknown kernel 'poly'"),
    ("basic", {"learner": {"kind": "ridge", "lambda_grid": [1e-8], "center": 1}},
     "unknown learner config keys: ['center']"),
    ("cmp", {"learner": {"kind": "kernel_ridge", "lambda_grid": [0.1]}},
     "cmp settings: state evolution uses the ridge learner"),
    ("network", {"weighted_exposures": "no"}, "network settings: weighted_exposures must be true or false, got 'no'"),
    ("cmp", {"time_homogeneous": "false"}, "unknown cmp settings keys: ['time_homogeneous']"),
]


def with_block(block, fields):
    estimators = dict(TINY_SCENARIO["estimators"], **{block: dict(TINY_SCENARIO["estimators"][block], **fields)})
    return dict(TINY_SCENARIO, estimators=estimators)


@pytest.mark.parametrize("config, message", [
    ([TINY_SCENARIO], "scenario config must be a JSON object, got list"),
    ({"scenarios": [TINY_SCENARIO, 3]}, "scenarios[1] must be a JSON object, got int"),
    ({"scenarios": {"cli_tiny": TINY_SCENARIO}}, "scenarios must be a JSON list, got dict"),
    (dict(TINY_SCENARIO, estimators=["cmp"]), "estimators must be a JSON object, got list"),
    (dict(TINY_SCENARIO, estimators={"cmp": [1]}), "cmp settings must be a JSON object, got list"),
    (dict(TINY_SCENARIO, estimators={"basic": {"learner": "ridge"}}),
     "learner config must be a JSON object, got str"),
    (dict(TINY_SCENARIO, T=6.0), "scenario config: T must be an integer, got 6.0"),
    (dict(TINY_SCENARIO, replicates=True), "scenario config: replicates must be an integer, got True"),
    (dict(TINY_SCENARIO, truth_reps=0), "unknown scenario config keys: ['truth_reps']"),
    (dict(TINY_SCENARIO, pre_period_end=9), "scenario config: pre_period_end must be <= T-1 = 5, got 9"),
    (dict(TINY_SCENARIO, pre_period_end=-1), "scenario config: pre_period_end must be >= 0, got -1"),
] + [(with_block(block, fields), message) for block, fields, message in BAD_ESTIMATOR_BLOCKS] + [
    (dict(TINY_SCENARIO, rollout={"stage_boundaries": [1, 9], "stage_probabilities": [0.3, 0.6]}),
     "scenario config: rollout stage boundaries must lie within 1..T = 6, got 9"),
    (dict(TINY_SCENARIO, rollout={"stage_boundaries": [1, 3.7], "stage_probabilities": [0.3, 0.6]}),
     "rollout params: stage_boundaries must be an integer, got 3.7"),
    (dict(TINY_SCENARIO, rollout={"stage_boundaries": ["1", 3], "stage_probabilities": [0.3, 0.6]}),
     "rollout params: stage_boundaries must be an integer, got '1'"),
    (dict(TINY_SCENARIO, graph=dict(TINY_SCENARIO["graph"], n_eligible=30.5)),
     "graph params: n_eligible must be an integer, got 30.5"),
    (dict(TINY_SCENARIO, graph=dict(TINY_SCENARIO["graph"], n_connected=True)),
     "graph params: n_connected must be an integer, got True"),
    (dict(TINY_SCENARIO, graph=dict(TINY_SCENARIO["graph"], n_ineligible=-1)),
     "graph params: n_ineligible must be >= 0, got -1"),
    (dict(TINY_SCENARIO, dgp=dict(TINY_SCENARIO["dgp"], beta="1")),
     "dgp params: beta must be a finite number, got '1'"),
    (dict(TINY_SCENARIO, dgp=dict(TINY_SCENARIO["dgp"], baseline_sd=-1)),
     "dgp params: baseline_sd must be >= 0, got -1"),
    (dict(TINY_SCENARIO, dgp=dict(TINY_SCENARIO["dgp"], baseline_mean=float("nan"))),
     "dgp params: baseline_mean must be a finite number, got nan"),
    (dict(TINY_SCENARIO, dgp=dict(TINY_SCENARIO["dgp"], beta=float("inf"))),
     "dgp params: beta must be a finite number, got inf"),
    (dict(TINY_SCENARIO, graph=dict(TINY_SCENARIO["graph"], weight_mode="lognormal", weight_sd="x")),
     "graph params: weight_sd must be a finite number, got 'x'"),
    (with_block("basic", {"learner": {"kind": "ridge", "lambda_grid": [float("nan")]}}),
     "learner config: lambda_grid values must be a finite number, got nan"),
    (with_block("cmp", {"learner": {"kind": "ridge", "lambda_grid": [True]}}),
     "learner config: lambda_grid values must be a finite number, got True"),
    (with_block("basic", {"learner": {"kind": "kernel_ridge", "lambda_grid": [0.1], "bandwidth": -1.0}}),
     "learner config: bandwidth must be > 0, got -1.0"),
    (with_block("basic", {"learner": {"kind": "kernel_ridge", "lambda_grid": [0.1], "bandwidth": 0}}),
     "learner config: bandwidth must be > 0, got 0"),
])
@pytest.mark.parametrize("command", ["bench", "simulate"])
def test_malformed_scenario_config_exits_one(tmp_path, capsys, command, config, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, fields, message", BAD_ESTIMATOR_BLOCKS)
def test_malformed_estimator_config_exits_one(tmp_path, capsys, block, fields, message):
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps(dict(TINY_SCENARIO["estimators"][block], seed=1, **fields)))
    out = tmp_path / "o.json"
    argv = ["estimate", "--data", str(tmp_path / "data"), "--method", block, "--config", str(est_cfg),
            "--out", str(out)]
    assert cli_main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_preset_name_exits_one(tmp_path, capsys):
    assert cli_main(["bench", "--config", "mystery_preset", "--out", str(tmp_path / "r.json")]) == 1
    assert "preset" in capsys.readouterr().err


def test_preset_configs_load_by_name():
    for name in ("no_interference", "upward_bias", "sign_reversal"):
        (cfg,) = load_scenario_configs(name)
        assert cfg.name == name


# Bench's optional paths: a cmp fit that reads its fit stream (the two-value lambda grid needs CV) and a network
# lambda grid that needs CV.
# At seed 74 the CV picks a different lambda in both replicates when the
# network fit seed takes an extra hop, so any seed drift between CLI and bench shows.
PARITY_SCENARIO = dict(
    TINY_SCENARIO,
    seed=74,
    replicates=2,
    estimators={
        "basic": TINY_SCENARIO["estimators"]["basic"],
        "network": dict(
            TINY_SCENARIO["estimators"]["network"],
            learner={"kind": "ridge", "lambda_grid": [1e-3, 3, 10]},
        ),
        "cmp": TINY_SCENARIO["estimators"]["cmp"],
    },
)


@pytest.fixture(scope="module")
def parity_bench():
    cfg = scenario_from_dict(PARITY_SCENARIO)
    return cfg, run_scenario(cfg).scenarios[0]["replicates"]


@pytest.mark.parametrize("method, report_key", [("basic", "basic"), ("network", "network_aware"), ("cmp", "cmp")])
def test_cli_estimate_matches_bench_replicate(tmp_path, parity_bench, method, report_key):
    cfg, records = parity_bench
    for record in records:
        r = record["index"]
        data_dir = tmp_path / f"data_{r}"
        save_dataset(simulate_scenario_dataset(cfg, r), data_dir)
        est_cfg = tmp_path / f"{method}_{r}.json"
        block = PARITY_SCENARIO["estimators"][method]
        est_cfg.write_text(json.dumps(dict(block, seed=child_seed(cfg.seed, "replicate", r))))
        out = tmp_path / f"{method}_{r}_out.json"
        argv = ["estimate", "--data", str(data_dir), "--method", method, "--config", str(est_cfg), "--out", str(out)]
        assert cli_main(argv) == 0
        assert record["estimates"][report_key] is not None
        assert json.loads(out.read_text()) == record["estimates"][report_key]
