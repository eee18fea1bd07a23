"""Console entry point: config handling, artifacts, exit codes, rerun
stability.  Commands run as subprocesses so exit codes, streams, and file
side effects are observed exactly as a shell user sees them."""

import logging
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccopf import cli
from ccopf.ac_model import NewtonError, fixed_point_solve
from ccopf.ambiguity import AmbiguityParams
from ccopf.case_io import packaged_case_path
from ccopf.cli import (
    _KEYS,
    CliError,
    _DcModel,
    build_parser,
    _exit_code_for,
    _parse_k_values,
    _read_config,
    _resolve_run,
    _robust_objective,
    sweep_k,
)
from conftest import subprocess_env

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# All-zero cost rows for the five machines of case14: every dispatch,
# the robust one included, costs 0.
ZERO_COSTS = "case.cost_override=" + "\n".join(["0 0 0"] * 5)


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ccopf.cli", *[str(a) for a in args]],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=subprocess_env())


def read_table(path):
    """CSV rows as dicts, skipping # comment lines."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.fixture(scope="module")
def tutorial_run(tmp_path_factory):
    """One verbatim run of the walkthrough config in a fresh directory."""
    workdir = tmp_path_factory.mktemp("tutorial")
    result = run_cli(["solve", "dc", "--config",
                      CONFIG_DIR / "tutorial.ini"], cwd=workdir)
    assert result.returncode == 0, result.stderr
    return workdir, result


@pytest.fixture(scope="module")
def ac14_run(tmp_path_factory):
    """configs/ac14.ini on 100 test scenarios, with the robust ratio."""
    workdir = tmp_path_factory.mktemp("ac14")
    result = run_cli(["solve", "ac", "--config", CONFIG_DIR / "ac14.ini",
                      "--set", "scenarios.test_s=100",
                      "--set", "solve.report_ro=true"], cwd=workdir)
    assert result.returncode == 0, result.stderr
    return workdir, result


@pytest.fixture(scope="module")
def sweep14_run(tmp_path_factory):
    """One verbatim run of configs/sweep14.ini in a fresh directory."""
    workdir = tmp_path_factory.mktemp("sweep14")
    result = run_cli(["sweep", "--config", CONFIG_DIR / "sweep14.ini"],
                     cwd=workdir)
    assert result.returncode == 0, result.stderr
    return workdir


def report_scalars(path):
    """The metric,,value lines of a report CSV."""
    return {r["metric"]: r["value"] for r in read_table(path)
            if not r["name"]}


class TestCaseInfo:
    def test_counts_for_bundled_case(self, tmp_path):
        result = run_cli(["case", "info", "--case", "pkg:case14"],
                         cwd=tmp_path)
        assert result.returncode == 0
        info = dict(line.split(": ") for line in
                    result.stdout.strip().splitlines())
        assert info["buses"] == "14"
        assert info["generators"] == "5"
        assert info["branches"] == "20"
        assert float(info["total_load_mw"]) == pytest.approx(259.0)

    def test_bundled_large_case(self, tmp_path):
        result = run_cli(["case", "info", "--case", "pkg:case300s"],
                         cwd=tmp_path)
        assert result.returncode == 0
        info = dict(line.split(": ") for line in
                    result.stdout.strip().splitlines())
        assert info["buses"] == "300"

    def test_missing_case_file_names_path(self, tmp_path):
        result = run_cli(["case", "info", "--case", "/no/such/grid.m"],
                         cwd=tmp_path)
        assert result.returncode == 1
        assert "/no/such/grid.m" in result.stderr

    def test_unknown_bundled_case(self, tmp_path):
        result = run_cli(["case", "info", "--case", "pkg:case9999"],
                         cwd=tmp_path)
        assert result.returncode == 1
        assert "case9999" in result.stderr


class TestScenario:
    def test_gen_repeats_byte_identical(self, tmp_path):
        args = ["scenario", "gen", "--config", CONFIG_DIR / "tutorial.ini",
                "--s", 30, "--seed", 7]
        assert run_cli(args, cwd=tmp_path).returncode == 0
        path = tmp_path / "out" / "scenarios_s30_seed7.csv"
        first = path.read_bytes()
        assert run_cli(args, cwd=tmp_path).returncode == 0
        assert path.read_bytes() == first
        header = first.decode().splitlines()
        assert header[0].startswith("# seed=7 ")
        assert header[1] == "bus2,bus3"
        assert len(header) == 2 + 30

    def test_stats_reports_shape(self, tmp_path):
        run_cli(["scenario", "gen", "--config", CONFIG_DIR / "tutorial.ini",
                 "--s", 25, "--seed", 3], cwd=tmp_path)
        result = run_cli(
            ["scenario", "stats", "out/scenarios_s25_seed3.csv"],
            cwd=tmp_path)
        assert result.returncode == 0
        assert "s: 25" in result.stdout
        assert "n_vre: 2" in result.stdout

    def test_gen_from_explicit_spec(self, tmp_path):
        result = run_cli(
            ["scenario", "gen", "--s", 10, "--seed", 1,
             "--forecasts", 0.2, 0.2, "--zeta", 0.05, "--rho", 0.2],
            cwd=tmp_path)
        assert result.returncode == 0
        assert (tmp_path / "out" / "scenarios_s10_seed1.csv").is_file()

    def test_gen_without_spec_rejected(self, tmp_path):
        result = run_cli(["scenario", "gen", "--s", 10, "--seed", 1],
                         cwd=tmp_path)
        assert result.returncode == 1

    def test_gen_out_stays_in_the_output_dir(self, tmp_path):
        # Each name would land outside out/ (an absolute path anywhere,
        # out/../escape.csv in the working directory) or name a directory.
        workdir = tmp_path / "work"
        workdir.mkdir()
        for name in (tmp_path / "x.csv", "../escape.csv", "..", "."):
            result = run_cli(
                ["scenario", "gen", "--config", CONFIG_DIR / "tutorial.ini",
                 "--s", 5, "--seed", 1, "--out", name], cwd=workdir)
            assert result.returncode == 1
            assert result.stderr.startswith("error: --out: ")
            assert "Traceback" not in result.stderr
            assert [p.name for p in tmp_path.rglob("*")] == ["work"]


class TestAmbiguity:
    def test_eps_prints_decimal(self, tmp_path):
        result = run_cli(["ambiguity", "eps", "--k", 97, "--s", 100],
                         cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip().startswith("0.109")

    def test_eps_range_emits_csv(self, tmp_path):
        result = run_cli(
            ["ambiguity", "eps", "--k-range", "96:100:2", "--s", 100],
            cwd=tmp_path)
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "k,epsilon_star,bound"
        eps = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(eps) == 3
        assert eps == sorted(eps, reverse=True)

    def test_mink_matches_known_value(self, tmp_path):
        result = run_cli(
            ["ambiguity", "mink", "--target", 0.10, "--s", 100],
            cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "98"

    def test_mink_unreachable_target(self, tmp_path):
        result = run_cli(
            ["ambiguity", "mink", "--target", 0.001, "--s", 10],
            cwd=tmp_path)
        assert result.returncode == 1

    def test_k_for_radius(self, tmp_path):
        result = run_cli(
            ["ambiguity", "k", "--eps", 0.2, "--radius", 0.01, "--s", 100],
            cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip().isdigit()


class TestInputErrors:
    @pytest.mark.parametrize("args, made", [
        (["scenario", "gen", "--s", 0, "--seed", 1, "--forecasts", 0.2,
          "--zeta", 0.05, "--rho", 0.2], ()),
        (["scenario", "gen", "--s", 5, "--seed", 1, "--forecasts", 0.2,
          "--zeta", 0.05, "--rho", 1.5], ()),
        (["ambiguity", "eps", "--k", 0, "--s", 10], ()),
        (["ambiguity", "eps", "--k-range", "5:3", "--s", 10], ()),
        (["ambiguity", "eps", "--k-range", "96:100:2", "--s", 100, "--csv",
          "no/such/dir/table.csv"], ()),
        (["ambiguity", "k", "--eps", 0, "--radius", 0.1, "--s", 10], ()),
        (["ambiguity", "k", "--eps", 0.1, "--radius", "nan", "--s", 100], ()),
        (["ambiguity", "k", "--eps", 0.1, "--radius", -1.0, "--s", 100], ()),
        (["ambiguity", "k", "--eps", "nan", "--radius", 0.1, "--s", 100], ()),
        (["scenario", "stats", "missing.csv"], ()),
        # A non-finite forecast or zeta gives a covariance that is not PSD.
        (["scenario", "gen", "--s", 5, "--seed", 1, "--forecasts", "nan",
          0.2, "--zeta", 0.05, "--rho", 0.2], ()),
        (["scenario", "gen", "--s", 5, "--seed", 1, "--forecasts", "inf",
          0.2, "--zeta", 0.05, "--rho", 0.2], ()),
        (["scenario", "gen", "--s", 5, "--seed", 1, "--forecasts", 0.2,
          0.2, "--zeta", "inf", "--rho", 0.2], ()),
        # An output file whose path inside output.dir is a directory.
        (["scenario", "gen", "--s", 5, "--seed", 1, "--forecasts", 0.2,
          "--zeta", 0.05, "--rho", 0.2, "--out", "sub"], ("out/sub",)),
        (["solve", "dc", "-c", CONFIG_DIR / "tutorial.ini"],
         ("out/tutorial.log",)),
        (["sweep", "-c", CONFIG_DIR / "sweep14.ini"], ("out/sweep14.log",)),
        (["sweep", "-c", CONFIG_DIR / "sweep14.ini", "--set",
          "sweep.k_values=190:185"], ()),
        (["eval", "-c", CONFIG_DIR / "tutorial.ini", "--solution",
          CONFIG_DIR.parent / "out" / "tutorial_solution.csv"],
         ("out/tutorial_eval.csv",)),
    ], ids=["gen-s0", "gen-rho", "eps-k0", "eps-k-range-descending",
            "eps-csv-unwritable", "k-eps0", "k-radius-nan",
            "k-radius-negative", "k-eps-nan", "stats-missing",
            "gen-forecast-nan", "gen-forecast-inf", "gen-zeta-inf",
            "gen-out-is-a-dir", "solve-log-is-a-dir", "sweep-log-is-a-dir",
            "sweep-k-values-descending", "eval-report-is-a-dir"])
    def test_bad_input_is_an_error_line(self, tmp_path, args, made):
        for name in made:
            (tmp_path / name).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        result = run_cli(args, cwd=tmp_path)
        assert result.returncode == 1
        # The error line is last: loading case14 warns first.
        lines = result.stderr.splitlines()
        assert lines[-1].startswith("error:")
        assert sum(line.startswith("error:") for line in lines) == 1
        assert "Traceback" not in result.stderr
        assert sorted(tmp_path.rglob("*")) == before  # nothing written

    @pytest.mark.parametrize("args", [
        ["case", "info", "--case", "bad.m"],
        ["solve", "dc", "-c", CONFIG_DIR / "sweep14.ini",
         "--set", "case.path=bad.m", "--set", "solve.k=190"],
    ], ids=["case-info", "solve-dc"])
    def test_non_finite_case_entry_is_an_error_line(self, tmp_path, args):
        # case14 with bus 4's load read as NaN: unchecked, case info prints
        # a NaN total load and the DC search on it does not end.
        text = Path(packaged_case_path("case14")).read_text()
        text, count = re.subn(r"(?m)^(\s+4\s+1\s+)47\.8(\s)", r"\g<1>nan\2",
                              text)
        assert count == 1
        (tmp_path / "bad.m").write_text(text)
        before = sorted(tmp_path.rglob("*"))
        result = run_cli(args, cwd=tmp_path)
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert [line for line in lines if line.startswith("error:")] == [
            lines[-1]]
        assert lines[-1].endswith(
            "line 28: non-finite entry in matrix 'bus'")
        assert "Traceback" not in result.stderr
        assert sorted(tmp_path.rglob("*")) == before

    def test_scenario_csv_without_labels_is_an_error_line(self, tmp_path):
        # Three scenarios and no label row: read as the labels, the first
        # scenario would be lost, and the run would go on with S = 2.
        (tmp_path / "train.csv").write_text("0.01,0.02\n0.03,-0.01\n0,0\n")
        result = run_cli(
            ["solve", "dc", "-c", CONFIG_DIR / "tutorial.ini",
             "--set", "scenarios.train_csv=train.csv",
             "--set", "scenarios.test_s=10"],
            cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            "error: config key scenarios.train_csv: train.csv: row 1 holds "
            "numbers, not column labels; a scenario CSV starts with a label "
            "row")
        assert "Traceback" not in result.stderr


# Text that every key of _KEYS but output.dir must reject (any text names a
# directory; one that cannot be made is test_uncreatable_output_dir_names_
# its_key).  Each is wrong for its key alone: nan, inf, a number out of the
# key's range, text that is not a number, or empty text for a key that the
# tutorial config needs.
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400", "x"])
NOT_INTEGER = st.sampled_from(["nan", "inf", "1.5", "1e3", "x"])
NEGATIVE = st.floats(max_value=-5e-324).map(str)  # -0.0 is not negative
NOT_POSITIVE = st.floats(max_value=0).map(str) | NOT_FINITE
NOT_COUNT = st.integers(max_value=0).map(str) | NOT_INTEGER
NOT_SEED = st.integers(max_value=-1).map(str) | NOT_INTEGER
NOT_BOOL = st.sampled_from(["maybe", "2", "-1", "nan", "tru"])
EMPTY = st.just("")
BAD_VALUES = {
    "case.path": EMPTY | st.sampled_from(["pkg:case9999", "no/such/grid.m"]),
    "case.default_line_limit": NOT_POSITIVE,
    "case.cost_override": st.sampled_from(
        ["nan 20 0", "0 inf 0", "-1 20 0", "0 20", "0 20 0 1", "x 20 0"]),
    "fleet.buses": EMPTY | st.sampled_from(["x 3", "1.5 3", "2 2"])
    | st.integers().filter(lambda b: not 1 <= b <= 14).map(
        lambda b: f"{b} 3"),
    "fleet.forecasts_mw": EMPTY | st.just("20")
    | NOT_POSITIVE.map(lambda mw: f"{mw} 20"),
    "fleet.gamma": NOT_FINITE,
    "scenarios.zeta": EMPTY | NOT_POSITIVE,
    "scenarios.rho": EMPTY | NOT_FINITE
    | NEGATIVE
    | st.floats(min_value=1).map(str),
    **{f"scenarios.{which}_s": EMPTY | NOT_COUNT
       for which in ("train", "test")},
    **{f"scenarios.{which}_seed": EMPTY | NOT_SEED
       for which in ("train", "test")},
    "scenarios.ro_s": NOT_COUNT,
    "scenarios.ro_seed": NOT_SEED,
    **{f"scenarios.{which}_csv": st.just("no/such.csv")
       for which in ("train", "test", "ro")},
    "solve.model": st.sampled_from(["acx", "DC", "nan", "0"]),
    "solve.k": NOT_COUNT,
    "solve.epsilon_target": NOT_FINITE | st.floats(max_value=0).map(str)
    | st.floats(min_value=1, exclude_min=True).map(str),
    "solve.report_ro": NOT_BOOL,
    "solve.include_slack_rows": NOT_BOOL,
    "solve.node_limit": st.integers(max_value=-1).map(str) | NOT_INTEGER,
    "solve.rel_gap": NOT_FINITE | NEGATIVE,
    "sweep.k_values": NOT_COUNT | st.sampled_from(
        ["-1 5", "1:10:0", "1:2:3:4", "5:1", "1:x", ","]),
    "sweep.record_time": NOT_BOOL,
    "output.prefix": st.sampled_from(["a/b", "../up"]),
}


class TestConfigKeys:
    def test_readme_table_lists_the_accepted_keys(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        table = readme.split("| Key | Meaning |")[1].split("\n\n")[0]
        keys = set()
        for cell in re.findall(r"^\| (.*?) \|", table, re.M):
            for name in re.findall(r"`([a-z_.{},]+)`", cell):
                stem, _, alts = name.partition("{")
                alts, _, tail = alts.partition("}")
                keys.update(stem + alt + tail for alt in alts.split(","))
        assert keys == set(_KEYS)
        assert len(keys) == 28

    def test_misspelled_key_in_the_file_rejected(self, tmp_path):
        config = tmp_path / "typo.ini"
        config.write_text((CONFIG_DIR / "tutorial.ini").read_text().replace(
            "[solve]\n", "[solve]\nnode_limt = 0\n"))
        result = run_cli(["solve", "dc", "--config", config], cwd=tmp_path)
        assert result.returncode == 1
        assert "unknown config key solve.node_limt" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_misspelled_override_rejected(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "solve.rel-gap=0.5"], cwd=tmp_path)
        assert result.returncode == 1
        assert "unknown config key solve.rel-gap" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_every_key_but_output_dir_has_bad_values(self):
        assert set(BAD_VALUES) == set(_KEYS) - {"output.dir"}

    @given(st.sampled_from(sorted(BAD_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), BAD_VALUES[key])))
    def test_bad_value_is_rejected_under_its_key(self, key_value):
        key, value = key_value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # case14's dropped branch data
            with pytest.raises(CliError) as info:
                _resolve_run(CONFIG_DIR / "tutorial.ini", [f"{key}={value}"])
        assert str(info.value).startswith(f"config key {key}"), info.value
        assert info.value.exit_code == 1

    def test_bad_value_is_an_error_line_and_writes_nothing(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "fleet.forecasts_mw=nan 20"], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr == ("error: config key fleet.forecasts_mw: "
                                 "must be a finite number > 0, got 'nan'\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value, reason", [
        ("-5 20", "must be a finite number > 0, got '-5'"),
        ("20", "must give one value per bus, got 1 for 2 buses")])
    def test_forecast_error_names_its_key(self, value, reason):
        with pytest.raises(CliError) as info:
            _resolve_run(CONFIG_DIR / "tutorial.ini",
                         [f"fleet.forecasts_mw={value}"])
        assert str(info.value) == f"config key fleet.forecasts_mw: {reason}"

    @pytest.mark.parametrize("command, config", [
        ("dc", "tutorial.ini"), ("ac", "ac14.ini")])
    def test_disconnected_network_names_case_path(self, tmp_path, command,
                                                  config):
        # case14 without its 7-8 branch: bus 8 hangs on no branch.
        lines = Path(packaged_case_path("case14")).read_text().splitlines()
        kept = [ln for ln in lines if not re.match(r"\s*7\s+8\s", ln)]
        assert len(kept) == len(lines) - 1
        case = tmp_path / "split.m"
        case.write_text("\n".join(kept) + "\n")
        result = run_cli(["solve", command, "--config", CONFIG_DIR / config,
                          "--set", f"case.path={case}"], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            "error: config key case.path: the network is not connected "
            "through its branches")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_malformed_scenario_csv_names_its_key(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text("bus2,bus3\n0.01,0.02\n0.01,oops\n")
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", f"scenarios.train_csv={csv}"], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            f"error: config key scenarios.train_csv: {csv}: non-numeric "
            "cell at row 3, column 2: 'oops'")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_cost_row_count_names_its_key(self):
        with pytest.raises(CliError) as info:
            _resolve_run(CONFIG_DIR / "tutorial.ini",
                         ["case.cost_override=0 20 0"])
        assert str(info.value) == (
            "config key case.cost_override: cost_override shape (1, 3) does "
            "not match 5 in-service generators x 3 coefficients")

    @pytest.mark.parametrize("command", ["solve", "sweep", "eval",
                                         "scenario gen"])
    def test_uncreatable_output_dir_names_its_key(self, tutorial_run,
                                                  tmp_path, command):
        solution = tutorial_run[0] / "out" / "tutorial_solution.csv"
        tutorial = ["--config", CONFIG_DIR / "tutorial.ini"]
        args = {"solve": ["solve", "dc", *tutorial],
                "sweep": ["sweep", "--config", CONFIG_DIR / "sweep14.ini"],
                "eval": ["eval", *tutorial, "--solution", solution],
                "scenario gen": ["scenario", "gen", *tutorial, "--s", 5,
                                 "--seed", 1]}[command]
        (tmp_path / "file").write_text("")
        result = run_cli([*args, "--set",
                          f"output.dir={tmp_path / 'file' / 'out'}"],
                         cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1].startswith(
            "error: config key output.dir: ")
        assert "Traceback" not in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["file"]


class TestSolveDc:
    def test_tutorial_run_end_to_end(self, tutorial_run):
        workdir, result = tutorial_run
        assert "k = 98 chosen" in result.stdout
        log_text = (workdir / "out" / "tutorial.log").read_text()
        assert "k = 98 chosen" in log_text

        solution = workdir / "out" / "tutorial_solution.csv"
        assert solution.read_text().startswith("# config=")
        rows = read_table(solution)
        assert len(rows) == 5
        mw = [float(r["p_mw"]) for r in rows]
        # the free machine carries the bulk; the others stay small but on
        assert mw[0] > 150.0
        assert all(0.0 <= v < 15.0 for v in mw[1:])

        report = read_table(workdir / "out" / "tutorial_report.csv")
        scalars = {r["metric"]: r["value"] for r in report if not r["name"]}
        assert float(scalars["joint_violation_rate"]) <= 0.0924
        assert float(scalars["cost_vs_ro"]) <= 1.0 + 1e-9

    def test_rerun_is_byte_identical(self, tutorial_run):
        workdir, _ = tutorial_run
        outputs = ["tutorial_solution.csv", "tutorial_report.csv",
                   "tutorial.log"]
        before = {n: (workdir / "out" / n).read_bytes() for n in outputs}
        result = run_cli(["solve", "dc", "--config",
                          CONFIG_DIR / "tutorial.ini"], cwd=workdir)
        assert result.returncode == 0
        for name in outputs:
            assert (workdir / "out" / name).read_bytes() == before[name], name

    def test_external_robust_set_enters_the_digest(self, tmp_path):
        def digest(*overrides):
            args = ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
                    "--set", "scenarios.test_s=500"]
            for item in overrides:
                args += ["--set", item]
            result = run_cli(args, cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            report = tmp_path / "out" / "tutorial_report.csv"
            return report.read_text().splitlines()[0]

        plain = digest()
        external = [digest("scenarios.ro_s=200", f"scenarios.ro_seed={seed}")
                    for seed in (3, 4)]
        assert len({plain, *external}) == 3
        # Without the reported ratio the robust set leaves the digest
        # alone, but the switch itself changes the report and the digest.
        unreported = digest("solve.report_ro=false")
        assert digest("scenarios.ro_s=200", "scenarios.ro_seed=3",
                      "solve.report_ro=false") == unreported
        assert unreported != plain

    @pytest.mark.parametrize("key, value", [
        ("rel_gap", "-0.01"), ("rel_gap", "nan"), ("node_limit", "-3")])
    def test_bad_solver_option_names_its_key(self, tmp_path, key, value):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", f"solve.{key}={value}"], cwd=tmp_path)
        assert result.returncode == 1
        assert (f"config key solve.{key}: {key} must be" in result.stderr)
        assert not (tmp_path / "out" / "tutorial_solution.csv").exists()

    def test_missing_case_file_exit_1(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "case.path=/gone/grid.m"], cwd=tmp_path)
        assert result.returncode == 1
        assert "/gone/grid.m" in result.stderr

    def test_both_count_and_target_rejected(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "solve.k=98"], cwd=tmp_path)
        assert result.returncode == 1
        assert "solve.k" in result.stderr
        assert "solve.epsilon_target" in result.stderr

    def test_neither_count_nor_target_rejected(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "solve.epsilon_target="], cwd=tmp_path)
        assert result.returncode == 1
        assert "neither" in result.stderr

    @pytest.mark.parametrize("sets", [
        ["solve.k=500"], ["solve.k=500", "solve.epsilon_target="]])
    def test_rejected_count_keeps_the_last_log(self, tmp_path, sets):
        log_path = tmp_path / "out" / "tutorial.log"
        log_path.parent.mkdir()
        log_path.write_text("the last good run\n")
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             *[arg for item in sets for arg in ("--set", item)]],
            cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1].startswith(
            "error: config key")
        assert "solve.k" in result.stderr
        assert log_path.read_text() == "the last good run\n"

    def test_malformed_override_rejected(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "nonsense"], cwd=tmp_path)
        assert result.returncode == 1

    def test_overloaded_network_exit_2(self, tmp_path):
        # 500 MW of load behind a 50 MVA line: no dispatch can serve it
        case = tmp_path / "overload.m"
        case.write_text(
            "function mpc = overload\n"
            "mpc.version = '2';\n"
            "mpc.baseMVA = 100;\n"
            "mpc.bus = [\n"
            " 1 3 0 0 0 0 1 1.0 0 135 1 1.1 0.9;\n"
            " 2 1 500 0 0 0 1 1.0 0 135 1 1.1 0.9;\n"
            "];\n"
            "mpc.gen = [\n"
            " 1 0 0 10 -10 1.0 100 1 1000 0"
            + " 0" * 11 + ";\n"
            "];\n"
            "mpc.branch = [\n"
            " 1 2 0.01 0.1 0 50 0 0 0 0 1 -360 360;\n"
            "];\n"
            "mpc.gencost = [\n"
            " 2 0 0 3 0.01 20 0;\n"
            "];\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[case]\npath = {case}\n"
            "[fleet]\nbuses = 2\nforecasts_mw = 10\n"
            "[scenarios]\nzeta = 0.05\nrho = 0.2\n"
            "train_s = 10\ntrain_seed = 1\ntest_s = 10\ntest_seed = 2\n"
            "[solve]\nk = 10\n")
        result = run_cli(["solve", "dc", "--config", cfg], cwd=tmp_path)
        assert result.returncode == 2

    def test_failed_robust_baseline_keeps_the_solved_dispatch(self,
                                                                tmp_path):
        # k = 98 solves to OPTIMAL, but no dispatch holds all 100 training
        # scenarios at this line limit: the ratio is nan, the run succeeds.
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "case.default_line_limit=0.26",
             "--set", "scenarios.test_s=300"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        log_text = (tmp_path / "out" / "tutorial.log").read_text()
        assert ("robust baseline failed: robust baseline infeasible: "
                "scenarios driving the conflict: [10, 45, 53, 92]"
                in log_text)
        assert "robust baseline cost" not in log_text
        scalars = report_scalars(tmp_path / "out" / "tutorial_report.csv")
        assert scalars["cost_vs_ro"] == "nan"
        assert float(scalars["cost"]) > 0
        assert len(read_table(tmp_path / "out" / "tutorial_solution.csv")) == 5

    def test_zero_robust_cost_gives_a_nan_ratio(self, tmp_path):
        result = run_cli(
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", ZERO_COSTS, "--set", "scenarios.test_s=300"],
            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "robust baseline costs 0: no cost ratio" in result.stdout
        scalars = report_scalars(tmp_path / "out" / "tutorial_report.csv")
        assert scalars["cost_vs_ro"] == "nan"
        assert float(scalars["cost"]) == 0.0


class TestSolveAc:
    def test_artifacts_written(self, tmp_path):
        cfg = tmp_path / "ac.ini"
        cfg.write_text(
            "[case]\npath = pkg:case14q\n"
            "[fleet]\nbuses = 2 3\nforecasts_mw = 20 20\ngamma = 0.1\n"
            "[scenarios]\nzeta = 0.05\nrho = 0.2\n"
            "train_s = 10\ntrain_seed = 3\ntest_s = 50\ntest_seed = 4\n"
            "[solve]\nmodel = ac\nk = 9\nreport_ro = false\n"
            "[output]\nprefix = acmini\n")
        result = run_cli(["solve", "ac", "--config", cfg], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        out = tmp_path / "out"
        for name in ("acmini_solution.csv", "acmini_report.csv",
                     "acmini_state_bus.csv", "acmini_state_branch.csv",
                     "acmini_trace.csv"):
            assert (out / name).is_file(), name
        bus_rows = read_table(out / "acmini_state_bus.csv")
        assert len(bus_rows) == 14
        assert {"bus", "id", "kind", "p_pu", "q_pu", "vmag_pu",
                "theta_rad"} <= set(bus_rows[0])
        branch_rows = read_table(out / "acmini_state_branch.csv")
        assert len(branch_rows) == 20
        trace = read_table(out / "acmini_trace.csv")
        assert len(trace) >= 1
        assert {"t", "d", "objective"} == set(trace[0])
        assert float(trace[-1]["d"]) <= 1e-4

    def test_failed_power_flow_is_a_numerical_failure(self, tmp_path):
        # 6 GW of wind on a 259 MW network: the starting point has no
        # power-flow solution, which is exit 3 with the reason logged.
        result = run_cli(
            ["solve", "ac", "--config", CONFIG_DIR / "ac14.ini",
             "--set", "fleet.forecasts_mw=3000 3000",
             "--set", "scenarios.test_s=100"], cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        log_text = (tmp_path / "out" / "ac14.log").read_text()
        assert ("alternating solve failed: starting-point power flow: "
                "no convergence" in log_text)
        assert not (tmp_path / "out" / "ac14_solution.csv").exists()

    def test_case300s_linearization_loop_says_why_it_stops(self, tmp_path):
        # The deterministic stage on case300s does not settle: the
        # linearized rows move between passes, and every pass steps the
        # dispatch by 2-4 p.u.  The run ends as a numerical failure that
        # names the loop, and writes only its log.
        result = run_cli(
            ["solve", "ac", "--config", CONFIG_DIR / "sweep300.ini",
             "--set", "solve.model=ac", "--set", "scenarios.train_s=40",
             "--set", "solve.k=38", "--set", "scenarios.test_s=500"],
            cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        log_text = (tmp_path / "out" / "sweep300.log").read_text()
        assert ("alternating solve failed: linearization loop still moving "
                "after 20 passes (last step " in log_text)
        assert [p.name for p in (tmp_path / "out").iterdir()] == [
            "sweep300.log"]

    def test_rated_branches_are_monitored(self, tmp_path):
        # Every branch rated at 2 p.u.: the 34 machine and voltage rows,
        # the 40 directed flows and the Newton failure line are reported.
        result = run_cli(
            ["solve", "ac", "--config", CONFIG_DIR / "ac14.ini",
             "--set", "case.default_line_limit=2.0",
             "--set", "scenarios.test_s=100"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        names = [r["name"] for r in read_table(tmp_path / "out"
                                               / "ac14_report.csv")
                 if r["metric"] == "per_row"]
        assert len(names) == 75 and names[-1] == "newton_failure"
        assert sum(name.startswith("flow") for name in names) == 40

    def test_rated_run_reproduces_its_pinned_files(self, tmp_path):
        # Every branch rated at 1.3 p.u.: 40 flow rows enter the
        # linearization and the scorer, which the unrated out/ac14_* run
        # never reaches.  solve (3 outer iterations) and eval on its
        # solution write the bytes pinned in tests/data/ac14_rated/.
        pinned = Path(__file__).resolve().parent / "data" / "ac14_rated"
        rated = ["--config", CONFIG_DIR / "ac14.ini",
                 "--set", "case.default_line_limit=1.3"]
        for args in (["solve", "ac", *rated],
                     ["eval", *rated, "--solution", "out/ac14_solution.csv"]):
            result = run_cli(args, cwd=tmp_path)
            assert result.returncode == 0, result.stderr
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == sorted(p.name for p in pinned.iterdir())
        for name in written:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (pinned / name).read_bytes()), name

    @pytest.mark.parametrize("command", ["solve", "eval"])
    def test_generator_at_a_pq_bus_names_case_path(self, tmp_path, command):
        # case14q with bus 3, which holds a machine, typed PQ: the AC model
        # rejects it before the last run's log is touched.
        text = Path(packaged_case_path("case14q")).read_text()
        text, count = re.subn(r"(?m)^(\s+3\s+)2(\s+94\.2\s)", r"\g<1>1\2",
                              text)
        assert count == 1
        case = tmp_path / "pq3.m"
        case.write_text(text)
        log_path = tmp_path / "out" / "ac14.log"
        log_path.parent.mkdir()
        log_path.write_text("the last good run\n")
        args = {"solve": ["solve", "ac"],
                "eval": ["eval", "--solution", "void.csv"]}[command]
        result = run_cli([*args, "--config", CONFIG_DIR / "ac14.ini",
                          "--set", f"case.path={case}"], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            "error: config key case.path: generator at PQ bus 3 is not "
            "supported by the nonlinear model (bus must hold voltage)")
        assert "Traceback" not in result.stderr
        assert log_path.read_text() == "the last good run\n"
        assert [p.name for p in log_path.parent.iterdir()] == ["ac14.log"]
        # The linearized model takes the same case.
        run = _resolve_run(CONFIG_DIR / "tutorial.ini",
                           [f"case.path={case}"], sets=("train",))
        assert run.model.name == "dc"

    def test_failed_scoring_is_a_numerical_failure(self, tmp_path,
                                                   monkeypatch, caplog):
        def fail(*args, **kwargs):
            raise NewtonError("nominal power flow for evaluation: injected")

        monkeypatch.setattr(cli, "AcEvaluator", fail)
        out = tmp_path / "out"
        args = build_parser().parse_args(
            ["solve", "ac", "--config", str(CONFIG_DIR / "ac14.ini"),
             "--set", "scenarios.test_s=100", "--set", f"output.dir={out}"])
        with caplog.at_level(logging.INFO, logger="ccopf"):
            assert args.func(args) == 3
        assert ("out-of-sample scoring failed: nominal power flow for "
                "evaluation: injected") in (out / "ac14.log").read_text()
        assert [p.name for p in out.iterdir()] == ["ac14.log"]

    def test_config_model_must_match_the_command(self, tmp_path):
        # configs/ac14.ini names model = ac: solve dc must not overwrite
        # the AC run's files with a DC dispatch.
        result = run_cli(["solve", "dc", "--config", CONFIG_DIR / "ac14.ini",
                          "--set", "scenarios.test_s=100"], cwd=tmp_path)
        assert result.returncode == 1
        assert "solve.model" in result.stderr
        assert not list(tmp_path.glob("out/ac14*"))

    def test_cost_ratio_is_against_the_robust_fixed_point(self, ac14_run):
        workdir, _ = ac14_run
        run = _resolve_run(CONFIG_DIR / "ac14.ini", sets=("train",))
        case, fleet = run.model.case, run.model.fleet
        train = run.sets["train"]
        robust = fixed_point_solve(case, fleet, train,
                                   AmbiguityParams.from_k(40, 40))
        scalars = report_scalars(workdir / "out" / "ac14_report.csv")
        assert float(scalars["cost_vs_ro"]) == pytest.approx(
            float(scalars["cost"]) / robust.selection.objective, rel=1e-10)


class TestSweep:
    def test_empty_k_values_rejected(self, tmp_path):
        result = run_cli(
            ["sweep", "--config", CONFIG_DIR / "sweep14.ini",
             "--set", "sweep.k_values= "], cwd=tmp_path)
        assert result.returncode == 1
        assert "k_values" in result.stderr

    def test_out_of_range_k_rejected(self, tmp_path):
        result = run_cli(
            ["sweep", "--config", CONFIG_DIR / "sweep14.ini",
             "--set", "sweep.k_values=150:400:50"], cwd=tmp_path)
        assert result.returncode == 1

    def test_mini_sweep_reruns_identically(self, tmp_path):
        args = ["sweep", "--config", CONFIG_DIR / "sweep14.ini",
                "--set", "scenarios.test_s=300",
                "--set", "scenarios.ro_s=300",
                "--set", "sweep.k_values=198:200:2",
                "--set", "output.prefix=mini"]
        assert run_cli(args, cwd=tmp_path).returncode == 0
        csv_path = tmp_path / "out" / "mini_sweep.csv"
        svg_path = tmp_path / "out" / "mini_sweep.svg"
        assert svg_path.read_text().lstrip().startswith("<svg")
        rows = read_table(csv_path)
        assert [r["k"] for r in rows] == ["200", "198"]
        first = csv_path.read_bytes()
        assert run_cli(args, cwd=tmp_path).returncode == 0
        assert csv_path.read_bytes() == first

    def test_full_14bus_reproduction_config(self, sweep14_run):
        rows = read_table(sweep14_run / "out" / "sweep14_sweep.csv")
        assert len(rows) == 11
        assert all(r["status"] == "OPTIMAL" for r in rows)
        eps = [float(r["epsilon_star"]) for r in rows]
        assert eps == sorted(eps)
        # enforcing more scenarios can only cost more
        by_k = sorted(rows, key=lambda r: int(r["k"]))
        costs = [float(r["cost"]) for r in by_k]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
        assert all(float(r["cost_vs_ro"]) <= 1.0 + 1e-6 for r in rows)

    def test_sweep14_reproduces_out(self, sweep14_run):
        # The committed log pins each k's search (nodes, QPs, active-set
        # iterations, relaxed scenarios) next to its score.
        committed = CONFIG_DIR.parent / "out"
        names = ["sweep14.log", "sweep14_sweep.csv", "sweep14_sweep.svg"]
        assert sorted(p.name for p in (sweep14_run / "out").iterdir()) == names
        for name in names:
            assert ((sweep14_run / "out" / name).read_bytes()
                    == (committed / name).read_bytes()), name

    def test_failed_scoring_fails_only_its_row(self, tmp_path, monkeypatch,
                                               caplog):
        # The first evaluator raises as a nominal power flow that does not
        # solve would; that k is an error row, its log line gives the
        # reason after the search that solved it, and the sweep goes on.
        built, swept = [], []

        def evaluator(*args, **kwargs):
            built.append(args)
            if len(built) == 1:
                raise NewtonError("nominal power flow for evaluation: "
                                  "injected")
            return real(*args, **kwargs)

        def sweep(*args, **kwargs):
            result = sweep_k(*args, **kwargs)
            swept.append(result[0])
            return result

        real = cli.AcEvaluator
        monkeypatch.setattr(cli, "AcEvaluator", evaluator)
        monkeypatch.setattr(cli, "sweep_k", sweep)
        out = tmp_path / "out"
        args = build_parser().parse_args(
            ["sweep", "--config", str(CONFIG_DIR / "ac14.ini"),
             "--set", "scenarios.test_s=50", "--set", "sweep.k_values=36:38:2",
             "--set", "sweep.record_time=false", "--set", f"output.dir={out}"])
        with caplog.at_level(logging.INFO, logger="ccopf"):
            assert args.func(args) == 0
        rows, = swept
        assert len(built) == 2
        assert [(r["k"], r["status"]) for r in rows] == [
            (38, "OPTIMAL"), (36, "ERROR:NewtonError")]
        assert 0.0 <= rows[0]["joint_violation"] <= 1.0
        assert np.isnan(rows[1]["cost"])
        assert np.isnan(rows[1]["joint_violation"])
        assert rows[1]["message"] == ("nominal power flow for evaluation: "
                                      "injected")
        assert rows[0]["message"] == ""
        assert (
            "k=36 epsilon*=0.269267 status=ERROR:NewtonError candidates=17 "
            "nodes=1 qps=2 iterations=5 relaxed=10,19,29,35 reason=nominal "
            "power flow for evaluation: injected"
        ) in (out / "ac14.log").read_text().splitlines()

    def test_failed_robust_baseline_keeps_the_solved_rows(self, tmp_path):
        result = run_cli(
            ["sweep", "--config", CONFIG_DIR / "sweep14.ini",
             "--set", "case.default_line_limit=0.26",
             "--set", "sweep.k_values=180:200:10",
             "--set", "scenarios.test_s=300", "--set", "scenarios.ro_s=300"],
            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        rows = read_table(tmp_path / "out" / "sweep14_sweep.csv")
        assert [(r["k"], r["status"]) for r in rows] == [
            ("200", "INFEASIBLE"), ("190", "OPTIMAL"), ("180", "OPTIMAL")]
        assert all(r["cost_vs_ro"] == "nan" for r in rows)
        assert all(float(r["cost"]) > 0 for r in rows[1:])
        log_text = (tmp_path / "out" / "sweep14.log").read_text()
        assert "robust baseline failed: robust baseline infeasible" in log_text
        assert (
            "k=200 epsilon*=0.0262734 status=INFEASIBLE candidates=200 nodes=0 "
            "qps=1 iterations=10 relaxed= reason=all-enforced QP (|E| = 200, "
            "|R| = 0): constraints are inconsistent"
        ) in log_text.splitlines()

    def test_zero_robust_cost_gives_nan_ratios(self, tmp_path):
        result = run_cli(
            ["sweep", "--config", CONFIG_DIR / "sweep14.ini",
             "--set", ZERO_COSTS, "--set", "sweep.k_values=196:200:2",
             "--set", "scenarios.test_s=300", "--set", "scenarios.ro_s=300"],
            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "robust baseline costs 0: no cost ratio" in result.stdout
        rows = read_table(tmp_path / "out" / "sweep14_sweep.csv")
        assert [(r["k"], r["status"]) for r in rows] == [
            ("200", "OPTIMAL"), ("198", "OPTIMAL"), ("196", "OPTIMAL")]
        assert all(r["cost_vs_ro"] == "nan" for r in rows)


class TestEval:
    def test_matches_solve_time_report(self, tutorial_run):
        workdir, _ = tutorial_run
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "tutorial.ini",
             "--solution", "out/tutorial_solution.csv"], cwd=workdir)
        assert result.returncode == 0, result.stderr
        printed = dict(line.split(": ") for line in
                       result.stdout.strip().splitlines()
                       if ": " in line)
        report = read_table(workdir / "out" / "tutorial_report.csv")
        scalars = {r["metric"]: r["value"] for r in report if not r["name"]}
        assert float(printed["joint_violation_rate"]) == pytest.approx(
            float(scalars["joint_violation_rate"]), abs=1e-12)

        # The eval report: the printed cost, no robust ratio, the test
        # set's seed alone, no solve statistics, and the run's digest.
        path = workdir / "out" / "tutorial_eval.csv"
        evaluated = read_table(path)
        eval_scalars = report_scalars(path)
        assert eval_scalars["cost"] == printed["cost"]
        assert eval_scalars["cost_vs_ro"] == "nan"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # case14's dropped branch data
            run = _resolve_run(CONFIG_DIR / "tutorial.ini", sets=("test",))
        test = run.sets["test"]
        assert [(r["name"], r["value"]) for r in evaluated
                if r["metric"] == "seed"] == [("test", str(test.seed))]
        assert not [r for r in evaluated if r["metric"] == "solve"]
        dispatch = cli._read_solution_csv(
            workdir / "out" / "tutorial_solution.csv", run.model.case)
        digest = cli._run_digest(run.model, {"test": test},
                                 dispatch=tuple(dispatch.tolist()))
        assert first_line(path) == f"# config={digest}"

    def test_ac_matches_solve_time_report(self, ac14_run):
        workdir, _ = ac14_run
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "ac14.ini",
             "--set", "scenarios.test_s=100",
             "--solution", "out/ac14_solution.csv"], cwd=workdir)
        assert result.returncode == 0, result.stderr

        def rates(name):
            return {(r["metric"], r["name"]): float(r["value"])
                    for r in read_table(workdir / "out" / name)
                    if r["metric"] in ("joint_violation_rate", "per_row")}

        solved = rates("ac14_report.csv")
        assert ("per_row", "newton_failure") in solved
        assert rates("ac14_eval.csv") == solved

    def test_ac_newton_work_reaches_the_console_only(self, ac14_run):
        # solve and eval print the chord and exact Newton totals of their
        # scoring at DEBUG, which the INFO run log does not take.
        workdir, solved = ac14_run
        evaluated = run_cli(
            ["eval", "--config", CONFIG_DIR / "ac14.ini",
             "--set", "scenarios.test_s=100",
             "--solution", "out/ac14_solution.csv"], cwd=workdir)
        assert evaluated.returncode == 0, evaluated.stderr
        line = re.compile(r"scored 100 test scenarios: [1-9]\d* chord and "
                          r"\d+ exact Newton iterations")
        for result in (solved, evaluated):
            assert sum(bool(line.fullmatch(text))
                       for text in result.stdout.splitlines()) == 1
        assert "scored" not in (workdir / "out" / "ac14.log").read_text()

    def test_failed_nominal_power_flow_is_a_numerical_failure(self,
                                                              ac14_run,
                                                              tmp_path):
        # 30 p.u. on every machine of a 259 MW network has no power flow.
        lines = (ac14_run[0] / "out" / "ac14_solution.csv").read_text()
        lines = lines.splitlines()
        for i in range(3, len(lines)):
            row = lines[i].split(",")
            row[2] = "30"
            lines[i] = ",".join(row)
        bad = tmp_path / "bad_solution.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "ac14.ini",
             "--set", "scenarios.test_s=100", "--solution", bad],
            cwd=tmp_path)
        assert result.returncode == 3
        assert result.stderr.splitlines()[-1].startswith(
            "error: nominal power flow for evaluation: step rejected at "
            "mismatch ")
        assert "Traceback" not in result.stderr
        assert not list(tmp_path.glob("out/*_eval.csv"))

    def test_missing_solution_file(self, tmp_path):
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "tutorial.ini",
             "--solution", "void.csv"], cwd=tmp_path)
        assert result.returncode == 1
        assert "void.csv" in result.stderr

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_non_finite_dispatch_rejected(self, tutorial_run, tmp_path,
                                          cell):
        workdir, _ = tutorial_run
        text = (workdir / "out" / "tutorial_solution.csv").read_text()
        lines = text.splitlines()
        row = lines[-1].split(",")
        row[2] = cell
        lines[-1] = ",".join(row)
        bad = tmp_path / "bad_solution.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "tutorial.ini",
             "--solution", bad], cwd=tmp_path)
        assert result.returncode == 1
        assert "not a finite number" in result.stderr
        assert not list(tmp_path.glob("out/*_eval.csv"))

    @pytest.mark.parametrize("change", ["reversed", "wrong-bus"])
    def test_rows_must_be_the_case_generators(self, tutorial_run, tmp_path,
                                              change):
        # Generators 0..4 in order, each at its own bus: a reversed file
        # or a wrong bus id would otherwise be scored as generator order.
        workdir, _ = tutorial_run
        solution = workdir / "out" / "tutorial_solution.csv"
        lines = solution.read_text().splitlines()
        head, rows = lines[:3], lines[3:]
        if change == "reversed":
            rows = rows[::-1]
        else:
            gen, _, p_pu, p_mw = rows[2].split(",")
            rows[2] = ",".join([gen, "99", p_pu, p_mw])
        bad = tmp_path / "bad_solution.csv"
        bad.write_text("\n".join(head + rows) + "\n")
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "tutorial.ini",
             "--solution", bad], cwd=tmp_path)
        assert result.returncode == 1
        assert "must be generator" in result.stderr
        assert not list(tmp_path.glob("out/*_eval.csv"))

    def test_output_dir_is_checked_before_scoring(self, tutorial_run,
                                                  tmp_path, monkeypatch):
        scored = []
        monkeypatch.setattr(_DcModel, "score",
                            lambda self, *args, **kw: scored.append(args))
        (tmp_path / "file").write_text("")
        args = build_parser().parse_args(
            ["eval", "--config", str(CONFIG_DIR / "tutorial.ini"),
             "--solution",
             str(tutorial_run[0] / "out" / "tutorial_solution.csv"),
             "--set", f"output.dir={tmp_path / 'file' / 'out'}"])
        with pytest.raises(CliError) as info:
            args.func(args)
        assert str(info.value).startswith("config key output.dir: ")
        assert info.value.exit_code == 1
        assert scored == []

    def test_unknown_model_rejected(self, tutorial_run, tmp_path):
        # The same check and message as sweep, before anything is scored.
        workdir, _ = tutorial_run
        result = run_cli(
            ["eval", "--config", CONFIG_DIR / "tutorial.ini",
             "--solution", workdir / "out" / "tutorial_solution.csv",
             "--set", "solve.model=acx"], cwd=tmp_path)
        assert result.returncode == 1
        assert ("config key solve.model: must be dc or ac, got 'acx'"
                in result.stderr)
        assert not list(tmp_path.glob("out/*_eval.csv"))


# Every row of the tutorial's cost override, with generator 0's c2 raised.
OTHER_COSTS = "0.01 20 0\n0.25 20 0\n0.01 40 0\n0.01 40 0\n0.01 40 0"


def run_digest(workdir, args, read, overrides=()):
    """The digest read from workdir's out/ after one run."""
    sets = [a for item in overrides for a in ("--set", item)]
    result = run_cli([*args, *sets], cwd=workdir)
    assert result.returncode in (0, 2), result.stderr
    return read(workdir / "out")


def first_line(path):
    return Path(path).read_text().splitlines()[0]


def log_digest(path):
    lines = Path(path).read_text().splitlines()
    return next(ln for ln in lines if ln.startswith("config digest "))


class TestDigest:
    """Each resolved input that can change a command's files changes its
    digest, and a rerun keeps it."""

    def check(self, workdir, args, read, overrides):
        plain = run_digest(workdir, args, read)
        assert run_digest(workdir, args, read) == plain
        changed = [run_digest(workdir, args, read, items)
                   for items in overrides]
        assert len({plain, *changed}) == 1 + len(changed)
        return plain, changed

    def test_sweep(self, tmp_path):
        self.check(
            tmp_path,
            ["sweep", "--config", CONFIG_DIR / "sweep14.ini",
             "--set", "sweep.k_values=196:200:2",
             "--set", "scenarios.test_s=500", "--set", "scenarios.ro_s=200"],
            lambda out: first_line(out / "sweep14_sweep.csv"),
            [["fleet.buses=4 5"], ["fleet.gamma=0.2"],
             ["case.default_line_limit=0.5"],
             ["case.default_line_limit=0.5", "fleet.buses=4 5"],
             [f"case.cost_override={OTHER_COSTS}"]])

    def test_solve(self, tmp_path):
        self.check(
            tmp_path,
            ["solve", "dc", "--config", CONFIG_DIR / "tutorial.ini",
             "--set", "scenarios.test_s=500"],
            lambda out: log_digest(out / "tutorial.log"),
            [["case.default_line_limit=0.2"],
             [f"case.cost_override={OTHER_COSTS}"],
             ["solve.rel_gap=0.01"], ["solve.node_limit=50"]])

    def test_eval(self, tutorial_run, tmp_path):
        workdir, _ = tutorial_run
        text = (workdir / "out" / "tutorial_solution.csv").read_text()
        (tmp_path / "renamed.csv").write_text(text)
        lines = text.splitlines()
        row = lines[-1].split(",")
        row[2] = repr(float(row[2]) + 1e-6)
        lines[-1] = ",".join(row)
        (tmp_path / "moved.csv").write_text("\n".join(lines) + "\n")

        def args(solution):
            return ["eval", "--config", CONFIG_DIR / "tutorial.ini",
                    "--set", "scenarios.test_s=500", "--solution", solution]

        def read(out):
            return first_line(out / "tutorial_eval.csv")

        plain, changed = self.check(
            tmp_path, args(workdir / "out" / "tutorial_solution.csv"), read,
            [["fleet.buses=4 5"], ["fleet.forecasts_mw=30 30"],
             ["fleet.gamma=0.2"], ["case.default_line_limit=0.5"],
             [f"case.cost_override={OTHER_COSTS}"]])
        # The dispatch values enter the digest, not the file's name.
        assert run_digest(tmp_path, args(tmp_path / "renamed.csv"),
                          read) == plain
        assert run_digest(tmp_path, args(tmp_path / "moved.csv"),
                          read) not in {plain, *changed}


class TestHelpers:
    def test_parse_k_values_range(self):
        assert _parse_k_values("180:200:2") == list(range(180, 201, 2))
        assert _parse_k_values("3:5") == [3, 4, 5]
        assert _parse_k_values("7") == [7]
        assert _parse_k_values("1, 2, 9") == [1, 2, 9]

    def test_parse_k_values_bad_step(self):
        with pytest.raises(ValueError):
            _parse_k_values("1:10:0")
        with pytest.raises(ValueError):
            _parse_k_values("1:2:3:4")

    @pytest.mark.parametrize("raw", ["190:185", "5:3", "2:1:3"])
    def test_parse_k_values_names_an_empty_range(self, raw):
        with pytest.raises(ValueError, match="range is empty"):
            _parse_k_values(raw)

    def test_exit_code_mapping(self):
        assert _exit_code_for("OPTIMAL") == 0
        assert _exit_code_for("INFEASIBLE") == 2
        assert _exit_code_for("NUMERICAL_FAILURE") == 3
        assert _exit_code_for("GAP_LIMIT") == 3

    def test_robust_step_lets_other_errors_through(self):
        class Broken:
            def __init__(self, exc):
                self.exc = exc

            def robust(self, baseline_set):
                raise self.exc

        assert np.isnan(_robust_objective(
            Broken(RuntimeError("no convergence")), None))
        with pytest.raises(TypeError):
            _robust_objective(Broken(TypeError("bad call")), None)

    def test_override_requires_section_key_value(self):
        with pytest.raises(CliError):
            _read_config(None, ["not-an-override"])
        assert _read_config(None, ["solve.k=5"]) == {"solve.k": 5}
