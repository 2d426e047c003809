"""CLI surface tests (exit codes, output shape)."""

import csv
import importlib
import io
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import algwatchdog
from algwatchdog.cli import build_parser, main
from oracles import json_leaves


def write_config(tmp_path, **kw):
    cfg = dict(n=8, h=3, d=3, p12=0.1, p21=0.1, p31=0.1, p32=0.1,
               epsilon=0.01, adversary="random_nonzero_error", engine="algebraic",
               trials=100, seed=1)
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPredict:
    def test_prints_all_figures(self, capsys):
        rc = main(["predict", "--n", "8", "--h", "3", "--r12", "3", "--r21", "3", "--r31", "3", "--r32", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "misdetection_v1" in out and "misdetection_v2" in out and "beta_bound" in out
        v = 93  # V(8, 3)
        assert f"beta_bound      = {(v * v + 2**3 * (v + v)) / (2**6 * 255):.6g}" in out

    def test_no_overhear_flag(self, capsys):
        rc = main(["predict", "--n", "8", "--h", "4", "--r12", "8", "--r21", "8", "--r31", "2", "--r32", "2", "--no-overhear"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "beta_no_overhear" in out
        v = 37  # V(8, 2); the peer ball is the whole field, V = 2^8
        assert f"beta_no_overhear = {(256 * v + 2**4 * (256 + v)) / (2**8 * 255):.6g}" in out

    def test_invalid_params_exit_2(self, capsys):
        assert main(["predict", "--n", "8", "--h", "3", "--r12", "9", "--r21", "3", "--r31", "3", "--r32", "3"]) == 2


class TestSimulate:
    def test_writes_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=50)
        out = tmp_path / "rep.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["trials"] == 50

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=20)
        assert main(["simulate", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"]["trials"] == 20

    def test_seed_and_trials_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=50)
        assert main(["simulate", "--config", cfg, "--seed", "9", "--trials", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 9 and doc["config"]["trials"] == 10

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=99)
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("field, value", [
        ("n", "8"), ("epsilon", "0.01"), ("trials", 10.5), ("h", 3.0), ("seed", True), ("seed", "7"), ("seed", None),
        ("p12", False),
    ])
    # a sweep derives its points' seeds from the config's seed; the axis is d so that no case's field is the one
    # the sweep replaces
    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "d", "--values", "3"]], ids=" ".join)
    def test_wrongly_typed_value_exit_2(self, tmp_path, capsys, field, value, command):
        cfg = write_config(tmp_path, **{field: value})
        assert main([*command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{field}={value!r}" in err and "Traceback" not in err

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"threshold": float("nan")}, "threshold=nan"),
        ({"threshold": float("inf")}, "threshold=inf"),
        ({"threshold": -0.1}, "threshold=-0.1"),
        ({"threshold": 1.5}, "threshold=1.5"),
        ({"sources": {"fixed": [True, 3]}}, "sources:"),
        ({"adversary": {"kind": "fixed_error", "error": 3, "foo": 1}}, "adversary: unknown key(s) 'foo'"),
        ({"adversary": {"kind": "fixed_error", "error": 256}}, "adversary: fixed error 256 not a nonzero 8-bit word"),
        ({"sources": {"fixed": [1, 2], "fixd": [3, 4]}}, "sources: unknown key(s) 'fixd'"),
        ({"adversary": {"kind": "random_nonzero_error", "error": 5, "max_weight": 2}},
         "adversary: error=5 applies only to fixed_error"),
        ({"adversary": {"kind": "fixed_error", "error": 5, "max_weight": 2}},
         "adversary: max_weight=2 applies only to weight_bounded_error"),
        ({"engine": "foo"}, "engine='foo' not one of algebraic, trellis"),
        ({"engine": "trellis", "n": 13}, "trellis engine requires n <= 12"),
        ({"d": -1}, "d=-1 negative"),
        ({"d": 2**63}, f"d={2**63} above 2^n - 1"),
        ({"n": 4, "d": 16}, "d=16 above 2^n - 1"),
        ({"sources": "x"}, "sources='x' not 'uniform' or {'fixed': [x1, x2]}"),
        ({"sources": {"fixed": [1]}}, "sources: fixed form needs two values"),
        ({"adversary": 5}, "adversary: unrecognized adversary 5"),
    ])
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, fields, named):
        cfg = write_config(tmp_path, trials=5, **fields)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("adversary, field", [
        ({"kind": "fixed_error", "error": "5"}, "error='5'"),
        ({"kind": "weight_bounded_error", "max_weight": 2.5}, "max_weight=2.5"),
    ])
    def test_wrongly_typed_adversary_field_exit_2(self, tmp_path, capsys, adversary, field):
        cfg = write_config(tmp_path, adversary=adversary)
        assert main(["simulate", "--config", cfg]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, trials=5)
        assert main(["simulate", "--config", cfg, "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert f"workers={workers}" in err and "Traceback" not in err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 8, "bogus": 1}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=5)
        assert main(["simulate", "--config", cfg, "--out", "/nonexistent-dir/x.json"]) == 3


class TestSweep:
    def test_csv_sweep(self, tmp_path):
        cfg = write_config(tmp_path, trials=20)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--axis", "h", "--values", "2,3", "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_csv_identical_across_worker_counts(self, tmp_path):
        # criterion 8's rule for the CSV: with its wall_time_s cells blanked, it is the same at 1 and 2 workers
        cfg = write_config(tmp_path, adversary={"kind": "fixed_error", "error": 5}, sources={"fixed": [0x3A, 0xC5]},
                           trials=20)
        blanked = []
        for workers in ("1", "2"):
            out = tmp_path / f"sweep-{workers}.csv"
            argv = ["sweep", "--config", cfg, "--axis", "h", "--values", "2,3,4", "--workers", workers, "--format", "csv"]
            assert main([*argv, "--out", str(out)]) == 0
            with open(out, newline="") as f:
                header, *rows = csv.reader(f)
            assert len(rows) == 3 and "config.adversary.error" in header
            col = header.index("wall_time_s")
            for row in rows:
                row[col] = ""
            buf = io.StringIO()
            csv.writer(buf).writerows([header, *rows])
            blanked.append(buf.getvalue())
        assert blanked[0] == blanked[1]

    def test_bad_axis_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=20)
        assert main(["sweep", "--config", cfg, "--axis", "nope", "--values", "1,2"]) == 2

    @pytest.mark.parametrize("axis, values, named", [
        ("p12", "0.1,nan", "p12=nan outside [0, 0.5]"),
        ("threshold", "0.5,inf", "threshold=inf outside [0, 1]"),
        ("epsilon", "0.01,-inf", "epsilon=-inf outside (0, 1)"),
        ("n", "8,inf", "n=inf is not an integer"),
    ])
    def test_non_finite_value_names_the_field(self, tmp_path, capsys, axis, values, named):
        cfg = write_config(tmp_path, trials=5)
        assert main(["sweep", "--config", cfg, "--axis", axis, "--values", values]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("token", ["abc", "0x10", "1,,2e"])
    def test_value_that_is_no_number_names_the_flag_and_token(self, tmp_path, capsys, token):
        cfg = write_config(tmp_path, trials=5)
        assert main(["sweep", "--config", cfg, "--axis", "h", "--values", token]) == 2
        err = capsys.readouterr().err
        assert "--values" in err and repr(token.split(",")[-1]) in err

    @pytest.mark.parametrize("token", [",", "", " , "])
    def test_values_with_no_number_exit_2(self, tmp_path, capsys, token):
        cfg = write_config(tmp_path, trials=5)
        assert main(["sweep", "--config", cfg, "--axis", "h", "--values", token]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--values" in err and "no number" in err

    def test_too_wide_exhaustive_point_exit_2_before_any_trial(self, tmp_path, capsys, draw_calls):
        cfg = write_config(tmp_path, adversary="exhaustive_best", trials=2)
        assert main(["sweep", "--config", cfg, "--axis", "n", "--values", "8,14"]) == 2
        assert "adversary: exhaustive_best" in capsys.readouterr().err
        assert draw_calls == []
        # the same record fills for points that validate
        assert main(["sweep", "--config", cfg, "--axis", "n", "--values", "6,8"]) == 0
        assert draw_calls.trials() == [0, 1, 0, 1]

    def test_degree_above_field_order_exit_2_before_any_trial(self, tmp_path, capsys, draw_calls):
        cfg = write_config(tmp_path, trials=2)
        assert main(["sweep", "--config", cfg, "--axis", "d", "--values", "3,256"]) == 2
        err = capsys.readouterr().err
        assert "d=256 above 2^n - 1" in err and "Traceback" not in err
        assert draw_calls == []


@pytest.mark.parametrize("command, rows", [
    (["simulate"], 2),
    (["sweep", "--axis", "h", "--values", "2,3"], 3),
], ids=["simulate", "sweep"])
def test_csv_without_out_prints_csv(tmp_path, capsys, command, rows):
    cfg = write_config(tmp_path, trials=10)
    assert main([command[0], "--config", cfg, *command[1:], "--format", "csv"]) == 0
    printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(printed) == rows
    # the header names the JSON report's leaves
    assert main([command[0], "--config", cfg, *command[1:]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(printed[0]) == sorted(key for key, _ in json_leaves(doc["reports"][0] if "reports" in doc else doc))


def test_readme_commands_parse():
    # the guide's command lines go stale silently unless something reads them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("algwatchdog ")]
    assert len(commands) >= 4
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_names_resolve():
    # a rename that misses the guide leaves it citing a name that no longer exists
    prose = re.sub(r"^```.*?^```", "", _readme(), flags=re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", prose)
    names = [name for span in spans for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)]
    checked = 0
    for name in names:
        head, *rest = name.split(".")
        # a package module or a top-level export; other dotted spans are report leaves, files or numpy
        obj = algwatchdog if head == "algwatchdog" else getattr(algwatchdog, head, None)
        if obj is None:
            continue
        for part in rest:
            assert hasattr(obj, part), f"README names `{name}`, which does not resolve"
            obj = getattr(obj, part)
        checked += 1
    assert checked


def test_readme_names_no_private_attribute():
    # private helpers are mechanism, and the module docstrings describe mechanism beside the code
    private = set()
    for info in pkgutil.iter_modules(algwatchdog.__path__):
        module = importlib.import_module(f"algwatchdog.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") and not name.startswith("__"):
                private.add(name)
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                private.update(a for a in vars(obj) if a.startswith("_") and not a.startswith("__"))
    cited = set(re.findall(r"(?<!\w)_[A-Za-z]\w*", _readme())) & private
    assert not cited, f"README names private attributes {sorted(cited)}"
