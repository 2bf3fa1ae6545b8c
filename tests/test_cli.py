"""Command-line interface: exit codes, file outputs and determinism."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sbpkit.cli
import sbpkit.diagnostics
import sbpkit.operators
import sbpkit.solver
import sbpkit.spaces
from sbpkit.cli import _bumpy, main

TRIG1_D = np.array(
    [
        [-3.00, 3.63, -3.63, 3.00],
        [-1.81, 0.00, 3.63, -1.81],
        [1.81, -3.63, 0.00, 1.81],
        [-3.00, 3.63, -3.63, 3.00],
    ]
)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_build_writes_known_operator(tmp_path):
    out = tmp_path / "trig.json"
    rc = main(
        ["build", "--space", "trig:d=1", "--domain", "0", "1", "--nodes", "4",
         "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    np.testing.assert_allclose(np.array(data["D"]), TRIG1_D, atol=0.01)
    assert data["space"] == "trig:d=1"
    assert data["domain"] == [0.0, 1.0]


def test_build_prints_weights(tmp_path, capsys):
    rc = main(
        ["build", "--space", "exp:d=2", "--nodes", "5",
         "--out", str(tmp_path / "exp.json")]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    weight_line = next(line for line in lines if line.startswith("weights"))
    values = [float(v) for v in weight_line.split()[1:]]
    np.testing.assert_allclose(values, [0.08, 0.36, 0.12, 0.36, 0.08], atol=5e-3)


def test_build_malformed_space_is_usage_error(tmp_path, capsys):
    rc = main(
        ["build", "--space", "spline:d=2", "--nodes", "4",
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_missing_options_are_usage_errors(capsys):
    rc = main(["build", "--space", "trig:d=1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--nodes" in err and "--out" in err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--bogus", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_the_parser_is_built_once_per_process_on_first_use():
    assert sbpkit.cli._build_parser() is sbpkit.cli._build_parser()
    # a fresh interpreter imports the module without building the parser
    src = str(Path(sbpkit.cli.__file__).parents[1])
    probe = (
        "import sbpkit.cli as c; "
        "print(c._build_parser.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "0"


def test_a_config_file_does_not_carry_over_to_the_next_call(tmp_path, monkeypatch):
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    monkeypatch.setitem(sbpkit.cli._COMMANDS, "run", record)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"problem": "burgers", "space": "trig:d=1", "tfinal": 0.5,
                    "cfl": 0.25, "sigma": 3.0, "blocks": 4}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--problem", "advection", "--space", "poly:d=2"]) == 0
    with_config, without = seen
    assert (with_config["tfinal"], with_config["cfl"], with_config["sigma"]) == (
        0.5, 0.25, 3.0
    )
    assert with_config["blocks"] == 4
    assert without == {
        "command": "run", "config": None, "problem": "advection",
        "domain": None, "nodes": None, "tfinal": None, "cfl": 0.5,
        "sigma": None, "periodic": None, "inflow": None, "out": Path("."),
        "space": "poly:d=2", "blocks": 1,
    }


def test_a_usage_error_leaves_the_next_call_as_it_was(tmp_path, capsys):
    good = ["build", "--space", "trig:d=1", "--nodes", "4",
            "--out", str(tmp_path / "op.json")]
    assert main(good) == 0
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["build", "--space", "trig:d=1", "--nodes", "four"])
    assert exc.value.code == 1
    assert main(["build", "--space", "trig:d=1"]) == 1
    capsys.readouterr()
    assert main(good) == 0
    assert capsys.readouterr() == expected


def test_build_then_verify_round_trip(tmp_path):
    for text in ("poly:d=3", "rbf-cubic:centers=0,0.5,1"):
        out = tmp_path / "op.json"
        nodes = "4"
        rc = main(["build", "--space", text, "--nodes", nodes, "--out", str(out)])
        assert rc == 0, text
        assert main(["verify", str(out)]) == 0, text


def test_build_then_verify_keeps_every_center_digit(tmp_path, capsys):
    out = tmp_path / "rbf.json"
    space = "rbf-cubic:centers=0,0.1234567,0.6,1"
    assert main(["build", "--space", space, "--nodes", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_verify_detects_zeroed_entry(tmp_path, capsys):
    out = tmp_path / "op.json"
    main(["build", "--space", "trig:d=1", "--nodes", "4", "--out", str(out)])
    data = json.loads(out.read_text(encoding="utf-8"))
    data["D"][0][0] = 0.0
    out.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(out)]) == 2
    assert "FAIL" in capsys.readouterr().err


def test_verify_prints_the_coherence_residual_that_fails(tmp_path, capsys):
    # D no longer equals P^-1 Q, while exactness and D 1 stay in tolerance
    out = tmp_path / "op.json"
    args = ["build", "--space", "poly:d=3", "--nodes", "4", "--out", str(out)]
    assert main(args) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    data["D"][1][1] += 1e-12
    out.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    rows = [line.rsplit(maxsplit=1) for line in capsys.readouterr().out.splitlines()]
    labels = [label for label, _ in rows]
    i = labels.index("coherence residual")
    assert labels[i - 1] == "constant residual"
    assert float(rows[i][1]) > sbpkit.operators.TOL_COHERENCE


def test_verify_names_positivity_for_negative_weight(tmp_path, capsys):
    out = tmp_path / "op.json"
    main(["build", "--space", "trig:d=1", "--nodes", "4", "--out", str(out)])
    data = json.loads(out.read_text(encoding="utf-8"))
    data["weights"][1] = -abs(data["weights"][1])
    out.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("factor", [0.0, 3e-10, -3e-10, 6e-10, -6e-10])
def test_read_operator_refuses_what_verify_refuses(tmp_path, capsys, factor):
    # weights scaled by 1 + factor, with D = Q / p, keep verify_sbp within
    # its tolerances but move the norm's quadrature residual to about
    # |factor|, past EXACTNESS_RTOL (a factor of 1e-10 lands within 1e-17
    # of the gate, too close to rely on across BLAS builds)
    out = tmp_path / "op.json"
    args = ["build", "--space", "poly:d=3", "--nodes", "8", "--out", str(out)]
    assert main(args) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    p = np.array(data["weights"]) * (1.0 + factor)
    data["weights"] = p.tolist()
    data["D"] = (np.array(data["Q"]) / p[:, None]).tolist()
    out.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["verify", str(out)])
    try:
        sbpkit.operators.read_operator(out)
    except sbpkit.operators.OperatorError as exc:
        assert "quadrature residual" in str(exc)
        refused = True
    else:
        refused = False
    assert refused == (rc != 0)
    assert rc == (0 if factor == 0.0 else 2)


def test_verify_refuses_text_for_numbers(tmp_path, capsys):
    out = tmp_path / "op.json"
    main(["build", "--space", "trig:d=1", "--nodes", "4", "--out", str(out)])
    data = json.loads(out.read_text(encoding="utf-8"))
    data["nodes"] = [str(x) for x in data["nodes"]]
    out.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: operator file {out}: nodes must hold real numbers, got text\n"


def test_run_writes_expected_csv_columns(tmp_path):
    rc = main(
        ["run", "--problem", "advection", "--space", "trig:d=1", "--blocks", "2",
         "--tfinal", "0.25", "--cfl", "0.4", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = _read_csv(tmp_path / "diagnostics.csv")
    assert header == ["t", "mass", "energy"]
    assert float(rows[0][0]) == 0.0
    header, rows = _read_csv(tmp_path / "solution.csv")
    assert header == ["x", "u", "u_ref", "abs_err"]
    header, rows = _read_csv(tmp_path / "summary.csv")
    assert header == ["err_P", "err_2", "err_max", "steps", "wallclock_s"]
    assert len(rows) == 1
    assert float(rows[0][3]) >= 1


def test_run_zero_final_time_reproduces_initial_data(tmp_path):
    rc = main(
        ["run", "--problem", "advection", "--space", "trig:d=1",
         "--tfinal", "0", "--out", str(tmp_path)]
    )
    assert rc == 0
    _, rows = _read_csv(tmp_path / "solution.csv")
    for row in rows:
        x, u = float(row[0]), float(row[1])
        expected = np.cos(4 * np.pi * x) + 0.5 * np.sin(40 * np.pi * x)
        assert u == expected
        assert float(row[3]) < 1e-12


def test_run_rejects_negative_burgers_inflow(tmp_path, capsys):
    rc = main(
        ["run", "--problem", "burgers", "--space", "poly:d=2",
         "--inflow", "-1.0", "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "nonneg" in capsys.readouterr().err


@pytest.mark.parametrize("tfinal", ["nan", "inf"])
def test_run_rejects_non_finite_final_time(tmp_path, capsys, tfinal):
    rc = main(
        ["run", "--problem", "advection", "--space", "trig:d=1",
         "--tfinal", tfinal, "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_run_outputs_are_deterministic(tmp_path):
    argv = ["run", "--problem", "advection", "--space", "exp:d=2",
            "--blocks", "2", "--tfinal", "0.2", "--cfl", "0.4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    for name in ("diagnostics.csv", "solution.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    row_a = _read_csv(a / "summary.csv")[1][0]
    row_b = _read_csv(b / "summary.csv")[1][0]
    assert row_a[:4] == row_b[:4]  # everything except the wallclock column


def test_run_evaluates_the_burgers_reference_once(tmp_path, monkeypatch):
    calls = []
    traced = sbpkit.diagnostics.burgers_reference

    def counting(u0, x, t):
        calls.append(np.size(x))
        return traced(u0, x, t)

    monkeypatch.setattr(sbpkit.diagnostics, "burgers_reference", counting)
    rc = main(["run", "--problem", "burgers", "--space", "exp:d=2",
               "--blocks", "4", "--out", str(tmp_path)])
    assert rc == 0
    _, solution = _read_csv(tmp_path / "solution.csv")
    assert calls == [len(solution)]
    # the error norms come from the same reference values as the CSV
    _, summary = _read_csv(tmp_path / "summary.csv")
    err_max = max(float(row[3]) for row in solution)
    assert float(summary[0][2]) == err_max


def test_bumpy_matches_the_power_form():
    # the Burgers initial data writes its odd powers as products
    x = np.random.default_rng(3).uniform(-2.0, 3.0, 8192)
    powers = (
        1.0
        + 0.5 * np.sin(4.0 * np.pi * x) ** 3
        + 0.25 * np.cos(4.0 * np.pi * x) ** 5
    )
    np.testing.assert_allclose(_bumpy(x), powers, rtol=0.0, atol=1e-15)


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": "advection",
                "space": "trig:d=1",
                "tfinal": 0.5,
                "cfl": 0.25,
                "out": str(tmp_path / "from_config"),
            }
        ),
        encoding="utf-8",
    )
    rc = main(["run", "--config", str(cfg), "--tfinal", "0"])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "from_config" / "diagnostics.csv")
    # the explicit flag overrode tfinal, the file supplied everything else
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nodess": 4}), encoding="utf-8")
    rc = main(
        ["build", "--config", str(cfg), "--space", "trig:d=1", "--nodes", "4",
         "--out", str(tmp_path / "op.json")]
    )
    assert rc == 1
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, key",
    [
        (["convergence", "--space", "trig:d=1"], {"blocks": 10}, "blocks"),
        (["run", "--space", "trig:d=1"], {"blocks": [10, 20]}, "blocks"),
        (["run", "--space", "trig:d=1"], {"domain": 1}, "domain"),
        (["run"], {"space": ["exp:d=2"]}, "space"),
        (["run", "--space", "trig:d=1"], {"periodic": 1}, "periodic"),
        (["run", "--space", "trig:d=1"], {"cfl": "fast"}, "cfl"),
    ],
)
def test_config_file_rejects_wrong_typed_values(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    rc = main(
        command
        + ["--problem", "advection", "--tfinal", "0", "--config", str(cfg),
           "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and f"option {key!r}" in err
    assert "Traceback" not in err


def test_config_file_refuses_an_unknown_problem(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "heat"}), encoding="utf-8")
    rc = main(["run", "--space", "trig:d=1", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: option 'problem' must be one of ")


def test_config_file_lists_fill_fixed_arity_and_repeatable_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": [0, 2]}), encoding="utf-8")
    rc = main(
        ["run", "--problem", "advection", "--space", "trig:d=1", "--tfinal", "0",
         "--config", str(cfg), "--out", str(tmp_path / "run")]
    )
    assert rc == 0
    _, rows = _read_csv(tmp_path / "run" / "solution.csv")
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 2.0

    cfg.write_text(json.dumps({"space": ["trig:d=1", "poly:d=2"]}), encoding="utf-8")
    rc = main(
        ["convergence", "--problem", "advection-source", "--blocks", "2", "4",
         "--tfinal", "0.1", "--config", str(cfg), "--out", str(tmp_path / "conv")]
    )
    assert rc == 0
    _, rows = _read_csv(tmp_path / "conv" / "convergence.csv")
    assert [row[0] for row in rows] == ["trig:d=1"] * 2 + ["poly:d=2"] * 2


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config"),
        ("{not json", "cannot read config"),
        ("[1, 2]", "must hold a JSON object"),
    ],
)
def test_config_file_refuses_unreadable_or_non_object_files(
    tmp_path, capsys, text, message
):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text, encoding="utf-8")
    rc = main(["run", "--problem", "advection", "--space", "trig:d=1",
               "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config {cfg}" in err and message in err
    assert "Traceback" not in err


def test_convergence_table_output(tmp_path):
    rc = main(
        ["convergence", "--problem", "advection-source",
         "--space", "exp:d=2", "--space", "poly:d=2",
         "--blocks", "3", "6", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["space", "I", "err_P", "err_2", "err_max", "order"]
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["exp:d=2", "exp:d=2", "poly:d=2", "poly:d=2"]
    errs = {(r[0], int(float(r[1]))): float(r[2]) for r in rows}
    # refinement shrinks the error for each space
    assert errs[("exp:d=2", 6)] < errs[("exp:d=2", 3)]
    assert errs[("poly:d=2", 6)] < errs[("poly:d=2", 3)]
    # the adapted space wins at every level
    assert errs[("exp:d=2", 3)] < errs[("poly:d=2", 3)]
    assert errs[("exp:d=2", 6)] < errs[("poly:d=2", 6)]


def test_convergence_csv_quotes_a_space_text_with_commas(tmp_path):
    space = "rbf-cubic:centers=0,0.5,1"
    rc = main(["convergence", "--problem", "advection", "--space", space,
               "--blocks", "2", "4", "--tfinal", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "convergence.csv", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["space", "I", "err_P", "err_2", "err_max", "order"]
    # DictReader files the fields past the header under the key None
    assert [len(row) for row in rows] == [6, 6] and all(None not in r for r in rows)
    assert [row["space"] for row in rows] == [space, space]
    assert [row["I"] for row in rows] == ["2", "4"]


def test_failed_run_leaves_the_previous_outputs_as_they_were(tmp_path, capsys):
    args = ["run", "--problem", "burgers", "--space", "poly:d=3",
            "--blocks", "8", "--out", str(tmp_path)]
    assert main([*args, "--tfinal", "0.01"]) == 0
    names = ("diagnostics.csv", "solution.csv", "summary.csv")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    capsys.readouterr()
    # the run itself succeeds; its reference fails once characteristics cross
    assert main([*args, "--tfinal", "0.2"]) == 1
    assert "characteristics cross before t=0.2" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


@pytest.mark.parametrize(
    "flag, value", [("--sigma", "nan"), ("--inflow", "nan"), ("--inflow", "inf")]
)
def test_run_refuses_non_finite_problem_parameters(tmp_path, capsys, flag, value):
    rc = main(["run", "--problem", "advection", "--space", "trig:d=1",
               flag, value, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert flag.lstrip("-") in err
    assert not (tmp_path / "summary.csv").exists()


def test_periodic_run_refuses_a_non_finite_inflow(tmp_path, capsys):
    # --periodic drops the inflow before the run, which would never see it
    rc = main(["run", "--problem", "advection", "--space", "trig:d=1",
               "--periodic", "--inflow", "nan", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --inflow must be finite, got nan\n"
    assert not (tmp_path / "summary.csv").exists()


def test_convergence_refuses_a_burgers_inflow_before_any_run(tmp_path, capsys):
    rc = main(["convergence", "--problem", "burgers", "--space", "poly:d=2",
               "--blocks", "2", "4", "--inflow", "-1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: no reference solution for problem kind 'burgers'\n"
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize(
    "command, extra, outputs",
    [
        ("run", ["--blocks", "4"], ("diagnostics.csv", "solution.csv", "summary.csv")),
        ("convergence", ["--blocks", "2", "4"], ("convergence.csv",)),
    ],
)
def test_a_periodic_burgers_reference_refuses_data_that_is_not_periodic(
    tmp_path, capsys, monkeypatch, command, extra, outputs
):
    args = [command, "--problem", "burgers", "--space", "poly:d=2", *extra,
            "--tfinal", "0.05", "--out", str(tmp_path)]
    # _bumpy has period 1/2: [0, 0.5] is periodic, [0, 0.3] jumps where it wraps
    assert main([*args, "--domain", "0", "0.5"]) == 0
    before = {name: (tmp_path / name).read_bytes() for name in outputs}
    capsys.readouterr()
    calls = []
    for module in (sbpkit.cli, sbpkit.solver):
        monkeypatch.setattr(module, "run", lambda *a, **k: calls.append(a))
    assert main([*args, "--domain", "0", "0.3"]) == 1
    assert capsys.readouterr().err == (
        "error: periodic Burgers data must take one value at both ends of "
        "[0, 0.3], got u0=1.25 and u0=0.811821; the jump where the domain "
        "wraps is a shock from t=0, so no smooth reference exists\n"
    )
    assert calls == []
    assert {name: (tmp_path / name).read_bytes() for name in outputs} == before


def test_run_refuses_an_anti_dissipative_sigma(tmp_path, capsys):
    # with sigma = -1 both the inflow and the interface penalties feed
    # energy in, and the run would blow up to an error of order 1e20
    rc = main(["run", "--problem", "advection", "--space", "trig:d=2",
               "--blocks", "4", "--sigma", "-1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: sigma must exceed 1/2 for 'advection', got -1.0\n"
    assert not (tmp_path / "summary.csv").exists()


def test_convergence_blow_up_exits_unstable_without_a_warning(tmp_path, capsys):
    # the overflow on the way to inf is no RuntimeWarning; with warnings
    # turned into errors, one would escape main() instead of exit code 3
    rc = main(["convergence", "--problem", "burgers", "--space", "poly:d=2",
               "--blocks", "2", "4", "--tfinal", "0.5", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("unstable: non-finite solution values")
    assert "RuntimeWarning" not in err


def test_run_whose_energy_overflows_exits_unstable(tmp_path, capsys):
    # at sigma = 10 the values stay finite while their squares overflow;
    # the inf energy is an instability, not a warning and an exit 0
    rc = main(["run", "--problem", "advection", "--space", "trig:d=4",
               "--blocks", "10", "--tfinal", "0.5", "--cfl", "0.5",
               "--sigma", "10", "--out", str(tmp_path)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "unstable: non-finite mass or energy near t=0.422222\n"
    assert captured.out == ""
    assert not (tmp_path / "solution.csv").exists()


def test_convergence_rejects_a_repeated_block_count(tmp_path, capsys):
    rc = main(["convergence", "--problem", "burgers", "--space", "poly:d=2",
               "--blocks", "10", "10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "block count 10" in err
    assert "Traceback" not in err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize(
    "text",
    ["5", json.dumps({"space": "poly:d=1", "domain": [0.0], "nodes": [0.0, 1.0],
                      "weights": [0.5, 0.5], "Q": [[-0.5, 0.5], [-0.5, 0.5]],
                      "D": [[-1.0, 1.0], [-1.0, 1.0]]})],
    ids=["not-an-object", "one-ended-domain"],
)
def test_verify_malformed_file_is_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "op.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: operator file {bad}")
    assert "Traceback" not in err


@pytest.mark.parametrize("route", ["read_operator", "verify"])
@pytest.mark.parametrize(
    "move, message",
    [
        (lambda x: [x[1], x[0], *x[2:]], "nodes must be strictly increasing"),
        (lambda x: x[::-1], "nodes must be strictly increasing"),
        (lambda x: [*x[:-1], 1.5], "grid node outside interval [0.0, 1.0]"),
    ],
    ids=["nodes-out-of-order", "nodes-reversed", "node-off-the-domain"],
)
def test_malformed_grid_names_the_file(tmp_path, capsys, move, message, route):
    out = tmp_path / "op.json"
    args = ["build", "--space", "poly:d=2", "--nodes", "5", "--out", str(out)]
    assert main(args) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    data["nodes"] = move(data["nodes"])
    out.write_text(json.dumps(data), encoding="utf-8")
    named = f"operator file {out}: {message}"
    if route == "read_operator":
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            sbpkit.operators.read_operator(out)
        return
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}\n"
    assert captured.out == ""


@pytest.mark.parametrize("route", ["read_operator", "verify"])
@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda d: "{not json", None),
        (lambda d: [1, 2], "must hold a JSON object"),
        (lambda d: {k: v for k, v in d.items() if k != "Q"}, "misses fields: ['Q']"),
        (lambda d: {**d, "space": 5}, "space must be text, got 5"),
        (lambda d: {**d, "space": None}, "space must be text, got None"),
        (lambda d: {**d, "space": "spline:d=2"}, "unknown space kind 'spline'"),
        (
            lambda d: {**d, "domain": [1, 0]},
            "empty interval: left=1.0 is not below right=0.0",
        ),
        (
            lambda d: {**d, "weights": ["0.1", *d["weights"][1:]]},
            "weights must hold real numbers, got text",
        ),
        (
            lambda d: {**d, "Q": [[None, *d["Q"][0][1:]], *d["Q"][1:]]},
            "Q must hold real numbers, got None or objects",
        ),
        (
            lambda d: {**d, "nodes": [d["nodes"]]},
            "nodes must be a 1-D array of at least 2 values, got shape (1, 5)",
        ),
        (lambda d: {**d, "Q": d["Q"][:-1]}, "inconsistent operator array shapes"),
        (
            lambda d: {**d, "nodes": [d["nodes"][1], d["nodes"][0], *d["nodes"][2:]]},
            "nodes must be strictly increasing",
        ),
        (
            lambda d: {**d, "nodes": [*d["nodes"][:-1], 1.5]},
            "grid node outside interval [0.0, 1.0]",
        ),
    ],
    ids=[
        "not-json", "not-an-object", "missing-field", "space-number",
        "space-null", "unknown-space", "reversed-domain", "text-number",
        "null-entry", "nodes-2d", "wrong-Q-shape", "nodes-out-of-order",
        "node-off-the-domain",
    ],
)
def test_malformed_operator_file_names_the_file_once(
    tmp_path, capsys, spoil, message, route
):
    # each case spoils one part of a valid poly:d=2 file; a str is raw text
    out = tmp_path / "op.json"
    space = sbpkit.spaces.make_space("poly:d=2")
    sbpkit.operators.write_operator(sbpkit.operators.find_operator(space, 5), out)
    doc = spoil(json.loads(out.read_text(encoding="utf-8")))
    out.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    if route == "read_operator":
        with pytest.raises(ValueError) as exc:
            sbpkit.operators.read_operator(out)
        text = str(exc.value)
    else:
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.endswith("\n")
        text = captured.err[len("error: "):-1]
    prefix = f"operator file {out}: "
    assert text.startswith(prefix)
    assert text.count(str(out)) == 1 and text.count("operator file") == 1
    if message is not None:
        assert text == prefix + message


def _count_grid_evaluations(monkeypatch) -> list[int]:
    """Record the grid size of every value-matrix evaluation of a search."""
    calls = []
    traced = sbpkit.spaces.vandermonde

    def counting(space, x):
        calls.append(len(x))
        return traced(space, x)

    monkeypatch.setattr(sbpkit.spaces, "vandermonde", counting)
    return calls


def test_verify_evaluates_the_space_once_on_the_operators_grid(tmp_path, monkeypatch):
    out = tmp_path / "op.json"
    assert main(["build", "--space", "exp:d=3", "--nodes", "8", "--out", str(out)]) == 0
    calls = _count_grid_evaluations(monkeypatch)
    assert main(["verify", str(out)]) == 0
    # verify_sbp and the quadrature check share one evaluation on the grid
    assert calls == [8]


@pytest.mark.parametrize("spec, nodes", [("poly:d=3", 6), ("exp:d=3", 8)])
def test_build_evaluates_the_space_once_on_the_winning_grid(
    tmp_path, monkeypatch, spec, nodes
):
    calls = _count_grid_evaluations(monkeypatch)
    out = tmp_path / "op.json"
    args = ["build", "--space", spec, "--nodes", str(nodes), "--out", str(out)]
    assert main(args) == 0
    # the printed report reuses the search's evaluation of the grid
    assert calls == [nodes]


@pytest.mark.parametrize(
    "field, value",
    [("weights", [0.5, 0.5]), ("Q", [[0.0, 1.0], [-1.0, 0.0]])],
)
def test_verify_refuses_wrongly_shaped_arrays(tmp_path, capsys, field, value):
    out = tmp_path / "op.json"
    main(["build", "--space", "trig:d=1", "--nodes", "4", "--out", str(out)])
    data = json.loads(out.read_text(encoding="utf-8"))
    data[field] = value
    out.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: operator file {out}: inconsistent operator array shapes\n"


def test_run_without_a_reference_writes_nan_errors(tmp_path, capsys):
    # Burgers with inflow data has no reference solution
    rc = main(["run", "--problem", "burgers", "--space", "poly:d=2",
               "--blocks", "2", "--inflow", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.rstrip().endswith("no reference")
    _, summary = _read_csv(tmp_path / "summary.csv")
    assert all(np.isnan(float(v)) for v in summary[0][:3])
    assert float(summary[0][3]) >= 1
    _, solution = _read_csv(tmp_path / "solution.csv")
    assert solution and all(
        np.isnan(float(row[2])) and np.isnan(float(row[3])) for row in solution
    )


@pytest.mark.parametrize("problem", ["advection", "burgers"])
def test_zero_step_run_matches_its_reference_exactly(tmp_path, capsys, problem):
    # the data is not periodic on [0, 0.3]: a wrapped reference would read
    # u0(0) at x = 0.3, where a run that takes no step holds u0(0.3)
    rc = main(["run", "--problem", problem, "--space", "poly:d=2", "--blocks", "2",
               "--domain", "0", "0.3", "--tfinal", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == "steps 0  t 0  err_P 0.000000e+00\n"
    _, summary = _read_csv(tmp_path / "summary.csv")
    assert [float(v) for v in summary[0][:4]] == [0.0, 0.0, 0.0, 0.0]
    _, solution = _read_csv(tmp_path / "solution.csv")
    assert max(float(row[0]) for row in solution) == 0.3
    assert all(row[1] == row[2] and float(row[3]) == 0.0 for row in solution)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_periodic_keeps_the_problems_default_domain(tmp_path, monkeypatch, source):
    specs = []
    solve = sbpkit.cli.run

    def capturing(spec, *args, **kwargs):
        specs.append(spec)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(sbpkit.cli, "run", capturing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"periodic": True}), encoding="utf-8")
    periodic = ["--periodic"] if source == "flag" else ["--config", str(cfg)]
    rc = main(["run", "--problem", "advection-source", "--space", "poly:d=2",
               "--blocks", "2", "--tfinal", "0.25", "--out", str(tmp_path)]
              + periodic)
    assert rc == 0
    (spec,) = specs
    assert spec.inflow is None
    assert (spec.domain.left, spec.domain.right) == (0.0, np.pi)
    # constant initial data grows uniformly when nothing enters the domain
    _, solution = _read_csv(tmp_path / "solution.csv")
    assert max(float(row[0]) for row in solution) == pytest.approx(np.pi)
    assert {row[2] for row in solution} == {solution[0][2]}


def test_build_without_an_operator_is_a_verification_failure(tmp_path, capsys):
    rc = main(["build", "--space", "exp:d=9", "--nodes", "11",
               "--out", str(tmp_path / "op.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("verification failure: ")
    assert not (tmp_path / "op.json").exists()
