"""Command line behavior: reports, exit codes, curves, verification."""

import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import maxcover.minnoncovered
from maxcover import ParseError, brute_force, cli, parse_instance
from maxcover.core import MAX_HEADER_COUNT
from maxcover.cli import MAX_CURVE_GRID, SOLVERS, curve_points, load_instance_text, main, run_curves

EXAMPLE = "p maxcover 4 3 2\ns 1 2 3\ns 3 4\ns 4\n"


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.mc"
    path.write_text(EXAMPLE)
    return str(path)


def run(argv):
    return main(argv)


def test_solve_greedy_report(inst_file, capsys):
    assert run(["solve", "--alg", "greedy", "--in", inst_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == "greedy"
    assert report["chosen"] == [1, 2]
    assert report["covered"] == 4
    assert report["uncovered"] == 0
    assert report["instance"] == {"n": 4, "m": 3, "k": 2}


def test_solve_writes_file_and_logs_time(inst_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["solve", "--alg", "exact", "--in", inst_file, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "covered 4/4" in err
    report = json.loads(out.read_text())
    assert report["guarantee"] == 1.0
    assert "wall_time" not in json.dumps(report)


def test_solve_with_opt(inst_file, capsys):
    code = run([
        "solve", "--alg", "fpt", "--beta", "0.7", "--p-bound", "2",
        "--in", inst_file, "--with-opt",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["covered"] >= 0.7 * report["opt"]
    assert report["params"]["p_bound"] == 2


def test_seeded_reports_are_byte_identical(inst_file, tmp_path):
    args = [
        "solve", "--alg", "minnc", "--beta", "2", "--epsilon", "0.1",
        "--seed", "7", "--in", inst_file,
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_report_key_sets_are_stable(inst_file, capsys):
    keys = []
    for _ in range(2):
        assert run(["solve", "--alg", "greedy", "--in", inst_file]) == 0
        keys.append(tuple(json.loads(capsys.readouterr().out).keys()))
    assert keys[0] == keys[1]


def test_exit_code_1_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("p maxcover 2 1 1\ns 3\n")
    assert run(["solve", "--alg", "exact", "--in", str(bad)]) == 1
    assert "element id 3 exceeds n=2" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    "p maxcover 100000000000 0 1",
    "p approval 100000000000 0 1",
    "p approval 2 100000000000 1",
    "p graph 100000000000 0 1",
    "p graph 2 100000000000 1",
])
def test_exit_code_1_on_oversized_header(tmp_path, capsys, header):
    doc = tmp_path / "huge.mc"
    doc.write_text(header + "\n")
    assert run(["solve", "--alg", "greedy", "--in", str(doc)]) == 1
    assert capsys.readouterr().err == (
        f"error: header count 100000000000 exceeds the limit of {MAX_HEADER_COUNT} at line 1\n"
    )


def test_header_count_cap_is_inclusive():
    assert parse_instance(f"p maxcover {MAX_HEADER_COUNT} 0 0\n").n == MAX_HEADER_COUNT
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_instance(f"p maxcover {MAX_HEADER_COUNT + 1} 0 0\n")


def test_threads_flag_is_gone(inst_file, capsys):
    assert run(["solve", "--alg", "greedy", "--in", inst_file, "--threads", "2"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --threads 2\n"


def test_exit_code_1_on_missing_file(tmp_path):
    assert run(["solve", "--alg", "exact", "--in", str(tmp_path / "nope.mc")]) == 1


def test_exit_code_1_on_directory_input(tmp_path, capsys):
    assert run(["solve", "--alg", "exact", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_1_on_non_ascii_document(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("p maxcover 2 1 1\ns 1 2 \u00e9\n", encoding="utf-8")
    assert run(["solve", "--alg", "exact", "--in", str(bad)]) == 1
    assert "codec can't decode" in capsys.readouterr().err


def test_exit_code_1_on_malformed_report_json(inst_file, tmp_path, capsys):
    sol = tmp_path / "r.json"
    sol.write_text('{"chosen": [1, 2')
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 1
    assert capsys.readouterr().err == "error: Expecting ',' delimiter: line 1 column 17 (char 16)\n"


@pytest.mark.parametrize("body", ["[" * 10**5 + "]" * 10**5, '{"chosen": [1], "params": ' + "[" * 10**5])
def test_exit_code_1_on_a_report_nested_too_deeply(inst_file, tmp_path, capsys, body):
    sol = tmp_path / "r.json"
    sol.write_text(body)
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 1
    assert capsys.readouterr().err == "error: report is nested too deeply to decode\n"


@pytest.mark.parametrize("body", ['{"chosen": [' + "9" * 5000 + '], "covered": 4, "uncovered": 0}',
                                  '{"chosen": [1], "covered": 4, "uncovered": 0, "params": {"x": 1' + "0" * 4300 + '}}'],
                         ids=["chosen", "params"])
def test_exit_code_1_on_a_report_holding_an_integer_too_long_to_decode(inst_file, tmp_path, capsys, body):
    sol = tmp_path / "r.json"
    sol.write_text(body)
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 1
    assert capsys.readouterr().err == "error: report holds an integer too long to decode\n"


@pytest.mark.parametrize("body", ['{"chosen": ["a"]}', '{"chosen": 3}', '[1, 2]', '{"chosen": [true]}',
                                  '{"covered": 0, "uncovered": 4}'])
def test_exit_code_1_on_report_without_integer_choices(inst_file, tmp_path, capsys, body):
    sol = tmp_path / "r.json"
    sol.write_text(body)
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 1
    err = capsys.readouterr().err
    assert "'chosen' is a list of integers" in err and err.count("\n") == 1


def test_verify_checks_an_empty_choice(inst_file, tmp_path, capsys):
    sol = tmp_path / "r.json"
    sol.write_text('{"chosen": [], "covered": 0, "uncovered": 4}')
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 0
    assert capsys.readouterr().out == "ok: 0 sets cover 0/4 elements\n"
    sol.write_text('{"chosen": [], "covered": 1, "uncovered": 3}')
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 2


@pytest.mark.parametrize("body", [
    '{"chosen": [1], "covered": 3, "uncovered": 1.0}',
    '{"chosen": [1], "covered": 3.0, "uncovered": 1}',
    '{"chosen": [3], "covered": true, "uncovered": 3}',
    '{"chosen": [1], "covered": "3", "uncovered": 1}',
    '{"chosen": [1], "covered": 3}',
])
def test_exit_code_1_on_report_without_integer_counts(inst_file, tmp_path, capsys, body):
    sol = tmp_path / "r.json"
    sol.write_text(body)
    assert run(["verify", "--in", inst_file, "--sol", str(sol)]) == 1
    assert capsys.readouterr().err == "error: report's 'covered' and 'uncovered' must be integers\n"


def test_ceiling_refusal_of_a_count_too_long_to_print(tmp_path, capsys):
    # comb(20000, 10000) has 6 019 digits, past Python's 4 300-digit limit
    # for converting an int to text.
    doc = tmp_path / "wide.mc"
    doc.write_text("p maxcover 20000 20000 10000\n" + "".join(f"s {e}\n" for e in range(1, 20001)))
    refusal = "more than 10^6018 subsets to scan exceeds the ceiling of 100000000"
    for alg in (["exact"], ["exact-greedy", "--x", "1"], ["fpt", "--beta", "0.5"]):
        assert run(["solve", "--alg", *alg, "--in", str(doc)]) == 2
        assert capsys.readouterr().err == f"error: {refusal}\n"
    out = tmp_path / "r.json"
    assert run(["solve", "--alg", "greedy", "--with-opt", "--in", str(doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["opt"] is None
    assert f"note: optimum skipped, {refusal}\n" in capsys.readouterr().err


ALL_ALGS = "('exact', 'greedy', 'fpt', 'minnc', 'greedy-exact', 'exact-greedy', 'ptas')"


@pytest.mark.parametrize("argv, message", [
    pytest.param("solve --alg fpt --in IN", "--beta is required for --alg fpt", id="fpt-beta"),
    pytest.param("solve --alg minnc --epsilon 0.1 --in IN", "--beta is required for --alg minnc", id="minnc-beta"),
    pytest.param("solve --alg minnc --in IN", "--beta is required for --alg minnc", id="minnc-beta-first"),
    pytest.param("solve --alg minnc --beta 2 --in IN", "--epsilon is required for --alg minnc", id="minnc-epsilon"),
    pytest.param("solve --alg greedy-exact --in IN", "--x is required for --alg greedy-exact", id="greedy-exact-x"),
    pytest.param("solve --alg exact-greedy --in IN", "--x is required for --alg exact-greedy", id="exact-greedy-x"),
    pytest.param("solve --alg ptas --in IN", "--alpha is required for --alg ptas", id="ptas-alpha-first"),
    pytest.param("solve --alg ptas --beta 0.5 --in IN", "--alpha is required for --alg ptas", id="ptas-alpha"),
    pytest.param("solve --alg ptas --alpha 0.1 --in IN", "--beta is required for --alg ptas", id="ptas-beta"),
    pytest.param("compare --algs exact,ptas --alpha 0.1 --in IN", "--beta is required for --alg ptas",
                 id="compare-ptas-beta"),
    pytest.param("compare --algs exact,magic --in IN",
                 f"unknown algorithm 'magic', expected one of {ALL_ALGS}", id="compare-unknown"),
    pytest.param("generate --family random", "--n is required for --family random", id="random-n"),
    pytest.param("generate --family random --n 4", "--m is required for --family random", id="random-m"),
    pytest.param("generate --family random --n 4 --m 3", "--k is required for --family random", id="random-k"),
    pytest.param("generate --family random --n 4 --m 3 --k 2", "--p-max is required for --family random",
                 id="random-p-max"),
    pytest.param("generate --family tight-greedy", "--p is required for --family tight-greedy",
                 id="tight-greedy-p"),
    pytest.param("generate --family tight-greedy --p 4", "--k is required for --family tight-greedy",
                 id="tight-greedy-k"),
    pytest.param("generate --family tight-greedy --p 4 --k 3", "--m is required for --family tight-greedy",
                 id="tight-greedy-m"),
    pytest.param("generate --family tight-fpt", "--p is required for --family tight-fpt", id="tight-fpt-p"),
    pytest.param("generate --family tight-fpt --p 2", "--k is required for --family tight-fpt", id="tight-fpt-k"),
    pytest.param("generate --family tight-fpt --p 2 --k 2", "--beta is required for --family tight-fpt",
                 id="tight-fpt-beta"),
    pytest.param("generate --family graph", "--in is required for --family graph", id="graph-in"),
])
def test_exit_code_2_on_missing_parameter(inst_file, capsys, argv, message):
    assert run([inst_file if a == "IN" else a for a in argv.split()]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_readme_algorithm_table_matches_solver_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Algorithms", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `([a-z-]+)` +\|[^|]*\|([^|]*)\|", table, re.M)
    documented = [(alg, tuple(re.findall(r"`(--[a-z-]+)`", flags))) for alg, flags in rows]
    assert documented == [(alg, flags) for alg, (flags, _) in SOLVERS.items()]


def test_exit_code_2_on_ceiling(inst_file, capsys):
    assert run(["solve", "--alg", "exact", "--in", inst_file, "--ceiling", "1"]) == 2
    assert "exceeds the ceiling" in capsys.readouterr().err


def test_exit_code_2_on_unbounded_minnc_plan(tmp_path, capsys, monkeypatch):
    def refuse(inst):
        raise AssertionError("the search started")

    monkeypatch.setattr(maxcover.minnoncovered, "set_masks", refuse)
    doc = tmp_path / "k20.mc"
    doc.write_text("p maxcover 4 3 20\ns 1 2 3\ns 3 4\ns 4\n")
    minnc = ["solve", "--alg", "minnc", "--epsilon", "0.1", "--in", str(doc)]
    assert run(minnc + ["--beta", "1.5"]) == 2
    assert "search leaves planned exceeds the ceiling" in capsys.readouterr().err
    doc.write_text("p maxcover 4 3 200\ns 1 2 3\ns 3 4\ns 4\n")
    assert run(minnc + ["--beta", "1.0001"]) == 2
    assert "too large to represent" in capsys.readouterr().err


@pytest.mark.parametrize("beta, joined", [("nan", True), ("inf", True), ("-inf", True), ("-inf", False)],
                         ids=["nan", "inf", "-inf", "-inf-separate"])
def test_exit_code_2_on_a_non_finite_minnc_beta(inst_file, capsys, beta, joined):
    flag = [f"--beta={beta}"] if joined else ["--beta", beta]
    argv = ["solve", "--alg", "minnc", *flag, "--epsilon", "0.1", "--in", inst_file]
    assert run(argv) == 2
    want = f"error: beta must exceed 1 and be finite for uncovered-count ratios, got {float(beta)}\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("argv, message", [
    (["solve", "--alg", "minnc", "--beta", "2", "--epsilon", "-inf"], "epsilon must lie in (0, 1), got -inf"),
    (["solve", "--alg", "ptas", "--alpha", "-nan", "--beta", "0.5"], "alpha must lie in (0, 1], got nan"),
    (["compare", "--algs", "fpt", "--beta", "-1e3"], "beta must lie in (0, 1), got -1000.0"),
    (["curves", "--beta-a", "-Infinity"], "croce_paschos needs beta_a in (0, 1], got -inf"),
    # A prefix that names one flag of its subcommand, as argparse reads it.
    (["solve", "--alg", "minnc", "--beta", "2", "--eps", "-inf"], "epsilon must lie in (0, 1), got -inf"),
    (["curves", "--beta", "-nan"], "croce_paschos needs beta_a in (0, 1], got nan"),
])
def test_a_float_flag_takes_a_separate_negative_word_as_its_value(inst_file, capsys, argv, message):
    # argparse alone reads '-inf' after a flag as an option; the flag's own
    # check refuses it instead.
    assert run(argv + (["--in", inst_file] if argv[0] != "curves" else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# A word after a flag is the flag's value unless argparse reads it as one of
# the subcommand's options: an exact name, an abbreviation, or '-h' and more.
# argparse's refusal is one error line, with no usage text.
@pytest.mark.parametrize("flag, word, message", [
    ("--beta", "-half", "argument --beta: expected one argument"),
    ("--beta", "-zzz", "argument --beta: invalid float value: '-zzz'"),
    ("--al", "-inf", "ambiguous option: --al could match --alg, --alpha"),
    ("--x", "-inf", "argument --x: invalid int value: '-inf'"),
], ids=["help-prefix", "no-float", "ambiguous-prefix", "int-flag"])
def test_argparse_refuses_an_option_word_or_a_value_its_type_cannot_read(inst_file, capsys, flag, word, message):
    assert run(["solve", "--alg", "fpt", flag, word, "--in", inst_file]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_dash_led_algorithm_list_reaches_the_algorithm_check(inst_file, capsys):
    assert run(["compare", "--algs", "-1,greedy", "--in", inst_file]) == 2
    assert capsys.readouterr().err == f"error: unknown algorithm '-1', expected one of {tuple(SOLVERS)}\n"


def test_dash_led_paths_are_the_values_of_their_flags(inst_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for out in ("-r.json", "r.json"):
        assert run(["solve", "--alg", "greedy", "--in", inst_file, "--out", out]) == 0
    assert (tmp_path / "-r.json").read_bytes() == (tmp_path / "r.json").read_bytes()
    capsys.readouterr()
    assert run(["verify", "--in", inst_file, "--sol", "-r.json"]) == 0
    assert capsys.readouterr().out.startswith("ok: ")
    assert run(["solve", "--alg", "greedy", "--in", "-missing.mc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'-missing.mc'" in err


def test_exit_code_2_on_precondition(inst_file, capsys):
    # The example instance has an element of frequency 2, above the bound 1.
    assert run(["solve", "--alg", "fpt", "--beta", "0.5", "--p-bound", "1",
                "--in", inst_file]) == 2


def test_hybrid_and_ptas_algorithms_run(inst_file, capsys):
    assert run(["solve", "--alg", "greedy-exact", "--x", "1", "--in", inst_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["covered"] == 4
    assert run(["solve", "--alg", "exact-greedy", "--x", "2", "--in", inst_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["x"] == 2


def test_curves_endpoints_both_forms():
    csv = run_curves(1, 0.75, 11, alg5_form="maxcover")
    rows = csv.strip().split("\n")
    assert rows[0] == "t,alg5,croce_paschos"
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert float(first[0]) == 0.0 and float(last[0]) == 1.0
    assert float(first[1]) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert float(first[2]) == 0.75
    assert float(last[1]) == 1.0 and float(last[2]) == 1.0
    vc = run_curves(1, 0.75, 11, alg5_form="vertexcover")
    first_vc = vc.strip().split("\n")[1].split(",")
    assert float(first_vc[1]) == 0.75


def test_curve_points_validation():
    with pytest.raises(ValueError, match="grid"):
        curve_points(1, 0.75, 1)
    with pytest.raises(ValueError, match="alg5 form"):
        curve_points(1, 0.75, 3, alg5_form="other")
    # The budget is checked by hybrid_ratio at the first point, after the form.
    with pytest.raises(ValueError) as err:
        curve_points(0, 0.75, 11)
    assert str(err.value) == "budget must be positive, got 0"
    with pytest.raises(ValueError, match="alg5 form"):
        curve_points(0, 0.75, 11, alg5_form="other")


def test_curves_rejects_a_grid_above_the_cap(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--grid", str(MAX_CURVE_GRID + 1), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: grid must have at most {MAX_CURVE_GRID} points, got {MAX_CURVE_GRID + 1}\n"
    )
    assert not out.exists()


def test_curves_command(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--grid", "5", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,alg5,croce_paschos\n")


def test_verify_accepts_and_rejects(inst_file, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    assert run(["solve", "--alg", "exact", "--in", inst_file, "--out", str(report_path)]) == 0
    assert run(["verify", "--in", inst_file, "--sol", str(report_path)]) == 0
    assert "ok:" in capsys.readouterr().out
    tampered = json.loads(report_path.read_text())
    tampered["covered"] += 1
    tampered["uncovered"] -= 1
    report_path.write_text(json.dumps(tampered))
    assert run(["verify", "--in", inst_file, "--sol", str(report_path)]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_verify_rejects_budget_violation(inst_file, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps({"chosen": [1, 2, 3], "covered": 4, "uncovered": 0}))
    assert run(["verify", "--in", inst_file, "--sol", str(report_path)]) == 2
    assert "budget" in capsys.readouterr().err


def test_compare_csv(inst_file, capsys):
    assert run(["compare", "--algs", "exact,greedy", "--in", inst_file, "--with-opt"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "algorithm,covered,uncovered,guarantee,wall_time_s,opt"
    assert rows[1].startswith("exact,4,0,1.0,")
    assert rows[2].startswith("greedy,4,0,")
    assert all(row.endswith(",4") for row in rows[1:])


def test_compare_rejects_unknown_algorithm(inst_file):
    assert run(["compare", "--algs", "exact,magic", "--in", inst_file]) == 2


@pytest.mark.parametrize("algs", [",", "", " , ,"])
def test_compare_refuses_an_empty_algorithm_list(inst_file, tmp_path, capsys, monkeypatch, algs):
    def no_oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "_oracle_opt", no_oracle)
    out = tmp_path / "rows.csv"
    assert run(["compare", "--algs", algs, "--in", inst_file, "--with-opt", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --algs names no algorithm, expected one of {tuple(SOLVERS)}\n"
    assert not out.exists()
    # The document is loaded first: a malformed one is still exit 1.
    bad = tmp_path / "bad.mc"
    bad.write_text("p maxcover 2 1\n")
    assert run(["compare", "--algs", algs, "--in", str(bad)]) == 1


def test_the_parser_is_built_once_a_process(inst_file, monkeypatch, capsys):
    builds = []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda fn=cli.build_parser: builds.append(1) or fn())
    assert run(["solve", "--alg", "greedy", "--in", inst_file]) == 0
    assert run(["curves", "--grid", "3"]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("name, argv", [
    ("run_solve", ["solve", "--alg", "greedy", "--in", "x.mc"]),
    ("run_verify", ["verify", "--in", "x.mc", "--sol", "r.json"]),
])
def test_handlers_are_looked_up_when_called(inst_file, monkeypatch, capsys, name, argv):
    # A patch made after the parser is built, as the benchmark's tracer
    # makes, is the handler that runs.
    assert run(["curves", "--grid", "3"]) == 0
    seen = []
    monkeypatch.setattr(cli, name, lambda args: seen.append(args.command) or 7)
    assert run(argv) == 7
    assert seen == [argv[0]]


def test_an_argparse_error_leaves_the_parser_usable(inst_file, capsys):
    assert run(["solve", "--alg", "magic", "--in", inst_file]) == 2
    assert capsys.readouterr().err == (
        f"error: argument --alg: invalid choice: 'magic' (choose from {', '.join(map(repr, SOLVERS))})\n"
    )
    assert run(["solve"]) == 2
    assert capsys.readouterr().err == "error: the following arguments are required: --alg, --in\n"
    assert run(["solve", "--alg", "greedy", "--in", inst_file]) == 0
    assert json.loads(capsys.readouterr().out)["covered"] == 4


def test_generate_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.mc"
    assert run(["generate", "--family", "random", "--n", "10", "--m", "5",
                "--k", "2", "--p-max", "3", "--seed", "11", "--out", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert (inst.n, inst.m, inst.k) == (10, 5, 2)
    assert run(["solve", "--alg", "exact", "--in", str(out)]) == 0


@pytest.mark.parametrize("n, m", [(MAX_HEADER_COUNT + 1, 5), (10, MAX_HEADER_COUNT + 1), (10**12, 10**12)])
def test_generate_random_rejects_counts_above_the_header_cap(tmp_path, capsys, n, m):
    out = tmp_path / "gen.mc"
    assert run(["generate", "--family", "random", "--n", str(n), "--m", str(m),
                "--k", "2", "--p-max", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: n and m must be at most {MAX_HEADER_COUNT}, got n={n}, m={m}\n"
    )
    assert not out.exists()


def test_generate_tight_families(tmp_path):
    greedy_out = tmp_path / "tg.mc"
    assert run(["generate", "--family", "tight-greedy", "--p", "4", "--k", "3",
                "--m", "6", "--out", str(greedy_out)]) == 0
    assert parse_instance(greedy_out.read_text()).m == 6
    fpt_out = tmp_path / "tf.mc"
    assert run(["generate", "--family", "tight-fpt", "--p", "2", "--k", "2",
                "--beta", "0.5", "--out", str(fpt_out)]) == 0
    assert parse_instance(fpt_out.read_text()).m == 20


@pytest.mark.parametrize("n", [10**7, 10**5])
def test_generate_random_refuses_a_draw_above_the_size_ceiling(tmp_path, capsys, n):
    out = tmp_path / "gen.mc"
    assert run(["generate", "--family", "random", "--n", str(n), "--m", str(10**7),
                "--k", "1", "--p-max", str(10**7), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: construction needs up to {n * 10**7} incidences, above the ceiling 5000000\n"
    )
    assert not out.exists()


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_a_mask_build_above_the_ceiling_is_refused_before_it_allocates(tmp_path):
    # 10**4 sets of one element at n = 10**7: a 110 KB document whose masks
    # would take 1.25 * 10**10 bytes.
    doc, out = tmp_path / "wide.mc", tmp_path / "r.json"
    doc.write_text("p maxcover 10000000 10000 1\n" + "s 10000000\n" * 10**4)
    done = subprocess.run(
        [sys.executable, "-m", "maxcover.cli", "solve", "--alg", "exact", "--in", str(doc), "--out", str(out)],
        capture_output=True, text=True, preexec_fn=limit_address_space, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert done.returncode == 2
    assert done.stderr == "error: masks need 12500000000 bytes, above the ceiling 1073741824\n"
    assert not out.exists()


def test_approval_documents_load_and_verify_through_the_public_parsers(monkeypatch, tmp_path, capsys):
    doc, report = tmp_path / "vote.ap", tmp_path / "r.json"
    doc.write_text("p approval 2 3 1\nv 1\nv 1 2\nv 2\n")
    calls = []
    for name in ("parse_election", "election_to_maxcover"):
        monkeypatch.setattr(cli, name, lambda *a, fn=getattr(cli, name), name=name: calls.append(name) or fn(*a))
    assert run(["solve", "--alg", "greedy", "--in", str(doc), "--out", str(report)]) == 0
    assert calls == ["parse_election", "election_to_maxcover"]
    calls.clear()
    assert run(["verify", "--in", str(doc), "--sol", str(report)]) == 0
    assert calls == ["parse_election"]
    assert capsys.readouterr().out == "ok: 1 sets cover 2/3 elements\n"


def test_approval_document_is_reduced(tmp_path, capsys):
    doc = tmp_path / "vote.ap"
    doc.write_text("p approval 2 3 1\nv 1\nv 1 2\nv 2\n")
    assert run(["solve", "--alg", "exact", "--in", str(doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instance"] == {"n": 3, "m": 2, "k": 1}
    assert report["covered"] == 2


def test_graph_document_is_reduced(tmp_path, capsys):
    doc = tmp_path / "tri.gr"
    doc.write_text("p graph 3 3 1\ne 1 2\ne 2 3\ne 1 3\n")
    assert run(["solve", "--alg", "exact", "--in", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["covered"] == 2
    inst = load_instance_text(doc.read_text())
    assert brute_force(inst).opt == 2


def test_generate_graph_family(tmp_path):
    doc = tmp_path / "tri.gr"
    doc.write_text("p graph 3 3 2\ne 1 2\ne 2 3\ne 1 3\n")
    out = tmp_path / "tri.mc"
    assert run(["generate", "--family", "graph", "--in", str(doc), "--out", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert (inst.n, inst.m, inst.k) == (3, 3, 2)


def deep_document(tmp_path, m):
    """m singleton sets with budget m: every search goes m picks deep."""
    doc = tmp_path / f"deep{m}.mc"
    doc.write_text(f"p maxcover {m} {m} {m}\n" + "".join(f"s {e}\n" for e in range(1, m + 1)))
    return str(doc)


@pytest.mark.parametrize("alg, m", [
    ("exact", 990), ("greedy-exact --x 0", 990), ("exact-greedy --x 0", 990), ("fpt --beta 0.5", 990),
    ("minnc --beta 1000000 --epsilon 0.5", 1200),
])
def test_deep_budget_is_solved(tmp_path, capsys, alg, m):
    assert run(["solve", "--alg", *alg.split(), "--in", deep_document(tmp_path, m)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["covered"], report["chosen"]) == (m, list(range(1, m + 1)))


def test_oracle_answers_a_deep_budget(tmp_path, capsys):
    assert run(["solve", "--alg", "greedy", "--with-opt", "--in", deep_document(tmp_path, 990)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["opt"] == 990
    assert "note:" not in err


EDGE_DOCUMENTS = {
    "empty-family": "p maxcover 3 0 2\n",
    "n0": "p maxcover 0 2 1\ns\ns\n",
    "k0": "p maxcover 3 2 0\ns 1 2\ns 3\n",
    "duplicate-sets": "p maxcover 3 3 2\ns 1 2\ns 1 2\ns 1 2\n",
    "uncovered": "p maxcover 5 2 1\ns 1\ns 2\n",
    "edgeless-graph": "p graph 4 0 2\n",
    "empty-ballots": "p approval 3 2 1\nv\nv\n",
    "k-1e21": f"p maxcover 3 2 {10**21}\ns 1\ns 2 3\n",
}

SOLVER_FLAGS = {
    "exact": [], "greedy": [], "fpt": ["--beta", "0.5"], "minnc": ["--beta", "1000000", "--epsilon", "0.5"],
    "greedy-exact": ["--x", "0"], "exact-greedy": ["--x", "0"], "ptas": ["--alpha", "0.5", "--beta", "0.5"],
}


@pytest.mark.parametrize("name", [*EDGE_DOCUMENTS, "deep990", "deep1200"])
def test_every_solver_keeps_the_exit_code_contract_on_edge_documents(tmp_path, capsys, name):
    if name.startswith("deep"):
        doc = deep_document(tmp_path, int(name[4:]))
    else:
        doc = tmp_path / "edge.txt"
        doc.write_text(EDGE_DOCUMENTS[name])
    runs = [["solve", "--alg", alg, *flags] for alg, flags in SOLVER_FLAGS.items()]
    runs.append(["compare", "--algs", "exact,greedy,fpt,greedy-exact,exact-greedy,ptas",
                 "--beta", "0.5", "--x", "0", "--alpha", "0.5"])
    runs.append(["compare", "--algs", "greedy,minnc", "--beta", "1000000", "--epsilon", "0.5"])
    for argv in runs:
        for opt in ([], ["--with-opt"]):
            code = run([*argv, *opt, "--in", str(doc)])
            errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2) and len(errors) == (code != 0), (argv, opt, code, errors)
