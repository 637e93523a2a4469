import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import clpslice
from clpslice import corpus_path
from clpslice.cli import main
from clpslice.report import SliceReport, load_report


CHAIN = str(corpus_path("chain.clp"))
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tree_mode(capsys):
    code, out, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--at", "0/1/3", "--mode", "tree")
    assert code == 0
    assert "0/1/3" in out and "3/0/1" in out
    assert "store slice: {Z=Z#1, Z#1=42}" in out


def test_store_slice_keeps_instance_names(capsys):
    # each clause instance keeps its own #node names, so the variables
    # of different fib calls do not collapse into one
    code, out, _ = run(capsys, "slice", str(corpus_path("fib.clp")),
                       "--goal", "fib(4,F).", "--at", "0/1/2")
    assert code == 0
    line = next(x for x in out.splitlines() if x.startswith("store slice:"))
    assert "F#7=F1#7+F2#7" in line
    assert "F1=F" not in line


def test_tree_mode_undirected_atom_criterion(capsys):
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                           "--at", "0/1", "--undirected")
    assert code == 0
    assert "annotation: off" in out


def test_dynamic_mode(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                         "--at", "0/1/3", "--mode", "dynamic",
                         "--json", str(report_file), "--oracle-domain=-50..50")
    assert code == 0
    assert "r([42])" in out and "[Z]" in out
    assert "oracle validation" in err
    data = json.loads(report_file.read_text())
    assert sorted(data["program_positions"]) == ["0/0/3", "0/3/1", "2/0/1", "g/1/3"]
    report = load_report(report_file.read_text())
    assert report == SliceReport.from_dict(report.to_dict())
    assert data["groundness_log"], "log is serialized for audit"


def test_dynamic_mode_x(capsys):
    code, out, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--at", "0/1/1", "--mode", "dynamic")
    assert code == 0
    assert "{[X]-[Y]=[1]}" in out  # the constraint is in the X slice
    assert "[42]" not in out


def test_position_mode(capsys):
    code, out, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--at", "1/0/1", "--mode", "position")
    assert code == 0
    assert "mode: position" in out


def test_position_mode_dead_clause(capsys):
    program = str(corpus_path("fib.clp"))
    # fib(0,1) is never used when the goal is fib(0,F)... clause 1 is; use clause 2 arg
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "slice", program, "--goal", "fib(0, F).",
                           "--at", "2/0/1", "--mode", "position")
    assert code == 0


def test_dot_output(tmp_path, capsys):
    dot_file = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                     "--at", "0/1/3", "--dot", str(dot_file))
    assert code == 0
    text = dot_file.read_text()
    assert text.startswith("digraph") and text.rstrip().endswith("}")
    code, _, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                     "--at", "0/1/3", "--dot", str(dot_file), "--undirected")
    assert dot_file.read_text().startswith("graph")


@pytest.mark.parametrize("name, goal, at", [
    ("chain", "p(X, Y, Z).", "0/1/1"),
    ("io_flow", "p(X, Y).", "0/1/2"),
    ("pinned", "main(X, Y).", "0/1/1"),
])
@pytest.mark.parametrize("undirected", [False, True])
def test_dot_output_pinned(tmp_path, capsys, name, goal, at, undirected):
    dot_file = tmp_path / "graph.dot"
    flags = ["--undirected"] if undirected else []
    code, _, _ = run(capsys, "slice", str(corpus_path(f"{name}.clp")), "--goal", goal,
                     "--at", at, "--dot", str(dot_file), *flags)
    assert code == 0
    pinned = DATA / "dot" / f"{name}_{'undirected' if undirected else 'directed'}.dot"
    assert dot_file.read_bytes() == pinned.read_bytes()


def test_exit_code_usage(capsys):
    assert run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).")[0] == 1
    assert run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).", "--at", "bad")[0] == 1
    assert run(capsys, "slice", "/nonexistent.clp", "--goal", "p.", "--at", "0/1")[0] == 1
    assert run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z", "--at", "0/1/1")[0] == 1


def test_exit_code_no_solution(capsys):
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(1,1,1).", "--at", "0/1/1")
    assert code == 2
    assert "no solution" in err


def test_oracle_validation_ok(capsys):
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--at", "0/1/3", "--oracle-domain=0..50")
    assert code == 0
    assert "ok" in err


def test_exit_code_oracle_failure(capsys, monkeypatch):
    # computed slices are valid, so force a verdict to exercise the gate
    import clpslice.cli as cli_module

    monkeypatch.setattr(cli_module, "is_slice", lambda *a, **k: False)
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--at", "0/1/3", "--oracle-domain=-50..50")
    assert code == 3
    assert "FAILED" in err


def test_oracle_domain_without_solution_is_an_input_error(capsys):
    # Z = 42 lies outside -3..3: the domain can certify no slice
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X, Y, Z).",
                       "--at", "0/1/1", "--oracle-domain=-3..3")
    assert code == 1
    assert "clpslice: oracle domain -3..3 holds no solution of the store" in err
    assert "FAILED" not in err


def test_oracle_skips_an_atom_criterion(capsys):
    with pytest.warns(UserWarning) as caught:
        code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                           "--at", "0/1", "--oracle-domain=-5..50")
    assert code == 0
    assert any("oracle check skipped" in str(w.message) for w in caught)
    assert "oracle validation over -5..50: skipped (criterion is not a variable position)" in err
    assert ": ok" not in err


def test_oracle_skips_a_position_without_instances(tmp_path, capsys):
    # the first tree uses the first clause only, so no tree holds 1/0/1
    program = tmp_path / "q.clp"
    program.write_text("q(X) :- {X = 1}.\nq(X) :- {X = 2}.\n")
    with pytest.warns(UserWarning, match="program position 1/0/1 has no instance"):
        code, _, err = run(capsys, "slice", str(program), "--goal", "q(X).",
                           "--mode", "position", "--at", "1/0/1", "--oracle-domain=0..5")
    assert code == 0
    assert err == ("oracle validation over 0..5: skipped "
                   "(no proof tree holds an instance of the position)\n")


def test_oracle_certifies_sum_40(capsys):
    # 161 store variables over a domain of 832 values
    code, _, err = run(capsys, "slice", str(corpus_path("sum.clp")), "--goal", "sum(40,S).",
                       "--at", "0/1/2", "--oracle-domain=-1..830")
    assert code == 0
    assert err == "oracle validation over -1..830: ok\n"


def test_bad_oracle_domain_is_a_usage_error(capsys):
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--at", "0/1/1", "--oracle-domain=abc")
    assert code == 1
    assert "clpslice: bad --oracle-domain 'abc'; expected LO..HI" in err


@pytest.mark.parametrize("domain, message", [
    ("abc", "bad --oracle-domain 'abc'; expected LO..HI"),
    ("5..1", "bad --oracle-domain '5..1'; LO is greater than HI"),
])
def test_bad_oracle_domain_is_refused_before_slicing(capsys, domain, message):
    code, out, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                         "--at", "0/1/1", f"--oracle-domain={domain}")
    assert code == 1
    assert out == ""
    assert err == f"clpslice: {message}\n"


def test_position_mode_unknown_goal_position(capsys):
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                       "--mode", "position", "--at", "g/9/1")
    assert code == 1
    assert "clpslice: no such goal position: g/9/1" in err


def test_division_by_zero_is_a_usage_error(capsys):
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "{X =< 3/0}.", "--at", "0/1/1")
    assert code == 1
    assert "clpslice: division by zero (line 1, column 10)" in err


def test_wrong_slice_fails_the_oracle(capsys, monkeypatch):
    # an empty slice of X leaves X unconstrained, which the store is not
    import clpslice.cli as cli_module
    from clpslice import ConstraintStore

    monkeypatch.setattr(cli_module, "positions_to_store", lambda tree, positions: ConstraintStore())
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X, Y, Z).",
                       "--at", "0/1/1", "--oracle-domain=-50..50")
    assert code == 3
    assert "clpslice: oracle validation FAILED" in err


def test_all_solutions_union(capsys):
    program = str(corpus_path("family.clp"))
    code, out, _ = run(capsys, "slice", program, "--goal", "grand(X, Z).",
                       "--at", "0/1/1", "--all-solutions", "3", "--mode", "tree")
    assert code == 0


def test_all_solutions_below_one_is_a_usage_error(capsys):
    code, out, err = run(capsys, "slice", str(corpus_path("sum.clp")),
                         "--goal", "sum(3,S).", "--at", "0/1/2", "--all-solutions", "0")
    assert code == 1
    assert out == ""
    assert err == "clpslice: max_solutions must be at least 1 (or None for all)\n"


def test_stats_table(capsys):
    goals = str(corpus_path("chain.goals"))
    code, out, _ = run(capsys, "stats", CHAIN, goals)
    assert code == 0
    assert "GOAL" in out and "NODE%" in out and "TOTAL" in out
    code2, out2, _ = run(capsys, "stats", CHAIN, goals)
    assert out2 == out, "stats output is deterministic"


def test_stats_failed_goal(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("p(X,Y,Z).\np(1,1,1).\n")
    code, out, _ = run(capsys, "stats", CHAIN, str(goals))
    assert code == 0
    assert "failed" in out
    assert "1/2" in out


PEANO = "add(z, Y, Y). add(s(X), Y, s(Z)) :- add(X, Y, Z).\n"


def peano(n: int) -> str:
    return "s(" * n + "z" + ")" * n


# A goal whose constraint nests parentheses 100 deep: parsing it takes
# about four frames per level, fine under the default recursion limit
# and a real RecursionError under RECURSION_LIMIT.
NESTED = "{Z = " + "(" * 100 + "3" + ")" * 100 + "}."
RECURSION_LIMIT = 150


def cli_process(tmp_path, *argv: str, recursion_limit: int | None = None
                ) -> subprocess.CompletedProcess:
    """The command line in a fresh process, so the interpreter's own
    stack depth applies and an escaping RecursionError would print its
    traceback; optionally under a lowered recursion limit."""
    src = os.path.dirname(os.path.dirname(clpslice.__file__))
    limit = "" if recursion_limit is None else f"sys.setrecursionlimit({recursion_limit})\n"
    code = f"import sys\nfrom clpslice.cli import main\n{limit}sys.exit(main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})


def test_stats_recursion_limit_fails_one_goal(tmp_path):
    program = tmp_path / "peano.clp"
    program.write_text(PEANO)
    goals = tmp_path / "goals.txt"
    goals.write_text(f"add(z, {peano(3)}, Z).\n{NESTED}\nadd({peano(4)}, z, Z).\n")
    out_file = tmp_path / "stats.json"
    proc = cli_process(tmp_path, "stats", str(program), str(goals), "--json", str(out_file),
                       recursion_limit=RECURSION_LIMIT)
    code, out = proc.returncode, proc.stdout
    assert code == 0
    rows = json.loads(out_file.read_text())["rows"]
    assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
    assert rows[1]["error"] == "recursion limit exceeded"
    assert "2/3" in out


def test_zero_denominator_is_a_syntax_error(tmp_path):
    program = tmp_path / "p.clp"
    program.write_text("p(X).\n")
    proc = cli_process(tmp_path, "slice", str(program), "--goal", "p(1/0).", "--at", "0/1/1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "clpslice: division by zero (line 1, column 5)\n"
    program.write_text("p(X).\nq(-1/0).\n")
    proc = cli_process(tmp_path, "slice", str(program), "--goal", "p(1).", "--at", "0/1/1")
    assert proc.returncode == 1
    assert proc.stderr == "clpslice: division by zero (line 2, column 6)\n"


def test_stats_zero_denominator_fails_one_goal(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("p(X,Y,Z).\np(1/0).\nq(U,V).\n")
    out_file = tmp_path / "stats.json"
    code, out, _ = run(capsys, "stats", CHAIN, str(goals), "--json", str(out_file))
    assert code == 0
    rows = json.loads(out_file.read_text())["rows"]
    assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
    assert rows[1]["error"] == "division by zero (line 1, column 5)"
    assert "2/3" in out


def slice_peano_term(tmp_path, depth: int) -> subprocess.CompletedProcess:
    """``slice`` of a goal with a depth-deep Peano numeral."""
    program = tmp_path / "peano.clp"
    program.write_text(PEANO)
    return cli_process(tmp_path, "slice", str(program),
                       "--goal", f"add(z, {peano(depth)}, Z).", "--at", "0/1/3")


def test_slice_recursion_limit_is_a_usage_error(tmp_path):
    program = tmp_path / "peano.clp"
    program.write_text(PEANO)
    proc = cli_process(tmp_path, "slice", str(program), "--goal", NESTED, "--at", "0/1/1",
                       recursion_limit=RECURSION_LIMIT)
    assert proc.returncode == 1
    assert "clpslice: recursion limit exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nested_goal_runs_under_the_default_limit(tmp_path):
    # the recursion-limit tests above fail for the lowered limit alone
    program = tmp_path / "peano.clp"
    program.write_text(PEANO)
    proc = cli_process(tmp_path, "slice", str(program), "--goal", NESTED, "--at", "0/1/1")
    assert proc.returncode == 0, proc.stderr


def test_slice_300_deep_term(tmp_path):
    # derived, sliced and printed: the term walkers and the renderer
    # stay within the default recursion limit at this depth
    proc = slice_peano_term(tmp_path, 300)
    assert proc.returncode == 0, proc.stderr
    assert "tree: 2 nodes, 6 argument positions" in proc.stdout


def test_slice_600_deep_term(tmp_path):
    # no walker recurses on term depth, so twice that depth slices too
    proc = slice_peano_term(tmp_path, 600)
    assert proc.returncode == 0, proc.stderr
    assert "tree: 2 nodes, 6 argument positions" in proc.stdout
    assert f"  0/1/2  {peano(600)}" in proc.stdout


def test_stats_600_deep_term(tmp_path, capsys):
    program = tmp_path / "peano.clp"
    program.write_text(PEANO)
    goals = tmp_path / "goals.txt"
    goals.write_text(f"add(z, {peano(600)}, Z).\n")
    out_file = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", str(program), str(goals), "--json", str(out_file))
    assert code == 0
    rows = json.loads(out_file.read_text())["rows"]
    assert [(r["status"], r["tree_nodes"], r["tree_argpos"]) for r in rows] == [("ok", 2, 6)]


def test_slice_fib_10(capsys):
    code, out, _ = run(capsys, "slice", str(corpus_path("fib.clp")),
                       "--goal", "fib(10,F).", "--at", "0/1/2")
    assert code == 0
    assert "tree: 178 nodes, 708 argument positions" in out


def test_stats_empty_goal_file(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("% nothing here\n")
    code, out, _ = run(capsys, "stats", CHAIN, str(goals))
    assert code == 0
    assert "TOTAL" not in out


def test_stats_json(tmp_path, capsys):
    out_file = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", CHAIN, str(corpus_path("chain.goals")),
                     "--json", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["clauses"] == 3
    assert data["rows"][0]["status"] == "ok"
    assert 0 < data["rows"][0]["avg_node_pct"] <= 100


def test_corpus_programs_all_derive(capsys):
    for clp in sorted(corpus_path().glob("*.clp")):
        goals = clp.with_suffix(".goals")
        code, out, _ = run(capsys, "stats", str(clp), str(goals))
        assert code == 0, clp.name
        assert "ok" in out, clp.name


def test_report_percentages_recomputable(capsys, tmp_path):
    from clpslice import derive, parse_goal, parse_program

    report_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).",
                     "--at", "0/1/1", "--mode", "dynamic", "--json", str(report_file))
    assert code == 0
    data = json.loads(report_file.read_text())
    tree = derive(parse_program(corpus_path("chain.clp").read_text()),
                  parse_goal("p(X,Y,Z)."))[0].tree
    nodes_touched = {addr.split("/")[0] for addr in data["tree_positions"]}
    expected = 100 * len(nodes_touched) / data["stats"]["tree_node_count"]
    assert abs(data["stats"]["slice_node_pct"] - expected) < 1e-9
    assert tree.node_count() == data["stats"]["tree_node_count"]


posix_only = pytest.mark.skipif(os.name != "posix", reason="POSIX file modes and messages")


@posix_only
@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_output_files_get_the_mode_of_a_plain_file(tmp_path, capsys, umask):
    report_file, dot_file, stats_file = (tmp_path / n for n in ("r.json", "g.dot", "s.json"))
    old = os.umask(umask)
    try:
        (tmp_path / "plain").write_text("")
        code, _, _ = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).", "--at", "0/1/3",
                         "--json", str(report_file), "--dot", str(dot_file))
        assert code == 0
        code, _, _ = run(capsys, "stats", CHAIN, str(corpus_path("chain.goals")),
                         "--json", str(stats_file))
        assert code == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o666 & ~umask
    for path in (report_file, dot_file, stats_file):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


@posix_only
def test_output_into_a_missing_directory_names_the_given_path(tmp_path, capsys):
    target = tmp_path / "nodir" / "report.json"
    code, _, err = run(capsys, "slice", CHAIN, "--goal", "p(X,Y,Z).", "--at", "0/1/3",
                       "--json", str(target))
    assert code == 1
    assert err == f"clpslice: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()
