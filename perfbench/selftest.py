"""Show that every checker of the benchmark accepts a right answer and
rejects deliberately wrong ones.

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if any wrong answer is accepted
or any right one rejected.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from fractions import Fraction

import run

run.import_checkout()

import cli_requests  # noqa: E402
import families as fam  # noqa: E402
import workloads  # noqa: E402
from clpslice import engine  # noqa: E402
from workloads import CheckFailure, Expected, Peano  # noqa: E402

failures = 0


def expect(name: str, check, should_pass: bool) -> None:
    global failures
    try:
        check()
        passed, why = True, ""
    except CheckFailure as exc:
        passed, why = False, str(exc)
    ok = passed == should_pass
    failures += not ok
    verdict = "accepted" if passed else f"rejected ({why})"
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {verdict}")


def derive(program: str, goal: str, **kwargs):
    from clpslice.parser import parse_goal, parse_program

    try:
        return engine.derive(parse_program(program), parse_goal(goal), **kwargs)
    except engine.NoSolution as exc:
        return exc


def derive_checks() -> None:
    check = workloads.check_derive
    sums = derive(fam.SUM, "sum(6, S).")
    right = Expected(solutions=((fam.sum_nodes(6), {"S": 21}),))
    expect("sum(6,S) with S=21", lambda: check(sums, right), True)
    expect("sum(6,S) claimed S=22", lambda: check(
        sums, Expected(solutions=((fam.sum_nodes(6), {"S": 22}),))), False)
    expect("sum(6,S) claimed 9 nodes", lambda: check(
        sums, Expected(solutions=((9, {"S": 21}),))), False)
    expect("sum(6,S) with its only solution dropped", lambda: check([], right), False)

    fibs = derive(fam.FIB, "fib(5, F).")
    expect("fib(5,F) with F=8 on 16 nodes", lambda: check(
        fibs, Expected(solutions=((fam.fib_nodes(5), {"F": fam.fib(5)}),))), True)
    expect("fib(5,F) claimed F=13", lambda: check(
        fibs, Expected(solutions=((fam.fib_nodes(5), {"F": 13}),))), False)

    p = Fraction(12345, 100)
    mortgage = derive(fam.MORTGAGE, f"mortgage(P, 4, {fam.number(p)}).")
    want = fam.mortgage_principal(p, 4)
    expect("mortgage solved for P", lambda: check(
        mortgage, Expected(solutions=((6, {"P": want}),))), True)
    expect("mortgage with P off by 1/100", lambda: check(
        mortgage, Expected(solutions=((6, {"P": want + Fraction(1, 100)}),))), False)

    enum = derive(fam.ADD, f"add(X, Y, {fam.peano(3)}).", max_solutions=None)
    solutions = tuple((fam.add_nodes(i), {"X": Peano(i), "Y": Peano(3 - i)}) for i in range(4))
    expect("add enumeration, 4 ordered solutions", lambda: check(
        enum, Expected(solutions=solutions)), True)
    expect("add enumeration missing its last solution", lambda: check(
        enum[:-1], Expected(solutions=solutions)), False)
    expect("add enumeration out of order", lambda: check(
        enum[::-1], Expected(solutions=solutions)), False)

    odd = derive(fam.ADD, f"add(X, X, {fam.peano(5)}).")
    expect("odd add raises NoSolution", lambda: check(odd, Expected(error=fam.NO_PROOF)), True)
    expect("odd add with the depth-limit message", lambda: check(
        odd, Expected(error=fam.DEPTH_EXCEEDED)), False)
    expect("a proof where none exists", lambda: check(sums, Expected(error=fam.NO_PROOF)), False)
    expect("a RecursionError instead of a proof", lambda: check(
        RecursionError("maximum recursion depth exceeded"), right), False)


def sweep_checks() -> None:
    sweep = workloads.CriteriaSweep()
    trees = sweep.setup(0)
    index = next(i for i, t in enumerate(trees) if (t.family, t.size) == ("sum", 8))
    op = workloads.Op("sweep sum/8", "sum", (index,), sweep=True)
    slices, unions = sweep.run(trees, op)
    expect("sweep of sum(8)", lambda: sweep.check(trees, op, (slices, unions)), True)

    alpha, directed, plain, ds, ps = slices[3]
    bad = list(slices)
    bad[3] = (alpha, directed - {alpha}, plain, ds, ps)
    expect("slice without its criterion", lambda: sweep.check(trees, op, (bad, unions)), False)
    outside = next(p for p in trees[index].solution.tree.pos_table if p not in plain)
    bad[3] = (alpha, directed | {outside}, plain, ds, ps)
    expect("directional slice outside its undirected one",
           lambda: sweep.check(trees, op, (bad, unions)), False)
    bad[3] = (alpha, directed, plain,
              dataclasses.replace(ds, slice_node_pct=ds.slice_node_pct + 1), ps)
    expect("stats with a wrong node percentage",
           lambda: sweep.check(trees, op, (bad, unions)), False)
    q, instances, union = unions[0]
    bad_unions = [(q, instances, union | {outside})] + unions[1:]
    expect("position union larger than its slices",
           lambda: sweep.check(trees, op, (slices, bad_unions)), False)
    bad_unions = [(q, instances - {min(instances)}, union)] + unions[1:]
    expect("phi_inverse missing an instance",
           lambda: sweep.check(trees, op, (slices, bad_unions)), False)

    def certify():
        rejected = sweep.certify(trees, 0)
        if rejected:
            raise CheckFailure(rejected[0][1])

    expect("oracle on the real slices", certify, True)
    tree = trees[index].solution.tree
    goal_s = next(a for a in tree.pos_table if a.node == 0 and a.path == (2,))
    for entry in trees:
        entry.checked[:] = [(goal_s, frozenset({goal_s}))] * workloads.ORACLE_SAMPLE
    expect("oracle on a slice cut down to its criterion", certify, False)


def cli_checks() -> None:
    root = run.ROOT
    state = cli_requests.CliRequests(root).setup(0)
    try:
        by_name = {r.name: r for r in state.requests}
        for name in ("chain-dynamic-json-oracle", "stats-sum-json", "add-no-proof"):
            request = by_name[name]
            proc = cli_requests.run_request(request.argv, state.tmp, state.env)
            report = (state.tmp / "report.json")
            saved = report.read_text(encoding="utf-8") if report.exists() else None

            def check(p, text=None, request=request):
                if saved is not None:
                    report.write_text(text or saved, encoding="utf-8")
                cli_requests._check(request, p, state.tmp)

            expect(f"cli {name}", lambda: check(proc), True)
            expect(f"cli {name} with exit code 1", lambda: check(_with(proc, returncode=1)),
                   False)
            if name == "chain-dynamic-json-oracle":
                expect("cli chain without the oracle's ok", lambda: check(
                    _with(proc, stderr="clpslice: oracle validation FAILED\n")), False)
                expect("cli chain printing 5 nodes", lambda: check(
                    _with(proc, stdout=proc.stdout.replace("tree: 4 nodes", "tree: 5 nodes"))),
                    False)
                expect("cli chain report missing 3/0/1", lambda: check(
                    proc, saved.replace('"3/0/1"', '"3/0/2"')), False)
            if name == "stats-sum-json":
                expect("cli stats with a failed row", lambda: check(
                    proc, saved.replace('"ok"', '"failed"', 1)), False)
                expect("cli stats with wrong node counts", lambda: check(
                    proc, saved.replace('"tree_nodes": 5', '"tree_nodes": 6')), False)
    finally:
        cli_requests.CliRequests(root).close(state)


def _with(proc, **changes):
    fields = {"args": proc.args, "returncode": proc.returncode,
              "stdout": proc.stdout, "stderr": proc.stderr}
    fields.update(changes)
    return subprocess.CompletedProcess(**fields)


if __name__ == "__main__":
    derive_checks()
    sweep_checks()
    cli_checks()
    print(f"selftest: {'all checkers behave' if not failures else f'{failures} case(s) wrong'}")
    sys.exit(1 if failures else 0)
