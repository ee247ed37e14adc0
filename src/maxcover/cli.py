"""Command line front end: solve, generate, compare, curves, and verify.

Reports are deterministic JSON documents (wall times go to stderr, and to the
compare CSV, never into the report), so rerunning a seeded command reproduces
the output byte for byte. Exit codes: 0 success, 1 malformed input, 2
infeasible or invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from functools import partial

from .core import (
    Instance,
    ParseError,
    _check_integer,
    _voters_covered,
    coverage,
    document_kind,
    election_to_maxcover,
    frequency_profile,
    parse_election,
    parse_graph,
    parse_instance,
    serialize_instance,
)
from .exact import DEFAULT_CEILING, EnumerationCeilingError, brute_force
from .fpt import fpt_approx
from .generators import (
    TightFptSpec,
    TightGreedySpec,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
)
from .greedy import greedy_cover, greedy_guarantee
from .hybrid import exact_then_greedy, greedy_then_exact, hybrid_ratio, ptas_dispatch
from .minnoncovered import randomized_min_noncovered

# Largest --grid of the curves command: each point is a row of the CSV.
MAX_CURVE_GRID = 10**6


@dataclass(frozen=True)
class SolverReport:
    """What one solve run produced. It holds no wall time, so seeded reruns
    reproduce the JSON document byte for byte."""

    algorithm: str
    instance: Instance
    chosen: tuple[int, ...]
    covered: int
    uncovered: int
    guarantee: float | None
    params: dict
    opt: int | None
    include_opt: bool

    def to_json(self) -> str:
        body = {
            "algorithm": self.algorithm,
            "instance": {"n": self.instance.n, "m": self.instance.m, "k": self.instance.k},
            "chosen": [i + 1 for i in self.chosen],
            "covered": self.covered,
            "uncovered": self.uncovered,
            "guarantee": self.guarantee,
            "params": self.params,
        }
        if self.include_opt:
            body["opt"] = self.opt
        return json.dumps(body, indent=2) + "\n"


def curve_points(k: int, beta_a: float, grid: int, alg5_form: str = "vertexcover") -> list[tuple[float, float, float]]:
    """Sample both guarantee curves on a grid of t = (k - x)/k values, as
    (t, alg5 ratio, Croce-Paschos ratio) triples.

    t = 0 is all-greedy (all-approximate) work and t = 1 all-exact; the split
    x runs from k down to 0 for the greedy-finishing method while the
    comparison method solves a t fraction exactly.
    """
    _check_integer(k, "budget")
    _check_integer(grid, "grid")
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    if grid > MAX_CURVE_GRID:
        raise ValueError(f"grid must have at most {MAX_CURVE_GRID} points, got {grid}")
    try:
        method = {"maxcover": "alg5", "vertexcover": "alg5_vertexcover"}[alg5_form]
    except KeyError:
        raise ValueError(f"alg5 form must be 'maxcover' or 'vertexcover', got '{alg5_form}'") from None
    points = []
    for i in range(grid):
        t = i / (grid - 1)
        alg5 = hybrid_ratio(method, (1.0 - t) * k, k)
        cp = hybrid_ratio("croce_paschos", t * k, k, beta_a)
        points.append((t, alg5, cp))
    return points


def run_curves(k: int, beta_a: float, grid: int, alg5_form: str = "vertexcover") -> str:
    """CSV document 't,alg5,croce_paschos' comparing the two guarantee curves."""
    rows = ["t,alg5,croce_paschos"]
    for t, alg5, cp in curve_points(k, beta_a, grid, alg5_form):
        rows.append(f"{t!r},{alg5!r},{cp!r}")
    return "\n".join(rows) + "\n"


def load_instance_text(text: str) -> Instance:
    """Parse any supported document; approval and graph inputs are reduced.
    An approval document goes through ``parse_election`` and
    ``election_to_maxcover``, and a graph document through ``parse_graph``
    and ``graph_to_maxvertexcover``, which reduce the parser's id arrays and
    make no ballot or edge tuples."""
    kind = document_kind(text)
    if kind == "maxcover":
        return parse_instance(text)
    if kind == "approval":
        return election_to_maxcover(parse_election(text))
    if kind == "graph":
        return _graph_instance(text)
    raise ParseError(f"unknown document kind '{kind}'")


def _graph_instance(text: str) -> Instance:
    """The reduction of a graph document, from the edge arrays that
    ``parse_graph`` keeps; no edge becomes a tuple."""
    g = parse_graph(text)
    return graph_to_maxvertexcover(g.num_vertices, g._ids[0].reshape(-1, 2), g.k)


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)


def _require(value, flag: str, context: str):
    if value is None:
        raise ValueError(f"{flag} is required for {context}")
    return value


def _default_p_bound(inst: Instance, requested: int | None) -> int:
    if requested is not None:
        return requested
    return max(frequency_profile(inst).p_max, 1)


def _run_greedy(inst: Instance, args) -> tuple:
    solution, _ = greedy_cover(inst)
    profile = frequency_profile(inst)
    guarantee = None
    if profile.p_min >= 1 and inst.effective_budget >= 1:
        guarantee = greedy_guarantee(profile.p_min, inst.effective_budget, inst.m)
    return solution, guarantee, {}


def _run_fpt(inst: Instance, args) -> tuple:
    p = _default_p_bound(inst, args.p_bound)
    solution, plan = fpt_approx(inst, p, args.beta, args.ceiling)
    return solution, args.beta, {"beta": args.beta, "p_bound": p, "pool_size": plan.pool_size}


def _run_minnc(inst: Instance, args) -> tuple:
    p = _default_p_bound(inst, args.p_bound)
    run = randomized_min_noncovered(inst, p, args.beta, args.epsilon, args.seed, args.ceiling)
    params = {
        "beta": args.beta,
        "epsilon": args.epsilon,
        "p_bound": p,
        "seed": args.seed,
        "repetitions": run.repetitions,
    }
    return run.best, args.beta, params


def _run_ptas(inst: Instance, args) -> tuple:
    solution, branch = ptas_dispatch(inst, args.alpha, args.beta, args.ceiling)
    return solution, args.beta, {"alpha": args.alpha, "beta": args.beta, "branch": branch}


def _hybrid(report, args) -> tuple:
    return report.solution, report.guarantee, {"x": args.x}


# Solver id -> (required flags, checked in order as args.<flag minus "--">;
# runner), in --help order. Runners look the solvers up as module globals when
# called, and ``main`` looks up each command's handler (``run_solve``,
# ``run_verify``, ...) the same way, by the name its parser stores; so a caller
# that patches those names, as the benchmark's tracer does, sees them although
# the parser is built once a process.
SOLVERS = {
    "exact": ((), lambda inst, args: (brute_force(inst, args.ceiling).solution, 1.0, {})),
    "greedy": ((), _run_greedy),
    "fpt": (("--beta",), _run_fpt),
    "minnc": (("--beta", "--epsilon"), _run_minnc),
    "greedy-exact": (("--x",), lambda inst, args: _hybrid(greedy_then_exact(inst, args.x, args.ceiling), args)),
    "exact-greedy": (("--x",), lambda inst, args: _hybrid(exact_then_greedy(inst, args.x, args.ceiling), args)),
    "ptas": (("--alpha", "--beta"), _run_ptas),
}


def _solve_one(inst: Instance, alg: str, args) -> tuple:
    """Check the solver's required flags, then run it; returns (solution, guarantee, params)."""
    flags, run = SOLVERS[alg]
    for flag in flags:
        _require(getattr(args, flag[2:]), flag, f"--alg {alg}")
    return run(inst, args)


def _oracle_opt(inst: Instance, ceiling: int) -> int | None:
    """Exact optimum, or None when the enumeration ceiling makes it infeasible."""
    try:
        return brute_force(inst, ceiling).opt
    except EnumerationCeilingError as err:
        print(f"note: optimum skipped, {err}", file=sys.stderr)
        return None


def run_solve(args) -> int:
    inst = load_instance_text(_read(args.infile))
    start = time.perf_counter()
    solution, guarantee, params = _solve_one(inst, args.alg, args)
    elapsed = time.perf_counter() - start
    report = SolverReport(
        algorithm=args.alg,
        instance=inst,
        chosen=solution.chosen,
        covered=solution.covered,
        uncovered=solution.uncovered,
        guarantee=guarantee,
        params=params,
        opt=_oracle_opt(inst, args.ceiling) if args.with_opt else None,
        include_opt=args.with_opt,
    )
    _write(args.out, report.to_json())
    print(
        f"{args.alg}: covered {solution.covered}/{inst.n} ({elapsed:.3f}s)",
        file=sys.stderr,
    )
    return 0


def run_generate(args) -> int:
    def need(value, flag):
        return _require(value, flag, f"--family {args.family}")

    if args.family == "random":
        inst = gen_random(need(args.n, "--n"), need(args.m, "--m"),
                          need(args.k, "--k"), need(args.p_max, "--p-max"), args.seed)
    elif args.family == "tight-greedy":
        inst = gen_tight_greedy(
            TightGreedySpec(p=need(args.p, "--p"), k=need(args.k, "--k"), m=need(args.m, "--m"))
        )
    elif args.family == "tight-fpt":
        inst = gen_tight_fpt(
            TightFptSpec(p=need(args.p, "--p"), k=need(args.k, "--k"), beta=need(args.beta, "--beta"))
        )
    else:  # graph, the last of the --family choices
        inst = _graph_instance(_read(need(args.infile, "--in")))
    _write(args.out, serialize_instance(inst))
    return 0


def run_compare(args) -> int:
    inst = load_instance_text(_read(args.infile))
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    if not algs:
        raise ValueError(f"--algs names no algorithm, expected one of {tuple(SOLVERS)}")
    for alg in algs:
        if alg not in SOLVERS:
            raise ValueError(f"unknown algorithm '{alg}', expected one of {tuple(SOLVERS)}")
    opt = _oracle_opt(inst, args.ceiling) if args.with_opt else None
    header = "algorithm,covered,uncovered,guarantee,wall_time_s"
    if args.with_opt:
        header += ",opt"
    rows = [header]
    for alg in algs:
        start = time.perf_counter()
        solution, guarantee, _ = _solve_one(inst, alg, args)
        elapsed = time.perf_counter() - start
        cells = [
            alg,
            str(solution.covered),
            str(solution.uncovered),
            "" if guarantee is None else repr(guarantee),
            f"{elapsed:.6f}",
        ]
        if args.with_opt:
            cells.append("" if opt is None else str(opt))
        rows.append(",".join(cells))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def run_curves_cmd(args) -> int:
    _write(args.out, run_curves(args.k, args.beta_a, args.grid, args.alg5_form))
    return 0


def run_verify(args) -> int:
    """Recount a report's coverage from the document's rows of ids,
    independent of the solvers' bitmask kernel, and fail on any mismatch.

    The recount is ``coverage`` of the chosen sets, read from a maxcover
    document's sets or a graph reduction's, as ``load_instance_text`` gives
    them. An approval document is read by ``parse_election`` and not
    reduced: its recount is the number of ballots that approve a chosen
    candidate.
    """
    doc = _read(args.infile)
    if document_kind(doc) == "approval":
        election = parse_election(doc)
        n, m, k = election.num_voters, election.num_candidates, election.committee_size
        recount = partial(_voters_covered, election)
    else:
        inst = load_instance_text(doc)
        n, m, k, recount = inst.n, inst.m, inst.k, partial(coverage, inst)
    text = _read(args.sol)
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RuntimeError:  # the decoder's recursion limit, reached by deep nesting
        raise ParseError("report is nested too deeply to decode") from None
    except ValueError:  # int() refuses more than 4 300 digits
        raise ParseError("report holds an integer too long to decode") from None
    chosen = report.get("chosen") if isinstance(report, dict) else None
    if not isinstance(chosen, list) or not all(type(i) is int for i in chosen):
        raise ParseError("report must be a JSON object whose 'chosen' is a list of integers")
    if not all(type(report.get(key)) is int for key in ("covered", "uncovered")):
        raise ParseError("report's 'covered' and 'uncovered' must be integers")
    picked: set[int] = set()
    for one_based in chosen:
        i = one_based - 1
        if not 0 <= i < m:
            print(f"mismatch: solution names set {one_based}, instance has m={m}", file=sys.stderr)
            return 2
        if i in picked:
            print(f"mismatch: set {one_based} listed twice", file=sys.stderr)
            return 2
        picked.add(i)
    if len(picked) > min(k, m):
        print(f"mismatch: {len(picked)} sets chosen, budget allows {min(k, m)}", file=sys.stderr)
        return 2
    covered = recount(picked)
    if covered != report.get("covered") or n - covered != report.get("uncovered"):
        print(
            f"mismatch: recounted covered={covered} uncovered={n - covered}, "
            f"report says covered={report.get('covered')} uncovered={report.get('uncovered')}",
            file=sys.stderr,
        )
        return 2
    print(f"ok: {len(picked)} sets cover {covered}/{n} elements")
    return 0


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, help="target approximation ratio")
    parser.add_argument("--epsilon", type=float, help="allowed failure probability")
    parser.add_argument("--x", type=int, help="hybrid split parameter")
    parser.add_argument("--p-bound", dest="p_bound", type=int, help="frequency bound (default: observed maximum)")
    parser.add_argument("--alpha", type=float, help="frequency density floor p_min/m")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--with-opt", dest="with_opt", action="store_true", help="also compute the exact optimum")
    parser.add_argument("--ceiling", type=int, default=DEFAULT_CEILING, help="subset enumeration ceiling")


class _Parser(argparse.ArgumentParser):
    """Refuses with ``ValueError``, which ``main`` prints as one ``error:``
    line, where argparse would print the usage text; subparsers take this
    class from their parent."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxcover",
        description="Coverage maximization solvers, instance generators, and guarantee curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    solve.add_argument("--alg", required=True, choices=tuple(SOLVERS))
    solve.add_argument("--in", dest="infile", required=True, help="instance, approval, or graph document")
    solve.add_argument("--out", help="report path (default: stdout)")
    _add_solver_flags(solve)
    solve.set_defaults(handler="run_solve")

    generate = sub.add_parser("generate", help="write an instance document")
    generate.add_argument("--family", required=True, choices=("random", "tight-greedy", "tight-fpt", "graph"))
    generate.add_argument("--n", type=int, help="universe size (random)")
    generate.add_argument("--m", type=int, help="set count (random, tight-greedy)")
    generate.add_argument("--k", type=int, help="budget")
    generate.add_argument("--p", type=int, help="frequency parameter (tight families)")
    generate.add_argument("--p-max", dest="p_max", type=int, help="frequency cap (random)")
    generate.add_argument("--beta", type=float, help="target ratio (tight-fpt)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--in", dest="infile", help="graph document (family graph)")
    generate.add_argument("--out", help="output path (default: stdout)")
    generate.set_defaults(handler="run_generate")

    compare = sub.add_parser("compare", help="run several algorithms on one instance, emit CSV")
    compare.add_argument("--algs", required=True, help="comma separated algorithm list")
    compare.add_argument("--in", dest="infile", required=True)
    compare.add_argument("--out", help="CSV path (default: stdout)")
    _add_solver_flags(compare)
    compare.set_defaults(handler="run_compare")

    curves = sub.add_parser("curves", help="emit the guarantee-curve comparison CSV")
    curves.add_argument("--k", type=int, default=1, help="budget; the curves depend only on x/k")
    curves.add_argument("--beta-a", dest="beta_a", type=float, default=0.75)
    curves.add_argument("--grid", type=int, default=101)
    curves.add_argument("--alg5-form", dest="alg5_form", choices=("maxcover", "vertexcover"), default="vertexcover")
    curves.add_argument("--out", help="CSV path (default: stdout)")
    curves.set_defaults(handler="run_curves_cmd")

    verify = sub.add_parser("verify", help="recount a report against an instance")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--sol", required=True, help="JSON report to check")
    verify.set_defaults(handler="run_verify")

    # A word after a flag ('-inf', '-1,greedy', '-r.json') is the flag's value
    # unless it names one of the subcommand's options: argparse asks this
    # matcher only about a word that names none. It is set last, since argparse
    # also asks it about each option name as the option is added.
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile("")
    return parser


# The parser ``main`` builds on its first call and reuses: building one takes
# about ten times as long as a parse.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return globals()[args.handler](args)
    except (ParseError, UnicodeDecodeError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, EnumerationCeilingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
