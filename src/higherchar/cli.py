"""Command line surface.

Exit codes: 0 pass, 1 identity failure (or a NO verdict), 2 resource budget
exceeded (also on MemoryError, RecursionError and a result with more digits
than the interpreter converts to text), 3 input error, a usage error
included.  Every run is fully determined by its flags; with ``--json`` all
reports are machine readable JSON, one object per line.

``main(argv)`` may be called many times in one process.  Each subcommand's
parser, and the full parser, are built on first use and kept for later calls
(``functools.cache``; ``cache_clear()`` drops them); a parser holds no input,
so nothing read by one call reaches the next.  ``main`` looks up the handler
``cmd_<subcommand>`` when it dispatches, so a handler replaced in the module
is the one called.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import characteristics as ch
from . import cohomology, generators, linalg, product, recognizers, topology
from .complexes import Complex, Simplex, SimplexSubset
from .errors import (DEFAULT_CALL_BUDGET, DEFAULT_OP_BUDGET, HigherCharError, InputError,
                     ResourceBudgetError, charge)
from .files import check_simplex_count, format_facets, load_complex

VERIFY_SUITES = (
    "energy",
    "energy-ball",
    "sphere",
    "dual-sphere",
    "valuation",
    "local-valuation",
    "green-inverse",
    "det-fermi",
    "barycentric",
    "product",
)


class _DigitLimitError(Exception):
    """An output integer has more digits than the interpreter converts to text."""


def _emit(obj: dict, as_json: bool) -> None:
    try:
        line = json.dumps(obj) if as_json else " ".join(f"{k}={v}" for k, v in obj.items())
    except ValueError as exc:  # int-to-str over the digit limit, the one a report can raise
        raise _DigitLimitError(
            f"a result has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's int-to-str limit"
        ) from exc
    print(line)


def _rows_json(rows: list[dict[int, int]], n: int) -> str:
    """The text ``json.dumps`` gives the dense n-column matrix of the sparse
    ``rows`` (column -> entry), written from the nonzeros alone."""
    zeros = ["0"] * n
    texts = []
    for row in rows:
        cells = zeros.copy()
        for j, x in row.items():
            cells[j] = str(x)
        texts.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(texts) + "]"


def _parse_simplex_token(tok: str) -> Simplex:
    try:
        return Simplex(int(p) for p in tok.split("-"))
    except ValueError as exc:
        raise InputError(f"bad simplex token {tok!r}; use e.g. 3 or 1-2") from exc


def parse_set_token(g: Complex, token: str) -> SimplexSubset:
    """all | none | star:LIST | core:LIST with LIST = comma separated simplices,
    each simplex written as hyphen-joined vertex ids (star of a vertex: star:3;
    closure of an edge: core:1-2)."""
    if token == "all":
        return SimplexSubset._of_bits(g, g.member_bits)
    if token == "none":
        return SimplexSubset._of_bits(g, ())
    if token.startswith("star:"):
        return topology.open_hull(g, map(_parse_simplex_token, token[5:].split(",")))
    if token.startswith("core:"):
        bits: set[int] = set()
        for tok in token[5:].split(","):
            bits |= topology.core(g, _parse_simplex_token(tok)).member_bits
        return SimplexSubset._of_bits(g, bits)
    raise InputError(f"bad set token {token!r}; expected all, none, star:... or core:...")


def random_open_set(g: Complex, rng: generators.SplitMix64) -> topology.OpenSet:
    """Union of the stars of a random sub-collection of simplices."""
    n = len(g)
    idx = list(range(n))
    t = rng.below(n + 1) if n else 0
    for i in range(t):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    masks = g.masks
    return topology._open_hull_of_masks(g, {masks[i] for i in idx[:t]})


def cmd_info(args) -> int:
    g = load_complex(args.complex)
    terms = ch._terms(g)  # one N(z) pass for the three characteristics
    out = {
        "f_vector": list(g.f_vector),
        "dim": g.dim,
        "n_simplices": len(g),
        "w1": ch._eval_terms(terms, 1),
        "w2": ch._eval_terms(terms, 2),
        "w3": ch._eval_terms(terms, 3),
        "fermi": ch.fermi(g),
    }
    _emit(out, args.json)
    return 0


def _check_refinement(g: Complex) -> None:
    """Refuse a refinement over the cap before building it; G * 1 is its size."""
    check_simplex_count("the simplex count of the refinement",
                        product.product_simplex_count(g, product.POINT))


def _verify_reports(args, g: Complex) -> list[ch.EnergyReport]:
    suite, m, k = args.suite, args.m, args.k
    for flag, value in (("-m", m), ("-k", k), ("--pairs", args.pairs)):
        if value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")
    if suite in ("energy", "energy-ball"):
        variant = "star" if suite == "energy" else "ball"
        return [ch.energy_sum(g, m, k, variant=variant, op_budget=args.budget)]
    if suite == "sphere":
        return [ch.sphere_sum(g, m, k, op_budget=args.budget)]
    if suite == "dual-sphere":
        return [ch.dual_sphere_sum(g, m, k, op_budget=args.budget)]
    if suite == "valuation":
        if (args.set_a is None) != (args.set_b is None):
            raise InputError("give both --set-a and --set-b, or neither")
        if args.set_a is not None:
            a = parse_set_token(g, args.set_a)
            b = parse_set_token(g, args.set_b)
            return [ch.valuation_check(a, b, m, allow_closed=args.allow_closed)]
        # 8 * sum 2^|y| per pair bounds its four subsets, each evaluated by
        # two passes of sum |y| updates over G's face table (``_subset_terms``)
        steps = 8 * sum(1 << y.bit_count() for y in g.member_bits)
        charge(f"valuation of {args.pairs} random open pairs on {len(g)} simplices",
               steps * args.pairs, args.budget, "subset steps")
        rng = generators.SplitMix64(args.seed)
        t0 = time.perf_counter()
        passed = 0
        for _ in range(args.pairs):
            u = random_open_set(g, rng)
            v = random_open_set(g, rng)
            if ch.valuation_check(u, v, m).passed:
                passed += 1
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("valuation", m, 2, args.pairs, passed,
                                passed == args.pairs, len(g), elapsed)]
    if suite == "local-valuation":
        return [ch.local_valuation_sum(g, m, k, op_budget=args.budget)]
    if suite == "green-inverse":
        t0 = time.perf_counter()
        n = len(g)
        prod = linalg._mat_mul_of_rows(g, linalg._connection_rows(g), linalg._green_rows(g),
                                       args.budget)
        # entries of L * g that differ from the identity, from its sparse rows
        mismatches = sum(
            sum(1 for j, x in row.items() if x != (i == j)) + (i not in row)
            for i, row in enumerate(prod)
        )
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("green-inverse", m, k, 0, mismatches,
                                mismatches == 0, n, elapsed)]
    if suite == "det-fermi":
        t0 = time.perf_counter()
        lhs = linalg._det_of_rows(g, linalg._connection_rows(g), args.budget)
        rhs = ch.fermi(g)
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("det-fermi", m, k, lhs, rhs, lhs == rhs, len(g), elapsed)]
    if suite == "barycentric":
        _check_refinement(g)
        t0 = time.perf_counter()
        lhs = ch.w_m(g, m, op_budget=args.budget)
        rhs = ch.w_m(topology.barycentric(g), m, op_budget=args.budget)
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("barycentric", m, k, lhs, rhs, lhs == rhs, len(g), elapsed)]
    if suite == "product":
        right = load_complex(args.right) if args.right else generators.path3()
        check_simplex_count("the simplex count of the product",
                            product.product_simplex_count(g, right))
        _check_refinement(g)
        t0 = time.perf_counter()
        gh = product.topological_product(g, right)
        wg = ch.w_m(g, m, op_budget=args.budget)
        lhs = ch.w_m(gh, m, op_budget=args.budget)
        rhs = wg * ch.w_m(right, m, op_budget=args.budget)
        elapsed = (time.perf_counter() - t0) * 1000.0
        rep1 = ch.EnergyReport("product", m, k, lhs, rhs, lhs == rhs, len(gh), elapsed)
        # the refinement G * 1 keeps w_m: lhs is w_m(G) from above
        t0 = time.perf_counter()
        gdot1 = product.topological_product(g, product.POINT)
        rhs2 = ch.w_m(gdot1, m, op_budget=args.budget)
        elapsed = (time.perf_counter() - t0) * 1000.0
        rep2 = ch.EnergyReport("product-refinement", m, k, wg, rhs2, wg == rhs2,
                               len(gdot1), elapsed)
        return [rep1, rep2]
    raise InputError(f"unknown suite {args.suite!r}")


def cmd_verify(args) -> int:
    g = load_complex(args.complex)
    reports = _verify_reports(args, g)
    for rep in reports:
        _emit(rep.to_dict(), args.json)
    return 0 if all(r.passed for r in reports) else 1


def cmd_bench(args) -> int:
    g = load_complex(args.complex)
    m = args.m
    # the nominal tuple counts, |G|^m and the sum of |U(z)|^m; the local path
    # is charged here, the naive one by w_m_naive
    stars = ch._stars_of(g)
    ops_naive = len(g) ** m
    ops_local = sum(len(mem) ** m for mem in stars.values())
    charge(f"local w_{m} of {len(stars)} stars", ops_local, args.budget, "tuples")
    t0 = time.perf_counter()
    value_naive = ch.w_m_naive(g, m, assume_closed=True, op_budget=args.budget)
    ms_naive = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    # local path: sum of weight(z) * w_m(U(z)), each star enumerated literally
    value_local = sum(
        ch._weight_of_bits(z) * ch._wm_naive_bits(list(mem), m) for z, mem in stars.items()
    )
    ms_local = (time.perf_counter() - t0) * 1000.0
    out = {
        "m": m,
        "value_naive": value_naive,
        "value_local": value_local,
        "equal": value_naive == value_local,
        "ops_naive": ops_naive,
        "ops_local": ops_local,
        "ms_naive": round(ms_naive, 3),
        "ms_local": round(ms_local, 3),
        "speedup_time": round(ms_naive / ms_local, 3) if ms_local > 0 else None,
        "speedup_ops": round(ops_naive / ops_local, 3) if ops_local else None,
    }
    _emit(out, args.json)
    return 0 if value_naive == value_local else 1


def _write_facets(g: Complex, output) -> int:
    """Write g in facet format to the file ``output``, or to stdout."""
    text = format_facets(g)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_generate(args) -> int:
    spec = generators.GeneratorSpec(kind=args.kind, n=args.n, edges=args.edges, d=args.d,
                                    seed=args.seed)
    return _write_facets(generators.generate(spec), args.output)


def cmd_product(args) -> int:
    left = load_complex(args.left)
    right = load_complex(args.right)
    check_simplex_count("the simplex count of the product",
                        product.product_simplex_count(left, right))
    return _write_facets(product.topological_product(left, right), args.output)


def cmd_betti(args) -> int:
    g = load_complex(args.complex)
    support = parse_set_token(g, args.support)
    if args.relative:
        vec = cohomology.betti_relative(support)
    else:
        vec = cohomology.betti(support)
    if args.json:
        print(json.dumps(list(vec)))
    else:
        print(" ".join(map(str, vec)) if vec else "(empty)")
    return 0


def cmd_recognize(args) -> int:
    g = load_complex(args.complex)
    what = args.what
    if what == "contractible":
        verdict = recognizers.is_contractible(g, budget=args.budget)
    elif what == "sphere":
        verdict = recognizers.is_sphere(g, args.d, budget=args.budget)
    elif what == "ball":
        verdict = recognizers.is_ball(g, args.d, budget=args.budget)
    elif what == "manifold":
        verdict = recognizers.is_manifold(g, args.d, budget=args.budget)
    elif what == "manifold-with-boundary":
        verdict = recognizers.is_manifold_with_boundary(g, args.d, budget=args.budget)
    elif what == "dehn-sommerville":
        verdict = recognizers.is_dehn_sommerville(g, args.d, budget=args.budget)
    else:
        raise InputError(f"unknown recognizer {what!r}")
    out = {
        "what": what,
        "d": args.d,
        "verdict": verdict.status.value,
        "certificate": list(verdict.certificate),
        "calls_used": verdict.calls_used,
    }
    _emit(out, args.json)
    if verdict.is_yes:
        return 0
    return 2 if verdict.is_unknown else 1


def cmd_matrix(args) -> int:
    g = load_complex(args.complex)
    which = args.which
    if which.startswith("charpoly") or which == "isospectral":
        # n^4 per polynomial is kept as the refusal rule (from 178 simplices,
        # 150 for isospectral), though the modular Hessenberg route costs
        # about n^3 per prime
        n = len(g)
        charge(f"{which} of {n} simplices", (2 if which == "isospectral" else 1) * n**4,
               DEFAULT_OP_BUDGET)
    # L and g are printed from their sparse rows; the charpoly kinds need
    # the dense matrices of the public functions
    if which == "connection":
        print(_rows_json(linalg._connection_rows(g), len(g)))
    elif which == "green":
        print(_rows_json(linalg._green_rows(g), len(g)))
    elif which == "charpoly-connection":
        print(json.dumps(linalg.char_poly(linalg.connection_matrix(g))))
    elif which == "charpoly-green":
        print(json.dumps(linalg.char_poly(linalg.green_matrix(g))))
    elif which == "isospectral":
        pl = linalg.char_poly(linalg.connection_matrix(g))
        pg = linalg.char_poly(linalg.green_matrix(g))
        # informational comparison only; equality is not asserted anywhere
        print(json.dumps({"charpoly_connection": pl, "charpoly_green": pg,
                          "equal": pl == pg}))
    else:
        raise InputError(f"unknown matrix kind {which!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the input-error code;
    exit 2 means a resource budget was exceeded."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _arg(*flags, **kwargs):
    return flags, kwargs


_COMPLEX = _arg("complex")
_JSON = _arg("--json", action="store_true")
_OUTPUT = _arg("-o", "--output", default=None)

# name -> (help, arguments): the one spec of each subcommand, read by both the
# full parser and the one-command parser; the handler of ``name`` is cmd_<name>.
COMMANDS = {
    "info": ("f-vector, dimension and characteristics", (_COMPLEX, _JSON)),
    "verify": ("run one identity suite", (
        _arg("suite", choices=VERIFY_SUITES),
        _COMPLEX,
        _arg("-m", type=int, default=1),
        _arg("-k", type=int, default=1),
        _arg("--pairs", type=int, default=200,
             help="random open pairs for the valuation suite"),
        _arg("--seed", type=int, default=0),
        _arg("--set-a", default=None, help="explicit first set token"),
        _arg("--set-b", default=None, help="explicit second set token"),
        _arg("--allow-closed", action="store_true",
             help="evaluate the valuation identity on non-open sets"),
        _arg("--right", default=None, help="second complex for the product suite"),
        _arg("--budget", type=int, default=DEFAULT_OP_BUDGET,
             help="operation budget; a suite whose cost is over it exits 2"),
        _JSON,
    )),
    "bench": ("naive global sum vs local star sums", (
        _COMPLEX,
        _arg("-m", type=int, choices=(2, 3), required=True),
        _arg("--budget", type=int, default=DEFAULT_OP_BUDGET,
             help="operation budget; a path whose tuple count is over it exits 2"),
        _JSON,
    )),
    "generate": ("write a deterministic test complex", (
        _arg("--kind", required=True,
             choices=("simplex", "cycle", "cross_polytope", "octahedron",
                      "star", "path3", "random_whitney")),
        _arg("--n", type=int, default=None),
        _arg("--edges", type=int, default=None),
        _arg("--d", type=int, default=None),
        _arg("--seed", type=int, default=None),
        _OUTPUT,
    )),
    "product": ("topological product of two complexes", (
        _arg("left"),
        _arg("right"),
        _OUTPUT,
    )),
    "betti": ("Betti vector of an open or closed support", (
        _COMPLEX,
        _arg("--support", default="all", help="all | none | star:LIST | core:LIST"),
        _arg("--relative", action="store_true",
             help="require an open support; exit 3 on any other"),
        _JSON,
    )),
    "recognize": ("run a recursive recognizer", (
        _COMPLEX,
        _arg("--what", required=True,
             choices=("contractible", "sphere", "ball", "manifold",
                      "manifold-with-boundary", "dehn-sommerville")),
        _arg("--d", type=int, default=0),
        _arg("--budget", type=int, default=DEFAULT_CALL_BUDGET),
        _JSON,
    )),
    "matrix": ("dump exact matrices as JSON", (
        _COMPLEX,
        _arg("--which", required=True,
             choices=("connection", "green", "charpoly-connection",
                      "charpoly-green", "isospectral")),
        _JSON,
    )),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flags, kwargs in COMMANDS[name][1]:
        p.add_argument(*flags, **kwargs)
    # ``fn`` is the handler as the parser was built, kept for callers of
    # parse_args; main dispatches on ``command`` to the module's cmd_<name>
    p.set_defaults(fn=globals()[f"cmd_{name}"], command=name)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and returned
    by the later ones; do not modify it."""
    p = _Parser(
        prog="higherchar",
        description="Higher characteristics of finite simplicial complexes",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return p


@functools.cache
def build_command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone, with the prog, usage, help and
    errors of its subparser in ``build_parser()``.  Built on the first call
    for ``name`` and returned by the later ones; do not modify it."""
    return _add_command(_Parser(prog=f"higherchar {name}"), name)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the subcommand it names alone, built
    in a fraction of the time of every subcommand's and only once per process.
    Anything else (no subcommand, ``-h``, an unknown name) and arguments that
    subcommand does not recognise go to the full parser, whose messages name
    ``higherchar``.  The Namespace names the subcommand in ``command``."""
    if argv and argv[0] in COMMANDS:
        args, unknown = build_command_parser(argv[0]).parse_known_args(argv[1:])
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ResourceBudgetError as exc:
        note = f" (partial: {exc.partial})" if exc.partial is not None else ""
        print(f"resource budget exceeded: {exc}{note}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource limit exceeded: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        print("resource limit exceeded: recursion too deep", file=sys.stderr)
        return 2
    except _DigitLimitError as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (HigherCharError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
