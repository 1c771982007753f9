"""Command line surface.

Exit codes: 0 pass, 1 identity failure (or a NO verdict), 2 resource budget
exceeded, 3 input error.  Every run is fully determined by its flags; with
``--json`` all reports are machine readable JSON, one object per line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import characteristics as ch
from . import cohomology, linalg, recognizers
from .complexes import Complex, Simplex, SimplexSubset, closure
from .errors import DomainError, HigherCharError, InputError, ResourceBudgetError
from .files import format_facets, load_complex
from .generators import GeneratorSpec, SplitMix64, generate
from .product import topological_product
from .topology import OpenSet, barycentric, star

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


def _emit(obj: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj))
    else:
        print(" ".join(f"{k}={v}" for k, v in obj.items()))


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
        return SimplexSubset(g, g.simplices, _trusted=True)
    if token == "none":
        return SimplexSubset(g, (), _trusted=True)
    if token.startswith("star:"):
        members: set = set()
        for tok in token[5:].split(","):
            members |= set(star(g, _parse_simplex_token(tok)).members)
        return OpenSet(g, members, _trusted=True)
    if token.startswith("core:"):
        members = set()
        for tok in token[5:].split(","):
            x = _parse_simplex_token(tok)
            if x not in g:
                raise DomainError(f"{x!r} is not a simplex of the complex")
            members |= set(closure([x]).simplices)
        return SimplexSubset(g, members, _trusted=True)
    raise InputError(f"bad set token {token!r}; expected all, none, star:... or core:...")


def random_open_set(g: Complex, rng: SplitMix64) -> OpenSet:
    """Union of the stars of a random sub-collection of simplices."""
    n = len(g)
    if n == 0:
        return OpenSet(g, (), _trusted=True)
    idx = list(range(n))
    t = rng.below(n + 1)
    for i in range(t):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    members: set = set()
    for i in idx[:t]:
        members |= set(star(g, g.simplices[i]).members)
    return OpenSet(g, members, _trusted=True)


def cmd_info(args) -> int:
    g = load_complex(args.complex)
    out = {
        "f_vector": list(g.f_vector),
        "dim": g.dim,
        "n_simplices": len(g),
        "w1": ch.w_m(g, 1),
        "w2": ch.w_m(g, 2),
        "w3": ch.w_m(g, 3),
        "fermi": ch.fermi(g),
    }
    _emit(out, args.json)
    return 0


def _verify_reports(args, g: Complex) -> list[ch.EnergyReport]:
    suite, m, k = args.suite, args.m, args.k
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
        rng = SplitMix64(args.seed)
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
        t0 = time.perf_counter()
        total = passed = 0
        import itertools

        for X in itertools.product(g.simplices, repeat=k):
            total += 1
            if ch.local_valuation_check(g, X, m).passed:
                passed += 1
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("local-valuation", m, k, total, passed,
                                total == passed, len(g), elapsed)]
    if suite == "green-inverse":
        t0 = time.perf_counter()
        n = len(g)
        prod = linalg.mat_mul(linalg.connection_matrix(g), linalg.green_matrix(g))
        mismatches = sum(
            1 for i in range(n) for j in range(n)
            if prod[i][j] != (1 if i == j else 0)
        )
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("green-inverse", m, k, 0, mismatches,
                                mismatches == 0, n, elapsed)]
    if suite == "det-fermi":
        t0 = time.perf_counter()
        lhs = linalg.det(linalg.connection_matrix(g))
        rhs = ch.fermi(g)
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("det-fermi", m, k, lhs, rhs, lhs == rhs, len(g), elapsed)]
    if suite == "barycentric":
        t0 = time.perf_counter()
        lhs = ch.w_m(g, m)
        rhs = ch.w_m(barycentric(g), m)
        elapsed = (time.perf_counter() - t0) * 1000.0
        return [ch.EnergyReport("barycentric", m, k, lhs, rhs, lhs == rhs, len(g), elapsed)]
    if suite == "product":
        right = load_complex(args.right) if args.right else generate(GeneratorSpec("path3"))
        t0 = time.perf_counter()
        gh = topological_product(g, right)
        lhs = ch.w_m(gh, m)
        rhs = ch.w_m(g, m) * ch.w_m(right, m)
        elapsed = (time.perf_counter() - t0) * 1000.0
        rep1 = ch.EnergyReport("product", m, k, lhs, rhs, lhs == rhs, len(gh), elapsed)
        t0 = time.perf_counter()
        one = closure([[1]])
        g1 = barycentric(g)
        gdot1 = topological_product(g, one)
        lhs2 = ch.w_m(g1, m)
        rhs2 = ch.w_m(gdot1, m)
        ok = lhs2 == rhs2 and g1.f_vector == gdot1.f_vector
        elapsed = (time.perf_counter() - t0) * 1000.0
        rep2 = ch.EnergyReport("product-refinement", m, k, lhs2, rhs2, ok,
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
    counter_naive: dict = {}
    t0 = time.perf_counter()
    value_naive = ch.w_m_naive(g, m, assume_closed=True, op_counter=counter_naive)
    ms_naive = (time.perf_counter() - t0) * 1000.0
    counter_local: dict = {}
    t0 = time.perf_counter()
    # local path: sum of weight(z) * w_m(U(z)), each star enumerated literally
    value_local = sum(
        ch._weight_of_bits(z) * ch._wm_naive_bits(list(mem), m, op_counter=counter_local)
        for z, mem in ch._stars_of(g).items()
    )
    ms_local = (time.perf_counter() - t0) * 1000.0
    out = {
        "m": m,
        "value_naive": value_naive,
        "value_local": value_local,
        "equal": value_naive == value_local,
        "ops_naive": counter_naive.get("tuples", 0),
        "ops_local": counter_local.get("tuples", 0),
        "ms_naive": round(ms_naive, 3),
        "ms_local": round(ms_local, 3),
        "speedup_time": round(ms_naive / ms_local, 3) if ms_local > 0 else None,
        "speedup_ops": (
            round(counter_naive.get("tuples", 0) / counter_local["tuples"], 3)
            if counter_local.get("tuples") else None
        ),
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
    spec = GeneratorSpec(kind=args.kind, n=args.n, edges=args.edges, d=args.d,
                         seed=args.seed)
    return _write_facets(generate(spec), args.output)


def cmd_product(args) -> int:
    left = load_complex(args.left)
    right = load_complex(args.right)
    return _write_facets(topological_product(left, right), args.output)


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
    if which == "connection":
        print(json.dumps(linalg.connection_matrix(g)))
    elif which == "green":
        print(json.dumps(linalg.green_matrix(g)))
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="higherchar",
        description="Higher characteristics of finite simplicial complexes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="f-vector, dimension and characteristics")
    sp.add_argument("complex")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("verify", help="run one identity suite")
    sp.add_argument("suite", choices=VERIFY_SUITES)
    sp.add_argument("complex")
    sp.add_argument("-m", type=int, default=1)
    sp.add_argument("-k", type=int, default=1)
    sp.add_argument("--pairs", type=int, default=200,
                    help="random open pairs for the valuation suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--set-a", default=None, help="explicit first set token")
    sp.add_argument("--set-b", default=None, help="explicit second set token")
    sp.add_argument("--allow-closed", action="store_true",
                    help="evaluate the valuation identity on non-open sets")
    sp.add_argument("--right", default=None, help="second complex for the product suite")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and ignored")
    sp.add_argument("--budget", type=int, default=ch.DEFAULT_OP_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="naive global sum vs local star sums")
    sp.add_argument("complex")
    sp.add_argument("-m", type=int, choices=(2, 3), required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("generate", help="write a deterministic test complex")
    sp.add_argument("--kind", required=True,
                    choices=("simplex", "cycle", "cross_polytope", "octahedron",
                             "star", "path3", "random_whitney"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--edges", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("product", help="topological product of two complexes")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_product)

    sp = sub.add_parser("betti", help="Betti vector of an open or closed support")
    sp.add_argument("complex")
    sp.add_argument("--support", default="all",
                    help="all | none | star:LIST | core:LIST")
    sp.add_argument("--relative", action="store_true",
                    help="use the ambient-restriction route (open supports)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("recognize", help="run a recursive recognizer")
    sp.add_argument("complex")
    sp.add_argument("--what", required=True,
                    choices=("contractible", "sphere", "ball", "manifold",
                             "manifold-with-boundary", "dehn-sommerville"))
    sp.add_argument("--d", type=int, default=0)
    sp.add_argument("--budget", type=int, default=recognizers.DEFAULT_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_recognize)

    sp = sub.add_parser("matrix", help="dump exact matrices as JSON")
    sp.add_argument("complex")
    sp.add_argument("--which", required=True,
                    choices=("connection", "green", "charpoly-connection",
                             "charpoly-green", "isospectral"))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_matrix)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceBudgetError as exc:
        note = f" (partial: {exc.partial})" if exc.partial is not None else ""
        print(f"resource budget exceeded: {exc}{note}", file=sys.stderr)
        return 2
    except (HigherCharError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
