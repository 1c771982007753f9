"""Record the expected answers of every op any workload seed can select.

Values come from the package's literal oracles, not from the fast paths the
benchmark times: ``w_m_naive`` for the characteristics,
``connection_matrix_via_cores`` for L, the exact inverse of L for the Green
matrix (the paper's duality), ``topological_product_via_ring`` for products.
Betti vectors are recorded from ``cohomology.betti`` and cross-checked by
Euler-Poincare against w_1 of the support; recognizer verdicts of the
complexes whose type the paper fixes (spheres, balls, cones) are asserted.

    python3 perfbench/make_answers.py [--only energy|duality|corpus|smoke]

Rewrites perfbench/answers.json in place, keeping entries it did not touch.
The w_3 oracle is cubic, so the energy pool takes the longest.

Matrices, generated complexes and products are recorded as digests of the
canonical forms in ``workloads``, so they pin the answer but not the order
in which the package lists simplices or facets.  One convention stays pinned:
the CLI numbers the product vertex of (i-th simplex of G, j-th simplex of H)
as i * |H| + j, and the harness decodes its output that way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from higherchar import characteristics as ch  # noqa: E402
from higherchar import cohomology, linalg, recognizers  # noqa: E402
from higherchar.complexes import closure  # noqa: E402
from higherchar.files import format_facets  # noqa: E402
from higherchar.generators import GeneratorSpec, generate, path3  # noqa: E402
from higherchar.product import ring_from_complex, topological_product_via_ring  # noqa: E402
from higherchar.topology import core, star  # noqa: E402

ANSWERS = HERE / "answers.json"


def euler(members) -> int:
    return sum(s.weight for s in members)


def alternating(vec) -> int:
    return sum((-1) ** i * b for i, b in enumerate(vec))


def basic(g) -> dict:
    fermi = 1
    for s in g.simplices:
        fermi *= -1 if s.dim % 2 else 1
    return {
        "n": len(g),
        "f_vector": list(g.f_vector),
        "dim": g.dim,
        "w": [ch.w_m_naive(g, m, assume_closed=True, op_budget=None) for m in (1, 2, 3)],
        "fermi": fermi,
    }


def duality_fields(g, a: dict) -> None:
    b = list(cohomology.betti(g))
    assert alternating(b) == a["w"][0], "Euler-Poincare fails for the whole complex"
    a["betti"] = b
    stars = {}
    for v in g.vertex_ids:
        u = star(g, [v])
        vec = list(cohomology.betti(u))
        assert vec == list(cohomology.betti_relative(u)), f"two routes disagree at star:{v}"
        assert alternating(vec) == euler(u.members), f"Euler-Poincare fails at star:{v}"
        stars[str(v)] = vec
    a["star_betti"] = stars
    facets = ["-".join(map(str, f.vertices)) for f in g.facets()]
    for f in facets:
        x = [int(t) for t in f.split("-")]
        assert list(cohomology.betti(core(g, x))) == [1] + [0] * (len(x) - 1)
    a["facets"] = facets
    conn = linalg.connection_matrix_via_cores(g)
    green = linalg.inverse(conn)
    assert all(isinstance(x, int) for row in green for x in row), "L is not unimodular"
    keys = wl.simplex_keys(g)
    a["matrix"] = {"connection": wl.digest_json(wl.canonical_matrix(conn, keys)),
                   "green": wl.digest_json(wl.canonical_matrix(green, keys))}
    if len(g) <= wl.CHARPOLY_MAX:
        a["matrix"]["charpoly-connection"] = wl.digest_json(linalg.char_poly(conn))
        a["matrix"]["charpoly-green"] = wl.digest_json(linalg.char_poly(green))


def product_oracle(g, h) -> list:
    """G * H by the ring route, each vertex labelled by its pair of simplices."""
    ring = topological_product_via_ring(g, h)
    # the ring route's vertex order: monomials by degree, then by variable names
    monos = sorted((ma | mb for ma in ring_from_complex(g, "a")
                    for mb in ring_from_complex(h, "b")),
                   key=lambda m: (len(m), tuple(sorted(m))))
    pair = []
    for m in monos:
        x = sorted(int(t[1:]) for t in m if t[0] == "a")
        y = sorted(int(t[1:]) for t in m if t[0] == "b")
        pair.append([x, y])
    return sorted(sorted(pair[v] for v in f.vertices) for f in ring.facets())


def paper_verdicts(recipe: str) -> dict | None:
    """Verdicts fixed by the type of the complex, or None when not fixed."""
    sphere = {"sphere": "yes", "manifold": "yes", "dehn-sommerville": "yes",
              "ball": "no", "contractible": "no"}
    while recipe.startswith("bary:"):  # refinement keeps the type
        recipe = recipe[len("bary:"):]
    head = recipe.split(":")[0]
    if head in ("cp", "cyc"):
        return sphere
    if head == "sx":
        return {"sphere": "no", "manifold": "no", "dehn-sommerville": "no",
                "ball": "yes", "contractible": "yes"}
    if head == "star" and int(recipe.split(":")[1]) >= 4:
        # a cone, and its center has three or more neighbours
        return {"sphere": "no", "manifold": "no", "dehn-sommerville": "no",
                "ball": "no", "contractible": "yes"}
    return None


def corpus_fields(recipe: str, g, a: dict, heavy: bool) -> None:
    d = g.dim
    fns = {"sphere": recognizers.is_sphere, "ball": recognizers.is_ball,
           "manifold": recognizers.is_manifold,
           "dehn-sommerville": recognizers.is_dehn_sommerville,
           "contractible": lambda h, dd: recognizers.is_contractible(h)}
    whats = ("sphere", "contractible") if heavy else wl.RECOGNIZERS
    verdicts = {w: fns[w](g, d).status.value for w in whats}
    assert "unknown" not in verdicts.values(), f"undecided verdict on {recipe}"
    expected = paper_verdicts(recipe)
    if expected is not None:
        for w in whats:
            assert verdicts[w] == expected[w], f"{recipe}: {w} is {verdicts[w]}"
    a["verdicts"] = verdicts
    if heavy or len(g) > wl.PRODUCT_MAX:
        return
    one = closure([[1]])
    refined = topological_product_via_ring(g, one)
    a["bary_n"] = len(refined)
    a["path3_product_n"] = len(topological_product_via_ring(g, path3()))
    # refinement invariance, checked where the cubic oracle stays cheap
    assert [ch.w_m_naive(refined, m, op_budget=None) for m in (1, 2)] == a["w"][:2]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("energy", "duality", "corpus", "smoke"))
    args = ap.parse_args()
    answers = json.loads(ANSWERS.read_text()) if ANSWERS.exists() else {}
    cx = answers.setdefault("complexes", {})
    gen_digests = answers.setdefault("generated", {})
    prod_digests = answers.setdefault("products", {})
    answers["path3_w"] = [ch.w_m_naive(path3(), m) for m in (1, 2, 3)]
    jobs = []
    for smoke in (True, False):
        for workload in ("corpus", "duality", "energy"):
            if args.only and args.only != ("smoke" if smoke else workload):
                continue
            jobs.append((workload, smoke) + wl.pool(workload, smoke))
    for workload, smoke, recipes, specs, prods in jobs:
        for recipe in sorted(recipes):
            t0 = time.perf_counter()
            g = wl.build(recipe)
            a = cx.get(recipe) or basic(g)
            if workload == "duality":
                duality_fields(g, a)
            elif workload == "corpus":
                heavy = recipe in wl.CORPUS_HEAVY
                if recipe not in wl.CORPUS_VALUATION:
                    corpus_fields(recipe, g, a, heavy)
            cx[recipe] = a
            print(f"{workload:8s} {recipe:18s} n={len(g):5d} "
                  f"{time.perf_counter() - t0:7.1f} s", flush=True)
            ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
        for spec in sorted(specs, key=wl.spec_key):
            kind, n, edges, d, seed = spec
            g = generate(GeneratorSpec(kind, n=n, edges=edges, d=d, seed=seed))
            gen_digests[wl.spec_key(spec)] = wl.digest_json(wl.canonical_facets(format_facets(g)))
        for left, right in sorted(prods):
            gh = product_oracle(wl.build(left), wl.build(right))
            prod_digests[f"{left}*{right}"] = wl.digest_json(gh)
        ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
