"""Seeded inputs, operation lists and expected answers of the workloads.

Every input complex is named by a recipe string that the package's own
generators turn into a complex:

    rw:N:E:S      random_whitney(N, E, S)
    cp:D          cross_polytope(D)
    cyc:N         cycle(N)
    sx:N          simplex_complex(N)
    star:N        star_complex(N)
    path3         path3()
    bary:R        barycentric refinement of recipe R

A workload runs a fixed list of complexes.  Its seed relabels the vertices
of each one by a seeded permutation, so that two seeds write different files
of the same complexes, and picks the per-op parameters (star vertex, core
simplex, generator spec).  The work of most ops does not depend on the labels;
recognizer searches, eliminations and random open sets follow the package's
simplex order, so a few ops cost up to four times more or less from seed
to seed.
Every answer is recorded in ``answers.json`` in the generators' own labels;
the harness maps vertex labels between the two.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

G1228 = "rw:40:300:1"
# random_whitney(30, 140, s) with 337..347 simplices
ENERGY_SMALL = ("rw:30:140:3", "rw:30:140:6", "rw:30:140:10")
# random_whitney(50, 420, 1), 1656 simplices.  It runs only info and the
# baseline op: its warm ops would otherwise form a cluster of their own right
# at the median op latency.
ENERGY_LARGE = "rw:50:420:1"
# random_whitney(30, 140, 3) with 341 and random_whitney(22, 70, 1) with 135
# simplices, then three fixed shapes
DUALITY_MAIN = ("rw:30:140:3", "rw:22:70:1", "cp:3", "bary:cp:2", "cp:2")
DUALITY_BETTI_ONLY = "bary:bary:cp:2"
# random_whitney(35, 170, 1), 400 simplices, for the valuation suite
CORPUS_VALUATION = "rw:35:170:1"
CORPUS_FULL = ("cp:1", "cp:2", "cp:3", "bary:cp:2", "cyc:5", "cyc:6", "cyc:7", "cyc:8",
               "sx:3", "sx:4", "star:4", "star:5", "star:6", "rw:12:30:1", "rw:12:30:2")
CORPUS_HEAVY = ("cp:4", "bary:bary:cp:2")
CORPUS_PRODUCTS = (("cyc:5", "cp:1"), ("star:4", "cp:1"))
# generator specs for the `generate` op: (kind, n, edges, d, seed)
GENERATE_RW = tuple(("random_whitney", 16, 40, None, s) for s in range(1, 9))
GENERATE_SHAPES = tuple(("cycle", n, None, None, None) for n in range(5, 13)) + tuple(
    ("cross_polytope", None, None, d, None) for d in (1, 2, 3)
)

SMOKE = {
    "energy": ("rw:9:18:1",),
    "duality": ("cp:1", "sx:3"),
    "corpus": ("cp:1", "cyc:5", "sx:3", "star:4"),
}

RECOGNIZERS = ("sphere", "ball", "manifold", "contractible", "dehn-sommerville")
# Op latencies are summarized over the distinct ops of a pass, so every
# workload runs at least 100 of them: the 90th percentile then has ten beyond it.
# duality: seeded star, relative star and core supports per complex.  With 6,
# the 118 ops put the 90th percentile at the twelfth slowest op, among
# matrix ops whose cost does not depend on the labelling; the eleventh is
# `betti all` of a random complex, whose elimination cost moves by a third
# with the labelling.
SUPPORTS_PER_KIND = 6
# random open pairs of the valuation op.  Their seed is fixed: the cost of a
# pair follows how many stars it unions, which that seed draws.
VALUATION_PAIRS = 25
VALUATION_SEED = 2302
CHARPOLY_MAX = 30        # char_poly is O(n^4) with growing integers
LOCAL_VALUATION_MAX = 30  # local-valuation walks |G|^2 configurations
PRODUCT_MAX = 70          # verify product builds G x path3 and G x 1


def build(recipe: str):
    """The complex a recipe names, built with the package's generators."""
    from higherchar import generators, topology

    head, _, rest = recipe.partition(":")
    if head == "bary":
        return topology.barycentric(build(rest))
    if head == "path3":
        return generators.path3()
    makers = {
        "rw": generators.random_whitney,
        "cp": generators.cross_polytope,
        "cyc": generators.cycle,
        "sx": generators.simplex_complex,
        "star": generators.star_complex,
    }
    return makers[head](*(int(p) for p in rest.split(":")))


def file_name(recipe: str) -> str:
    return recipe.replace(":", "_") + ".txt"


def relabelling(workload: str, seed: int, recipe: str, vertex_ids) -> dict:
    """The seeded permutation of a complex's vertex labels, old label -> new."""
    new = list(vertex_ids)
    random.Random(f"{workload}:{seed}:{recipe}").shuffle(new)
    return dict(zip(vertex_ids, new))


def relabel(g, perm: dict):
    """g with every vertex v renamed perm[v]."""
    from higherchar.complexes import closure

    return closure([perm[v] for v in f.vertices] for f in g.facets())


def spec_key(spec) -> str:
    return ":".join("-" if v is None else str(v) for v in spec)


def spec_argv(spec) -> list[str]:
    kind, n, edges, d, seed = spec
    argv = ["generate", "--kind", kind]
    for flag, value in (("--n", n), ("--edges", edges), ("--d", d), ("--seed", seed)):
        if value is not None:
            argv += [flag, str(value)]
    return argv


def digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode("utf-8")).hexdigest()


# Canonical forms of the answers whose raw output follows the package's simplex
# order.  The expected answers pin the complex or matrix, not that order; the
# product still pins the CLI's vertex numbering i*|H| + j for the pair of the
# i-th simplex of G and the j-th simplex of H, in the package's order.


def simplex_keys(g, perm: dict | None = None) -> list:
    """The vertex tuple of each simplex of g, in the package's simplex order.

    With ``perm``, g was written relabelled by it, and each tuple is given in
    the labels from before that relabelling.
    """
    if perm is None:
        return [tuple(s.vertices) for s in g.simplices]
    back = {new: old for old, new in perm.items()}
    return [tuple(sorted(back[v] for v in s.vertices)) for s in g.simplices]


def canonical_facets(text: str) -> list:
    """Facets of a complex file, each sorted, in sorted order."""
    return sorted(sorted(int(t) for t in line.split()) for line in text.splitlines()
                  if line.strip())


def canonical_product(text: str, g_keys: list, h_keys: list) -> list:
    """Facets of a product file with each vertex relabelled by its pair of simplices."""
    return sorted(sorted([list(g_keys[i]), list(h_keys[j])]
                         for i, j in (divmod(v, len(h_keys)) for v in facet))
                  for facet in canonical_facets(text))


def canonical_matrix(mat: list, keys: list) -> list:
    """A matrix indexed by simplices, rows and columns put in sorted simplex order."""
    order = sorted(range(len(keys)), key=lambda i: (len(keys[i]), keys[i]))
    return [[mat[i][j] for j in order] for i in order]


@dataclass(frozen=True)
class Selection:
    """What one (workload, seed) pair runs: recipes to write, and op specs."""

    recipes: tuple[str, ...]
    ops: tuple[tuple, ...]  # (kind, recipe or spec, params dict)


def select(workload: str, seed: int, smoke: bool = False) -> Selection:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "energy":
        if smoke:
            complexes, large = SMOKE["energy"], ()
        else:
            # a pass of about 4.5 s on a shared 2-vCPU VM
            large = (ENERGY_LARGE,)
            complexes = (G1228,) + ENERGY_SMALL + large
        ops = []
        for r in complexes:
            ops.append(("info", r, {}))
            # the ROADMAP baseline op first, so its row is measured cold
            ops.append(("verify", r, {"suite": "energy", "m": 2, "k": 2}))
            if r in large:
                continue
            for suite in ("energy", "energy-ball", "sphere"):
                for m in (1, 2, 3):
                    for k in (1, 2, 3):
                        if (suite, m, k) != ("energy", 2, 2):
                            ops.append(("verify", r, {"suite": suite, "m": m, "k": k}))
            if r != G1228:  # on G1228 it alone would take half a pass
                ops.append(("verify", r, {"suite": "dual-sphere", "m": 1, "k": 2}))
        return Selection(complexes, tuple(ops))
    if workload == "duality":
        main = SMOKE["duality"] if smoke else DUALITY_MAIN
        ops = []
        for r in main:
            ops.append(("verify", r, {"suite": "det-fermi"}))
            ops.append(("verify", r, {"suite": "green-inverse"}))
            ops.append(("betti", r, {"support": "all"}))
            for _ in range(SUPPORTS_PER_KIND):
                ops.append(("betti", r, {"support": "star", "pick": rng.random()}))
                ops.append(("betti", r, {"support": "star", "pick": rng.random(),
                                         "relative": True}))
                ops.append(("betti", r, {"support": "core", "pick": rng.random()}))
            ops.append(("matrix", r, {"which": "connection"}))
            ops.append(("matrix", r, {"which": "green"}))
            ops.append(("matrix", r, {"which": "charpoly-connection", "max_n": CHARPOLY_MAX}))
            ops.append(("matrix", r, {"which": "charpoly-green", "max_n": CHARPOLY_MAX}))
        recipes = tuple(main)
        if not smoke:
            ops.append(("betti", DUALITY_BETTI_ONLY, {"support": "all"}))
            recipes += (DUALITY_BETTI_ONLY,)
        return Selection(recipes, tuple(ops))
    if workload == "corpus":
        if smoke:
            full = SMOKE["corpus"]
            heavy: tuple = ()
            valuation = SMOKE["corpus"][1]
            shapes = [GENERATE_SHAPES[0]]
            products = [(SMOKE["corpus"][1], "cp:1")]
            pairs = 5
        else:
            # enough tiny complexes that the 90th percentile op falls inside a
            # cluster of similar ops rather than in the gap above it
            full = CORPUS_FULL
            heavy = CORPUS_HEAVY
            valuation = CORPUS_VALUATION
            shapes = [rng.choice(GENERATE_RW), rng.choice(GENERATE_SHAPES)]
            products = CORPUS_PRODUCTS
            pairs = VALUATION_PAIRS
        ops = []
        for i, r in enumerate(full):
            m = 1 + i % 3  # by position, so that every seed does the same work
            ops.append(("info", r, {}))
            for what in RECOGNIZERS:
                ops.append(("recognize", r, {"what": what}))
            ops.append(("verify", r, {"suite": "barycentric", "m": m}))
            ops.append(("verify", r, {"suite": "product", "m": m, "max_n": PRODUCT_MAX}))
            ops.append(("verify", r, {"suite": "local-valuation", "m": m, "k": 2,
                                      "max_n": LOCAL_VALUATION_MAX}))
        for r in heavy:
            ops.append(("info", r, {}))
            ops.append(("recognize", r, {"what": "sphere"}))
            ops.append(("recognize", r, {"what": "contractible"}))
        ops.append(("verify", valuation, {"suite": "valuation", "m": 2, "pairs": pairs,
                                          "seed": VALUATION_SEED}))
        for spec in shapes:
            ops.append(("generate", spec, {}))
        for left, right in products:
            ops.append(("product", (left, right), {}))
        recipes = tuple(dict.fromkeys(full + heavy + (valuation,) + tuple(
            r for pair in products for r in pair)))
        return Selection(recipes, tuple(ops))
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str, smoke: bool = False) -> tuple[set, set, set]:
    """Every recipe, generator spec and product pair any seed can select."""
    if smoke:
        sel = select(workload, 0, smoke=True)
        recipes = set(sel.recipes)
        specs = {o[1] for o in sel.ops if o[0] == "generate"}
        prods = {o[1] for o in sel.ops if o[0] == "product"}
        return recipes, specs, prods
    if workload == "energy":
        return {G1228, *ENERGY_SMALL, ENERGY_LARGE}, set(), set()
    if workload == "duality":
        return {*DUALITY_MAIN, DUALITY_BETTI_ONLY}, set(), set()
    recipes = {*CORPUS_FULL, *CORPUS_HEAVY, CORPUS_VALUATION}
    return recipes, set(GENERATE_RW + GENERATE_SHAPES), set(CORPUS_PRODUCTS)


@dataclass
class Op:
    """One CLI invocation and the answer it must produce."""

    label: str
    argv: list
    # "json": stdout JSON lines compared key by key with the expected objects;
    # "digest": sha256 of the JSON of canon(stdout)
    check: str
    expected: object
    rc: int = 0
    canon: object = None


def _pick(seq, u: float):
    return seq[int(u * len(seq))]


def _report(suite, m, k, lhs, rhs, n):
    return {"suite": suite, "m": m, "k": k, "lhs": lhs, "rhs": rhs,
            "pass": True, "n_simplices": n}


def make_ops(sel: Selection, answers: dict, path_of, keys_of, perm_of) -> list[Op]:
    """Turn a selection into CLI argv lists with their expected answers.

    Answers the paper gives are written here as formulas over recorded
    characteristics; the rest are looked up in ``answers``.  ``keys_of(recipe)``
    gives the simplex keys of an input as the package orders them, in the
    generators' labels; they are read here, before any op is timed or traced.
    ``perm_of(recipe)`` is the relabelling the input was written with.
    """
    cx = answers["complexes"]
    out = []
    for kind, target, p in sel.ops:
        if kind == "generate":
            out.append(Op(" ".join(spec_argv(target)), spec_argv(target), "digest",
                          answers["generated"][spec_key(target)], canon=canonical_facets))
            continue
        if kind == "product":
            left, right = target
            gk, hk = keys_of(left), keys_of(right)
            out.append(Op(f"product {left} {right}",
                          ["product", path_of(left), path_of(right)], "digest",
                          answers["products"][f"{left}*{right}"],
                          canon=lambda text, gk=gk, hk=hk: canonical_product(text, gk, hk)))
            continue
        a = cx[target]
        n, w, path = a["n"], a["w"], path_of(target)
        if n > p.get("max_n", n):
            continue
        if kind == "info":
            exp = {"f_vector": a["f_vector"], "dim": a["dim"], "n_simplices": n,
                   "w1": w[0], "w2": w[1], "w3": w[2], "fermi": a["fermi"]}
            out.append(Op(f"info {target}", ["info", path, "--json"], "json", [exp]))
        elif kind == "recognize":
            what, d = p["what"], a["dim"]
            verdict = a["verdicts"][what]
            out.append(Op(f"recognize {what} {target}",
                          ["recognize", path, "--what", what, "--d", str(d), "--json"],
                          "json", [{"what": what, "d": d, "verdict": verdict}],
                          0 if verdict == "yes" else 1))
        elif kind == "matrix":
            which = p["which"]
            if which.startswith("charpoly-"):  # invariant under any simplex order
                canon = json.loads
            else:
                keys = keys_of(target)

                def canon(text, keys=keys):
                    return canonical_matrix(json.loads(text), keys)
            out.append(Op(f"matrix {which} {target}", ["matrix", path, "--which", which],
                          "digest", a["matrix"][which], canon=canon))
        elif kind == "betti":
            support = p["support"]
            argv = ["betti", path, "--json"]
            perm = perm_of(target)
            if support == "all":
                token, exp = "all", a["betti"]
            elif support == "star":
                v = _pick(sorted(a["star_betti"], key=int), p["pick"])
                token, exp = f"star:{perm[int(v)]}", a["star_betti"][v]
            else:
                facet = _pick(a["facets"], p["pick"])
                token = "core:" + "-".join(str(u) for u in sorted(
                    perm[int(t)] for t in facet.split("-")))
                # the closure of one simplex is contractible
                exp = [1] + [0] * facet.count("-")
            argv += ["--support", token] + (["--relative"] if p.get("relative") else [])
            label = f"betti {token}{' --relative' if p.get('relative') else ''} {target}"
            out.append(Op(label, argv, "json", [exp]))
        elif kind == "verify":
            suite = p["suite"]
            m, k = p.get("m", 1), p.get("k", 1)
            argv = ["verify", suite, path, "-m", str(m), "-k", str(k), "--json"]
            if suite in ("energy", "energy-ball"):
                exp = [_report(suite, m, k, w[m - 1], w[m - 1], n)]
            elif suite in ("sphere", "dual-sphere"):
                exp = [_report(suite, m, k, 0, 0, n)]
            elif suite == "det-fermi":
                exp = [_report(suite, m, k, a["fermi"], a["fermi"], n)]
            elif suite == "green-inverse":
                exp = [_report(suite, m, k, 0, 0, n)]  # zero mismatches in L.g = I
            elif suite == "barycentric":
                exp = [_report(suite, m, k, w[m - 1], w[m - 1], n)]
            elif suite == "product":
                wp = w[m - 1] * answers["path3_w"][m - 1]
                exp = [_report(suite, m, k, wp, wp, a["path3_product_n"]),
                       _report("product-refinement", m, k, w[m - 1], w[m - 1], a["bary_n"])]
            elif suite == "local-valuation":
                total = n ** k
                exp = [_report(suite, m, k, total, total, n)]
            elif suite == "valuation":
                argv += ["--pairs", str(p["pairs"]), "--seed", str(p["seed"])]
                exp = [_report(suite, m, 2, p["pairs"], p["pairs"], n)]
            else:
                raise ValueError(f"no expected answer for suite {suite!r}")
            out.append(Op(f"verify {suite} -m {m} -k {k} {target}", argv, "json", exp))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return out
