"""Acceptance suite: every exit criterion, exact integer arithmetic throughout.

Each test prints one `[criterion NN] ...: PASS` line on success (visible with
``pytest -s`` or ``-v``); a failing criterion shows up as the usual pytest
FAILED line.  The corpus of seeded clique complexes is shared across
criteria.
"""

import itertools
import json
import time

import pytest

from higherchar import characteristics as ch
from higherchar.characteristics import InteractionFunction
from higherchar.cli import main as cli_main
from higherchar.cli import random_open_set
from higherchar.cohomology import betti, betti_relative, coboundary
from higherchar.complexes import Simplex, SimplexSubset, closure
from higherchar.files import save_complex
from higherchar.generators import (
    SplitMix64,
    cross_polytope,
    cycle,
    path3,
    random_whitney,
    simplex_complex,
    star_complex,
)
from higherchar.linalg import (
    connection_matrix,
    det,
    green_matrix,
    mat_mul,
)
from higherchar.product import topological_product
from higherchar.recognizers import (
    is_ball,
    is_dehn_sommerville,
    is_manifold,
    is_manifold_with_boundary,
    is_sphere,
    manifold_boundary,
)
from higherchar.topology import (
    OpenSet,
    ball,
    barycentric,
    open_refinement,
    sphere,
    star_intersection,
)

from oracles import identity_matrix, refinement_by_flags

N_CORPUS = 50
BUDGET = 10**6


@pytest.fixture(scope="module")
def corpus():
    return [random_whitney(9, 15, seed=s) for s in range(1, N_CORPUS + 1)]


def _report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion:02d}] {text}: PASS")


def test_acceptance_01_energy_theorem(corpus):
    t0 = time.time()
    for g in corpus:
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                if k == 3 and len(g) > 40:
                    continue
                rep = ch.energy_sum(g, m, k)
                assert rep.passed, (len(g), m, k, rep)
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"energy corpus took {elapsed:.1f}s, over 5 minutes"
    _report(1, f"energy identity, {N_CORPUS} complexes x (m,k) in {{1,2,3}}^2, "
               f"{elapsed:.1f}s")


def test_acceptance_02_generalized_energy(corpus):
    rng = SplitMix64(2024)
    for g in corpus:
        ss = g.simplices
        for _ in range(20):
            for m in (1, 2):
                table = {
                    tuple(x.vertices for x in X): rng.below(7) - 3
                    for X in itertools.product(ss, repeat=m)
                }
                h = InteractionFunction.from_table(m, table)
                for k in (1, 2):
                    rep = ch.energy_sum(g, m, k, h)
                    assert rep.passed, (len(g), m, k, rep)
    _report(2, "energy identity for 20 random integer interactions per complex")


def test_acceptance_03_sphere_and_dual_sphere(corpus):
    for g in corpus:
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                assert ch.sphere_sum(g, m, k).passed, (len(g), m, k)
                assert ch.dual_sphere_sum(g, m, k).passed, (len(g), m, k)
    _report(3, "sphere and dual-sphere sums vanish, m in {1,2,3}, k in {1,2,3}")


def test_acceptance_04_valuation(corpus):
    # 200 random open pairs per complex on a mixed corpus
    mixed = [simplex_complex(2), path3(), cycle(4), cross_polytope(2),
             corpus[0], corpus[1]]
    rng = SplitMix64(404)
    for g in mixed:
        for _ in range(200):
            u = random_open_set(g, rng)
            v = random_open_set(g, rng)
            for m in (1, 2, 3):
                assert ch.valuation_check(u, v, m).passed

    # closed counterexample 1: overlapping closed intervals in the 2-edge path
    p3 = path3()
    a = SimplexSubset(p3, [{1}, {2}, {1, 2}])
    b = SimplexSubset(p3, [{2}, {3}, {2, 3}])
    assert ch.w_m(a, 2) == -1 and ch.w_m(b, 2) == -1
    lhs, rhs = ch.valuation_values(a, b, 2)
    assert (lhs, rhs) == (-2, 0), "closed intervals must violate the identity"
    assert not ch.valuation_check(a, b, 2, allow_closed=True).passed

    # closed counterexample 2: the two closed hemispheres of the octahedron.
    # The pair ({1,5}, {1,6}) meets in the equator vertex {1} although neither
    # simplex lies in the intersection of the hemispheres, so the patching
    # step that proves the identity for open sets fails; the totals still
    # balance here, which is exactly what makes closed-set bookkeeping
    # unusable in general.
    octa = cross_polytope(2)
    ha = SimplexSubset(octa, [s for s in octa.simplices if 5 not in s])
    hb = SimplexSubset(octa, [s for s in octa.simplices if 6 not in s])
    equator = ha.intersection(hb)
    x, y = Simplex([1, 5]), Simplex([1, 6])
    assert (x.bits & y.bits) in equator.member_bits
    assert x in hb.members and x not in ha.members and x not in equator.members
    assert y in ha.members and y not in hb.members and y not in equator.members
    for m in (1, 2, 3):
        lhs, rhs = ch.valuation_values(ha, hb, m)
        assert lhs == rhs, (m, lhs, rhs)
    _report(4, "open-pair valuation holds; both closed-set counterexamples "
               "behave as documented")


def test_acceptance_05_local_valuation(corpus):
    for g in corpus:
        reps = {}
        for x in g.simplices:
            reps.setdefault(x.bits, (x,))
        for X in itertools.product(g.simplices, repeat=2):
            u = X[0].bits | X[1].bits
            key = u if u in g.member_bits else None
            reps.setdefault(key, X)
        for X in reps.values():
            for m in (1, 2, 3):
                assert ch.local_valuation_check(g, X, m).passed, (X, m)
    _report(5, "ball = star - (-1)^m sphere for every configuration with k <= 2")


MANIFOLD_CASES = [
    ("C4", lambda: cycle(4), 1),
    ("C5", lambda: cycle(5), 1),
    ("octahedron", lambda: cross_polytope(2), 2),
    ("interval", lambda: simplex_complex(2), 1),
    ("path3", lambda: path3(), 1),
    ("solid tetrahedron", lambda: closure([{1, 2, 3, 4}]), 3),
    ("interval x interval", lambda: topological_product(simplex_complex(2), simplex_complex(2)), 2),
    ("interval x C4", lambda: topological_product(simplex_complex(2), cycle(4)), 2),
    ("C4 x C4", lambda: topological_product(cycle(4), cycle(4)), 2),
]


def test_acceptance_06_manifold_theorems():
    for name, make, d in MANIFOLD_CASES:
        g = make()
        assert is_manifold_with_boundary(g, d, budget=BUDGET).is_yes, name
        boundary = manifold_boundary(g, d, budget=BUDGET)
        interior = [
            x for x in g.simplices
            if is_sphere(sphere(g, [x]), d - 1, budget=BUDGET).is_yes
        ]
        assert len(interior) + len(boundary) == len(g), name
        # local data at interior simplices
        for x in interior:
            u = star_intersection(g, [x])
            s = sphere(g, [x])
            bl = ball(g, [x])
            for m in (1, 2, 3):
                assert ch.w_m(u, m) == (-1) ** (d * m), (name, x, m)
                assert ch.w_m(s, m) == 1 + (-1) ** (d - 1), (name, x, m)
                assert ch.w_m(bl, m) == (-1) ** (d * (m + 1)), (name, x, m)
        # global identities: even-dimensional manifolds keep w_m = w_1 with or
        # without boundary; odd-dimensional ones keep w_m = w_1 for odd m and
        # lose the boundary Euler characteristic for even m
        w1 = ch.w_m(g, 1)
        w1_boundary = ch.w_m(boundary, 1)
        for m in (1, 2, 3):
            wm = ch.w_m(g, m)
            if d % 2 == 0:
                assert wm == w1, (name, m)
            elif m % 2 == 1:
                assert wm == w1, (name, m)
            else:
                assert wm == w1 - w1_boundary, (name, m)
    _report(6, "local data constants and manifold characteristic identities")


def test_acceptance_07_matrix_duality(corpus):
    named = [simplex_complex(2), path3(), cycle(4), cycle(5), cross_polytope(2)]
    checked = 0
    for g in named + list(corpus):
        if len(g) == 0 or len(g) > 60:
            continue
        n = len(g)
        L = connection_matrix(g)
        gm = green_matrix(g)
        assert mat_mul(L, gm) == identity_matrix(n)
        assert mat_mul(gm, L) == identity_matrix(n)
        dv = det(L)
        assert dv in (1, -1) and dv == ch.fermi(g)
        checked += 1
    assert checked >= 50
    # the worked 3x3 example
    k2 = simplex_complex(2)
    assert connection_matrix(k2) == [[1, 0, 1], [0, 1, 1], [1, 1, 1]]
    assert green_matrix(k2) == [[0, -1, 1], [-1, 0, 1], [1, 1, -1]]
    assert det(connection_matrix(k2)) == -1
    _report(7, f"L*g = identity and det(L) = fermi on {checked} complexes")


def test_acceptance_08_product_theorem():
    k2 = simplex_complex(2)
    p3 = path3()
    c4 = cycle(4)
    pairs = [
        (k2, k2),
        (k2, p3),
        (c4, k2),
        (c4, c4),
        (p3, p3),
        (star_complex(4), k2),
        (star_complex(4), star_complex(4)),
        (p3, c4),
        (random_whitney(5, 6, seed=1), p3),
        (random_whitney(6, 10, seed=7), star_complex(5)),  # the reference shape
    ]
    for g, h in pairs:
        gh = topological_product(g, h)
        assert gh.f_vector[0] == len(g) * len(h)
        for m in (1, 2, 3):
            assert ch.w_m(gh, m) == ch.w_m(g, m) * ch.w_m(h, m), (g, h, m)
    # the edge x edge product has 9 vertices
    assert topological_product(k2, k2).f_vector[0] == 9
    # one-point factor refines
    one = simplex_complex(1)
    for g in (k2, p3, c4, random_whitney(6, 8, seed=5)):
        gdot1 = topological_product(g, one)
        assert gdot1.simplices == refinement_by_flags(g)
        for m in (1, 2, 3):
            assert ch.w_m(gdot1, m) == ch.w_m(g, m)
    # non-associativity witness
    left = topological_product(topological_product(k2, one), one)
    right = topological_product(k2, topological_product(one, one))
    assert left.f_vector == (5, 4) and right.f_vector == (3, 2)
    assert left.f_vector != right.f_vector
    _report(8, "product multiplies characteristics; one-point factor refines; "
               "product is not associative")


def test_acceptance_09_refinement_invariance():
    for s in range(1, 26):
        g = random_whitney(9, 15, seed=s)
        g1 = barycentric(g)
        for m in (1, 2, 3):
            assert ch.w_m(g1, m) == ch.w_m(g, m), (s, m)
    rng = SplitMix64(909)
    n_sets = 0
    for s in range(1, 11):
        g = random_whitney(7, 10, seed=s)
        for _ in range(5):
            u = random_open_set(g, rng)
            u1 = open_refinement(g, u)
            assert ch.w_m(u1, 1) == ch.w_m(u, 1)
            assert ch.w_m(u1, 2) == ch.w_m(u, 2)
            n_sets += 1
    assert n_sets == 50
    _report(9, "refinement preserves w_m on 25 complexes and 50 open sets")


def test_acceptance_10_cohomology():
    tetra = closure([{1, 2, 3, 4}])
    assert betti(tetra) == (1, 0, 0, 0)
    assert betti(OpenSet(tetra, [{1, 2, 3, 4}])) == (0, 0, 0, 1)
    # single open cells realize basis vectors
    for g, x in [(simplex_complex(2), {1, 2}), (tetra, {1, 2, 3, 4}),
                 (cycle(4), {1, 2})]:
        xs = Simplex(x)
        vec = [0] * (xs.dim + 1)
        vec[xs.dim] = 1
        assert list(betti(OpenSet(g, [x]))) == vec
    # Euler characteristic from Betti numbers on 100 random open sets,
    # with the coboundary square vanishing on every support
    rng = SplitMix64(1010)
    n_sets = 0
    for s in range(1, 11):
        g = random_whitney(7, 10, seed=s)
        for _ in range(10):
            u = random_open_set(g, rng)
            bv = betti(u) if len(u) else ()
            assert sum((-1) ** i * b for i, b in enumerate(bv)) == ch.w_m(u, 1)
            if len(u):
                assert betti_relative(u) == bv
            support = u if len(u) < len(g) else g
            for i in range(3):
                hi, lo = coboundary(support, i + 1), coboundary(support, i)
                if hi and lo and lo[0]:
                    for r in range(len(hi)):
                        for c in range(len(lo[0])):
                            assert sum(hi[r][t] * lo[t][c]
                                       for t in range(len(lo))) == 0
            n_sets += 1
    assert n_sets == 100
    _report(10, "Betti vectors of open and closed balls, basis-vector cells, "
                "Euler pairing on 100 open sets, d*d = 0")


def test_acceptance_11_recognizers():
    for d in (0, 1, 2, 3):
        assert is_sphere(cross_polytope(d), d, budget=BUDGET).is_yes
    for n in (4, 5, 6, 7):
        assert is_manifold(cycle(n), 1).is_yes
    k2 = simplex_complex(2)
    assert is_ball(k2, 1).is_yes
    assert sorted(s.vertices for s in manifold_boundary(k2, 1)) == [(1,), (2,)]
    for d in (0, 1, 2, 3):
        assert is_dehn_sommerville(cross_polytope(d), d, budget=BUDGET).is_yes
    assert is_dehn_sommerville(cycle(4), 1).is_yes
    for g in (cycle(4), cycle(5), cycle(6)):
        assert is_manifold(g, 1).is_yes
        assert ch.w_m(g, 2) == 0 and ch.w_m(g, 3) == 0
    _report(11, "sphere/manifold/ball certifications and vanishing odd-manifold "
                "characteristics")


def test_acceptance_12_benchmark(tmp_path, capsys):
    for name, g in [("rw", random_whitney(10, 20, seed=3)), ("c20", cycle(20))]:
        p = tmp_path / f"{name}.facets"
        save_complex(g, p)
        for m in ("2", "3"):
            rc = cli_main(["bench", str(p), "-m", m, "--json"])
            out = capsys.readouterr().out.strip()
            assert rc == 0
            d = json.loads(out)
            assert d["equal"] is True and d["value_naive"] == d["value_local"]
            # operation counts and speedups are emitted, never asserted
            assert d["ops_naive"] > 0 and d["ops_local"] > 0
            assert "speedup_time" in d and "speedup_ops" in d
    _report(12, "benchmark values agree between global and local paths; "
                "figures reported")


def test_acceptance_13_out_of_scope_surfaces(tmp_path, capsys):
    # spectral comparison of the connection and Green matrices ships as an
    # informational report; inequality is expected and is not an error
    p = tmp_path / "k2.facets"
    save_complex(simplex_complex(2), p)
    rc = cli_main(["matrix", str(p), "--which", "isospectral"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    d = json.loads(out)
    assert d["equal"] is False
    assert d["charpoly_connection"] == [1, -3, 1, 1]
    # no quadratic/cubic interaction cohomology is exposed anywhere
    import higherchar

    assert not any("interaction_betti" in name for name in dir(higherchar))
    _report(13, "spectral comparison is a report only; interaction cohomology "
                "stays out of scope")
