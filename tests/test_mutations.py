"""Named wrong variants of the program, each applied with ``monkeypatch``:
the CLI verdict of the suite that covers the patched code must turn to
fail, or the value computed by the patched code must turn wrong.  A check
that passes on a wrong program shows nothing.

A variant is a wrapper around the function it breaks or, where the wrong
step sits inside a function body, the function recompiled with one source
fragment replaced (``_edited``).  Where no CLI verdict sees a variant, its
test names the oracle test that does."""

import __future__
import inspect
import json
from itertools import islice, product
from math import isqrt

import pytest

import higherchar.characteristics as ch
import higherchar.cohomology as co
import higherchar.linalg as la
import higherchar.recognizers as rec
import higherchar.topology as top
from higherchar.cli import main
from higherchar.complexes import SimplexSubset
from higherchar.files import save_complex
from higherchar.generators import cross_polytope, path3, random_whitney, simplex_complex
from higherchar.product import topological_product

from oracles import star_weights_by_face_table

OCTA = cross_polytope(2)


def _edited(module, name, old, new):
    """``module.name`` recompiled from its source with the one fragment
    ``old`` replaced by ``new``, its globals a copy of the module's."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{name} no longer reads {old!r}"
    code = compile(source.replace(old, new), module.__file__, "exec",
                   __future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(module))
    exec(code, namespace)
    return module, name, namespace[name]


def _cli_json(capsys, argv):
    rc = main(argv)
    return rc, json.loads(capsys.readouterr().out)


def _sphere_join_without_an_edge(z):
    """S(z) of the octahedron listed without one of its edges.  Each edge of
    S(z) is a top member of it, so the rest is still closed."""
    join = ch._join_at

    def wrong(zb, star, proper):
        s = join(zb, star, proper)
        if zb != z or not proper:
            return s
        edge = next(b for b in s if b.bit_count() == 2)
        return [b for b in s if b != edge]

    return "_join_at", wrong


def _star_list_without_z(z):
    """U(z) listed without z itself.  Dropping a facet y of the star instead
    would give the sets of z in the complex without y, where the identity
    holds."""
    stars = ch._stars_of

    def wrong(g):
        out = dict(stars(g))
        out[z] = tuple(y for y in out[z] if y != z)
        return out

    return "_stars_of", wrong


LOCAL_VALUATION_VARIANTS = {
    "sphere join without an edge": _sphere_join_without_an_edge,
    "star list without z": _star_list_without_z,
}


@pytest.mark.parametrize("variant", sorted(LOCAL_VALUATION_VARIANTS))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 3], ids=["vertex", "edge", "triangle"])
def test_local_valuation_fails_at_exactly_the_unions_z(capsys, monkeypatch, tmp_path, variant,
                                                       size, m, k):
    # only the check of the union z reads the wrong list, so exactly the
    # c(|z|, k) configurations with union z fail
    p = tmp_path / "octa.facets"
    save_complex(OCTA, p)
    z = next(b for b in OCTA.masks if b.bit_count() == size)
    monkeypatch.setattr(ch, *LOCAL_VALUATION_VARIANTS[variant](z))
    rc = main(["verify", "local-valuation", str(p), "-m", str(m), "-k", str(k), "--json"])
    d = json.loads(capsys.readouterr().out)
    assert rc == 1 and d["pass"] is False
    assert d["lhs"] == len(OCTA) ** k and d["rhs"] == d["lhs"] - ch._union_count(size, k)


def _unit_sphere_without_its_last_member():
    """Every unit sphere listed without its last member, a top member of it,
    so the rest is still closed."""
    unit_sphere = rec._StarIndex.unit_sphere

    def wrong(self, xb):
        return unit_sphere(self, xb)[:-1]

    return rec._StarIndex, "unit_sphere", wrong


def _boundary_without_its_last_member():
    """The manifold-with-boundary step's boundary without its last member,
    a top member of it, so the rest is still closed."""
    step = rec._manifold_with_boundary

    @rec._step(step.base)
    def wrong(s, d):
        status, boundary = yield from step(s, d)
        return status, boundary[:-1]

    return rec, "_manifold_with_boundary", wrong


def _chi_target_of_the_other_parity():
    """The chi check against 2 - chi: the target 1 of contractible and ball
    stays, and a sphere's 1 + (-1)^d becomes 1 - (-1)^d."""
    refutes = rec._chi_refutes

    def wrong(g, chi):
        return refutes(g, 2 - chi)

    return rec, "_chi_refutes", wrong


RECOGNIZER_COMPLEXES = {"cross_polytope(3)": cross_polytope(3),
                        "simplex_complex(3)": simplex_complex(3)}


@pytest.mark.parametrize("variant,what,name,d", [
    (_unit_sphere_without_its_last_member, "dehn-sommerville", "cross_polytope(3)", 3),
    (_unit_sphere_without_its_last_member, "sphere", "cross_polytope(3)", 3),
    (_unit_sphere_without_its_last_member, "ball", "simplex_complex(3)", 2),
    (_unit_sphere_without_its_last_member, "manifold-with-boundary", "simplex_complex(3)", 2),
    (_boundary_without_its_last_member, "ball", "simplex_complex(3)", 2),
    (_chi_target_of_the_other_parity, "sphere", "cross_polytope(3)", 3),
], ids=lambda p: getattr(p, "__name__", None))
def test_recognizer_turns_to_no(capsys, monkeypatch, tmp_path, variant, what, name, d):
    p = tmp_path / "g.facets"
    save_complex(RECOGNIZER_COMPLEXES[name], p)
    argv = ["recognize", str(p), "--what", what, "--d", str(d), "--json"]
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["verdict"] == "yes"
    monkeypatch.setattr(*variant())
    assert main(argv) == 1 and json.loads(capsys.readouterr().out)["verdict"] == "no"


def _bound_halved():
    """The Hadamard bound halved, so the CRT may stop one prime early."""
    bound = la._hadamard_bound

    def wrong(mat):
        return bound(mat) // 2

    return la, "_hadamard_bound", wrong


def test_char_poly_turns_wrong_one_prime_early(monkeypatch):
    # a * H4, H4 the 4 x 4 Sylvester Hadamard matrix (H4^2 = 4I), has the
    # polynomial x^4 - 8a^2 x^2 + 16a^4; its row norms are 2a, so its
    # Hadamard bound is 16a^4, met by the constant term.  a is chosen with
    # 16a^4 just under the product M of the first three primes: the CRT then
    # needs a fourth prime, and with the bound halved it stops at M and
    # lifts 16a^4 to 16a^4 - M.
    m3 = 1
    for p in islice(la._primes(), 3):
        m3 *= p
    a = isqrt(isqrt((m3 - 2) // 16))
    h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    mat = [[a * x for x in row] for row in h4]
    want = [1, 0, -8 * a * a, 0, 16 * a**4]
    used = []
    per_prime = la._char_poly_mod

    def counted(mat, p):
        used.append(p)
        return per_prime(mat, p)

    monkeypatch.setattr(la, "_char_poly_mod", counted)
    assert la.char_poly(mat) == want and len(used) == 4
    used.clear()
    monkeypatch.setattr(*_bound_halved())
    assert la.char_poly(mat) == want[:-1] + [16 * a**4 - m3] and len(used) == 3


def _union_count_zero_at(size):
    """c(size, k) = 0: the configurations whose union has that size fall to
    the outside class, whose verdict then stands for them."""
    count = ch._union_count

    def wrong(s, k):
        return 0 if s == size else count(s, k)

    return ch, "_union_count", wrong


@pytest.mark.parametrize("k", [1, 2])
def test_zero_union_count_cannot_hide_a_failing_union(capsys, monkeypatch, tmp_path, k):
    # the wrong sphere join alone fails c(2, k) configurations; with c(2, k)
    # also 0 the outside class would take them and the suite would pass
    # (26/26 at k = 1, 676/676 at k = 2), so a count below 1 is refused
    p = tmp_path / "octa.facets"
    save_complex(OCTA, p)
    edge = next(b for b in OCTA.masks if b.bit_count() == 2)
    argv = ["verify", "local-valuation", str(p), "-m", "2", "-k", str(k), "--json"]
    monkeypatch.setattr(ch, *_sphere_join_without_an_edge(edge))
    rc, d = _cli_json(capsys, argv)
    assert rc == 1 and d["rhs"] == d["lhs"] - ch._union_count(2, k)
    monkeypatch.setattr(*_union_count_zero_at(2))
    with pytest.raises(ArithmeticError):
        main(argv)


def _union_count_plus_one_at(size):
    count = ch._union_count

    def wrong(s, k):
        return count(s, k) + (s == size)

    return ch, "_union_count", wrong


def test_union_count_plus_one(monkeypatch):
    # the outside class absorbs an over-count too, so every local-valuation
    # verdict stands; TestLocalValuationSum.test_counts_and_outside_remainder_add_up
    # sees it, and so does the count of the pairs whose union is a triangle
    z = next(b for b in OCTA.masks if b.bit_count() == 3)
    literal = sum(1 for x, y in product(OCTA.masks, repeat=2) if x | y == z)
    assert ch._union_count(3, 2) == literal == 25
    monkeypatch.setattr(*_union_count_plus_one_at(3))
    assert ch._union_count(3, 2) != literal


def _coboundary_sign_flipped_above_edges():
    """The incidence sign of a removed vertex at ascending position p >= 2,
    which only rows of triangles and up have, flipped."""
    return _edited(co, "_coboundary", "row[j] = -1 if p & 1 else 1",
                   "row[j] = -1 if (p & 1) != (p > 1) else 1")


def test_coboundary_sign_flipped_above_edges(capsys, monkeypatch, tmp_path):
    # test_acceptance_10 sees it too: d d is no longer 0
    p = tmp_path / "rw.facets"
    save_complex(random_whitney(12, 30, seed=1), p)
    argv = ["betti", str(p), "--support", "all", "--json"]
    assert _cli_json(capsys, argv) == (0, [1, 6, 0, 0])
    monkeypatch.setattr(*_coboundary_sign_flipped_above_edges())
    assert _cli_json(capsys, argv)[1] != [1, 6, 0, 0]


def _face_passes_without_a_pair():
    """The first face pass without its first pair (x, x minus v)."""
    passes_of = la._face_passes

    def wrong(g):
        passes = list(passes_of(g))
        i = next(i for i, pairs in enumerate(passes) if pairs)
        passes[i] = passes[i][1:]
        return passes

    return la, "_face_passes", wrong


def test_face_pass_without_a_pair(capsys, monkeypatch, tmp_path):
    p = tmp_path / "octa.facets"
    save_complex(OCTA, p)
    argv = ["verify", "green-inverse", str(p), "--json"]
    assert _cli_json(capsys, argv)[0] == 0
    monkeypatch.setattr(*_face_passes_without_a_pair())
    rc, d = _cli_json(capsys, argv)
    assert rc == 1 and d["pass"] is False


def _face_table_without_a_pair():
    """The shared face table with the first pair (x, x minus v) of its
    first pass dropped; the subset passes and the duality passes read it."""
    table_of = ch._face_table

    def wrong(g):
        table = table_of(g)
        passes = list(table.passes)
        i = next(i for i, pairs in enumerate(passes) if pairs)
        passes[i] = passes[i][1:]
        return table._replace(passes=tuple(passes))

    return ch, "_face_table", wrong


def test_face_table_without_a_pair(monkeypatch):
    # verify valuation still passes, as the wrong terms of the four sets of
    # a pair balance; TestSubsetTerms.test_matches_naive_and_subset_walk sees
    # it, and so does the whole octahedron read as a subset of itself, whose
    # w_2 is the closed form's 2
    whole = SimplexSubset(OCTA, OCTA.simplices)
    assert ch.w_m(whole, 2) == ch.w_m(OCTA, 2) == 2
    monkeypatch.setattr(*_face_table_without_a_pair())
    assert ch.w_m(whole, 2) != 2


def test_face_table_without_a_pair_splits_the_n_routes(monkeypatch):
    # the cross-check of TestNRoutes, face by face: the n pass over the
    # table no longer gives the star weights.  The grouped (N, C) pairs see
    # it on the octahedron and rw:12:30:2 alone; on the other four they
    # balance, so those are the ones this check must see it on
    rw = random_whitney(12, 30, 1)
    gs = (OCTA, random_whitney(12, 30, 2), rw, cross_polytope(3), top.barycentric(rw),
          topological_product(rw, path3()))

    def agree(g):
        return star_weights_by_face_table(ch._face_table(g)) == ch._star_weights(g)

    assert all(map(agree, gs))
    monkeypatch.setattr(*_face_table_without_a_pair())
    assert not any(map(agree, gs))


def _sparse_eliminate_without_its_scalings():
    """The determinant factor s = contents / scalings returned as contents."""
    return _edited(la, "_sparse_eliminate", "Fraction(contents, scalings)", "Fraction(contents)")


def test_sparse_eliminate_without_its_scalings(monkeypatch):
    # L and g reduce to unit pivots, so no CLI verdict sees it;
    # TestFaceRoutes.test_det_of_any_integer_matrix_is_bareiss does, and so
    # does a pivot that does not divide the entry below it
    k2 = simplex_complex(2)
    mat = [[2, 3, 0], [3, 2, 0], [0, 0, 1]]
    assert la.det_via_faces(k2, mat) == la.det(mat) == -5
    monkeypatch.setattr(*_sparse_eliminate_without_its_scalings())
    assert la.det_via_faces(k2, mat) != -5


def _unit_sphere_keeping_x():
    return _edited(top, "unit_sphere", "b & xb != xb and", "(b & xb != xb or b == xb) and")


def test_unit_sphere_keeping_x(monkeypatch):
    # no CLI path reads topology.unit_sphere; test_acceptance_06 sees it in
    # the local data of the manifolds, here w_1 of a vertex link of the
    # octahedron, a 4-cycle
    x = OCTA.simplices[0]
    assert ch.w_m(top.sphere(OCTA, [x]), 1) == 0
    monkeypatch.setattr(*_unit_sphere_keeping_x())
    assert ch.w_m(top.sphere(OCTA, [x]), 1) != 0


def _dual_sphere_multiplicity_without_its_run_factor():
    """The multiplicity of a nondecreasing m-tuple without the factor
    m / (m - j) for the run that closes it."""
    return _edited(ch, "_dual_sphere_total", "ways * m // (m - j)", "ways")


def test_dual_sphere_multiplicity_without_its_run_factor(monkeypatch):
    # the dual-sphere suite still reads 0 on the octahedron, so no CLI
    # verdict sees it; TestDualSphereSum.test_corrupted_spheres does, and so
    # does one closed edge: with a single set of weight 1 the k = 2 sum is
    # w_2 of that edge, -1
    edge = [0b01, 0b10, 0b11]
    assert ch._dual_sphere_total([edge], [1], 2, 2) == -1
    monkeypatch.setattr(*_dual_sphere_multiplicity_without_its_run_factor())
    assert ch._dual_sphere_total([edge], [1], 2, 2) != -1
