"""Named wrong variants of the program, each applied with ``monkeypatch``:
the CLI verdict of the suite that covers the patched code must turn to
fail, or the value computed by the patched code must turn wrong.  A check
that passes on a wrong program shows nothing."""

import json
from itertools import islice
from math import isqrt

import pytest

import higherchar.characteristics as ch
import higherchar.linalg as la
import higherchar.recognizers as rec
from higherchar.cli import main
from higherchar.files import save_complex
from higherchar.generators import cross_polytope, simplex_complex

OCTA = cross_polytope(2)


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

    def wrong(ctx, s, d):
        status, boundary = step(ctx, s, d)
        return status, boundary[:-1]

    return rec, "_manifold_with_boundary", wrong


RECOGNIZER_COMPLEXES = {"cross_polytope(3)": cross_polytope(3),
                        "simplex_complex(3)": simplex_complex(3)}


@pytest.mark.parametrize("variant,what,name,d", [
    (_unit_sphere_without_its_last_member, "dehn-sommerville", "cross_polytope(3)", 3),
    (_unit_sphere_without_its_last_member, "sphere", "cross_polytope(3)", 3),
    (_unit_sphere_without_its_last_member, "ball", "simplex_complex(3)", 2),
    (_unit_sphere_without_its_last_member, "manifold-with-boundary", "simplex_complex(3)", 2),
    (_boundary_without_its_last_member, "ball", "simplex_complex(3)", 2),
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
