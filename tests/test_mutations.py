"""Named wrong variants of the program, each applied with ``monkeypatch``:
the CLI verdict of the suite that covers the patched code must turn to
fail.  A check that passes on a wrong program shows nothing."""

import json

import pytest

import higherchar.characteristics as ch
from higherchar.cli import main
from higherchar.files import save_complex
from higherchar.generators import cross_polytope

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
