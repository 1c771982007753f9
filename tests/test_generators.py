import pytest

from higherchar.characteristics import w_m
from higherchar.errors import InputError, ResourceBudgetError
from higherchar.files import MAX_SIMPLICES, format_facets
from higherchar.generators import (
    GeneratorSpec,
    SplitMix64,
    cross_polytope,
    cycle,
    generate,
    path3,
    random_graph_edges,
    random_whitney,
    simplex_complex,
    star_complex,
)
from higherchar.recognizers import is_sphere

from oracles import is_complex


class TestKinds:
    def test_simplex(self):
        assert simplex_complex(3).f_vector == (3, 3, 1)
        assert generate(GeneratorSpec("simplex", n=2)).f_vector == (2, 1)

    def test_cycle(self):
        assert cycle(4).f_vector == (4, 4)
        assert cycle(7).f_vector == (7, 7)
        with pytest.raises(InputError):
            cycle(3)

    def test_cross_polytope(self):
        assert len(cross_polytope(-1)) == 0
        assert cross_polytope(0).f_vector == (2,)
        assert cross_polytope(1).f_vector == (4, 4)
        assert cross_polytope(2).f_vector == (6, 12, 8)
        assert generate(GeneratorSpec("octahedron")) == cross_polytope(2)

    def test_cross_polytope_euler(self):
        for d in range(-1, 4):
            assert w_m(cross_polytope(d), 1) == 1 + (-1) ** d

    def test_cross_polytope_sphere_verdicts(self):
        for d in (0, 1, 2, 3):
            assert is_sphere(cross_polytope(d), d).is_yes

    def test_star(self):
        assert star_complex(5).f_vector == (5, 4)
        assert star_complex(1).f_vector == (1,)

    def test_path3(self):
        g = path3()
        assert [s.vertices for s in g] == [(1,), (2,), (3,), (1, 2), (2, 3)]
        assert w_m(g, 2) == -1

    def test_random_whitney_is_complex(self):
        g = random_whitney(9, 15, seed=1)
        assert is_complex(g.simplices)
        assert g.f_vector[0] == 9
        assert g.f_vector[1] == 15

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            generate(GeneratorSpec("cycle"))
        with pytest.raises(InputError):
            generate(GeneratorSpec("nonsense"))
        with pytest.raises(InputError):
            random_whitney(4, 99, seed=0)
        with pytest.raises(InputError):
            simplex_complex(0)


    @pytest.mark.parametrize(
        "spec",
        [GeneratorSpec("simplex", n=18), GeneratorSpec("simplex", n=10**9),
         GeneratorSpec("cross_polytope", d=10),
         GeneratorSpec("cycle", n=MAX_SIMPLICES // 2 + 1),
         GeneratorSpec("star", n=MAX_SIMPLICES // 2 + 1),
         GeneratorSpec("random_whitney", n=513, edges=1, seed=0)],
    )
    def test_generate_refuses_over_cap_before_building(self, spec):
        with pytest.raises(ResourceBudgetError, match="over the cap"):
            generate(spec)


class TestDeterminism:
    def test_splitmix_known_stream_is_stable(self):
        rng = SplitMix64(1234)
        first = [rng.next() for _ in range(3)]
        rng2 = SplitMix64(1234)
        assert [rng2.next() for _ in range(3)] == first

    def test_edges_reproducible(self):
        a = random_graph_edges(9, 15, seed=42)
        b = random_graph_edges(9, 15, seed=42)
        assert a == b
        assert len(set(a)) == 15
        assert random_graph_edges(9, 15, seed=43) != a

    def test_facet_bytes_reproducible(self):
        a = format_facets(random_whitney(9, 15, seed=7))
        b = format_facets(random_whitney(9, 15, seed=7))
        assert a == b
