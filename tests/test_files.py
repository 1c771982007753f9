import pytest

from higherchar.errors import InputError, ResourceBudgetError
from higherchar.files import (
    MAX_SIMPLICES,
    format_facets,
    load_complex,
    parse_complex,
    parse_edge_list,
    parse_facets,
    save_complex,
)
from higherchar.generators import cross_polytope, random_whitney


class TestFacets:
    def test_basic(self):
        g = parse_facets("1 2\n2 3\n")
        assert g.f_vector == (3, 2)

    def test_comments_and_blanks(self):
        g = parse_facets("# a triangle\n\n1 2 3   # inline\n")
        assert g.f_vector == (3, 3, 1)

    def test_empty_file_is_void(self):
        assert len(parse_facets("")) == 0

    def test_simplex_budget(self):
        # a 17-vertex facet has 2^17 - 1 faces and fits; 18 vertices do not
        assert (1 << 17) - 1 <= MAX_SIMPLICES < (1 << 18) - 1
        with pytest.raises(ResourceBudgetError):
            parse_facets(" ".join(map(str, range(18))))

    def test_large_complexes_still_load(self):
        g = random_whitney(60, 900, 1)
        assert len(g) == 23270
        assert parse_facets(format_facets(g)) == g

    def test_error_carries_line_number(self):
        with pytest.raises(InputError) as exc:
            parse_facets("1 2\nx\n")
        assert exc.value.lineno == 2

    def test_round_trip(self, tmp_path):
        g = random_whitney(8, 13, seed=5)
        p = tmp_path / "g.facets"
        save_complex(g, p)
        assert load_complex(p) == g

    def test_format_is_byte_stable(self):
        g = cross_polytope(2)
        assert format_facets(g) == format_facets(cross_polytope(2))
        assert format_facets(g).startswith("1 3 5\n")


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("graph\n1 2\n2 3\n1 3\n")
        assert g.f_vector == (3, 3, 1)

    def test_simplex_budget(self):
        # the complete graph on 24 vertices spans a 24-vertex clique
        edges = "".join(f"{u} {v}\n" for u in range(24) for v in range(u + 1, 24))
        with pytest.raises(ResourceBudgetError):
            parse_edge_list("graph\n" + edges)

    def test_header_required(self):
        with pytest.raises(InputError):
            parse_edge_list("1 2\n")

    def test_bad_pair(self):
        with pytest.raises(InputError) as exc:
            parse_edge_list("graph\n1 2 3\n")
        assert exc.value.lineno == 2

    def test_negative_id_names_its_line(self):
        with pytest.raises(InputError) as exc:
            parse_edge_list("graph\n1 2\n2 -3\n")
        assert exc.value.lineno == 3

    def test_self_loop_names_its_line(self):
        with pytest.raises(InputError) as exc:
            parse_edge_list("graph\n1 2\n3 3\n")
        assert exc.value.lineno == 3

    def test_autodetect(self):
        assert parse_complex("graph\n1 2\n").f_vector == (2, 1)
        assert parse_complex("1 2\n").f_vector == (2, 1)
