"""Every operation-budget refusal goes through ``errors.charge``: each site
refuses at budget = cost - 1 and answers at budget = cost, and every refusal
reads ``<stage> would cost <n> <unit>, over the budget <b>``."""

import json
import re
import time

import pytest

from higherchar import linalg
from higherchar.characteristics import (
    InteractionFunction,
    _wm_naive_bits,
    dual_sphere_sum,
    energy_sum,
    w_m,
    w_m_energized,
    w_m_naive,
)
from higherchar.cli import main
from higherchar.complexes import Complex, Simplex, closure
from higherchar.errors import ResourceBudgetError, charge, charge_tuples
from higherchar.files import save_complex
from higherchar.generators import cross_polytope, path3, random_whitney

from oracles import generate_topology

MESSAGE = re.compile(r"^.+ would cost \d+ \S.*, over the budget -?\d+$")

OCTA = cross_polytope(2)
RW = random_whitney(12, 30, seed=1)
POINT = closure([[1]])

# (site, cost, run at a budget); the octahedron has 26 simplices, all with
# N(z) = 1, and 12 edges and 8 triangles, so one face pass is 12*2 + 8*3 = 48
LIBRARY_SITES = [
    # N takes the values -3 and -2 besides -1, 0, 1: two powers of 3**10 each
    ("powers", 2 * 3**10, lambda b: w_m(RW, 8000, op_budget=b)),
    ("naive", 26**2, lambda b: w_m_naive(OCTA, 2, op_budget=b)),
    ("energized", 26**2,
     lambda b: w_m_energized(OCTA, InteractionFunction.default(2), op_budget=b)),
    # the one tuple of a lone member holds m entries
    ("energized point", 1000,
     lambda b: w_m_energized(POINT, InteractionFunction.default(1000), op_budget=b)),
    ("fold", 26, lambda b: energy_sum(OCTA, 1, 1000, op_budget=b)),
    # C(18 + 1, 1) - 1 prefixes plus 2k = 4 per simplex
    ("dual sphere", 18 + 4 * 26, lambda b: dual_sphere_sum(OCTA, 1, 2, op_budget=b)),
    ("det face passes", 2 * 48,
     lambda b: linalg.det_via_faces(OCTA, linalg.connection_matrix(OCTA), op_budget=b)),
    ("mul face passes", 4 * 48,
     lambda b: linalg.mat_mul_via_faces(OCTA, linalg.connection_matrix(OCTA),
                                        linalg.green_matrix(OCTA), op_budget=b)),
    ("closing one simplex", 2**7 - 1, lambda b: closure([range(7)], simplex_budget=b)),
    # 7 + 15 faces, the vertex 3 shared
    ("closure", 21, lambda b: closure([[1, 2, 3], [3, 4, 5, 6]], simplex_budget=b)),
    ("topology", 13, lambda b: generate_topology(path3(), budget=b)),
]


@pytest.mark.parametrize("site,cost,run", LIBRARY_SITES, ids=[s[0] for s in LIBRARY_SITES])
def test_library_site_refuses_below_its_cost(site, cost, run):
    with pytest.raises(ResourceBudgetError) as exc:
        run(cost - 1)
    assert f" would cost {cost} " in str(exc.value)
    run(cost)


@pytest.fixture
def octa_file(tmp_path):
    p = tmp_path / "octa.facets"
    save_complex(OCTA, p)
    return str(p)


TRIANGLE = closure([[1, 2, 3]])


def _saved(g, tmp_path):
    path = tmp_path / f"{len(g)}.facets"
    save_complex(g, path)
    return str(path)


# (site, cost, argv), each complex in argv saved to a file first.  The sum of
# 2^|y| over the octahedron is 6*2 + 12*4 + 8*8 = 124, and each random open
# pair is charged four face passes of at most 2 * 124 steps.  The closed
# triangle has 3 vertex stars of 4 members, 3 edge stars of 2 and one of 1:
# at m = 2 its local bench path runs 61 tuples, more than the naive 7**2 = 49.
CLI_SITES = [
    ("local-valuation", 26**2, ["verify", "local-valuation", OCTA, "-m", "2", "-k", "2"]),
    ("valuation", 20 * 8 * 124, ["verify", "valuation", OCTA, "-m", "2", "--pairs", "20"]),
    ("det-fermi", 2 * 48, ["verify", "det-fermi", OCTA]),
    ("green-inverse", 4 * 48, ["verify", "green-inverse", OCTA]),
    ("bench", 3 * 4**2 + 3 * 2**2 + 1, ["bench", TRIANGLE, "-m", "2"]),
]


@pytest.mark.parametrize("site,cost,argv", CLI_SITES, ids=[s[0] for s in CLI_SITES])
def test_cli_site_exits_2_below_its_cost(capsys, tmp_path, site, cost, argv):
    argv = [_saved(a, tmp_path) if isinstance(a, Complex) else a for a in argv]
    assert main(argv + ["--budget", str(cost - 1)]) == 2
    err = capsys.readouterr().err.strip()
    prefix = "resource budget exceeded: "
    assert err.startswith(prefix) and MESSAGE.match(err[len(prefix):])
    assert main(argv + ["--budget", str(cost)]) == 0


def test_bench_budget_bounds_the_naive_path(capsys, octa_file):
    # on the octahedron at m = 2 the local path runs 602 tuples, the naive 676
    assert main(["bench", octa_file, "-m", "2", "--budget", "675"]) == 2
    assert capsys.readouterr().err.strip().endswith(
        "naive w_2 of 26 simplices would cost 676 tuples, over the budget 675")
    assert main(["bench", octa_file, "-m", "2", "--budget", "676"]) == 0


def test_charpoly_refused_at_178_simplices(capsys, tmp_path):
    # a path on 89 vertices and a lone vertex: 89 + 88 + 1 = 178 simplices,
    # and 178**4 is over the default budget of 10**9 (177**4 is not)
    p = tmp_path / "path.facets"
    p.write_text("".join(f"{v} {v + 1}\n" for v in range(1, 89)) + "90\n")
    t0 = time.perf_counter()
    assert main(["matrix", str(p), "--which", "charpoly-connection"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err.strip()
    assert err.endswith(f"of 178 simplices would cost {178**4} steps, over the budget {10**9}")


def test_every_refusal_reads_one_form():
    for run in (lambda: charge("stage", 2, 1),
                lambda: charge("stage", 2, -1, "faces"),
                lambda: charge_tuples("tuples", 26, 10**8, 10**9, "tuples"),
                lambda: charge_tuples("tuples", 2, 5, -3, "tuples"),
                lambda: charge_tuples("tuples", 2, 2, -3, "tuples")):
        with pytest.raises(ResourceBudgetError) as exc:
            run()
        assert MESSAGE.match(str(exc.value)), str(exc.value)
    for site, cost, run in LIBRARY_SITES:
        with pytest.raises(ResourceBudgetError) as exc:
            run(0)
        assert MESSAGE.match(str(exc.value)), site


def test_charge_without_a_budget_never_refuses():
    charge("stage", 10**100, None)
    charge_tuples("stage", 10**6, 10**9, None, "tuples")


def test_huge_m_refused_before_the_power():
    # 26**(10**8) would take seconds to form; 2**30 > 10**9 bounds it from below
    for run in (lambda: w_m_naive(OCTA, 10**8),
                lambda: w_m_energized(OCTA, InteractionFunction.default(10**8))):
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="would cost 1073741824 tuples or more"):
            run()
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("g", [Complex.empty(), POINT], ids=["void", "point"])
def test_at_most_one_simplex_is_free(g):
    for m in (1, 2, 5):
        assert w_m_naive(g, m, op_budget=0) == w_m_naive(g, m, op_budget=-1) == len(g)
        # energized builds the point's one tuple, of m entries, and charges them
        assert w_m_energized(g, InteractionFunction.default(m), op_budget=len(g) * m) == len(g)


LONE_MEMBERS = [[], [Simplex((1,))], [Simplex((1, 2))], [Simplex((1, 2, 3))]]


@pytest.mark.parametrize("a", LONE_MEMBERS, ids=["void", "vertex", "edge", "triangle"])
def test_at_most_one_member_is_w_to_the_m(a):
    # the literal tuple walk, which the naive sum skips for at most one member
    for m in range(1, 8):
        want = _wm_naive_bits([s.bits for s in a], m)
        assert w_m_naive(a, m) == w_m_energized(a, InteractionFunction.default(m)) == want


@pytest.mark.parametrize("a", LONE_MEMBERS, ids=["void", "vertex", "edge", "triangle"])
def test_huge_m_on_at_most_one_member_takes_no_time(a):
    # a walk of m levels, or one tuple of m entries, would take seconds here
    t0 = time.perf_counter()
    assert w_m_naive(a, 10**8) == len(a)  # m is even
    if a:
        with pytest.raises(ResourceBudgetError, match="would cost 1000000 tuple entries"):
            w_m_energized(a, InteractionFunction.default(10**6), op_budget=10**6 - 1)
    else:
        assert w_m_energized(a, InteractionFunction.default(10**8)) == 0
    assert time.perf_counter() - t0 < 1.0


def test_budget_0_refuses_two_simplices():
    g = closure([[1], [2]])
    with pytest.raises(ResourceBudgetError):
        w_m_naive(g, 1, op_budget=0)
    with pytest.raises(ResourceBudgetError):
        w_m_energized(g, InteractionFunction.default(1), op_budget=0)
    assert w_m_naive(g, 1, op_budget=2) == 2


def test_local_valuation_on_a_point_answers_any_budget(capsys, tmp_path):
    p = tmp_path / "pt.facets"
    p.write_text("1\n")
    for budget in ("0", "-1"):
        assert main(["verify", "local-valuation", str(p), "-k", "1000", "--budget", budget]) == 0


def test_bench_reports_the_nominal_tuple_counts(capsys, octa_file):
    # |G|^3 = 26^3; each of the 6 vertex stars has 9 members, each of the
    # 12 edge stars 3 and each of the 8 triangle stars 1
    assert main(["bench", octa_file, "-m", "3", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["ops_naive"] == 26**3 == 17576
    assert d["ops_local"] == 6 * 9**3 + 12 * 3**3 + 8 == 4706
    assert d["speedup_ops"] == round(17576 / 4706, 3)
