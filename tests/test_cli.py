import argparse
import contextlib
import io
import json

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from higherchar import linalg
from higherchar.cli import (
    COMMANDS,
    VERIFY_SUITES,
    _rows_json,
    build_command_parser,
    build_parser,
    main,
    parse_args,
    parse_set_token,
    random_open_set,
)
from higherchar.complexes import closure
from higherchar.errors import DomainError
from higherchar.files import save_complex
from higherchar.generators import SplitMix64, cross_polytope, cycle, path3, random_whitney
from higherchar.linalg import connection_matrix_via_cores, inverse
from higherchar.topology import barycentric, star

from strategies import random_complexes


def random_open_set_by_stars(g, rng):
    """The same draws as random_open_set, then the union of the chosen stars,
    one scan of g per chosen simplex."""
    n = len(g)
    if n == 0:
        return frozenset()
    idx = list(range(n))
    t = rng.below(n + 1)
    for i in range(t):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    members = set()
    for i in idx[:t]:
        members |= star(g, g.simplices[i]).members
    return frozenset(members)


@pytest.fixture
def octa_file(tmp_path):
    p = tmp_path / "octa.facets"
    save_complex(cross_polytope(2), p)
    return str(p)


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "p3.facets"
    save_complex(path3(), p)
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.strip()
    return rc, out


class TestInfo:
    def test_octahedron(self, capsys, octa_file):
        rc, out = run(capsys, ["info", octa_file, "--json"])
        assert rc == 0
        d = json.loads(out)
        assert d["f_vector"] == [6, 12, 8]
        assert d["w1"] == 2 and d["w2"] == 2

    def test_plain_output(self, capsys, path3_file):
        rc, out = run(capsys, ["info", path3_file])
        assert rc == 0 and "w2=-1" in out

    def test_path3(self, capsys, path3_file):
        rc, out = run(capsys, ["info", path3_file, "--json"])
        d = json.loads(out)
        assert d["w1"] == 1 and d["w2"] == -1

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "void.facets"
        p.write_text("")
        rc, out = run(capsys, ["info", str(p), "--json"])
        assert rc == 0
        d = json.loads(out)
        assert d["w1"] == d["w2"] == d["w3"] == 0

    def test_parse_error_exit_3(self, capsys, tmp_path):
        p = tmp_path / "bad.facets"
        p.write_text("1 2\noops\n")
        assert main(["info", str(p)]) == 3
        assert "line 2" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize(
        "suite,extra",
        [
            ("energy", ["-m", "2", "-k", "2"]),
            ("energy-ball", ["-m", "2", "-k", "1"]),
            ("sphere", ["-m", "1", "-k", "2"]),
            ("dual-sphere", ["-m", "1", "-k", "2"]),
            ("valuation", ["-m", "2", "--pairs", "25", "--seed", "3"]),
            ("local-valuation", ["-m", "2", "-k", "1"]),
            ("green-inverse", []),
            ("det-fermi", []),
            ("barycentric", ["-m", "2"]),
            ("product", ["-m", "2"]),
        ],
    )
    def test_suites_pass_on_octahedron(self, capsys, octa_file, suite, extra):
        rc, out = run(capsys, ["verify", suite, octa_file, "--json"] + extra)
        assert rc == 0, out
        for line in out.splitlines():
            assert json.loads(line)["pass"] is True

    def test_closed_counterexample_fails_with_exit_1(self, capsys, path3_file):
        rc, out = run(
            capsys,
            ["verify", "valuation", path3_file, "-m", "2", "--set-a", "core:1-2",
             "--set-b", "core:2-3", "--allow-closed", "--json"],
        )
        assert rc == 1
        d = json.loads(out)
        assert d["pass"] is False and d["lhs"] == -2 and d["rhs"] == 0

    def test_closed_sets_rejected_without_override(self, capsys, path3_file):
        rc = main(["verify", "valuation", path3_file, "-m", "2",
                   "--set-a", "core:1-2", "--set-b", "core:2-3"])
        assert rc == 3

    def test_threads_flag(self, capsys, octa_file):
        # verify has no --threads option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "energy", octa_file, "-m", "1", "--threads", "2"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_resource_exit_2(self, capsys, octa_file):
        rc = main(["verify", "dual-sphere", octa_file, "-m", "1", "-k", "3",
                   "--budget", "10"])
        assert rc == 2

    @pytest.mark.parametrize("budget,rc", [(121, 2), (122, 0)])
    def test_dual_sphere_budget_boundary(self, capsys, octa_file, budget, rc):
        # C(L+m, m) - 1 = 18 prefixes, with L = 18 octahedron simplices in a
        # unit sphere, plus 2k = 4 per simplex for the powers: 18 + 4 * 26
        assert main(["verify", "dual-sphere", octa_file, "-m", "1", "-k", "2",
                     "--budget", str(budget)]) == rc

    def test_dual_sphere_huge_k_exit_2(self, capsys, octa_file):
        # the powers F(Y)^k are charged k each, so a huge k is refused up front
        assert main(["verify", "dual-sphere", octa_file, "-m", "1", "-k", "1000000000"]) == 2
        assert "over the budget" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,m,want", [("energy", "1", 2), ("sphere", "2", 0)])
    def test_configuration_sum_huge_k_answered(self, capsys, octa_file, suite, m, want):
        # the k-point sum folds to one pass over G, charged |G| at every k
        rc, out = run(capsys, ["verify", suite, octa_file, "-m", m, "-k", "1000000000",
                               "--budget", "1000000", "--json"])
        d = json.loads(out)
        assert rc == 0 and d["lhs"] == d["rhs"] == want and d["pass"]

    def test_dual_sphere_huge_m_on_an_edge(self, capsys, tmp_path):
        # L = 2 covered simplices, so the walk is at most three levels deep at any m
        p = tmp_path / "edge.facets"
        p.write_text("1 2\n")
        rc, out = run(capsys, ["verify", "dual-sphere", str(p), "-m", "5000", "-k", "2",
                               "--json"])
        assert rc == 0 and json.loads(out)["rhs"] == 0

    @pytest.mark.parametrize(
        "suite,extra",
        [("det-fermi", []), ("green-inverse", []), ("local-valuation", ["-k", "2"]),
         ("local-valuation", ["-k", "1000000000"])],
    )
    def test_tiny_budget_exit_2(self, capsys, octa_file, suite, extra):
        rc = main(["verify", suite, octa_file, "--budget", "1"] + extra)
        assert rc == 2
        assert "over the budget 1" in capsys.readouterr().err

    def test_local_valuation_charges_configurations(self, capsys, octa_file):
        # the octahedron has 26 simplices: 26^2 = 676 configurations
        assert main(["verify", "local-valuation", octa_file, "-k", "2",
                     "--budget", "675"]) == 2
        assert main(["verify", "local-valuation", octa_file, "-k", "2",
                     "--budget", "676"]) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", ["1", "2"])
    @pytest.mark.parametrize("size", [1, 2], ids=["vertex", "edge"])
    def test_local_valuation_fails_on_a_wrong_sphere(self, capsys, monkeypatch, octa_file,
                                                     size, m, k):
        # S(z) of an octahedron vertex or edge is a 4-cycle; dropping one of
        # its edges from the sphere join fails the check of every
        # configuration with union z, and of no other
        import higherchar.characteristics as ch

        octa = cross_polytope(2)
        z = next(b for b in octa.masks if b.bit_count() == size)
        join = ch._join_at

        def dropped(zb, star, proper):
            s = join(zb, star, proper)
            if zb != z or not proper:
                return s
            edge = next(b for b in s if b.bit_count() == 2)
            return [b for b in s if b != edge]

        monkeypatch.setattr(ch, "_join_at", dropped)
        rc, out = run(capsys, ["verify", "local-valuation", octa_file, "-m", m,
                               "-k", str(k), "--json"])
        d = json.loads(out)
        assert rc == 1 and d["pass"] is False
        assert d["lhs"] == 26**k and d["rhs"] == d["lhs"] - ch._union_count(size, k)

    def test_det_fermi_reads_the_matrix_it_is_given(self, capsys, monkeypatch, octa_file):
        # Flip one off-diagonal entry of L where g(j, i) != 0, which moves
        # det L by +-g(j, i); the suite must report the flipped determinant.
        import higherchar.linalg as linalg
        from higherchar.characteristics import fermi

        octa = cross_polytope(2)
        green = linalg.green_matrix(octa)
        j = next(j for j in range(1, len(octa)) if green[j][0])
        want = linalg.connection_matrix(octa)
        want[0][j] = 1 - want[0][j]
        build = linalg._connection_rows

        def flipped(g):
            rows = build(g)
            if rows[0].pop(j, None) is None:
                rows[0][j] = 1
            return rows

        monkeypatch.setattr(linalg, "_connection_rows", flipped)
        rc, out = run(capsys, ["verify", "det-fermi", octa_file, "--json"])
        d = json.loads(out)
        assert d["lhs"] == linalg.det(want)
        assert d["lhs"] != fermi(octa) == d["rhs"]
        assert rc == 1

    def test_green_inverse_counts_dense_mismatches(self, capsys, monkeypatch, octa_file):
        import higherchar.linalg as linalg

        octa = cross_polytope(2)
        corrupted = linalg.green_matrix(octa)
        corrupted[3][5] += 2
        build = linalg._green_rows

        def corrupt(g):
            rows = build(g)
            x = rows[3].get(5, 0) + 2
            if x:
                rows[3][5] = x
            else:
                del rows[3][5]
            return rows

        prod = linalg.mat_mul(linalg.connection_matrix(octa), corrupted)
        want = sum(1 for i, row in enumerate(prod) for j, x in enumerate(row)
                   if x != (i == j))
        monkeypatch.setattr(linalg, "_green_rows", corrupt)
        rc, out = run(capsys, ["verify", "green-inverse", octa_file, "--json"])
        d = json.loads(out)
        assert want > 0 and d["rhs"] == want and d["lhs"] == 0
        assert rc == 1

    def test_green_inverse_reads_the_star_weights(self, capsys, monkeypatch, octa_file):
        # g is built from N(z); random star weights must break L * g = 1
        import random

        import higherchar.characteristics as ch

        real = ch._star_weights

        def scrambled(g):
            rng = random.Random(7)
            return {z: rng.randint(-5, 5) for z in real(g)}

        monkeypatch.setattr(ch, "_star_weights", scrambled)
        rc, out = run(capsys, ["verify", "green-inverse", octa_file, "--json"])
        d = json.loads(out)
        assert d["pass"] is False and d["rhs"] > 0
        assert rc == 1

    @pytest.mark.parametrize("corrupt", ["product", "product-refinement"])
    def test_each_product_report_fails_on_its_own(self, capsys, monkeypatch, octa_file,
                                                  corrupt):
        # Drop one maximal chain from G * H or from G * 1 alone: the Euler
        # characteristic w_1 of that complex moves by one, and only its report fails.
        from higherchar import product
        from higherchar.complexes import Complex

        build = product.topological_product

        def dropped(g, h):
            gh = build(g, h)
            if (h is product.POINT) != (corrupt == "product-refinement"):
                return gh
            return Complex._of_bits(gh.member_bits - {gh.facets()[-1].bits})

        monkeypatch.setattr(product, "topological_product", dropped)
        rc, out = run(capsys, ["verify", "product", octa_file, "-m", "1", "--json"])
        passed = {d["suite"]: d["pass"] for d in map(json.loads, out.splitlines())}
        assert passed == {"product": corrupt != "product",
                          "product-refinement": corrupt != "product-refinement"}
        assert rc == 1

    @pytest.mark.parametrize(
        "argv,flag",
        [(["valuation", "{octa}", "-m", "0", "--pairs", "0"], "-m"),
         (["valuation", "{octa}", "--pairs", "0"], "--pairs"),
         (["valuation", "{octa}", "-m", "2", "--pairs", "-3"], "--pairs"),
         (["product", "{cp3}", "-m", "0"], "-m"),
         (["barycentric", "{octa}", "-m", "-1"], "-m"),
         (["energy", "{octa}", "-k", "0"], "-k"),
         (["det-fermi", "{octa}", "-m", "0"], "-m"),
         (["green-inverse", "{octa}", "-m", "0"], "-m")],
    )
    def test_counts_below_one_exit_3_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                      octa_file, argv, flag):
        import higherchar.cli as cli

        def unreached(*args):
            raise AssertionError("complex-sized work before the argument check")

        for owner, name in ((cli.product, "topological_product"), (cli, "random_open_set"),
                            (cli.topology, "barycentric")):
            monkeypatch.setattr(owner, name, unreached)
        cp3 = tmp_path / "cp3.facets"
        save_complex(cross_polytope(3), cp3)
        files = {"octa": octa_file, "cp3": str(cp3)}
        assert main(["verify"] + [a.format(**files) for a in argv]) == 3
        assert f"error: {flag} must be at least 1" in capsys.readouterr().err

    def test_huge_facet_exit_2_at_once(self, capsys, tmp_path):
        import time

        p = tmp_path / "big.facets"
        p.write_text(" ".join(map(str, range(24))) + "\n")
        t0 = time.perf_counter()
        assert main(["info", str(p)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "faces, over the budget" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_memory_and_recursion_exit_2(self, capsys, monkeypatch, octa_file, exc):
        import higherchar.cli as cli

        def boom(args):
            raise exc()

        monkeypatch.setattr(cli, "cmd_info", boom)
        assert main(["info", octa_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("resource limit exceeded: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_digit_limit_exit_2(self, capsys, tmp_path, fmt):
        # w_10000 of random_whitney(12, 30, 1) has 4771 digits, more than
        # Python's default int-to-str limit of 4300
        p = tmp_path / "rw.facets"
        save_complex(random_whitney(12, 30, seed=1), p)
        assert main(["verify", "energy", str(p), "-m", "10000", "-k", "1"] + fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit exceeded: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["energy", "energy-ball", "sphere", "dual-sphere",
                                       "barycentric", "product"])
    def test_huge_m_charged_before_the_powers(self, capsys, tmp_path, suite):
        # 3**10**7 alone takes seconds; the charge refuses it before it is raised
        p = tmp_path / "rw.facets"
        save_complex(random_whitney(12, 30, seed=1), p)
        assert main(["verify", suite, str(p), "-m", "10000000", "-k", "1"]) == 2
        assert "to the power 10000000" in capsys.readouterr().err

    def test_powers_charged_against_the_budget_flag(self, capsys, tmp_path):
        p = tmp_path / "rw.facets"
        save_complex(random_whitney(12, 30, seed=1), p)
        assert main(["verify", "energy", str(p), "-m", "8000", "-k", "1",
                     "--budget", "1000"]) == 2
        assert "over the budget 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,budget", [
        (["local-valuation", "-m", "20000", "-k", "1"], "100000"),
        (["valuation", "-m", "20000", "--pairs", "2"], "100000"),
        (["valuation", "-m", "2000", "--set-a", "all", "--set-b", "star:1"], "10000"),
    ])
    def test_valuation_powers_charged_against_the_budget_flag(self, capsys, tmp_path, argv,
                                                              budget):
        # the per-union check and every w_m of the pairs charge their powers
        # against --budget, and answer as before at the default
        p = tmp_path / "rw.facets"
        save_complex(random_whitney(12, 30, seed=1), p)
        argv = ["verify", argv[0], str(p), *argv[1:]]
        assert main(argv + ["--budget", budget]) == 2
        assert f"over the budget {budget}" in capsys.readouterr().err
        assert main(argv) == 0

    def test_value_under_digit_limit_printed(self, capsys, tmp_path):
        p = tmp_path / "rw.facets"
        save_complex(random_whitney(12, 30, seed=1), p)
        rc, out = run(capsys, ["verify", "energy", str(p), "-m", "8000", "-k", "1", "--json"])
        d = json.loads(out)
        assert rc == 0 and d["pass"] is True
        assert d["lhs"] == d["rhs"] and len(str(abs(d["lhs"]))) == 3817


class TestBench:
    def test_values_agree_and_figures_reported(self, capsys, tmp_path):
        p = tmp_path / "g.facets"
        save_complex(random_whitney(10, 20, seed=2), p)
        for m in ("2", "3"):
            rc, out = run(capsys, ["bench", str(p), "-m", m, "--json"])
            assert rc == 0
            d = json.loads(out)
            assert d["equal"] is True
            assert d["value_naive"] == d["value_local"]
            assert d["ops_naive"] > 0 and d["ops_local"] > 0
            assert "speedup_time" in d and "speedup_ops" in d


class TestGenerateAndProduct:
    def test_generate_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "c5.facets"
        rc = main(["generate", "--kind", "cycle", "--n", "5", "-o", str(out_path)])
        assert rc == 0
        rc, out = run(capsys, ["info", str(out_path), "--json"])
        assert json.loads(out)["f_vector"] == [5, 5]

    def test_generate_seeded_stable(self, capsys, tmp_path):
        a = tmp_path / "a.facets"
        b = tmp_path / "b.facets"
        for p in (a, b):
            main(["generate", "--kind", "random_whitney", "--n", "9",
                  "--edges", "15", "--seed", "4", "-o", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_generate_bad_params_exit_3(self, capsys):
        assert main(["generate", "--kind", "cycle", "--n", "2"]) == 3

    @pytest.mark.parametrize(
        "args",
        [["--kind", "cross_polytope", "--d", "13"],
         ["--kind", "simplex", "--n", "21"],
         ["--kind", "random_whitney", "--n", "100000", "--edges", "1", "--seed", "1"]],
    )
    def test_generate_over_cap_exit_2(self, capsys, args):
        assert main(["generate"] + args) == 2
        assert "over the cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "barycentric", "{k8}", "-m", "1"],
         ["verify", "product", "{k6}", "-m", "1", "--right", "{k2}"],
         ["product", "{k5}", "{k5}"]],
    )
    def test_refinement_and_product_over_cap_exit_2(self, capsys, tmp_path, argv):
        # closed-form counts: bary(K8) has 1091669 simplices, K6 x K2 161073
        # and K5 x K5 38928961, each over the 2^17 cap
        files = {}
        for n in (2, 5, 6, 8):
            p = tmp_path / f"k{n}.facets"
            p.write_text(" ".join(map(str, range(1, n + 1))) + "\n")
            files[f"k{n}"] = str(p)
        assert main([a.format(**files) for a in argv]) == 2
        assert "over the cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,lines",
        [(["--kind", "cross_polytope", "--d", "1"], ["1 3", "1 4", "2 3", "2 4"]),
         (["--kind", "star", "--n", "4"], ["1 2", "1 3", "1 4"])],
    )
    def test_generate_to_stdout(self, capsys, args, lines):
        rc, out = run(capsys, ["generate"] + args)
        assert rc == 0 and out.splitlines() == lines

    def test_product_command(self, capsys, tmp_path):
        k2 = tmp_path / "k2.facets"
        main(["generate", "--kind", "simplex", "--n", "2", "-o", str(k2)])
        out_path = tmp_path / "sq.facets"
        rc = main(["product", str(k2), str(k2), "-o", str(out_path)])
        assert rc == 0
        rc, out = run(capsys, ["info", str(out_path), "--json"])
        d = json.loads(out)
        assert d["f_vector"][0] == 9 and d["w2"] == 1


class TestBetti:
    def test_closed(self, capsys, octa_file):
        rc, out = run(capsys, ["betti", octa_file, "--json"])
        assert rc == 0 and json.loads(out) == [1, 0, 1]

    def test_open_star(self, capsys, octa_file):
        rc, out = run(capsys, ["betti", octa_file, "--support", "star:1", "--json"])
        assert rc == 0 and json.loads(out) == [0, 0, 1]

    def test_relative_route(self, capsys, octa_file):
        rc, out = run(capsys, ["betti", octa_file, "--support", "star:1",
                               "--relative", "--json"])
        assert rc == 0 and json.loads(out) == [0, 0, 1]

    def test_empty_support(self, capsys, octa_file):
        rc, out = run(capsys, ["betti", octa_file, "--support", "none", "--json"])
        assert rc == 0 and json.loads(out) == []
        rc, out = run(capsys, ["betti", octa_file, "--support", "none"])
        assert rc == 0 and out == "(empty)"

    def test_core_support(self, capsys, octa_file):
        rc, out = run(capsys, ["betti", octa_file, "--support", "core:1-3", "--json"])
        assert rc == 0 and json.loads(out) == [1, 0]

    def test_relative_refuses_closed_support(self, capsys, octa_file):
        rc = main(["betti", octa_file, "--support", "core:1-3", "--relative", "--json"])
        cap = capsys.readouterr()
        assert rc == 3 and cap.out == ""
        assert cap.err == "error: betti_relative expects an open set\n"


class TestRecognize:
    def test_sphere_yes(self, capsys, octa_file):
        rc, out = run(capsys, ["recognize", octa_file, "--what", "sphere",
                               "--d", "2", "--json"])
        assert rc == 0
        d = json.loads(out)
        assert d["verdict"] == "yes" and d["calls_used"] > 0

    def test_no_gives_exit_1(self, capsys, path3_file):
        rc, out = run(capsys, ["recognize", path3_file, "--what", "manifold",
                               "--d", "1", "--json"])
        assert rc == 1

    def test_unknown_gives_exit_2(self, capsys, octa_file):
        # chi = 2 passes the sphere test of dimension 2, whose search needs 23 calls
        rc, out = run(capsys, ["recognize", octa_file, "--what", "sphere", "--d", "2",
                               "--budget", "2", "--json"])
        assert rc == 2

    @pytest.mark.parametrize(
        "what,verdict,rc",
        [("ball", "no", 1), ("manifold-with-boundary", "yes", 0),
         ("dehn-sommerville", "yes", 0)],
    )
    def test_octahedron_verdicts(self, capsys, octa_file, what, verdict, rc):
        got, out = run(capsys, ["recognize", octa_file, "--what", what, "--d", "2", "--json"])
        assert got == rc and json.loads(out)["verdict"] == verdict


class TestMatrix:
    def test_connection_dump(self, capsys, tmp_path):
        p = tmp_path / "k2.facets"
        main(["generate", "--kind", "simplex", "--n", "2", "-o", str(p)])
        rc, out = run(capsys, ["matrix", str(p), "--which", "connection"])
        assert rc == 0
        assert json.loads(out) == [[1, 0, 1], [0, 1, 1], [1, 1, 1]]

    def test_isospectral_report_never_asserts(self, capsys, tmp_path):
        p = tmp_path / "k2.facets"
        main(["generate", "--kind", "simplex", "--n", "2", "-o", str(p)])
        rc, out = run(capsys, ["matrix", str(p), "--which", "isospectral"])
        assert rc == 0
        d = json.loads(out)
        assert d["equal"] is False  # reported, not an error

    @pytest.mark.parametrize(
        "g,which",
        [(cross_polytope(4), "charpoly-connection"), (cross_polytope(4), "charpoly-green"),
         (cycle(80), "isospectral")],
    )
    def test_charpoly_charged_before_any_matrix(self, capsys, monkeypatch, tmp_path, g, which):
        # n^4 > 10^9 from n = 178 (242 simplices here); isospectral is charged
        # 2 n^4, over it from n = 150 (160 simplices here)
        p = tmp_path / "g.facets"
        save_complex(g, p)
        monkeypatch.setattr("higherchar.linalg.connection_matrix", None)
        monkeypatch.setattr("higherchar.linalg.green_matrix", None)
        assert main(["matrix", str(p), "--which", which]) == 2
        assert "over the budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which,want",
        [("green", [[0, -1, 1], [-1, 0, 1], [1, 1, -1]]),
         ("charpoly-connection", [1, -3, 1, 1]),
         ("charpoly-green", [1, 1, -3, 1])],
    )
    def test_k2_dumps(self, capsys, tmp_path, which, want):
        p = tmp_path / "k2.facets"
        main(["generate", "--kind", "simplex", "--n", "2", "-o", str(p)])
        rc, out = run(capsys, ["matrix", str(p), "--which", which])
        assert rc == 0 and json.loads(out) == want

    @given(random_complexes())
    @settings(max_examples=25, deadline=None)
    def test_dumps_match_core_oracle_and_its_inverse(self, tmp_path_factory, g):
        # neither oracle shares a row builder with the printed rows
        p = tmp_path_factory.mktemp("matrix") / "g.facets"
        save_complex(g, p)
        rc, out = main_stdout(["matrix", str(p), "--which", "connection"])
        assert rc == 0
        ell = connection_matrix_via_cores(g)
        assert json.loads(out) == ell
        rc, out = main_stdout(["matrix", str(p), "--which", "green"])
        assert rc == 0 and json.loads(out) == inverse(ell)

    @pytest.mark.parametrize("which", ["connection", "green"])
    def test_empty_complex_exits_3(self, capsys, tmp_path, which):
        p = tmp_path / "void.facets"
        p.write_text("")
        assert main(["matrix", str(p), "--which", which]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "empty complex" in captured.err

    @pytest.mark.parametrize("which", ["connection", "green"])
    def test_over_the_dense_cap_exits_2(self, capsys, monkeypatch, octa_file, which):
        monkeypatch.setattr("higherchar.linalg.MAX_DENSE_SIZE", 25)  # the octahedron has 26
        assert main(["matrix", octa_file, "--which", which]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "capped at 25 rows, got 26" in captured.err

    def test_green_prints_the_rows_it_builds(self, capsys, monkeypatch, octa_file):
        rc, out = run(capsys, ["matrix", octa_file, "--which", "green"])
        assert rc == 0
        want = json.loads(out)
        i, j = 3, len(want) - 1
        build = linalg._green_rows

        def corrupted(g):
            rows = build(g)
            rows[i] = {**rows[i], j: rows[i].get(j, 0) - 1000}
            return rows

        monkeypatch.setattr("higherchar.linalg._green_rows", corrupted)
        rc, out = run(capsys, ["matrix", octa_file, "--which", "green"])
        assert rc == 0
        got = json.loads(out)
        want[i][j] -= 1000
        assert got == want

    @pytest.mark.parametrize("which", ["connection", "green"])
    def test_printed_without_a_dense_matrix(self, capsys, monkeypatch, octa_file, which):
        rc, want = run(capsys, ["matrix", octa_file, "--which", which])
        assert rc == 0
        for name in ("_densify", "connection_matrix", "green_matrix"):
            monkeypatch.setattr(f"higherchar.linalg.{name}", None)
        assert run(capsys, ["matrix", octa_file, "--which", which]) == (0, want)


def main_stdout(argv):
    """Exit code and stdout of one CLI run, without a function-scoped fixture."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def densify(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


@st.composite
def sparse_square_rows(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    entries = st.dictionaries(st.integers(0, n - 1), st.integers(-10**12, 10**12))
    return draw(st.lists(entries, min_size=n, max_size=n)), n


class TestRowsJson:
    @given(sparse_square_rows())
    @example(([{}], 1))
    @example(([{0: -7}], 1))
    @example(([{}, {}, {}], 3))
    @example(([{2: -123456789}, {}, {0: 10**30, 1: 0}], 3))
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps_of_the_dense_matrix(self, drawn):
        rows, n = drawn
        assert _rows_json(rows, n) == json.dumps(densify(rows, n))

    def test_no_rows(self):
        assert _rows_json([], 0) == json.dumps([])

    @pytest.mark.parametrize(
        "g", [cross_polytope(1), cross_polytope(2), barycentric(cross_polytope(2))],
        ids=["cp:1", "octahedron", "bary:cp:2"],
    )
    @pytest.mark.parametrize("build", [linalg._connection_rows, linalg._green_rows],
                             ids=["connection", "green"])
    def test_real_rows(self, g, build):
        rows = build(g)
        assert _rows_json(rows, len(g)) == json.dumps(densify(rows, len(g)))


# argv that parse; the files need not exist, as only the parsing is checked
VALID_ARGV = [
    ["info", "g.facets"],
    ["info", "g.facets", "--json"],
    ["info", "--js", "g.facets"],  # abbreviated long option
    ["info", "--", "g.facets"],
    ["verify", "energy", "g.facets", "-m", "2", "-k3", "--bud", "7", "--json"],
    ["verify", "valuation", "g.facets", "--set-a", "star:1", "--set-b", "core:2",
     "--allow-closed", "--pairs", "5", "--seed", "4"],
    ["verify", "product", "g.facets", "--right", "h.facets"],
    ["bench", "g.facets", "-m", "3"],
    ["generate", "--kind", "random_whitney", "--n", "9", "--edges", "12", "--seed", "1",
     "-o", "x.facets"],
    ["product", "g.facets", "h.facets", "--output", "x.facets"],
    ["betti", "g.facets", "--support", "none", "--relative"],
    ["recognize", "g.facets", "--what", "ball", "--d", "2", "--budget", "9"],
    ["matrix", "g.facets", "--which", "charpoly-green", "--json"],
]
USAGE_ERRORS = [
    ["verify", "energy", "g.facets", "-m", "two"],  # bad int
    ["verify", "no-such-suite", "g.facets"],  # bad choice
    ["recognize", "g.facets", "--what", "torus"],  # bad choice
    ["bench", "g.facets", "-m", "4"],  # int not among the choices
    ["bench", "g.facets"],  # missing required option
    ["info"],  # missing positional
    ["product", "g.facets"],  # missing positional
    ["info", "g.facets", "--bogus"],  # unknown flag
    ["info", "g.facets", "extra"],  # extra positional
    ["info", "g.facets", "--", "--json"],
    ["nope", "g.facets"],  # unknown command
    ["INFO", "g.facets"],
    ["--json", "info"],
    [],
]
HELP_ARGV = [["-h"], ["--help"], ["info", "-h"], ["verify", "--help"],
             ["verify", "energy", "g.facets", "--he"]]


def parsed(capsys, parse, argv):
    """The Namespace less its ``command``, or the exit code, with the output."""
    try:
        got = {k: v for k, v in vars(parse(argv)).items() if k != "command"}
    except SystemExit as exc:
        got = exc.code
    cap = capsys.readouterr()
    return got, cap.out, cap.err


class TestParser:
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_parser_help_is_the_subparser_help(self, name):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        assert list(subparsers) == list(COMMANDS)
        assert build_command_parser(name).format_help() == subparsers[name].format_help()

    @pytest.mark.parametrize("argv", VALID_ARGV + USAGE_ERRORS + HELP_ARGV, ids=" ".join)
    def test_one_command_parser_parses_as_the_full_parser(self, capsys, argv):
        want = parsed(capsys, build_parser().parse_args, argv)
        got = parsed(capsys, parse_args, argv)
        assert got == want
        if argv in VALID_ARGV:
            assert got[0]["fn"].__name__ == f"cmd_{argv[0]}"

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_errors_exit_3(self, capsys, argv):
        # not 2, the code of an exceeded resource budget
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("higherchar")

    @pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: higherchar")
        if len(argv) == 1:
            assert "{" + ",".join(COMMANDS) + "}" in out
        if argv[0] == "verify":
            assert "{" + ",".join(VERIFY_SUITES) + "}" in out

    @staticmethod
    def count_parsers(monkeypatch):
        """The prog of every ArgumentParser constructed from now on."""
        seen = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            seen.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return seen

    @staticmethod
    def clear_parsers():
        build_parser.cache_clear()
        build_command_parser.cache_clear()

    @pytest.mark.parametrize("argv,built", [
        (["info", "{f}", "--json"], ["higherchar info"]),
        (["info", "{f}", "--bogus"], ["higherchar info", "higherchar"] +
         [f"higherchar {name}" for name in COMMANDS]),
    ])
    def test_parsers_built_once_then_none(self, capsys, monkeypatch, octa_file, argv, built):
        seen = self.count_parsers(monkeypatch)
        argv = [a.format(f=octa_file) for a in argv]
        # cold, warm, and cold again after cache_clear()
        for clear, want in ((True, built), (False, []), (True, built)):
            if clear:
                self.clear_parsers()
            del seen[:]
            try:
                main(argv)
            except SystemExit:
                pass
            assert seen == want

    def test_handler_patched_after_memo_is_called(self, capsys, monkeypatch, octa_file):
        import higherchar.cli as cli

        assert main(["info", octa_file]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_info", lambda args: calls.append(args.complex) or 1)
        assert main(["info", octa_file]) == 1
        assert calls == [octa_file]

    @pytest.mark.parametrize("first,second,want", [
        (["verify", "energy", "g.facets", "-m", "3", "-k", "2"],
         ["verify", "energy", "g.facets"], {"m": 1, "k": 1}),
        (["betti", "g.facets", "--relative"], ["betti", "g.facets"], {"relative": False}),
    ])
    def test_nothing_leaks_between_calls(self, first, second, want):
        parse_args(first)
        args = parse_args(second)
        assert {k: getattr(args, k) for k in want} == want

    @pytest.mark.parametrize("argv", USAGE_ERRORS + HELP_ARGV, ids=" ".join)
    def test_warm_parser_output_is_identical(self, capsys, argv):
        def once():
            with pytest.raises(SystemExit) as exc:
                main(argv)
            cap = capsys.readouterr()
            return exc.value.code, cap.out, cap.err

        self.clear_parsers()
        cold = once()
        assert once() == cold
        assert once() == cold


class TestSetTokens:
    def test_tokens(self):
        g = closure([{1, 2}])
        assert len(parse_set_token(g, "all")) == 3
        assert len(parse_set_token(g, "none")) == 0
        assert len(parse_set_token(g, "star:1")) == 2
        assert len(parse_set_token(g, "core:1-2")) == 3
        with pytest.raises(Exception):
            parse_set_token(g, "bogus")

    def test_star_token_is_union_of_stars(self):
        g = cross_polytope(2)
        u = parse_set_token(g, "star:1,2-3")
        assert u.members == star(g, [1]).members | star(g, [2, 3]).members
        with pytest.raises(DomainError):
            parse_set_token(g, "star:1,99")

    @given(random_complexes(), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_open_set_matches_per_star_loop(self, g, seed):
        rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
        for _ in range(3):
            assert random_open_set(g, rng).members == random_open_set_by_stars(g, oracle_rng)
            assert rng.state == oracle_rng.state

    def test_random_open_set_is_open(self):
        g = random_whitney(6, 9, seed=1)
        rng = SplitMix64(0)
        for _ in range(20):
            assert random_open_set(g, rng).is_open_set()
