import json

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.cli import main, parse_set_token, random_open_set
from higherchar.complexes import closure
from higherchar.errors import DomainError
from higherchar.files import save_complex
from higherchar.generators import SplitMix64, cross_polytope, path3, random_whitney
from higherchar.topology import star

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
        rc, out = run(capsys, ["verify", "energy", octa_file, "-m", "1", "-k", "2",
                               "--threads", "3", "--json"])
        assert rc == 0

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

    def test_det_fermi_reads_the_matrix_it_is_given(self, capsys, monkeypatch, octa_file):
        # Flip one off-diagonal entry of L where g(j, i) != 0, which moves
        # det L by +-g(j, i); the suite must report the flipped determinant.
        import higherchar.linalg as linalg
        from higherchar.characteristics import fermi

        octa = cross_polytope(2)
        green = linalg.green_matrix(octa)
        j = next(j for j in range(1, len(octa)) if green[j][0])
        build = linalg.connection_matrix

        def flipped(g):
            mat = build(g)
            mat[0][j] = 1 - mat[0][j]
            return mat

        monkeypatch.setattr(linalg, "connection_matrix", flipped)
        rc, out = run(capsys, ["verify", "det-fermi", octa_file, "--json"])
        d = json.loads(out)
        assert d["lhs"] == linalg.det(flipped(octa))
        assert d["lhs"] != fermi(octa) == d["rhs"]
        assert rc == 1

    def test_green_inverse_counts_dense_mismatches(self, capsys, monkeypatch, octa_file):
        import higherchar.linalg as linalg

        octa = cross_polytope(2)
        build = linalg.green_matrix

        def corrupted(g):
            mat = build(g)
            mat[3][5] += 2
            return mat

        monkeypatch.setattr(linalg, "green_matrix", corrupted)
        prod = linalg.mat_mul(linalg.connection_matrix(octa), corrupted(octa))
        want = sum(1 for i, row in enumerate(prod) for j, x in enumerate(row)
                   if x != (i == j))
        rc, out = run(capsys, ["verify", "green-inverse", octa_file, "--json"])
        d = json.loads(out)
        assert want > 0 and d["rhs"] == want and d["lhs"] == 0
        assert rc == 1

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
        rc, out = run(capsys, ["recognize", octa_file, "--what", "contractible",
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
