"""The fault-injection matrix: which CLI check sees a wrong value of which
function.

Every function defined at the top level of the computing modules
(``MODULES``) is wrapped so that its return value is perturbed by +1: an
int becomes the int plus 1, and a dict, a list or a tuple (a namedtuple and
a sparse row included) has its first value or entry perturbed so, in turn.
Any other value (a bool, None, a complex, a generator) is left as it is.
The wrapper replaces the function in every package module that holds it.

Each check of ``CHECKS`` runs in-process through ``cli.main`` on each
complex of ``COMPLEXES``, every ``cache_clear`` table of the package
emptied before each run: once unperturbed, to record its exit code and the
functions whose return value it perturbs, then once per such function with
that one perturbed.  A cell, one (function, check) pair, *runs* when some
complex perturbed a value of the function in the check; it is *flipped*
when some such run's exit code differs from the unperturbed one (a raised
exception counts as a different code), and *blind* otherwise.

Each blind cell is pinned in ``BLIND`` with its class: inherent (the
identity cannot see the fault, and why), an open ROADMAP item, or benign
(the value does not reach a verdict).  A new blind cell fails the test, and
so does a pinned cell that flips: closing a cell is a declared edit here.

Run as a script, it prints the matrix:

    PYTHONPATH=src python tests/test_fault_matrix.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

import higherchar.cli as cli
from higherchar.files import save_complex
from higherchar.generators import cross_polytope, random_whitney

MODULES = ("characteristics", "linalg", "cohomology", "topology", "complexes", "product")

COMPLEXES = {"cp(2)": cross_polytope(2), "rw:12:30:1": random_whitney(12, 30, 1)}

# check name -> argv, the complex's file in place of "{g}"
CHECKS = {
    "energy": ["verify", "energy", "{g}", "-m", "2", "-k", "2"],
    "energy-ball": ["verify", "energy-ball", "{g}", "-m", "2", "-k", "2"],
    "sphere": ["verify", "sphere", "{g}", "-m", "2", "-k", "2"],
    "dual-sphere -k 1": ["verify", "dual-sphere", "{g}", "-m", "2", "-k", "1"],
    "dual-sphere -k 2": ["verify", "dual-sphere", "{g}", "-m", "2", "-k", "2"],
    "valuation": ["verify", "valuation", "{g}", "-m", "2", "--pairs", "20", "--seed", "1"],
    "local-valuation": ["verify", "local-valuation", "{g}", "-m", "2", "-k", "2"],
    "green-inverse": ["verify", "green-inverse", "{g}"],
    "det-fermi": ["verify", "det-fermi", "{g}"],
    "barycentric": ["verify", "barycentric", "{g}", "-m", "2"],
    "product": ["verify", "product", "{g}", "-m", "2"],
    "bench": ["bench", "{g}", "-m", "2"],
    "recognize sphere": ["recognize", "{g}", "--what", "sphere", "--d", "2"],
}

_STAR = "open item 1A: the suite folds one star table into both of its sides"
_SHIFT = "inherent: a shift of every w_m by one constant cancels in the identity"
_SAME_TERMS = ("inherent: G and G' have the same (N, C) terms, in the same order here,"
               " so the fault shifts both sides alike")

# (class, functions, checks): each (function, check) pair of a row is a
# blind cell, and the rows list every cell that no run sees
BLIND_ROWS = [
    (_STAR, {"characteristics._star_weights", "characteristics._star_weight_table",
             "characteristics._star_wm", "characteristics._powers"},
     {"energy", "energy-ball", "sphere", "dual-sphere -k 1"}),
    (_STAR, {"characteristics._fold"}, {"energy", "energy-ball"}),
    ("open item 1B: each k >= 2 term is 0 by the cone lemma, whatever the weights",
     {"characteristics._weight_of_bits"}, {"dual-sphere -k 2"}),
    ("open item 2: the outside class absorbs an over-count of c(s, k)",
     {"characteristics._union_count"}, {"local-valuation"}),
    (_SHIFT, {"characteristics.w_m", "characteristics._eval_terms"},
     {"valuation", "barycentric"}),
    (_SAME_TERMS, {"characteristics._terms", "characteristics._powers"}, {"barycentric"}),
    ("inherent: the first mask, vertex 1, drops out of every subset, and A - {v} is"
     " open when A is", {"characteristics._face_table", "characteristics._build_face_table"},
     {"valuation"}),
    ("benign: linalg reads the face table's passes, not its masks",
     {"characteristics._face_table", "characteristics._build_face_table"},
     {"det-fermi", "green-inverse"}),
    ("inherent: a row operation aimed at another row still has determinant 1",
     {"linalg._face_passes"}, {"det-fermi"}),
    ("inherent: every simplex read gains vertex 0, so the suite checks the cone over G,"
     " where its identity holds too", {"complexes._mask"},
     {"energy", "energy-ball", "sphere", "dual-sphere -k 1", "dual-sphere -k 2",
      "valuation", "local-valuation", "green-inverse", "det-fermi", "barycentric", "bench"}),
    ("benign: a sort key whose first entry, the size, shifts alike for every mask",
     {"complexes._mask_key"},
     {"valuation", "green-inverse", "det-fermi", "barycentric", "product", "recognize sphere"}),
    ("benign: the span only filters the vertex passes, and vertex 0 is no vertex here;"
     " the outside class's union stays outside G", {"complexes._vertex_mask"},
     {"valuation", "local-valuation"}),
    ("benign: a budget pre-check; one more simplex stays under the cap",
     {"product.product_simplex_count"}, {"barycentric", "product"}),
    ("benign: the certificate's text, which no exit code reads",
     {"complexes.vertices_of"}, {"recognize sphere"}),
]
BLIND = {(f, check): cls for cls, fs, checks in BLIND_ROWS for f in fs for check in checks}


def _perturbed(v):
    """v with +1 at its first int, found through first values and entries;
    None when there is none (a bool is not an int here)."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v + 1
    if isinstance(v, dict) and v:
        first = next(iter(v))
        new = _perturbed(v[first])
        return None if new is None else {**v, first: new}
    if isinstance(v, (list, tuple)) and v:
        new = _perturbed(v[0])
        if new is None:
            return None
        items = [new, *v[1:]]
        if isinstance(v, list):
            return items
        return v._make(items) if hasattr(v, "_make") else tuple(items)
    return None


def _package_modules():
    """Every loaded module of the package, each body run."""
    for name in ("higherchar.cli", "higherchar.files", "higherchar.generators",
                 "higherchar.recognizers", *(f"higherchar.{m}" for m in MODULES)):
        importlib.import_module(name).__dict__  # reading it runs a lazily loaded body
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "higherchar" or name.startswith("higherchar.")]


def _targets():
    """(module.function, function) for the top-level functions of MODULES,
    plain or cached."""
    out = []
    for m in MODULES:
        mod = importlib.import_module(f"higherchar.{m}")
        for name, obj in vars(mod).items():
            plain = isinstance(obj, types.FunctionType)
            cached = hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__")
            if (plain or cached) and getattr(obj, "__module__", None) == mod.__name__:
                out.append((f"{m}.{name}", obj))
    return out


def _run(argv) -> int | str:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:  # a crash is seen as surely as an exit code
            return f"raised {type(exc).__name__}"


def fault_matrix() -> dict:
    """{(function, check): "flipped" or "blind"} for every cell that runs,
    with the run count, the unperturbed exit codes and the time taken."""
    t0 = time.perf_counter()
    modules = _package_modules()
    tables = [obj for mod in modules for obj in vars(mod).values()
              if callable(getattr(obj, "cache_clear", None))]
    state = {"target": None, "seen": set()}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            new = _perturbed(out)
            if new is None:
                return out
            if state["target"] is None:
                state["seen"].add(name)
                return out
            return new if state["target"] == name else out

        wrapper.__name__ = fn.__name__
        return wrapper

    cells: dict = {}
    base: dict = {}
    runs = 0
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        files = {}
        for cname, g in COMPLEXES.items():
            files[cname] = str(Path(tmp) / f"{len(files)}.facets")
            save_complex(g, files[cname])
        for name, fn in _targets():
            wrapper = wrap(name, fn)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        mp.setattr(mod, attr, wrapper)

        def run(argv, target):
            for table in tables:
                table.cache_clear()
            state["target"], state["seen"] = target, set()
            return _run(argv)

        for check, template in CHECKS.items():
            for cname, path in files.items():
                argv = [path if a == "{g}" else a for a in template]
                base[check, cname] = code = run(argv, None)
                seen = sorted(state["seen"])
                for name in seen:
                    runs += 1
                    flipped = run(argv, name) != code
                    if flipped or (name, check) not in cells:
                        cells[name, check] = "flipped" if flipped else "blind"
    return {"cells": cells, "base": base, "runs": runs, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def matrix():
    return fault_matrix()


def test_unperturbed_checks_answer(matrix):
    # a matrix over failing checks would show nothing: every check passes,
    # and rw:12:30:1, not a 2-sphere, is refused by the recognizer
    want = {(check, c): 0 for check in CHECKS for c in COMPLEXES}
    want["recognize sphere", "rw:12:30:1"] = 1
    assert matrix["base"] == want


def test_blind_cells_are_pinned(matrix):
    blind = {cell for cell, verdict in matrix["cells"].items() if verdict == "blind"}
    assert sorted(blind - BLIND.keys()) == [], "new blind cells"
    assert sorted(BLIND.keys() - blind) == [], "pinned cells that flip or no longer run"


def test_every_check_sees_some_fault(matrix):
    flipped = {check for (_, check), verdict in matrix["cells"].items() if verdict == "flipped"}
    assert flipped == set(CHECKS)


def test_under_twenty_seconds(matrix):
    assert matrix["seconds"] < 20


def _report(matrix) -> str:
    cells = matrix["cells"]
    lines = [f"{'check':<18} {'run':>4} {'flipped':>8} {'blind':>6}"]
    for check in CHECKS:
        verdicts = [v for (_, c), v in cells.items() if c == check]
        lines.append(f"{check:<18} {len(verdicts):>4} {verdicts.count('flipped'):>8}"
                     f" {verdicts.count('blind'):>6}")
    n_flip = sum(v == "flipped" for v in cells.values())
    lines.append(f"{'all':<18} {len(cells):>4} {n_flip:>8} {len(cells) - n_flip:>6}")
    lines.append(f"{matrix['runs']} perturbed runs in {matrix['seconds']:.1f} s; blind cells:")
    for (name, check), verdict in sorted(cells.items()):
        if verdict == "blind":
            lines.append(f"  {name} x {check}: {BLIND.get((name, check), 'NOT PINNED')}")
    return "\n".join(lines)


if __name__ == "__main__":
    result = fault_matrix()
    print(_report(result))
    blind = {cell for cell, v in result["cells"].items() if v == "blind"}
    sys.exit(0 if blind == BLIND.keys() else 1)
