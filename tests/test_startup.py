"""Start-up footprint: which package modules have their bodies run.

``import higherchar`` runs no submodule body, yet puts every library module
into ``sys.modules``, where the benchmark's tracer looks the layers up.  A
CLI run runs the bodies of the modules its subcommand calls and no others.
Each case runs in a fresh interpreter, where an audit hook records every
module body executed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from higherchar.files import save_complex
from higherchar.generators import cross_polytope

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, os, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0]))
import higherchar
registered = sorted(n.split(".", 1)[1] for n in sys.modules if n.startswith("higherchar."))
rc = None
if sys.argv[1:]:
    import higherchar.cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = higherchar.cli.main(sys.argv[1:])
home = os.path.dirname(higherchar.__file__)
names = {os.path.basename(c.co_filename)[:-3] for c in ran
         if os.path.dirname(c.co_filename) == home}
print(json.dumps([registered, rc, sorted(names - {"__init__"})]))
"""

LIBRARY = ["characteristics", "cohomology", "complexes", "errors", "files", "generators",
           "linalg", "product", "recognizers", "topology"]

# the modules cli imports when it loads, and so every subcommand runs
CLI = {"cli", "complexes", "errors", "files"}

# characteristics reads topology, and topology product, through the module at
# call time, so neither body runs unless a subcommand calls into it
CH = {"characteristics"}

CASES = [
    (["info", "G"], CH),
    (["verify", "energy", "G", "-m", "2", "-k", "2"], CH),
    (["verify", "det-fermi", "G"], CH | {"linalg"}),
    (["bench", "G", "-m", "2"], CH),
    (["generate", "--kind", "path3"], {"generators"}),
    (["product", "G", "G"], {"product"}),
    (["betti", "G"], {"cohomology", "linalg"}),
    (["recognize", "G", "--what", "sphere", "--d", "2"], {"recognizers"}),
    (["matrix", "G", "--which", "connection"], {"linalg"}),
    (["matrix", "G", "--which", "green"], CH | {"linalg"}),
]


def _bodies_run(argv, cwd):
    """In a fresh interpreter that imports higherchar and then runs
    main(argv), if any: the modules in sys.modules after the import,
    main's exit code, and the modules whose bodies ran."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    registered, rc, names = json.loads(done.stdout.splitlines()[-1])
    return registered, rc, set(names)


def test_bare_import_runs_no_submodule(tmp_path):
    assert _bodies_run([], tmp_path) == (LIBRARY, None, set())


@pytest.mark.parametrize("argv,extra", CASES,
                         ids=[" ".join(x for x in a if x != "G") for a, _ in CASES])
def test_subcommand_runs_only_what_it_calls(tmp_path, argv, extra):
    save_complex(cross_polytope(2), tmp_path / "G")
    assert _bodies_run(argv, tmp_path)[1:] == (0, CLI | extra)
