"""Self-check of the benchmark on tiny inputs; takes a few seconds.

    python3 perfbench/selfcheck.py

For each workload a smoke pass must answer every op correctly on inputs
relabelled by the seed, the traced pass must reach the layers the workload
is meant to stress, and a pass against a corrupted expected answer must
count failed ops without ending.  Two seeds must write differently labelled
files.
A complex output checked by digest must pass with its facets listed in
another order and fail with a facet missing.
An op that raises SystemExit, MemoryError or RecursionError must come back
as a failed op.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# a layer each workload must reach, by the per-layer metric that shows it
REACHES = {
    "energy": "characteristics.calls",
    "duality": "linalg.calls",
    "corpus": "recognizers.calls_used",
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def corrupted(answers: dict, recipe: str) -> dict:
    bad = copy.deepcopy(answers)
    entry = bad["complexes"][recipe]
    entry["w"][0] += 1
    entry["fermi"] = -entry["fermi"]
    return bad


def raising(exc: BaseException):
    def cli_main(argv):
        raise exc
    return cli_main


def main() -> int:
    cli = run.import_package()
    answers = json.loads((run.HERE / "answers.json").read_text(encoding="utf-8"))
    work = run.ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    os.chdir(run.ROOT)
    listed = []  # ops whose output is a list of facets
    try:
        for workload in run.WORKLOADS:
            perms = run.write_inputs(workload, 0, work / workload, smoke=True)
            sel = wl.select(workload, 0, smoke=True)

            def path_of(r, d=work / workload):
                return str(d / wl.file_name(r))

            keys_of = run.input_keys(work / workload, perms)
            ops = wl.make_ops(sel, answers, path_of, keys_of, perms.__getitem__)
            p = run.run_pass(cli, ops)
            expect(not any(p["fails"]), f"{workload}: {len(ops)} smoke ops answer correctly")
            t = run.run_pass(cli, ops, Tracer())
            layers = t["layers"]
            expect(layers[REACHES[workload]] > 0, f"{workload}: traced pass reaches "
                   f"{REACHES[workload]} = {layers[REACHES[workload]]}")
            expect(layers["harness.self_s"] >= 0.0,
                   f"{workload}: layer self times fit inside the traced wall time")
            bad = run.run_pass(cli, wl.make_ops(sel, corrupted(answers, sel.recipes[0]), path_of,
                                              keys_of, perms.__getitem__))
            n_bad = sum(why is not None for why in bad["fails"])
            expect(n_bad > 0, f"{workload}: a corrupted answer gives failed_ratio "
                   f"{n_bad}/{len(ops)} > 0")
            listed += [op for op in ops if op.argv[0] in ("generate", "product")]
        texts = [[(work / f"seed{seed}" / wl.file_name(r)).read_text()
                  for r in run.write_inputs("energy", seed, work / f"seed{seed}", smoke=True)]
                 for seed in (1, 2)]
        expect(texts[0] != texts[1], "two seeds write differently labelled inputs")
        for op in listed:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(op.argv)
            lines = out.getvalue().splitlines(keepends=True)
            expect(run.check(op, 0, "".join(reversed(lines))) is None,
                   f"{op.label}: passes with its {len(lines)} facets in reverse order")
            expect(run.check(op, 0, "".join(lines[1:])) is not None,
                   f"{op.label}: fails with a facet missing")
        op = wl.Op("raises", ["info"], "json", [])
        for exc in (SystemExit(2), MemoryError(), RecursionError("deep")):
            _, why = run.run_op(raising(exc), op)
            expect(why is not None and type(exc).__name__ in why,
                   f"an op raising {type(exc).__name__} is a failed op")
        _, why = run.run_op(cli.main, wl.Op("bad argv", ["verify", "no-such-suite"], "json", []))
        expect(why is not None, "an op that argparse rejects is a failed op")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
