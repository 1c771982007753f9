"""Benchmark of the higherchar command line, end to end and by layer.

    python3 perfbench/run.py --workload energy|duality|corpus|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each op is one real CLI invocation, ``higherchar.cli.main(argv)``, run in
this process on one thread, with stdout captured and checked against the
answers in ``answers.json``.  One pass runs every op of the workload once,
starting from empty ``lru_cache`` tables as a fresh CLI process would.
Passes repeat, at least MIN_PASSES of them, while the next one is expected
to end within ``--seconds``.

Times are scaled by the speed of the host at the moment they are taken.
A fixed pure-Python computation, ``reference()``, which calls no package
code, runs before each op and after the last; an op's time is divided by the
mean of the two reference times beside it and multiplied by REF_NOMINAL_S.
The result reads as seconds on a host where the reference takes
REF_NOMINAL_S.  On a shared 2-vCPU virtual machine whose speed drifted by
20-30% within a minute, raw pass times moved by that much, and scaled ones
by about 5%.  The unscaled times are kept in the report.  The seed relabels
the vertices of a fixed list of complexes (see ``workloads``).

End-to-end metrics (``--trace 0``):
  setup_s      median over SETUP_SAMPLES fresh interpreters, taken in groups
               spread over the run, of importing the package and generating
               and writing the seeded inputs, each scaled by reference()
               times taken in that interpreter around it
  wall_s       time to all verdicts of the workload: the sum of op latencies
  op_p50_ms    median op latency (parse, compute, JSON out) over the
               workload's 100 or more distinct ops
  op_p90_ms    nearest-rank 90th percentile of the same, ten or more beyond it
  peak_rss_mb  peak resident set size of this process
An op's latency is its median scaled time over the run's passes.
failed_ratio is reported beside them and carried by ``failed`` and ``correct``
in the result line.  An op fails on a wrong answer, an unexpected exit code,
exit 2 (budget) or any exception.

Per-layer metrics (``--trace 1``) come from passes run with ``tracer.Tracer``
installed, alternating with untraced passes that give the tracing overhead.
Layer self times are unscaled seconds; they add up to ``trace.wall_s``.

Workload names, the why of each and the metric names and units are read from
``BENCHMARK.json`` at the checkout root.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  A full report with per-op rows,
pass times and the run's context goes to ``.bench_out/``, and the spans of a
traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKLOADS = ("energy", "duality", "corpus")
# Times are scaled by the host's speed at the moment they are taken: seconds
# on a host where reference() takes REF_NOMINAL_S, its median time on a
# shared 2-vCPU virtual machine.
REF_NOMINAL_S = 0.003
REF_AROUND_SETUP = 3  # reference() runs before and after each timed set-up
SETUP_SAMPLES = 15  # fresh child interpreters timed per run, in SETUP_GROUPS groups
SETUP_GROUPS = 3    # before the first pass, after it, and after the last pass
MIN_PASSES = 2
HARD_STOP_S = 120.0  # no pass starts after this, so a run ends well inside 180 s


def declared() -> dict:
    """Workloads and metrics as BENCHMARK.json at the checkout root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if set(why) != set(WORKLOADS):
        raise ValueError(f"BENCHMARK.json declares workloads {sorted(why)}, not {list(WORKLOADS)}")
    return {
        "why": why,
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_package():
    """Import higherchar from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import higherchar.cli as cli

    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"higherchar was imported from {origin}, not from {SRC}")
    return cli


def write_inputs(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write each input relabelled by its seeded permutation; return the permutations."""
    from higherchar.files import save_complex

    out.mkdir(parents=True, exist_ok=True)
    perms = {}
    for recipe in wl.select(workload, seed, smoke).recipes:
        g = wl.build(recipe)
        perms[recipe] = wl.relabelling(workload, seed, recipe, g.vertex_ids)
        save_complex(wl.relabel(g, perms[recipe]), out / wl.file_name(recipe))
    return perms


def setup_child(args) -> int:
    before = [timed(reference) for _ in range(REF_AROUND_SETUP)]
    t0 = time.perf_counter()
    import_package()
    write_inputs(args.workload, args.seed, Path(args.setup_child))
    raw = time.perf_counter() - t0
    after = [timed(reference) for _ in range(REF_AROUND_SETUP)]
    print(json.dumps({"raw_s": raw, "ref_s": statistics.median(before + after)}))
    return 0


def input_keys(folder: Path, perms: dict):
    """keys_of for make_ops: simplex keys of the written inputs, as the CLI loads
    them, in the generators' labels."""
    from higherchar.files import load_complex

    return lambda recipe: wl.simplex_keys(load_complex(folder / wl.file_name(recipe)),
                                          perms[recipe])


# -- host speed ---------------------------------------------------------


def reference() -> int:
    """A fixed pure-Python computation that calls no package code.

    Like the package it hashes small tuples and frozensets into dicts and
    sets, multiplies integers of a few hundred bits and sorts short lists.
    Its time, taken next to each op, measures how fast the host runs such
    code at that moment.
    """
    counts: dict = {}
    acc = 1
    for i in range(2500):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        acc = (acc * (i | 1) + k) % (1 << 200)
    sets = {frozenset((i % 37, i % 41, i % 43)) for i in range(800)}
    rows = [[(i * j) % 97 for j in range(24)] for i in range(24)]
    total = sum(x for row in rows for x in sorted(row))
    return acc + len(sets) + total + len(counts)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """Seconds on a host where the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def time_setups(args, work: Path, count: int) -> list[dict]:
    """Set-up times of ``count`` fresh child interpreters, each with the
    reference time taken around it, both in seconds."""
    samples = []
    out = work / "setup-child"
    for _ in range(count):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(out),
                "--workload", args.workload, "--seed", str(args.seed)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-400:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out)
    return samples


# -- one op -------------------------------------------------------------


def check(op: wl.Op, rc: int, out: str) -> str | None:
    """None when the op's exit code and output match its expected answer."""
    if rc != op.rc:
        return f"exit {rc}, expected {op.rc}"
    if op.check == "digest":
        got = wl.digest_json(op.canon(out))
        return None if got == op.expected else f"digest {got[:12]} != {op.expected[:12]}"
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    if len(lines) != len(op.expected):
        return f"{len(lines)} result lines, expected {len(op.expected)}"
    for got, exp in zip(lines, op.expected):
        if isinstance(exp, dict):
            bad = {k: got.get(k) for k in exp if got.get(k) != exp[k]}
            if bad:
                return f"got {bad}, expected {({k: exp[k] for k in bad})}"
        elif got != exp:
            return f"got {got}, expected {exp}"
    return None


def run_op(cli_main, op: wl.Op) -> tuple[float, str | None]:
    """Latency in ms and None, or the reason the op failed.

    Any exception the op raises, SystemExit, MemoryError and RecursionError
    included, is a failed op and never ends the run.
    """
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(op.argv)
    except (Exception, SystemExit) as exc:
        return (time.perf_counter() - t0) * 1000.0, f"raised {type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    try:
        return ms, check(op, rc, out.getvalue())
    except (ValueError, TypeError, IndexError) as exc:  # output not of the expected form
        return ms, f"unreadable output: {exc}"


# -- passes -------------------------------------------------------------


def clear_caches() -> None:
    """Empty every lru_cache table of the package, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "higherchar" or name.startswith("higherchar."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def cache_totals() -> tuple[int, int]:
    """Summed cache_info() of the per-complex tables in characteristics."""
    mod = sys.modules["higherchar.characteristics"]
    hits = misses = 0
    for obj in vars(mod).values():
        info = getattr(obj, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses = hits + ci.hits, misses + ci.misses
    return hits, misses


def run_pass(cli, ops, tracer=None) -> dict:
    """Every op once, from empty caches, with reference() run before each op
    and after the last.

    ``lat`` holds each op's time in ms, ``scaled`` the same scaled by the mean
    of the two reference times beside it, and ``wall_s`` the sum of op times.
    """
    clear_caches()
    gc.collect()
    lat, refs, fails = [], [], []
    if tracer is not None:
        tracer.reset_totals()
        tracer.install()
    try:
        for op in ops:
            refs.append(timed(reference))
            if tracer is not None:
                tracer.op_id += 1  # unique over the run; spans of one op share it
            ms, why = run_op(cli.main, op)
            lat.append(ms)
            fails.append(why)
        refs.append(timed(reference))
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = sum(lat) / 1000.0
    result = {"wall_s": wall, "lat": lat, "fails": fails, "ref_s": statistics.median(refs),
              "scaled": [scaled(ms, (refs[i] + refs[i + 1]) / 2) for i, ms in enumerate(lat)]}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall)
    return result


def layer_metrics(tracer, wall: float) -> dict:
    from tracer import LAYERS

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    hits, misses = cache_totals()
    c = tracer.counts
    out.update({
        "complexes.simplices_built": c["complexes.simplices_built"],
        "characteristics.table_hits": hits,
        "characteristics.table_misses": misses,
        "characteristics.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "linalg.dense_entries": c["linalg.dense_entries"],
        "recognizers.calls_used": c["recognizers.calls_used"],
        "recognizers.decided_ratio": (c["recognizers.decided"] / c["recognizers.verdicts"]
                                      if c["recognizers.verdicts"] else 0.0),
        "harness.self_s": wall - sum(tracer.self_s.values()),
        "trace.wall_s": wall,
    })
    return out


def measure(cli, ops, seconds: float, trace: bool, time_setup):
    """Untraced passes, and with ``trace`` traced passes alternating with them.

    ``time_setup(n)`` times n set-ups; SETUP_SAMPLES of them are taken in
    SETUP_GROUPS groups spread over the run, so that a few slow seconds of the
    host do not move their median.
    """
    from tracer import Tracer

    group = SETUP_SAMPLES // SETUP_GROUPS
    setups = time_setup(group)
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    in_passes = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(cli, ops))
        if tracer is not None:
            traced.append(run_pass(cli, ops, tracer))
        in_passes += time.perf_counter() - t0
        if len(setups) < SETUP_SAMPLES - group:
            setups += time_setup(group)
        elapsed = time.perf_counter() - start
        cycle = in_passes / len(plain)
        enough = trace or len(plain) >= MIN_PASSES
        if (enough and elapsed + cycle > seconds) or elapsed > HARD_STOP_S:
            break
    setups += time_setup(SETUP_SAMPLES - len(setups))
    return plain, traced, tracer, setups


# -- report -------------------------------------------------------------


def context() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {"python": platform.python_version(), "nproc": cores, "commit": commit,
            "src_lines": src_lines, "machine": platform.machine()}


def per_op_median(passes) -> list[float]:
    """Each op's scaled latency in ms, the median over the passes."""
    return [statistics.median(ms) for ms in zip(*(p["scaled"] for p in passes))]


def op_rows(ops, passes) -> list[dict]:
    rows = []
    for i, op in enumerate(ops):
        ms = [p["lat"][i] for p in passes]
        rows.append({"op": op.label, "n": len(ms),
                     "scaled_ms": statistics.median(p["scaled"][i] for p in passes),
                     "median_ms": statistics.median(ms), "min_ms": min(ms),
                     "failed": sum(p["fails"][i] is not None for p in passes)})
    return rows


def p90(values) -> float:
    """Nearest-rank 90th percentile: a measured sample, never an interpolation
    between the clusters that different op kinds form."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the higherchar CLI.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "higherchar" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'higherchar'}; run from a full checkout")
    if args.setup_child:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        declared_metrics = declared()
        cli = import_package()
        perms = write_inputs(args.workload, args.seed, work / "inputs")
        answers = json.loads((HERE / "answers.json").read_text(encoding="utf-8"))
        sel = wl.select(args.workload, args.seed)
        ops = wl.make_ops(sel, answers,
                          lambda r: str((work / "inputs" / wl.file_name(r)).relative_to(ROOT)),
                          input_keys(work / "inputs", perms), perms.__getitem__)
        os.chdir(ROOT)
        plain, traced, tracer, setup_samples = measure(
            cli, ops, args.seconds, bool(args.trace), lambda n: time_setups(args, work, n))
    except (OSError, ImportError, KeyError, ValueError, RuntimeError,
            subprocess.SubprocessError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p["lat"]) for p in passes)
    failures = [(ops[i].label, why) for p in passes for i, why in enumerate(p["fails"]) if why]
    typical = per_op_median(plain)
    e2e = {
        "setup_s": statistics.median(scaled(x["raw_s"], x["ref_s"]) for x in setup_samples),
        "wall_s": sum(typical) / 1000.0,
        "op_p50_ms": statistics.median(typical),
        "op_p90_ms": p90(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        computed = {name: statistics.median(p["layers"][name] for p in traced)
                    for name in traced[0]["layers"]}
        computed["trace.overhead_ratio"] = sum(per_op_median(traced)) / sum(typical)
    else:
        computed = e2e
    units = declared_metrics["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(computed))
    if missing:
        return fail(f"BENCHMARK.json declares metrics this benchmark does not compute: {missing}")
    metrics = {name: computed[name] for name in units}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": declared_metrics["why"][args.workload],
        "context": context(),
        "passes": len(plain), "traced_passes": len(traced),
        "ref_nominal_s": REF_NOMINAL_S,
        "pass_ref_s": [p["ref_s"] for p in plain],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "unscaled": {"wall_s": statistics.median(p["wall_s"] for p in plain),
                     "setup_s": statistics.median(x["raw_s"] for x in setup_samples)},
        "op_samples": len(typical), "setup_samples": setup_samples,
        "end_to_end": e2e, "failed_ratio": len(failures) / attempted,
        "metrics": metrics, "ops": op_rows(ops, plain), "failures": failures[:50],
        "pass_latencies_ms": [p["lat"] for p in plain],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "site", "start", "end", "parent", "op"],
             "dropped": tracer.dropped, "spans": tracer.spans}) + "\n")

    print_report(report, declared_metrics)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_report(report: dict, declared_metrics: dict) -> None:
    ctx = report["context"]
    print(f"workload {report['workload']} seed {report['seed']}: {report['why']}")
    print(f"python {ctx['python']}  nproc {ctx['nproc']}  commit {ctx['commit']}  "
          f"src lines {ctx['src_lines']}")
    print(f"{report['passes']} passes ({report['traced_passes']} traced); op latencies are "
          f"medians over the passes for each of {report['op_samples']} ops, scaled to a host "
          f"where the reference takes {report['ref_nominal_s'] * 1000:g} ms "
          f"(here {statistics.median(report['pass_ref_s']) * 1000:.3f} ms)")
    for row in report["ops"]:
        print(f"  scaled {row['scaled_ms']:9.1f} ms  median {row['median_ms']:9.1f} ms  "
              f"best {row['min_ms']:9.1f} ms  x{row['n']}  "
              f"{'FAILED ' if row['failed'] else ''}{row['op']}")
    for label, why in report["failures"][:10]:
        print(f"  failure: {label}: {why}")
    e2e = dict(report["end_to_end"], failed_ratio=report["failed_ratio"])
    for name, value in e2e.items():
        print(f"  {name:32s} {value:14.6f} {declared_metrics['end_to_end'].get(name, 'ratio')}")
    if report["trace"]:
        for name, value in report["metrics"].items():
            print(f"  {name:32s} {value:14.6f} {declared_metrics['per_layer'][name]}")


def run_all(args) -> int:
    """Each workload in its own interpreter; a table of their metrics."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return fail(f"workload {workload} exited {done.returncode}: {done.stderr[-400:]}")
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        ratio = res["failed"] / res["attempted"]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{workload:8s} failed_ratio={ratio:.6g} ratio  " + "  ".join(cells))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
