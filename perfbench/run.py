"""Benchmark for goi: four seeded workloads, end-to-end and traced per-layer views.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mll-cut-chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each

Workloads: verify-suite, mll-cut-chains, mall-with-towers, dense-carriers
(see BENCHMARK.json for why each is there).  Each workload runs in its own
process, as a closed loop with one item in flight and no worker threads;
numpy's BLAS pool keeps its default size, which the provenance records.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: setup_s
(median over fresh processes started between items, each timing goi's
import, default_basis() and the warm-up item), items_per_ref_s (items per
second scaled to a fixed host speed, see harness.end_to_end) and
peak_rss_mb.  Beside them it prints items_per_s, item_p50_ms and
item_p90_ms with their sample counts, failed_share, the named reference
items, the verify budget ratios and the known defects.
--trace 1 runs each round untraced and then again traced, and prints the
per-layer metrics and trace.overhead_s.  The last line of standard output
is always one JSON object: {"correct", "attempted", "failed", "metrics"}.

goi is imported from ``src/`` of the checkout; without it the run stops
with exit code 2 and prints no result.  Temporary files, per-run result
files and span dumps go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import goi_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

EXIT_NO_PROGRAM = 2
EXIT_USAGE = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", help="a workload name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: small sizes for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def run_all(args, workloads) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "goi" / "__init__.py").is_file():
        print(f"perfbench: no goi package under {SRC}; run from the root of a goi checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    # goi first: the benchmark's own modules load numpy, which goi's import
    # must do itself for a set-up probe to time it.
    g, import_s = goi_setup.set_up()
    goi_dir = Path(g.root.__file__).resolve().parent
    if goi_dir != (SRC / "goi").resolve():
        print(f"perfbench: imported goi from {goi_dir}, not from {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from workloads import WORKLOADS, run_items

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return EXIT_USAGE

    rundir = WORK / f"run-{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, rundir, g)
        warmup = workload.warmup()  # input generation is not part of set-up
        t0 = perf_counter()
        warm = run_items(warmup)
        if args.setup_probe:
            print(json.dumps({"setup_s": import_s + perf_counter() - t0}))
            return 0
        if args.trace:
            return traced_run(args, workload, warm)
        return plain_run(args, workload, warm)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def plain_run(args, workload, warm) -> int:
    import harness

    sampler = harness.SetupSampler(Path(__file__), workload.name, args.seed, args.scale, args.seconds)
    reference: list[float] = []

    def after(seconds: float) -> None:
        for _ in range(1 + int(seconds / harness.REFERENCE_EVERY_S)):
            reference.append(harness.reference_work())
        sampler.after_item(seconds)

    results, rounds = harness.run_rounds(workload, args.seconds, after=after)
    setup_samples = sampler.finish()
    metrics, printed = harness.end_to_end(results, setup_samples, reference)
    probes = run_probes(workload)

    failed = sum(not r.ok for r in results)
    lat = [r.seconds for r in results]
    n = len(lat)
    p90 = printed["item_p90_ms"][0] / 1e3
    extra = {
        "printed": {k: v for k, (v, _) in printed.items()},
        "setup_samples_s": setup_samples,
        "failed_share": failed / n,
        "samples": n,
        "beyond_p90": sum(x > p90 for x in lat),
        "named_items": harness.named_latencies(results, workload.named_items),
        "known_defects": probes,
        "failures": [vars(r) for r in results if not r.ok][:20],
        "latencies_s": [[r.name, r.seconds] for r in results],
    }
    if hasattr(workload, "BUDGETS"):
        extra["budget_ratios"] = budget_ratios(results, workload.BUDGETS)

    def show(name, value, unit, note=""):
        print(f"  {name:17s} {_fmt(value):>10s} {unit:4s} {note}")

    print(f"[{workload.name}] seed={args.seed} seconds={_fmt(args.seconds)} trace=0 scale={args.scale}")
    print(f"  {n} items in {rounds} rounds, {_fmt(sum(lat))} s measured")
    show("setup_s", *metrics["setup_s"], f"median of {len(setup_samples)} fresh processes: {', '.join(_fmt(x) for x in setup_samples)}")
    show("items_per_s", *printed["items_per_s"])
    show("items_per_ref_s", *metrics["items_per_ref_s"], f"items_per_s x reference_ms / {_fmt(harness.REFERENCE_S * 1e3)} ms")
    show("reference_ms", *printed["reference_ms"], f"median of {len(reference)}, one per {_fmt(harness.REFERENCE_EVERY_S * 1e3)} ms of item time")
    show("item_p50_ms", *printed["item_p50_ms"], f"n={n}")
    show("item_p90_ms", *printed["item_p90_ms"], f"n={n}, {extra['beyond_p90']} beyond")
    show("failed_share", extra["failed_share"], "ratio", f"{failed} of {n}")
    show("peak_rss_mb", *metrics["peak_rss_mb"])
    for name, v in extra["named_items"].items():
        print(f"  named item {name}: median {_fmt(v['median_ms'])} ms over {v['n']}")
    for name, v in extra.get("budget_ratios", {}).items():
        print(f"  budget {name}: elapsed/budget max {_fmt(v['max'])}, median {_fmt(v['median'])} over {v['n']}")
    for p in probes:
        print(f"  known defect {p['name']}: {p['status']} (got {p['got']}, want {p['want']})")
    for f in extra["failures"][:5]:
        print(f"  FAILED {f['name']}: {f['error']}")
    return finish(args, workload, results, harness.round_mix(results, rounds), metrics, extra, warm)


def traced_run(args, workload, warm) -> int:
    import harness
    from tracer import Tracer
    from workloads import run_items

    tracer = Tracer()
    traced: list = []

    def traced_call(fn, *a):
        tracer.install()
        try:
            return fn(*a)
        finally:
            tracer.uninstall()

    def replay(r: int) -> None:
        traced.extend(traced_call(workload.run_round, r, tracer))

    # Set-up under the tracer, for logic.default_basis and the warm-up's spans.
    traced_call(workload.g.matricial.default_basis)
    warm = warm + traced_call(run_items, workload.warmup(), tracer)
    # Each round runs untraced and then at once traced, so that a slow or
    # fast stretch of the host falls on both sides of trace.overhead_s.
    untraced, rounds = harness.run_rounds(workload, args.seconds, replay=replay)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (sum(r.seconds for r in traced) - sum(r.seconds for r in untraced), "s")
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.npz"
    tracer.save(spans_path)

    results = untraced + traced
    print(f"[{workload.name}] seed={args.seed} seconds={_fmt(args.seconds)} trace=1 scale={args.scale}")
    print(f"  {rounds} rounds, each run untraced then traced; {len(tracer)} spans -> {spans_path.relative_to(ROOT)}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:42s} {_fmt(v)} {unit}")
    extra = {"spans": len(tracer), "failures": [vars(r) for r in results if not r.ok][:20]}
    for f in extra["failures"][:5]:
        print(f"  FAILED {f['name']}: {f['error']}")
    return finish(args, workload, results, harness.round_mix(untraced, rounds), metrics, extra, warm)


def run_probes(workload) -> list[dict]:
    out = []
    for probe in workload.probes():
        try:
            got = probe.call()
            status = "passes" if probe.check(got) else "fails"
            shown = getattr(got, "status", got)
        except Exception as exc:  # the defect may be a raised error
            status, shown = "fails", f"{type(exc).__name__}: {exc}"
        out.append({"name": probe.name, "status": status, "got": str(shown), "want": probe.expected})
    return out


def budget_ratios(results, budgets: dict) -> dict:
    out = {}
    for name, budget in budgets.items():
        ratios = [r.data["elapsed_s"] / budget for r in results if r.name == name and r.data and "elapsed_s" in r.data]
        if ratios:
            out[name] = {"max": max(ratios), "median": statistics.median(ratios), "n": len(ratios), "budget_s": budget}
    return out


def finish(args, workload, results, mix: dict, metrics: dict, extra: dict, warm) -> int:
    """Write the result file and print provenance and the result line.

    attempted and failed count the timed items; a failed warm-up item also
    makes the run incorrect.
    """
    import harness

    failed = sum(not r.ok for r in results)
    prov = harness.provenance(ROOT, workload, args.seed, mix)
    print("provenance " + json.dumps(prov, sort_keys=True))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {"metrics": {k: v for k, (v, _) in metrics.items()}, "provenance": prov, "warmup": [vars(w) for w in warm], **extra}
    path = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    line = {
        "correct": failed == 0 and all(w.ok for w in warm),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
