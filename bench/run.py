"""flatlyap benchmark: one workload per run, closed loop, one process.

    python3 bench/run.py --workload orbit|enum|classify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; flatlyap is imported from
``src/``.  With ``--trace 0`` the workload's untraced pass repeats for
about S seconds (at least once) and the end-to-end metrics are printed,
their times scaled by the host-speed calibration of calibrate.py.  With
``--trace 1`` the pass runs each item twice, as is and then traced, for
about S seconds; then the layer probes run and the per-layer metrics are
printed.  The spans of the fastest traced pass and of the probes go to
``.bench_run/trace-<workload>-<seed>.json``.

Every output is checked against ``src/flatlyap/data/golden.txt``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when no item failed.  See README.md for the metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import inputs
from calibrate import Calibrator, elapsed
from spans import Tracer, by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 15
WORKLOADS = ("orbit", "enum", "classify")


def setup(workload: str, seed: int):
    """Import flatlyap afresh, load golden.txt and build the inputs."""
    for name in [m for m in sys.modules if m == "flatlyap" or m.startswith("flatlyap.")]:
        del sys.modules[name]
    t0 = perf_counter()
    golden = importlib.import_module("flatlyap.golden")
    checks = golden.load_golden()
    data = inputs.make_inputs(workload, checks, seed)
    return elapsed(t0), checks, data


def measure(run_round, budget: float) -> list[list]:
    """Call ``run_round() -> [PassResult, ...]`` while the next round is
    expected to end within ``budget``; one list of results per kind."""
    rounds = []
    t0 = perf_counter()
    while True:
        gc.collect()
        rounds.append(run_round())
        if perf_counter() - t0 + sum(r.wall for r in rounds[-1]) > budget:
            return [list(results) for results in zip(*rounds)]


def item_times(results) -> list[float]:
    """Each item's median latency over the passes, scaled by its pass's
    factor; items that never succeeded are left out."""
    out = []
    for times in zip(*([t if t is None else t * r.scale for t in r.latencies] for r in results)):
        ok = [t for t in times if t is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def tail(latencies: list[float]) -> tuple[float, str]:
    """p99, or the highest percentile with at least ten samples beyond it,
    or with fewer than eleven samples the maximum; and which it is."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(-(-99 * n // 100), n - 10)      # nearest rank
    if n <= 10:
        return ordered[-1], "max"
    return ordered[rank - 1], f"p{100 * rank / n:.4g}"


def end_to_end(setup_times, results) -> dict:
    items = item_times(results)
    wall = sum(items)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (max(r.units for r in results) / wall, "1/s"),
        "item_ms_tail": (tail(items)[0] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(pass_spans, probe_spans, overhead: float) -> dict:
    """Layer metrics from the traced pass; a layer the pass never reached
    is read from the probes instead."""
    passed, probed = by_name(pass_spans), by_name(probe_spans)

    def layer(name):
        return passed.get(name) or probed[name]

    ck = layer("orbits.canonical_key")
    scan = layer("orbits.orbit_scan")
    widths = layer("orbits.cusp_widths")
    cyl = layer("orbits.cylinders")
    cache = passed if "orbits.cache_hit" in passed else probed
    hit, miss = cache["orbits.cache_hit"], cache["orbits.cache_miss"]
    store, load = cache["orbits.cache_store"], cache["orbits.cache_load"]
    enum = layer("enumeration.enumerate")
    part = layer("enumeration.orbit_partition")
    label = layer("components.label")
    inv = layer("components.involution")
    spin = layer("components.spin_parity")
    parse = layer("origami.parse")
    strat = layer("origami.stratum")
    elements = scan.counts["elements"]
    candidates, classes = enum.counts["candidates"], enum.counts["classes"]
    return {
        "orbits.canonical_key_us": (ck.self_s / ck.counts["calls"] * 1e6, "us"),
        "orbits.scan_us_per_element": (scan.self_s / elements * 1e6, "us"),
        "orbits.orbit_scan_s": (scan.self_s, "s"),
        "orbits.elements": (elements, "count"),
        "orbits.cusp_widths_s": (widths.self_s, "s"),
        "orbits.cylinders_us": (cyl.self_s / cyl.spans * 1e6, "us"),
        "orbits.cache_store_us": (store.self_s / store.spans * 1e6, "us"),
        "orbits.cache_hit_us": (hit.self_s / hit.spans * 1e6, "us"),
        "orbits.cache_load_ms": (load.self_s / load.spans * 1e3, "ms"),
        "orbits.cache_hits": (hit.spans, "count"),
        "orbits.cache_misses": (miss.spans, "count"),
        "enumeration.enumerate_s": (enum.self_s, "s"),
        "enumeration.scan_ns_per_candidate": (enum.self_s / candidates * 1e9, "ns"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.classes": (classes, "count"),
        "enumeration.class_yield": (classes / candidates, "ratio"),
        "enumeration.orbit_partition_s": (part.self_s, "s"),
        "enumeration.partition_us_per_class": (part.self_s / part.counts["classes"] * 1e6, "us"),
        "enumeration.orbits": (part.counts["orbits"], "count"),
        # whole calls, the involution and spin parity inside them included
        "components.label_ms": (label.total_s / label.spans * 1e3, "ms"),
        "components.involution_ms": (inv.self_s / inv.spans * 1e3, "ms"),
        "components.spin_parity_ms": (spin.self_s / spin.spans * 1e3, "ms"),
        "origami.parse_us": (parse.self_s / parse.spans * 1e6, "us"),
        "origami.stratum_us": (strat.self_s / strat.spans * 1e6, "us"),
        "trace.overhead": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "flatlyap" / "__init__.py").is_file():
        print(f"no flatlyap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    RUN_DIR.mkdir(exist_ok=True)
    calibrator = None if args.trace else Calibrator()
    with calibrator or nullcontext(), \
            tempfile.TemporaryDirectory(prefix="cache-", dir=RUN_DIR) as cache_root:
        setup_times = []
        t0 = perf_counter()
        for _ in range(SETUP_REPEATS):
            seconds, checks, data = setup(args.workload, args.seed)
            setup_times.append(seconds)
        if calibrator is not None:
            k = calibrator.scale(t0, perf_counter())
            setup_times = [t * k for t in setup_times]
        import workloads  # binds the flatlyap modules of the last set-up

        run_pass = workloads.make_pass(args.workload, data, cache_root)
        tracers = []

        def run_round():
            if calibrator is not None:
                t0 = perf_counter()
                (res,) = run_pass()
                res.scale = calibrator.scale(t0, perf_counter())
                return [res]
            tracers.append(Tracer())
            return run_pass(tracers[-1])

        results, *traced_results = measure(run_round, args.seconds)
        if args.trace:
            (traced_results,) = traced_results
            probe_tr = Tracer()
            probe_results, probe_problems = workloads.probe(checks, cache_root, probe_tr)

    failures = [f for r in results for f in r.failures]
    items = item_times(results)
    if args.trace:
        failures += [f for r in traced_results + probe_results for f in r.failures]
        failures += ["probe: " + p for p in probe_problems]
        attempted = sum(r.attempted for r in results + traced_results + probe_results) + 1
        fastest = min(range(len(tracers)), key=lambda k: traced_results[k].wall)
        traced_items = item_times(traced_results)
        measured = bool(items and traced_items)
        if measured:
            overhead = sum(traced_items) / sum(items) - 1
            metrics = per_layer(tracers[fastest].spans, probe_tr.spans, overhead)
        (RUN_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "pass": tracers[fastest].to_json(), "probe": probe_tr.to_json(),
        }))
    else:
        attempted = sum(r.attempted for r in results)
        measured = bool(items)
        if measured:
            metrics = end_to_end(setup_times, results)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    if not measured:
        return 1        # no item succeeded, so there is nothing to report
    print(
        f"# {args.workload} seed={args.seed}: {len(results)} untraced passes of "
        f"{len(items)} items; median item {statistics.median(items) * 1e3:.6g} ms, "
        f"item_ms_tail is the {tail(items)[1]}"
    )
    if calibrator is not None:
        scales = [r.scale for r in results]
        print(
            f"# {len(calibrator.durations)} calibration bursts, harmonic mean "
            f"{statistics.harmonic_mean(calibrator.durations) * 1e3:.4g} ms; passes scaled "
            f"by {min(scales):.4g} to {max(scales):.4g}"
        )
    for name, (value, unit) in metrics.items():
        print(f"# {name:38s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
