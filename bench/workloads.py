"""The three workloads, one pass function each, and the per-layer probes.

Every pass is a closed loop: item i+1 starts when item i has finished.
A pass calls the library the way a user of the CLI does.  Given a tracer,
a pass runs each item twice, as is and then traced: inside a span of its
own and under ``hooks.installed``, so the library calls inside it become
spans.  The probes run the passes again on small fixed inputs, so that
every layer reports a measured value on every workload, including layers
the workload's own pass never reaches.

Only public names of flatlyap.origami, .orbits, .enumeration and
.components are used.  They are looked up on their modules at call time,
so that the hooks see every call.  Item latencies leave out the time
the host-speed calibration spends in its bursts (see calibrate.py).
"""
from __future__ import annotations

import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from flatlyap import components, enumeration, orbits
from flatlyap.orbits import format_rational
from flatlyap.origami import Origami, Stratum

import hooks
import inputs
from calibrate import elapsed

#: degree cap of the enumeration probe; small enough to cost well under a second
PROBE_ENUM_DMAX = 7
#: relabelled copies of each golden ``component`` origami in the classify probe
PROBE_REPEATS = 10


@dataclass
class PassResult:
    wall: float = 0.0
    latencies: list = field(default_factory=list)   # seconds per item, None if it failed
    units: int = 0                                   # work done, see run.py
    attempted: int = 0
    failures: list = field(default_factory=list)    # one message per failed item
    #: factor from the latencies' seconds to reference seconds, see calibrate.py
    scale: float = 1.0


def run_pass(items, one, tracer=None, name="item") -> list[PassResult]:
    """Run ``one(item) -> (latency, units, problems)`` over ``items``.

    Without a tracer there is one result.  With a tracer every item runs
    twice in a row, first as is and then traced: under
    ``hooks.installed(tracer)`` and inside a span ``name`` with the item
    id ``name:index``.  There is then a result for each kind; running the
    two kinds of an item back to back makes them see the same host load.
    An exception or a non-empty problem list fails the item.
    """
    kinds = [(PassResult(), nullcontext)]
    if tracer is not None:
        kinds.append((PassResult(), lambda i: _traced_item(tracer, name, f"{name}:{i}")))
    for i, item in enumerate(items):
        for res, context in kinds:
            res.attempted += 1
            t0 = perf_counter()
            try:
                with context(i):
                    latency, units, problems = one(item)
            except Exception:
                latency, units, problems = None, 0, [traceback.format_exc()]
            res.wall += perf_counter() - t0
            res.latencies.append(latency)
            res.units += units
            if problems:
                res.failures.append(f"{name} {i}: " + "; ".join(problems))
    return [res for res, _ in kinds]


@contextmanager
def _traced_item(tracer, name, item):
    with hooks.installed(tracer), tracer.span(name, item):
        yield


# -- orbit ---------------------------------------------------------------------

def orbit_pass(queries, cache_root: str, tracer=None) -> list[PassResult]:
    """``lyapunov_sum`` against a fresh cache, then again against the same
    cache reloaded from disk; units are orbit elements.

    The repeat runs with ``max_size=1``: a cache miss would start a
    search, and the search raises ResourceCapError at its second element
    (every orbit here has more), so a repeat that misses fails the item.
    """

    def one(q):
        with tempfile.TemporaryDirectory(dir=cache_root) as d:
            t0 = perf_counter()
            o = Origami.from_text(q.text)
            first = orbits.lyapunov_sum(o, cache=orbits.OrbitCache(d))
            again = orbits.lyapunov_sum(o, max_size=1, cache=orbits.OrbitCache(d))
            latency = elapsed(t0)
        problems = []
        if format_rational(first.L) != q.L:
            problems.append(f"{q.id}: L={format_rational(first.L)}, golden {q.L}")
        if again != first:
            problems.append(f"{q.id}: cached repeat differs")
        return latency, first.orbit_size, problems

    return run_pass(queries, one, tracer, "orbit")


# -- enum ----------------------------------------------------------------------

def _support(orders) -> int:
    return sum(m + 1 for m in orders)


def enum_pass(targets, tracer=None) -> list[PassResult]:
    """``nonvarying_report`` per stratum; units are scan candidates
    (p(d)·d! summed over the degrees scanned)."""

    def one(t):
        t0 = perf_counter()
        report = enumeration.nonvarying_report(Stratum(t.orders), t.dmax)
        latency = elapsed(t0)
        units = sum(inputs.scan_candidates(d) for d in range(_support(t.orders), t.dmax + 1))
        return latency, units, inputs.enum_mismatches(t, report.values_by_component())

    return run_pass(targets, one, tracer, "enum")


# -- classify ------------------------------------------------------------------

def classify_pass(items, tracer=None) -> list[PassResult]:
    """Parse, stratum, component label and cylinders per origami; units
    are labelled origamis."""

    def one(x):
        t0 = perf_counter()
        o = Origami.from_text(x.text)
        stratum = o.stratum()
        label = components.component_label(o)
        cylinders = orbits.horizontal_cylinders(o)
        latency = elapsed(t0)
        problems = []
        if stratum.orders != x.orders:
            problems.append(f"{x.start}: stratum {stratum.orders}, expected {x.orders}")
        if label.kind != x.kind:
            problems.append(f"{x.start}: component {label.kind}, golden {x.kind}")
        if cylinders.total_area != x.degree:
            problems.append(f"{x.start}: cylinder area {cylinders.total_area} != {x.degree}")
        return latency, 1, problems

    return run_pass(items, one, tracer, "classify")


def make_pass(workload: str, data, cache_root: str):
    """The workload's pass over ``data`` as a function of an optional
    tracer; see ``run_pass``."""
    if workload == "orbit":
        return lambda tracer=None: orbit_pass(data, cache_root, tracer)
    if workload == "enum":
        return lambda tracer=None: enum_pass(data, tracer)
    if workload == "classify":
        return lambda tracer=None: classify_pass(data, tracer)
    raise ValueError(f"unknown workload {workload!r}")


# -- probes --------------------------------------------------------------------

def probe(checks, cache_root: str, tracer) -> tuple[list[PassResult], list[str]]:
    """Small fixed runs of every pass, traced, plus two batches of calls
    timed as a whole; returns the pass results and the problems the
    batches found.

    * the orbit pass on ten-square-3111 (23,328 elements);
    * the enum pass on the golden ``enum`` strata up to ``PROBE_ENUM_DMAX``;
    * the classify pass on ``PROBE_REPEATS`` relabellings of each golden
      ``component`` origami;
    * ``canonical_key`` on the 2N T/S images of the members of the
      ten-square-3111 orbit, which must close up to the orbit;
    * ``horizontal_cylinders`` on one member per cusp of that orbit; the
      cylinder sums weighted by cusp width must add up to the orbit's sum.
    """
    query = inputs.probe_query(checks)
    # inputs of the two batches, made untraced
    scan = orbits.orbit_scan(Origami.from_text(query.text))
    d = scan.degree
    images = []
    for key in scan.keys:
        r, u = tuple(key[:d]), tuple(key[d:])
        images.append(inputs.act_T(r, u))
        images.append(inputs.act_S(r, u))
    reps = [
        (width, Origami.from_text(f"r={' '.join(str(x + 1) for x in key[:d])}; "
                                  f"u={' '.join(str(x + 1) for x in key[d:])}; d={d}"))
        for width, key in scan.cusp_widths()
    ]
    targets = [
        t for t in inputs.enum_targets(checks, 0, dmax=PROBE_ENUM_DMAX)
        if _support(t.orders) <= t.dmax
    ]
    labels = inputs.classify_inputs(checks, 0, per_start=PROBE_REPEATS, max_steps=0)

    results = [
        *orbit_pass([query], cache_root, tracer),
        *enum_pass(targets, tracer),
        *classify_pass(labels, tracer),
    ]
    with hooks.installed(tracer), tracer.span("probe", "probe"):
        with tracer.span("orbits.canonical_key") as sp:
            keys = [orbits.canonical_key(r, u) for r, u in images]
        sp.counts["calls"] = len(images)
        total = Fraction(0)
        for width, rep in reps:
            total += width * orbits.horizontal_cylinders(rep).sum_h_over_w

    problems = []
    if set(keys) != set(scan.keys):
        problems.append("T/S images are not the orbit")
    if total != scan.total_hw:
        problems.append("cusp cylinder sums do not add up to the orbit sum")
    return results, problems
