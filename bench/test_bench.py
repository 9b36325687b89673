"""Tests of the benchmark's own arithmetic, inputs and golden parsing.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import hooks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from flatlyap import components, enumeration, orbits  # noqa: E402
from flatlyap.golden import load_golden  # noqa: E402
from flatlyap.origami import Origami  # noqa: E402
from spans import Tracer, by_name, covered, self_times  # noqa: E402
from workloads import PassResult  # noqa: E402

GOLDEN = load_golden()


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# -- spans ------------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 9)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_children_only_once():
    tr = Tracer(clock=FakeClock(0, 1, 2, 3, 5, 6, 7, 10))
    with tr.span("outer", "a"):
        with tr.span("mid", "a"):          # 1..5
            with tr.span("leaf", "a"):     # 2..3
                pass
        with tr.span("leaf", "a"):         # 6..7
            pass
    selfs = self_times(tr.spans)
    outer, mid, leaf1, leaf2 = tr.spans
    assert (mid.parent, leaf1.parent, leaf2.parent) == (outer.id, mid.id, outer.id)
    assert selfs == {outer.id: 10 - 4 - 1, mid.id: 4 - 1, leaf1.id: 1, leaf2.id: 1}
    layers = by_name(tr.spans)
    assert layers["leaf"].spans == 2 and layers["leaf"].self_s == 2
    assert layers["outer"].self_s + layers["mid"].self_s + layers["leaf"].self_s == 10


def test_counts_add_up_per_name():
    tr = Tracer(clock=FakeClock(0, 1, 2, 4))
    with tr.span("scan") as sp:
        pass
    sp.counts["elements"] = 7
    with tr.span("scan") as sp:
        pass
    sp.counts["elements"] = 5
    layer = by_name(tr.spans)["scan"]
    assert layer.counts == {"elements": 12}
    assert layer.spans == 2 and layer.self_s == 3


def test_spans_take_their_parents_item():
    tr = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5))
    with tr.span("item", "orbit:3"):
        with tr.span("scan"):
            with tr.span("load", "other"):
                pass
    assert [s.item for s in tr.spans] == ["orbit:3", "orbit:3", "other"]
    assert by_name(tr.spans)["item"].total_s == 5


# -- hooks ----------------------------------------------------------------------------

SMALL_ORBIT = "g5/lyap/ten-square-44-even"      # 690 elements


def _small_query():
    check = next(c for c in GOLDEN if c.id == SMALL_ORBIT)
    f = check.fields
    return inputs.OrbitQuery(check.id, f"r={f['r']}; u={f['u']}; d={f['d']}", f["L"])


def test_hooks_wrap_every_binding_and_restore_it():
    label = components.component_label
    from_text = Origami.__dict__["from_text"]
    tr = Tracer()
    with hooks.installed(tr):
        assert label not in (enumeration.component_label, components.component_label)
        Origami.from_text(_small_query().text)
    assert enumeration.component_label is components.component_label is label
    assert Origami.__dict__["from_text"] is from_text
    assert [s.name for s in tr.spans] == ["origami.parse"]


def test_traced_orbit_pass_records_the_library_calls(tmp_path):
    scan = orbits.orbit_scan
    tr = Tracer()
    plain, traced = workloads.orbit_pass([_small_query()], str(tmp_path), tr)
    assert plain.failures == traced.failures == []
    assert plain.units == traced.units == 690
    assert orbits.orbit_scan is scan
    layers = by_name(tr.spans)
    assert layers["orbits.orbit_scan"].spans == 1
    assert layers["orbits.orbit_scan"].counts == {"elements": 690}
    assert layers["orbits.cache_miss"].spans == layers["orbits.cache_hit"].spans == 1
    assert layers["orbits.cache_load"].spans == 2
    assert layers["orbits.cache_store"].spans == 2        # entry and alias
    assert {s.item for s in tr.spans} == {"orbit:0"}


def test_orbit_repeat_fails_when_the_cache_misses(tmp_path, monkeypatch):
    monkeypatch.setattr(orbits.OrbitCache, "lookup_any", lambda self, key: None)
    (res,) = workloads.orbit_pass([_small_query()], str(tmp_path))
    assert len(res.failures) == 1 and "ResourceCapError" in res.failures[0]


# -- classify generator -------------------------------------------------------------

def test_generator_is_deterministic():
    a = inputs.classify_inputs(GOLDEN, seed=11, per_start=5)
    b = inputs.classify_inputs(GOLDEN, seed=11, per_start=5)
    c = inputs.classify_inputs(GOLDEN, seed=12, per_start=5)
    text = lambda xs: "\n".join(x.text for x in xs).encode()
    assert text(a) == text(b)
    assert text(a) != text(c)
    assert len(a) == 5 * 7


def test_generated_pairs_are_transitive_and_stay_in_their_stratum():
    starts = {s.id: s for s in inputs.classify_starts(GOLDEN)}
    for x in inputs.classify_inputs(GOLDEN, seed=3, per_start=4):
        fields = dict(part.strip().split("=", 1) for part in x.text.split(";"))
        d = int(fields["d"])
        r, u = inputs.parse_cycles(fields["r"], d), inputs.parse_cycles(fields["u"], d)
        assert inputs.is_transitive(r, u)
        assert inputs.stratum_orders(r, u) == starts[x.start].orders == x.orders
        assert x.kind == starts[x.start].kind


def test_walk_steps_match_the_library():
    from flatlyap.orbits import act_S, act_T, canonical_key
    from flatlyap.origami import Origami

    for start in inputs.classify_starts(GOLDEN):
        o = Origami.from_text(start.text)
        for ours, theirs in ((inputs.act_T, act_T), (inputs.act_S, act_S)):
            r, u = ours(start.r, start.u)
            t = theirs(o)
            assert canonical_key(r, u) == canonical_key(t.right.zero_based(), t.up.zero_based())


def test_scan_candidates():
    assert [inputs.partition_count(n) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]
    assert inputs.scan_candidates(8) == 22 * 40320


# -- golden lines -------------------------------------------------------------------

def test_orbit_queries_carry_the_golden_L():
    queries = inputs.orbit_queries(GOLDEN, seed=5)
    golden_L = {c.id: c.fields["L"] for c in GOLDEN if c.kind == "lyap"}
    assert sorted(q.id for q in queries) == sorted(inputs.ORBIT_IDS)
    assert all(q.L == golden_L[q.id] for q in queries)
    assert golden_L["g5/lyap/ten-square-71"] == "7133/3200"


def test_enum_targets_group_the_golden_lines():
    targets = {t.orders: t for t in inputs.enum_targets(GOLDEN, seed=0)}
    assert set(targets) == {(2,), (3, 1), (2, 2), (1, 1, 1, 1)}
    assert {c.id for c in targets[(2, 2)].checks} == {"g3/enum/2-2-odd", "g3/enum/2-2-hyp"}
    assert all(t.dmax == inputs.ENUM_DMAX for t in targets.values())


def test_enum_modes():
    targets = {t.orders: t for t in inputs.enum_targets(GOLDEN, seed=0)}
    pair = targets[(2, 2)]
    good = {"odd": {Fraction(5, 3)}, "hyperelliptic": {Fraction(2)}}
    assert inputs.enum_mismatches(pair, good) == []
    varying_odd = {"odd": {Fraction(5, 3), Fraction(1)}, "hyperelliptic": {Fraction(2)}}
    assert len(inputs.enum_mismatches(pair, varying_odd)) == 1
    assert len(inputs.enum_mismatches(pair, {})) == 2     # const needs the value present

    principal = targets[(1, 1, 1, 1)]
    assert inputs.enum_mismatches(principal, {"connected": {Fraction(1), Fraction(2), Fraction(7, 4)}}) == []
    assert len(inputs.enum_mismatches(principal, {"connected": {Fraction(1), Fraction(7, 4)}})) == 1
    assert len(inputs.enum_mismatches(principal, {"connected": {Fraction(1)}})) == 1


def test_enum_unknown_mode_is_an_error():
    (check,) = [c for c in GOLDEN if c.id == "g3/enum/3-1"]
    bad = type(check)(check.id, check.kind, {**check.fields, "mode": "sometimes"})
    with pytest.raises(ValueError):
        inputs.enum_mismatches(inputs.EnumTarget((3, 1), 8, (bad,)), {})


def test_classify_starts_are_the_golden_component_lines():
    starts = inputs.classify_starts(GOLDEN)
    assert [s.kind for s in starts] == [c.fields["kind"] for c in GOLDEN if c.kind == "component"]
    assert len(starts) == 7
    five = next(s for s in starts if s.id == "g2/component/five-square")
    assert five.orders == (2,) and five.kind == "hyperelliptic"


# -- metrics ---------------------------------------------------------------------------

def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, "p99")
    assert run.tail([float(i) for i in range(1, 1201)]) == (1188.0, "p99")
    assert run.tail([float(i) for i in range(1, 281)]) == (270.0, "p96.43")
    assert run.tail([float(i) for i in range(1, 11)]) == (10.0, "max")


def _declared():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_declaration():
    res = PassResult(wall=2.0, latencies=[0.5, 1.5], units=10, attempted=2)
    got = run.end_to_end([0.1, 0.2, 0.3], [res])
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: unit for k, (_, unit) in got.items()} == declared
    assert got["items_per_s"][0] == 5.0 and got["item_ms_tail"][0] == 1500.0


def test_items_count_at_their_scaled_median():
    passes = [
        PassResult(latencies=[1.0, None], scale=2.0),
        PassResult(latencies=[3.0, None], scale=1.0),
        PassResult(latencies=[5.0, None], scale=0.5),
    ]
    assert run.item_times(passes) == [2.5]


# -- calibration ----------------------------------------------------------------------

def test_bursts_inside_an_interval_are_left_out():
    cal = calibrate.Calibrator()
    cal.starts, cal.durations = [1.0, 2.0, 5.0], [0.25, 0.5, 1.0]
    assert cal.inside(1.5, 5.0) == 0.5
    assert cal.inside(0.0, 9.0) == 1.75


def test_scale_is_the_time_average_of_the_host_speed():
    # half the bursts at full speed, half at a quarter: a reference host
    # does the stretch's work in (1 + 1/4) / 2 of its seconds
    cal = calibrate.Calibrator()
    cal.starts = [float(i) for i in range(20)]
    cal.durations = [1.0] * 10 + [4.0] * 10
    assert cal.scale() == pytest.approx(cal.reference * 0.625)
    assert cal.scale(10.0, 20.0) == pytest.approx(cal.reference / 4.0)
    assert cal.scale(15.0, 20.0) == cal.scale()               # too few: all


def test_calibrator_bursts_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator() as cal:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
        assert 0 < calibrate.elapsed(t0) < perf_counter() - t0
    n = len(cal.durations)
    assert n >= 2 and signal.getsignal(signal.SIGALRM) is before
    t0 = perf_counter()
    while perf_counter() - t0 < 0.05:
        pass
    assert len(cal.durations) == n
    assert cal.burst() == cal.burst()


def test_per_layer_metrics_match_the_declaration():
    names = [
        "orbits.canonical_key", "orbits.orbit_scan", "orbits.cusp_widths", "orbits.cylinders",
        "orbits.cache_miss", "orbits.cache_store", "orbits.cache_load", "orbits.cache_hit",
        "enumeration.enumerate", "enumeration.orbit_partition", "components.label",
        "components.involution", "components.spin_parity", "origami.parse", "origami.stratum",
    ]
    tr = Tracer(clock=FakeClock(*range(2 * len(names))))
    for name in names:
        with tr.span(name) as sp:
            pass
        sp.counts.update(calls=5, elements=4, candidates=8, classes=2, orbits=1)
    got = run.per_layer([], tr.spans, overhead=0.01)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: unit for k, (_, unit) in got.items()} == declared
    assert got["enumeration.class_yield"][0] == 0.25
    assert got["orbits.cache_hits"][0] == 1 and got["orbits.cache_misses"][0] == 1
