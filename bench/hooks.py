"""Span wrappers on the flatlyap names the workloads' calls go through.

``installed(tracer)`` replaces each name in ``HOOKS`` with a wrapper that
runs the original inside a span, and puts the originals back on exit.
A module-level function is replaced in every flatlyap module that binds
it, so a call between library modules (``nonvarying_report`` calling
``component_label``, ``lyapunov_sum`` calling ``orbit_scan``) is traced
exactly as a call from the benchmark is.  The traced pass therefore runs
the same code as the untraced one; only the boundaries gain a span.

``canonical_key`` is not wrapped: it runs millions of times per pass, and
a span per call would swamp what it measures.  The probes time it as a
batch of calls of its own.
"""
from __future__ import annotations

import functools
import sys
from contextlib import contextmanager

from flatlyap import components, enumeration, orbits
from flatlyap.origami import Origami

import inputs


def _scan(sp, args, result):
    sp.counts["elements"] = result.size


def _lookup(sp, args, result):
    sp.name = "orbits.cache_miss" if result is None else "orbits.cache_hit"


def _enumerate(sp, args, result):
    # p(d)·d!, the pairs a full scan of degree d tries; the program does
    # not report how many it tried, so this is a fixed unit of work
    sp.counts.update(candidates=inputs.scan_candidates(args[0]), classes=len(result))


def _partition(sp, args, result):
    sp.counts.update(classes=len(args[0]), orbits=len(result))


#: (owner, attribute, span name, after(span, args, result) or None)
HOOKS = (
    (Origami, "from_text", "origami.parse", None),
    (Origami, "stratum", "origami.stratum", None),
    (orbits, "orbit_scan", "orbits.orbit_scan", _scan),
    (orbits.OrbitScan, "cusp_widths", "orbits.cusp_widths", None),
    (orbits, "horizontal_cylinders", "orbits.cylinders", None),
    (orbits.OrbitCache, "__init__", "orbits.cache_load", None),
    (orbits.OrbitCache, "lookup_any", "orbits.cache_lookup", _lookup),
    (orbits.OrbitCache, "store", "orbits.cache_store", None),
    (orbits.OrbitCache, "store_alias", "orbits.cache_store", None),
    (enumeration, "enumerate_origamis", "enumeration.enumerate", _enumerate),
    (enumeration, "orbit_partition", "enumeration.orbit_partition", _partition),
    (components, "component_label", "components.label", None),
    (components, "hyperelliptic_involution", "components.involution", None),
    (components, "spin_parity", "components.spin_parity", None),
)


def _traced(fn, tracer, name, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if after is not None:
            after(sp, args, result)
        return result

    return traced


def _bindings(owner, attr):
    """(namespace, name) pairs to replace for one hook."""
    if isinstance(owner, type):
        return [(owner, attr)]
    fn = getattr(owner, attr)
    return [
        (module, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").split(".")[0] == "flatlyap"
        for name, value in list(vars(module).items())
        if value is fn
    ]


@functools.cache
def _targets(hooks):
    """(namespace, name, original, span name, after) per binding, found
    once: the traced pass installs the hooks for every item."""
    return [
        (target, key, vars(target)[key], name, after)
        for owner, attr, name, after in hooks
        for target, key in _bindings(owner, attr)
    ]


@contextmanager
def installed(tracer, hooks=HOOKS):
    targets = _targets(hooks)
    try:
        for target, key, original, name, after in targets:
            if isinstance(original, classmethod):
                wrapped = classmethod(_traced(original.__func__, tracer, name, after))
            else:
                wrapped = _traced(original, tracer, name, after)
            setattr(target, key, wrapped)
        yield
    finally:
        for target, key, original, _, _ in targets:
            setattr(target, key, original)
