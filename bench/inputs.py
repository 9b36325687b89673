"""Benchmark inputs and expected values, all derived from golden.txt.

Nothing here imports flatlyap: the golden checks arrive as objects with
``id``, ``kind`` and ``fields`` (``flatlyap.golden.GoldenCheck``), and the
``classify`` inputs are built with this module's own permutation
arithmetic, so the library only ever sees the generated text.

Permutations are tuples of 0-based images; ``compose(p, q)`` is
``x -> p[q[x]]``.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

#: golden ``lyap`` lines run by the ``orbit`` workload (orbit sizes 1,590,
#: 23,328, 690, 24,750 and 307,200).  eleven-square-even (2.4M elements)
#: is left out: one pass of it takes minutes in pure Python.
ORBIT_IDS = (
    "g4/lyap/ten-square-411",
    "g4/lyap/ten-square-3111",
    "g5/lyap/ten-square-44-even",
    "g6/lyap/eleven-square-odd",
    "g5/lyap/ten-square-71",
)

#: the ``enum`` workload scans every golden ``enum`` stratum up to this
#: degree, one below the smallest golden ``dmax``.
ENUM_DMAX = 8

#: golden ``lyap`` line whose orbit feeds the per-layer probes
PROBE_ORBIT_ID = "g4/lyap/ten-square-3111"

#: ``classify`` builds this many walk members per golden ``component`` start
CLASSIFY_PER_START = 40
CLASSIFY_MAX_STEPS = 40


# -- permutation arithmetic ---------------------------------------------------

def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """0-based images of a 1-based cycle string such as ``(1,2,3)(5,6)``."""
    images = list(range(degree))
    for cycle in re.findall(r"\(([^()]*)\)", text):
        symbols = [int(t) - 1 for t in re.findall(r"\d+", cycle)]
        for a, b in zip(symbols, symbols[1:] + symbols[:1]):
            images[a] = b
    if sorted(images) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {text!r}")
    return tuple(images)


def format_cycles(p: tuple[int, ...]) -> str:
    """1-based cycle notation with fixed points left out."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(str(x + 1))
            x = p[x]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def compose(p, q):
    return tuple(p[x] for x in q)


def act_T(r, u):
    """Horizontal shear: (r, u r^-1)."""
    return r, compose(u, inverse(r))


def act_S(r, u):
    """Quarter rotation: (u^-1, r)."""
    return inverse(u), r


def relabel(r, u, sigma):
    """Simultaneous conjugation by ``sigma``: square i becomes sigma[i]."""
    sinv = inverse(sigma)
    return (
        tuple(sigma[r[sinv[x]]] for x in range(len(r))),
        tuple(sigma[u[sinv[x]]] for x in range(len(u))),
    )


def is_transitive(r, u) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (r[x], u[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(r)


def stratum_orders(r, u) -> tuple[int, ...]:
    """Zero orders, descending: cycle lengths - 1 of u^-1 r^-1 u r."""
    c = compose(inverse(u), compose(inverse(r), compose(u, r)))
    seen = [False] * len(c)
    orders = []
    for start in range(len(c)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = c[x]
        if length >= 2:
            orders.append(length - 1)
    return tuple(sorted(orders, reverse=True))


def partition_count(n: int) -> int:
    """Number of partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def scan_candidates(degree: int) -> int:
    """Pairs the exhaustive scan tries at one degree: p(d) choices of
    ``right`` times d! choices of ``up``."""
    factorial = 1
    for k in range(2, degree + 1):
        factorial *= k
    return partition_count(degree) * factorial


# -- golden lines -------------------------------------------------------------

def _stratum(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(t) for t in text.split(",") if t), reverse=True))


def _text(check) -> str:
    f = check.fields
    return f"r={f['r']}; u={f['u']}; d={f['d']}"


def _pair(check):
    d = int(check.fields["d"])
    return parse_cycles(check.fields["r"], d), parse_cycles(check.fields["u"], d)


def _by_id(checks, cid: str):
    for check in checks:
        if check.id == cid:
            return check
    raise ValueError(f"golden.txt has no check {cid}")


@dataclass(frozen=True)
class OrbitQuery:
    id: str
    text: str
    L: str           # expected Lyapunov sum, "p/q"


@dataclass(frozen=True)
class EnumTarget:
    orders: tuple[int, ...]
    dmax: int
    checks: tuple    # the golden enum lines for this stratum


@dataclass(frozen=True)
class ClassifyInput:
    start: str       # golden id of the walk's start
    text: str
    degree: int
    orders: tuple[int, ...]
    kind: str        # expected component


def orbit_queries(checks, seed: int) -> list[OrbitQuery]:
    """The ``ORBIT_IDS`` origamis, each randomly relabelled, in seeded order.

    Relabelling changes the text the library parses but not the orbit, so
    every seed does the same orbit work.
    """
    rng = random.Random(seed)
    out = []
    for cid in ORBIT_IDS:
        check = _by_id(checks, cid)
        r, u = _pair(check)
        sigma = list(range(len(r)))
        rng.shuffle(sigma)
        r2, u2 = relabel(r, u, sigma)
        if stratum_orders(r2, u2) != stratum_orders(r, u):
            raise ValueError(f"relabelling moved {cid} out of its stratum")
        text = f"r={format_cycles(r2)}; u={format_cycles(u2)}; d={len(r)}"
        out.append(OrbitQuery(cid, text, check.fields["L"]))
    rng.shuffle(out)
    return out


def enum_targets(checks, seed: int, dmax: int = ENUM_DMAX) -> list[EnumTarget]:
    """One target per stratum named by a golden ``enum`` line, in seeded order."""
    grouped: dict[tuple[int, ...], list] = {}
    for check in checks:
        if check.kind == "enum":
            grouped.setdefault(_stratum(check.fields["stratum"]), []).append(check)
    out = [EnumTarget(orders, dmax, tuple(lines)) for orders, lines in grouped.items()]
    random.Random(seed).shuffle(out)
    return out


def enum_mismatches(target: EnumTarget, values: dict[str, set]) -> list[str]:
    """Evaluate the golden ``enum`` lines of ``target`` on the Lyapunov
    values per component found up to ``target.dmax``."""
    out = []
    every = set().union(*values.values()) if values else set()
    for check in target.checks:
        mode = check.fields["mode"]
        if mode in ("const", "subset"):
            component = check.fields["component"]
            want = {Fraction(check.fields["L"])}
            got = values.get(component, set())
            ok = got == want if mode == "const" else got <= want
        elif mode == "contains":
            want = {Fraction(t) for t in check.fields["values"].split(";")}
            got = every
            ok = want <= got and len(got) > 1
        else:
            raise ValueError(f"{check.id}: unknown enum mode {mode!r}")
        if not ok:
            out.append(f"{check.id}: {mode} {sorted(want)} but found {sorted(got)}")
    return out


@dataclass(frozen=True)
class ClassifyStart:
    id: str
    text: str
    r: tuple[int, ...]
    u: tuple[int, ...]
    orders: tuple[int, ...]
    kind: str


def classify_starts(checks) -> list[ClassifyStart]:
    out = []
    for check in checks:
        if check.kind == "component":
            r, u = _pair(check)
            out.append(
                ClassifyStart(check.id, _text(check), r, u, stratum_orders(r, u), check.fields["kind"])
            )
    return out


def classify_inputs(
    checks,
    seed: int,
    per_start: int = CLASSIFY_PER_START,
    max_steps: int = CLASSIFY_MAX_STEPS,
) -> list[ClassifyInput]:
    """Random T/S walks from every golden ``component`` origami, each
    followed by a random relabelling.

    Starts take turns, so every seed has the same mix of labels that need
    the spin invariant and labels that do not.  Every member is checked
    here to be transitive and in its start's stratum.
    """
    rng = random.Random(seed)
    starts = classify_starts(checks)
    out = []
    for _ in range(per_start):
        for st in starts:
            r, u = st.r, st.u
            for _ in range(rng.randint(0, max_steps)):
                r, u = act_T(r, u) if rng.random() < 0.5 else act_S(r, u)
            sigma = list(range(len(r)))
            rng.shuffle(sigma)
            r, u = relabel(r, u, sigma)
            if not is_transitive(r, u) or stratum_orders(r, u) != st.orders:
                raise ValueError(f"walk from {st.id} left its stratum")
            text = f"r={format_cycles(r)}; u={format_cycles(u)}; d={len(r)}"
            out.append(ClassifyInput(st.id, text, len(r), st.orders, st.kind))
    return out


def probe_query(checks) -> OrbitQuery:
    """The origami whose orbit the probes use, as golden.txt gives it."""
    check = _by_id(checks, PROBE_ORBIT_ID)
    return OrbitQuery(check.id, _text(check), check.fields["L"])


def make_inputs(workload: str, checks, seed: int):
    if workload == "orbit":
        return orbit_queries(checks, seed)
    if workload == "enum":
        return enum_targets(checks, seed)
    if workload == "classify":
        return classify_inputs(checks, seed)
    raise ValueError(f"unknown workload {workload!r}")
