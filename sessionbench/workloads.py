"""Seeded workload generators and their plain-Python reference.

Each generator turns ``(workload, seed)`` into a :class:`Spec`: the
operands (NetCDF files to write and values to bind), the statement
sequence of one round, and every statement's expected outcome, which is
computed here in plain Python from the generated operands, following
every rebind in the round.  Nothing here imports the system under test.

A round is replayed unchanged by the harness, so every round must leave
the session's bindings as it found them: each rebind to an alternative
value is later undone by a rebind back.  Template counts and the order
of templates in a round are fixed by the generator; the seed chooses
constants and operand contents, so runs with different seeds differ in
data, not in the shape of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from check import BOTTOM, WRITE_OK, Bot, RArray, expect

WORKLOADS = ("hot", "adhoc", "bulk", "sharded")

#: the token a macro name carries when it must be fresh in every round;
#: the harness replaces it with the round's tag (macros cannot be
#: redefined by an AQL statement)
ROUND_TOKEN = "__R__"


@dataclass
class Stmt:
    """One statement of a round.

    ``via`` says how the closed-loop client issues it: ``run``
    (``Session.run``), ``query_value`` (the library call, used for texts
    without a trailing ``;``), ``set_val`` (``env.set_val`` of the
    prepared value ``value_key``) or ``macro`` (``env.register_macro``
    with ``replace=True`` — a macro redefinition).
    """

    template: str
    kind: str                # "query" | "write"
    via: str
    text: str
    value_key: str = ""
    expected: Any = None


@dataclass
class Spec:
    """Everything one run of a workload needs, all derived from the seed."""

    workload: str
    seed: int
    session: Dict[str, Any]
    #: ``(file, {dim: extent}, {var: (nc_type, dim_names, flat_values)})``
    files: List[Tuple[str, Dict[str, int], Dict[str, tuple]]]
    #: set-up bindings, in order: ``("readval", text)`` and ``("run",
    #: text)`` run a statement, ``("set", name, key)`` binds a value
    binds: List[tuple]
    #: prepared values: frozensets, scalars, or ``("array", dims, flat)``
    values: Dict[str, Any]
    #: external primitives to register, by name (see :data:`EXTERNALS`)
    externals: List[str]
    round: List[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# external primitives (the paper's RegisterCO), shared with the reference
# ---------------------------------------------------------------------------

def heat_score(readings) -> float:
    """A day's discomfort score from (temperature, humidity, wind) triples."""
    total = 0.0
    count = 0
    for temperature, humidity, wind in readings:
        total += temperature + 0.1 * humidity - 0.5 * wind
        count += 1
    return total / count if count else 0.0


def sunset_hour(args) -> int:
    """A toy sunset hour for (latitude, longitude, day)."""
    latitude, _longitude, day = args
    return 17 + (day * 7 + int(latitude)) % 5


#: the externals as registered in a session (``RegisterCO``); the engine
#: hands ``heat`` an array, the reference a list of the same triples
EXTERNALS = {
    "heat": lambda array: heat_score(array.flat),
    "sunset": sunset_hour,
}


# ---------------------------------------------------------------------------
# reference helpers (AQL semantics in plain Python)
# ---------------------------------------------------------------------------

def subseq(flat: list, i: int, j: int) -> list:
    """``subseq!(A, i, j)``: ``A[i+k]`` for ``k < (j+1) - i`` (monus);
    a subscript past the end is ⊥."""
    count = max(j + 1 - i, 0)
    if count and i + count > len(flat):
        raise Bot
    return flat[i:i + count]


def index_groups(pairs) -> RArray:
    """``index!`` of a set of (nat, value) pairs."""
    if not pairs:
        return RArray((0,), [])
    extent = max(key for key, _ in pairs) + 1
    groups: List[set] = [set() for _ in range(extent)]
    for key, value in pairs:
        groups[key].add(value)
    return RArray((extent,), [frozenset(group) for group in groups])


def outcome(fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except Bot:
        return BOTTOM


def _order(workload: str) -> random.Random:
    """The seed-independent generator of a workload's statement order."""
    return random.Random(f"{workload}/order")


def _distinct(rng: random.Random, make: Callable[[random.Random], tuple],
              count: int, seen: set) -> List[tuple]:
    """``count`` draws of ``make`` whose texts (first item) are unseen."""
    out = []
    while len(out) < count:
        item = make(rng)
        if item[0] not in seen:
            seen.add(item[0])
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# hot: repeated short queries over small operands
# ---------------------------------------------------------------------------

HOT_SIZES = {"v": 200, "m": (20, 20), "s": 60}
HOT_TEXTS_PER_TEMPLATE = 5
HOT_QUERIES_PER_ROUND = 1980
HOT_WRITES_PER_ROUND = 20


def _hot_templates():
    """``name -> make(rng) -> (text, ref(state))`` for the hot texts."""
    n_v = HOT_SIZES["v"]
    rows, cols = HOT_SIZES["m"]

    def lookup(r):
        i, c = r.randrange(n_v), r.randrange(1, 100)
        return f"v[{i}] + {c}", lambda st: st["v"][i] + c

    def matrix(r):
        i, j, c = r.randrange(rows), r.randrange(cols), r.randrange(2, 9)
        return (f"m[{i}, {j}] * {c}",
                lambda st: st["m"][i * cols + j] * c)

    def member(r):
        c = r.randrange(500)
        return f"{c} in s", lambda st: c in st["s"]

    def count_below(r):
        c = r.randrange(50, 450)
        return (f"count!({{x | \\x <- s, x < {c}}})",
                lambda st: sum(1 for x in st["s"] if x < c))

    def arith(r):
        a, b, c = r.randrange(1000), r.randrange(100), r.randrange(100)
        return f"{a} + {b} * {c}", lambda st: a + b * c

    def compare(r):
        i, j, k = r.randrange(n_v), r.randrange(rows), r.randrange(cols)
        return (f"v[{i}] < m[{j}, {k}]",
                lambda st: st["v"][i] < st["m"][j * cols + k])

    def macro(r):
        i = r.randrange(n_v)
        return f"hf!(v[{i}])", lambda st: st["v"][i] * st["K"] + 1

    def pair(r):
        i, j = r.randrange(n_v), r.randrange(rows)
        return (f"(v[{i}], m[{j}, {j}] + k)",
                lambda st: (st["v"][i], st["m"][j * cols + j] + st["k"]))

    def out_of_bounds(r):
        i = r.randrange(n_v, 2 * n_v)
        return f"v[{i}] + 1", lambda st: BOTTOM

    def small_sum(r):
        c, n = r.randrange(2, 9), r.randrange(8, 12)
        return (f"summap(fn \\x => x * {c})!(gen!{n})",
                lambda st: c * n * (n - 1) // 2)

    return {fn.__name__: fn for fn in (
        lookup, matrix, member, count_below, arith, compare, macro, pair,
        out_of_bounds, small_sum)}


def _zipf_counts(ranks: int, total: int) -> List[int]:
    """Per-rank counts summing to ``total``: one each, the rest ∝ 1/rank."""
    weights = [1.0 / (rank + 1) for rank in range(ranks)]
    scale = (total - ranks) / sum(weights)
    counts = [1 + int(weight * scale) for weight in weights]
    for rank in range(total - sum(counts)):
        counts[rank % ranks] += 1
    return counts


def _hot(seed: int) -> Spec:
    rng = random.Random(f"hot/{seed}")
    n_v = HOT_SIZES["v"]
    rows, cols = HOT_SIZES["m"]
    v0 = [rng.randrange(1000) for _ in range(n_v)]
    v1 = [rng.randrange(1000) for _ in range(n_v)]
    m = [rng.randrange(100) for _ in range(rows * cols)]
    s0 = frozenset(rng.sample(range(500), HOT_SIZES["s"]))
    s1 = frozenset(rng.sample(range(500), HOT_SIZES["s"]))
    k0, k1 = rng.sample(range(1, 100), 2)
    big_k0, big_k1 = rng.sample(range(2, 9), 2)

    templates = _hot_templates()
    names = list(templates)
    seen: set = set()
    texts = {name: _distinct(rng, templates[name], HOT_TEXTS_PER_TEMPLATE,
                             seen) for name in names}
    # rank r (Zipf weight 1/(r+1)) is a fixed (template, instance) slot,
    # so the template mix does not depend on the seed
    counts = _zipf_counts(len(names) * HOT_TEXTS_PER_TEMPLATE,
                          HOT_QUERIES_PER_ROUND)
    queries = []
    for rank, count in enumerate(counts):
        name = names[rank % len(names)]
        instance = rank // len(names)
        text, ref = texts[name][instance]
        # half the texts (alternating within each template) omit the
        # terminator: the library call path
        via, source = (("run", text + ";")
                       if (rank % len(names) + instance) % 2 == 0
                       else ("query_value", text))
        queries += [(name, via, source, ref)] * count
    order = _order("hot")
    order.shuffle(queries)

    # writes come in (rebind, restore) pairs so a round ends where it began
    pairs = (["v"] * 2 + ["s"] * 2 + ["k"] * 5 + ["K"])
    assert 2 * len(pairs) == HOT_WRITES_PER_ROUND
    events = pairs * 2
    order.shuffle(events)
    seen_count: Dict[str, int] = {}
    writes = []
    for operand in events:
        flip = seen_count.get(operand, 0) % 2 == 0   # rebind, else restore
        seen_count[operand] = seen_count.get(operand, 0) + 1
        writes.append((operand, flip))

    def write_stmt(operand: str, flip: bool) -> Tuple[Stmt, Callable]:
        if operand == "v":
            key, value = ("v1", v1) if flip else ("v0", v0)
            return (Stmt("rebind_vector", "write", "set_val", "v", key),
                    lambda st: st.update(v=value))
        if operand == "s":
            key, value = ("s1", s1) if flip else ("s0", s0)
            return (Stmt("rebind_set", "write", "set_val", "s", key),
                    lambda st: st.update(s=value))
        if operand == "k":
            value = k1 if flip else k0
            return (Stmt("val_scalar", "write", "run",
                         f"val \\k = {value};"),
                    lambda st: st.update(k=value))
        value = big_k1 if flip else big_k0
        return (Stmt("redefine_macro", "write", "macro",
                     f"macro \\hf = fn \\x => x * {value} + 1;"),
                lambda st: st.update(K=value))

    state = {"v": v0, "m": m, "s": s0, "k": k0, "K": big_k0}
    stride = len(queries) / len(writes)
    write_at = {int((slot + 0.5) * stride): slot
                for slot in range(len(writes))}
    sequence = []
    for position, (name, via, source, ref) in enumerate(queries):
        if position in write_at:
            stmt, apply = write_stmt(*writes[write_at[position]])
            apply(state)
            stmt.expected = expect(state["k"] if stmt.via == "run"
                                   else WRITE_OK)
            sequence.append(stmt)
        stmt = Stmt(name, "query", via, source)
        stmt.expected = expect(outcome(lambda: ref(state)))
        sequence.append(stmt)
    assert state == {"v": v0, "m": m, "s": s0, "k": k0, "K": big_k0}

    return Spec(
        workload="hot", seed=seed, session={},
        files=[("hot.nc", {"n": n_v, "r": rows, "c": cols},
                {"v": ("int", ("n",), v0), "m": ("int", ("r", "c"), m)})],
        binds=[("readval", 'readval \\v using NETCDF at ("hot.nc", "v");'),
               ("readval", 'readval \\m using NETCDF at ("hot.nc", "m");'),
               ("set", "s", "s0"),
               ("run", f"val \\k = {k0};"),
               ("run", f"macro \\hf = fn \\x => x * {big_k0} + 1;")],
        values={"v0": ("array", (n_v,), v0), "v1": ("array", (n_v,), v1),
                "s0": s0, "s1": s1},
        externals=[], round=sequence)


# ---------------------------------------------------------------------------
# adhoc: every statement a fresh text of a paper derivation shape
# ---------------------------------------------------------------------------

ADHOC_SIZES = {"v": 100, "s": 40, "r": 25, "t": 25}
ADHOC_PER_TEMPLATE = 24
ADHOC_VALS = 16          # fresh val definitions (each with one use)
#: fresh macro definitions (each with one use); every macro registration
#: flushes the whole plan cache, so few enough that the cache fills and
#: evicts between them
ADHOC_MACROS = 2


def _adhoc(seed: int) -> Spec:
    rng = random.Random(f"adhoc/{seed}")
    n_v = ADHOC_SIZES["v"]
    v = [rng.randrange(1000) for _ in range(n_v)]
    s = frozenset(rng.sample(range(1000), ADHOC_SIZES["s"]))
    rel_r = frozenset((rng.randrange(100), rng.randrange(10))
                      for _ in range(ADHOC_SIZES["r"]))
    rel_t = frozenset((rng.randrange(10), rng.randrange(100))
                      for _ in range(ADHOC_SIZES["t"]))

    def beta_p(r):
        a, b, c = r.randrange(1000), r.randrange(1000), r.randrange(2, 50)
        return (f"(fn (\\x, \\y) => x * {c} + y)!({a}, {b})",
                lambda: a * c + b)

    def delta_p(r):
        a, b, c = r.randrange(1000), r.randrange(1000), r.randrange(1000)
        return (f"let val (\\p, \\q) = ({a}, {b}) in p * q + {c} end",
                lambda: a * b + c)

    def fusion(r):
        c, d = r.randrange(1, 50), r.randrange(2, 9)
        n, e = r.randrange(20, 30), r.randrange(0, 20)
        return (f"{{x + {c} | \\x <- {{y * {d} | \\y <- gen!{n}}}, x > {e}}}",
                lambda: frozenset(y * d + c for y in range(n) if y * d > e))

    def motion(r):
        n, m = r.randrange(3, 12), r.randrange(40, 60)
        return (f"[[ v[i] * summap(fn \\j => j)!(gen!{n}) | \\i < {m} ]]",
                lambda: RArray((m,), [v[i] * (n * (n - 1) // 2)
                                      for i in range(m)]))

    def bounds(r):
        n, c = r.randrange(40, 60), r.randrange(1, 100)
        return (f"[[ if i < len!v then v[i] + {c} else 0 | \\i < {n} ]]",
                lambda: RArray((n,), [v[i] + c for i in range(n)]))

    def equi_join(r):
        c = r.randrange(0, 90)
        return (f"{{(x, z) | (\\x, \\y) <- r, (y, \\z) <- t, x > {c}}}",
                lambda: frozenset((x, z) for x, y in rel_r
                                  for y2, z in rel_t if y == y2 and x > c))

    def transpose(r):
        m, n, c = r.randrange(6, 10), r.randrange(6, 10), r.randrange(2, 20)
        return (f"transpose!([[ i * {c} + j | \\i < {m}, \\j < {n} ]])",
                lambda: RArray((n, m), [i * c + j for j in range(n)
                                        for i in range(m)]))

    def zip_subseq(r):
        a = r.randrange(n_v - 20)
        b, c = a + 19, r.randrange(n_v - 20)
        return (f"zip!(subseq!(v, {a}, {b}), subseq!(v, {c}, {c + b - a}))",
                lambda: RArray((b - a + 1,), list(zip(
                    subseq(v, a, b), subseq(v, c, c + b - a)))))

    def histogram(r):
        c = r.randrange(3, 30)
        return (f"index!({{(x % {c}, x) | \\x <- s}})",
                lambda: index_groups({(x % c, x) for x in s}))

    def out_of_bounds(r):
        a = r.randrange(n_v)
        b = r.randrange(n_v, 2 * n_v)
        return f"subseq!(v, {a}, {b})", lambda: subseq(v, a, b)

    def dims(r):
        m, n = r.randrange(5, 30), r.randrange(5, 30)
        return (f"dim_2!([[ i + j | \\i < {m}, \\j < {n} ]])",
                lambda: (m, n))

    def real_arith(r):
        a, b = r.randrange(100), r.randrange(100)
        return (f"real!({a}) / 4.0 + real!({b}) * 0.5",
                lambda: float(a) / 4.0 + float(b) * 0.5)

    templates = [beta_p, delta_p, fusion, motion, bounds, equi_join,
                 transpose, zip_subseq, histogram, out_of_bounds, dims,
                 real_arith]
    seen: set = set()
    units: List[List[Stmt]] = []
    for make in templates:
        for text, ref in _distinct(rng, make, ADHOC_PER_TEMPLATE, seen):
            stmt = Stmt(make.__name__, "query", "run", text + ";")
            stmt.expected = expect(outcome(ref))
            units.append([stmt])
    for k in range(ADHOC_VALS):
        n, c = rng.randrange(10, n_v), rng.randrange(1, 100)
        i, d = rng.randrange(n), rng.randrange(2, 9)
        defn = Stmt("define_val", "write", "run",
                    f"val \\w{k} = [[ v[i] + {c} | \\i < {n} ]];")
        defn.expected = expect(RArray((n,), [x + c for x in v[:n]]))
        use = Stmt("use_val", "query", "run", f"w{k}[{i}] * {d};")
        use.expected = expect((v[i] + c) * d)
        units.append([defn, use])
    for k in range(ADHOC_MACROS):
        a, b, e = rng.randrange(2, 50), rng.randrange(100), rng.randrange(1000)
        name = f"f{k}{ROUND_TOKEN}"
        defn = Stmt("define_macro", "write", "run",
                    f"macro \\{name} = fn \\x => x * {a} + {b};")
        defn.expected = WRITE_OK
        use = Stmt("use_macro", "query", "run", f"{name}!({e});")
        use.expected = expect(e * a + b)
        units.append([defn, use])
    _order("adhoc").shuffle(units)

    return Spec(
        workload="adhoc", seed=seed, session={},
        files=[("adhoc.nc", {"n": n_v}, {"v": ("int", ("n",), v)})],
        binds=[("readval", 'readval \\v using NETCDF at ("adhoc.nc", "v");'),
               ("set", "s", "s"), ("set", "r", "r"), ("set", "t", "t")],
        values={"s": s, "r": rel_r, "t": rel_t},
        externals=[], round=[stmt for unit in units for stmt in unit])


# ---------------------------------------------------------------------------
# bulk / sharded: large dense operands, physical operators do the work
# ---------------------------------------------------------------------------

BULK_SIZES = {
    "A": (500, 500),      # kernel tabulations, transpose
    "B": (18, 18),        # branchy (non-kernel) tabulation
    "V": 4000,            # Σ, zip/subseq
    "P": 400,             # index grouping keys
    "R": 200, "U": 200,   # equi-join relations
    "days": 4,            # Q1: 24 hourly readings per day
    "grid": (240, 4, 4),  # Q2: hours x lat x lon
}
BULK_KERNEL_BIG = 400     # 400^2 cells: above kernel_min_cells (1 << 17)
BULK_KERNEL_SMALL = 360   # 360^2 cells: below it
BULK_STORE = 300          # the stored result r is BULK_STORE^2 cells
BULK_SUM = 1000
BULK_ZIP = 300
BULK_PER_TEMPLATE = 3
BULK_STORES = 2           # val store + use + writeval, per round

SHARDED_SESSION = {"parallel_workers": 2, "parallel_backend": "process"}


def _bulk(seed: int, workload: str) -> Spec:
    rng = random.Random(f"bulk/{seed}")
    na, ma = BULK_SIZES["A"]
    nb, mb = BULK_SIZES["B"]
    n_v, n_p = BULK_SIZES["V"], BULK_SIZES["P"]
    a = [rng.randrange(100) for _ in range(na * ma)]
    b = [rng.randrange(100) for _ in range(nb * mb)]
    vec = [rng.randrange(1000) for _ in range(n_v)]
    p = frozenset(rng.sample(range(4000), n_p))
    rel_r = frozenset((rng.randrange(1000), rng.randrange(50))
                      for _ in range(BULK_SIZES["R"]))
    rel_u = frozenset((rng.randrange(50), rng.randrange(1000))
                      for _ in range(BULK_SIZES["U"]))
    days = BULK_SIZES["days"]
    hours = 24 * days
    temp = [round(60.0 + rng.random() * 40.0, 3) for _ in range(hours)]
    humid = [round(20.0 + rng.random() * 70.0, 3) for _ in range(hours)]
    wind = [round(rng.random() * 20.0, 3) for _ in range(2 * hours * 4)]
    gh, glat, glon = BULK_SIZES["grid"]
    grid = [round(50.0 + rng.random() * 50.0, 3)
            for _ in range(gh * glat * glon)]
    lat_i, lon_i = rng.randrange(glat), rng.randrange(glon)
    latitude, longitude = 40.0 + rng.random(), -74.0 + rng.random()

    def kernel_big(r):
        c = r.randrange(2, 9)
        n = BULK_KERNEL_BIG
        return (f"[[ A[i, j] * {c} + A[j, i] | \\i < {n}, \\j < {n} ]]",
                lambda: RArray((n, n), [a[i * ma + j] * c + a[j * ma + i]
                                        for i in range(n)
                                        for j in range(n)]))

    def kernel_small(r):
        c, d = r.randrange(2, 9), r.randrange(2, 9)
        n = BULK_KERNEL_SMALL
        return (f"[[ A[i, j] * {c} + A[j, i] * {d} | \\i < {n}, \\j < {n} ]]",
                lambda: RArray((n, n), [a[i * ma + j] * c + a[j * ma + i] * d
                                        for i in range(n)
                                        for j in range(n)]))

    def branchy(r):
        c = r.randrange(20, 80)
        return (f"[[ if B[i, j] > {c} then B[i, j] - {c} else {c} - B[i, j]"
                f" | \\i < {nb}, \\j < {mb} ]]",
                lambda: RArray((nb, mb), [abs(x - c) for x in b]))

    def sigma(r):
        c = r.randrange(2, 9)
        return (f"summap(fn \\i => V[i] * {c})!(gen!{BULK_SUM})",
                lambda: sum(vec[i] * c for i in range(BULK_SUM)))

    def zip_subseq(r):
        i, j = r.randrange(n_v - BULK_ZIP), r.randrange(n_v - BULK_ZIP)
        hi_i, hi_j = i + BULK_ZIP - 1, j + BULK_ZIP - 1
        return (f"zip!(subseq!(V, {i}, {hi_i}), subseq!(V, {j}, {hi_j}))",
                lambda: RArray((BULK_ZIP,), list(zip(
                    vec[i:hi_i + 1], vec[j:hi_j + 1]))))

    def transpose(r):
        return ("transpose!(A)",
                lambda: RArray((ma, na), [a[i * ma + j] for j in range(ma)
                                          for i in range(na)]))

    def hash_join(r):
        c = r.randrange(1000)
        return (f"{{(x, z) | (\\x, \\y) <- R, (y, \\z) <- U, z <> {c}}}",
                lambda: frozenset((x, z) for x, y in rel_r
                                  for y2, z in rel_u if y == y2 and z != c))

    def group_dense(r):
        c = r.randrange(40, 80)
        return (f"index!({{(x % {c}, x) | \\x <- P}})",
                lambda: index_groups({(x % c, x) for x in p}))

    def group_sparse(r):
        c = r.randrange(4)
        return (f"index!({{(x * 4 + {c}, x) | \\x <- P}})",
                lambda: index_groups({(x * 4 + c, x) for x in p}))

    def heatwave(r):
        thr = r.randrange(70, 90)
        evenpos = [wind[(2 * i) * 4] for i in range(hours)]
        trw = list(zip(temp, humid, evenpos))
        return ((f"{{d | \\d <- gen!{days}, "
                 f"\\WS' == evenpos!(proj_col!(WS, 0)), "
                 f"\\TRW == zip_3!(T, RH, WS'), "
                 f"\\A == subseq!(TRW, d*24, d*24+23), heat!(A) > {thr}.0}}"),
                lambda: frozenset(d for d in range(days)
                                  if heat_score(trw[d * 24:d * 24 + 24])
                                  > thr))

    def sunset(r):
        thr = r.randrange(70, 95)

        def ref():
            found = set()
            for h in range(gh):
                t = grid[(h * glat + lat_i) * glon + lon_i]
                d = h // 24 + 1
                if (h % 24 > sunset_hour((latitude, longitude, d))
                        and t > thr):
                    found.add(d)
            return frozenset(found)
        return (f"{{d | [(\\h, _, _) : \\t] <- T3, \\d == h/24 + 1, "
                f"h % 24 > sunset!(lat, lon, d), t > {thr}.0}}", ref)

    templates = [kernel_big, kernel_small, branchy, sigma, zip_subseq,
                 transpose, hash_join, group_dense, group_sparse, heatwave,
                 sunset]
    units: List[List[Stmt]] = []
    seen: set = set()
    for make in templates:
        count = 1 if make is transpose else BULK_PER_TEMPLATE
        made = _distinct(rng, make, count, seen)
        for text, ref in made * (BULK_PER_TEMPLATE // count):
            stmt = Stmt(make.__name__, "query", "run", text + ";")
            stmt.expected = expect(outcome(ref))
            units.append([stmt])
    n = BULK_STORE
    for k in range(BULK_STORES):
        c, d = rng.randrange(1, 50), rng.randrange(2, 9)
        stored = [a[i * ma + j] + c for i in range(n) for j in range(n)]
        store = Stmt("store_val", "write", "run",
                     f"val \\r = [[ A[i, j] + {c} | \\i < {n}, \\j < {n} ]];")
        store.expected = expect(RArray((n, n), stored))
        use = Stmt("use_stored", "query", "run",
                   f"summap(fn \\i => r[i, i] * {d})!(gen!{n});")
        use.expected = expect(sum(stored[i * n + i] * d for i in range(n)))
        write = Stmt("writeval", "write", "run",
                     f'writeval r using NETCDFW at ("out{k}.nc", "r");')
        write.expected = WRITE_OK
        units.append([store, use, write])
    _order("bulk").shuffle(units)

    return Spec(
        workload=workload, seed=seed,
        session=SHARDED_SESSION if workload == "sharded" else {},
        files=[("bulk.nc", {"an": na, "am": ma, "bn": nb, "bm": mb,
                            "vn": n_v},
                {"A": ("int", ("an", "am"), a), "B": ("int", ("bn", "bm"), b),
                 "V": ("int", ("vn",), vec)}),
               ("june.nc", {"h": hours, "h2": 2 * hours, "alt": 4},
                {"T": ("double", ("h",), temp),
                 "RH": ("double", ("h",), humid),
                 "WS": ("double", ("h2", "alt"), wind)}),
               ("grid.nc", {"hour": gh, "lat": glat, "lon": glon},
                {"temp": ("double", ("hour", "lat", "lon"), grid)})],
        binds=[("readval", 'readval \\A using NETCDF at ("bulk.nc", "A");'),
               ("readval", 'readval \\B using NETCDF at ("bulk.nc", "B");'),
               ("readval", 'readval \\V using NETCDF at ("bulk.nc", "V");'),
               ("readval", 'readval \\T using NETCDF at ("june.nc", "T");'),
               ("readval", 'readval \\RH using NETCDF at ("june.nc", "RH");'),
               ("readval", 'readval \\WS using NETCDF at ("june.nc", "WS");'),
               ("readval", f'readval \\T3 using NETCDF3 at ("grid.nc", '
                           f'"temp", (0, {lat_i}, {lon_i}), '
                           f'({gh - 1}, {lat_i}, {lon_i}));'),
               ("set", "P", "P"), ("set", "R", "R"), ("set", "U", "U"),
               ("set", "lat", "lat"), ("set", "lon", "lon")],
        values={"P": p, "R": rel_r, "U": rel_u, "lat": latitude,
                "lon": longitude},
        externals=["heat", "sunset"],
        round=[stmt for unit in units for stmt in unit])


def build(workload: str, seed: int) -> Spec:
    """The spec of ``workload`` for ``seed`` (same seed, same spec)."""
    if workload == "hot":
        return _hot(seed)
    if workload == "adhoc":
        return _adhoc(seed)
    if workload in ("bulk", "sharded"):
        return _bulk(seed, workload)
    raise ValueError(f"unknown workload {workload!r}")
