"""Spans around the public functions of each ulmkit layer, from outside.

`Tracer.install` replaces each listed function or method by a wrapper that
records a span (id, name, start, end, parent id) and per-name counters.
A function imported by name into other modules is replaced there too, so
every caller goes through the wrapper. Self time is a span's duration
minus the time its wrapped children ran inside it; a generator's time is
the time spent inside its ``__next__`` calls, charged to it and taken off
whichever span consumed it. Spans stay in memory until `dump`.

`ordinal` is not wrapped: its comparisons run millions of times inside the
other layers and wrappers would swamp what they measure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self.stack: list[list] = []  # open frames: [span id, child seconds]
        self.stats: dict[str, Stat] = {}

    def stat(self, name: str) -> Stat:
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = Stat()
        return got

    def _open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), name, _clock(), None, parent]
        self.spans.append(span)
        self.stack.append([span[0], 0.0])
        return span

    def _close(self, span: list) -> float:
        """End the span on top of the stack; return its self time."""
        span[3] = _clock()
        _, child = self.stack.pop()
        took = span[3] - span[2]
        if self.stack:
            self.stack[-1][1] += took
        return took - child

    def wrap(self, name, fn, before=None, after=None):
        """Wrap fn. `name` may be a function of the call arguments;
        `after(stat, args, result, token, self_s)` sees successful calls,
        with `token = before(args)` taken just before the call."""
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = before(args) if before else None
            span = tracer._open(label)
            stat = tracer.stat(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                took = tracer._close(span)
                stat.calls += 1
                stat.self_s += took
            if after:
                after(stat, args, result, token, took)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function; counts yielded items as `.yielded`."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.stat(name).calls += 1
            return _TracedIter(tracer, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


class _TracedIter:
    def __init__(self, tracer: Tracer, name: str, it):
        self.tracer, self.name, self.it = tracer, name, it
        self.span = None

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        stat = tracer.stat(self.name)
        parent = tracer.stack[-1][0] if tracer.stack else None
        start = _clock()
        if self.span is None:
            self.span = [len(tracer.spans), self.name, start, start, parent]
            tracer.spans.append(self.span)
        tracer.stack.append([self.span[0], 0.0])
        try:
            item = next(self.it)
        except StopIteration:
            raise
        except BaseException:
            stat.errors += 1
            raise
        finally:
            end = _clock()
            _, child = tracer.stack.pop()
            if tracer.stack:
                tracer.stack[-1][1] += end - start
            stat.self_s += end - start - child
            self.span[3] = end
        stat.add("yielded", 1)
        return item


# -- what gets wrapped ------------------------------------------------------------


def _replace_everywhere(modules, original, replacement) -> None:
    """Point every module-level binding of `original` at `replacement`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer, m, construction_stages: int) -> None:
    """Wrap the listed functions of the freshly imported modules in `m`.

    `construction_stages` splits `ConstructionState.advance` self time into
    the first and last quarter of a run, to show how stages slow down.
    """
    mods = [m.package, m.pgroup, m.ulm, m.fragments, m.baf, m.construct, m.alpha, m.formats, m.cli]

    def embed_before(args):
        cache = getattr(m.baf, "_embed_cache", None)
        return None if cache is None else len(cache)

    def embed_after(stat, args, result, token, took):
        stat.add("found", result is not None)
        cache = getattr(m.baf, "_embed_cache", None)
        if token is not None and cache is not None:
            stat.add("cache_hits", len(cache) == token)

    def geniso_after(stat, args, result, token, took):
        stat.add("mapped_elems", len(result) if result is not None else 0)

    def invariants_after(stat, args, result, token, took):
        n = len(args[0].nonroot)
        stat.extra["max_nodes"] = max(stat.extra.get("max_nodes", 0), n)

    def advance_before(args):
        return args[0].stage

    def advance_after(stat, args, result, token, took):
        if token < construction_stages / 4:
            stat.add("first_quarter_s", took)
        elif token >= construction_stages * 3 / 4:
            stat.add("last_quarter_s", took)

    def subgroup_after(stat, args, result, token, took):
        stat.add("elems", len(result))

    functions = [
        (m.baf, "find_embedding", embed_before, embed_after),
        (m.baf, "leq_std_game", None, None),
        (m.baf, "leq_barker", None, None),
        (m.baf, "relation", None, None),
        (m.baf, "extend_tuple", None, None),
        (m.baf, "check_extension", None, None),
        (m.pgroup, "generated_iso", None, geniso_after),
        (m.ulm, "invariants_of", None, invariants_after),
        (m.ulm, "ulm_equal", None, None),
        (m.fragments, "canonical_fragment", None, None),
        (m.formats, "load_tree", None, None),
        (m.alpha, "find_run", None, None),
        (m.alpha, "extend_run_letter", None, None),
        (m.alpha, "validate_run", None, None),
    ]
    for mod, attr, before, after in functions:
        original = getattr(mod, attr)
        name = f"{mod.__name__.split('.')[-1]}.{attr}"
        _replace_everywhere(mods, original, tracer.wrap(name, original, before, after))

    methods = [
        (m.pgroup.GroupTree, "p_beta_space", None, None),
        (m.construct.ConstructionState, "advance", advance_before, advance_after),
        (m.construct.ConstructionState, "estimates", None, None),
        (m.fragments.Fragment, "subgroup", None, subgroup_after),
        (m.fragments.ProfiledGroup, "create_element", None, None),
        (m.alpha.AlphaSystem, "find_pull_index", None, None),
    ]
    for cls, attr, before, after in methods:
        name = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{attr}"
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), before, after))

    elements = m.pgroup.GroupTree.elements
    m.pgroup.GroupTree.elements = tracer.wrap_generator("pgroup.GroupTree.elements", elements)

    main = m.cli.main
    m.cli.main = tracer.wrap(lambda args: f"cli.main.{args[0][0]}", main)


# Per-layer metrics: (metric, unit, better). Every wrapped name reports
# .calls, .self_s and .errors; the extras follow.
WRAPPED = (
    "baf.find_embedding",
    "baf.leq_std_game",
    "baf.leq_barker",
    "pgroup.generated_iso",
    "pgroup.GroupTree.elements",
    "pgroup.GroupTree.p_beta_space",
    "ulm.invariants_of",
    "ulm.ulm_equal",
    "formats.load_tree",
    "cli.main.iso",
    "cli.main.invariants",
    "construct.ConstructionState.advance",
    "construct.ConstructionState.estimates",
    "fragments.Fragment.subgroup",
    "fragments.ProfiledGroup.create_element",
    "fragments.canonical_fragment",
    "baf.extend_tuple",
    "baf.check_extension",
    "baf.relation",
    "alpha.find_run",
    "alpha.extend_run_letter",
    "alpha.AlphaSystem.find_pull_index",
    "alpha.validate_run",
)

EXTRAS = (
    ("baf.find_embedding.found_frac", "frac", "higher"),
    ("baf.find_embedding.cache_hit_frac", "frac", "higher"),
    ("baf.tables.count", "count", "lower"),
    ("baf.tables.entries", "count", "lower"),
    ("pgroup.generated_iso.mapped_elems", "count", "lower"),
    ("pgroup.GroupTree.elements.yielded", "count", "lower"),
    ("ulm.invariants_of.max_nodes", "count", "higher"),
    ("construct.ConstructionState.advance.first_quarter_s", "s", "lower"),
    ("construct.ConstructionState.advance.last_quarter_s", "s", "lower"),
    ("construct.chains", "count", "lower"),
    ("construct.extras", "count", "lower"),
    ("fragments.Fragment.subgroup.elems", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    out = []
    for name in WRAPPED:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.errors", "count", "lower"),
        ]
    return out + list(EXTRAS)


def pass_counts(tracer: Tracer, m) -> dict:
    """Counts of one traced pass (everything but times)."""
    out = {}
    for name in WRAPPED:
        st = tracer.stats.get(name, Stat())
        out[f"{name}.calls"] = st.calls
        out[f"{name}.errors"] = st.errors
    emb = tracer.stats.get("baf.find_embedding", Stat())
    calls = max(emb.calls, 1)
    out["baf.find_embedding.found_frac"] = emb.extra.get("found", 0) / calls
    out["baf.find_embedding.cache_hit_frac"] = emb.extra.get("cache_hits", 0) / calls
    tables = getattr(m.baf, "_table_cache", None) or {}
    out["baf.tables.count"] = len(tables)
    out["baf.tables.entries"] = sum(len(getattr(t, "elems", ())) ** 2 for t in tables.values())
    for key, name in (
        ("pgroup.generated_iso.mapped_elems", "pgroup.generated_iso"),
        ("pgroup.GroupTree.elements.yielded", "pgroup.GroupTree.elements"),
        ("ulm.invariants_of.max_nodes", "ulm.invariants_of"),
        ("fragments.Fragment.subgroup.elems", "fragments.Fragment.subgroup"),
    ):
        st = tracer.stats.get(name, Stat())
        out[key] = st.extra.get(key.rsplit(".", 1)[1], 0)
    return out


def pass_times(tracer: Tracer) -> dict:
    """Self times of one traced pass."""
    out = {}
    for name in WRAPPED:
        out[f"{name}.self_s"] = tracer.stats.get(name, Stat()).self_s
    adv = tracer.stats.get("construct.ConstructionState.advance", Stat())
    for q in ("first_quarter_s", "last_quarter_s"):
        out[f"construct.ConstructionState.advance.{q}"] = adv.extra.get(q, 0.0)
    return out
