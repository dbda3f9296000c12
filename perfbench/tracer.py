"""Outside-in tracing of nanocob for the traced benchmark run.

The tracer wraps chosen public functions and methods of the package after it
is imported, without changing the package's source.  Each wrapped call (for a
generator, each ``next()``) becomes a span: name, start, end and the span that
was open when it began.  Spans are kept in memory in flat arrays and turned
into per-layer metrics when the run ends; a layer's self time is its spans'
durations minus the time their child spans cover.

A function is replaced under every name that refers to it in every package
module, because modules bind each other's functions by name (``explorer``
calls ``bounded_bfs`` through its own global, for example).  Methods are
replaced on their class.  ``PiElement.make`` is only counted: it is called
too often to time without swamping the figures.
"""

from __future__ import annotations

import array
import inspect
import sys
import time
from collections import Counter

CALL, GEN, COUNT = "call", "gen", "count"

# (module, attribute, span name, kind).  The span name's first component is
# the layer.  Several functions may share a span name.
TARGETS = (
    ("cli", "main", "cli.main", CALL),
    ("parsing", "parse_input", "parsing.parse", CALL),
    ("parsing", "parse_caps_option", "parsing.parse", CALL),
    ("explorer", "classify_words", "explorer.merge", CALL),
    ("explorer", "invariant_record", "explorer.records", CALL),
    ("explorer", "slice_status", "explorer.slice_status", CALL),
    ("explorer", "enumerate_nanowords", "explorer.enumerate", CALL),
    ("moves", "bounded_bfs", "moves.bfs", CALL),
    ("moves", "neighbors", "moves.neighbors", GEN),
    ("moves", "enumerate_factors", "moves.factors", GEN),
    ("moves", "enumerate_even_symmetric_factors", "moves.even_symmetric", CALL),
    ("moves", "enumerate_bridges", "moves.bridges", CALL),
    ("words", "Nanoword.canonical_key", "words.canonical_key", CALL),
    ("words", "Nanoword.canonical_form", "words.canonical_form", CALL),
    ("words", "Nanoword.gamma", "words.gamma", CALL),
    ("words", "Nanophrase.symmetry_witness", "words.symmetry", CALL),
    ("pairings", "pairing_of_nanoword", "pairings.build", CALL),
    ("pairings", "pairing_of_nanoword_alt", "pairings.build", CALL),
    ("pairings", "enumerate_fillings", "pairings.fillings", GEN),
    ("pairings", "is_hyperbolic", "pairings.hyperbolic", CALL),
    ("pairings", "genus", "pairings.genus", CALL),
    ("pairings", "u_polynomial", "pairings.u_poly", CALL),
    ("pairings", "tuple_genus", "pairings.weak", CALL),
    ("pairings", "is_hyperbolic_tuple", "pairings.weak", CALL),
    ("algebra", "PiElement.make", "algebra.pi_make", COUNT),
    ("intlinalg", "integer_rank", "intlinalg.rank", CALL),
    ("intlinalg", "rational_rank", "intlinalg.rank", CALL),
    ("intlinalg", "rank_mod_p", "intlinalg.rank", CALL),
    ("surfaces", "ribbon_graph_of", "surfaces.trace", CALL),
    ("surfaces", "surface_stats", "surfaces.trace", CALL),
    ("surfaces", "tautological_gram_rank", "surfaces.gram_rank", CALL),
)

LAYERS = (
    "words", "algebra", "intlinalg", "pairings", "surfaces",
    "moves", "explorer", "parsing", "cli",
)
MOVE_KINDS = ("H1", "H2", "H3", "SURG", "INS")
SUITE_SPAN = "explorer.suite"


class Tracer:
    """Span and count recorder.  One instance traces one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tables: list = []
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # The span bookkeeping is written out in both wrappers rather than shared
    # through a helper, to keep the cost added to each traced call low.

    def _wrap_call(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _wrap_gen(self, fn, name: str, on_item=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counts, clock = self.counts, time.perf_counter
        yielded = name + ".yielded"

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed_next():
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1] if stack else -1)
                    starts.append(0.0)
                    ends.append(0.0)
                    stack.append(idx)
                    starts[idx] = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    counts[yielded] += 1
                    if on_item is not None:
                        on_item(item)
                    yield item

            return timed_next()

        return traced

    def _wrap_count(self, fn, name: str):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers that read results -----------------------------------

    def _bfs_observer(self, fn):
        caps_default = inspect.signature(fn).parameters["caps"].default
        counts = self.counts

        def on_result(args, kwargs, outcome):
            caps = args[2] if len(args) > 2 else kwargs.get("caps", caps_default)
            counts["moves.bfs.nodes_expanded"] += outcome.explored
            counts["moves.bfs.found"] += outcome.equivalent
            if not outcome.equivalent and outcome.explored >= caps.bfs_nodes:
                counts["moves.bfs.node_cap_hits"] += 1

        return on_result

    def _neighbor_observer(self, fn):
        counts = self.counts

        def on_item(item):
            counts["moves.neighbors.generated." + item[0].kind] += 1

        return on_item

    def _kept_observer(self, fn):
        counts = self.counts

        def on_result(args, kwargs, result):
            counts["moves.factors.kept"] += len(result)

        return on_result

    def _table_observer(self, fn):
        tables = self.tables

        def on_result(args, kwargs, table):
            tables.append(table)

        return on_result

    def _verdict_observer(self, fn):
        counts = self.counts

        def on_result(args, kwargs, verdict):
            counts["explorer.slice_status.unknown"] += verdict.status == "unknown"

        return on_result

    # -- installation --------------------------------------------------

    def install(self, package: str = "nanocob") -> None:
        """Wrap every target in the already imported package."""
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        explorer = sys.modules[package + ".explorer"]
        observers = {
            "moves.bfs": self._bfs_observer,
            "moves.neighbors": self._neighbor_observer,
            "moves.even_symmetric": self._kept_observer,
            "explorer.slice_status": self._verdict_observer,
            "explorer.merge": self._table_observer,
        }
        replaced: dict[int, object] = {}
        for mod_name, attr, span, kind in TARGETS:
            module = sys.modules[f"{package}.{mod_name}"]
            owner, _, member = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            raw = holder.__dict__[member]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            observer = observers.get(span)
            observer = observer(fn) if observer else None
            if kind == COUNT:
                wrapped = self._wrap_count(fn, span)
            elif kind == GEN:
                wrapped = self._wrap_gen(fn, span, observer)
            else:
                wrapped = self._wrap_call(fn, span, observer)
            if owner:
                new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                self._restore.append((holder, member, raw))
                setattr(holder, member, new)
            else:
                replaced[id(fn)] = (fn, wrapped)
        for name, suite in list(explorer.ALL_SUITES.items()):
            wrapped = self._wrap_call(suite, SUITE_SPAN)
            replaced[id(suite)] = (suite, wrapped)
            self._restore.append((explorer.ALL_SUITES, name, suite))
            explorer.ALL_SUITES[name] = wrapped
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            if isinstance(holder, dict):
                holder[name] = value
            else:
                setattr(holder, name, value)
        self._restore.clear()

    # -- derived metrics -----------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and span count per span name."""
        n = len(self.span_name)
        dur = array.array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        covered = array.array("d", bytes(8 * n))
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += dur[i]
        self_s: dict[str, float] = {name: 0.0 for name in self.names}
        spans: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            self_s[name] += dur[i] - covered[i]
            spans[name] += 1
        return self_s, dict(spans)

    def child_counts(self, child: str, parent: str) -> int:
        """Number of ``child`` spans opened directly inside a ``parent`` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        cid, pid = self._name_ids[child], self._name_ids[parent]
        names = self.span_name
        return sum(
            1 for nid, p in zip(names, self.span_parent)
            if nid == cid and p >= 0 and names[p] == pid
        )

    def unresolved_pairs(self) -> int:
        """Pairs of rows, over all classification tables built, that the
        search left in different components and no invariant tells apart."""
        count = 0
        for table in self.tables:
            n = len(table.rows)
            count += sum(
                table.pair_status(i, j) == "unknown"
                for i in range(n) for j in range(i + 1, n)
            )
        return count

    def write_spans(self, path: str) -> None:
        """Write the spans as tab-separated lines: id, parent, name, start,
        end (seconds on the run's performance counter)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        self_s, spans = self.self_times()
        c = self.counts

        def secs(name):
            return (self_s.get(name, 0.0), "s")

        def calls(name):
            return (spans.get(name, 0), "count")

        def frac(num, den):
            return (num / den if den else 0.0, "ratio")

        bfs_calls = spans.get("moves.bfs", 0)
        # generator spans include the final next() that raises StopIteration
        in_surgery = self.child_counts("moves.factors", "moves.even_symmetric")
        surgery_gens = spans.get("moves.even_symmetric", 0)
        enumerated_for_surgery = max(in_surgery - surgery_gens, 0)
        statuses = spans.get("explorer.slice_status", 0)
        out = {
            "moves.bfs.calls": calls("moves.bfs"),
            "moves.bfs.self_s": secs("moves.bfs"),
            "moves.bfs.nodes_expanded": (c["moves.bfs.nodes_expanded"], "count"),
            "moves.bfs.found_frac": frac(c["moves.bfs.found"], bfs_calls),
            "moves.bfs.node_cap_hits": (c["moves.bfs.node_cap_hits"], "count"),
        }
        for kind in MOVE_KINDS:
            out[f"moves.neighbors.generated.{kind}"] = (
                c[f"moves.neighbors.generated.{kind}"], "count"
            )
        out.update({
            "moves.neighbors.self_s": secs("moves.neighbors"),
            "moves.factors.enumerated": (c["moves.factors.yielded"], "count"),
            "moves.factors.kept": (c["moves.factors.kept"], "count"),
            "moves.factors.kept_frac": frac(c["moves.factors.kept"], enumerated_for_surgery),
            "moves.factors.self_s": secs("moves.factors"),
            "moves.factors.filter_self_s": secs("moves.even_symmetric"),
            "moves.bridges.self_s": secs("moves.bridges"),
            "explorer.merge.self_s": secs("explorer.merge"),
            "explorer.merge.bfs_calls": (self.child_counts("moves.bfs", "explorer.merge"), "count"),
            "explorer.merge.unresolved_pairs": (self.unresolved_pairs(), "count"),
            "explorer.records.calls": calls("explorer.records"),
            "explorer.records.self_s": secs("explorer.records"),
            "explorer.enumerate.self_s": secs("explorer.enumerate"),
            "explorer.slice_status.self_s": secs("explorer.slice_status"),
            "explorer.slice_status.unknown_frac": frac(
                c["explorer.slice_status.unknown"], statuses
            ),
            "explorer.suite.self_s": secs(SUITE_SPAN),
            "words.canonical_key.calls": calls("words.canonical_key"),
            "words.canonical_key.self_s": secs("words.canonical_key"),
            "words.canonical_form.self_s": secs("words.canonical_form"),
            "words.gamma.self_s": secs("words.gamma"),
            "words.symmetry.self_s": secs("words.symmetry"),
            "pairings.build.calls": calls("pairings.build"),
            "pairings.build.self_s": secs("pairings.build"),
            "pairings.fillings.yielded": (c["pairings.fillings.yielded"], "count"),
            "pairings.fillings.self_s": secs("pairings.fillings"),
            "pairings.hyperbolic.self_s": secs("pairings.hyperbolic"),
            "pairings.genus.self_s": secs("pairings.genus"),
            "pairings.u_poly.self_s": secs("pairings.u_poly"),
            "pairings.weak.calls": calls("pairings.weak"),
            "pairings.weak.self_s": secs("pairings.weak"),
            "algebra.pi_make.calls": (c["algebra.pi_make.calls"], "count"),
            "intlinalg.rank.calls": calls("intlinalg.rank"),
            "intlinalg.rank.self_s": secs("intlinalg.rank"),
            "surfaces.trace.self_s": secs("surfaces.trace"),
            "surfaces.gram_rank.self_s": secs("surfaces.gram_rank"),
            "parsing.parse.self_s": secs("parsing.parse"),
            "cli.self_s": secs("cli.main"),
        })
        total = sum(self_s.values())
        for layer in LAYERS:
            layer_s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_share"] = frac(layer_s, total)
        out["trace.spans"] = (len(self.span_name), "count")
        return out
