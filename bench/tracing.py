"""Outside-in tracing of relasph's layers, without changing the library.

``Tracer.install`` replaces each traced public function at every module
attribute that names it (``classify`` and ``cli`` import ``enumerate_cosets``,
``context_for``, ``classify`` and others by name, so patching the defining
module alone would miss those calls), and the oracle's query methods on
``GroupContext`` itself.  Each call records a span (id, parent, name, start,
end) in memory; spans are written out once the pass ends.  A span's self
time is its duration minus the time its child spans cover.

Hot word-algebra helpers (``wmul``, ``winv``, ``free_reduce``, ...) and
``CosetTable.trace`` are deliberately not wrapped: the wrapper would cost
more than the call and distort every other number.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# layer -> names of the public functions traced in that layer's module
FUNCTIONS = {
    "words": ("parse_presentation", "mu"),
    "coset": ("enumerate_cosets", "order_via_cyclic_subgroup", "group_order",
              "subgroup_index", "element_order", "words_equal", "mu_of"),
    "classify": ("classify", "case_flags", "instance_from_presentation",
                 "verify_verdict", "fixture_order"),
    "stargraph": ("build_star_graph", "admissible_cycles",
                  "min_admissible_cycle_weight"),
    "weights": ("check_weight_function", "search_weight_function",
                "check_condition_I"),
    "pictures": ("validate_picture", "find_dipole", "cancel_dipole",
                 "picture_from_json"),
    "cli": ("main",),
}
# the oracle layer: the context cache and GroupContext's queries
ORACLE_LOOKUP = "context_for"
ORACLE_METHODS = ("is_trivial_word", "equal", "element_order", "group_order",
                  "subgroup_order", "conjugate", "is_torsion_free",
                  "regular_table")

# per_layer metric -> unit; the order here is the order they are reported.
# The comments name the end-to-end metric each group is expected to move.
LAYER_METRICS = {
    # wall_s and item_tail_ms on table1; not classify_grid
    "coset.enumerate_calls": "count", "coset.enumerate_s": "s",
    "coset.definitions": "count", "coset.definitions_per_s": "1/s",
    # wall_s on table1 (work lost to coincidences)
    "coset.definitions_per_coset": "ratio",
    # the budget path (the rescue passes): every enumeration of the current
    # workloads completes, so these read 0 until one ends at its cap
    "coset.definitions_over_cap": "ratio", "coset.budget_share": "ratio",
    "coset.rss_per_row_B": "B",
    # wall_s on table1
    "coset.order_via_cyclic_s": "s",
    # item_p50_ms and wall_s on classify_grid, wall_s on certify
    "oracle.context_calls": "count", "oracle.context_hit_share": "ratio",
    "oracle.queries": "count", "oracle.query_s": "s",
    "oracle.regular_tables": "count",
    # item_p50_ms on classify_grid
    "words.parse_calls": "count", "words.parse_s": "s",
    "classify.calls": "count", "classify.self_s": "s",
    "classify.case_flags_s": "s",
    # wall_s on table1
    "classify.verify_calls": "count", "classify.verify_s": "s",
    "classify.verify_skipped_share": "ratio",
    # wall_s on certify
    "stargraph.build_s": "s", "stargraph.min_weight_calls": "count",
    "stargraph.min_weight_s": "s", "stargraph.product_states": "count",
    "stargraph.cycles_enum_s": "s",
    "weights.search_calls": "count", "weights.candidates_tried": "count",
    "weights.candidates_per_s": "1/s", "weights.check_calls": "count",
    "weights.check_s": "s", "weights.found_share": "ratio",
    # wall_s on certify, predicted to be a small share of it
    "pictures.validate_s": "s", "pictures.find_dipole_calls": "count",
    "pictures.find_dipole_s": "s", "pictures.cancel_s": "s",
    "pictures.dipoles_cancelled": "count",
    # setup_s and item_p50_ms on table1
    "cli.main_calls": "count", "cli.self_s": "s",
    # (traced wall_s - untraced wall_s) / untraced wall_s
    "trace.overhead_share": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.notes = {}  # span id -> what the call returned that we count
        self.enabled = True
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, notes = self.spans, self.stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            state = before(args) if before else None
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after:
                with self.paused():
                    notes[sid] = after(args, kwargs, result, state)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced function wherever a relasph module names it."""
        coset = modules["coset"]

        def cache_size(args):
            return len(coset._context_cache)

        def note_lookup(args, kwargs, ctx, size_before):
            return {"hit": len(coset._context_cache) == size_before}

        hooks = {
            "coset.enumerate_cosets": (None, _note_table),
            "classify.verify_verdict": (None, _note_verify),
            "weights.search_weight_function": (None, _note_search),
            "stargraph.min_admissible_cycle_weight": (None, _note_product),
            f"oracle.{ORACLE_LOOKUP}": (cache_size, note_lookup),
        }
        originals = {}
        for layer, names in FUNCTIONS.items():
            for fname in names:
                originals[getattr(modules[layer], fname)] = f"{layer}.{fname}"
        originals[getattr(coset, ORACLE_LOOKUP)] = f"oracle.{ORACLE_LOOKUP}"
        wrappers = {id(fn): (fn, self.wrap(name, fn, *hooks.get(name, (None, None))))
                    for fn, name in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "relasph"
                                   or modname.startswith("relasph.")):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cls = coset.GroupContext
        for meth in ORACLE_METHODS:
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"oracle.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)

    def enumerations(self, since: int) -> list:
        """(definitions, index, complete) of each enumeration from span
        `since` on."""
        return [(n["defined"], n["index"], n["complete"])
                for sid in range(since, len(self.spans))
                if self.spans[sid][2] == "coset.enumerate_cosets"
                and (n := self.notes.get(sid)) is not None]

    def metrics(self) -> dict:
        """Per-layer numbers of this pass (see LAYER_METRICS)."""
        spans, notes = self.spans, self.notes
        covered = Counter()
        for _, parent, _, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, incl, own = Counter(), Counter(), Counter()
        for sid, _, name, start, end in spans:
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - covered[sid]
        names = {sid: name for sid, _, name, _, _ in spans}

        def is_oracle(sid):
            return sid >= 0 and names[sid].startswith("oracle.") \
                and names[sid] != f"oracle.{ORACLE_LOOKUP}"

        queries = [s for s in spans if is_oracle(s[0]) and not is_oracle(s[1])]
        def noted(name):
            # a call that raised has no note
            return [notes[s[0]] for s in spans if s[2] == name and s[0] in notes]

        tables = noted("coset.enumerate_cosets")
        done = [t for t in tables if t["complete"]]
        budget = [t for t in tables if not t["complete"]]
        checks = [c for report in noted("classify.verify_verdict") for c in report]
        searches = noted("weights.search_weight_function")
        lookups = noted(f"oracle.{ORACLE_LOOKUP}")
        defs = sum(t["defined"] for t in tables)
        tried = sum(s["tried"] for s in searches)
        return {
            "coset.enumerate_calls": calls["coset.enumerate_cosets"],
            "coset.enumerate_s": own["coset.enumerate_cosets"],
            "coset.definitions": defs,
            "coset.definitions_per_s": _ratio(defs, own["coset.enumerate_cosets"]),
            "coset.definitions_per_coset": _ratio(
                sum(t["defined"] for t in done), sum(t["index"] for t in done)),
            "coset.definitions_over_cap": _ratio(
                sum(t["defined"] for t in budget), sum(t["cap"] for t in budget)),
            "coset.budget_share": _ratio(len(budget), len(tables)),
            "coset.max_rows": max((min(t["defined"], t["cap"]) for t in tables),
                                  default=0),
            "coset.order_via_cyclic_s": incl["coset.order_via_cyclic_subgroup"],
            "oracle.context_calls": len(lookups),
            "oracle.context_hit_share": _ratio(
                sum(n["hit"] for n in lookups), len(lookups)),
            "oracle.queries": len(queries),
            "oracle.query_s": sum(end - start for _, _, _, start, end in queries),
            "oracle.regular_tables": sum(
                1 for s in spans if s[2] == "coset.enumerate_cosets"
                and s[1] >= 0 and names[s[1]] == "oracle.regular_table"),
            "words.parse_calls": calls["words.parse_presentation"],
            "words.parse_s": own["words.parse_presentation"],
            "classify.calls": calls["classify.classify"],
            "classify.self_s": own["classify.classify"],
            "classify.case_flags_s": own["classify.case_flags"],
            "classify.verify_calls": calls["classify.verify_verdict"],
            "classify.verify_s": incl["classify.verify_verdict"],
            "classify.verify_skipped_share": _ratio(
                checks.count("skipped"), len(checks)),
            "stargraph.build_s": incl["stargraph.build_star_graph"],
            "stargraph.min_weight_calls":
                calls["stargraph.min_admissible_cycle_weight"],
            "stargraph.min_weight_s": incl["stargraph.min_admissible_cycle_weight"],
            # states exist only once the negative-cycle test has passed,
            # so a call that raised visited none
            "stargraph.product_states": sum(
                noted("stargraph.min_admissible_cycle_weight")),
            "stargraph.cycles_enum_s": incl["stargraph.admissible_cycles"],
            "weights.search_calls": len(searches),
            "weights.candidates_tried": tried,
            "weights.candidates_per_s": _ratio(
                tried, incl["weights.search_weight_function"]),
            "weights.check_calls": calls["weights.check_weight_function"],
            "weights.check_s": incl["weights.check_weight_function"],
            "weights.found_share": _ratio(
                sum(s["found"] for s in searches), len(searches)),
            "pictures.validate_s": incl["pictures.validate_picture"],
            "pictures.find_dipole_calls": calls["pictures.find_dipole"],
            "pictures.find_dipole_s": incl["pictures.find_dipole"],
            "pictures.cancel_s": incl["pictures.cancel_dipole"],
            "pictures.dipoles_cancelled": calls["pictures.cancel_dipole"],
            "cli.main_calls": calls["cli.main"],
            "cli.self_s": own["cli.main"],
        }


def _note_table(args, kwargs, table, _):
    return {"complete": table.complete, "defined": table.total_defined,
            "index": table.n, "cap": table.cap}


def _note_verify(args, kwargs, report, _):
    return [c.status for c in report.checks]


def _note_search(args, kwargs, res, _):
    return {"tried": res.tried, "found": res.found is not None}


def _note_product(args, kwargs, result, _):
    graph, ctx = args[0], args[2]
    return len(graph.edges) * ctx.regular_table().n
