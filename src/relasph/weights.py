"""Weight functions on star graphs and the weight test.

A weight function assigns a rational to each involution pair of star-graph
edges (symmetry is structural: weights are keyed by pair).  It is weakly
aspherical when

  (I)  for every relator, the sum of (1 - weight) over its rotations is
       at least 2, and
  (II) every admissible cycle has weight at least 2,

and aspherical when additionally every cyclically reduced closed cycle
has non-negative weight.  All arithmetic is exact, never floating point:
the inequalities are sharp and float drift would be unsound.  Condition
(I) and the bounded cycle checks sum Fractions.  The exact minimum and the
negative-cycle check in stargraph multiply every weight by the lcm of the
denominators and work on ints: scaling by a positive constant preserves
every sum and comparison, so they decide exactly what Fractions would.
The search scales its candidate values once, by L, the lcm of their
denominators, and decides each candidate on ints: the condition (I)
pruning sums, the negative cycles found so far as cuts, then the
negative-cycle test, whose cycle becomes a new cut, and the query for an
admissible cycle lighter than 2L on one stargraph.ProductGraph (the star
graph times G's regular representation), built once per search.

Condition (II) quantifies over infinitely many cycles.  For enumerable
finite coefficient groups it is decided exactly on the product graph; for
anything else only a bounded search is run and a clean result is reported
as NotCertified, never as a pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .stargraph import (
    NegativeCycleError,
    StarGraph,
    admissible_cycle_below,
    admissible_cycles,
    has_negative_cycle,
    min_admissible_cycle_weight,
    product_graph,
)
from .words import Validated

CERTIFIED = "certified"
VIOLATED = "violated"
NOT_CERTIFIED = "not-certified"


class _WeightFunction(NamedTuple):
    weights: dict


class WeightFunction(Validated, _WeightFunction):
    """Rational weights per edge pair, keyed by the pair's smaller edge id."""

    __slots__ = ()

    def __new__(cls, weights):
        return tuple.__new__(
            cls, ({k: Fraction(v) for k, v in weights.items()},))

    def of_edge(self, graph: StarGraph, eid: int) -> Fraction:
        return self.weights[graph.pair_id(eid)]

    @staticmethod
    def uniform(graph: StarGraph, value) -> "WeightFunction":
        return WeightFunction({pid: Fraction(value) for pid in graph.pair_ids()})

    @staticmethod
    def from_text(graph: StarGraph, text: str) -> "WeightFunction":
        """Parse `pair_id weight` lines, weight an integer or p/q."""
        weights = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                pid, value = line.split()
                pid, value = int(pid), Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"line {lineno}: expected 'pair_id weight', "
                                 "weight an integer or p/q with q != 0") from None
            if pid in weights:
                raise ValueError(f"line {lineno}: pair {pid} given twice")
            weights[pid] = value
        missing = [pid for pid in graph.pair_ids() if pid not in weights]
        if missing:
            raise ValueError(f"weights missing for edge pairs {missing}")
        extra = [pid for pid in weights if pid not in graph.pair_ids()]
        if extra:
            raise ValueError(f"unknown edge pairs {extra}")
        return WeightFunction(weights)

    def validate(self, graph: StarGraph) -> None:
        missing = [pid for pid in graph.pair_ids() if pid not in self.weights]
        if missing:
            raise ValueError(f"weight function not total: missing pairs {missing}")


class ConditionIResult(NamedTuple):
    relator: int
    total: Fraction
    ok: bool


class ConditionIIResult(NamedTuple):
    status: str  # certified | violated | not-certified
    min_weight: Optional[Fraction] = None  # None with violated = unbounded below
    witness: Optional[tuple] = None  # edge ids of a violating admissible cycle
    bound: Optional[int] = None  # search bound behind a not-certified result
    note: str = ""


class WeightReport(NamedTuple):
    condition_I: tuple  # ConditionIResult per relator
    condition_II: ConditionIIResult
    nonneg_cycles: str  # 'pass' | 'fail' | 'not-checked'
    mode: str

    @property
    def condition_I_ok(self) -> bool:
        return all(r.ok for r in self.condition_I)

    def passes(self) -> bool:
        ok = self.condition_I_ok and self.condition_II.status == CERTIFIED
        if self.mode == "full":
            ok = ok and self.nonneg_cycles == "pass"
        return ok

    def lines(self) -> list:
        out = []
        for r in self.condition_I:
            out.append(f"condition I, relator {r.relator}: sum = {r.total} "
                       f"{'>=' if r.ok else '<'} 2 -> {'pass' if r.ok else 'FAIL'}")
        c2 = self.condition_II
        if c2.status == CERTIFIED:
            msg = "no admissible cycle" if c2.min_weight is None else \
                f"minimum admissible cycle weight {c2.min_weight} >= 2"
            out.append(f"condition II: certified ({msg})")
        elif c2.status == VIOLATED:
            w = "unbounded below" if c2.min_weight is None else str(c2.min_weight)
            out.append(f"condition II: VIOLATED (weight {w}, cycle {list(c2.witness) if c2.witness else '-'})")
        else:
            out.append(f"condition II: not certified (no violation among cycles "
                       f"of length <= {c2.bound}){'; ' + c2.note if c2.note else ''}")
        if self.mode == "full":
            out.append(f"non-negative cycles: {self.nonneg_cycles}")
        return out


def check_condition_I(graph: StarGraph, theta: WeightFunction) -> tuple:
    """Exact per-relator rotation sums against the threshold 2."""
    theta.validate(graph)
    results = []
    for ri in range(len(graph.presentation.relators)):
        total = Fraction(0)
        for e in graph.rotation_edges(ri):
            total += 1 - theta.of_edge(graph, e.eid)
        results.append(ConditionIResult(ri, total, total >= 2))
    return tuple(results)


def check_weight_function(graph: StarGraph, theta: WeightFunction, ctx,
                          mode: str = "weak", bound: int = 6) -> WeightReport:
    """Full (weakly) aspherical weight-function check.

    Condition (II) is decided exactly when the coefficient group is finite
    and enumerable; otherwise cycles up to `bound` edges are searched and a
    clean outcome is NotCertified.  mode='full' adds the non-negative
    closed-cycle condition that upgrades weak asphericity to asphericity.
    """
    cond1 = check_condition_I(graph, theta)
    order = ctx.group_order()
    # whether a negative cyclically reduced cycle exists; None: not known
    negative = None
    if order.is_finite and ctx.regular_table() is not None:
        try:
            r = min_admissible_cycle_weight(graph, theta.weights, ctx)
        except NegativeCycleError:
            negative = True
            cond2 = ConditionIIResult(
                VIOLATED, None, None,
                note="negative cyclically reduced cycle: admissible weights unbounded below")
        else:
            negative = False
            if r is None:
                cond2 = ConditionIIResult(CERTIFIED, None)
            else:
                w, cyc = r
                if w >= 2:
                    cond2 = ConditionIIResult(CERTIFIED, w)
                else:
                    cond2 = ConditionIIResult(VIOLATED, w, cyc)
    else:
        cond2 = None
        undecided = 0
        for cyc in admissible_cycles(graph, ctx, bound):
            w = sum(theta.of_edge(graph, e) for e in cyc.edge_ids)
            if w < 2:
                if cyc.status == "admissible":
                    cond2 = ConditionIIResult(VIOLATED, w, cyc.edge_ids)
                    break
                undecided += 1
        if cond2 is None:
            note = (f"{undecided} possibly-admissible cycles below 2 "
                    "(oracle undecided)" if undecided else "")
            cond2 = ConditionIIResult(NOT_CERTIFIED, bound=bound, note=note)
    nonneg = "not-checked"
    if mode == "full":
        if negative is None:
            negative = has_negative_cycle(graph, theta.weights)
        nonneg = "fail" if negative else "pass"
    return WeightReport(cond1, cond2, nonneg, mode)


class SearchResult(NamedTuple):
    found: Optional[WeightFunction]
    capped: bool
    tried: int


_PRIMARY = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(1))
# The candidate list holds about 0.61 N^2 values at denominator bound N, and
# L, the lcm of 1..N, grows with it: N = 100 gives 6,089 values in about
# 0.03 s, against 0.3 s for N = 300, and N = 10^5 would not finish.
MAX_DENOMINATOR_BOUND = 100


def _candidate_values(denominator_bound: int) -> list:
    values = list(_PRIMARY)
    seen = set(values)
    extras = []
    for q in range(1, denominator_bound + 1):
        for p in range(-q, q + 1):
            v = Fraction(p, q)
            if v not in seen:
                seen.add(v)
                extras.append(v)
    extras.sort(key=lambda v: (v.denominator, v))
    return values + extras


def search_weight_function(graph: StarGraph, ctx, denominator_bound: int = 3,
                           bound: int = 6,
                           max_candidates: int = 200_000) -> SearchResult:
    """Backtracking search for a passing weight function.

    Values are drawn from a small literature-motivated list first, then
    from all rationals in [-1, 1] with denominator up to the bound, which
    is at most MAX_DENOMINATOR_BOUND (ValueError otherwise).  Every value
    is scaled once by L, the lcm of their denominators, and each candidate
    is decided on ints: the pruning sums of condition (I), then the cuts,
    then the negative-cycle test, and the query for an admissible cycle of
    weight below 2L on the product graph, which is built once per search.
    A cut is the pair slots along a negative cyclically reduced cycle that
    the test found for an earlier candidate; a candidate whose weights sum
    below 0 over a cut closes that negative cycle too and is rejected, and
    counted, without a Bellman-Ford, and a candidate the test rejects adds
    its cycle as a cut.  Over a finite enumerable group that decides what
    check_weight_function does in either mode, as a negative cycle fails
    both, so the search takes no mode and re-verifies what it returns in
    the full one.  Over any other group condition (II) gets only a bounded
    search, which never certifies, so no candidate can pass; candidates
    are still counted, never checked.  A None result is not a proof that
    no weight function exists.
    """
    pairs = graph.pair_ids()
    if len(pairs) > 16:
        raise ValueError("search supports at most 16 edge pairs")
    if denominator_bound > MAX_DENOMINATOR_BOUND:
        raise ValueError(f"denominator bound must be at most "
                         f"{MAX_DENOMINATOR_BOUND}, not {denominator_bound}")
    values = _candidate_values(denominator_bound)
    scale = lcm(*{v.denominator for v in values})
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    smin = min(scaled)
    slot = {pid: i for i, pid in enumerate(pairs)}
    # per relator, its rotation edges' pair slots and condition (I),
    # sum(scale - s) >= 2 scale over them, as a bound on the sum of the s
    rel_slots = []
    for ri in range(len(graph.presentation.relators)):
        slots = [slot[graph.pair_id(e.eid)] for e in graph.rotation_edges(ri)]
        rel_slots.append((slots, (len(slots) - 2) * scale))
    product = None
    if ctx.group_order().is_finite and ctx.regular_table() is not None:
        product = product_graph(graph, ctx.regular_table())
    edge_slot = [slot[graph.pair_id(e.eid)] for e in graph.edges]
    chosen = [0] * len(pairs)  # value index per pair slot
    tried = 0
    cuts = []  # per negative cycle found, the pair slot of each of its edges

    def passes() -> bool:
        if product is None:
            return False
        vals = [scaled[vi] for vi in chosen]
        for cut in cuts:
            if sum([vals[i] for i in cut]) < 0:
                return False
        wt = [vals[i] for i in edge_slot]
        try:
            return admissible_cycle_below(product, wt, 2 * scale) is None
        except NegativeCycleError as err:
            cuts.append([edge_slot[e] for e in err.cycle])
            return False

    def feasible(i: int) -> bool:
        # the best case of each relator's sum, pairs after slot i at smin
        return all(sum(scaled[chosen[j]] if j <= i else smin for j in slots) <= most
                   for slots, most in rel_slots)

    def rec(i: int) -> bool:
        nonlocal tried
        if i == len(pairs):
            tried += 1
            return passes()
        for vi in range(len(scaled)):
            if tried >= max_candidates:
                return False
            chosen[i] = vi
            if feasible(i) and rec(i + 1):
                return True
        return False

    if not rec(0):
        return SearchResult(None, tried >= max_candidates, tried)
    found = WeightFunction({pid: values[chosen[i]] for i, pid in enumerate(pairs)})
    if not check_weight_function(graph, found, ctx, mode="full", bound=bound).passes():
        raise RuntimeError("search result fails check_weight_function")
    return SearchResult(found, False, tried)
