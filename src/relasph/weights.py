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

Condition (II) quantifies over infinitely many cycles.  For enumerable
finite coefficient groups it is decided exactly on the product graph; for
anything else only a bounded search is run and a clean result is reported
as NotCertified, never as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .stargraph import (
    NegativeCycleError,
    StarGraph,
    admissible_cycles,
    has_negative_cycle,
    min_admissible_cycle_weight,
)

CERTIFIED = "certified"
VIOLATED = "violated"
NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class WeightFunction:
    """Rational weights per edge pair, keyed by the pair's smaller edge id."""

    weights: dict

    def __post_init__(self):
        object.__setattr__(
            self, "weights", {k: Fraction(v) for k, v in self.weights.items()})

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
                weights[int(pid)] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"line {lineno}: expected 'pair_id weight', "
                                 "weight an integer or p/q with q != 0") from None
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


@dataclass(frozen=True)
class ConditionIResult:
    relator: int
    total: Fraction
    ok: bool


@dataclass(frozen=True)
class ConditionIIResult:
    status: str  # certified | violated | not-certified
    min_weight: Optional[Fraction] = None  # None with violated = unbounded below
    witness: Optional[tuple] = None  # edge ids of a violating admissible cycle
    bound: Optional[int] = None  # search bound behind a not-certified result
    note: str = ""


@dataclass(frozen=True)
class WeightReport:
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


@dataclass(frozen=True)
class SearchResult:
    found: Optional[WeightFunction]
    capped: bool
    tried: int


_PRIMARY = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
            Fraction(1, 2), Fraction(2, 3), Fraction(1))


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
                           bound: int = 6, mode: str = "weak",
                           max_candidates: int = 200_000) -> SearchResult:
    """Backtracking search for a passing weight function.

    Values are drawn from a small literature-motivated list first, then
    from all rationals in [-1, 1] with denominator up to the bound.  A
    returned function re-verifies by construction; a None result is not a
    proof that no weight function exists.
    """
    pairs = graph.pair_ids()
    if len(pairs) > 16:
        raise ValueError("search supports at most 16 edge pairs")
    values = _candidate_values(denominator_bound)
    vmin = min(values)
    # rotations per relator in terms of pair ids, for pruning partial sums
    rel_pairs = []
    for ri in range(len(graph.presentation.relators)):
        rel_pairs.append([graph.pair_id(e.eid) for e in graph.rotation_edges(ri)])
    tried = 0
    assignment = {}

    def feasible() -> bool:
        for rp in rel_pairs:
            best = Fraction(0)
            for pid in rp:
                best += (1 - assignment[pid]) if pid in assignment else (1 - vmin)
            if best < 2:
                return False
        return True

    def rec(i: int):
        nonlocal tried
        if i == len(pairs):
            tried += 1
            theta = WeightFunction(dict(assignment))
            report = check_weight_function(graph, theta, ctx, mode=mode, bound=bound)
            return theta if report.passes() else None
        for v in values:
            if tried >= max_candidates:
                return None
            assignment[pairs[i]] = v
            if feasible():
                got = rec(i + 1)
                if got is not None:
                    return got
            del assignment[pairs[i]]
        return None

    found = rec(0)
    return SearchResult(found, tried >= max_candidates and found is None, tried)
