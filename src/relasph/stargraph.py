"""Star graphs of relative presentations and admissible-cycle machinery.

The star graph has vertex set x union x^-1.  Its oriented edges are the
cyclic rotations of the relators and their inverses that begin with an
x-letter: a rotation written S*g (S starting and ending in x-letters,
g a coefficient) runs from the first symbol of S to the inverse of its
last symbol and carries the label g^-1.  Rotations are indexed by
(relator, position, sign), so a proper-power relator contributes one edge
per rotation even when rotations repeat as words.

A non-empty cyclically reduced closed path is admissible when its label
product is trivial in the coefficient group.  For finite coefficient
groups the exact minimum weight of an admissible cycle is computed on the
product of the star graph with the group's regular representation.  The
product (ProductGraph) does not depend on the weights, and one relaxation
over it serves both queries: the exact minimum with a witness cycle, and
whether some admissible cycle is lighter than a threshold, which stops at
the first such cycle it closes.  Both first run a Bellman-Ford that
returns a negative cyclically reduced cycle when there is one.  Over any
other group only cycles up to a length bound are enumerated.  Each cycle
is listed once, by its canonical form: the lexicographically least
rotation over both orientations.  That form starts at the least edge id
among the cycle's edges and their partners, so the enumeration roots each
cycle at that edge and never walks a rotation or an inversion of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .words import (
    RelativePresentation,
    TriState,
    Word,
    cyclically_reduce,
    free_reduce,
    invert_letter_form,
    letter_form,
    winv,
    word_str,
)


class StarEdge(NamedTuple):
    eid: int
    source: tuple  # (letter, +1 | -1)
    target: tuple
    label: Word  # lambda = g^-1 for the rotation S g
    origin: tuple  # (relator index, rotation, sign)
    partner: int  # eid of the inverse edge


class StarGraph(NamedTuple):
    presentation: RelativePresentation
    vertices: tuple  # all (letter, +-1), the full set x union x^-1
    edges: tuple  # StarEdge, oriented; involution pairs via .partner
    # per edge e, the ids of the edges a cyclically reduced path may take
    # after e: those out of e's target except e's partner, in id order
    successors: tuple

    def pair_id(self, eid: int) -> int:
        return min(eid, self.edges[eid].partner)

    def pair_ids(self) -> list:
        return sorted({self.pair_id(e.eid) for e in self.edges})

    def rotation_edges(self, relator_index: int) -> list:
        """The positively-oriented rotation edges of one relator, in
        rotation order; condition (I) sums over exactly these."""
        return [e for e in self.edges
                if e.origin[0] == relator_index and e.origin[2] == 1]


class AdmissibleCycle(NamedTuple):
    edge_ids: tuple
    label: Word
    status: str  # 'admissible' | 'possibly-admissible'


def build_star_graph(p: RelativePresentation) -> StarGraph:
    """Star graph with one oriented edge per relator rotation and sign.

    Relators are cyclically reduced syntactically, keeping their written
    shape even when a coefficient letter happens to be trivial in G (the
    graph's labels are still G-elements for admissibility purposes).  A
    relator lying inside the coefficient group is rejected: such a
    presentation is non-orientable and carries no star graph of interest.
    """
    vertices = tuple((x, s) for x in p.x_gens for s in (1, -1))
    edges = []
    for ri, rel in enumerate(p.relators):
        red = cyclically_reduce(rel, None)
        if not any(s[0] == "x" for s in red.syllables):
            raise ValueError(
                f"relator {ri} lies in the coefficient group; "
                "presentation is non-orientable")
        letters = letter_form(red)
        n = len(letters)
        base = len(edges)
        # rotation r of the relator pairs with the rotation of the inverse
        # that starts with the inverse of letter r-1 (S g <-> S^-1 g^-1);
        # in inverse-letter indexing that is position n-r mod n
        for sign, form, mate in ((1, letters, base + n),
                                 (-1, invert_letter_form(letters), base)):
            for rot in range(n):
                # rotation starting at letter `rot`: S ends with letter rot-1
                first, last = form[rot], form[rot - 1]
                edges.append(StarEdge(
                    len(edges), (first[0], first[1]), (last[0], -last[1]),
                    winv(last[2]), (ri, rot, sign), mate + (n - rot) % n))
    leaving = {}
    for e in edges:
        q = edges[e.partner]
        if not (q.partner == e.eid and q.source == e.target
                and q.target == e.source):
            raise RuntimeError(f"edge {e.eid} and its partner {q.eid} "
                               "do not form an inverse pair")
        leaving.setdefault(e.source, []).append(e.eid)
    successors = tuple(
        tuple(f for f in leaving.get(e.target, ()) if f != e.partner)
        for e in edges)
    return StarGraph(p, vertices, tuple(edges), successors)


def _canonical_cycle(edge_ids: tuple, graph: StarGraph) -> tuple:
    """Lexicographically minimal rotation, minimised against inversion."""
    n = len(edge_ids)
    best = None
    # tuple() of a list, not of a generator: CPython keeps the tuples a
    # generator's growth resizes on its free lists
    for ids in (edge_ids,
                tuple([graph.edges[e].partner for e in reversed(edge_ids)])):
        for r in range(n):
            rot = ids[r:] + ids[:r]
            if best is None or rot < best:
                best = rot
    return best


def admissible_cycles(graph: StarGraph, ctx, max_len: int) -> list:
    """All admissibility-checked cyclically reduced closed paths of length
    <= max_len, up to rotation and inversion, each as its canonical form,
    ordered by length and then by edge ids.

    Each cycle is found once, from its least edge s.  The search from s
    takes no edge whose id or whose partner's id is below s, as a rotation
    or the inversion of the path would then start lower, and it keeps a
    closed path only when the path is its own canonical form, the least
    representative starting at s.  Walking every closed path from each
    start edge in id order and keeping the first representative met of
    each cycle gives the same cycles, labels and statuses, because the
    first representative met is the canonical form.

    Canonicity is decided at s: every id on the path and every partner of
    one is at least s, and a rotation starting above s is larger than the
    path, so only the rotations starting at a later occurrence of s, and
    the inverted rotations starting at s (one for each occurrence of s's
    partner on the path), can be smaller.  The path is kept unless one of
    those is.

    Labels the oracle cannot settle are reported as possibly admissible.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    edges = graph.edges
    succ = graph.successors
    target = [e.target for e in edges]
    partner = [e.partner for e in edges]
    # the least edge id of each edge's involution pair
    low = [min(e.eid, e.partner) for e in edges]
    found = []

    def close(path, start):
        ids = tuple(path)
        mate = partner[start]
        # only a path through s twice or through s's partner has other
        # representatives starting at s
        if ids.count(start) > 1 or mate in ids:
            for r in range(1, len(ids)):
                e = ids[r]
                if e == start:
                    if ids[r:] + ids[:r] < ids:
                        return
                elif e == mate:
                    # the inverse path read from s: partners of ids[r],
                    # ids[r-1], ..., ids[0], ids[-1], ..., ids[r+1]
                    if tuple([partner[f] for f in ids[r::-1] + ids[:r:-1]]) < ids:
                        return
        label = free_reduce([syl for eid in ids for syl in edges[eid].label])
        triv = ctx.is_trivial_word(label)
        if triv == TriState.YES:
            found.append(AdmissibleCycle(ids, label, "admissible"))
        elif triv == TriState.UNKNOWN:
            found.append(AdmissibleCycle(ids, label, "possibly-admissible"))

    def extend(path, vertex, start):
        if vertex == edges[start].source and partner[path[-1]] != start:
            close(path, start)
        if len(path) == max_len:
            return
        for f in succ[path[-1]]:
            if low[f] >= start:
                path.append(f)
                extend(path, target[f], start)
                path.pop()

    for e in edges:
        # an edge with a lower partner starts no canonical form; loops of
        # length 1 close immediately, longer paths continue
        if e.eid < e.partner:
            extend([e.eid], e.target, e.eid)
    found.sort(key=lambda c: (len(c.edge_ids), c.edge_ids))
    return found


class NegativeCycleError(ValueError):
    """A cyclically reduced closed cycle of negative weight exists, so the
    minimum admissible weight is unbounded below.  `cycle` holds the edge
    ids of one such cycle, when the raiser knows one."""

    def __init__(self, message: str, cycle: Optional[tuple] = None):
        super().__init__(message)
        self.cycle = cycle


def _integer_weights(graph: StarGraph, theta: dict) -> tuple:
    """(wt, den): wt[e] is edge e's weight times den, the lcm of theta's
    denominators, so every weight is an int."""
    values = [theta[min(e.eid, e.partner)] for e in graph.edges]
    den = lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def _relax(succ, wt: list, pred: list) -> Optional[int]:
    """Bellman-Ford passes for _negative_cycle, recording in `pred` each
    relaxed state's predecessor: None when a pass changes nothing, else the
    state whose predecessor walk finds a negative cycle."""
    dist = [0] * len(succ)
    # without a negative cycle every distance is the weight of a path
    # through distinct states, at least the sum of the negative weights
    floor = sum(w for w in wt if w < 0)
    for _ in range(len(succ) + 1):
        last = None
        for e, nexts in enumerate(succ):
            de = dist[e]
            for f in nexts:
                if de + wt[f] < dist[f]:
                    dist[f] = de + wt[f]
                    pred[f] = e
                    if dist[f] < floor:
                        return f
                    last = f
        if last is None:
            return None
    return last


def _negative_cycle(succ, wt: list) -> Optional[tuple]:
    """The edge ids of a closed successor walk of negative weight on the int
    weights `wt` per edge id, in walk order, or None when there is none.

    The walk is a cycle of the predecessor graph that _relax leaves on
    last-edge states, and such a cycle is negative: along it each distance
    is at least its predecessor's plus the step's weight, and the step that
    closed it was strict.  The predecessor walk starts from a state that
    fell below the floor, which no chain through distinct states from an
    unrelaxed state reaches, or from a state relaxed in pass n + 1 of n
    states: a state last lowered in pass k has a predecessor last lowered
    in pass k - 1 or later, so that chain meets no unrelaxed state.  After
    n steps the walk is on the cycle.  The cycle is re-summed and checked
    step by step, and RuntimeError is raised if either check fails.
    """
    n = len(succ)
    pred = [None] * n
    last = _relax(succ, wt, pred)
    if last is None:
        return None
    for _ in range(n):
        last = pred[last]
        if last is None:
            raise RuntimeError("predecessor walk left the relaxed states")
    cycle = [last]
    e = pred[last]
    while e != last:
        if e is None or len(cycle) > n:
            raise RuntimeError("predecessor walk found no cycle")
        cycle.append(e)
        e = pred[e]
    cycle.reverse()
    if sum(wt[e] for e in cycle) >= 0 or not all(
            f in succ[e] for e, f in zip(cycle, cycle[1:] + cycle[:1])):
        raise RuntimeError("predecessor cycle is not a negative closed walk")
    return tuple(cycle)


def has_negative_cycle(graph: StarGraph, theta: dict) -> bool:
    """Whether some cyclically reduced closed cycle (labels ignored) has
    negative weight.  `theta` maps edge-pair ids to Fractions."""
    return _negative_cycle(
        graph.successors, _integer_weights(graph, theta)[0]) is not None


class ProductGraph(NamedTuple):
    """The star graph times the regular representation of a finite G.

    It does not depend on the weights, so one build serves every weight
    function on the graph.  A state (edge e, coset c), a walk ending in e
    at e's target with label product c, is the int e * width + c.
    """

    graph: StarGraph
    width: int  # |G| + 1
    # step[f][c]: the state reached from coset c along edge f
    step: tuple
    # closing[s]: the states that close a cycle rooted at edge s, those of
    # the edges into s's tail other than s's partner, at coset 1
    closing: tuple


def product_graph(graph: StarGraph, table) -> ProductGraph:
    """The product of `graph` with the complete regular coset table of G."""
    edges = graph.edges
    width = table.n + 1
    step = tuple([0] + [e.eid * width + table.trace(c, e.label)
                        for c in range(1, width)] for e in edges)
    closing = tuple(frozenset(e.eid * width + 1 for e in edges
                              if e.target == s.source and e.eid != s.partner)
                    for s in edges)
    return ProductGraph(graph, width, step, closing)


def _chain(pred: list, st: int, width: int, most: int) -> tuple:
    """The edge ids of the product walk that the predecessors `pred` give
    for state st, first edge first; RuntimeError past `most` states."""
    ids = []
    while st is not None:
        ids.append(st // width)
        st = pred[st]
        if len(ids) > most:
            raise RuntimeError("predecessor chain loops")
    ids.reverse()
    return tuple(ids)


def _lightest_cycle(product: ProductGraph, wt: list,
                    max_len: Optional[int] = None,
                    below: Optional[int] = None):
    """(weight, edge ids) of an admissible cycle on the int weights `wt`
    per edge id, or None; the weights must admit no negative cyclically
    reduced cycle.

    Without `below` the cycle is one of least weight, among cycles of at
    most `max_len` edges when that is given; every edge is a root, in id
    order, and a later root replaces the witness only with a lighter cycle.
    With `below` the search stops after the first level, of any root, that
    reaches a closing state lighter than `below`, and returns the cycle the
    state's predecessors give, which need not be the lightest; its weight
    is that walk's sum, at most the state's distance.  None means that
    every admissible cycle weighs at least `below`.  Such a query roots at
    only the edges with an id below their partner's: both edges of a pair
    weigh the same, so a cycle's inverse weighs what it does and is
    admissible with it, and one of the two runs through such an edge.
    """
    edges = product.graph.edges
    width = product.width
    step = product.step
    moves = [[(step[f], wt[f]) for f in nexts]
             for nexts in product.graph.successors]
    best = None
    best_cycle = None
    limit = (max_len - 1) if max_len is not None else None
    # cycles are rooted at each start edge with coset 1
    for start in edges:
        if below is not None and start.eid > start.partner:
            continue
        # close the cycle at the start edge's tail with trivial total label
        # and a last edge other than the start's partner; the initial state
        # alone covers single-edge loop cycles.  An existence query stops
        # after the first level that reaches such a state lighter than
        # `below`, checking only the few closing states.
        closing = product.closing[start.eid]
        need = None if below is None else below - wt[start.eid]
        init = step[start.eid][1]
        hit = init if need is not None and 0 < need and init in closing else None
        # level-by-level relaxation from the start edge's head; the first
        # step excludes the start's partner through `moves`.  Frontiers
        # keep duplicates, and a state relaxes with its distance when popped.
        dist = [None] * (len(edges) * width)
        pred = dist[:]
        dist[init] = 0
        reached = [init]  # in the order first reached
        frontier = [init]
        steps = 0
        while hit is None and frontier and (limit is None or steps < limit):
            steps += 1
            new_frontier = []
            for st in frontier:
                d, c = dist[st], st % width
                for to, w in moves[st // width]:
                    st2 = to[c]
                    old = dist[st2]
                    if old is None:
                        reached.append(st2)
                    elif d + w >= old:
                        continue
                    dist[st2] = d + w
                    pred[st2] = st
                    new_frontier.append(st2)
            frontier = new_frontier
            if need is not None:
                for st in closing:
                    if dist[st] is not None and dist[st] < need:
                        hit = st
                        break
        if hit is not None:
            ids = _chain(pred, hit, width, len(reached) + 1)
            return sum(wt[e] for e in ids), ids
        if below is not None:
            continue
        for st in reached:
            if st in closing and (best is None or dist[st] + wt[start.eid] < best):
                best = dist[st] + wt[start.eid]
                best_cycle = _chain(pred, st, width, len(reached) + 1)
    return None if best_cycle is None else (best, best_cycle)


def admissible_cycle_below(product: ProductGraph, wt: list, below: int):
    """Whether some admissible cycle weighs less than `below`, on the int
    weights `wt` per edge id: (weight, edge ids) of one such cycle, the
    first the search closes under `below` and not always the lightest, or
    None.  Raises NegativeCycleError as min_admissible_cycle_weight does,
    carrying the negative cycle _negative_cycle found, so that a caller
    can test further weights against it without a Bellman-Ford.

    Both edges of a pair must weigh the same, as in _integer_weights, or
    it raises ValueError: the search roots only at the edge of each pair
    with the lower id and finds the other orientation of a cycle that runs
    through neither root."""
    cycle = _negative_cycle(product.graph.successors, wt)
    if cycle is not None:
        raise NegativeCycleError("negative cyclically reduced cycle detected",
                                 cycle)
    if any(wt[e.eid] != wt[e.partner] for e in product.graph.edges):
        raise ValueError("the two edges of a pair weigh differently")
    return _lightest_cycle(product, wt, below=below)


def min_admissible_cycle_weight(graph: StarGraph, theta: dict, ctx,
                                max_len: Optional[int] = None):
    """Exact minimum weight over all admissible cycles (finite groups).

    `theta` maps edge-pair ids to Fractions.  With `max_len` the minimum is
    taken only over cycles of at most that many edges (used to cross-check
    against brute-force enumeration).  Returns (weight, cycle edge ids) or
    None when no admissible cycle exists.  Raises NegativeCycleError when
    some cyclically reduced closed cycle has negative weight, since then
    admissible weights are unbounded below.

    The search adds and compares ints: theta times the lcm of its
    denominators.  Scaling by a positive constant preserves every sum and
    every comparison, so the search takes the steps the rational one would,
    and the minimum divided back by the lcm is exact.
    """
    table = ctx.regular_table()
    if table is None:
        raise ValueError("coefficient group is not enumerable within budget; "
                         "fall back to bounded admissible_cycles")
    wt, den = _integer_weights(graph, theta)
    cycle = _negative_cycle(graph.successors, wt)
    if cycle is not None:
        raise NegativeCycleError("negative cyclically reduced cycle detected",
                                 cycle)
    r = _lightest_cycle(product_graph(graph, table), wt, max_len)
    if r is None:
        return None
    return Fraction(r[0], den), _canonical_cycle(r[1], graph)


def to_dot(graph: StarGraph) -> str:
    """DOT export; one undirected edge per involution pair."""

    def vname(v):
        return v[0] if v[1] == 1 else f"{v[0]}_bar"

    lines = ["graph stargraph {"]
    for v in graph.vertices:
        lines.append(f'  {vname(v)};')
    for e in graph.edges:
        if e.eid > e.partner:
            continue
        lines.append(f'  {vname(e.source)} -- {vname(e.target)} '
                     f'[label="{word_str(e.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
