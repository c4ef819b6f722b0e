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
product of the star graph with the group's regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .words import (
    RelativePresentation,
    TriState,
    Word,
    cyclically_reduce,
    invert_letter_form,
    letter_form,
    winv,
    wmul,
    word_str,
)


@dataclass(frozen=True)
class StarEdge:
    eid: int
    source: tuple  # (letter, +1 | -1)
    target: tuple
    label: Word  # lambda = g^-1 for the rotation S g
    origin: tuple  # (relator index, rotation, sign)
    partner: int  # eid of the inverse edge


@dataclass(frozen=True)
class StarGraph:
    presentation: RelativePresentation
    vertices: tuple  # all (letter, +-1), the full set x union x^-1
    edges: tuple  # StarEdge, oriented; involution pairs via .partner

    def pair_id(self, eid: int) -> int:
        return min(eid, self.edges[eid].partner)

    def pair_ids(self) -> list:
        return sorted({self.pair_id(e.eid) for e in self.edges})

    def rotation_edges(self, relator_index: int) -> list:
        """The positively-oriented rotation edges of one relator, in
        rotation order; condition (I) sums over exactly these."""
        return [e for e in self.edges
                if e.origin[0] == relator_index and e.origin[2] == 1]


@dataclass(frozen=True)
class AdmissibleCycle:
    edge_ids: tuple
    label: Word
    status: str  # 'admissible' | 'possibly-admissible'
    weight: Optional[Fraction] = None


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
        inv = invert_letter_form(letters)
        base = len(edges)
        for rot in range(n):
            # rotation starting at letter `rot`: S ends with letter rot-1
            first = letters[rot]
            last = letters[(rot - 1) % n]
            edges.append({
                "source": (first[0], first[1]),
                "target": (last[0], -last[1]),
                "label": winv(last[2]),
                "origin": (ri, rot, 1),
            })
        for rot in range(n):
            first = inv[rot]
            last = inv[(rot - 1) % n]
            edges.append({
                "source": (first[0], first[1]),
                "target": (last[0], -last[1]),
                "label": winv(last[2]),
                "origin": (ri, rot, -1),
            })
        # rotation r of the relator pairs with the rotation of the inverse
        # that starts with the inverse of letter r-1 (S g <-> S^-1 g^-1);
        # in inverse-letter indexing that is position n-r mod n
        for rot in range(n):
            j = (n - rot) % n
            edges[base + rot]["partner"] = base + n + j
            edges[base + n + j]["partner"] = base + rot
    out = tuple(
        StarEdge(eid, d["source"], d["target"], d["label"], d["origin"], d["partner"])
        for eid, d in enumerate(edges))
    for e in out:
        q = out[e.partner]
        if not (q.partner == e.eid and q.source == e.target
                and q.target == e.source):
            raise RuntimeError(f"edge {e.eid} and its partner {q.eid} "
                               "do not form an inverse pair")
    return StarGraph(p, vertices, out)


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


def _successors(graph: StarGraph) -> list:
    """Per edge e, the ids of the edges a cyclically reduced path may take
    after e: those out of e's target except e's partner, in edge order."""
    out = {}
    for e in graph.edges:
        out.setdefault(e.source, []).append(e.eid)
    return [[f for f in out.get(e.target, ()) if f != e.partner]
            for e in graph.edges]


def admissible_cycles(graph: StarGraph, ctx, max_len: int) -> list:
    """All admissibility-checked cyclically reduced closed paths of length
    <= max_len, up to rotation and inversion.

    Labels the oracle cannot settle are reported as possibly admissible.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    edges = graph.edges
    succ = _successors(graph)
    seen = set()
    found = []

    def extend(path, vertex, start_edge):
        if len(path) >= 1 and vertex == edges[start_edge].source:
            # wrap condition: last edge must not be the partner of the first
            if edges[path[-1]].partner != start_edge:
                key = _canonical_cycle(tuple(path), graph)
                if key not in seen:
                    seen.add(key)
                    label = ()
                    for eid in path:
                        label = wmul(label, edges[eid].label)
                    triv = ctx.is_trivial_word(label)
                    if triv == TriState.YES:
                        found.append(AdmissibleCycle(key, label, "admissible"))
                    elif triv == TriState.UNKNOWN:
                        found.append(AdmissibleCycle(key, label, "possibly-admissible"))
        if len(path) == max_len:
            return
        for f in succ[path[-1]]:
            path.append(f)
            extend(path, edges[f].target, start_edge)
            path.pop()

    for e in edges:
        # loops of length 1 close immediately; longer paths continue
        extend([e.eid], e.target, e.eid)
    found.sort(key=lambda c: (len(c.edge_ids), c.edge_ids))
    return found


class NegativeCycleError(ValueError):
    """A cyclically reduced closed cycle of negative weight exists, so the
    minimum admissible weight is unbounded below."""


def _integer_weights(graph: StarGraph, theta: dict) -> tuple:
    """(wt, den): wt[e] is edge e's weight times den, the lcm of theta's
    denominators, so every weight is an int."""
    values = [theta[min(e.eid, e.partner)] for e in graph.edges]
    den = lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def has_negative_cycle(graph: StarGraph, theta: dict) -> bool:
    """Whether some cyclically reduced closed cycle (labels ignored) has
    negative weight: Bellman-Ford on last-edge states from a virtual
    source.  `theta` maps edge-pair ids to Fractions."""
    succ, (wt, _) = _successors(graph), _integer_weights(graph, theta)
    dist = [0] * len(succ)
    for _ in range(len(succ) + 1):
        changed = False
        for e, nexts in enumerate(succ):
            de = dist[e]
            for f in nexts:
                if de + wt[f] < dist[f]:
                    dist[f] = de + wt[f]
                    changed = True
        if not changed:
            return False
    return True


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
    and the minimum divided back by the lcm is exact.  A product state
    (edge e, coset c), the walk ending in e at e's target, is the int
    e * (|G| + 1) + c.
    """
    table = ctx.regular_table()
    if table is None:
        raise ValueError("coefficient group is not enumerable within budget; "
                         "fall back to bounded admissible_cycles")
    if has_negative_cycle(graph, theta):
        raise NegativeCycleError("negative cyclically reduced cycle detected")
    edges = graph.edges
    succ, (wt, den) = _successors(graph), _integer_weights(graph, theta)
    width = table.n + 1
    # step[f][c]: the state reached from coset c along edge f
    step = [[0] + [e.eid * width + table.trace(c, e.label)
                   for c in range(1, width)] for e in edges]
    moves = [[(step[f], wt[f]) for f in nexts] for nexts in succ]

    best = None
    best_cycle = None
    limit = (max_len - 1) if max_len is not None else None
    # cycles are rooted at each start edge with coset 1
    for start in edges:
        # level-by-level relaxation from the start edge's head; the first
        # step excludes the start's partner through `moves`.  Frontiers
        # keep duplicates, and a state relaxes with its distance when popped.
        init = step[start.eid][1]
        dist = [None] * (len(edges) * width)
        pred = dist[:]
        dist[init] = 0
        reached = [init]  # in the order first reached
        frontier = [init]
        steps = 0
        while frontier and (limit is None or steps < limit):
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
        # close the cycle at the start edge's tail with trivial total label
        # and a last edge other than the start's partner; the initial state
        # alone covers single-edge loop cycles
        closing = {e.eid * width + 1 for e in edges
                   if e.target == start.source and e.eid != start.partner}
        for st in reached:
            if st in closing and (best is None or dist[st] + wt[start.eid] < best):
                ids = []
                cur = st
                while cur is not None:
                    ids.append(cur // width)
                    cur = pred[cur]
                    if len(ids) > len(reached) + 1:
                        raise RuntimeError("predecessor chain loops")
                ids.reverse()
                best = dist[st] + wt[start.eid]
                best_cycle = tuple(ids)
    if best is None:
        return None
    return Fraction(best, den), _canonical_cycle(best_cycle, graph)


def to_dot(graph: StarGraph, theta: Optional[dict] = None) -> str:
    """DOT export; one undirected edge per involution pair."""

    def vname(v):
        return v[0] if v[1] == 1 else f"{v[0]}_bar"

    lines = ["graph stargraph {"]
    for v in graph.vertices:
        lines.append(f'  {vname(v)};')
    for e in graph.edges:
        if e.eid > e.partner:
            continue
        attrs = [f'label="{word_str(e.label)}"']
        if theta is not None:
            attrs.append(f'weight="{theta[e.eid]}"')
        lines.append(
            f'  {vname(e.source)} -- {vname(e.target)} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
