from __future__ import annotations

import random
import signal
from fractions import Fraction

import pytest

from relasph.coset import context_for
from relasph.stargraph import (
    NegativeCycleError,
    _canonical_cycle,
    _integer_weights,
    _negative_cycle,
    admissible_cycle_below,
    admissible_cycles,
    build_star_graph,
    has_negative_cycle,
    min_admissible_cycle_weight,
    product_graph,
    to_dot,
)
from relasph.weights import _candidate_values
from relasph.words import (
    C,
    X,
    RelativePresentation,
    TriState,
    csyl,
    cyclic,
    cyclic_word_reduce,
    cyclically_reduce,
    fpw,
    free_group,
    letter_form,
    parse_presentation,
    winv,
    wmul,
    word_str,
    xsyl,
)


def _frozen_canonical_cycle(edge_ids, graph):
    n = len(edge_ids)
    best = None
    for ids in (edge_ids,
                tuple(graph.edges[e].partner for e in reversed(edge_ids))):
        for r in range(n):
            rot = ids[r:] + ids[:r]
            if best is None or rot < best:
                best = rot
    return best


def _frozen_admissible_cycles(graph, ctx, max_len):
    """Reference for admissible_cycles, independent of the code under test:
    walk every cyclically reduced closed path from every start edge, once
    per rotation and orientation, and keep the first path met of each
    canonical form.  Returns (edge ids, label, status) triples."""
    edges = graph.edges
    out = {}
    for e in edges:
        out.setdefault(e.source, []).append(e.eid)
    succ = [[f for f in out.get(e.target, ()) if f != e.partner]
            for e in edges]
    seen = set()
    found = []

    def extend(path, vertex, start_edge):
        if vertex == edges[start_edge].source \
                and edges[path[-1]].partner != start_edge:
            key = _frozen_canonical_cycle(tuple(path), graph)
            if key not in seen:
                seen.add(key)
                label = ()
                for eid in path:
                    label = wmul(label, edges[eid].label)
                triv = ctx.is_trivial_word(label)
                if triv == TriState.YES:
                    found.append((key, label, "admissible"))
                elif triv == TriState.UNKNOWN:
                    found.append((key, label, "possibly-admissible"))
        if len(path) == max_len:
            return
        for f in succ[path[-1]]:
            path.append(f)
            extend(path, edges[f].target, start_edge)
            path.pop()

    for e in edges:
        extend([e.eid], e.target, e.eid)
    found.sort(key=lambda c: (len(c[0]), c[0]))
    return found


def length_four(l, k):
    w = fpw(xsyl("x", l), csyl((("g", 1),)), xsyl("x", k), csyl((("h", 1),)))
    return RelativePresentation(free_group("g", "h"), ("x",), (w,))


def test_edge_counts_match_x_letter_counts():
    for l in range(1, 6):
        for k in [k for k in range(-5, 6) if k]:
            graph = build_star_graph(length_four(l, k))
            assert len(graph.edges) == 2 * (l + abs(k)), (l, k)
            assert len(graph.pair_ids()) == l + abs(k)
            assert graph.vertices == (("x", 1), ("x", -1))


def test_positive_exponent_shape():
    # l, k > 0: every edge joins x to x_bar; labels carry g and h once per
    # involution pair and 1 on the remaining pairs
    graph = build_star_graph(length_four(3, 2))
    assert all(e.source[1] != e.target[1] for e in graph.edges)
    labels = sorted(word_str(graph.edges[p].label) for p in graph.pair_ids())
    assert labels.count("1") == 3 and len(labels) == 5


def test_negative_exponent_loops():
    # by the initial/terminal conventions the rotation starting at the first
    # letter loops at x carrying the h-labelled pair, and the rotation at
    # the first inverse letter loops at x_bar carrying the g-labelled pair
    graph = build_star_graph(length_four(2, -1))
    x_loops = [e for e in graph.edges if e.source == e.target == ("x", 1)]
    xb_loops = [e for e in graph.edges if e.source == e.target == ("x", -1)]
    assert {word_str(e.label) for e in x_loops} == {"h", "h^-1"}
    assert {word_str(e.label) for e in xb_loops} == {"g", "g^-1"}
    rest = [e for e in graph.edges if e.source != e.target]
    assert all(word_str(e.label) == "1" for e in rest)
    assert len(rest) == 2  # (l-1) + (|k|-1) = 1 unoriented pair


def test_single_letter_relator():
    p = RelativePresentation(free_group("g"), ("x",),
                             (fpw(xsyl("x", 1), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    fwd = [e for e in graph.edges if e.origin[2] == 1][0]
    assert fwd.source == ("x", 1) and fwd.target == ("x", -1)
    assert fwd.label == (("g", -1),)


def test_involution_is_fixed_point_free():
    for l, k in ((1, 1), (3, -2), (2, 1), (4, -4)):
        graph = build_star_graph(length_four(l, k))
        for e in graph.edges:
            assert e.partner != e.eid
            q = graph.edges[e.partner]
            assert q.source == e.target and q.target == e.source
            assert cyclic_word_reduce(wmul(q.label, e.label)) == ()


def test_label_product_invariant():
    # walking the rotations in descending order multiplies the labels to a
    # cyclic conjugate of the inverse of the relator's coefficient product
    for l, k in ((1, 1), (2, 1), (3, -2), (5, 4), (2, -5)):
        p = length_four(l, k)
        graph = build_star_graph(p)
        prod = ()
        for e in reversed(graph.rotation_edges(0)):
            prod = wmul(prod, e.label)
        coeffs = ()
        for s in cyclically_reduce(p.relators[0]).syllables:
            if s[0] == C:
                coeffs = wmul(coeffs, s[1])
        lhs = cyclic_word_reduce(prod)
        rhs = cyclic_word_reduce(winv(coeffs))
        assert any(lhs[i:] + lhs[:i] == rhs for i in range(max(1, len(lhs))))


def test_relator_in_coefficient_group_rejected():
    p = RelativePresentation(cyclic(4), ("x",), (fpw(csyl((("g", 1),))),))
    with pytest.raises(ValueError, match="non-orientable"):
        build_star_graph(p)


def _no_hang(signum, frame):
    raise TimeoutError("cyclic reduction did not return")


def test_star_graphs_of_random_presentations_are_built():
    """Every relator of a seeded sample of presentations with one or two
    x-generators reduces, within an alarm, to a cyclically reduced word
    that starts with an x-syllable: its last syllable cannot merge with
    its first.  Relators that start and end with x-syllables of different
    letters, which cyclic reduction once rotated forever, are among them."""
    rng = random.Random(20261020)
    groups = ("<g | g^2>", "<g | g^5>", "<g, h | >", "<g, h | g^2, h^3>")
    outcomes = {"built": 0, "rejected": 0, "mixed ends": 0}
    previous = signal.signal(signal.SIGALRM, _no_hang)
    signal.alarm(60)
    try:
        for _ in range(600):
            group = rng.choice(groups)
            gens = ["g", "h"] if "h" in group else ["g"]
            x_gens = rng.choice((["x"], ["x", "y"]))
            rels = ["rel " + " ".join(
                f"{rng.choice(gens + x_gens)}^{rng.choice((-2, -1, 1, 3))}"
                for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 2))]
            p = parse_presentation(
                f"group {group}; {', '.join(x_gens)}; {'; '.join(rels)}")
            try:
                graph = build_star_graph(p)
            except ValueError as err:
                assert "non-orientable" in str(err)
                outcomes["rejected"] += 1
                continue
            outcomes["built"] += 1
            for rel in p.relators:
                red = cyclically_reduce(rel)
                syls = red.syllables
                assert syls[0][0] == X and cyclically_reduce(red) == red
                if len(syls) > 1:
                    assert syls[-1][0] == C or syls[-1][1] != syls[0][1]
                    outcomes["mixed ends"] += syls[-1][0] == X
            assert len(graph.edges) == 2 * sum(
                len(letter_form(cyclically_reduce(r))) for r in p.relators)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert min(outcomes.values()) >= 20, outcomes


def x3g_over_z2():
    G = cyclic(2)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 3), csyl((("g", 1),))),))
    return build_star_graph(p), context_for(G, 1000)


def test_admissible_cycles_x3g():
    graph, ctx = x3g_over_z2()
    cycles = admissible_cycles(graph, ctx, 4)
    admissible = [c for c in cycles if c.status == "admissible"]
    assert admissible
    # two 1-labelled edges traversed oppositely: a length-2 trivial cycle
    assert any(len(c.edge_ids) == 2 and not c.label for c in admissible)


def test_admissible_cycles_respect_group_identities():
    # over Z4 with g = h the two labelled edges cancel into a length-2 cycle
    G = cyclic(4)
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 1), csyl((("g", 1),)))
    graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
    cycles = admissible_cycles(graph, context_for(G, 1000), 2)
    assert any(len(c.edge_ids) == 2 and c.status == "admissible" for c in cycles)


def test_no_admissible_cycles_over_free_labels():
    p = RelativePresentation(free_group("g"), ("x",),
                             (fpw(xsyl("x", 1), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    cycles = admissible_cycles(graph, context_for(free_group("g"), 1000), 4)
    assert all(c.status != "admissible" for c in cycles)


def _differential_cases():
    """(name, presentation text, cap) for the frozen-enumeration test: every
    shape l, |k| <= 4 over a seeded Z_n, n <= 8, and ten seeded shapes over
    <g, h | >, where the frozen copy takes 2 s on the largest."""
    rng = random.Random(20261019)
    shapes = [(l, k) for l in range(1, 5) for k in range(-4, 5) if k]
    cases = []
    for l, k in shapes:
        n = rng.randint(2, 8)
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        cases.append((f"Z{n} {l},{k}",
                      f"group <g | g^{n}>; x; rel x^{l} g^{a} x^{k} g^{b}",
                      1000))
    free_words = ("g", "h", "g^-1", "h^2", "g h", "h g^-1", "g^2 h")
    for l, k in rng.sample(shapes, 10):
        gw, hw = rng.choice(free_words), rng.choice(free_words)
        cases.append((f"free {l},{k}",
                      f"group <g, h | >; x; rel x^{l} {gw} x^{k} {hw}", 1000))
    # at cap 10 no label is decided: every cycle is possibly admissible
    s3z3 = "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>"
    for l, k in ((2, -1), (3, 1), (2, 2), (1, -3)):
        cases.append((f"S3xZ3 cap 10 {l},{k}",
                      f"{s3z3}; x; rel x^{l} g x^{k} h", 10))
    # a proper power: its least edge occurs more than once in a cycle
    for group in ("<g | g^2>", "<g | g^3>", "<g | >"):
        cases.append((f"power {group}", f"group {group}; x; rel x g x g",
                      1000))
    for group in ("<h | h^5>", "<h | >"):
        cases.append((f"two relators {group}",
                      f"group {group}; x, y; rel x h y h^2; rel x y^-1 h",
                      1000))
    return cases


def test_admissible_cycles_match_frozen_enumeration():
    """Rooting each cycle at its least edge lists the cycles, labels and
    statuses, in order, that walking every rotation and orientation and
    dropping repeats lists.  The frozen walk to length 6 lists, cut at
    length m, what it lists with max_len m."""
    statuses = set()
    for name, text, cap in _differential_cases():
        p = parse_presentation(text)
        graph = build_star_graph(p)
        ctx = context_for(p.coeff, cap)
        want = _frozen_admissible_cycles(graph, ctx, 6)
        for max_len in range(1, 7):
            got = [(c.edge_ids, c.label, c.status)
                   for c in admissible_cycles(graph, ctx, max_len)]
            assert got == [c for c in want if len(c[0]) <= max_len], \
                (name, max_len)
            statuses.update(status for _, _, status in got)
    assert statuses == {"admissible", "possibly-admissible"}


def test_min_weight_matches_bruteforce():
    graph, ctx = x3g_over_z2()
    theta = {pid: Fraction(1, 3) for pid in graph.pair_ids()}
    exact = min_admissible_cycle_weight(graph, theta, ctx)
    assert exact is not None and exact[0] == Fraction(2, 3)
    for bound in (2, 3, 4, 5, 6):
        got = min_admissible_cycle_weight(graph, theta, ctx, max_len=bound)
        cycles = [ids for ids, _, status
                  in _frozen_admissible_cycles(graph, ctx, bound)
                  if status == "admissible"]
        brute = min(sum(theta[graph.pair_id(e)] for e in ids)
                    for ids in cycles) if cycles else None
        if brute is None:
            assert got is None
        else:
            assert got is not None and got[0] == brute


def test_min_weight_bruteforce_battery():
    """Exact product-graph minima equal brute-force enumeration on a family
    of product graphs up to 200 nodes and bounds up to 6."""
    shapes = [
        (2, (1, 1), 1, 1),   # n, (l,k), a, b: relator x^l g^a x^k g^b over Z_n
        (3, (2, 1), 1, 2),
        (4, (2, -1), 2, 1),
        (5, (2, 1), 2, 1),
        (6, (2, -1), 3, 1),
        (8, (3, 1), 2, 1),
    ]
    for n, (l, k), a, b in shapes:
        G = cyclic(n)
        w = fpw(xsyl("x", l), csyl((("g", a),)), xsyl("x", k), csyl((("g", b),)))
        graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
        ctx = context_for(G, 1000)
        assert 2 * n <= 200
        for num, den in ((1, 3), (1, 2), (3, 4)):
            theta = {pid: Fraction(num, den) for pid in graph.pair_ids()}
            for bound in (3, 6):
                got = min_admissible_cycle_weight(graph, theta, ctx, max_len=bound)
                cycles = [ids for ids, _, status
                          in _frozen_admissible_cycles(graph, ctx, bound)
                          if status == "admissible"]
                brute = min((sum(theta[graph.pair_id(e)] for e in ids)
                             for ids in cycles), default=None)
                if brute is None:
                    assert got is None, (n, l, k, bound)
                else:
                    assert got is not None and got[0] == brute, (n, l, k, bound)


def test_unit_weights_count_edges():
    # with every pair weighted 1 the minimum admissible weight is the
    # length of the shortest admissible cycle
    G = cyclic(4)
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 1), csyl((("g", 1),)))
    graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
    theta = {pid: Fraction(1) for pid in graph.pair_ids()}
    got = min_admissible_cycle_weight(graph, theta, context_for(G, 1000))
    assert got is not None and got[0] == 2


def test_negative_cycle_reported():
    graph, ctx = x3g_over_z2()
    theta = {pid: Fraction(-1) for pid in graph.pair_ids()}
    with pytest.raises(NegativeCycleError):
        min_admissible_cycle_weight(graph, theta, ctx)


def test_no_admissible_cycle_returns_none():
    # over Z with infinite-order labels on a one-letter relator the product
    # graph method needs a finite group, so use Z_5 with label g: loops
    # must wind five times, mixed cycles cancel only with equal traversals
    G = cyclic(5)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 1), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    ctx = context_for(G, 1000)
    theta = {pid: Fraction(1) for pid in graph.pair_ids()}
    got = min_admissible_cycle_weight(graph, theta, ctx)
    # the only unoriented edge gives cycles e e^-1 ... all non-reduced; no
    # admissible cycle exists
    assert got is None


def _rational_min_weight(graph, theta, ctx, max_len=None):
    """Reference for min_admissible_cycle_weight: the same level-by-level
    search on Fraction weights, (vertex, coset, last edge) tuple states and
    a trace of the label per relaxation."""
    table = ctx.regular_table()
    edges = graph.edges

    def w(e):
        return theta[min(e.eid, e.partner)]

    verts = {}
    for e in edges:
        verts.setdefault(e.source, []).append(e)
    dist = {e.eid: Fraction(0) for e in edges}
    for _ in range(len(edges) + 1):
        changed = False
        for e in edges:
            de = dist[e.eid]
            for f in verts.get(e.target, ()):
                if f.eid == e.partner:
                    continue
                nd = de + w(f)
                if nd < dist[f.eid]:
                    dist[f.eid] = nd
                    changed = True
        if not changed:
            break
    else:
        raise NegativeCycleError("negative cyclically reduced cycle detected")

    best = None
    best_cycle = None
    for start in edges:
        c0 = table.trace(1, start.label)
        init = (start.target, c0, start.eid)
        dist2 = {init: Fraction(0)}
        pred = {init: None}
        frontier = [init]
        steps = 0
        limit = (max_len - 1) if max_len is not None else None
        while frontier:
            if limit is not None and steps >= limit:
                break
            steps += 1
            new_frontier = []
            for st in frontier:
                v, c, last = st
                d = dist2[st]
                for f in verts.get(v, ()):
                    if f.eid == edges[last].partner:
                        continue
                    c2 = table.trace(c, f.label)
                    st2 = (f.target, c2, f.eid)
                    nd = d + w(f)
                    if st2 not in dist2 or nd < dist2[st2]:
                        dist2[st2] = nd
                        pred[st2] = st
                        new_frontier.append(st2)
            frontier = new_frontier
        for st, d in dist2.items():
            v, c, last = st
            if v == start.source and c == 1 and last != start.partner:
                total = d + w(start)
                if best is None or total < best:
                    ids = []
                    cur = st
                    while cur is not None:
                        ids.append(cur[2])
                        cur = pred[cur]
                    ids.reverse()
                    best = total
                    best_cycle = tuple(ids)
    if best is None:
        return None
    return best, _canonical_cycle(best_cycle, graph)


def test_min_weight_matches_rational_reference():
    """The integer pass returns the reference's weight and witness cycle,
    None or NegativeCycleError on a seeded grid over Z_n."""
    rng = random.Random(20261018)
    values = _candidate_values(3)
    mixed = values + [Fraction(p, q) for q in (7, 11) for p in range(-q, q + 1)]
    outcomes = set()
    for _ in range(250):
        n = rng.randint(2, 12)
        l = rng.randint(1, 4)
        k = rng.choice([k for k in range(-4, 5) if k])
        a, b = rng.randint(1, n - 1), rng.randint(1, n - 1)
        G = cyclic(n)
        w = fpw(xsyl("x", l), csyl((("g", a),)), xsyl("x", k), csyl((("g", b),)))
        graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
        ctx = context_for(G, 1000)
        # a floor per instance: all-negative draws only find negative cycles
        floor = rng.choice((-1, Fraction(-1, 3), 0, 0, Fraction(1, 3)))
        pool = [v for v in rng.choice((values, mixed)) if v >= floor]
        theta = {pid: rng.choice(pool) for pid in graph.pair_ids()}
        for max_len in (None, 3, 5):
            try:
                want = _rational_min_weight(graph, theta, ctx, max_len)
            except NegativeCycleError:
                want = NegativeCycleError
            try:
                got = min_admissible_cycle_weight(graph, theta, ctx, max_len)
            except NegativeCycleError:
                got = NegativeCycleError
            case = (n, l, k, a, b, theta, max_len)
            assert got == want, case
            if isinstance(got, tuple):
                assert str(got[0]) == str(want[0]), case
                outcomes.add("weight")
            else:
                outcomes.add(got)
        assert has_negative_cycle(graph, theta) == (want is NegativeCycleError)
    # the grid reaches every kind of outcome
    assert outcomes == {"weight", None, NegativeCycleError}


def _frozen_negative_cycle(succ, wt):
    """The former boolean Bellman-Ford, with how it decided: 'settled' (a
    pass changed nothing), 'floor' (a distance fell below the sum of the
    negative weights) or 'passes' (all n + 1 passes changed something)."""
    dist = [0] * len(succ)
    floor = sum(w for w in wt if w < 0)
    for _ in range(len(succ) + 1):
        changed = False
        for e, nexts in enumerate(succ):
            de = dist[e]
            for f in nexts:
                if de + wt[f] < dist[f]:
                    dist[f] = de + wt[f]
                    if dist[f] < floor:
                        return True, "floor"
                    changed = True
        if not changed:
            return False, "settled"
    return True, "passes"


def test_negative_cycle_matches_the_frozen_boolean_test():
    """_negative_cycle finds a cycle exactly when the former boolean test
    says one exists, and the cycle is closed in the successor lists and
    negative, on seeded star graphs of grid shapes with pair weights and on
    seeded random successor lists; every way the former test decides
    occurs, with each kind of input."""
    rng = random.Random(20261021)

    def star_graphs():
        for _ in range(300):
            n = rng.randint(2, 12)
            l = rng.randint(1, 4)
            k = rng.choice([k for k in range(-4, 5) if k])
            a, b = rng.randint(1, n - 1), rng.randint(1, n - 1)
            graph = build_star_graph(RelativePresentation(cyclic(n), ("x",), (
                fpw(xsyl("x", l), csyl((("g", a),)), xsyl("x", k),
                    csyl((("g", b),))),)))
            # the second pool (as in successor_lists) closes cycles of
            # weight -1 among many negative edges, whose distances stay
            # above the floor through all n + 1 passes
            pool = rng.choice((range(-6, 7), (-12, 11, 12)))
            pair = {pid: rng.choice(pool) for pid in graph.pair_ids()}
            yield graph.successors, [pair[graph.pair_id(e.eid)]
                                     for e in graph.edges]

    def successor_lists():
        for _ in range(300):
            n = rng.randint(1, 40)
            succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 4)))))
                         for _ in range(n))
            pool = rng.choice((range(-5, 9), (-12, 11, 12)))
            yield succ, [rng.choice(pool) for _ in range(n)]

    for inputs in (star_graphs(), successor_lists()):
        outcomes = set()
        for succ, wt in inputs:
            want, how = _frozen_negative_cycle(succ, wt)
            got = _negative_cycle(succ, wt)
            assert (got is not None) == want, (succ, wt)
            if got is not None:
                assert sum(wt[e] for e in got) < 0
                assert all(f in succ[e] for e, f in zip(got, got[1:] + got[:1]))
            outcomes.add(how)
        assert outcomes == {"settled", "floor", "passes"}


def test_threshold_query_agrees_with_the_minimum():
    """admissible_cycle_below on one prebuilt product graph finds a cycle
    exactly when the minimum admissible weight is below the threshold, and
    the cycle it gives is a closed, cyclically reduced, admissible path of
    the weight it reports, lighter than the threshold but not always the
    lightest; a negative cycle raises as the minimum does.
    The query roots only at one edge of each pair and relies on a cycle's
    inverse to cover the other, so the coefficient groups include the
    non-abelian S3 and S3 x Z3 as well as cyclic ones."""
    rng = random.Random(20261019)
    values = _candidate_values(3)
    outcomes = set()

    def instances():
        for _ in range(150):
            n = rng.randint(2, 12)
            l = rng.randint(1, 4)
            k = rng.choice([k for k in range(-4, 5) if k])
            a, b = rng.randint(1, n - 1), rng.randint(1, n - 1)
            yield "cyclic", RelativePresentation(cyclic(n), ("x",), (fpw(
                xsyl("x", l), csyl((("g", a),)), xsyl("x", k),
                csyl((("g", b),))),))
        words = ("g", "h", "h^-1", "g h", "h g", "g h^-1", "h g h")
        for text, order in (
                ("<g, h | g^2, h^3, g h g h>", 6),
                ("<g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>", 18)):
            for _ in range(40):
                l = rng.randint(1, 3)
                k = rng.choice((-3, -2, -1, 1, 2, 3))
                u, v = rng.choice(words), rng.choice(words)
                p = parse_presentation(
                    f"group {text}; x; rel x^{l} {u} x^{k} {v}")
                assert context_for(p.coeff, 1000).regular_table().n == order
                yield order, p

    for group, p in instances():
        graph = build_star_graph(p)
        ctx = context_for(p.coeff, 1000)
        product = product_graph(graph, ctx.regular_table())
        floor = rng.choice((-1, 0, Fraction(1, 3)))
        theta = {pid: rng.choice([v for v in values if v >= floor])
                 for pid in graph.pair_ids()}
        wt, den = _integer_weights(graph, theta)
        try:
            exact = min_admissible_cycle_weight(graph, theta, ctx)
        except NegativeCycleError:
            with pytest.raises(NegativeCycleError):
                admissible_cycle_below(product, wt, 0)
            outcomes.add("negative")
            continue
        if exact is None:
            assert admissible_cycle_below(product, wt, 10 ** 9) is None
            continue
        least = exact[0] * den
        assert least.denominator == 1
        assert admissible_cycle_below(product, wt, int(least)) is None
        # a threshold well above the minimum can stop at a heavier cycle
        for above in (1, den, 2 * den):
            weight, ids = admissible_cycle_below(product, wt, int(least) + above)
            assert least <= weight == sum(wt[e] for e in ids) < least + above
            assert all(f in graph.successors[e]
                       for e, f in zip(ids, ids[1:] + ids[:1]))
            label = ()
            for e in ids:
                label = wmul(label, graph.edges[e].label)
            assert ctx.is_trivial_word(label) == TriState.YES
            if weight > least:
                outcomes.add("heavier")
        outcomes.add(("weight", group))
    assert outcomes == {("weight", "cyclic"), ("weight", 6), ("weight", 18),
                        "negative", "heavier"}
    # a single-letter relator closes no admissible cycle at all
    G = cyclic(5)
    graph = build_star_graph(
        RelativePresentation(G, ("x",), (fpw(xsyl("x", 1), csyl((("g", 1),))),)))
    product = product_graph(graph, context_for(G, 1000).regular_table())
    assert admissible_cycle_below(product, [-1] * len(graph.edges), 10 ** 9) is None
    # rooting at one edge of a pair is sound only when both weigh the same
    graph = build_star_graph(RelativePresentation(G, ("x",), (fpw(
        xsyl("x", 2), csyl((("g", 1),)), xsyl("x", -1), csyl((("g", 2),))),)))
    product = product_graph(graph, context_for(G, 1000).regular_table())
    wt = [1] * len(graph.edges)
    wt[graph.edges[0].partner] = 2
    with pytest.raises(ValueError, match="pair weigh differently"):
        admissible_cycle_below(product, wt, 10 ** 9)


def test_dot_export():
    graph = build_star_graph(length_four(2, -1))
    dot = to_dot(graph)
    assert dot.startswith("graph stargraph {")
    assert "x_bar" in dot and 'label="' in dot
