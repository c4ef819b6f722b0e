from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from relasph.cli import main
from relasph.coset import context_for
from relasph.pictures import (
    ARC,
    CORNER,
    AngleFunction,
    Arc,
    Dipole,
    Disc,
    Picture,
    Region,
    _corner_word_at,
    cancel_dipole,
    curvature,
    curvature_formula,
    euler_check,
    find_dipole,
    picture_from_json,
    picture_to_json,
    standard_angles,
    trace_regions,
    validate_picture,
)
from relasph.words import (
    TriState,
    invert_letter_form,
    letters_equal,
    parse_presentation,
    wmul,
)


@pytest.fixture(scope="module")
def fig2(fixtures_dir):
    pic, pres = picture_from_json((fixtures_dir / "fig2.json").read_text())
    return pic, pres, context_for(pres.coeff, 10 ** 4)


@pytest.fixture(scope="module")
def fig1a(fixtures_dir):
    pic, pres = picture_from_json((fixtures_dir / "fig1a.json").read_text())
    return pic, pres, context_for(pres.coeff, 10 ** 4)


def test_fig2_validates_reduced_spherical(fig2):
    pic, pres, ctx = fig2
    report = validate_picture(pic, pres, ctx)
    assert report.ok, report.problems
    assert report.spherical and report.connected
    assert report.strictly_spherical == TriState.YES
    assert find_dipole(pic, pres, ctx) is None
    regions = trace_regions(pic)
    assert euler_check(pic, regions)
    assert sorted(r.degree for r in regions) == [1, 1, 2, 8]


def test_fig2_stable_under_rotation_relabelling(fig2):
    pic, pres, ctx = fig2
    # rotating each disc's stored boundary list leaves the picture (and its
    # reducedness) unchanged
    rotated = Picture(
        tuple(Disc(d.boundary[2:] + d.boundary[:2]) for d in pic.discs),
        pic.arcs, pic.outer)
    report = validate_picture(rotated, pres, ctx)
    assert report.ok
    assert find_dipole(rotated, pres, ctx) is None


def test_fig2_region_cycle_matches_star_graph(fig2):
    # every corner maps to a star edge; an inner region label being trivial
    # corresponds to an admissible closed path
    from relasph.stargraph import build_star_graph
    pic, pres, ctx = fig2
    graph = build_star_graph(pres)
    report = validate_picture(pic, pres, ctx)
    for region in report.regions:
        assert region.label_trivial == TriState.YES


def test_fig1a_dipole_found_and_cancelled(fig1a):
    pic, pres, ctx = fig1a
    report = validate_picture(pic, pres, ctx)
    assert report.ok, report.problems
    assert not report.spherical
    d = find_dipole(pic, pres, ctx)
    assert d is not None and d.arc == 0
    out = cancel_dipole(pic, d)
    assert len(out.discs) == len(pic.discs) - 2
    assert len(out.arcs) == 3
    rep2 = validate_picture(out, pres, ctx)
    assert rep2.ok, rep2.problems
    assert find_dipole(out, pres, ctx) is None


def test_bad_dipole_is_rejected(fig1a):
    # raised errors, not asserts, so that they hold under python -O
    pic, pres, ctx = fig1a
    d = find_dipole(pic, pres, ctx)
    with pytest.raises(ValueError, match="distinct discs"):
        cancel_dipole(pic, Dipole(d.arc, d.region, d.corner_a, d.corner_a))
    flipped = (*pic.arcs[:1], Arc("x", -1), *pic.arcs[2:])
    with pytest.raises(ValueError, match="oppositely"):
        cancel_dipole(Picture(pic.discs, flipped, pic.outer), d)
    with pytest.raises(ValueError, match="alternate"):
        _corner_word_at(pic, 0, 0)  # position 0 holds an arc end
    with pytest.raises(ValueError, match="arc 2 does not meet disc"):
        cancel_dipole(pic, Dipole(2, 0, d.corner_a, d.corner_b))
    for corner_b in ((99, *d.corner_b[1:]), (-1, *d.corner_b[1:])):
        with pytest.raises(ValueError, match="lacks"):
            cancel_dipole(pic, Dipole(d.arc, d.region, d.corner_a, corner_b))


def test_empty_picture(fig1a):
    _, pres, ctx = fig1a
    empty = Picture((), (), ())
    report = validate_picture(empty, pres, ctx)
    assert report.ok and not report.spherical
    assert find_dipole(empty, pres, ctx) is None


def test_empty_map_with_a_stray_end_is_rejected(fig1a):
    # no discs and no arcs, yet the boundary circle names an end of arc 5
    _, pres, ctx = fig1a
    stray = Picture((), (), ((ARC, 5, 0),))
    with pytest.raises(ValueError, match="not an end of any arc"):
        trace_regions(stray)
    with pytest.raises(ValueError, match="not an end of any arc"):
        find_dipole(stray, pres, ctx)
    report = validate_picture(stray, pres, ctx)
    assert not report.ok
    assert report.problems == ("(5, 0) is not an end of any arc",)


def test_invalid_corner_word_detected(fig2):
    pic, pres, ctx = fig2
    bad_discs = list(pic.discs)
    items = list(bad_discs[0].boundary)
    items[1] = (CORNER, (("h", 1),))  # breaks the rotation match
    bad_discs[0] = Disc(tuple(items))
    report = validate_picture(Picture(tuple(bad_discs), pic.arcs, ()), pres, ctx)
    assert not report.ok
    assert any("matches no relator rotation" in p for p in report.problems)


def test_nonplanar_rotation_rejected():
    # one disc with two interleaved loops is the classical torus map:
    # V - E + F = 0, so the Euler certificate must reject it
    pres = parse_presentation("group <g | g>; x; rel x g x g x^-1 g x^-1 g")
    ctx = context_for(pres.coeff, 100)
    gcorner = (CORNER, (("g", 1),))
    disc = Disc(((ARC, 0, 0), gcorner, (ARC, 1, 0), gcorner,
                 (ARC, 0, 1), gcorner, (ARC, 1, 1), gcorner))
    pic = Picture((disc,), (Arc("x", 1), Arc("x", 1)), ())
    report = validate_picture(pic, pres, ctx)
    assert not report.ok
    assert any("planar" in p for p in report.problems)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_fig2_standard_angle_curvature(fig2):
    pic, _, _ = fig2
    angles = standard_angles(pic)
    per, total = curvature(pic, angles)
    assert total == 4
    regions = trace_regions(pic)
    deg2 = [r.index for r in regions if r.degree == 2]
    for ri in deg2:
        assert per[ri] == 0  # degree-2 regions are flat under standard angles


def test_curvature_checks_the_map(fig2):
    # a seventh arc that no disc uses: the map check names it before the
    # connectivity test looks its ends up
    pic, _, _ = fig2
    angles = standard_angles(pic)
    loose = Picture(pic.discs, pic.arcs + (Arc("x", 1),), pic.outer)
    with pytest.raises(ValueError, match="^arc 6 end 0 is unattached$"):
        curvature(loose, angles)


def test_missing_angle_names_its_corner(fig2):
    pic, _, _ = fig2
    missing = "^no angle at the corner of disc 0, position 1$"
    with pytest.raises(ValueError, match=missing):
        curvature(pic, AngleFunction({}))
    with pytest.raises(ValueError, match=missing):
        AngleFunction({}).at(0, 1)
    angles = standard_angles(pic).angles
    del angles[(2, 3)]
    with pytest.raises(ValueError, match="^no angle at the corner of disc 2, "
                                         "position 3$"):
        AngleFunction(angles).validate(pic)


def test_curvature_formula_values():
    assert curvature_formula([3] * 6) == 0
    assert curvature_formula([3] * 3) == 1
    assert curvature_formula([4] * 4) == 0
    assert curvature_formula([3, 3, 4]) == Fraction(5, 6)


def test_standard_angles_zero_and_share(fig2):
    # corners in degree-2 regions get 0; the rest of the disc shares 2 pi
    pic, _, _ = fig2
    angles = standard_angles(pic)
    regions = trace_regions(pic)
    zero = {(d, p) for r in regions if r.degree == 2 for d, p, _ in r.corners}
    for di, disc in enumerate(pic.discs):
        corner_pos = [q for q, it in enumerate(disc.boundary)
                      if it[0] == CORNER]
        live = [q for q in corner_pos if (di, q) not in zero]
        for q in corner_pos:
            expected = Fraction(2, len(live)) if (di, q) not in zero else 0
            assert angles.at(di, q) == expected


def test_standard_angles_examples():
    # a 4-valent vertex with no degree-2 regions shares 2 pi four ways; a
    # vertex with one corner in a degree-2 region gives 0, 2/3, 2/3, 2/3
    tetra = _tetrahedral_picture()
    angles = standard_angles(tetra)
    for (disc, pos), val in angles.angles.items():
        assert val == Fraction(2, 3)
    per, total = curvature(tetra, angles)
    assert total == 4 and all(c == 1 for c in per.values())


def _tetrahedral_picture():
    """The tetrahedron as a spherical picture: a central disc inside an
    outer triangle, rotations read off the plane drawing, over
    <<g,h | g, h>, x | x^2 g x^-1 h> (trivial coefficients, so only the
    sign patterns constrain the readings)."""
    arcs = tuple(Arc("x", 1) for _ in range(6))
    g = (CORNER, (("g", 1),))
    h = (CORNER, (("h", 1),))
    gi = (CORNER, (("g", -1),))
    hi = (CORNER, (("h", -1),))
    one = (CORNER, ())
    discs = (
        # centre v0, spokes a=0 (up), b=1 (lower right), c=2 (lower left)
        Disc(((ARC, 0, 0), one, (ARC, 1, 0), g, (ARC, 2, 1), h)),
        # top v1, clockwise a, f=5, d=3
        Disc(((ARC, 0, 1), one, (ARC, 5, 1), hi, (ARC, 3, 0), gi)),
        # lower right v2, clockwise d, e=4, b
        Disc(((ARC, 3, 1), hi, (ARC, 4, 0), gi, (ARC, 1, 1), one)),
        # lower left v3, clockwise f, c, e
        Disc(((ARC, 5, 0), one, (ARC, 2, 0), g, (ARC, 4, 1), h)),
    )
    return Picture(discs, arcs, ())


def test_tetrahedral_fixture_is_valid():
    pic = _tetrahedral_picture()
    pres = parse_presentation("group <g, h | g, h>; x; rel x^2 g x^-1 h")
    ctx = context_for(pres.coeff, 100)
    regions = trace_regions(pic)
    assert euler_check(pic, regions)
    assert sorted(r.degree for r in regions) == [3, 3, 3, 3]
    report = validate_picture(pic, pres, ctx)
    assert report.ok, report.problems


# ---------------------------------------------------------------------------
# randomized spherical pictures: total curvature is always exactly 4 pi
# ---------------------------------------------------------------------------

def random_spherical_picture(rng, m, p):
    pres = parse_presentation(f"group <g | g>; x; rel x^{m} g")
    plus_ends = [(i, j) for i in range(p) for j in range(m)]
    minus_ends = [(i, j) for i in range(p) for j in range(m)]
    rng.shuffle(minus_ends)
    arcs = []
    end_at = {}
    for aid, (pe, me) in enumerate(zip(plus_ends, minus_ends)):
        arcs.append(Arc("x", 1))
        end_at[("p",) + pe] = (aid, 0)
        end_at[("m",) + me] = (aid, 1)
    discs = []
    for side in ("p", "m"):
        for i in range(p):
            off = rng.randrange(m)
            items = []
            for j in range(m):
                aid, end = end_at[(side, i, j)]
                items.append((ARC, aid, end))
                coeff = (("g", 1 if side == "p" else -1),) if j == off else ()
                items.append((CORNER, coeff))
            discs.append(Disc(tuple(items)))
    return Picture(tuple(discs), tuple(arcs), ()), pres


def random_angles(rng, pic):
    angles = {}
    for di, disc in enumerate(pic.discs):
        pos = [q for q, it in enumerate(disc.boundary) if it[0] == CORNER]
        weights = [rng.randrange(0, 5) for _ in pos]
        if not sum(weights):
            weights[0] = 1
        s = sum(weights)
        for q, wgt in zip(pos, weights):
            angles[(di, q)] = Fraction(2 * wgt, s)
    return AngleFunction(angles)


def test_total_curvature_is_4pi_on_random_fixtures():
    rng = random.Random(20240817)
    ctx = None
    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 8000:
        attempts += 1
        m = rng.choice([2, 3, 3, 4])
        p = rng.choice([1, 2, 2, 3])
        pic, pres = random_spherical_picture(rng, m, p)
        if ctx is None:
            ctx = context_for(pres.coeff, 100)
        regions = trace_regions(pic)
        if not euler_check(pic, regions):
            continue
        report = validate_picture(pic, pres, ctx)
        if not report.ok:
            assert report.problems == ("picture is not connected",)
            continue
        _, total = curvature(pic, random_angles(rng, pic))
        assert total == 4
        accepted += 1
    assert accepted >= 100


def test_json_roundtrip(fig2):
    pic, pres, _ = fig2
    text = picture_to_json(pic, presentation_text=None)
    back, _ = picture_from_json(text)
    assert back == pic


def test_angle_function_must_sum_to_2pi(fig2):
    pic, _, _ = fig2
    angles = standard_angles(pic)
    bad = dict(angles.angles)
    key = next(iter(bad))
    bad[key] += 1
    with pytest.raises(ValueError, match="sum"):
        AngleFunction(bad).validate(pic)


# ---------------------------------------------------------------------------
# differential: the lazy region walk and the one-pass cancellation against
# frozen copies of the former code, which traced and labelled every region
# before searching for a dipole and cancelled through per-end dicts
# ---------------------------------------------------------------------------

def _ref_end_locations(pic):
    locs = {}
    for di, disc in enumerate(pic.discs):
        for pos, item in enumerate(disc.boundary):
            if item[0] == ARC:
                key = (item[1], item[2])
                if key in locs:
                    raise ValueError(f"arc end {key} attached twice")
                locs[key] = (di, pos)
    for pos, item in enumerate(pic.outer):
        key = (item[1], item[2])
        if key in locs:
            raise ValueError(f"arc end {key} attached twice")
        locs[key] = (-1, pos)
    return locs


def _ref_check_structure(pic):
    locs = _ref_end_locations(pic)
    for ai, end in locs:
        if end not in (0, 1) or not 0 <= ai < len(pic.arcs):
            raise ValueError(f"{(ai, end)} is not an end of any arc")
    for ai in range(len(pic.arcs)):
        for end in (0, 1):
            if (ai, end) not in locs:
                raise ValueError(f"arc {ai} end {end} is unattached")
    for di, disc in enumerate(pic.discs):
        b = disc.boundary
        n_arcs = sum(1 for it in b if it[0] == ARC)
        n_corner = len(b) - n_arcs
        if n_arcs == 0:
            raise ValueError(f"disc {di} has no arc ends")
        if n_arcs != n_corner:
            raise ValueError(f"disc {di} does not alternate arcs and corners")
        for pos, item in enumerate(b):
            nxt = b[(pos + 1) % len(b)]
            if item[0] == nxt[0]:
                raise ValueError(f"disc {di} does not alternate arcs and corners")
    for item in pic.outer:
        if item[0] != ARC:
            raise ValueError("outer boundary may only carry arc ends")
    return locs


def _ref_trace_regions(pic):
    if not pic.discs and not pic.arcs:
        return []
    locs = _ref_check_structure(pic)
    darts = [(ai, d) for ai in range(len(pic.arcs)) for d in (0, 1)]
    seen = set()
    regions = []
    for start in darts:
        if start in seen:
            continue
        items = []
        corners = []
        touches = False
        dart = start
        while True:
            seen.add(dart)
            ai, dr = dart
            head_end = 1 if dr == 0 else 0
            disc, pos = locs[(ai, head_end)]
            group = []
            if disc == -1:
                touches = True
            rot = pic.outer if disc == -1 else pic.discs[disc].boundary
            j = pos
            while True:
                j = (j + 1) % len(rot)
                item = rot[j]
                if item[0] == ARC:
                    break
                group.append((disc, j, item[1]))
            corners.extend(group)
            items.append((dart, tuple(group)))
            out_arc, out_end = item[1], item[2]
            dart = (out_arc, 0 if out_end == 0 else 1)
            if dart == start:
                break
        label = ()
        for _, _, wd in corners:
            label = wmul(label, wd)
        regions.append(Region(len(regions), tuple(items), tuple(corners),
                              len(items), touches, label, TriState.UNKNOWN))
    return regions


def _ref_find_dipole(pic, p, ctx):
    locs = _ref_end_locations(pic)
    for region in _ref_trace_regions(pic):
        groups = region.items
        k = len(groups)
        for i in range(k):
            dart, corners_after = groups[i]
            corners_before = groups[(i - 1) % k][1]
            if not corners_before or not corners_after:
                continue
            ai, dr = dart
            tail_disc = locs[(ai, 0 if dr == 0 else 1)][0]
            head_disc = locs[(ai, 1 if dr == 0 else 0)][0]
            if tail_disc == -1 or head_disc == -1 or tail_disc == head_disc:
                continue
            ka = corners_before[-1]
            kb = corners_after[0]
            wa = _corner_word_at(pic, ka[0], ka[1])
            wb = _corner_word_at(pic, kb[0], kb[1])
            if letters_equal(invert_letter_form(wa), wb, ctx) == TriState.YES:
                return Dipole(ai, region.index, ka, kb)
    return None


def _ref_cancel_dipole(pic, d):
    _ref_end_locations(pic)
    disc_a = d.corner_a[0]
    disc_b = d.corner_b[0]
    if disc_a == disc_b:
        raise ValueError("a dipole joins two distinct discs")

    def ends_after_connector(disc):
        b = pic.discs[disc].boundary
        n = len(b)
        start = next(pos for pos, it in enumerate(b)
                     if it[0] == ARC and it[1] == d.arc)
        out = []
        j = start
        for _ in range(n // 2 - 1):
            j = (j + 2) % n
            out.append((b[j][1], b[j][2]))
        return out

    ea = ends_after_connector(disc_a)
    eb = ends_after_connector(disc_b)
    if len(ea) != len(eb):
        raise ValueError("the dipole's discs have different degrees")
    splice = {}
    for i, end_a in enumerate(ea):
        end_b = eb[len(eb) - 1 - i]
        splice[end_a] = end_b
        splice[end_b] = end_a
        arc_a, arc_b = pic.arcs[end_a[0]], pic.arcs[end_b[0]]
        if (arc_a.label != arc_b.label
                or arc_a.end_sign(end_a[1]) != -arc_b.end_sign(end_b[1])):
            raise ValueError("spliced ends must carry one label and cross "
                             "the normal oppositely")
    port_of = {}
    new_arcs = []
    seen_arc = set()
    for ai in range(len(pic.arcs)):
        if ai == d.arc or ai in seen_arc:
            continue
        if (ai, 0) not in splice and (ai, 1) not in splice:
            seen_arc.add(ai)
            port_of[(ai, 0)] = (len(new_arcs), 0)
            port_of[(ai, 1)] = (len(new_arcs), 1)
            new_arcs.append(pic.arcs[ai])
            continue
        chain_ends = []
        visited = set()
        stack = [ai]
        while stack:
            a = stack.pop()
            if a in visited:
                continue
            visited.add(a)
            for e in (0, 1):
                if (a, e) in splice:
                    stack.append(splice[(a, e)][0])
                else:
                    chain_ends.append((a, e))
        seen_arc.update(visited)
        if not chain_ends:
            continue
        p0, p1 = chain_ends
        s0 = pic.arcs[p0[0]].end_sign(p0[1])
        if pic.arcs[p1[0]].end_sign(p1[1]) != -s0:
            raise ValueError("a spliced arc's ends must cross the normal "
                             "oppositely")
        port_of[p0] = (len(new_arcs), 0)
        port_of[p1] = (len(new_arcs), 1)
        new_arcs.append(Arc(pic.arcs[p0[0]].label, s0))

    def remap_boundary(items):
        out = []
        for it in items:
            if it[0] == ARC:
                if (it[1], it[2]) not in port_of:
                    raise ValueError("dangling arc end after splice")
                out.append((ARC, *port_of[(it[1], it[2])]))
            else:
                out.append(it)
        return tuple(out)

    new_discs = tuple(Disc(remap_boundary(disc.boundary))
                      for di, disc in enumerate(pic.discs)
                      if di not in (disc_a, disc_b))
    return Picture(new_discs, tuple(new_arcs), remap_boundary(pic.outer))


def side_by_side(pic, copies, rng, turn_discs=False):
    """`copies` disjoint copies of a picture with a boundary, their arc ids
    permuted and their discs shuffled, sharing one boundary circle that
    starts at a random end.  With `turn_discs`, each disc's stored boundary
    also starts at a random item, a corner about half the time."""
    n = len(pic.arcs)
    perm = list(range(n * copies))
    rng.shuffle(perm)

    def relabel(items, c):
        return tuple((ARC, perm[c * n + it[1]], it[2]) if it[0] == ARC
                     else it for it in items)

    arcs = [None] * (n * copies)
    for c in range(copies):
        for ai, arc in enumerate(pic.arcs):
            arcs[perm[c * n + ai]] = arc
    bounds = [relabel(d.boundary, c) for c in range(copies) for d in pic.discs]
    rng.shuffle(bounds)
    if turn_discs:
        bounds = [b[k:] + b[:k] for b in bounds for k in [rng.randrange(len(b))]]
    outer = [it for c in range(copies) for it in relabel(pic.outer, c)]
    turn = rng.randrange(len(outer))
    return Picture(tuple(Disc(b) for b in bounds), tuple(arcs),
                   tuple(outer[turn:] + outer[:turn]))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as err:
        return "ValueError", str(err)


@pytest.mark.parametrize("copies", [1, 2, 5, 16, 32])
def test_reduction_matches_the_frozen_reference(fig1a, copies):
    # every step: the same regions, the same dipole, the same picture
    base, pres, ctx = fig1a
    for seed in range(3):
        for turn_discs in (False, True):
            rng = random.Random(f"{copies}:{seed}:{turn_discs}")
            pic = side_by_side(base, copies, rng, turn_discs)
            steps = 0
            while True:
                assert trace_regions(pic) == _ref_trace_regions(pic)
                d = find_dipole(pic, pres, ctx)
                assert d == _ref_find_dipole(pic, pres, ctx)
                if d is None:
                    break
                after = cancel_dipole(pic, d)
                assert after == _ref_cancel_dipole(pic, d)
                pic = after
                steps += 1
            assert steps == copies and not pic.discs


def test_reduced_picture_matches_the_frozen_reference(fig2):
    pic, pres, ctx = fig2
    rng = random.Random(2)
    for _ in range(4):
        assert trace_regions(pic) == _ref_trace_regions(pic)
        assert find_dipole(pic, pres, ctx) is None
        assert _ref_find_dipole(pic, pres, ctx) is None
        pic = Picture(tuple(Disc(d.boundary[k:] + d.boundary[:k])
                            for d in pic.discs
                            for k in [rng.randrange(len(d.boundary))]),
                      pic.arcs, pic.outer)


def _broken_maps(pic):
    """(expected message, map) pairs, each map broken in one way."""
    discs = [list(d.boundary) for d in pic.discs]

    def with_disc(i, items):
        out = [tuple(b) for b in discs]
        out[i] = tuple(items)
        return Picture(tuple(Disc(b) for b in out), pic.arcs, pic.outer)

    twice = list(discs[1])
    twice[0] = discs[0][0]
    yield "attached twice", with_disc(1, twice)
    yield "is unattached", Picture(pic.discs, pic.arcs, pic.outer[:-1])
    swapped = list(discs[0])
    swapped[1], swapped[2] = swapped[2], swapped[1]
    yield "does not alternate", with_disc(0, swapped)
    yield "does not alternate", with_disc(0, discs[0][:-1])
    _, ai, end = pic.outer[-1]
    yield "not an end of any arc", Picture(
        pic.discs, pic.arcs, pic.outer[:-1] + ((ARC, ai, end + 2),))
    yield "no arc ends", Picture(pic.discs + (Disc(()),), pic.arcs, pic.outer)
    _, ai, end = pic.outer[-1]
    yield "outer boundary", Picture(
        pic.discs, pic.arcs, pic.outer[:-1] + ((CORNER, ai, end),))


def test_broken_maps_raise_as_the_frozen_reference(fig1a):
    base, pres, ctx = fig1a
    pic = side_by_side(base, 2, random.Random(5))
    for message, broken in _broken_maps(pic):
        for got, want in (
                (_outcome(trace_regions, broken),
                 _outcome(_ref_trace_regions, broken)),
                (_outcome(find_dipole, broken, pres, ctx),
                 _outcome(_ref_find_dipole, broken, pres, ctx))):
            assert got == want
            assert got[0] == "ValueError" and message in got[1], got
    # a map of no discs and no arcs goes through the same check, so a
    # boundary circle that repeats an end is rejected by every reader
    empty = Picture((), (), ((ARC, 0, 0), (ARC, 0, 0)))
    got = _outcome(find_dipole, empty, pres, ctx)
    assert got == _outcome(_ref_find_dipole, empty, pres, ctx)
    assert got == ("ValueError", "arc end (0, 0) attached twice")
    assert _outcome(trace_regions, empty) == got
    report = validate_picture(empty, pres, ctx)
    assert not report.ok and report.problems == (got[1],)


def test_bad_dipoles_raise_as_the_frozen_reference(fig1a):
    base, pres, ctx = fig1a
    pic = side_by_side(base, 2, random.Random(5))
    d = find_dipole(pic, pres, ctx)
    twice = next(broken for message, broken in _broken_maps(pic)
                 if message == "attached twice")
    # flip an arc that the cancellation splices: the end after the connector
    b = pic.discs[d.corner_a[0]].boundary
    at = next(pos for pos, it in enumerate(b) if it[:2] == (ARC, d.arc))
    spliced = b[(at + 2) % len(b)][1]
    flipped = Picture(pic.discs, tuple(
        Arc(a.label, -a.orient) if i == spliced else a
        for i, a in enumerate(pic.arcs)), pic.outer)
    for message, broken, dipole in (
            ("attached twice", twice, d),
            ("distinct discs", pic, Dipole(d.arc, d.region, d.corner_a,
                                           d.corner_a)),
            ("oppositely", flipped, d)):
        got = _outcome(cancel_dipole, broken, dipole)
        assert got == _outcome(_ref_cancel_dipole, broken, dipole)
        assert got[0] == "ValueError" and message in got[1], got


# `relasph picture <file> --reduce` on the 16-copy picture below, recorded
# from the former code: the sha256 of the whole stdout, and its last lines
REDUCE_16_SHA256 = ("cfdce094ce4b03f87f25d6092ec7bab6"
                    "69f4a8f854568ff36f4ca602326c0e52")
REDUCE_16_TAIL = """\
valid: yes; strictly spherical: no
cancelled dipole at arc 81 (region 0); 30 discs remain
cancelled dipole at arc 85 (region 5); 28 discs remain
cancelled dipole at arc 5 (region 9); 26 discs remain
cancelled dipole at arc 93 (region 10); 24 discs remain
cancelled dipole at arc 90 (region 13); 22 discs remain
cancelled dipole at arc 66 (region 14); 20 discs remain
cancelled dipole at arc 10 (region 14); 18 discs remain
cancelled dipole at arc 62 (region 14); 16 discs remain
cancelled dipole at arc 26 (region 16); 14 discs remain
cancelled dipole at arc 14 (region 20); 12 discs remain
cancelled dipole at arc 56 (region 19); 10 discs remain
cancelled dipole at arc 17 (region 23); 8 discs remain
cancelled dipole at arc 41 (region 28); 6 discs remain
cancelled dipole at arc 43 (region 31); 4 discs remain
cancelled dipole at arc 28 (region 32); 2 discs remain
cancelled dipole at arc 38 (region 34); 0 discs remain
reduced after 16 cancellations
"""


def test_reduce_transcript_is_unchanged(fig1a, fixtures_dir, tmp_path,
                                        capsys):
    base, _, _ = fig1a
    text = json.loads((fixtures_dir / "fig1a.json").read_text())
    path = tmp_path / "fig1a_x16.json"
    path.write_text(picture_to_json(
        side_by_side(base, 16, random.Random(16)), text["presentation"]))
    assert main(["picture", str(path), "--reduce"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(REDUCE_16_TAIL)
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_16_SHA256
