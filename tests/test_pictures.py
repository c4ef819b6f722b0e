from __future__ import annotations

import random
from fractions import Fraction

import pytest

from relasph.coset import context_for
from relasph.pictures import (
    ARC,
    CORNER,
    AngleFunction,
    Arc,
    Dipole,
    Disc,
    Picture,
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
from relasph.words import TriState, parse_presentation


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


def test_empty_picture(fig1a):
    _, pres, ctx = fig1a
    empty = Picture((), (), ())
    report = validate_picture(empty, pres, ctx)
    assert report.ok and not report.spherical
    assert find_dipole(empty, pres, ctx) is None


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
