"""Pictures over relative presentations: validation, dipoles, curvature.

A picture is stored as a combinatorial map, not a geometric embedding:
each disc carries its clockwise cyclic boundary, alternating arc-ends and
corners; arcs carry an x-label and a normal orientation; arcs may also
end on the boundary circle, whose cyclic order of arc-ends is the `outer`
list.  Planarity is certified by Euler's formula on the traced map, so a
rotation system of higher genus is rejected rather than silently accepted.

Reading conventions: travelling clockwise around a disc, an arc-end is
read as the arc's label to the power +1 or -1; end 0 of an arc reads the
arc's `orient`, end 1 reads its negative, which encodes the fact that the
two ends of an arc always cross the normal orientation oppositely.  The
`outer` list is the rotation of a virtual disc capping the boundary
circle; like every rotation it is clockwise as seen from its own disc,
which is the reverse of the order in which the ends appear along the
boundary of a conventional drawing.

Region labels are products of corner labels; triviality of a label does
not depend on the traversal direction, so faces are reported in trace
order with triviality decided by the coefficient-group oracle.

A map is checked in one place, `_check_structure`, which says where each
arc end sits or names the map's first fault.  Every public function that
reads a map runs it once, on every map, the empty one included;
`validate_picture` and `curvature` hand its result to both the
connectivity test and the region walk.

One dipole reduction step (`relasph picture --reduce`) costs one
structure pass over the map plus a region walk that stops at the first
dipole and forms no label (`find_dipole`); `cancel_dipole` then passes
once over the arc ends, to reject an end attached twice, once over the
arcs, walking only the spliced chains, and once over the surviving
boundaries to renumber them.  The walk exists once, in `_walk`;
`trace_regions` runs it to the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Optional

from .words import (
    ParseError,
    TriState,
    Word,
    cyclic_letters_conjugate,
    cyclically_reduce,
    invert_letter_form,
    letter_form,
    letters_equal,
    parse_presentation,
    parse_word,
    wmul,
    word_str,
)

ARC = "arc"
CORNER = "corner"


@dataclass(frozen=True)
class Arc:
    label: str
    orient: int  # +1 or -1

    def end_sign(self, end: int) -> int:
        return self.orient if end == 0 else -self.orient


@dataclass(frozen=True)
class Disc:
    boundary: tuple  # (ARC, arc_id, end) and (CORNER, word) items, clockwise


@dataclass(frozen=True)
class Picture:
    discs: tuple
    arcs: tuple
    outer: tuple = ()  # (ARC, arc_id, end) items on the boundary circle

    @property
    def spherical(self) -> bool:
        return len(self.discs) >= 1 and not self.outer


@dataclass(frozen=True)
class Region:
    index: int
    items: tuple  # alternating (dart, corners) groups; dart = (arc_id, dir)
    corners: tuple  # ((disc, position, word), ...) in trace order
    degree: int  # number of arcs in the boundary
    touches_boundary: bool
    label: Word
    label_trivial: TriState


@dataclass(frozen=True)
class Dipole:
    arc: int
    region: int
    corner_a: tuple  # (disc, position, word)
    corner_b: tuple


OUTER_DISC = -1

_KIND = itemgetter(0)
_END = itemgetter(1, 2)


def _check_structure(pic: Picture) -> dict:
    """(arc, end) -> (disc index or OUTER_DISC, boundary position) for a
    well-formed map, or ValueError naming its first fault in a fixed order.
    A map whose discs each start at an arc end and alternate, and whose
    ends are exactly the arcs' two ends once each, is accepted from
    whole-map counts; any other goes through the itemised checks, which
    find the fault or accept the map."""
    bounds = [disc.boundary for disc in pic.discs]
    lengths = list(map(len, bounds))
    items = list(chain.from_iterable(bounds))
    outer = pic.outer
    if (0 not in lengths and not any(n & 1 for n in lengths)
            and list(map(_KIND, items)) == [ARC, CORNER] * (len(items) // 2)
            and list(map(_KIND, outer)) == [ARC] * len(outer)):
        # each disc's arc ends sit at its even positions
        locs = dict(zip(map(_END, items[0::2]),
                        [(di, pos) for di, n in enumerate(lengths)
                         for pos in range(0, n, 2)]))
        locs.update(zip(map(_END, outer),
                        zip(repeat(OUTER_DISC), range(len(outer)))))
        n_arcs = len(pic.arcs)
        if (len(items) // 2 + len(outer) == len(locs) == 2 * n_arcs
                and all(map(locs.__contains__,
                            product(range(n_arcs), (0, 1))))):
            return locs
    ends = [(_END(it), (di, pos)) for di, b in enumerate(bounds)
            for pos, it in enumerate(b) if it[0] == ARC]
    ends += [(_END(it), (OUTER_DISC, pos)) for pos, it in enumerate(outer)]
    locs = {}
    for key, loc in ends:
        if key in locs:
            raise ValueError(f"arc end {key} attached twice")
        locs[key] = loc
    for ai, end in locs:
        if end not in (0, 1) or not 0 <= ai < len(pic.arcs):
            raise ValueError(f"{(ai, end)} is not an end of any arc")
    for ai in range(len(pic.arcs)):
        for end in (0, 1):
            if (ai, end) not in locs:
                raise ValueError(f"arc {ai} end {end} is unattached")
    for di, b in enumerate(bounds):
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
    for item in outer:
        if item[0] != ARC:
            raise ValueError("outer boundary may only carry arc ends")
    return locs


def _walk(pic: Picture, locs: dict):
    """The faces of a checked map, one at a time, as (groups, touches).

    Faces are traced from each untraced dart in turn, arcs by id and
    direction 0 before 1; dart (arc, d) leaves by end d and arrives by the
    other.  Each group is (dart, corners): the corners met walking
    clockwise from the arrival end to the departure end, which on a disc
    (alternating, by the check) is one corner and on the boundary circle
    none.  `touches` says whether the face meets the boundary circle.
    """
    discs, outer = pic.discs, pic.outer
    seen = set()
    for start in product(range(len(pic.arcs)), (0, 1)):
        if start in seen:
            continue
        groups = []
        touches = False
        dart = start
        while True:
            seen.add(dart)
            disc, pos = locs[dart[0], 1 - dart[1]]
            if disc == OUTER_DISC:
                touches = True
                item = outer[(pos + 1) % len(outer)]
                groups.append((dart, ()))
            else:
                b = discs[disc].boundary
                j = (pos + 1) % len(b)
                item = b[(pos + 2) % len(b)]
                groups.append((dart, ((disc, j, b[j][1]),)))
            dart = (item[1], 0 if item[2] == 0 else 1)
            if dart == start:
                break
        yield groups, touches


def trace_regions(pic: Picture) -> list:
    """Faces of the map; corners are collected walking clockwise from the
    arrival end to the departure end on each disc."""
    return _regions(pic, _check_structure(pic))


def _regions(pic: Picture, locs: dict) -> list:
    """trace_regions of a map that _check_structure returned `locs` for."""
    regions = []
    for groups, touches in _walk(pic, locs):
        corners = tuple(c for _, group in groups for c in group)
        label = ()
        for _, _, wd in corners:
            label = wmul(label, wd)
        regions.append(Region(len(regions), tuple(groups), corners,
                              len(groups), touches, label, TriState.UNKNOWN))
    return regions


def euler_check(pic: Picture, regions: list) -> bool:
    v = len(pic.discs) + (1 if pic.outer else 0)
    e = len(pic.arcs)
    f = len(regions)
    return v - e + f == 2


def _connected(pic: Picture, locs: dict) -> bool:
    """Whether the arcs of a checked map join its discs and boundary."""
    if not pic.discs:
        return True
    adj = {i: set() for i in range(len(pic.discs))}
    if pic.outer:
        adj[OUTER_DISC] = set()
    for ai in range(len(pic.arcs)):
        d0 = locs[(ai, 0)][0]
        d1 = locs[(ai, 1)][0]
        adj[d0].add(d1)
        adj[d1].add(d0)
    seen = {0}
    stack = [0]
    while stack:
        for n in adj[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == len(adj)


@dataclass(frozen=True)
class DiscCheck:
    disc: int
    ok: TriState
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple
    discs: tuple  # DiscCheck per disc
    regions: tuple  # Region with label_trivial filled in
    connected: bool
    spherical: bool
    strictly_spherical: TriState
    distinguished_region: Optional[int]

    def lines(self) -> list:
        out = [f"problem: {p}" for p in self.problems]
        out.append(f"discs: {len(self.discs)}, regions: {len(self.regions)}, "
                   f"connected: {self.connected}, spherical: {self.spherical}")
        for d in self.discs:
            if d.ok != TriState.YES:
                out.append(f"disc {d.disc}: {d.ok.value} {d.detail}")
        for r in self.regions:
            out.append(f"region {r.index}: degree {r.degree}, "
                       f"label {word_str(r.label)} trivial: {r.label_trivial.value}"
                       + (" (boundary)" if r.touches_boundary else ""))
        out.append(f"valid: {'yes' if self.ok else 'NO'}; strictly spherical: "
                   f"{self.strictly_spherical.value}")
        return out


def _relator_letterforms(p) -> list:
    # relators keep their written shape: reduction here is syntactic only
    # (a coefficient letter that happens to be trivial in G still counts),
    # while coefficient comparisons against corners go through the oracle
    forms = []
    for rel in p.relators:
        lf = letter_form(cyclically_reduce(rel, None))
        forms += (lf, invert_letter_form(lf))
    return forms


def validate_picture(pic: Picture, p, ctx) -> ValidationReport:
    """Check a labelled picture against a relative presentation.

    Verifies the combinatorial structure, planarity via Euler's formula,
    that every disc reads a rotation of a relator or an inverse, and that
    region labels away from the boundary are trivial in G.  For spherical
    pictures at most one region may carry a non-trivial label; that region
    is the distinguished one and the picture is strictly spherical when
    even it is trivial.
    """
    problems = []
    try:
        locs = _check_structure(pic)
    except ValueError as err:
        untraced = tuple(DiscCheck(di, TriState.UNKNOWN, "(map not traced)")
                         for di in range(len(pic.discs)))
        return ValidationReport(False, (str(err),), untraced, (), False,
                                pic.spherical, TriState.NO, None)
    regions = _regions(pic, locs)
    connected = _connected(pic, locs)
    if not connected:
        problems.append("picture is not connected")
    if (pic.discs or pic.arcs) and not euler_check(pic, regions):
        problems.append("rotation system is not planar (Euler check failed)")
    forms = _relator_letterforms(p)
    disc_checks = []
    for di, disc in enumerate(pic.discs):
        # the disc's clockwise reading from its first arc end
        first = next(i for i, it in enumerate(disc.boundary) if it[0] == ARC)
        lf = _corner_word_at(pic, di, first - 1)
        ok = TriState.NO
        for form in forms:
            match = cyclic_letters_conjugate(lf, form, ctx)
            if match == TriState.YES:
                ok = match
                break
            if match == TriState.UNKNOWN:
                ok = match
        detail = "" if ok == TriState.YES else (
            "corner word matches no relator rotation" if ok == TriState.NO
            else "corner word match undecided")
        disc_checks.append(DiscCheck(di, ok, detail))
        if ok == TriState.NO:
            problems.append(f"disc {di}: corner word matches no relator rotation")
    checked_regions = []
    nontrivial = []
    undecided_regions = []
    for r in regions:
        triv = ctx.is_trivial_word(r.label)
        checked_regions.append(Region(r.index, r.items, r.corners, r.degree,
                                      r.touches_boundary, r.label, triv))
        if not r.touches_boundary or pic.spherical:
            if triv == TriState.NO:
                nontrivial.append(r.index)
            elif triv == TriState.UNKNOWN:
                undecided_regions.append(r.index)
    spherical = pic.spherical
    distinguished = None
    strictly = TriState.NO
    if spherical:
        if len(nontrivial) > 1:
            problems.append(
                f"regions {nontrivial} all have non-trivial labels; at most "
                "one (the distinguished region) is allowed")
        elif len(nontrivial) == 1:
            distinguished = nontrivial[0]
        else:
            distinguished = checked_regions[0].index if checked_regions else None
            strictly = TriState.UNKNOWN if undecided_regions else TriState.YES
    else:
        for ri in nontrivial:
            problems.append(f"inner region {ri} has non-trivial label")
    ok = not problems and all(d.ok == TriState.YES for d in disc_checks)
    return ValidationReport(ok, tuple(problems), tuple(disc_checks),
                            tuple(checked_regions), connected,
                            spherical, strictly, distinguished)


def _corner_word_at(pic: Picture, disc: int, pos: int) -> list:
    """W(corner): the disc reading that starts just after the corner and
    ends with the corner's own label, as letter form."""
    b = pic.discs[disc].boundary
    n = len(b)
    letters = []
    for j in range(pos + 1, pos + 1 + n, 2):
        item, corner = b[j % n], b[(j + 1) % n]
        if item[0] != ARC or corner[0] != CORNER:
            raise ValueError(f"disc {disc} does not alternate arcs and corners")
        arc = pic.arcs[item[1]]
        letters.append((arc.label, arc.end_sign(item[2]), corner[1]))
    return letters


def find_dipole(pic: Picture, p, ctx) -> Optional[Dipole]:
    """First dipole in deterministic region-trace order, or None.

    A dipole is an arc between two distinct discs whose flanking corners
    within one region read mutually inverse disc words.  Regions are
    traced one at a time and the search stops at the first dipole, so no
    region label is formed.
    """
    for ri, (groups, _) in enumerate(_walk(pic, _check_structure(pic))):
        # a dart's flanking corners are the last of the group before it and
        # the first of its own: one corner each on the discs it leaves and
        # reaches, none on the boundary circle
        before = groups[-1][1]
        for dart, after in groups:
            if before and after and before[0][0] != after[0][0]:
                ka, kb = before[0], after[0]
                wa = _corner_word_at(pic, ka[0], ka[1])
                wb = _corner_word_at(pic, kb[0], kb[1])
                if letters_equal(invert_letter_form(wa), wb, ctx) == TriState.YES:
                    return Dipole(dart[0], ri, ka, kb)
            before = after
    return None


def cancel_dipole(pic: Picture, d: Dipole) -> Picture:
    """Remove the dipole's two discs and connecting arc, splicing the freed
    arc ends in mirrored order.  Splices that close up entirely become
    floating circles and are dropped.  Disc count decreases by exactly 2.

    The remaining arcs keep their order.  An arc with no spliced end keeps
    its ends; a spliced chain takes the place of its least arc, with end 0
    at the free end that the chain walk from that arc meets first.
    """
    ends = [_END(it) for disc in pic.discs for it in disc.boundary
            if it[0] == ARC]
    ends += map(_END, pic.outer)
    if len(set(ends)) != len(ends):
        _check_structure(pic)  # raises, naming the first end attached twice
    disc_a = d.corner_a[0]
    disc_b = d.corner_b[0]
    if disc_a == disc_b:
        raise ValueError("a dipole joins two distinct discs")

    def ends_after_connector(disc):
        if not 0 <= disc < len(pic.discs):
            raise ValueError(f"a dipole corner names disc {disc}, which the "
                             "picture lacks")
        b = pic.discs[disc].boundary
        n = len(b)
        start = next((pos for pos, it in enumerate(b)
                      if it[0] == ARC and it[1] == d.arc), None)
        if start is None:
            raise ValueError(f"the dipole's arc {d.arc} does not meet "
                             f"disc {disc}")
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

    # walk chains of spliced segments; chains with two free ports become
    # arcs of the new picture, fully spliced chains become dropped circles.
    # An arc with no spliced end keeps both ends under its new id.
    removed_arcs = {d.arc}
    renum = {}  # arc id -> new id, for the arcs that keep both ends
    port_of = {}  # a chain's free (arc, end) -> (new id, new end)
    new_arcs = []
    seen_arc = set()
    for ai in range(len(pic.arcs)):
        if ai in removed_arcs or ai in seen_arc:
            continue
        involved = (ai, 0) in splice or (ai, 1) in splice
        if not involved:
            renum[ai] = len(new_arcs)
            new_arcs.append(pic.arcs[ai])
            continue
        # find a free port of this chain, if any
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
            continue  # closed circle: dropped
        p0, p1 = chain_ends
        label = pic.arcs[p0[0]].label
        s0 = pic.arcs[p0[0]].end_sign(p0[1])
        if pic.arcs[p1[0]].end_sign(p1[1]) != -s0:
            raise ValueError("a spliced arc's ends must cross the normal "
                             "oppositely")
        nid = len(new_arcs)
        new_arcs.append(Arc(label, s0))
        port_of[p0] = (nid, 0)
        port_of[p1] = (nid, 1)

    def remap_boundary(items):
        out = []
        for it in items:
            if it[0] == ARC:
                nid = renum.get(it[1])
                if nid is not None and it[2] in (0, 1):
                    out.append((ARC, nid, it[2]))
                    continue
                key = (it[1], it[2])
                if key not in port_of:
                    raise ValueError("dangling arc end after splice")
                nid, ne = port_of[key]
                out.append((ARC, nid, ne))
            else:
                out.append(it)
        return tuple(out)

    new_discs = []
    for di, disc in enumerate(pic.discs):
        if di in (disc_a, disc_b):
            continue
        new_discs.append(Disc(remap_boundary(disc.boundary)))
    new_outer = remap_boundary(pic.outer)
    return Picture(tuple(new_discs), tuple(new_arcs), new_outer)


# ---------------------------------------------------------------------------
# angles and curvature
# ---------------------------------------------------------------------------

class AngleFunction:
    """Corner angles as exact multiples of pi, summing to 2*pi per disc."""

    def __init__(self, angles: dict):
        self.angles = {k: Fraction(v) for k, v in angles.items()}

    def at(self, disc: int, pos: int) -> Fraction:
        return self.angles[(disc, pos)]

    def validate(self, pic: Picture) -> None:
        for di, disc in enumerate(pic.discs):
            total = Fraction(0)
            for pos, item in enumerate(disc.boundary):
                if item[0] == CORNER:
                    total += self.angles[(di, pos)]
            if total != 2:
                raise ValueError(
                    f"angles at disc {di} sum to {total} pi, need 2 pi")


def standard_angles(pic: Picture) -> AngleFunction:
    """Corners in degree-2 regions get 0; each disc's remaining corners
    share 2*pi equally."""
    zero = {(disc, pos) for r in trace_regions(pic)
            if r.degree == 2 and not r.touches_boundary
            for disc, pos, _ in r.corners}
    angles = {}
    for di, disc in enumerate(pic.discs):
        corner_pos = [pos for pos, it in enumerate(disc.boundary)
                      if it[0] == CORNER]
        live = [pos for pos in corner_pos if (di, pos) not in zero]
        if not live:
            raise ValueError(
                f"disc {di}: every corner lies in a degree-2 region; no "
                "angle assignment can sum to 2 pi")
        share = Fraction(2, len(live))
        for pos in corner_pos:
            angles[(di, pos)] = share if (di, pos) not in zero else Fraction(0)
    return AngleFunction(angles)


def curvature(pic: Picture, angles: AngleFunction):
    """Region curvatures c = 2*pi - sum(pi - angle) as multiples of pi.

    Requires a connected spherical picture (the boundary circle already
    contracted away); the total over all regions is exactly 4*pi.
    """
    if not pic.spherical:
        raise ValueError("curvature requires a spherical picture")
    locs = _check_structure(pic)
    if not _connected(pic, locs):
        raise ValueError("curvature requires a connected picture")
    angles.validate(pic)
    per_region = {}
    total = Fraction(0)
    for r in _regions(pic, locs):
        c = Fraction(2)
        for disc, pos, _ in r.corners:
            c -= 1 - angles.at(disc, pos)
        per_region[r.index] = c
        total += c
    return per_region, total


def curvature_formula(degrees) -> Fraction:
    """c(d_1, ..., d_k) in multiples of pi for a k-gonal region whose
    vertices have the given effective degrees under standard angles."""
    k = len(degrees)
    return Fraction(2 - k) + sum(Fraction(2, d) for d in degrees)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def picture_to_json(pic: Picture, presentation_text: Optional[str] = None) -> str:
    discs = []
    for disc in pic.discs:
        b = []
        for item in disc.boundary:
            if item[0] == ARC:
                b.append({"arc": item[1], "end": item[2]})
            else:
                b.append({"corner": word_str(item[1])})
        discs.append({"boundary": b})
    data = {
        "discs": discs,
        "arcs": [{"label": a.label, "orient": a.orient} for a in pic.arcs],
        "outer": [{"arc": it[1], "end": it[2]} for it in pic.outer],
    }
    if presentation_text is not None:
        data["presentation"] = presentation_text
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _arc_end(item: dict) -> tuple:
    ai, end = item["arc"], item["end"]
    if type(ai) is not int or type(end) is not int:
        raise ValueError(f"arc end {(ai, end)!r}: arc and end must be integers")
    return ARC, ai, end


def picture_from_json(text: str, presentation=None):
    """Returns (Picture, presentation): `presentation` when given, else the
    embedded one, else None.

    Corner words are read against that presentation's coefficient
    generators.  Raises ValueError when the text is not JSON, lacks a key,
    has a value of the wrong type, embeds a presentation that does not
    parse, or has a corner that is not a word over those generators.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"picture is not JSON: {err}") from None
    try:
        arcs = tuple(Arc(a["label"], a["orient"]) for a in data["arcs"])
        for ai, arc in enumerate(arcs):
            if type(arc.orient) is not int or arc.orient not in (1, -1):
                raise ValueError(f"arc {ai}: orient must be 1 or -1, "
                                 f"not {arc.orient!r}")
        if "presentation" in data:
            embedded = parse_presentation(data["presentation"])
            presentation = presentation or embedded
        gens = presentation.coeff.generators if presentation else None
        discs = []
        for di, d in enumerate(data["discs"]):
            items = []
            for item in d["boundary"]:
                if "arc" in item:
                    items.append(_arc_end(item))
                else:
                    items.append((CORNER, parse_word(
                        item["corner"], gens, f"disc {di} corner: ")))
            discs.append(Disc(tuple(items)))
        outer = tuple(map(_arc_end, data.get("outer", ())))
    except KeyError as err:
        raise ValueError(f"picture lacks the key {err}") from None
    except (TypeError, AttributeError) as err:
        raise ValueError(f"malformed picture: {err}") from None
    except ParseError as err:
        raise ValueError(f"picture's presentation: {err}") from None
    return Picture(tuple(discs), arcs, outer), presentation
