"""Classifier for one-relator relative presentations <G, x | x^l g x^k h>.

Decides diagrammatic reducibility and asphericity (or reports the case as
open) for relators of free product length four, by combining:

  * relator sanity rules (proper powers, orientability),
  * the equal/opposite exponent rules,
  * the torsion-free coefficient shortcut,
  * the named coincidence cases Z, M, J4, J6, K5, K6+, K6-, L6 and the
    Platonic case P,
  * the per-exponent-family classification theorems with their
    exceptional families, and
  * hard finite-order and torsion facts for the resolved table entries,

in a fixed precedence order.  Every verdict names the rule that produced
it.  Conditions an oracle cannot settle within budget surface as an open
verdict naming the blocking query, never as a guess, and raising the
budget can only resolve open verdicts, not flip decided ones.

In the region l != +-k the relator is orientable and not a proper power,
so diagrammatic reducibility implies asphericity; contrapositively every
non-aspherical verdict there forces dr=no, and positive dr verdicts come
only from theorems that actually prove reducibility.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple, Optional

from .coset import (
    DEFAULT_CAP,
    LiftedPresentation,
    context_for,
    enumerate_cosets,
    lift,
    order_via_cyclic_subgroup,
)
from .words import (
    C,
    CoefficientGroup,
    FreeProductWord,
    MuValue,
    OrderResult,
    RelativePresentation,
    TriState,
    UndecidedError,
    Validated,
    Word,
    X,
    csyl,
    cyclic,
    cyclically_reduce,
    fpw,
    mu,
    winv,
    wmul,
    word_str,
    xsyl,
)

YES, NO, UNKNOWN = TriState.YES, TriState.NO, TriState.UNKNOWN

CASE_NAMES = ("P", "Z", "M", "J4", "J6", "K5", "K6+", "K6-", "L6")
EXCEPTIONAL_NAMES = ("BBP-E4", "BBP-E5", "HM-E", "AEJ-E", "E-E1", "E-E2",
                     "E-E3", "AAE-E", "AAE-E4", "D-E1", "D-E2", "D-E4")


def tri_and(*ts) -> TriState:
    if NO in ts:
        return NO
    return UNKNOWN if UNKNOWN in ts else YES


def tri_or(*ts) -> TriState:
    if YES in ts:
        return YES
    return UNKNOWN if UNKNOWN in ts else NO


def tri_not(t: TriState) -> TriState:
    if t == YES:
        return NO
    if t == NO:
        return YES
    return UNKNOWN


def tri_bool(b: bool) -> TriState:
    return YES if b else NO


# The four order tests read `kind` directly: they run some forty times for
# each new pair of coefficients, and the properties cost a call each.
def order_is(o: OrderResult, n: int) -> TriState:
    if o.kind == "finite":
        return YES if o.value == n else NO
    return UNKNOWN if o.kind == "unknown" else NO


def order_at_least(o: OrderResult, n: int) -> TriState:
    if o.kind == "finite":
        return YES if o.value >= n else NO
    return UNKNOWN if o.kind == "unknown" else YES


def order_finite(o: OrderResult) -> TriState:
    if o.kind == "finite":
        return YES
    return UNKNOWN if o.kind == "unknown" else NO


def order_in_open_range(o: OrderResult, low: int) -> TriState:
    """low < order < infinity"""
    if o.kind == "finite":
        return YES if o.value > low else NO
    return UNKNOWN if o.kind == "unknown" else NO


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class _LengthFourInstance(NamedTuple):
    G: CoefficientGroup
    g: Word
    h: Word
    l: int
    k: int
    x: str = "x"


class LengthFourInstance(Validated, _LengthFourInstance):
    """<G, x | x^l g x^k h> with g, h nontrivial, l > 0, k != 0.

    `normalized()` rewrites to an equivalent instance with l >= |k| using
    the rotation (l,k,g,h) -> (k,l,h,g) for k > 0 and the inversion
    substitution (l,k,g,h) -> (-k,-l,h,g) for k < 0; both preserve the
    defined group and the asphericity/reducibility status.
    """

    __slots__ = ()

    def __new__(cls, G, g, h, l, k, x="x"):
        if l <= 0 or k == 0:
            raise ValueError("need l > 0 and k != 0")
        return tuple.__new__(cls, (G, tuple(g), tuple(h), l, k, x))

    def relator(self) -> FreeProductWord:
        return fpw(xsyl(self.x, self.l), csyl(self.g),
                   xsyl(self.x, self.k), csyl(self.h))

    def presentation(self) -> RelativePresentation:
        return RelativePresentation(self.G, (self.x,), (self.relator(),))

    def lifted(self) -> LiftedPresentation:
        return lift(self.presentation())

    def normalized(self) -> "LengthFourInstance":
        l, k, g, h = self.l, self.k, self.g, self.h
        if k > 0 and k > l:
            l, k, g, h = k, l, h, g
        elif k < 0 and -k > l:
            l, k, g, h = -k, -l, h, g
        if (l, k, g, h) == (self.l, self.k, self.g, self.h):
            return self
        return LengthFourInstance(self.G, g, h, l, k, self.x)

    def describe(self) -> str:
        return (f"<G, x | x^{self.l} {word_str(self.g)} "
                f"x^{self.k} {word_str(self.h)}>")


def instance_from_presentation(p: RelativePresentation,
                               cap: int = DEFAULT_CAP) -> LengthFourInstance:
    """Extract the length-four shape from a one-relator presentation."""
    if len(p.relators) != 1:
        raise ValueError("classifier needs exactly one relator")
    if len(p.x_gens) != 1:
        raise ValueError("classifier needs exactly one x-generator")
    ctx = context_for(p.coeff, cap)
    red = cyclically_reduce(p.relators[0], ctx)
    syls = red.syllables
    if len(syls) != 4 or [s[0] for s in syls] != [X, C, X, C]:
        raise ValueError(
            f"relator {red} does not have free product length four "
            "(x-power, coefficient, x-power, coefficient)")
    l, g, k, h = syls[0][2], syls[1][1], syls[2][2], syls[3][1]
    if l < 0:
        l, k = -l, -k  # substitute x -> x^-1
    if l <= 0 or k == 0:
        raise ValueError("degenerate exponents after reduction")
    return LengthFourInstance(p.coeff, g, h, l, k, syls[0][1])


# ---------------------------------------------------------------------------
# case flags
# ---------------------------------------------------------------------------

# Almost every case and exceptional family holds for (g, h) or for (h, g),
# the swap made by the rotation (l,k,g,h) -> (k,l,h,g).  Such a condition
# is stated once, over a side (a, b): one of the two orderings of g and h.
POWERS = (2, -2, 3, -3, 4)


class Side(NamedTuple):
    power: MappingProxyType  # p -> TriState of a = b^p, for p in POWERS
    oa: OrderResult  # |a|
    ob: OrderResult  # |b|

    def __hash__(self):
        return hash((*self.power.values(), self.oa, self.ob))


def _side(ctx, a: Word, b: Word, oa: OrderResult, ob: OrderResult) -> Side:
    b2 = wmul(b, b)
    b3 = wmul(b2, b)
    words = {2: b2, -2: winv(b2), 3: b3, -3: winv(b3), 4: wmul(b2, b2)}
    return Side(MappingProxyType({p: ctx.equal(a, words[p]) for p in POWERS}),
                oa, ob)


class CaseFlags(NamedTuple):
    values: dict  # name -> TriState, over CASE_NAMES + EXCEPTIONAL_NAMES
    og: OrderResult
    oh: OrderResult
    ogh: OrderResult  # |g h^-1|
    mu: MuValue
    sides: tuple  # Side (g, h), Side (h, g)
    equal: TriState  # g = h
    inverse: TriState  # g = h^-1
    commute: TriState  # g h = h g
    blockers: tuple

    def __getitem__(self, name: str) -> TriState:
        return self.values[name]

    def holding(self) -> tuple:
        return tuple(n for n in (*CASE_NAMES, *EXCEPTIONAL_NAMES)
                     if self.values[n] == YES)

    def either(self, pred) -> TriState:
        """pred(side) for (g, h) or for (h, g)."""
        return tri_or(*map(pred, self.sides))


# every flag but AEJ-E, the one flag that reads l and k
PAIR_NAMES = tuple(n for n in (*CASE_NAMES, *EXCEPTIONAL_NAMES) if n != "AEJ-E")


class Pair(NamedTuple):
    """What the classifier asks the oracle about a normalized pair (g, h)."""
    mu: MuValue  # its orders are |g|, |h|, |g h^-1|
    sides: tuple  # Side (g, h), Side (h, g)
    equal: TriState  # g = h
    inverse: TriState  # g = h^-1
    commute: TriState  # g h = h g
    values: tuple  # TriState of each flag in PAIR_NAMES


def pair_facts(ctx, A: Word, B: Word) -> Pair:
    """The Pair for (g, h) = (A, B), asked once per context.

    `ctx.pairs` keeps it under the key (A, B).  The same dict interns the
    key's words, the flag values and the record, each under itself, so
    that equal ones are stored once (most pairs of a group share a
    record); a word, a pair of words, a tuple of flag values and a Pair
    never compare equal to one another.  Every part of a record is
    immutable, so verdicts may share them.
    """
    pairs = ctx.pairs
    rec = pairs.get((A, B))
    if rec is not None:
        return rec

    def intern(x):
        return pairs.setdefault(x, x)

    m = mu(ctx, A, B)
    og, oh, _ = m.orders
    sides = (_side(ctx, A, B, og, oh), _side(ctx, B, A, oh, og))
    equal = ctx.equal(A, B)
    inverse = ctx.equal(A, winv(B))
    commute = ctx.equal(wmul(A, B), wmul(B, A))

    # each mirrored flag on side (a, b); the flag holds on either side
    halves = []
    for s in sides:
        p, oa, ob = s.power, s.oa, s.ob
        halves.append({
            "J4": tri_and(p[2], order_is(ob, 4)),
            "J6": tri_and(order_is(oa, 2), order_is(ob, 3), commute),
            "K5": tri_and(p[2], order_is(ob, 5)),
            "K6+": tri_and(p[2], order_is(ob, 6)),
            "K6-": tri_and(p[-2], order_is(ob, 6)),
            "L6": tri_and(p[3], order_is(ob, 6)),
            # gp{g,h} = Z2 + Z_n: commuting generators of orders 2 and n,
            # once the subgroup order below is 2n
            "BBP-E4": tri_and(order_is(oa, 2), order_is(ob, 4), commute),
            "BBP-E5": tri_and(order_is(oa, 2), order_is(ob, 5), commute),
            "HM-E": tri_and(p[2], order_in_open_range(ob, 6)),
            "E-E1": tri_and(order_is(ob, 9), order_is(oa, 3), p[3]),
            "E-E2": tri_and(order_is(ob, 9), order_is(oa, 3), p[-3]),
            "E-E3": tri_and(order_is(ob, 8), order_is(oa, 4), p[2]),
            "AAE-E4": tri_and(order_is(ob, 8), p[4]),
            "D-E1": tri_and(p[2], order_in_open_range(ob, 3)),
            "D-E2": tri_and(p[-2], order_in_open_range(ob, 3)),
            "D-E4": tri_and(p[3], order_is(ob, 9)),
        })
    values = {name: tri_or(v, halves[1][name]) for name, v in halves[0].items()}

    # (P): mu > 1 and g != h; a lower bound above 1 already decides it
    p_mu = YES if m.value > 1 else UNKNOWN if m.lower_bound_only else NO
    values.update({
        "P": tri_and(p_mu, tri_not(equal)),
        "Z": tri_and(equal, order_finite(og)),
        "M": tri_and(inverse, order_finite(og)),
        # gp{g,h} = Z2 + Z4 with no constraint tying g, h to each other:
        # an abelian order-8 group on two generators of exponent <= 4
        "AAE-E": tri_and(commute,
                         tri_or(order_is(og, 2), order_is(og, 4)),
                         tri_or(order_is(oh, 2), order_is(oh, 4))),
    })
    sub = None  # |gp{g,h}|, asked once and only if some flag needs it
    for name, n in (("BBP-E4", 8), ("BBP-E5", 10), ("AAE-E", 8)):
        if values[name] != NO:
            if sub is None:
                sub = ctx.subgroup_order([A, B])
            values[name] = tri_and(values[name], order_is(sub, n))
    values = intern(tuple(values[n] for n in PAIR_NAMES))
    rec = pairs[intern(A), intern(B)] = intern(
        Pair(m, sides, equal, inverse, commute, values))
    return rec


def case_flags(inst: LengthFourInstance, cap: int = DEFAULT_CAP) -> CaseFlags:
    """Evaluate every named case and exceptional family for the instance.

    Flags may overlap, and each is tri-state: an order or word-problem
    query that exhausts its budget leaves the flag undecided rather than
    guessed.  Only AEJ-E reads (l, k); every other flag comes from the
    pair's record (`pair_facts`).
    """
    inst = inst.normalized()
    l, k = inst.l, inst.k
    pair = pair_facts(context_for(inst.G, cap), inst.g, inst.h)
    values = dict(zip(PAIR_NAMES, pair.values))
    values["AEJ-E"] = tri_and(values["HM-E"],
                              tri_bool(l < k < 2 * l or k < l < 2 * k))
    blockers = tuple(sorted(n for n, v in values.items() if v == UNKNOWN))
    return CaseFlags(values, *pair.mu.orders, pair.mu, pair.sides, pair.equal,
                     pair.inverse, pair.commute, blockers)


# ---------------------------------------------------------------------------
# the resolved/unresolved table for cases K5, K6+, K6-, L6
# ---------------------------------------------------------------------------

THREE_MANIFOLD = "three-manifold"

# (row key, case) -> order of the defined group over the cyclic core, for
# the resolved cells; every other cell of the four cases is open
CASE_TABLE = {
    ("2,1", "K5"): 165, ("2,1", "K6+"): 378, ("2,1", "K6-"): 342,
    ("2,1", "L6"): 342,
    ("3,1", "K5"): 1100, ("3,1", "L6"): 24530688,
    ("4,1", "K5"): 3775,
    ("3,2", "K5"): 2525,
    ("2,-1", "K5"): 55, ("2,-1", "K6+"): 336, ("2,-1", "K6-"): THREE_MANIFOLD,
    ("2,-1", "L6"): 54,
    ("3,-1", "K5"): 110, ("3,-1", "L6"): 9072,
}


# case -> |G| = |gp{g,h}| at which a table cell's order is the defined
# group's order (the K/L cases need g and h of order 5 or 6)
CASE_ORDERS = {"K5": 5, "K6+": 6, "K6-": 6, "L6": 6}
# (2,-1) obstruction -> (|G| = |gp{g,h}|, order of the defined group)
OBSTRUCTION_ORDERS = {"iii": (18, 27216), "iv": (9, 13608)}

# row key -> (exceptional families the row's theorem leaves open, rule and
# detail of the theorem that covers the rest of the row)
_N1 = ((), "lk-n-1", "exponents ({l},{k}) with no coincidence case: "
       "reducible and aspherical")
ROW_THEOREMS = {
    "2,1": ((), "lk-2-1", "exponents ({l},{k}) with no coincidence case and "
            "no finite square relation: reducible and aspherical"),
    "3,1": _N1, "4,1": _N1, "n,1": _N1,
    "3,2": (("HM-E",), "lk-3-2", "exponents ({l},{k}) with no coincidence "
            "case and no HM-E family: reducible and aspherical"),
    "pos": (("AEJ-E",), "lk-positive", "positive exponents ({l},{k}) with no "
            "coincidence case and no AEJ-E family: reducible and aspherical"),
    "2,-1": (("E-E1", "E-E2"), "lk-2-neg1", "exponents ({l},{k}) with every "
             "obstruction excluded: reducible and aspherical"),
    "3,-1": (("AAE-E", "AAE-E4"), "lk-3-neg1", "exponents ({l},{k}) with no "
             "coincidence case and no exceptional family: reducible and "
             "aspherical"),
}


def row_key(l: int, k: int) -> Optional[str]:
    """Table row for a normalized (l, k) with l >= |k|."""
    if k == 1:
        if l == 2:
            return "2,1"
        if l == 3:
            return "3,1"
        if l == 4:
            return "4,1"
        return "n,1"
    if k > 1:
        return "3,2" if (l, k) == (3, 2) else "pos"
    if k == -1:
        if l == 2:
            return "2,-1"
        if l == 3:
            return "3,-1"
    return None


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class CaseVerdict(NamedTuple):
    dr: TriState
    aspherical: TriState
    justification: str
    detail: str
    conjectural: bool = False
    flags: Optional[CaseFlags] = None
    expected_core_order: Optional[int] = None
    blockers: tuple = ()
    case_hits: tuple = ()

    def summary(self) -> str:
        def word(t):
            return {YES: "yes", NO: "no", UNKNOWN: "unknown"}[t]
        if self.aspherical == YES:
            head = "Aspherical"
        elif self.aspherical == NO:
            head = "NonAspherical"
        else:
            head = "OpenCase (conjectural)" if self.conjectural else "OpenCase"
        return (f"{head}; dr={word(self.dr)}; rule={self.justification}"
                + (f"; |G(Q)|={self.expected_core_order}"
                   if self.expected_core_order else ""))


def _verdict(dr, asp, rule, detail, *, conjectural=False, flags=None,
             expected=None, blockers=(), hits=()):
    return CaseVerdict(dr, asp, rule, detail, conjectural=conjectural,
                       flags=flags, expected_core_order=expected,
                       blockers=tuple(blockers), case_hits=tuple(hits))


def classify(inst: LengthFourInstance, cap: int = DEFAULT_CAP) -> CaseVerdict:
    """Tri-state classification with a fixed precedence of rules.

    Precedence: relator pre-checks (proper power, orientability folded
    into the equal/opposite exponent rules), l = k, l = -k, torsion-free
    coefficients, cases J4/J6, cases Z/M, case P, then the per-family
    theorems with their exceptional carve-outs and the resolved-order
    facts, and otherwise an open verdict.
    """
    norm = inst.normalized()
    ctx = context_for(norm.G, cap)
    A, B = norm.g, norm.h
    l, k = norm.l, norm.k

    for w, name in ((A, "g"), (B, "h")):
        t = ctx.is_trivial_word(w)
        if t == YES:
            raise ValueError(f"{name} = {word_str(w)} is trivial in G; "
                             "the relator does not have length four")
        if t == UNKNOWN:
            return _verdict(UNKNOWN, UNKNOWN, "open-blocked",
                            f"cannot certify {name} nontrivial within budget",
                            blockers=(f"triviality of {word_str(w)}",))

    # ---- l = k: reducible iff g = h or |g^-1 h| infinite; aspherical iff
    # the order is infinite (g = h makes the relator a proper power)
    if k == l:
        pair = pair_facts(ctx, A, B)
        eq = pair.equal
        if eq == YES:
            return _verdict(YES, NO, "relator-proper-power",
                            "relator is (x^l g)^2, a proper power; "
                            "reducible by the equal-exponent rule")
        # g^-1 h is conjugate to (g h^-1)^-1, so |g^-1 h| = |g h^-1|
        ogh_inv = pair.mu.orders[2]
        if eq == UNKNOWN and not ogh_inv.is_infinite:
            return _verdict(UNKNOWN, UNKNOWN, "open-blocked",
                            "g = h undecided within budget",
                            blockers=("equality of g and h",))
        if ogh_inv.is_infinite:
            return _verdict(YES, YES, "equal-exponents",
                            "|g^-1 h| infinite: reducible and aspherical")
        if ogh_inv.is_finite:
            return _verdict(NO, NO, "equal-exponents",
                            f"|g^-1 h| = {ogh_inv.value} finite with g != h: "
                            "neither reducible nor aspherical")
        return _verdict(UNKNOWN, UNKNOWN, "open-blocked",
                        "|g^-1 h| undecided within budget",
                        blockers=("order of g^-1 h",))

    # ---- l = -k: aspherical iff |g| = |h| = infinity
    if k == -l:
        og, oh, _ = pair_facts(ctx, A, B).mu.orders
        if og.is_infinite and oh.is_infinite:
            return _verdict(YES, YES, "opposite-exponents",
                            "|g| = |h| = infinity: reducible and aspherical")
        if og.is_finite or oh.is_finite:
            g2 = ctx.is_trivial_word(wmul(A, A))
            h2 = ctx.is_trivial_word(wmul(B, B))
            if g2 == YES and h2 == YES:
                return _verdict(UNKNOWN, NO, "relator-non-orientable",
                                "relator is conjugate to its inverse "
                                "(g^2 = h^2 = 1 with opposite exponents)")
            dr = NO if (g2 == NO or h2 == NO) else UNKNOWN
            return _verdict(dr, NO, "opposite-exponents",
                            "some coefficient has finite order")
        return _verdict(UNKNOWN, UNKNOWN, "open-blocked",
                        "coefficient orders undecided within budget",
                        blockers=("order of g", "order of h"))

    # ---- from here on l != +-k: orientable, no proper power, so
    # reducibility implies asphericity and non-asphericity forces dr = no
    if ctx.is_torsion_free() == YES:
        return _verdict(YES, YES, "torsion-free-coefficients",
                        "torsion-free coefficient group: reducible, "
                        "hence aspherical")

    flags = case_flags(norm, cap)
    hits = flags.holding()
    blockers = list(flags.blockers)

    def open_blocked(what):
        return _verdict(UNKNOWN, UNKNOWN, "open-blocked", what,
                        flags=flags, blockers=blockers, hits=hits)

    def negative(rule, detail, expected=None):
        return _verdict(NO, NO, rule, detail, flags=flags,
                        expected=expected, hits=hits)

    def positive(rule, detail, dr=YES):
        return _verdict(dr, YES, rule, detail, flags=flags, hits=hits)

    def open_case(rule, detail, conjectural=False, dr=UNKNOWN):
        return _verdict(dr, UNKNOWN, rule, detail, conjectural=conjectural,
                        flags=flags, blockers=blockers, hits=hits)

    # an expected order is sound metadata only when G is exactly gp{g,h},
    # of order `want`; the two queries run only when an order is attached
    def generated_order(want: int, value: int) -> Optional[int]:
        total = ctx.group_order()
        if not (total.is_finite and total.value == want):
            return None
        sub = ctx.subgroup_order([A, B])
        return value if sub.is_finite and sub.value == want else None

    # ---- cases J4 / J6: aspherical exactly when the natural map is an
    # isomorphism, characterised by |l+k| = 1 with l or k divisible
    for case, n in (("J4", 4), ("J6", 6)):
        f = flags[case]
        if f == YES:
            crit = abs(l + k) == 1 and (l % n == 0 or k % n == 0)
            if crit:
                return _verdict(UNKNOWN, YES, f"case-{case}-isomorphism",
                                f"case {case} with |l+k| = 1 and an exponent "
                                f"divisible by {n}: G maps isomorphically "
                                "onto the defined group", flags=flags, hits=hits)
            return negative(f"case-{case}-isomorphism",
                            f"case {case} without the isomorphism criterion "
                            f"(|l+k| = 1 and l or k divisible by {n})")

    # ---- cases Z / M: aspherical only with a zero exponent, which l > 0,
    # k != 0 rules out
    for case in ("Z", "M"):
        if flags[case] == YES:
            return negative(f"case-{case}-isomorphism",
                            f"case {case}: aspherical would force "
                            "|l+k| = 1 with a zero exponent")

    # ---- case P: resolved negatively for the families below, otherwise
    # only conjecturally non-aspherical
    if flags["P"] == YES:
        non_dr = k > 0 or (l, k) in ((2, -1), (3, -1))
        og3 = order_at_least(flags.og, 3)
        oh3 = order_at_least(flags.oh, 3)
        non_weak = (l, k) in ((3, 1), (3, -1)) or \
            (k == -1 and l >= 2 and og3 == YES and oh3 == YES)
        if (l, k) in ((2, 1), (2, -1)) or non_weak:
            return negative("case-P-platonic",
                            "case P: spherical pictures from Platonic "
                            "tessellations; non-aspherical for this family")
        return open_case("case-P-conjecture",
                         "case P outside the families with a proof: "
                         "conjecturally non-aspherical",
                         conjectural=True, dr=NO if non_dr else UNKNOWN)
    if flags["P"] == UNKNOWN:
        blockers.append("case P undecided (order budget)")

    # ---- per-family theorems ------------------------------------------------
    def open_exceptional(name):
        if name == "AEJ-E":  # conjectured aspherical, unlike the others
            return open_case("conjecture-positive-exponents",
                             "exceptional family AEJ-E: conjecturally "
                             "reducible and aspherical, unproven",
                             conjectural=True)
        return open_case(f"open-exceptional-{name}",
                         f"exceptional family {name} at ({l},{k}): "
                         "asphericity unresolved")

    row = row_key(l, k)
    if row is not None:
        for case, want in CASE_ORDERS.items():
            if flags[case] != YES:
                continue
            entry = CASE_TABLE.get((row, case))
            if entry is None:
                return open_case("table-open",
                                 f"case {case} at exponents ({l},{k}) is an "
                                 "unresolved table cell")
            if entry == THREE_MANIFOLD:
                return negative("three-manifold-core",
                                f"case {case}: the defined group is an "
                                "infinite virtual three-manifold group, not "
                                "isomorphic to G; non-aspherical")
            return negative("finite-core-order",
                            f"case {case}: the defined group over the cyclic "
                            f"core is finite of order {entry} > |core|; "
                            "non-aspherical",
                            expected=generated_order(want, entry))
        families, rule, detail = ROW_THEOREMS[row]
        for name in families:
            if flags[name] == YES:
                return open_exceptional(name)
        excluded = families  # flags the row's theorem needs to be NO
        if row == "2,1":
            sq = flags.either(lambda s: tri_and(s.power[2], order_finite(s.ob)))
            if sq == YES:
                return negative("lk-2-1-square",
                                "g = h^2 or h = g^2 with finite order at "
                                "exponents (2,1): non-reducible, "
                                "non-aspherical")
            if sq == UNKNOWN:
                return open_blocked("square condition undecided at (2,1)")
        if row == "2,-1":
            og, oh, commute = flags.og, flags.oh, flags.commute
            comm_word = wmul(A, B, A, B, winv(A), winv(B), winv(A), winv(B))
            sq_any = flags.either(lambda s: s.power[2])
            subcases = {
                "i": flags.either(
                    lambda s: tri_and(s.power[-2], order_finite(s.ob))),
                "ii": tri_and(commute,
                              tri_or(order_is(og, 2), order_is(oh, 2))),
                "iii": tri_and(
                    flags.either(lambda s: tri_and(order_is(s.oa, 2),
                                                   order_is(s.ob, 3))),
                    ctx.is_trivial_word(comm_word)),
                "iv": tri_and(order_is(og, 3), order_is(oh, 3), commute),
                "v": tri_and(order_is(og, 7), order_is(oh, 7), sq_any),
                "vi": tri_and(order_is(og, 9), order_is(oh, 9), sq_any),
            }
            for name, val in subcases.items():
                if val == YES:
                    expected = (generated_order(*OBSTRUCTION_ORDERS[name])
                                if name in OBSTRUCTION_ORDERS else None)
                    return negative(
                        f"lk-2-neg1-{name}",
                        f"exponents (2,-1), obstruction ({name}): finite "
                        "order or torsion witness in the defined group",
                        expected=expected)
            if flags["E-E3"] == YES:
                return negative("lk-2-neg1-E-E3",
                                "exceptional family E-E3 at (2,-1): the "
                                "defined group is finite and too large; "
                                "non-aspherical",
                                expected=generated_order(8, 2361960))
            pending = [n for n, v in subcases.items() if v == UNKNOWN]
            if pending:
                return open_blocked(
                    f"(2,-1) obstructions {', '.join(pending)} undecided")
            excluded = (*families, "E-E3")
        names = (*CASE_NAMES, *excluded)
        hit = [n for n in names if flags[n] == YES]
        if hit:
            raise AssertionError(f"unhandled case hit {hit}")
        undecided = [n for n in names if flags[n] == UNKNOWN]
        if undecided:
            return open_blocked(
                f"cases {', '.join(undecided)} undecided within budget")
        return positive(rule, detail.format(l=l, k=k))

    # ---- k < 0 families beyond (2,-1), (3,-1) -----------------------------
    if k == -1 and l >= 4:
        if flags["K5"] == YES and l >= 7:
            return positive("lk-K5-large-exponent",
                            f"case K5 with l = {l} >= 7, k = -1: reducible "
                            "and aspherical")
        og3 = order_at_least(flags.og, 3)
        oh3 = order_at_least(flags.oh, 3)
        family_ok = tri_and(og3, oh3,
                            tri_not(flags["D-E1"]), tri_not(flags["D-E2"]),
                            tri_not(flags["D-E4"]),
                            tri_not(flags["P"]), tri_not(flags["Z"]),
                            tri_not(flags["M"]))
        if family_ok == YES:
            return positive("lk-l-neg1",
                            f"exponents ({l},-1), squares of g and h "
                            "nontrivial, no case and no exceptional family: "
                            "reducible and aspherical")
    prish = _spread_exponent_case(flags, l, k)
    if prish == YES:
        return _verdict(UNKNOWN, YES, "spread-exponents",
                        f"exponents ({l},{k}) with l > 2|k| and coefficient "
                        "orders clear of the short relations: aspherical",
                        flags=flags, hits=hits)
    for name in ("D-E1", "D-E2", "D-E4"):
        if flags[name] == YES:
            return open_exceptional(name)
    if blockers:
        return open_blocked("; ".join(dict.fromkeys(blockers)))
    return open_case("open",
                     f"no classification theorem covers exponents ({l},{k}) "
                     "for this instance")


def _spread_exponent_case(flags, l, k) -> TriState:
    """Aspherical families for l > 2|k| (after normalization the case
    |k| > 2l has already been rewritten into this shape)."""
    if not (k < 0 and l > 2 * (-k)):
        return NO
    if flags["Z"] != NO or flags["M"] != NO:
        return UNKNOWN if (flags["Z"] == UNKNOWN or flags["M"] == UNKNOWN) else NO
    # neither g = h^-2 nor h = g^-2, and on some side |b| >= 6, |a| >= 3,
    # a != b^2 and a != b^-3, or else |g|, |h| >= 4
    wide = flags.either(lambda s: tri_and(
        order_at_least(s.ob, 6), order_at_least(s.oa, 3),
        tri_not(s.power[2]), tri_not(s.power[-3])))
    both4 = tri_and(order_at_least(flags.og, 4), order_at_least(flags.oh, 4))
    return tri_and(tri_not(flags.either(lambda s: s.power[-2])),
                   tri_or(wide, both4))


def classify_presentation(p: RelativePresentation, cap: int = DEFAULT_CAP):
    """Classify a one-relator presentation as (instance, description,
    verdict).  A relator the budget cannot reduce to its length-four shape
    gives no instance and an open-blocked verdict instead of an
    UndecidedError; a relator of another shape still raises ValueError."""
    try:
        inst = instance_from_presentation(p, cap)
    except UndecidedError as err:
        verdict = _verdict(UNKNOWN, UNKNOWN, "open-blocked",
                           "relator not reduced within budget",
                           blockers=(str(err),))
        return None, f"<G, {', '.join(p.x_gens)} | {p.relators[0]}>", verdict
    return inst, inst.describe(), classify(inst, cap)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

# Coset budget of the order-vs-G check.  An aspherical defined group that
# is finite has exactly the order of G, and a cap hit proves nothing either
# way, so a larger budget only spends longer to skip the check.
ORDER_VS_G_CAP = 100_000


class VerifyCheck(NamedTuple):
    name: str
    status: str  # 'ok' | 'fatal' | 'skipped'
    detail: str


class VerifyReport(NamedTuple):
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.status != "fatal" for c in self.checks)

    def lines(self) -> list:
        return [f"[{c.status:>7}] {c.name}: {c.detail}" for c in self.checks]


def verify_verdict(inst: Optional[LengthFourInstance], verdict: CaseVerdict,
                   cap: int = DEFAULT_CAP) -> VerifyReport:
    """Cross-check a verdict against coset enumeration.

    aspherical=yes demands that a finite defined group have exactly the
    order of G (the natural map must be injective with every finite
    subgroup conjugate into G); that enumeration stops at
    min(cap, ORDER_VS_G_CAP) cosets.  A finite-order justification for
    aspherical=no must reproduce the claimed order, computed by
    `order_via_cyclic_subgroup` over G's first generator.  `inst` is read
    only for those two claims, so an open verdict may pass None.
    """
    checks = []
    if verdict.aspherical == YES and verdict.dr == NO:
        checks.append(VerifyCheck(
            "internal-consistency", "fatal",
            "aspherical verdicts may not assert non-reducibility"))
    if verdict.aspherical == YES:
        budget = min(cap, ORDER_VS_G_CAP)
        t = enumerate_cosets(inst.lifted(), [], budget)
        if not t.complete:
            checks.append(VerifyCheck(
                "order-vs-G", "skipped",
                f"defined group not enumerated within {budget} cosets"))
        else:
            total = context_for(inst.G, cap).group_order()
            if total.is_finite and t.n == total.value:
                checks.append(VerifyCheck(
                    "order-vs-G", "ok",
                    f"defined group has order {t.n} = |G|"))
            elif total.is_finite:
                checks.append(VerifyCheck(
                    "order-vs-G", "fatal",
                    f"defined group has order {t.n} but |G| = {total.value}; "
                    "contradicts asphericity"))
            elif total.is_infinite:
                checks.append(VerifyCheck(
                    "order-vs-G", "fatal",
                    f"defined group is finite ({t.n}) but G is infinite"))
            else:
                checks.append(VerifyCheck(
                    "order-vs-G", "skipped", "|G| not known within budget"))
    elif verdict.aspherical == NO and verdict.expected_core_order:
        expected = verdict.expected_core_order
        r = order_via_cyclic_subgroup(inst.lifted(),
                                      ((inst.G.generators[0], 1),), cap)
        if r.is_finite and r.value == expected:
            gord = context_for(inst.G, cap).group_order()
            extra = (f"; order differs from |G| = {gord.value}"
                     if gord.is_finite and gord.value != expected else "")
            checks.append(VerifyCheck(
                "claimed-order", "ok",
                f"enumeration reproduces order {expected}{extra}"))
        elif r.is_finite:
            checks.append(VerifyCheck(
                "claimed-order", "fatal",
                f"enumerated order {r.value} != claimed {expected}"))
        else:
            checks.append(VerifyCheck(
                "claimed-order", "skipped",
                f"order not reproduced within {cap} cosets"))
    else:
        checks.append(VerifyCheck(
            "order-checks", "skipped",
            "verdict carries no enumeration-checkable claim"))
    return VerifyReport(tuple(checks))


# ---------------------------------------------------------------------------
# fixture catalog: the resolved table entries as concrete instances
# ---------------------------------------------------------------------------

class Fixture(NamedTuple):
    name: str
    case: str
    n: int  # cyclic coefficient order
    a: int  # g = t^a
    b: int  # h = t^b
    l: int
    k: int
    expected_order: int

    def instance(self) -> LengthFourInstance:
        return LengthFourInstance(cyclic(self.n, "h"), (("h", self.a),),
                                  (("h", self.b),), self.l, self.k)


TABLE1_FIXTURES = (
    Fixture("{2,1} K5", "K5", 5, 2, 1, 2, 1, 165),
    Fixture("{2,1} K6+", "K6+", 6, 2, 1, 2, 1, 378),
    Fixture("{2,1} K6-", "K6-", 6, 4, 1, 2, 1, 342),
    Fixture("{2,1} L6", "L6", 6, 3, 1, 2, 1, 342),
    Fixture("{3,1} K5", "K5", 5, 2, 1, 3, 1, 1100),
    Fixture("{4,1} K5", "K5", 5, 2, 1, 4, 1, 3775),
    Fixture("{3,2} K5", "K5", 5, 2, 1, 3, 2, 2525),
    Fixture("{2,-1} K5", "K5", 5, 2, 1, 2, -1, 55),
    Fixture("{2,-1} K6+", "K6+", 6, 2, 1, 2, -1, 336),
    Fixture("{2,-1} L6", "L6", 6, 3, 1, 2, -1, 54),
    Fixture("{3,-1} K5", "K5", 5, 2, 1, 3, -1, 110),
    Fixture("{3,-1} L6", "L6", 6, 3, 1, 3, -1, 9072),
)

EXTENDED_FIXTURE = Fixture("{3,1} L6 (extended)", "L6", 6, 3, 1, 3, 1, 24530688)


def fixture_order(fix: Fixture, cap: int = DEFAULT_CAP) -> OrderResult:
    """Order of the defined group for a catalog fixture.

    Enumerates over the cyclic coefficient subgroup with the exact order
    multiplier: the abelianized order of the coefficient generator meets
    its power-relator bound on every catalog entry.
    """
    return order_via_cyclic_subgroup(fix.instance().lifted(), (("h", 1),), cap)
