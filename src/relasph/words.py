"""Word algebra for coefficient groups and free products G * F(x).

Everything here is purely syntactic except where a coefficient-group
triviality test is required; those operations accept an oracle object
(see `relasph.coset.GroupContext`) and never guess: if the oracle cannot
decide a query within its budget, an `UndecidedError` is raised.

Words over a coefficient group are stored as freely reduced syllable
tuples ``((gen, exp), ...)``.  Elements of the free product are stored as
`FreeProductWord` values whose syllables alternate between coefficient
words and x-generator powers.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterable, NamedTuple, Optional


class TriState(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    # members are singletons, so identity is equality; Enum's own hash
    # hashes the name in Python, which interning flag tuples would pay for
    __hash__ = object.__hash__

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("TriState is not a boolean; compare explicitly")


class UndecidedError(Exception):
    """A word-problem query exceeded the oracle budget."""


class Validated:
    """Mixin for a NamedTuple subclass whose `__new__` normalises or
    validates its fields: NamedTuple's `_make`, and `_replace` through it,
    build the record with that `__new__` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class OrderResult(NamedTuple):
    """Outcome of an order computation.

    ``finite`` results are exact.  ``unknown`` means the enumeration budget
    was exhausted: the order may be infinite or just out of reach, never a
    guess.  ``infinite`` is only produced by backends that can prove it
    (free-product normal forms), never by coset enumeration.
    """

    kind: str  # 'finite' | 'infinite' | 'unknown'
    value: int = 0
    cap: int = 0

    @staticmethod
    def finite(n: int) -> "OrderResult":
        return OrderResult("finite", value=n)

    @staticmethod
    def exceeds(cap: int) -> "OrderResult":
        return OrderResult("unknown", cap=cap)

    @staticmethod
    def infinite() -> "OrderResult":
        return OrderResult("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self):
        if self.kind == "finite":
            return f"Finite({self.value})"
        if self.kind == "infinite":
            return "Infinite"
        return f"ExceedsBudget({self.cap})"


# ---------------------------------------------------------------------------
# coefficient-group words
# ---------------------------------------------------------------------------

# a coefficient-group element is a freely reduced word over the group's
# generators: tuple[tuple[str, int], ...]
Word = tuple


def free_reduce(syllables: Iterable[tuple]) -> Word:
    out = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def wmul(*words: Word) -> Word:
    merged = []
    for w in words:
        merged.extend(w)
    return free_reduce(merged)


def winv(w: Word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(w))


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w)


# ---------------------------------------------------------------------------
# coefficient groups
# ---------------------------------------------------------------------------

class _CoefficientGroup(NamedTuple):
    generators: tuple
    relators: tuple


class CoefficientGroup(Validated, _CoefficientGroup):
    """A finitely presented coefficient group.

    Relators are stored freely and cyclically reduced (reduction here is
    syntactic; it does not use group identities).
    """

    __slots__ = ()

    def __new__(cls, generators, relators):
        rels = (cyclic_word_reduce(free_reduce(r)) for r in relators)
        return tuple.__new__(cls, (tuple(generators),
                                   tuple(r for r in rels if r)))

    def free_factors(self) -> Optional[dict]:
        """Map generator -> modulus when this group is visibly a free
        product of cyclic groups (modulus None for an infinite factor),
        or None when the relators do not have that shape."""
        moduli = {g: None for g in self.generators}
        for rel in self.relators:
            gens_in = {g for g, _ in rel}
            if len(gens_in) != 1:
                return None
            if len(rel) != 1:
                return None
            g, e = rel[0]
            m = moduli[g]
            moduli[g] = abs(e) if m is None else gcd(m, abs(e))
        return moduli


def cyclic_word_reduce(w: Word) -> Word:
    """Cyclically reduce a freely reduced one-group word."""
    w = free_reduce(w)
    while len(w) >= 2 and w[0][0] == w[-1][0]:
        merged = (w[0][0], w[0][1] + w[-1][1])
        body = w[1:-1]
        w = free_reduce(((merged,) if merged[1] else ()) + body)
    return w


def cyclic(n: int, gen: str = "g") -> CoefficientGroup:
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    return CoefficientGroup((gen,), (((gen, n),),))


def free_group(*gens: str) -> CoefficientGroup:
    return CoefficientGroup(tuple(gens), ())


# ---------------------------------------------------------------------------
# free product words
# ---------------------------------------------------------------------------

X = "x"  # syllable tags
C = "c"


class FreeProductWord(NamedTuple):
    """A word in G * F(x): syllables are ('x', letter, exp) or ('c', word).

    Raw parser output may violate alternation; `reduce` and
    `cyclically_reduce` normalise it.
    """

    syllables: tuple

    def __str__(self):
        parts = []
        for s in self.syllables:
            if s[0] == X:
                parts.append(s[1] if s[2] == 1 else f"{s[1]}^{s[2]}")
            else:
                parts.append(word_str(s[1]))
        return " ".join(parts) if parts else "1"


def xsyl(letter: str, exp: int) -> tuple:
    return (X, letter, exp)


def csyl(word: Word) -> tuple:
    return (C, free_reduce(word))


def fpw(*syllables) -> FreeProductWord:
    return FreeProductWord(tuple(syllables))


def _coeff_trivial(w: Word, ctx) -> bool:
    """Triviality of a coefficient word in G; without an oracle only the
    empty word is trivial."""
    if ctx is None:
        return not w
    t = ctx.is_trivial_word(w)
    if t == TriState.UNKNOWN:
        raise UndecidedError(f"cannot decide triviality of {word_str(w)}")
    return t == TriState.YES


def reduce_fpw(w: FreeProductWord, ctx=None) -> FreeProductWord:
    """Freely reduce in G * F, deleting coefficient syllables trivial in G."""
    out = []
    for syl in w.syllables:
        s = syl
        while s is not None:
            if s[0] == X:
                if s[2] == 0:
                    s = None
                elif out and out[-1][0] == X and out[-1][1] == s[1]:
                    top = out.pop()
                    s = (X, s[1], top[2] + s[2])
                else:
                    out.append(s)
                    s = None
            else:
                if _coeff_trivial(s[1], ctx):
                    s = None
                elif out and out[-1][0] == C:
                    top = out.pop()
                    s = (C, wmul(top[1], s[1]))
                else:
                    out.append(s)
                    s = None
    return FreeProductWord(tuple(out))


def cyclically_reduce(w: FreeProductWord, ctx=None) -> FreeProductWord:
    """Cyclically reduce `w` in G * F.

    The result is a cyclic conjugate of the input, rotated (when x-letters
    survive) so that it starts with an x-syllable.  Coefficient triviality
    is decided by `ctx`.
    """
    syls = reduce_fpw(w, ctx).syllables
    # rotate the final syllable to the front while it merges with the
    # first: two coefficient syllables, or two x-syllables of one letter
    while len(syls) >= 2 and syls[0][0] == syls[-1][0] and (
            syls[0][0] == C or syls[0][1] == syls[-1][1]):
        syls = reduce_fpw(FreeProductWord(syls[-1:] + syls[:-1]), ctx).syllables
    for i, s in enumerate(syls):
        if s[0] == X:
            return FreeProductWord(syls[i:] + syls[:i])
    return FreeProductWord(syls)


def free_product_length(w: FreeProductWord) -> int:
    return len(w.syllables)


def letter_form(w: FreeProductWord) -> list:
    """Expand a cyclically reduced word into single x-letters.

    Returns [(letter, sign, coeff_word), ...] where each entry is one
    x-letter occurrence followed by the coefficient (possibly empty) that
    separates it from the next letter, read cyclically.
    """
    letters = []
    syls = w.syllables
    if not syls:
        return letters
    if not any(s[0] == X for s in syls):
        raise ValueError("word has no x-letters")
    if syls[0][0] != X:
        raise ValueError("expected cyclically reduced word starting with an x-syllable")
    pending = None
    for s in syls:
        if s[0] == X:
            sign = 1 if s[2] > 0 else -1
            for _ in range(abs(s[2])):
                if pending is not None:
                    letters.append(pending)
                pending = [s[1], sign, ()]
        else:
            pending[2] = s[1]
    letters.append(pending)
    return [tuple(e) for e in letters]


def from_letter_form(letters) -> FreeProductWord:
    syls = []
    for letter, sign, coeff in letters:
        syls.append((X, letter, sign))
        if coeff:
            syls.append((C, tuple(coeff)))
    return reduce_fpw(FreeProductWord(tuple(syls)))


def invert_letter_form(letters) -> list:
    """Letter form of the inverse word, rotated to start with an x-letter."""
    n = len(letters)
    out = []
    for j in range(n):
        i = (n - 1 - j) % n
        prev = (i - 1) % n
        out.append((letters[i][0], -letters[i][1], winv(letters[prev][2])))
    return out


def rotate_letters(letters, i: int) -> list:
    return letters[i:] + letters[:i]


def letters_equal(a, b, ctx=None) -> TriState:
    """Equality of two letter-form words, coefficients compared in G (in
    the free group when `ctx` is None)."""
    if len(a) != len(b):
        return TriState.NO
    verdict = TriState.YES
    for (l1, s1, c1), (l2, s2, c2) in zip(a, b):
        if l1 != l2 or s1 != s2:
            return TriState.NO
        if c1 == c2:
            continue
        if ctx is None:
            same = free_reduce(c1) == free_reduce(c2)
            eq = TriState.YES if same else TriState.NO
        else:
            eq = ctx.equal(c1, c2)
        if eq == TriState.NO:
            return TriState.NO
        if eq == TriState.UNKNOWN:
            verdict = TriState.UNKNOWN
    return verdict


def is_proper_power(w: FreeProductWord, ctx=None):
    """Maximal proper-power decomposition of a cyclically reduced word.

    Returns (root, exponent) with exponent >= 2, or None.  Coefficient
    comparisons go through `ctx`.  Purely coefficient words are never
    reported (relators of interest always contain x-letters).
    """
    syls = w.syllables
    if len(syls) == 1 and syls[0][0] == X and abs(syls[0][2]) >= 2:
        letter, exp = syls[0][1], syls[0][2]
        sign = 1 if exp > 0 else -1
        return FreeProductWord(((X, letter, sign),)), abs(exp)
    if not any(s[0] == X for s in syls):
        return None
    letters = letter_form(w)
    n = len(letters)
    for d in range(1, n):
        if n % d:
            continue
        e = n // d
        if e < 2:
            continue
        if letters_equal(letters, rotate_letters(letters, d), ctx) == TriState.YES:
            return from_letter_form(letters[:d]), e
    return None


def cyclic_letters_conjugate(a, b, ctx=None) -> TriState:
    """Conjugacy in G * F of two cyclically reduced letter-form words."""
    if len(a) != len(b):
        return TriState.NO
    saw_unknown = False
    for i in range(len(a)):
        eq = letters_equal(a, rotate_letters(b, i), ctx)
        if eq == TriState.YES:
            return TriState.YES
        if eq == TriState.UNKNOWN:
            saw_unknown = True
    return TriState.UNKNOWN if saw_unknown else TriState.NO


# ---------------------------------------------------------------------------
# relative presentations
# ---------------------------------------------------------------------------

class _RelativePresentation(NamedTuple):
    coeff: CoefficientGroup
    x_gens: tuple
    relators: tuple  # FreeProductWord, raw or reduced


class RelativePresentation(Validated, _RelativePresentation):
    __slots__ = ()

    def __new__(cls, coeff, x_gens, relators):
        clash = set(x_gens) & set(coeff.generators)
        if clash:
            raise ValueError(f"x-generators clash with coefficient generators: {sorted(clash)}")
        for r in relators:
            for s in r.syllables:
                if s[0] == X and s[1] not in x_gens:
                    raise ValueError(f"unknown x-generator {s[1]!r} in relator")
        return tuple.__new__(cls, (coeff, x_gens, relators))


class OrientabilityResult(NamedTuple):
    status: TriState
    witness: str = ""


def is_orientable(p: RelativePresentation, ctx=None) -> OrientabilityResult:
    """Check the two relator conditions that orientability requires.

    Fails when a relator is conjugate in G * F into G, or when two
    relators (or a relator and an inverse, including a relator and its own
    inverse) are conjugate.  Conjugacy is decided by cyclic rotation of
    syllables with coefficient equality delegated to `ctx`.
    """
    reduced = [cyclically_reduce(r, ctx) for r in p.relators]
    for i, r in enumerate(reduced):
        if not any(s[0] == X for s in r.syllables):
            return OrientabilityResult(
                TriState.NO, f"relator {i} is conjugate to a coefficient-group element")
    lforms = [letter_form(r) for r in reduced]
    inv_lforms = [invert_letter_form(lf) for lf in lforms]
    saw_unknown = False
    for i in range(len(lforms)):
        for j in range(i, len(lforms)):
            if i != j:
                c = cyclic_letters_conjugate(lforms[i], lforms[j], ctx)
                if c == TriState.YES:
                    return OrientabilityResult(
                        TriState.NO, f"relators {i} and {j} are conjugate")
                saw_unknown |= c == TriState.UNKNOWN
            c = cyclic_letters_conjugate(lforms[i], inv_lforms[j], ctx)
            if c == TriState.YES:
                return OrientabilityResult(
                    TriState.NO,
                    f"relator {i} is conjugate to the inverse of relator {j}")
            saw_unknown |= c == TriState.UNKNOWN
    if saw_unknown:
        return OrientabilityResult(TriState.UNKNOWN, "coefficient comparisons undecided")
    return OrientabilityResult(TriState.YES)


# ---------------------------------------------------------------------------
# mu
# ---------------------------------------------------------------------------

class MuValue(NamedTuple):
    value: Fraction
    lower_bound_only: bool
    orders: tuple  # OrderResult for |g|, |h|, |g h^-1|


def mu(ctx, g: Word, h: Word) -> MuValue:
    """1/|g| + 1/|h| + 1/|g h^-1| with 1/infinity = 0.

    When any order query exhausts its budget the value is only a lower
    bound (an unknown order might be finite), and the result is flagged.
    """
    orders = (ctx.element_order(g), ctx.element_order(h),
              ctx.element_order(wmul(g, winv(h))))
    num, den = 0, 1
    lower_only = False
    for o in orders:
        if o.is_finite:
            num, den = num * o.value + den, den * o.value
        elif o.is_unknown:
            lower_only = True
    return MuValue(Fraction(num, den), lower_only, orders)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.msg = msg
        self.line = line
        self.col = col


# The grammar is ASCII: a name is [A-Za-z_][A-Za-z0-9_]*, an exponent
# -?[0-9]+ and whitespace [ \t\r\n]; the classes are spelled out because
# \s, \w and \d match Unicode.  A text is tokenized once, by `findall`: a
# token is a name, an exponent ("^", whitespace, -?[0-9]*: a bad exponent
# is one token too) or one other character, and whitespace is skipped.
# Line and column are worked out only for an error, by reading the text
# again up to the token it names.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\^[ \t\r\n]*-?[0-9]*|[^ \t\r\n]")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")
_END = " "  # ends every token list; no token is whitespace, so none equals it
# a token as quoted in an error message: up to whitespace or punctuation
_EXCERPT = re.compile(r"[^\s,;<>|]*")


def _token_at(text: str, i: int):
    """Token i of `text` as a match, or None past the last token."""
    return next(islice(_TOKEN.finditer(text), i, None), None)


def _error(text: str, msg: str, i: int, end: bool = False) -> ParseError:
    """The ParseError for `msg` at the start of token i of `text`, or with
    `end` just after it; past the last token, at the end of the text."""
    m = _token_at(text, i)
    pos = len(text) if m is None else m.end() if end else m.start()
    return ParseError(msg, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _names(toks: list, i: int):
    """Names separated by commas or whitespace from token i, and the index
    of the token that ends them."""
    names = []
    while toks[i][0] in _NAME_START:
        names.append(toks[i])
        i += 1
        if toks[i] == ",":
            i += 1
    return names, i


def _word(text: str, toks: list, i: int):
    """One or more tokens ``name`` or ``name^exp`` from token i as a list of
    (name, exp), the exponent a non-zero integer, and the index of the
    token after them."""
    word = []
    while (name := toks[i])[0] in _NAME_START:
        exp = toks[i + 1]
        if exp[0] != "^":
            word.append((name, 1))
            i += 1
            continue
        try:
            e = int(exp[1:])
        except ValueError:  # no digits, or more than int() reads
            e = None
        if not e:
            token = _EXCERPT.match(text, _token_at(text, i).start()).group()
            if e == 0:
                msg = f"zero exponent in {token!r}"
            elif exp[-1].isdigit():
                digits = sum(c.isdigit() for c in exp)
                msg = f"exponent too long ({digits} digits) in {name!r}"
            else:
                msg = f"bad exponent in {token!r}"
            raise _error(text, msg, i + 1, end=True)
        word.append((name, e))
        i += 2
    if not word:
        raise _error(text, "expected a word", i)
    return word, i


def _check_known(text: str, word, known, what: str, i: int, end=False):
    for name, _ in word:
        if name not in known:
            raise _error(text, f"{what} {name!r}", i, end)


def parse_word(text: str, generators=None, where: str = "") -> Word:
    """Parse a coefficient word: the presentation grammar's relator word
    (whitespace-separated ``name`` or ``name^int`` tokens), or ``1`` (or
    nothing, up to the grammar's whitespace) for the identity.  With
    `generators`, every name must be one of them.

    The word comes back freely reduced.  Errors are ValueErrors carrying
    no position, their message prefixed with `where`.
    """
    if text.strip(" \t\r\n") in ("", "1"):
        return ()
    toks = _TOKEN.findall(text) + [_END]
    try:
        word, i = _word(text, toks, 0)
        if generators is not None:
            _check_known(text, word, generators, "unknown generator", i)
        if toks[i] is not _END:
            raise _error(text, f"unexpected {toks[i][0]!r} after the word", i)
    except ParseError as err:
        raise ValueError(where + err.msg) from None
    return free_reduce(word)


def parse_presentation(text: str) -> RelativePresentation:
    """Parse the presentation grammar.

    ``group <gens | relators>; <x-gens>; rel <word> [; rel <word>]*``

    Generators are comma- or space-separated names; relator words are
    whitespace-separated tokens ``name`` or ``name^int`` with commas
    between relators.  Relative relators come back raw: reduction is a
    separate step.
    """
    toks = _TOKEN.findall(text) + [_END]
    if toks[0] != "group":
        raise ParseError("expected keyword 'group'", 1, 1)
    if toks[1] != "<":
        raise _error(text, "expected '<'", 1)
    gens, i = _names(toks, 2)
    if not gens:
        raise _error(text, "coefficient group needs at least one generator", i)
    if toks[i] != "|":
        raise _error(text, "expected '|'", i)
    i += 1
    relators = []
    while toks[i] != ">":
        if toks[i] is _END:
            raise _error(text, "unterminated group presentation", i)
        word, i = _word(text, toks, i)
        relators.append(word)
        if toks[i] != ",":
            break
        i += 1
    if toks[i] != ">":
        raise _error(text, "expected '>'", i)
    i += 1
    if toks[i] != ";":
        raise _error(text, "expected ';'", i)
    for rel in relators:
        _check_known(text, rel, gens, "relator uses unknown generator", i,
                     end=True)
    x_gens, i = _names(toks, i + 1)
    if not x_gens:
        raise _error(text, "expected at least one x-generator", i)
    clash = set(x_gens) & set(gens)
    if clash:
        raise _error(text, f"x-generator {sorted(clash)[0]!r} clashes with a coefficient generator", i)
    if toks[i] != ";":
        raise _error(text, "expected ';'", i)
    known = set(gens) | set(x_gens)
    rel_words = []
    while True:
        i += 1
        if toks[i] != "rel":
            raise _error(text, "expected keyword 'rel'", i - 1, end=True)
        word, i = _word(text, toks, i + 1)
        _check_known(text, word, known, "unknown generator", i)
        rel_words.append(FreeProductWord(tuple(
            (X, name, e) if name in x_gens else (C, ((name, e),))
            for name, e in word)))
        if toks[i] != ";":
            break
    if toks[i] is not _END:
        raise _error(text, "trailing input after final relator", i)
    coeff = CoefficientGroup(tuple(gens), tuple(relators))
    return RelativePresentation(coeff, tuple(x_gens), tuple(rel_words))
