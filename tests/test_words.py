from __future__ import annotations

import hashlib
import random
import re
import signal
import string
import sys

import pytest

from relasph.cli import main as cli_main
from relasph.coset import context_for
from relasph.words import (
    C,
    CoefficientGroup,
    FreeProductWord,
    ParseError,
    RelativePresentation,
    TriState,
    X,
    csyl,
    cyclic,
    cyclically_reduce,
    fpw,
    free_group,
    free_product_length,
    free_reduce,
    invert_letter_form,
    is_orientable,
    is_proper_power,
    letter_form,
    mu,
    parse_presentation,
    parse_word,
    winv,
    wmul,
    xsyl,
)


def test_parse_example_relator():
    p = parse_presentation("group <g | g^4>; x; rel x^4 g x^-3 g^2")
    assert p.coeff.free_factors() == {"g": 4}
    assert p.relators[0].syllables == (
        (X, "x", 4), (C, (("g", 1),)), (X, "x", -3), (C, (("g", 2),)))


def test_parse_minimal_and_raw():
    p = parse_presentation("group <g | g^2>; x; rel x g")
    assert p.relators[0].syllables == ((X, "x", 1), (C, (("g", 1),)))
    raw = parse_presentation("group <g | >; x; rel g x g x")
    # raw form is preserved: reduction is a separate step
    assert raw.relators[0].syllables[0] == (C, (("g", 1),))


def test_parse_multiple_relators_and_gens():
    p = parse_presentation(
        "group <g, h | g^2, h^3>; x y; rel x g y h; rel y^2 g")
    assert p.coeff.generators == ("g", "h")
    assert len(p.coeff.relators) == 2
    assert p.x_gens == ("x", "y")
    assert len(p.relators) == 2


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("group <g | g^4> x; rel x")
    assert err.value.line == 1
    with pytest.raises(ParseError, match="clashes"):
        parse_presentation("group <g | g^2>; g; rel g g")
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("group <g | g^2>; x; rel x q")


# the two table1 examples with non-cyclic coefficients, and grid shapes
_GRAMMAR_TEXTS = (
    "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; rel x^2 g x^-1 h",
    "group <g, h | g^3, h^3, g h g^-1 h^-1>; x; rel x^2 g x^-1 h",
    "group <h | h^12>; x; rel x^6 h^5 x^-6 h^11",
    "group <a, b | a^2, b^4, a b a^-1 b^-1>; x; rel x^3 a b^-1 x^-2 b^2",
)
_MUTATION_CHARS = string.ascii_letters + string.digits + "^-,;<>| \t\n\u00e9\u00b2\u0663"
_WORD_PIECES = ("g", "h", "x", "q", "gh", "_", "g^2", "h^-1", "^", "-", "0",
                "1", "3", "+", " ", "\u00e9", "\u00b2", "\u0663")
_MUTANT_DIGEST = (
    "f22aa8bb429ec95b9c3e3a3782eee849511af867fcabd047134e3491e9fa3c79")


def _no_hang(signum, frame):
    raise TimeoutError("the parser did not return")


def test_presentation_mutants_parse_or_raise_parse_error():
    # one-character insertions and replacements, non-ASCII letters and
    # digits among them: each mutant parses or raises ParseError, and none
    # hangs the tokenizer; the digest pins every parse result and every
    # error's message, line and column
    rng = random.Random(20261018)
    outcomes = set()
    digest = hashlib.sha256()
    previous = signal.signal(signal.SIGALRM, _no_hang)
    signal.alarm(60)
    try:
        for _ in range(2000):
            text = rng.choice(_GRAMMAR_TEXTS)
            i = rng.randrange(len(text))
            cut = i + rng.randrange(2)  # insert before or replace text[i]
            mutant = text[:i] + rng.choice(_MUTATION_CHARS) + text[cut:]
            try:
                got = repr(parse_presentation(mutant))
                outcomes.add("parsed")
            except ParseError as err:
                got = f"{err.msg!r} {err.line} {err.col}"
                outcomes.add("rejected")
            digest.update(got.encode() + b"\n")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert outcomes == {"parsed", "rejected"}
    assert digest.hexdigest() == _MUTANT_DIGEST


def test_parse_word_accepts_the_relator_words():
    # parse_word reads exactly what a relator word of the presentation
    # grammar reads, plus "1" and "" for the identity
    rng = random.Random(5)
    accepted = 0
    for _ in range(1000):
        w = "".join(rng.choice(_WORD_PIECES) for _ in range(rng.randint(1, 5)))
        if w.strip() in ("", "1"):
            assert parse_word(w) == ()
            continue
        try:
            rel = parse_presentation(f"group <g, h | >; x; rel {w}").relators[0]
            want = free_reduce((s[1], s[2]) if s[0] == X else s[1][0]
                               for s in rel.syllables)
        except ParseError:
            want = None
        try:
            got = parse_word(w, ("g", "h", "x"))
        except ValueError:
            got = None
        assert got == want, w
        accepted += got is not None
    assert accepted >= 50


def test_parse_word_identity_is_grammar_whitespace():
    # only the grammar's whitespace [ \t\r\n] surrounds an identity "1";
    # other Unicode whitespace is a character the grammar does not read
    for text in ("\u00a0", "\x0b", "\u20031"):
        with pytest.raises(ValueError, match="expected a word"):
            parse_word(text, ("g",))
    for text in (" 1 ", "\t", "", "\r\n1\t"):
        assert parse_word(text, ("g",)) == ()


def test_exponent_beyond_the_int_digit_limit_is_a_parse_error(
        tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads any number of digits")
    digits = "1" * (limit + 1)
    text = f"group <g | g^{digits}>; x; rel x g"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.msg == f"exponent too long ({limit + 1} digits) in 'g'"
    assert (err.value.line, err.value.col) == (1, len("group <g | g^") + limit + 2)
    with pytest.raises(ValueError) as err:
        parse_word(f"g^-{digits}", ("g",), "--subgroup: ")
    assert str(err.value) == (
        f"--subgroup: exponent too long ({limit + 1} digits) in 'g'")
    f = tmp_path / "p.txt"
    f.write_text(text)
    assert cli_main(["classify", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"error: exponent too long ({limit + 1} digits) in 'g' "
        f"(line 1, column {len('group <g | g^') + limit + 2})\n")
    f.write_text("group <h | h^2>; x; rel x")
    assert cli_main(["order", str(f), "--subgroup", f"h^{digits}"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"error: --subgroup: exponent too long ({limit + 1} digits) in 'h'\n")


# -- a frozen copy of the former reader, the reference for the one below -----

_REF_WS, _REF_ID = r"[ \t\r\n]*", r"([A-Za-z_][A-Za-z0-9_]*)"
_REF_SPACE = re.compile(_REF_WS)
_REF_NAME = re.compile(_REF_WS + _REF_ID + "?")
_REF_TOKEN = re.compile(_REF_WS + "(?:" + _REF_ID + _REF_WS
                        + r"(?:\^" + _REF_WS + "(-?)([0-9]*))?)?")
_REF_EXCERPT = re.compile(r"\s*([^\s,;<>|]*)")


class _RefTokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        text, pos = self.text, self.pos
        raise ParseError(msg, text.count("\n", 0, pos) + 1,
                         pos - text.rfind("\n", 0, pos))

    def peek(self):
        self.pos = pos = _REF_SPACE.match(self.text, self.pos).end()
        return self.text[pos] if pos < len(self.text) else None

    def take_punct(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take_punct(ch):
            self.error(f"expected {ch!r}")

    def take_name(self):
        m = _REF_NAME.match(self.text, self.pos)
        self.pos = m.end()
        return m.group(1)

    def take_names(self):
        names = []
        while (name := self.take_name()) is not None:
            names.append(name)
            self.take_punct(",")
        return names

    def take_keyword(self, kw):
        save = self.pos
        if self.take_name() == kw:
            return True
        self.pos = save
        return False

    def expect_keyword(self, kw):
        if not self.take_keyword(kw):
            self.error(f"expected keyword {kw!r}")

    def take_word(self, known=None):
        text, toks = self.text, []
        while True:
            start = self.pos
            m = _REF_TOKEN.match(text, start)
            self.pos = m.end()
            name, sign, digits = m.groups()
            if name is None:
                break
            if sign is None:
                toks.append((name, 1))
            elif digits and int(digits):
                toks.append((name, -int(digits) if sign else int(digits)))
            else:
                token = _REF_EXCERPT.match(text, start).group(1)
                self.error(f"{'zero' if digits else 'bad'} exponent "
                           f"in {token!r}")
        if not toks:
            self.error("expected a word")
        if known is not None:
            self.check_known(toks, known, "unknown generator")
        return toks

    def check_known(self, toks, known, what):
        for name, _ in toks:
            if name not in known:
                self.error(f"{what} {name!r}")


def _ref_parse_word(text, generators=None, where=""):
    if text.strip() in ("", "1"):
        return ()
    tz = _RefTokenizer(text)
    try:
        toks = tz.take_word(generators)
        if tz.peek() is not None:
            tz.error(f"unexpected {tz.peek()!r} after the word")
    except ParseError as err:
        raise ValueError(where + err.msg) from None
    return free_reduce(toks)


def _ref_parse_presentation(text):
    tz = _RefTokenizer(text)
    tz.expect_keyword("group")
    tz.expect("<")
    gens = tz.take_names()
    if not gens:
        tz.error("coefficient group needs at least one generator")
    tz.expect("|")
    relators = []
    while tz.peek() != ">":
        if tz.peek() is None:
            tz.error("unterminated group presentation")
        relators.append(tuple(tz.take_word()))
        if not tz.take_punct(","):
            break
    tz.expect(">")
    tz.expect(";")
    for rel in relators:
        tz.check_known(rel, gens, "relator uses unknown generator")
    x_gens = tz.take_names()
    if not x_gens:
        tz.error("expected at least one x-generator")
    clash = set(x_gens) & set(gens)
    if clash:
        tz.error(f"x-generator {sorted(clash)[0]!r} clashes with a coefficient generator")
    tz.expect(";")
    known = set(gens) | set(x_gens)
    rel_words = []
    while True:
        tz.expect_keyword("rel")
        syls = [(X, name, exp) if name in x_gens else (C, ((name, exp),))
                for name, exp in tz.take_word(known)]
        rel_words.append(FreeProductWord(tuple(syls)))
        if not tz.take_punct(";"):
            break
    if tz.peek() is not None:
        tz.error("trailing input after final relator")
    coeff = CoefficientGroup(tuple(gens), tuple(relators))
    return RelativePresentation(coeff, tuple(x_gens), tuple(rel_words))


def _outcome(parse, *args):
    try:
        return repr(parse(*args))
    except ParseError as err:
        return ("ParseError", err.msg, err.line, err.col)
    except ValueError as err:
        return ("ValueError", str(err))


def _edit(rng, text, chars):
    """Insert, replace or delete one character of `text`."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + rng.choice(chars) + text[i:]
    if op == 1:
        return text[:i] + rng.choice(chars) + text[i + 1:]
    return text[:i] + text[i + 1:]


def test_reader_matches_the_frozen_former_reader():
    # 10,000 seeded inputs read by both readers give equal results, or
    # errors with equal message, line and column.  Two inputs are left
    # out, because the reader changed them on purpose: a parse_word text
    # that is the identity only up to Unicode whitespace (the former reader
    # took "\u00a0" for it), and exponents of more digits than int() reads
    # (none arises here).
    rng = random.Random(20261020)
    chars = _MUTATION_CHARS + "\r\x0b\u00a0\u2003"
    seen = {"parsed": 0, "rejected": 0, "later line": 0, "word": 0}
    for k in range(8000):
        text = rng.choice(_GRAMMAR_TEXTS)
        for _ in range(1 + k % 2):
            text = _edit(rng, text, chars)
        if k % 4 == 3:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)
                text = text[:i] + "\n" + text[i:]
        want = _outcome(_ref_parse_presentation, text)
        assert _outcome(parse_presentation, text) == want, text
        if isinstance(want, str):
            seen["parsed"] += 1
        else:
            seen["rejected"] += 1
            seen["later line"] += want[2] > 1
    pieces = _WORD_PIECES + ("\t", "\n", ",", ";", "\u00a0", "\x0b")
    for _ in range(2000):
        w = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 5)))
        if (w.strip() in ("", "1")) != (w.strip(" \t\r\n") in ("", "1")):
            continue
        for gens in (None, ("g", "h", "x")):
            want = _outcome(_ref_parse_word, w, gens, "w: ")
            assert _outcome(parse_word, w, gens, "w: ") == want, w
            seen["word"] += 1
    assert min(seen.values()) >= 500, seen


def test_cyclic_reduction_examples():
    # x^2 g x^-1 h stays put
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", -1), csyl((("h", 1),)))
    assert cyclically_reduce(w) == w
    # total collapse to a coefficient
    w2 = fpw(csyl((("g", 1),)), xsyl("x", 1), csyl((("h", 1),)),
             xsyl("x", -1), csyl((("g", -1),)))
    assert cyclically_reduce(w2).syllables == ((C, (("h", 1),)),)
    # coefficients normalised mod the group: g^3 = g^-1 in Z4 is nontrivial
    ctx = context_for(cyclic(4), 100)
    w3 = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", -1), csyl((("g", 3),)))
    assert cyclically_reduce(w3, ctx) == w3


def test_cyclic_reduction_idempotent_smoke():
    w = fpw(xsyl("x", 1), csyl((("g", 2),)), xsyl("x", -1))
    once = cyclically_reduce(w)
    assert cyclically_reduce(once) == once


def test_free_product_length():
    w = cyclically_reduce(
        fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 1), csyl((("h", 1),))))
    assert free_product_length(w) == 4
    assert free_product_length(fpw()) == 0
    assert free_product_length(fpw(xsyl("x", 3), csyl((("g", 1),)))) == 2


def test_proper_powers():
    sq = cyclically_reduce(
        fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 2), csyl((("g", 1),))))
    root, e = is_proper_power(sq)
    assert e == 2 and free_product_length(root) == 2
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", -1), csyl((("h", 1),)))
    assert is_proper_power(w) is None
    cube = cyclically_reduce(FreeProductWord(
        (xsyl("x", 1), csyl((("g", 1),)), xsyl("x", 1), csyl((("h", 1),))) * 3))
    root, e = is_proper_power(cube)
    assert e == 3
    assert is_proper_power(fpw(xsyl("x", 4))) == (fpw(xsyl("x", 1)), 4)


def test_proper_power_with_group_identities():
    # x^2 g x^2 g^3 over Z4 is (x^2 g)^2 because g^3 = g^-1... only when the
    # coefficients agree in the group; g vs g^3 differ, so not a power there
    ctx = context_for(cyclic(4), 100)
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 2), csyl((("g", 5),)))
    root, e = is_proper_power(cyclically_reduce(w, ctx), ctx)
    assert e == 2
    w2 = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 2), csyl((("g", 3),)))
    assert is_proper_power(cyclically_reduce(w2, ctx), ctx) is None


def test_orientability():
    one = RelativePresentation(
        free_group("g", "h"), ("x",),
        (fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", -1), csyl((("h", 1),))),))
    assert is_orientable(one).status == TriState.YES
    in_g = RelativePresentation(cyclic(4), ("x",), (fpw(csyl((("g", 1),))),))
    res = is_orientable(in_g)
    assert res.status == TriState.NO and "coefficient" in res.witness
    pair = RelativePresentation(
        free_group("g"), ("x",),
        (fpw(xsyl("x", 1), csyl((("g", 1),))),
         fpw(csyl((("g", -1),)), xsyl("x", -1))))
    res = is_orientable(pair)
    assert res.status == TriState.NO and "inverse" in res.witness


def test_orientable_self_inverse_conjugate():
    # x^l g x^-l h with g^2 = h^2 = 1 is conjugate to its own inverse
    G = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 2),),
                                      (("a", 1), ("b", 1), ("a", -1), ("b", -1))))
    ctx = context_for(G, 100)
    w = fpw(xsyl("x", 2), csyl((("a", 1),)), xsyl("x", -2), csyl((("b", 1),)))
    res = is_orientable(RelativePresentation(G, ("x",), (w,)), ctx)
    assert res.status == TriState.NO


def test_mu_values():
    # orders (2,3,6) and (3,3,3) give exactly 1
    G = CoefficientGroup(("g", "h"), ((("g", 2),), (("h", 3),),
                                      (("g", 1), ("h", 1)) * 2 + (("g", -1), ("h", -1)) * 2))
    ctx = context_for(G, 10 ** 4)
    m = mu(ctx, (("g", 1),), (("h", 1),))
    assert m.value == 1 and not m.lower_bound_only
    G33 = CoefficientGroup(("g", "h"), ((("g", 3),), (("h", 3),),
                                        (("g", 1), ("h", 1), ("g", -1), ("h", -1))))
    ctx = context_for(G33, 10 ** 4)
    m = mu(ctx, (("g", 1),), (("h", 1),))
    assert m.value == 1
    # orders (2, 3, 5) give 31/30: take the (2,3,5) rotation group with
    # g = a, h = b^-1, so that g h^-1 = a b has order five
    A5 = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 3),),
                                       (("a", 1), ("b", 1)) * 5))
    ctx = context_for(A5, 10 ** 4)
    m = mu(ctx, (("a", 1),), (("b", -1),))
    from fractions import Fraction
    assert m.value == Fraction(31, 30) and not m.lower_bound_only


def test_mu_infinite_is_lower_bound_free():
    ctx = context_for(free_group("g"), 100)
    m = mu(ctx, (("g", 1),), (("g", 2),))
    assert m.value == 0 and not m.lower_bound_only


def test_mu_symmetric_under_swap():
    # swapping g and h inverts g h^-1, which has the same order
    for n, a, b in ((12, 3, 4), (30, 6, 10), (8, 2, 3)):
        ctx = context_for(cyclic(n, "t"), 10 ** 4)
        m1 = mu(ctx, (("t", a),), (("t", b),))
        m2 = mu(ctx, (("t", b),), (("t", a),))
        assert m1.value == m2.value


def test_mu_enumerator_matches_gcd_arithmetic():
    from math import gcd
    for n in (4, 6, 9, 12):
        G = cyclic(n, "t")
        pres_ctx = context_for(G, 10 ** 4)
        for a in range(1, n):
            got = pres_ctx.element_order((("t", a),))
            assert got.is_finite and got.value == n // gcd(n, a)


def _random_word(rng, letters=("x",), coeffs=("g", "h"), max_syl=8):
    syls = []
    for _ in range(rng.randrange(1, max_syl + 1)):
        if rng.random() < 0.5:
            syls.append(xsyl(rng.choice(letters), rng.choice((-3, -2, -1, 1, 2, 3))))
        else:
            word = tuple((rng.choice(coeffs), rng.choice((-2, -1, 1, 2)))
                         for _ in range(rng.randrange(1, 3)))
            syls.append(csyl(free_reduce(word)))
    return FreeProductWord(tuple(syls))


def test_reduction_and_power_roundtrip_on_random_words():
    """Idempotence of cyclic reduction and the proper-power identities over
    1000 random words (free coefficient semantics)."""
    rng = random.Random(20240817)
    for i in range(1000):
        w = _random_word(rng)
        red = cyclically_reduce(w)
        assert cyclically_reduce(red) == red
        n = free_product_length(red)
        if n and any(s[0] == X for s in red.syllables):
            lf = letter_form(red)
            # length is invariant under rotation of the cyclic word
            for r in range(1, len(lf)):
                rotated = lf[r:] + lf[:r]
                from relasph.words import from_letter_form
                assert free_product_length(
                    cyclically_reduce(from_letter_form(rotated))) == len(
                        cyclically_reduce(from_letter_form(rotated)).syllables)
        pp = is_proper_power(red)
        if pp is not None:
            root, e = pp
            assert e >= 2
            if free_product_length(root) >= 2:
                # a pure power of one letter stays a single syllable, so the
                # length identity only applies to longer roots
                assert free_product_length(red) == e * free_product_length(root)
            spliced = FreeProductWord(root.syllables * e)
            assert cyclically_reduce(spliced) == cyclically_reduce(red)
        # power round trip: red^3 must report a power with exponent
        # divisible by 3
        if n >= 1:
            cubed = cyclically_reduce(FreeProductWord(red.syllables * 3))
            pp3 = is_proper_power(cubed)
            if free_product_length(cubed) == 3 * n and pp3 is not None:
                assert pp3[1] % 3 == 0 or pp3[1] >= 2


def _fpw_invert(w):
    """The inverse of a free product word, syllable by syllable (a frozen
    copy of the former library function, kept as this test's reference)."""
    out = []
    for s in reversed(w.syllables):
        if s[0] == X:
            out.append((X, s[1], -s[2]))
        else:
            out.append((C, winv(s[1])))
    return FreeProductWord(tuple(out))


def test_inverse_letter_form_consistency():
    rng = random.Random(7)
    for _ in range(200):
        w = cyclically_reduce(_random_word(rng))
        if not any(s[0] == X for s in w.syllables) or not w.syllables:
            continue
        lf = letter_form(w)
        inv = invert_letter_form(lf)
        direct = letter_form(cyclically_reduce(_fpw_invert(w)))
        from relasph.words import cyclic_letters_conjugate
        assert cyclic_letters_conjugate(inv, direct) == TriState.YES
