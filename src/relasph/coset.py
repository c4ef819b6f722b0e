"""Todd-Coxeter coset enumeration and the word-problem oracle.

This is the single oracle behind every finite-group claim in the package:
group orders, element orders, equality of words, subgroup indices.  The
enumerator follows the HLT (relator-based) strategy with lookahead and
compaction as the default, with a Felsch (deduction-based) strategy
available for cross-checking; both must produce the same index.

Determinism: HLT processes cosets in increasing order, relators in input
order, then fills generator columns in increasing column order; on table
overflow it performs one lookahead pass (all relators at all live cosets,
in order) followed by compaction, which renumbers live cosets preserving
their relative order.  Felsch defines the first undefined entry of the
lowest live coset and drains its deduction stack LIFO.  Budget exhaustion
is a value (`status == "budget"`), never an error.

References: Holt, Eick, O'Brien, "Handbook of Computational Group
Theory", chapter 5.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .words import (
    CoefficientGroup,
    OrderResult,
    RelativePresentation,
    TriState,
    Word,
    X,
    cyclic_word_reduce,
    free_reduce,
    winv,
    wmul,
)

DEFAULT_CAP = 10_000_000
_INT = array("i").itemsize
# coset numbers run up to cap + 1 and must fit the table's signed C ints
MAX_CAP = (1 << (8 * _INT - 1)) - 2

# rows of the first allocation; _grow doubles it in place, by 2^21 rows at most
_CHUNK = 1 << 10


@dataclass(frozen=True)
class LiftedPresentation:
    """Ordinary presentation on coefficient generators plus x-generators.

    Relative relators are flattened into plain words; the presented group
    is isomorphic to the group defined by the relative presentation.
    """

    generators: tuple
    relators: tuple  # Word tuples

    def __post_init__(self):
        object.__setattr__(self, "relators",
                           tuple(free_reduce(r) for r in self.relators))


def lift(p: RelativePresentation) -> LiftedPresentation:
    gens = tuple(p.coeff.generators) + tuple(p.x_gens)
    rels = list(p.coeff.relators)
    for r in p.relators:
        flat = []
        for s in r.syllables:
            if s[0] == X:
                flat.append((s[1], s[2]))
            else:
                flat.extend(s[1])
        rels.append(free_reduce(flat))
    return LiftedPresentation(gens, tuple(rels))


def ordinary(G: CoefficientGroup) -> LiftedPresentation:
    return LiftedPresentation(tuple(G.generators), tuple(G.relators))


def _word_cols(w: Word, gen_index: dict) -> tuple:
    cols = []
    for g, e in w:
        c = 2 * gen_index[g]
        if e < 0:
            cols.extend([c + 1] * (-e))
        else:
            cols.extend([c] * e)
    return tuple(cols)


class CosetTable:
    """A completed or budget-exhausted coset table.

    Rows are 1-based; row entries give the action of each generator column
    (column 2i is generator i, column 2i+1 its inverse; 0 = undefined).
    Complete tables are compacted so live cosets are exactly 1..n.
    """

    def __init__(self, pres: LiftedPresentation, tab: array, n: int,
                 status: str, cap: int, total_defined: int):
        self.pres = pres
        self.gen_index = {g: i for i, g in enumerate(pres.generators)}
        self.ncols = 2 * len(pres.generators)
        self.tab = tab
        self.n = n  # number of live cosets (== rows after compaction)
        self.status = status  # 'complete' | 'budget'
        self.cap = cap
        self.total_defined = total_defined

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def trace(self, coset: int, w: Word) -> int:
        """Image of a coset under a word; 0 if the path runs off the table."""
        tab, W = self.tab, self.ncols
        a = coset
        for g, e in w:
            c = 2 * self.gen_index[g] + (1 if e < 0 else 0)
            for _ in range(abs(e)):
                a = tab[a * W + c]
                if a == 0:
                    return 0
        return a

    def check(self) -> None:
        """Assert inverse consistency and relator closure (test support)."""
        W = self.ncols
        if not self.complete:
            raise ValueError("check() requires a complete table")
        for a in range(1, self.n + 1):
            for c in range(W):
                b = self.tab[a * W + c]
                assert 1 <= b <= self.n, f"entry ({a},{c}) undefined"
                assert self.tab[b * W + (c ^ 1)] == a, "inverse inconsistency"
        for rel in self.pres.relators:
            cols = _word_cols(rel, self.gen_index)
            for a in range(1, self.n + 1):
                b = a
                for c in cols:
                    b = self.tab[b * W + c]
                assert b == a, f"relator {rel} does not close at {a}"


class _Budget(Exception):
    pass


def enumerate_cosets(pres: LiftedPresentation, subgroup_words: Sequence[Word],
                     cap: int = DEFAULT_CAP, strategy: str = "hlt",
                     lookahead: bool = True) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words`.

    Returns a complete table with exact index, or a table with
    status 'budget' once more than `cap` rows would be needed (one
    lookahead-and-compaction rescue is attempted first under HLT).
    Raises ValueError unless 1 <= cap <= MAX_CAP.
    """
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"cap must be between 1 and {MAX_CAP}")
    gen_index = {g: i for i, g in enumerate(pres.generators)}
    rels = [_word_cols(r, gen_index) for r in pres.relators]
    subs = [_word_cols(free_reduce(w), gen_index) for w in subgroup_words]
    if strategy == "hlt":
        e = _Enum(len(pres.generators), rels, subs, cap)
        status = e.run_hlt(lookahead=lookahead)
    elif strategy == "felsch":
        e = _Enum(len(pres.generators), rels, subs, cap)
        status = e.run_felsch()
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if status == "budget":
        # the partial action carries no completed answers; drop it
        return CosetTable(pres, array("i"), e.nlive, status, cap, e.total_defined)
    n = e.compact()  # truncates the working table to rows 0..n
    return CosetTable(pres, e.tab, n, status, cap, e.total_defined)


class _Enum:
    """Working state of one enumeration.

    The table is a flat typed array of C ints indexed ``coset * W +
    column``, and the union-find parents ``p`` are one too, so a row costs
    4 * (W + 1) bytes: 20 B with two generators.  Python lists cost 8 B a
    slot plus a boxed int for every entry above 256; on the benchmark's
    table1 workload peak RSS per row fell from 166 B with lists to 35 B
    (allocation slack and the coincidence queue included).  Rows are
    materialised in chunks so small enumerations under a large default
    cap stay cheap; entries of ``p`` above ``nrows`` are set when their
    row is defined.
    """

    def __init__(self, ngens: int, rels, subs, cap: int):
        self.W = W = 2 * ngens
        self.cols = [(c, c ^ 1) for c in range(W)]  # column, inverse column
        self.rels = rels
        self.subs = subs
        self.cap = cap
        alloc = min(cap + 1, _CHUNK)
        self.tab = array("i", bytes(_INT * W * (alloc + 1)))
        self.p = array("i", bytes(_INT * (alloc + 1)))
        self.p[1] = 1
        self.alloc = alloc
        self.nrows = 1  # highest row in use; coset 1 exists from the start
        self.nlive = 1
        self.total_defined = 1
        self.dedstack = []  # only used by Felsch

    # -- low level ---------------------------------------------------------

    def _grow(self):
        add = min(self.alloc, 1 << 21)
        if self.alloc + add > self.cap + 1:
            add = self.cap + 1 - self.alloc
        # bytes(n) is calloc'd, so the zero source costs no resident pages
        self.tab.frombytes(bytes(_INT * self.W * add))
        self.p.frombytes(bytes(_INT * add))
        self.alloc += add

    def _define(self, a: int, c: int) -> int:
        if self.nrows >= self.cap:
            raise _Budget
        if self.nrows + 1 >= self.alloc:
            self._grow()
        b = self.nrows + 1
        self.nrows = b
        self.nlive += 1
        self.total_defined += 1
        self.p[b] = b
        W = self.W
        self.tab[a * W + c] = b
        self.tab[b * W + (c ^ 1)] = a
        return b

    def _rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _coincidence(self, a: int, b: int, deductions: bool = False):
        p = self.p
        tab = self.tab
        W = self.W
        q = array("i")
        ded = self.dedstack if deductions else None

        # merge(a, b), with union-find reps inlined throughout
        phi = a
        while p[phi] != phi:
            phi = p[phi]
        psi = b
        while p[psi] != psi:
            psi = p[psi]
        if phi != psi:
            if phi > psi:
                phi, psi = psi, phi
            p[psi] = phi
            q.append(psi)
        cols = self.cols
        # each merge appends the dead coset, so iterating q visits it too
        for y in q:
            base = y * W
            # y is dead: its rep search starts at p[y] and resumes from the
            # last rep found, since a rep changes only by being merged
            # under a smaller root
            mu = p[y]
            for c, ci in cols:
                d = tab[base + c]
                if d == 0:
                    continue
                tab[d * W + ci] = 0
                if ded is not None:
                    ded.append((d, ci))
                while p[mu] != mu:
                    mu = p[mu]
                nu = d
                if p[d] != d:
                    while p[nu] != nu:
                        nu = p[nu]
                    k = d
                    while p[k] != nu:
                        p[k], k = nu, p[k]
                t = tab[mu * W + c]
                if t:
                    phi = nu
                    psi = t
                    while p[psi] != psi:
                        psi = p[psi]
                    if phi != psi:
                        if phi > psi:
                            phi, psi = psi, phi
                        p[psi] = phi
                        q.append(psi)
                else:
                    t2 = tab[nu * W + ci]
                    if t2:
                        phi = mu
                        psi = t2
                        while p[psi] != psi:
                            psi = p[psi]
                        if phi != psi:
                            if phi > psi:
                                phi, psi = psi, phi
                            p[psi] = phi
                            q.append(psi)
                    else:
                        tab[mu * W + c] = nu
                        tab[nu * W + ci] = mu
                        if ded is not None:
                            ded.append((mu, c))
        self.nlive -= len(q)

    # -- HLT ---------------------------------------------------------------

    def _scan_and_fill(self, a: int, w) -> None:
        tab = self.tab
        W = self.W
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j:
                t = tab[f * W + w[i]]
                if not t:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                t = tab[b * W + (w[j] ^ 1)]
                if not t:
                    break
                b = t
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                tab[f * W + w[i]] = b
                tab[b * W + (w[i] ^ 1)] = f
                return
            f = self._define(f, w[i])
            i += 1

    def _scan(self, a: int, w, deductions: bool = False) -> None:
        """Scan without defining; apply complete scans and coincidences."""
        tab = self.tab
        W = self.W
        f, i = a, 0
        b, j = a, len(w) - 1
        while i <= j:
            t = tab[f * W + w[i]]
            if not t:
                break
            f = t
            i += 1
        if i > j:
            if f != b:
                self._coincidence(f, b, deductions)
            return
        while j >= i:
            t = tab[b * W + (w[j] ^ 1)]
            if not t:
                break
            b = t
            j -= 1
        if j < i:
            self._coincidence(f, b, deductions)
        elif j == i:
            tab[f * W + w[i]] = b
            tab[b * W + (w[i] ^ 1)] = f
            if deductions:
                self.dedstack.append((f, w[i]))

    def _lookahead(self):
        p = self.p
        tab = self.tab
        W = self.W
        rels = self.rels
        for a in range(1, self.nrows + 1):
            if p[a] != a:
                continue
            for w in rels:
                f, i = a, 0
                b, j = a, len(w) - 1
                while i <= j:
                    t = tab[f * W + w[i]]
                    if not t:
                        break
                    f = t
                    i += 1
                if i > j:
                    if f != b:
                        self._coincidence(f, b)
                        if p[a] != a:
                            break
                    continue
                while j >= i:
                    t = tab[b * W + (w[j] ^ 1)]
                    if not t:
                        break
                    b = t
                    j -= 1
                if j < i:
                    self._coincidence(f, b)
                    if p[a] != a:
                        break
                elif j == i:
                    tab[f * W + w[i]] = b
                    tab[b * W + (w[i] ^ 1)] = f

    def run_hlt(self, lookahead: bool = True) -> str:
        for w in self.subs:
            try:
                self._scan_and_fill(1, w)
            except _Budget:
                return "budget"
        cap = self.cap
        W = self.W
        # each relator with its inverse columns, read by the backward scan
        rels = [(w, tuple(c ^ 1 for c in w), len(w) - 1) for w in self.rels]
        cols = self.cols
        a = 1
        while True:
            tab = self.tab
            p = self.p
            nrows = self.nrows
            pass_start = nrows
            alloc = self.alloc
            over_budget = False
            while a <= nrows:
                if p[a] != a:
                    a += 1
                    continue
                for w, wi, last in rels:
                    f, i = a, 0
                    b, j = a, last
                    while True:
                        while i <= j:
                            t = tab[f * W + w[i]]
                            if not t:
                                break
                            f = t
                            i += 1
                        if i > j:
                            if f != b:
                                self.nrows = nrows
                                self._coincidence(f, b)
                            break
                        while j >= i:
                            t = tab[b * W + wi[j]]
                            if not t:
                                break
                            b = t
                            j -= 1
                        if j < i:
                            self.nrows = nrows
                            self._coincidence(f, b)
                            break
                        if j == i:
                            tab[f * W + w[i]] = b
                            tab[b * W + wi[i]] = f
                            break
                        # fill the whole gap w[i..j-1] with fresh cosets;
                        # when the first of them is the entry the backward
                        # scan stopped at (f == b, w[i] == w[j]^1), define
                        # that one alone and rescan, or the closing
                        # deduction would overwrite it
                        rescan = f == b and w[i] == wi[j]
                        while i < j:
                            if nrows >= cap:
                                over_budget = True
                                break
                            if nrows + 1 >= alloc:
                                self.nrows = nrows
                                self._grow()
                                alloc = self.alloc
                            nrows += 1
                            tab[f * W + w[i]] = nrows
                            tab[nrows * W + wi[i]] = f
                            p[nrows] = nrows
                            f = nrows
                            i += 1
                            if rescan:
                                break
                        if over_budget:
                            break
                        if rescan:
                            continue
                        # deduction closes the scan
                        tab[f * W + w[i]] = b
                        tab[b * W + wi[i]] = f
                        break
                    if over_budget or p[a] != a:
                        break
                if over_budget:
                    break
                if p[a] == a:
                    base = a * W
                    for c, ci in cols:
                        if tab[base + c] == 0:
                            if nrows >= cap:
                                over_budget = True
                                break
                            if nrows + 1 >= alloc:
                                self.nrows = nrows
                                self._grow()
                                alloc = self.alloc
                            nrows += 1
                            tab[base + c] = nrows
                            tab[nrows * W + ci] = a
                            p[nrows] = nrows
                    if over_budget:
                        break
                a += 1
            self.nrows = nrows
            self.nlive += nrows - pass_start
            self.total_defined += nrows - pass_start
            if not over_budget:
                return "complete"
            # lookahead-and-compact rescue; repeatable while it keeps
            # freeing at least 2% of the table, with a hard stop on total
            # definitions so the enumeration always terminates
            if not lookahead or self.total_defined > 10 * cap:
                return "budget"
            self._lookahead()
            a = self.compact(cursor=a)
            if self.nrows >= int(cap * 0.98):
                return "budget"

    # -- Felsch ------------------------------------------------------------

    def run_felsch(self) -> str:
        # rotations of every relator and inverse, grouped by first column
        by_col = {c: [] for c in range(self.W)}
        seen = set()
        for w in self.rels:
            iw = tuple(c ^ 1 for c in reversed(w))
            for word in (w, iw):
                for r in range(len(word)):
                    rot = word[r:] + word[:r]
                    if rot not in seen:
                        seen.add(rot)
                        by_col[rot[0]].append(rot)
        p = self.p
        tab = self.tab
        W = self.W
        for w in self.subs:
            try:
                self._scan_and_fill(1, w)
            except _Budget:
                return "budget"
            self._drain(by_col)
        a = 1
        while a <= self.nrows:
            if p[a] != a:
                a += 1
                continue
            c = 0
            while c < W:
                if p[a] != a:
                    break
                if tab[a * W + c] == 0:
                    try:
                        b = self._define(a, c)
                    except _Budget:
                        return "budget"
                    self.dedstack.append((a, c))
                    self._drain(by_col)
                c += 1
            if p[a] == a:
                a += 1
        return "complete"

    def _drain(self, by_col):
        p = self.p
        tab = self.tab
        W = self.W
        while self.dedstack:
            a, c = self.dedstack.pop()
            a = self._rep(a)
            for w in by_col[c]:
                self._scan(a, w, deductions=True)
                if p[a] != a:
                    break
            b = tab[a * W + c]
            if b:
                b = self._rep(b)
                for w in by_col[c ^ 1]:
                    self._scan(b, w, deductions=True)
                    if p[b] != b:
                        break

    # -- compaction --------------------------------------------------------

    def compact(self, cursor: int = 0) -> int:
        """Renumber live cosets 1..nlive preserving order, and truncate the
        table and parents to those rows.

        Returns the new index for `cursor` (the lowest live index at or
        after it) so interrupted HLT loops can resume.
        """
        p = self.p
        tab = self.tab
        W = self.W
        remap = array("i", bytes(_INT * (self.nrows + 1)))
        new = 0
        new_cursor = 1
        for old in range(1, self.nrows + 1):
            if p[old] == old:
                new += 1
                remap[old] = new
                if old <= cursor:
                    new_cursor = new
        for old in range(1, self.nrows + 1):
            if p[old] != old:
                continue
            ob = old * W
            nb = remap[old] * W
            for c in range(W):
                t = tab[ob + c]
                if t:
                    while p[t] != t:
                        t = p[t]
                    tab[nb + c] = remap[t]
                else:
                    tab[nb + c] = 0
        # drop the rows beyond the live block: definitions hand rows out
        # assuming they are zero, and _grow appends zeroed ones
        del tab[(new + 1) * W:]
        del p[new + 1:]
        self.alloc = self.nrows = self.nlive = new
        for i in range(new + 1):
            p[i] = i
        return new_cursor if cursor else new


# ---------------------------------------------------------------------------
# orders, word problems
# ---------------------------------------------------------------------------

def group_order(pres: LiftedPresentation, cap: int = DEFAULT_CAP,
                strategy: str = "hlt") -> OrderResult:
    t = enumerate_cosets(pres, [], cap, strategy)
    if t.complete:
        return OrderResult.finite(t.n)
    return OrderResult.exceeds(cap)


def subgroup_index(pres: LiftedPresentation, subgroup_words: Sequence[Word],
                   cap: int = DEFAULT_CAP, strategy: str = "hlt") -> OrderResult:
    t = enumerate_cosets(pres, subgroup_words, cap, strategy)
    if t.complete:
        return OrderResult.finite(t.n)
    return OrderResult.exceeds(cap)


# ---------------------------------------------------------------------------
# abelianization support (exact integer lattice arithmetic)
# ---------------------------------------------------------------------------

def _exponent_vector(w: Word, gen_index: dict) -> list:
    v = [0] * len(gen_index)
    for g, e in w:
        v[gen_index[g]] += e
    return v


def abelian_order_of_word(pres: LiftedPresentation, w: Word) -> Optional[int]:
    """Order of the image of `w` in the abelianization; None if infinite.

    Uses a Smith-style diagonalization with the column operations applied
    to the exponent vector of `w`, so membership of t*w in the relator
    lattice is read off coordinatewise.
    """
    gen_index = {g: i for i, g in enumerate(pres.generators)}
    rows = [_exponent_vector(r, gen_index) for r in pres.relators]
    v = _exponent_vector(w, gen_index)
    n = len(v)
    m = len(rows)
    A = [list(r) for r in rows]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def col_add(i, j, c):  # col_j += c * col_i
        for r in A:
            r[j] += c * r[i]
        v[j] += c * v[i]

    diag = []
    top = 0
    left = 0
    while top < m and left < n:
        # find a nonzero pivot of minimal absolute value
        best = None
        for r in range(top, m):
            for c in range(left, n):
                if A[r][c] and (best is None or abs(A[r][c]) < abs(A[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        r0, c0 = best
        A[top], A[r0] = A[r0], A[top]
        if c0 != left:
            col_swap(left, c0)
        while True:
            # clear the pivot row and column
            again = False
            for r in range(top + 1, m):
                if A[r][left]:
                    q = A[r][left] // A[top][left]
                    for c in range(left, n):
                        A[r][c] -= q * A[top][c]
                    if A[r][left]:
                        A[top], A[r] = A[r], A[top]
                        again = True
            for c in range(left + 1, n):
                if A[top][c]:
                    q = A[top][c] // A[top][left]
                    col_add(left, c, -q)
                    if A[top][c]:
                        col_swap(left, c)
                        again = True
            if not again:
                break
        diag.append(abs(A[top][left]))
        top += 1
        left += 1
    # order = lcm over coordinates of d_i / gcd(d_i, v_i); a zero diagonal
    # entry is a free direction, so any nonzero component there is infinite
    order = 1
    for i in range(n):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if v[i] != 0:
                return None
            continue
        k = d // gcd(d, v[i])
        order = order * k // gcd(order, k)
    return order


def _power_relator_bound(pres: LiftedPresentation, w: Word) -> Optional[int]:
    """Smallest |t| with w^t an explicit relator, if any (syntactic)."""
    target = cyclic_word_reduce(w)
    best = None
    for rel in pres.relators:
        rel = cyclic_word_reduce(rel)
        if len(rel) == 1 and len(target) == 1 and rel[0][0] == target[0][0]:
            g, e = rel[0]
            _, f = target[0]
            if e % f == 0:
                t = abs(e // f)
                best = t if best is None else min(best, t)
    return best


def order_via_cyclic_subgroup(pres: LiftedPresentation, w: Word,
                              cap: int = DEFAULT_CAP) -> Optional[OrderResult]:
    """|group| = [group : <w>] * |w| when |w| can be pinned exactly.

    |w| is exact when its abelianized order meets an explicit power-relator
    upper bound.  Returns None when that certification is unavailable.
    """
    upper = _power_relator_bound(pres, w)
    if upper is None:
        return None
    lower = abelian_order_of_word(pres, w)
    if lower != upper:
        return None
    t = enumerate_cosets(pres, [w], cap)
    if not t.complete:
        return OrderResult.exceeds(cap)
    return OrderResult.finite(t.n * upper)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class GroupContext:
    """Word-problem oracle for one group with a fixed enumeration budget.

    Free products of cyclic groups (including free and finite cyclic
    groups) are answered by exact normal forms and can prove infinite
    orders.  Everything else goes through one cached regular-representation
    enumeration; budget exhaustion surfaces as UNKNOWN / ExceedsBudget,
    never as a guess.
    """

    def __init__(self, group, cap: int = DEFAULT_CAP):
        if isinstance(group, CoefficientGroup):
            self.pres = ordinary(group)
            self.moduli = group.free_factors()
        elif isinstance(group, LiftedPresentation):
            self.pres = group
            self.moduli = CoefficientGroup(group.generators, group.relators).free_factors()
        else:
            raise TypeError("expected CoefficientGroup or LiftedPresentation")
        self.cap = cap
        self._regular: Optional[CosetTable] = None
        self._regular_tried = False
        self._schreier: Optional[list] = None

    # -- normal forms for free products of cyclics --------------------------

    def _nf(self, w: Word) -> Word:
        out = []
        for g, e in w:
            m = self.moduli[g]
            if m == 1:
                continue
            if m is not None:
                e %= m
            if e == 0:
                continue
            if out and out[-1][0] == g:
                e2 = out[-1][1] + e
                m2 = self.moduli[g]
                if m2 is not None:
                    e2 %= m2
                out.pop()
                if e2:
                    out.append((g, e2))
            else:
                out.append((g, e))
        return tuple(out)

    def _nf_cyclic(self, w: Word) -> Word:
        w = self._nf(w)
        while len(w) >= 2 and w[0][0] == w[-1][0]:
            g = w[0][0]
            e = w[0][1] + w[-1][1]
            m = self.moduli[g]
            if m is not None:
                e %= m
            w = self._nf((((g, e),) if e else ()) + w[1:-1])
        return w

    # -- the regular representation ----------------------------------------

    def regular_table(self) -> Optional[CosetTable]:
        if not self._regular_tried:
            self._regular_tried = True
            t = enumerate_cosets(self.pres, [], self.cap)
            self._regular = t if t.complete else None
        return self._regular

    def _schreier_words(self) -> list:
        """A word reaching each coset of the regular table from 1."""
        if self._schreier is None:
            t = self.regular_table()
            assert t is not None
            words = [None] * (t.n + 1)
            words[1] = ()
            queue = [1]
            gens = t.pres.generators
            W = t.ncols
            while queue:
                a = queue.pop(0)
                for i, g in enumerate(gens):
                    for c, e in ((2 * i, 1), (2 * i + 1, -1)):
                        b = t.tab[a * W + c]
                        if b and words[b] is None:
                            words[b] = wmul(words[a], ((g, e),))
                            queue.append(b)
            self._schreier = words
        return self._schreier

    # -- oracle queries ------------------------------------------------------

    def is_trivial_word(self, w: Word) -> TriState:
        if not w:
            return TriState.YES
        if self.moduli is not None:
            return TriState.YES if not self._nf(w) else TriState.NO
        t = self.regular_table()
        if t is None:
            return TriState.UNKNOWN
        return TriState.YES if t.trace(1, w) == 1 else TriState.NO

    def equal(self, u: Word, v: Word) -> TriState:
        return self.is_trivial_word(wmul(u, winv(v)))

    def element_order(self, w: Word) -> OrderResult:
        if self.moduli is not None:
            nf = self._nf_cyclic(w)
            if not nf:
                return OrderResult.finite(1)
            if len(nf) >= 2:
                return OrderResult.infinite()
            g, e = nf[0]
            m = self.moduli[g]
            if m is None:
                return OrderResult.infinite()
            return OrderResult.finite(m // gcd(m, e))
        t = self.regular_table()
        if t is None:
            return OrderResult.exceeds(self.cap)
        a = t.trace(1, w)
        k = 1
        while a != 1:
            a = t.trace(a, w)
            k += 1
        return OrderResult.finite(k)

    def group_order(self) -> OrderResult:
        if self.moduli is not None:
            finite = [m for m in self.moduli.values() if m is not None and m > 1]
            infinite = [g for g, m in self.moduli.items() if m is None]
            if infinite or len(finite) > 1:
                return OrderResult.infinite()
            return OrderResult.finite(finite[0] if finite else 1)
        t = self.regular_table()
        if t is None:
            return OrderResult.exceeds(self.cap)
        return OrderResult.finite(t.n)

    def subgroup_order(self, words: Iterable[Word]) -> OrderResult:
        """Order of the subgroup generated by `words` (finite groups only)."""
        total = self.group_order()
        if not total.is_finite:
            # a subgroup of a visibly infinite free product may still be
            # finite, but we only need this query for finite groups
            return OrderResult.exceeds(self.cap) if total.is_unknown else total
        t = enumerate_cosets(self.pres, list(words), self.cap)
        if not t.complete:
            return OrderResult.exceeds(self.cap)
        return OrderResult.finite(total.value // t.n)

    def conjugate(self, u: Word, v: Word) -> TriState:
        """Conjugacy test; exact for free products of cyclics and for
        enumerable finite groups, UNKNOWN otherwise."""
        if self.moduli is not None:
            a = self._nf_cyclic(u)
            b = self._nf_cyclic(v)
            if len(a) != len(b):
                return TriState.NO
            if not a:
                return TriState.YES
            for i in range(len(a)):
                if a == b[i:] + b[:i]:
                    return TriState.YES
            return TriState.NO
        t = self.regular_table()
        if t is None:
            return TriState.UNKNOWN
        target = t.trace(1, v)
        for word in self._schreier_words()[1:]:
            if t.trace(1, wmul(winv(word), u, word)) == target:
                return TriState.YES
        return TriState.NO

    def is_torsion_free(self) -> TriState:
        if self.moduli is not None:
            if all(m is None or m == 1 for m in self.moduli.values()):
                return TriState.YES
            return TriState.NO
        order = self.group_order()
        if order.is_finite:
            return TriState.YES if order.value == 1 else TriState.NO
        return TriState.UNKNOWN


_context_cache: dict = {}


def context_for(group, cap: int = DEFAULT_CAP) -> GroupContext:
    """Shared, cached oracle; completed tables are immutable so reuse is safe."""
    if isinstance(group, CoefficientGroup):
        key = ("coeff", group.generators, group.relators, cap)
    else:
        key = ("pres", group.generators, group.relators, cap)
    ctx = _context_cache.get(key)
    if ctx is None:
        ctx = GroupContext(group, cap)
        _context_cache[key] = ctx
    return ctx


def element_order(pres: LiftedPresentation, w: Word,
                  cap: int = DEFAULT_CAP) -> OrderResult:
    return context_for(pres, cap).element_order(w)


def words_equal(pres: LiftedPresentation, u: Word, v: Word,
                cap: int = DEFAULT_CAP) -> TriState:
    return context_for(pres, cap).equal(u, v)


def mu_of(G: CoefficientGroup, g: Word, h: Word, cap: int = DEFAULT_CAP):
    """1/|g| + 1/|h| + 1/|g h^-1| with orders taken through the oracle."""
    from .words import mu
    return mu(context_for(G, cap), g, h)
