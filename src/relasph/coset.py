"""Todd-Coxeter coset enumeration and the word-problem oracle.

This is the single oracle behind every finite-group claim in the package:
group orders, element orders, equality of words, subgroup indices.  The
enumerator follows the HLT (relator-based) strategy with lookahead and
compaction as the default, with a Felsch (deduction-based) strategy
available for cross-checking; both must produce the same index.

One scan does all the relator work.  `_scan` applies a closing
deduction or a coincidence, and with `fill` it first fills a longer gap
with new cosets (Holt's SCAN_AND_FILL).  `_define` hands out every other
new coset, and `_coincidence` does every merge, for both strategies.

Determinism: both strategies first scan and fill each subgroup generator
at coset 1, in input order.  HLT then processes cosets in increasing
order, scanning and filling relators in input order, then fills generator
columns in increasing column order.  On table overflow it runs a lookahead
pass (`_scan` without fill of all relators at all live cosets, in order)
followed by compaction, which moves live cosets down preserving their
relative order, and resumes; it repeats this rescue at each overflow while
the compacted table stays below 98% of the cap, and gives up once more
than 10 x cap cosets have been defined.  Felsch pushes every entry the
subgroup scans made onto its deduction stack, then defines the first
undefined entry of the lowest live coset; it drains the stack LIFO, with
`_scan` without fill of each relator rotation that starts with the
deduced column.  Budget exhaustion is a value (`status == "budget"`),
never an error.  The working table is held column by column, a dead coset
keeping its union-find parent in its own column-0 slot, whose edge moves as
it dies; the coincidence queue holds it as one int until its other columns
are visited.  A complete table keeps those columns, compacted, and is
checked before it is returned.

References: Holt, Eick, O'Brien, "Handbook of Computational Group
Theory", chapter 5.
"""

from __future__ import annotations

from array import array
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .words import (
    CoefficientGroup,
    OrderResult,
    RelativePresentation,
    TriState,
    Validated,
    Word,
    X,
    cyclic_word_reduce,
    free_reduce,
    wmul,
)

DEFAULT_CAP = 10_000_000
_INT = array("i").itemsize
# coset numbers run up to cap + 1 and must fit the table's signed C ints
MAX_CAP = (1 << (8 * _INT - 1)) - 2

# rows of the first allocation, and the least rows _grow adds; past 8 * _CHUNK
# rows it adds an eighth of the table
_CHUNK = 1 << 10


class _LiftedPresentation(NamedTuple):
    generators: tuple
    relators: tuple  # Word tuples


class LiftedPresentation(Validated, _LiftedPresentation):
    """Ordinary presentation on coefficient generators plus x-generators.

    Relative relators are written out as plain words; the presented group
    is isomorphic to the group defined by the relative presentation.
    """

    __slots__ = ()

    def __new__(cls, generators, relators):
        return tuple.__new__(
            cls, (generators, tuple(free_reduce(r) for r in relators)))


def lift(p: RelativePresentation) -> LiftedPresentation:
    gens = tuple(p.coeff.generators) + tuple(p.x_gens)
    rels = list(p.coeff.relators)
    for r in p.relators:
        word = []
        for s in r.syllables:
            if s[0] == X:
                word.append((s[1], s[2]))
            else:
                word.extend(s[1])
        rels.append(free_reduce(word))
    return LiftedPresentation(gens, tuple(rels))


def ordinary(G: CoefficientGroup) -> LiftedPresentation:
    return LiftedPresentation(tuple(G.generators), tuple(G.relators))


def _word_cols(w: Word, gen_index: dict) -> tuple:
    cols = []
    for g, e in w:
        cols.extend([2 * gen_index[g] + (e < 0)] * abs(e))
    return tuple(cols)


class CosetTable:
    """A completed or budget-exhausted coset table.

    ``cols[c][a]`` is the image of coset a under column c (column 2i is
    generator i, column 2i+1 its inverse): the enumerator's own columns,
    compacted so the cosets are exactly 1..n and each column is n + 1
    long, row 0 unused.  ``enumerate_cosets`` checks a complete table
    before it returns it, so every entry is a coset; a budget table holds
    no columns.  ``subs`` holds the subgroup generators as column tuples,
    and is empty in a budget table stopped before its words were expanded.
    """

    def __init__(self, pres: LiftedPresentation, subs: tuple, cols: list,
                 n: int, status: str, cap: int, total_defined: int):
        self.pres = pres
        self.gen_index = {g: i for i, g in enumerate(pres.generators)}
        self.subs = subs
        self.cols = cols
        self.n = n  # number of live cosets (== rows after compaction)
        self.status = status  # 'complete' | 'budget'
        self.cap = cap
        self.total_defined = total_defined

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def trace(self, coset: int, w: Word) -> int:
        """Image of a coset under a word in a complete table."""
        cols, gen_index = self.cols, self.gen_index
        a = coset
        for g, e in w:
            col = cols[2 * gen_index[g] + (e < 0)]
            for _ in range(abs(e)):
                a = col[a]
        return a

    def _image(self, a: int, w) -> int:
        cols = self.cols
        for c in w:
            a = cols[c][a]
        return a

    def check(self) -> None:
        """Raise ValueError unless the table is complete, every entry is a
        coset whose inverse entry leads back, every relator closes at every
        coset, every subgroup generator fixes coset 1 and the orbit of
        coset 1 holds every coset.

        The checks raise rather than assert, so they hold under python -O.
        """
        cols, n = self.cols, self.n
        if not self.complete:
            raise ValueError("check() requires a complete table")
        if (len(cols) != 2 * len(self.gen_index)
                or any(len(col) != n + 1 for col in cols)):
            raise ValueError(f"the columns do not hold {n} cosets each")
        cosets = range(1, n + 1)
        for c, col in enumerate(cols):
            icol = cols[c ^ 1]
            for a in cosets:
                b = col[a]
                if not 1 <= b <= n:
                    raise ValueError(f"entry ({a},{c}) = {b} is not a coset")
                if icol[b] != a:
                    raise ValueError(f"entry ({a},{c}) is inverse-inconsistent")
        for rel in self.pres.relators:
            w = _word_cols(rel, self.gen_index)
            for a in cosets:
                if self._image(a, w) != a:
                    raise ValueError(f"relator {rel} does not close at {a}")
        for w in self.subs:
            if self._image(1, w) != 1:
                raise ValueError(
                    f"subgroup generator {w} does not fix coset 1")
        # the entries are a permutation action, so the generators' columns
        # alone reach the whole orbit; an int array keeps the queue at 4 B
        # a coset
        gens = cols[::2]
        seen = bytearray(n + 1)
        seen[1] = 1
        todo = array("i", [1])
        for a in todo:
            for col in gens:
                b = col[a]
                if not seen[b]:
                    seen[b] = 1
                    todo.append(b)
        if len(todo) != n:
            raise ValueError(f"the orbit of coset 1 holds {len(todo)} "
                             f"of the {n} cosets")


def enumerate_cosets(pres: LiftedPresentation, subgroup_words: Sequence[Word],
                     cap: int = DEFAULT_CAP, strategy: str = "hlt",
                     lookahead: bool = True) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words`.

    Returns a complete table with exact index, or a table with
    status 'budget' once more than `cap` rows would be needed.  Under HLT
    each overflow first runs a lookahead-and-compaction rescue; the
    enumeration gives up when a rescue leaves the table at 98% of the cap
    or more, or once more than 10 * cap cosets have been defined.  A
    relator or subgroup word of more than 10 * cap letters gives a budget
    table at once, before it is expanded into columns.
    Raises ValueError unless 1 <= cap <= MAX_CAP.
    """
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"cap must be between 1 and {MAX_CAP}")
    if strategy not in ("hlt", "felsch"):
        raise ValueError(f"unknown strategy {strategy!r}")
    words = [free_reduce(w) for w in subgroup_words]
    if any(sum(abs(e) for _, e in w) > 10 * cap
           for w in (*pres.relators, *words)):
        return CosetTable(pres, (), [], 1, "budget", cap, 1)
    gen_index = {g: i for i, g in enumerate(pres.generators)}
    rels = [_word_cols(r, gen_index) for r in pres.relators]
    subs = tuple(_word_cols(w, gen_index) for w in words)
    if not pres.generators:  # one coset, and no column to hold it
        t = CosetTable(pres, subs, [], 1, "complete", cap, 1)
    else:
        e = _Enum(len(pres.generators), rels, subs, cap)
        status = e.run_hlt(lookahead) if strategy == "hlt" else e.run_felsch()
        if status == "budget":
            # the partial action carries no completed answers; drop it
            return CosetTable(pres, subs, [], e.nlive, status, cap,
                              e.total_defined)
        n = e.compact()
        t = CosetTable(pres, subs, e.T, n, status, cap, e.total_defined)
    t.check()
    return t


class _Enum:
    """Working state of one enumeration.

    The table is held column by column: ``T[c][x]`` is the image of coset
    x under column c, in one typed array of C ints per column, so a row
    costs 4 * W bytes (16 B with two generators) and no entry keeps a boxed
    int alive.  A live coset has ``T[0][x] >= 0``; a dead one holds minus
    its union-find parent there, so the table needs no parent array.
    ``_merge`` moves a coset's column-0 edge as it dies; its columns
    1..W-1 wait for their visit in the coincidence queue, one int a coset.

    ``_scan`` does all the relator work, ``_define`` hands out new rows
    and ``_coincidence`` does every merge.  The gap fill in ``_scan`` is
    ``_define`` inlined: a call per row made table1's HLT enumerations
    about a tenth slower on a 2-vCPU VM.  Relators and subgroup
    generators are kept as (columns, inverse columns) pairs.  ``nlive``
    and ``total_defined`` follow from ``nrows`` and the ``dead`` and
    ``dropped`` counts, so nothing that hands out a row counts it.

    ``_grow`` adds max(alloc / 8, _CHUNK) zeroed rows, clipped at cap + 1,
    so small enumerations under a large default cap stay cheap and unused
    rows stay under 1/8 of a large table.  ``compact`` moves live rows
    down in place and ``_coincidence`` holds its queue one generation of
    dead cosets at a time, so neither needs a further array of the table's
    length; the compacted columns become the ``CosetTable``'s.

    Felsch's deductions: a moved edge pushes one deduction, for its
    neighbour's side, and ``_drain`` scans from both ends of it.
    """

    def __init__(self, ngens: int, rels, subs, cap: int):
        self.W = W = 2 * ngens
        self.cap = cap
        alloc = min(cap + 1, _CHUNK)
        self.T = T = [array("i", bytes(_INT * (alloc + 1))) for _ in range(W)]
        # column, inverse column and their arrays; _grow and compact
        # resize the arrays in place
        self.cols = [(c, c ^ 1, T[c], T[c ^ 1]) for c in range(W)]
        self.rels = [(w, tuple(c ^ 1 for c in w)) for w in rels]
        self.subs = [(w, tuple(c ^ 1 for c in w)) for w in subs]
        self.alloc = alloc
        self.nrows = 1  # highest row in use; coset 1 exists from the start
        self.dead = 0  # dead rows among 1..nrows
        self.dropped = 0  # rows compaction has dropped
        self.dedstack = []  # only used by Felsch

    # -- low level ---------------------------------------------------------

    def _grow(self):
        add = max(self.alloc >> 3, _CHUNK)
        if self.alloc + add > self.cap + 1:
            add = self.cap + 1 - self.alloc
        # bytes(n) is calloc'd, so the zero source costs no resident pages
        for col in self.T:
            col.frombytes(bytes(_INT * add))
        self.alloc += add

    @property
    def nlive(self) -> int:
        return self.nrows - self.dead

    @property
    def total_defined(self) -> int:
        return self.nrows + self.dropped

    def _define(self, a: int, c: int) -> int:
        """Define a new coset a^c; 0 once the cap is reached."""
        b = self.nrows + 1
        if b > self.cap:
            return 0
        if b >= self.alloc:
            self._grow()
        self.nrows = b
        self.T[c][a] = b
        self.T[c ^ 1][b] = a
        return b

    def _rep(self, k: int) -> int:
        T0 = self.T[0]
        r = k
        while T0[r] < 0:
            r = -T0[r]
        while k != r:
            T0[k], k = -r, -T0[k]
        return r

    def _merge(self, phi: int, psi: int, q: array, ded):
        """Merge live coset phi with psi's class, queueing each coset that
        dies.  Its column-0 slot becomes its parent link, so its 0-edge
        moves to its rep at once; that can kill one more coset at most,
        whose 0-edge moves in turn: a loop, with no stack."""
        T0 = self.T[0]
        T1 = self.T[1]
        while True:
            while T0[psi] < 0:
                psi = -T0[psi]
            if phi == psi:
                return
            if phi > psi:
                phi, psi = psi, phi
            e = T0[psi]
            T0[psi] = -phi
            q.append(psi)
            if not e:
                return
            # psi's 0-edge now runs phi -> nu, e's rep: merge nu with
            # phi's 0-image, or else phi with nu's 1-image, or else enter it
            T1[e] = 0
            if ded is not None:
                ded.append((e, 1))
            nu = e
            while T0[nu] < 0:
                nu = -T0[nu]
            psi = T0[phi]
            if psi:
                phi = nu
            else:
                psi = T1[nu]
                if not psi:
                    T0[phi] = nu
                    T1[nu] = phi
                    return

    def _coincidence(self, a: int, b: int, deductions: bool = False):
        T0 = self.T[0]
        ded = self.dedstack if deductions else None
        merge = self._merge
        q = array("i")
        merge(self._rep(a), self._rep(b), q, ded)
        cols = self.cols[1:]
        # taking q a generation at a time visits the dead in the same FIFO
        # order as iterating a growing queue, but holds two generations, not
        # every dead coset
        while q:
            batch, q = q, array("i")
            self.dead += len(batch)
            for y in batch:
                # y is dead: its rep search starts at its parent and resumes
                # from the last rep found, since a rep changes only by being
                # merged under a smaller root
                mu = -T0[y]
                for c, ci, col, icol in cols:
                    d = col[y]
                    if not d:
                        continue
                    # d is live when c is 1: had d died, its 0-edge to y
                    # would have moved then, clearing this entry
                    icol[d] = 0
                    if ded is not None:
                        ded.append((d, ci))
                    while T0[mu] < 0:
                        mu = -T0[mu]
                    nu = d
                    t = T0[d]
                    if t < 0:
                        nu = -t
                        while T0[nu] < 0:
                            nu = -T0[nu]
                        k = d
                        while t != -nu:
                            T0[k], k = -nu, -t
                            t = T0[k]
                    # y's c-edge now runs mu -> nu: merge nu with mu's
                    # c-image, or else mu with nu's inverse image, or else
                    # enter the edge
                    if col[mu]:
                        merge(nu, col[mu], q, ded)
                    elif icol[nu]:
                        merge(mu, icol[nu], q, ded)
                    else:
                        col[mu] = nu
                        icol[nu] = mu

    # -- the scan ----------------------------------------------------------

    def _scan(self, a: int, w, wi, fill: bool = False,
              deductions: bool = False) -> bool:
        """Scan relator `w` (inverse columns `wi`) at coset `a`.

        A scan that closes applies its coincidence, and one that leaves a
        single entry open applies that deduction, pushing it if
        `deductions`.  A longer gap stays open unless `fill`, which fills
        it with new cosets and scans on (Holt's SCAN_AND_FILL).  Returns
        True when the cap stopped a fill.
        """
        T = self.T
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j:
                t = T[w[i]][f]
                if not t:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b, deductions)
                return False
            while j >= i:
                t = T[wi[j]][b]
                if not t:
                    break
                b = t
                j -= 1
            if j < i:
                self._coincidence(f, b, deductions)
                return False
            if j == i:
                T[w[i]][f] = b
                T[wi[i]][b] = f
                if deductions:
                    self.dedstack.append((f, w[i]))
                return False
            if not fill:
                return False
            # fill w[i..j-1] with fresh cosets (_define, inlined) and scan
            # on to the closing deduction; when the first of them is the
            # entry the backward scan stopped at (f == b, w[i] == w[j]^1),
            # define that one alone, or the deduction would overwrite it
            rescan = f == b and w[i] == wi[j]
            nrows = self.nrows
            while i < j:
                if nrows >= self.cap:
                    self.nrows = nrows
                    return True
                if nrows + 1 >= self.alloc:
                    self._grow()
                nrows += 1
                T[w[i]][f] = nrows
                T[wi[i]][nrows] = f
                f = nrows
                i += 1
                if rescan:
                    break
            self.nrows = nrows

    def _fill_subgroup(self) -> bool:
        """Scan and fill every subgroup generator at coset 1; True when the
        cap stopped it."""
        return any(self._scan(1, w, wi, fill=True) for w, wi in self.subs)

    # -- HLT ---------------------------------------------------------------

    def _lookahead(self):
        T0 = self.T[0]
        for a in range(1, self.nrows + 1):
            for w, wi in self.rels:
                if T0[a] < 0:
                    break
                self._scan(a, w, wi)

    def _close_from(self, a: int) -> int:
        """Close each live coset from `a` on, in order: scan and fill every
        relator there, then define each of its entries still empty.
        Returns the coset the cap stopped at, or 0 once all are closed."""
        T = self.T
        T0 = T[0]
        scan = self._scan
        define = self._define
        rels = self.rels
        while a <= self.nrows:
            if T0[a] >= 0:
                for w, wi in rels:
                    if scan(a, w, wi, True):
                        return a
                    if T0[a] < 0:
                        break
                else:
                    for c, col in enumerate(T):
                        if not col[a] and not define(a, c):
                            return a
            a += 1
        return 0

    def run_hlt(self, lookahead: bool = True) -> str:
        if self._fill_subgroup():
            return "budget"
        cap = self.cap
        a = 1
        while True:
            a = self._close_from(a)
            if not a:
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
        # rotations of every relator and inverse, grouped by first column,
        # each with its inverse columns
        by_col = {c: [] for c in range(self.W)}
        seen = set()
        for w, _ in self.rels:
            iw = tuple(c ^ 1 for c in reversed(w))
            for word in (w, iw):
                for r in range(len(word)):
                    rot = word[r:] + word[:r]
                    if rot not in seen:
                        seen.add(rot)
                        by_col[rot[0]].append(
                            (rot, tuple(c ^ 1 for c in rot)))
        T = self.T
        T0 = T[0]
        if self._fill_subgroup():
            return "budget"
        # every entry the subgroup scans made is a deduction (Holt, Eick,
        # O'Brien section 5.2): without them a relator can stay open at a
        # coset the main loop never revisits
        for a in range(1, self.nrows + 1):
            if T0[a] >= 0:
                for c, col in enumerate(T):
                    if col[a]:
                        self.dedstack.append((a, c))
        self._drain(by_col)
        a = 1
        while a <= self.nrows:
            for c, col in enumerate(T):
                if T0[a] < 0:
                    break
                if not col[a]:
                    if not self._define(a, c):
                        return "budget"
                    self.dedstack.append((a, c))
                    self._drain(by_col)
            a += 1
        return "complete"

    def _drain(self, by_col):
        T = self.T
        T0 = T[0]
        while self.dedstack:
            a, c = self.dedstack.pop()
            a = self._rep(a)
            for w, wi in by_col[c]:
                self._scan(a, w, wi, deductions=True)
                if T0[a] < 0:
                    # a scan killed a: its own entry is stale, read its rep's
                    a = self._rep(a)
                    break
            b = T[c][a]
            if b:
                for w, wi in by_col[c ^ 1]:
                    self._scan(b, w, wi, deductions=True)
                    if T0[b] < 0:
                        break

    # -- compaction --------------------------------------------------------

    def compact(self, cursor: int = 0) -> int:
        """Renumber live cosets 1..nlive preserving order, and truncate the
        columns to those rows.

        Returns the new index of the last live coset at or before `cursor`
        (1 if none), where an interrupted HLT loop resumes.
        """
        T0 = self.T[0]
        cols = self.cols
        # no coincidence is pending, so live rows point only at live rows:
        # moving row old down to new patches each neighbour's inverse
        # entry, and rows not yet moved still sit at their old numbers
        new = 0
        new_cursor = 1
        for old in range(1, self.nrows + 1):
            if T0[old] < 0:
                continue
            new += 1
            if old <= cursor:
                new_cursor = new
            if new == old:
                continue
            for _, _, col, icol in cols:
                t = col[old]
                if t == old:
                    t = new
                elif t:
                    icol[t] = new
                col[new] = t
        # drop the rows beyond the live block: definitions hand rows out
        # assuming they are zero, and _grow appends zeroed ones
        for col in self.T:
            del col[new + 1:]
        self.dropped += self.nrows - new
        self.dead = 0
        self.alloc = self.nrows = new
        return new_cursor if cursor else new


# ---------------------------------------------------------------------------
# orders, word problems
# ---------------------------------------------------------------------------

def subgroup_index(pres: LiftedPresentation, subgroup_words: Sequence[Word],
                   cap: int = DEFAULT_CAP, strategy: str = "hlt") -> OrderResult:
    t = enumerate_cosets(pres, subgroup_words, cap, strategy)
    return OrderResult.finite(t.n) if t.complete else OrderResult.exceeds(cap)


def group_order(pres: LiftedPresentation, cap: int = DEFAULT_CAP,
                strategy: str = "hlt") -> OrderResult:
    return subgroup_index(pres, [], cap, strategy)


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
        best = min(((abs(A[r][c]), r, c) for r in range(top, m)
                    for c in range(left, n) if A[r][c]), default=None)
        if best is None:
            break
        _, r0, c0 = best
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
                              cap: int = DEFAULT_CAP,
                              strategy: str = "hlt") -> OrderResult:
    """|group| = [group : <w>] * |w| when |w| can be pinned exactly.

    |w| is exact when its abelianized order meets an explicit power-relator
    upper bound; otherwise the order comes from `group_order`.  Either way
    one enumeration runs under `strategy`, and a cap hit is ExceedsBudget.
    """
    upper = _power_relator_bound(pres, w)
    if upper is None or abelian_order_of_word(pres, w) != upper:
        return group_order(pres, cap, strategy)
    t = enumerate_cosets(pres, [w], cap, strategy)
    return (OrderResult.finite(t.n * upper) if t.complete
            else OrderResult.exceeds(cap))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class GroupContext:
    """Word-problem oracle for one group with a fixed enumeration budget.

    Free products of cyclic groups (including free and finite cyclic
    groups) are answered by exact normal forms and can prove infinite
    orders.  Everything else goes through one cached regular-representation
    enumeration; budget exhaustion surfaces as UNKNOWN / ExceedsBudget,
    never as a guess.  Two words are equal when their normal forms are, or
    else when they lead from coset 1 to the same coset of the regular
    table; no product word u v^-1 is built.
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
        # classify.pair_facts' records, one per pair (g, h) asked about,
        # so they live exactly as long as this group and cap
        self.pairs: dict = {}

    # -- normal forms for free products of cyclics --------------------------

    def _nf(self, w: Word) -> Word:
        out = []
        for g, e in w:
            if out and out[-1][0] == g:
                e += out.pop()[1]
            m = self.moduli[g]
            if m is not None:
                e %= m
            if e:
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

    # -- oracle queries ------------------------------------------------------

    def _element(self, w: Word):
        """The element `w` names, as a value equal exactly for equal
        elements: its normal form in a free product of cyclics, else its
        coset in the regular table; None when the table exceeds the cap."""
        if self.moduli is not None:
            return self._nf(w)
        t = self.regular_table()
        return None if t is None else t.trace(1, w)

    def _same(self, u: Word, v: Word) -> TriState:
        a = self._element(u)
        if a is None:
            return TriState.UNKNOWN
        return TriState.YES if a == self._element(v) else TriState.NO

    def is_trivial_word(self, w: Word) -> TriState:
        return TriState.YES if not w else self._same(w, ())

    def equal(self, u: Word, v: Word) -> TriState:
        # freely equal words are equal without the regular table
        if u == v or (self.moduli is None
                      and free_reduce(u) == free_reduce(v)):
            return TriState.YES
        return self._same(u, v)

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
        """Order of the subgroup generated by `words` (finite groups only),
        without a coset enumeration of its own: m / gcd(m, exponent sums)
        over a finite cyclic Z_m, else the orbit of coset 1 under the words
        in the regular table, which in a finite group is the subgroup."""
        total = self.group_order()
        if not total.is_finite:
            # a subgroup of a visibly infinite free product may still be
            # finite, but we only need this query for finite groups
            return OrderResult.exceeds(self.cap) if total.is_unknown else total
        words = list(words)
        m = total.value
        if self.moduli is not None:
            # a finite free product of cyclics is Z_m on the one generator
            # of order m, its other generators trivial
            exps = [sum(e for g, e in w if self.moduli[g] == m) for w in words]
            return OrderResult.finite(m // gcd(m, *exps))
        t = self.regular_table()
        orbit = {1}
        queue = [1]
        for c in queue:
            for w in words:
                d = t.trace(c, w)
                if d not in orbit:
                    orbit.add(d)
                    queue.append(d)
        return OrderResult.finite(len(orbit))

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
        if self.regular_table() is None:
            return TriState.UNKNOWN
        # u's conjugacy class, breadth first: in a finite group conjugating
        # by the generators alone reaches all of it
        target = self._element(v)
        seen = {self._element(u)}
        queue = [u]
        for w in queue:
            for g in self.pres.generators:
                c = wmul(((g, -1),), w, ((g, 1),))
                key = self._element(c)
                if key not in seen:
                    seen.add(key)
                    queue.append(c)
        return TriState.YES if target in seen else TriState.NO

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
    key = ("coeff" if isinstance(group, CoefficientGroup) else "pres",
           group.generators, group.relators, cap)
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
