"""Pairings attached to nanowords, their fillings, and derived invariants.

A pairing is a finite set with one distinguished element ``s`` and a
matrix of values in the abelianized orbit group; the non-distinguished
elements project to the ground alphabet.  A filling is the vector ``s``
plus a partition of the letters into admissible signed singletons and
pairs.  One walk grows fillings a group at a time and prunes every
filling that starts with a rejected prefix; it decides hyperbolicity,
the half-rank genus under a coefficient homomorphism, and their weak
(tuple) versions.  Alongside sit the per-orbit polynomial invariant,
shifts of pairings, and coverings of words.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import (
    FIXED,
    FREE,
    AlphabetError,
    InvolutiveAlphabet,
    PhiSpec,
    PiElement,
    Value,
)
from .intlinalg import IntegerLattice, integer_rank, rank_mod_p
from .moves import Move, validate_bridge
from .words import Nanoword, WordError, fresh_names


class PairingError(ValueError):
    """Raised for malformed pairings or mismatched ground alphabets."""


# ---------------------------------------------------------------------------
# pairing values and vectors
#
# Letters are indexed 1..m and the distinguished element is index 0, so a
# vector over the pairing is a sparse tuple of (index, coefficient).

SVector = tuple[tuple[int, int], ...]
S_VECTOR: SVector = ((0, 1),)


def _vector(entries: Mapping[int, int]) -> SVector:
    return tuple(sorted((i, c) for i, c in entries.items() if c != 0))


Coords = tuple[tuple[tuple[int, ...], ...], ...]


class AlphaPairing(Value):
    """A pairing stored as its dense coordinate table: ``coords[i][j]`` is
    the value on (i, j) as a ``PiElement`` stores it, in the ground
    alphabet's layout; index 0 is s.  Every kernel reads ``coords``;
    ``matrix`` is for display.  Kernels construct it from valid values;
    ``build`` checks a table given in loose parts."""

    def __init__(
        self,
        ground: InvolutiveAlphabet,
        proj: tuple[str, ...],
        names: tuple[str, ...],
        coords: Coords,
    ):
        fields = self.__dict__
        fields["ground"] = ground
        fields["proj"] = proj
        fields["names"] = names
        fields["coords"] = coords

    @staticmethod
    def build(
        ground: InvolutiveAlphabet,
        proj: Sequence[str],
        entries: Mapping[tuple[int, int], PiElement],
        names: Optional[Sequence[str]] = None,
    ) -> "AlphaPairing":
        """The table with the given entries, zero elsewhere; each entry is a
        ``PiElement`` over ``ground`` at (i, j) with 0 <= i, j <= m."""
        proj = tuple(proj)
        names = tuple(f"S{i + 1}" for i in range(len(proj))) if names is None else tuple(names)
        if len(names) != len(proj):
            raise PairingError("projection/name tables misaligned")
        for a in proj:
            ground.check(a)
        size = len(proj) + 1
        rows = [[(0,) * ground.dimension] * size for _ in range(size)]
        for (i, j), v in entries.items():
            inside = 0 <= i < size and 0 <= j < size
            if not (inside and isinstance(v, PiElement) and v.alphabet == ground):
                raise PairingError(f"entry ({i}, {j}) is off the table or not a value over ground")
            rows[i][j] = v.coords
        return AlphaPairing(ground, proj, names, tuple(map(tuple, rows)))

    @property
    def num_letters(self) -> int:
        return len(self.proj)

    @cached_property
    def matrix(self) -> tuple[tuple[PiElement, ...], ...]:
        """The table as ``PiElement``s."""
        return tuple(tuple(PiElement(self.ground, c) for c in row) for row in self.coords)

    def is_skew_symmetric(self) -> bool:
        coords, negate = self.coords, self.ground.negate
        size = self.num_letters + 1
        for i in range(size):
            if any(coords[i][i]):
                return False
            for j in range(i + 1, size):
                if coords[i][j] != negate(coords[j][i]):
                    return False
        return True

    def opposite(self) -> "AlphaPairing":
        rows = tuple(tuple(map(self.ground.negate, row)) for row in self.coords)
        return AlphaPairing(self.ground, self.proj, self.names, rows)

    def format_matrix(self) -> str:
        """The table as tab-separated lines, headed by the letter names."""
        labels = ("s",) + self.names
        lines = ["\t".join((" ",) + labels)]
        for lab, row in zip(labels, self.matrix):
            lines.append("\t".join((lab,) + tuple(str(v) for v in row)))
        return "\n".join(lines)


def sum_pairings(p1: AlphaPairing, p2: AlphaPairing) -> AlphaPairing:
    """Block sum: letters are kept orthogonal, the distinguished rows add."""
    if p1.ground != p2.ground:
        raise PairingError("ground alphabet mismatch")
    m1 = p1.num_letters
    zero = (0,) * len(p1.coords[0][0])
    pad = (zero,) * p2.num_letters
    head = (p1.ground.reduce(map(operator.add, p1.coords[0][0], p2.coords[0][0])),)
    rows = [head + p1.coords[0][1:] + p2.coords[0][1:]]
    rows += [row + pad for row in p1.coords[1:]]
    rows += [row[:1] + (zero,) * m1 + row[1:] for row in p2.coords[1:]]
    names = p1.names + fresh_names(p2.names, p1.names)
    return AlphaPairing(p1.ground, p1.proj + p2.proj, names, tuple(rows))


def r_of(p: AlphaPairing) -> PiElement:
    return PiElement(p.ground, p.coords[0][0])


def are_isomorphic(p1: AlphaPairing, p2: AlphaPairing) -> bool:
    """Search for a projection-preserving bijection of letters carrying one
    table to the other.  Intended for small pairings."""
    if p1.ground != p2.ground or sorted(p1.proj) != sorted(p2.proj):
        return False
    e1, e2 = p1.coords, p2.coords
    if e1[0][0] != e2[0][0]:
        return False
    m = p1.num_letters
    candidates = [
        [j for j in range(1, m + 1) if p2.proj[j - 1] == p1.proj[i - 1]]
        for i in range(1, m + 1)
    ]
    assignment: dict[int, int] = {0: 0}

    def extend(i: int) -> bool:
        if i > m:
            return True
        for j in candidates[i - 1]:
            if j in assignment.values():
                continue
            ok = all(
                e1[i][k] == e2[j][kk] and e1[k][i] == e2[kk][j]
                for k, kk in assignment.items()
            )
            if ok and e1[i][i] == e2[j][j]:
                assignment[i] = j
                if extend(i + 1):
                    return True
                del assignment[i]
        return False

    return extend(1)


# ---------------------------------------------------------------------------
# pairing of a nanoword


def pairing_of_nanoword(w: Nanoword) -> AlphaPairing:
    """Skew-symmetric pairing whose entries record how the spans of two
    letters interleave, weighted by the projections of the letters that
    cross them.

    Computed in coordinates: the projection of a letter is one signed unit
    coordinate, so each entry is a sum of integers per coordinate.  The
    table is accumulated one integer matrix per coordinate and one letter
    ``d`` at a time, when the scan reaches its second entry, from the
    letters whose spans hold its first and its second entry; the matrices
    of the fixed coordinates are then read mod 2, and the entries zipped
    into coordinate tuples."""
    ground = w.ground
    units = [ground.unit(a) for a in w.proj]
    size = w.num_letters + 1
    acc = [[[0] * size for _ in range(size)] for _ in range(ground.dimension)]
    holds_first: dict[int, set[int]] = {}  # open letter -> spans holding its first entry
    open_spans: set[int] = set()  # table indices of the letters whose span holds the scan
    partner = w.partner
    for p, x in enumerate(w.seq):
        d = x + 1
        if partner[p] > p:
            holds_first[d] = set(open_spans)
            open_spans.add(d)
            continue
        open_spans.discard(d)
        first, second = holds_first.pop(d), open_spans
        k, sign = units[x]
        acc_k = acc[k]
        # a span holding exactly one entry of d interleaves with it
        for a in first ^ second:
            n = 1 if a in first else -1
            ka, sign_a = units[a - 1]
            acc_k[a][0] += n * sign
            acc_k[0][a] -= n * sign
            acc_k[a][d] += n * sign
            acc[ka][a][d] += n * sign_a
        for a in first:
            for b in second:
                if a != b:
                    acc_k[a][b] += 2 * sign
                    acc_k[b][a] -= 2 * sign
    for k in range(ground.nfree, ground.dimension):
        acc[k] = [[v % 2 for v in row] for row in acc[k]]
    if not acc:  # no symbols: only the empty word, whose one value is ()
        return AlphaPairing(ground, w.proj, w.names, (((),),))
    rows = tuple(map(tuple, map(zip, *acc)))
    return AlphaPairing(ground, w.proj, w.names, rows)


def pairing_of_nanoword_alt(w: Nanoword) -> AlphaPairing:
    """Independent route to the same pairing through the three interleaving
    patterns of a pair of spans, written with single-crossing counts."""
    ground = w.ground
    m = w.num_letters
    occ = [w.occurrences(i) for i in range(m)]
    letter = [PiElement.of_letter(ground, a) for a in w.proj]
    zero = PiElement.zero(ground)

    def bracket(x: range, y: range) -> PiElement:
        acc = zero
        for (i, j), value in zip(occ, letter):
            if (i in x) + (j in x) == 1 and (i in y) + (j in y) == 1:
                acc = acc + value
        return acc

    def entry(a: int, b: int) -> PiElement:
        ia, ja = occ[a]
        ib, jb = occ[b]
        if ia > ib:
            return -entry(b, a)
        if ja < ib:  # disjoint spans: A x A y B z B
            x = range(ia + 1, ja)
            z = range(ib + 1, jb)
            return bracket(x, z).scaled(2)
        if jb < ja:  # nested spans: A x B y B z A
            x = range(ia + 1, ib)
            y = range(ib + 1, jb)
            z = range(jb + 1, ja)
            return (bracket(x, y) - bracket(y, z)).scaled(2)
        # linked spans: A x B y A z B
        x = range(ia + 1, ib)
        y = range(ib + 1, ja)
        z = range(ja + 1, jb)
        return (bracket(x, y) + bracket(x, z) + bracket(y, z)).scaled(2) + (letter[a] + letter[b])

    entries: dict[tuple[int, int], PiElement] = {}
    for a in range(m):
        ia, ja = occ[a]
        x = range(0, ia)
        y = range(ia + 1, ja)
        z = range(ja + 1, w.length)
        es = bracket(y, z) - bracket(x, y)
        entries[(a + 1, 0)] = es
        entries[(0, a + 1)] = -es
        for b in range(m):
            if a != b:
                entries[(a + 1, b + 1)] = entry(a, b)
    return AlphaPairing.build(ground, w.proj, entries, w.names)


# ---------------------------------------------------------------------------
# fillings and hyperbolicity


def _admissible_signs(ground: InvolutiveAlphabet, a: str, b: str) -> tuple[int, ...]:
    """Signs c such that A + c*B is a short vector for projections a, b."""
    signs = []
    if a == b:
        signs.append(1)
    if a == ground.tau(b):
        signs.append(-1)
    return tuple(signs)


# ---------------------------------------------------------------------------
# the filling walk
#
# One walk grows the fillings of a pairing, and the normalized weak fillings
# of a tuple of pairings (below), a slot at a time.  A slot is an SVector
# over a table laid out like a pairing's: index t < r is the distinguished
# element of pairing t and index r + g is letter g (r = 1 on a pairing's own
# table).  Slot 0 is s_1 + ... + s_r.  Each further slot takes a group, the
# lowest unplaced letter alone or with a later admissible partner and sign,
# and then that group's coefficient vector for s_1..s_r (zero when r = 1).
# The walk grows the Gram matrix of the slots chosen so far by one row and
# one column per slot and asks the caller's admit of every prefix.  That
# matrix is the leading principal submatrix of the Gram matrix of every
# completion, so its rank bounds theirs from below and its nonzero entries
# stay nonzero: a prefix of rank at least the best so far (genus) or with a
# nonvanishing entry (hyperbolicity) is rejected, and that prunes every
# filling starting with it, whatever partition of the other letters follows.
#
# Leaves come in group-then-coefficient order: the singleton before the
# pairs, partners by increasing index, +1 before -1.  The order matters
# because the hyperbolicity searches return the first vanishing filling
# reached: another order could change the witness or the ``nanocob
# fillings`` listing, though never the verdict.  The genus searches return
# no witness and take the pairs before the singleton (``_pairs_first``):
# their first leaves then have few slots and a low rank, so the bound
# prunes early.  Their order changes the work done, never the genus.


def _walk_fillings(
    table: AlphaPairing | TupleSpace,
    pair: Callable[[SVector, SVector], object],
    admit: Callable[[list[list]], bool],
    s_bound: int = 1,
    *,
    _pairs_first: bool = False,
) -> Iterator[tuple[SVector, ...]]:
    """The fillings of ``table`` whose every prefix ``admit`` accepts, as
    tuples of slots.  ``pair(x, y)`` is the Gram entry of two slots;
    ``admit(gram)`` must reject a prefix only when it rejects every
    completion.  ``s_bound`` bounds a tuple's distinguished coefficients;
    ``_pairs_first`` tries each letter's pairs before it alone."""
    ground, proj = table.ground, table.proj
    r = len(table.coords) - len(proj)
    start = tuple((t, 1) for t in range(r))
    coefficients = ((),)
    if r > 1:
        # s_1..s_{r-1} need coefficients of their own only when a row or
        # column of theirs holds an entry that ``pair`` tells apart from
        # the empty sum; s_r's is pinned to 0
        empty = pair((), ())
        if any(
            pair(((t, 1),), ((j, 1),)) != empty or pair(((j, 1),), ((t, 1),)) != empty
            for t in range(r - 1)
            for j in range(len(table.coords))
        ):
            span = range(-2 * s_bound, 2 * s_bound + 1)
            coefficients = tuple(
                tuple((t, c) for t, c in enumerate(d) if c)
                for d in itertools.product(span, repeat=r - 1)
            )
    slots = [start]
    gram = [[pair(start, start)]]

    def grow(remaining: tuple[int, ...]):
        if not admit(gram):
            return
        if not remaining:
            yield tuple(slots)
            return
        head, rest = remaining[0], remaining[1:]
        alone = ((r + head, 1),)
        pairs = [
            (alone + ((r + other, sign),), rest[:pos] + rest[pos + 1 :])
            for pos, other in enumerate(rest)
            for sign in _admissible_signs(ground, proj[head], proj[other])
        ]
        groups = pairs + [(alone, rest)] if _pairs_first else [(alone, rest)] + pairs
        for group, left in groups:
            for coefficient in coefficients:
                x = coefficient + group
                for row, y in zip(gram, slots):
                    row.append(pair(y, x))
                slots.append(x)
                gram.append([pair(x, y) for y in slots])
                yield from grow(left)
                slots.pop()
                gram.pop()
                for row in gram:
                    row.pop()

    return grow(tuple(range(len(proj))))


_newest = operator.itemgetter(-1)


def _newest_vanish(gram: list[list]) -> bool:
    # the older entries vanished when their prefix was admitted
    return all(gram[-1]) and all(map(_newest, gram))


def annihilating_fillings(
    table: AlphaPairing | TupleSpace, s_bound: int = 1
) -> Iterator[tuple[SVector, ...]]:
    """The fillings of ``table`` whose Gram matrix vanishes, in walk order;
    a prefix with a nonvanishing entry prunes every filling it starts."""
    return _walk_fillings(table, functools.partial(_vanishes, table), _newest_vanish, s_bound)


def enumerate_fillings(p: AlphaPairing) -> Iterator[tuple[SVector, ...]]:
    """All fillings: the vector s plus a partition of the letters into
    singletons and admissible signed pairs, as the filling walk reaches
    them with nothing pruned."""
    return _walk_fillings(p, lambda x, y: None, lambda gram: True)


def count_fillings(p: AlphaPairing) -> int:
    """How many fillings ``enumerate_fillings`` yields, without the walk:
    pairs never cross orbits, so the count is a product over orbits of
    ``c(n)``, for the ``n`` letters projecting into the orbit and the ``s``
    admissible signs of a pair of them, where ``c(0) = c(1) = 1`` and
    ``c(n) = c(n - 1) + s * (n - 1) * c(n - 2)``: the lowest letter alone,
    or paired with one of the others under one of ``s`` signs."""
    total = 1
    for rep, n in Counter(map(p.ground.orbit_rep, p.proj)).items():
        s = len(_admissible_signs(p.ground, rep, rep))
        before, count = 1, 1  # c(k - 2) and c(k - 1)
        for k in range(2, n + 1):
            before, count = count, count + s * (k - 1) * before
        total *= count
    return total


def tautological_filling(p: AlphaPairing) -> tuple[SVector, ...]:
    return (S_VECTOR,) + tuple(((i, 1),) for i in range(1, p.num_letters + 1))


def _vanishes(p: AlphaPairing | TupleSpace, x: SVector, y: SVector) -> bool:
    """Whether the bilinear value of x and y is zero, read off the table
    ``coords`` of a pairing or a tuple space (free coordinates exactly,
    fixed ones mod 2)."""
    coords = p.coords
    acc = [0] * p.ground.dimension
    for i, c in x:
        row = coords[i]
        for j, d in y:
            k = c * d
            for t, v in enumerate(row[j]):
                acc[t] += k * v
    return not any(p.ground.reduce(acc))


def filling_is_annihilating(p: AlphaPairing, filling: Sequence[SVector]) -> bool:
    return all(_vanishes(p, x, y) for x in filling for y in filling)


def is_hyperbolic(p: AlphaPairing) -> Optional[tuple[SVector, ...]]:
    """The first annihilating filling the walk reaches, or None."""
    return next(annihilating_fillings(p), None)


def are_cobordant(p1: AlphaPairing, p2: AlphaPairing) -> bool:
    return is_hyperbolic(sum_pairings(p1, p2.opposite())) is not None


def format_vector(p: AlphaPairing, v: SVector) -> str:
    parts = []
    for i, c in v:
        name = "s" if i == 0 else p.names[i - 1]
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+") + mag + name)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else (out or "0")


# ---------------------------------------------------------------------------
# genus


class Genus(Value):
    """Half the rank of a filling Gram matrix, stored doubled so
    half-integers stay exact."""

    def __init__(self, twice: int):
        if twice < 0:
            raise PairingError("genus cannot be negative")
        self.__dict__["twice"] = twice

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"


def _gram_rank(phi: PhiSpec, gram: list[list[int]]) -> int:
    """Rank of a Gram matrix of phi-values: integer entries, read mod p
    over GF(p)."""
    return rank_mod_p(gram, phi.prime) if phi.prime else integer_rank(gram)


def _phi_matrix(p: AlphaPairing | TupleSpace, phi: PhiSpec) -> list[list]:
    """Scalar image of the table of a pairing or a tuple space."""
    scalar = phi.scalar(p.ground)
    return [list(map(scalar, row)) for row in p.coords]


def _scalar_value(matrix: list[list], x: SVector, y: SVector):
    """The bilinear value of x and y on a scalar image of the table."""
    acc = 0
    for i, c in x:
        row = matrix[i]
        for j, d in y:
            acc += c * d * row[j]
    return acc


def _least_rank(table: AlphaPairing | TupleSpace, phi: PhiSpec, s_bound: int = 1) -> Genus:
    """Half the least Gram rank under ``phi`` over the fillings of ``table``."""
    best: Optional[int] = None
    asked: list[list] = []
    rank: Optional[int] = None

    def below_best(gram):
        nonlocal asked, rank
        asked, rank = gram, None
        # a prefix of fewer slots than the best rank has a smaller rank
        if best is None or len(gram) < best:
            return True
        rank = _gram_rank(phi, gram)
        return rank < best

    # an accepted filling beats the best so far; ``asked`` is the walk's
    # Gram matrix, which holds the filling's when the walk yields it, and
    # ``rank`` its rank when ``below_best`` had to compute it
    value = functools.partial(_scalar_value, _phi_matrix(table, phi))
    for _ in _walk_fillings(table, value, below_best, s_bound, _pairs_first=True):
        best = _gram_rank(phi, asked) if rank is None else rank
        if best == 0:
            break
    assert best is not None  # the tautological filling always exists
    return Genus(best)


def genus_of_filling(
    p: AlphaPairing, phi: PhiSpec, filling: Sequence[SVector]
) -> Genus:
    matrix = _phi_matrix(p, phi)
    gram = [[_scalar_value(matrix, x, y) for y in filling] for x in filling]
    return Genus(_gram_rank(phi, gram))


def genus(p: AlphaPairing, phi: PhiSpec) -> Genus:
    """Half the least Gram rank over the fillings of ``p``."""
    return _least_rank(p, phi)


@functools.cache
def phi_sign_battery(alphabet: InvolutiveAlphabet) -> tuple[PhiSpec, ...]:
    """Every assignment of +-1 to the free orbit representatives (fixed
    points go to 0), deduplicated by global negation.  Kept per alphabet:
    the maps are immutable values."""
    reps = alphabet.free_reps()
    if not reps:
        return (PhiSpec.rationals(alphabet, {}),)
    battery = []
    for signs in itertools.product((1, -1), repeat=len(reps) - 1):
        battery.append(PhiSpec.rationals(alphabet, dict(zip(reps, (1,) + signs))))
    return tuple(battery)


# ---------------------------------------------------------------------------
# the per-orbit polynomial invariant


def _normalize_monomial(g: PiElement) -> tuple[PiElement, int, bool]:
    """Sign-normalized representative of {g, -g}: the first nonzero
    free-orbit coefficient is made positive.  Returns (key, sign,
    self_negative); a monomial without free part equals its own negative."""
    for coeff in g.coords[: g.alphabet.nfree]:
        if coeff:
            return (-g, -1, False) if coeff < 0 else (g, 1, False)
    return g, 1, True


class OrbitPoly(Value):
    """Value of the polynomial invariant on one orbit: a combination of
    basis monomials modulo inversion of the variables (and modulo 2 on
    fixed orbits and on self-inverse monomials).  ``kind`` is
    ``algebra.FREE`` or ``algebra.FIXED``."""

    def __init__(self, kind: str, terms: tuple[tuple[PiElement, int], ...]):
        fields = self.__dict__
        fields["kind"] = kind
        fields["terms"] = terms

    @staticmethod
    def build(kind: str, deltas: Iterable[tuple[PiElement, int]]) -> "OrbitPoly":
        acc: dict[PiElement, tuple[int, bool]] = {}
        for g, coeff in deltas:
            if g.is_zero() or coeff == 0:
                continue
            key, sign, selfneg = _normalize_monomial(g)
            mod2 = selfneg or kind == "fixed"
            old = acc.get(key, (0, mod2))[0]
            new = old + (coeff if mod2 else sign * coeff)
            if mod2:
                new %= 2
            acc[key] = (new, mod2)
        terms = tuple(
            sorted(
                ((k, c) for k, (c, _) in acc.items() if c != 0),
                key=lambda kv: (kv[0].free, kv[0].torsion),
            )
        )
        return OrbitPoly(kind, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __neg__(self) -> "OrbitPoly":
        return OrbitPoly.build(self.kind, ((g, -c) for g, c in self.terms))

    def __add__(self, other: "OrbitPoly") -> "OrbitPoly":
        if self.kind != other.kind:
            raise PairingError("cannot add values on orbits of different kinds")
        return OrbitPoly.build(self.kind, self.terms + other.terms)

    def degree(self) -> int:
        """Largest total degree of a monomial present; 0 for the zero value."""
        return max((sum(map(abs, g.coords)) for g, _ in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g, c in self.terms:
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(("-" if c < 0 else "+") + mag + f"[{g}]")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


class UPoly(Value):
    """The polynomial invariant, one value per orbit representative; the
    value on the other orbit member is the negation."""

    def __init__(self, alphabet: InvolutiveAlphabet, entries: tuple[tuple[str, OrbitPoly], ...]):
        fields = self.__dict__
        fields["alphabet"] = alphabet
        fields["entries"] = entries

    def value(self, symbol: str) -> OrbitPoly:
        rep = self.alphabet.orbit_rep(symbol)
        stored = dict(self.entries)[rep]
        return stored if symbol == rep else -stored

    def is_zero(self) -> bool:
        return all(v.is_zero() for _, v in self.entries)

    def __add__(self, other: "UPoly") -> "UPoly":
        if self.alphabet != other.alphabet:
            raise AlphabetError("ground alphabet mismatch")
        o = dict(other.entries)
        return UPoly(
            self.alphabet,
            tuple((rep, v + o[rep]) for rep, v in self.entries),
        )

    def __neg__(self) -> "UPoly":
        return UPoly(self.alphabet, tuple((rep, -v) for rep, v in self.entries))

    def fingerprint(self) -> str:
        """The CRC-32 of the ``u`` text in 8 hex digits: equal ``u`` gives
        an equal fingerprint.  It is not a ``hashlib`` digest, so no
        command loads OpenSSL."""
        import binascii

        text = ";".join(f"{rep}:{v}" for rep, v in self.entries)
        return f"{binascii.crc32(text.encode()):08x}"

    def __str__(self) -> str:
        return ", ".join(f"u({rep})={v}" for rep, v in self.entries)


def u_polynomial(p: AlphaPairing) -> UPoly:
    ground = p.ground
    by_symbol: dict[str, list[PiElement]] = {a: [] for a in ground.symbols}
    for a, row in zip(p.proj, p.coords[1:]):
        if any(row[0]):
            by_symbol[a].append(PiElement(ground, row[0]))
    entries = []
    for rep, other in ground.pairs:
        deltas = [(g, 1) for g in by_symbol[rep]]
        if rep != other:
            deltas += [(g, -1) for g in by_symbol[other]]
        entries.append((rep, OrbitPoly.build(FIXED if rep == other else FREE, deltas)))
    return UPoly(ground, tuple(entries))


def u_polynomial_of_nanoword(w: Nanoword) -> UPoly:
    return u_polynomial(pairing_of_nanoword(w))


def u_degree(u: UPoly, symbol: str) -> int:
    if u.alphabet.fixed_reps():
        raise AlphabetError("degree requires a fixed-point-free involution")
    return u.value(symbol).degree()


# ---------------------------------------------------------------------------
# surgery consistency


def verify_surgery_filling(w: Nanoword, surgery: Move) -> bool:
    """Check the orthogonality relations behind surgery invariance and that
    the associated filling annihilates the summed pairing.  Raises
    WordError unless ``surgery`` deletes an even symmetric factor of ``w``
    (``Move.factor``)."""
    letters, segments = surgery.factor(w)
    witness = validate_bridge(w, letters, segments, range(len(segments)))
    if witness is None:
        raise WordError(f"segments {segments} are not an even symmetric factor")
    iota = dict(witness.iota)
    eps = dict(witness.epsilon)
    b_letters = sorted(iota)
    b_plus = [b for b in b_letters if b <= iota[b]]
    c_letters = [i for i in range(w.num_letters) if i not in iota]

    p_w = pairing_of_nanoword(w)
    x_word, relabel = w.delete_letters(b_letters)
    p_x = pairing_of_nanoword(x_word)

    def lam(b: int) -> SVector:
        if iota[b] == b:
            return ((b + 1, 1),)
        return _vector({b + 1: 1, iota[b] + 1: (-1) ** eps[b]})

    # orthogonality inside the pairing of w
    if not filling_is_annihilating(p_w, [lam(b) for b in b_plus]):
        return False
    for b in b_plus:
        if not _vanishes(p_w, lam(b), S_VECTOR):
            return False
        for c in c_letters:
            if not _vanishes(p_w, lam(b), ((c + 1, 1),)):
                return False

    # the induced filling of p(w) (+) p(x)^- must annihilate
    total = sum_pairings(p_w, p_x.opposite())
    offset = p_w.num_letters
    filling: list[SVector] = [S_VECTOR]
    for c in c_letters:
        filling.append(_vector({c + 1: 1, offset + relabel[c] + 1: 1}))
    filling.extend(lam(b) for b in b_plus)
    return filling_is_annihilating(total, filling)


# ---------------------------------------------------------------------------
# weak fillings and tuples


class WeakVector(Value):
    """Vector over a tuple of pairings: a combination of letters, as
    ``(global letter index, coeff)`` pairs, plus one coefficient per
    distinguished element."""

    def __init__(self, letters: tuple[tuple[int, int], ...], s_coeffs: tuple[int, ...]):
        fields = self.__dict__
        fields["letters"] = letters
        fields["s_coeffs"] = s_coeffs


class TupleSpace(Value):
    """Disjoint union of the letter sets of several pairings with the
    block-orthogonal bilinear extension."""

    def __init__(self, pairings: tuple[AlphaPairing, ...]):
        if not pairings:
            raise PairingError("a weak filling needs at least one pairing")
        ground = pairings[0].ground
        for p in pairings:
            if p.ground != ground:
                raise PairingError("ground alphabet mismatch")
        self.__dict__["pairings"] = pairings

    @property
    def ground(self) -> InvolutiveAlphabet:
        return self.pairings[0].ground

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = []
        total = 0
        for p in self.pairings:
            out.append(total)
            total += p.num_letters
        return tuple(out)

    @cached_property
    def proj(self) -> tuple[str, ...]:
        """Projections of all letters, in global letter order."""
        return tuple(a for p in self.pairings for a in p.proj)

    @property
    def num_letters(self) -> int:
        return len(self.proj)

    @cached_property
    def coords(self) -> Coords:
        """One table laid out like a pairing's: index t < r is the
        distinguished element of pairing t, index r + g is global letter g,
        and entries between pairings are zero."""
        r = len(self.pairings)
        size = r + self.num_letters
        zero = (0,) * self.ground.dimension
        rows = [[zero] * size for _ in range(size)]
        for t, (p, off) in enumerate(zip(self.pairings, self.offsets)):
            index = (t,) + tuple(range(r + off, r + off + p.num_letters))
            for i, row in zip(index, p.coords):
                for j, v in zip(index, row):
                    rows[i][j] = v
        return tuple(map(tuple, rows))


# Adding a multiple of the distinguished vector s_1+...+s_r to any other
# vector of a weak filling changes neither its span nor, consequently, the
# Gram rank or annihilation.  Modulo that move a coefficient box
# [-s_bound, s_bound]^r reduces to difference coefficients against the last
# block, each ranging over [-2*s_bound, 2*s_bound], with the last component
# pinned to 0.  The filling walk enumerates those representatives on the
# tuple space's table; the verdicts agree exactly with the literal box
# search kept as a test oracle (tests/_pairing_oracle.py, checked in
# TestWeakBoxOracle).


def _weak_vector(r: int, slot: SVector) -> WeakVector:
    coeffs = dict(slot)
    return WeakVector(
        tuple((i - r, c) for i, c in slot if i >= r), tuple(coeffs.get(t, 0) for t in range(r))
    )


def _tuple_space(pairings: Sequence[AlphaPairing], s_bound: int) -> TupleSpace:
    if s_bound < 1:
        raise PairingError("s_bound must be at least 1")
    return TupleSpace(tuple(pairings))


def is_hyperbolic_tuple(
    pairings: Sequence[AlphaPairing], s_bound: int = 2
) -> Optional[tuple[WeakVector, ...]]:
    """One-sided hyperbolicity search: a returned weak filling annihilates;
    None only means the bounded search found nothing."""
    space = _tuple_space(pairings, s_bound)
    slots = next(annihilating_fillings(space, s_bound), None)
    if slots is None:
        return None
    return tuple(_weak_vector(len(space.pairings), x) for x in slots)


def weakly_cobordant(p: AlphaPairing, q: AlphaPairing, s_bound: int = 2) -> bool:
    return is_hyperbolic_tuple((p, q.opposite()), s_bound) is not None


def tuple_genus(
    pairings: Sequence[AlphaPairing], phi: PhiSpec, s_bound: int = 2
) -> Genus:
    """Minimal half-rank over the bounded weak fillings: an upper bound for
    the true minimum, exact when the optimum has coefficients in range."""
    return _least_rank(_tuple_space(pairings, s_bound), phi, s_bound)


# ---------------------------------------------------------------------------
# shifts of pairings and coverings of words


def m_shift(p: AlphaPairing, letter: int, m: int) -> AlphaPairing:
    """Replace one letter by a fresh one projecting to tau of its value;
    the new row is m*(s-row) minus the old row.  Requires skew symmetry."""
    if not p.is_skew_symmetric():
        raise PairingError("shift is defined for skew-symmetric pairings")
    if not 1 <= letter <= p.num_letters:
        raise PairingError("letter index out of range")
    ground = p.ground
    coords = p.coords
    rows = [list(r) for r in coords]
    for j in range(p.num_letters + 1):
        if j == letter:
            continue
        val = ground.reduce(m * a - b for a, b in zip(coords[0][j], coords[letter][j]))
        rows[letter][j] = val
        rows[j][letter] = ground.negate(val)
    rows[letter][letter] = (0,) * len(coords[0][0])
    proj = list(p.proj)
    proj[letter - 1] = ground.tau(proj[letter - 1])
    names = list(p.names)
    (names[letter - 1],) = fresh_names([names[letter - 1] + "~"], names, "~")
    return AlphaPairing(ground, tuple(proj), tuple(names), tuple(map(tuple, rows)))


def covering(w: Nanoword, subgroups: Mapping[str, Sequence[PiElement]]) -> Nanoword:
    """Keep only the letters whose distinguished pairing value lies in the
    subgroup attached to their projection's orbit.

    ``subgroups`` maps orbit representatives to generator lists; orbits not
    mentioned default to the zero subgroup.
    """
    ground = w.ground
    dim = ground.dimension

    by_rep: dict[str, list[PiElement]] = {}
    for key, gens in subgroups.items():
        by_rep.setdefault(ground.orbit_rep(key), []).extend(gens)

    lattices: dict[str, IntegerLattice] = {}
    for rep, _ in ground.pairs:
        gens = [g.coords for g in by_rep.get(rep, ())]
        # fixed coordinates are read mod 2
        gens.extend(
            tuple(2 if i == k else 0 for i in range(dim)) for k in range(ground.nfree, dim)
        )
        lattices[rep] = IntegerLattice(dim, gens)

    p = pairing_of_nanoword(w)
    doomed = [
        i
        for i in range(w.num_letters)
        if not lattices[ground.orbit_rep(w.proj[i])].contains(p.coords[i + 1][0])
    ]
    word, _ = w.delete_letters(doomed)
    return word


def full_subgroups(ground: InvolutiveAlphabet) -> dict[str, list[PiElement]]:
    """Generator lists presenting the whole value group, per orbit."""
    gens = [PiElement.of_letter(ground, rep) for rep, _ in ground.pairs]
    return {rep: list(gens) for rep, _ in ground.pairs}
