"""The pairing routes the coordinate kernels and the filling walk
replaced, kept as test oracles.

Values are ``PiElement``s read from ``AlphaPairing.matrix`` and combined
with sparse group arithmetic; the weak fillings are the literal box of
coefficient vectors, not the normalized representatives the filling walk
in ``nanocob.pairings`` visits.  The flat searches rank or check every
whole filling of a pairing, and the matching-major search walks each
matching from the root in turn.  The product search walks the normalized
representatives without pruning, ranked or checked leaf by leaf; it reads
Gram matrices off per-matching term tables, one per scalar image of the
coordinates, instead of the tuple space's one table.
"""

import functools
import itertools
import operator
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from nanocob.algebra import AlphabetError, InvolutiveAlphabet, PhiSpec, PiElement
from nanocob.pairings import (
    S_VECTOR,
    AlphaPairing,
    Genus,
    PairingError,
    SVector,
    TupleSpace,
    WeakVector,
    _admissible_signs,
    _gram_rank,
    _phi_matrix,
    _scalar_value,
    _vanishes,
    filling_is_annihilating,
)


# ---------------------------------------------------------------------------
# the flat filling searches and the matching-major weak search


def _matchings(
    ground: InvolutiveAlphabet, proj: Sequence[str], first: int, prefix: tuple
) -> Iterator[tuple[SVector, ...]]:
    """``prefix`` followed by each partition of the letters ``first``,
    ``first + 1``, ... (projecting to ``proj``) into singletons and
    admissible signed pairs.  Deterministic order, letters processed by
    index, partners proposed in increasing index order."""

    def rec(remaining: tuple[int, ...], acc: list[SVector]) -> Iterator[tuple[SVector, ...]]:
        if not remaining:
            yield prefix + tuple(acc)
            return
        head, rest = remaining[0], remaining[1:]
        acc.append(((head, 1),))
        yield from rec(rest, acc)
        acc.pop()
        for pos, other in enumerate(rest):
            for sign in _admissible_signs(ground, proj[head - first], proj[other - first]):
                acc.append(((head, 1), (other, sign)))
                yield from rec(rest[:pos] + rest[pos + 1 :], acc)
                acc.pop()

    return rec(tuple(range(first, first + len(proj))), [])


def flat_fillings(p: AlphaPairing) -> Iterator[tuple[SVector, ...]]:
    """All fillings: the vector s plus a partition of the letters into
    singletons and admissible signed pairs."""
    return _matchings(p.ground, p.proj, 1, (S_VECTOR,))


def flat_is_hyperbolic(p: AlphaPairing) -> Optional[tuple[SVector, ...]]:
    for filling in flat_fillings(p):
        if filling_is_annihilating(p, filling):
            return filling
    return None


def _scalar_gram(matrix: list[list], filling: Sequence[SVector]) -> list[list]:
    # _scalar_value per entry, inlined: a call per entry made this loop
    # about 40% slower (2-core host, Python 3.11)
    gram = []
    for x in filling:
        row = []
        for y in filling:
            acc = 0
            for i, c in x:
                for j, d in y:
                    acc += c * d * matrix[i][j]
            row.append(acc)
        gram.append(row)
    return gram


def flat_genus(p: AlphaPairing, phi: PhiSpec) -> Genus:
    matrix = _phi_matrix(p, phi)
    best: Optional[int] = None
    for filling in flat_fillings(p):
        rank = _gram_rank(phi, _scalar_gram(matrix, filling))
        if best is None or rank < best:
            best = rank
        if best == 0:
            break
    assert best is not None  # the tautological filling always exists
    return Genus(best)


def matching_weak_search(
    space: TupleSpace,
    s_bound: int,
    pair: Callable[[SVector, SVector], object],
    admit: Callable[[list[list]], bool],
):
    """The normalized weak fillings that ``admit`` accepts, in search order.
    ``pair(x, y)`` is the Gram entry of two slots over ``space.coords``.
    ``admit(gram)`` is asked of the Gram matrix of every prefix of slots
    (slot 0 is s_1 + ... + s_r) and must reject a prefix only when it
    rejects every completion.  Yields per accepted candidate the
    coefficient-vector index of each slot, the matching and the
    coefficient vectors."""
    r = len(space.pairings)
    size = r + space.num_letters
    # s_1..s_{r-1} need coefficients of their own only when a row or column
    # of theirs holds an entry that ``pair`` tells apart from the empty sum
    empty = pair((), ())
    relevant = any(
        pair(((t, 1),), ((j, 1),)) != empty or pair(((j, 1),), ((t, 1),)) != empty
        for t in range(r - 1)
        for j in range(size)
    )
    spread = (
        tuple(
            d + (0,)
            for d in itertools.product(range(-2 * s_bound, 2 * s_bound + 1), repeat=r - 1)
        )
        if relevant
        else ((0,) * r,)
    )
    vectors = ((1,) * r,) + spread
    heads = [tuple((t, c) for t, c in enumerate(v) if c) for v in vectors]
    choices = range(1, len(vectors))
    for matching in _matchings(space.ground, space.proj, 0, ()):
        letters = [tuple((r + g, a) for g, a in group) for group in matching]
        slots = [heads[0]]
        gram = [[pair(heads[0], heads[0])]]

        def walk(keys):
            if not admit(gram):
                return
            if len(keys) > len(matching):
                yield keys, matching, vectors
                return
            tail = letters[len(keys) - 1]
            for k in choices:
                x = heads[k] + tail
                for row, y in zip(gram, slots):
                    row.append(pair(y, x))
                slots.append(x)
                gram.append([pair(x, y) for y in slots])
                yield from walk(keys + (k,))
                slots.pop()
                gram.pop()
                for row in gram:
                    row.pop()

        yield from walk((0,))


def matching_is_hyperbolic_tuple(
    pairings: Sequence[AlphaPairing], s_bound: int = 2
) -> Optional[tuple[WeakVector, ...]]:
    """``is_hyperbolic_tuple`` on the matching-major search."""
    if s_bound < 1:
        raise PairingError("s_bound must be at least 1")
    space = TupleSpace(tuple(pairings))

    def newest_vanish(gram):
        # the older entries vanished when their prefix was admitted
        return all(gram[-1]) and all(row[-1] for row in gram)

    vanishes = functools.partial(_vanishes, space)
    for keys, matching, vectors in matching_weak_search(space, s_bound, vanishes, newest_vanish):
        return tuple(WeakVector(group, vectors[k]) for group, k in zip(((),) + matching, keys))
    return None


def matching_tuple_genus(
    pairings: Sequence[AlphaPairing], phi: PhiSpec, s_bound: int = 2
) -> Genus:
    """``tuple_genus`` on the matching-major search."""
    if s_bound < 1:
        raise PairingError("s_bound must be at least 1")
    space = TupleSpace(tuple(pairings))
    best: Optional[int] = None
    rank = 0

    def below_best(gram):
        nonlocal rank
        rank = _gram_rank(phi, gram)
        return best is None or rank < best

    # an accepted candidate beats the best so far; ``rank`` is still its
    # rank, as below_best ran on it last
    value = functools.partial(_scalar_value, _phi_matrix(space, phi))
    for _ in matching_weak_search(space, s_bound, value, below_best):
        best = rank
        if best == 0:
            break
    assert best is not None
    return Genus(best)


# ---------------------------------------------------------------------------
# sparse evaluation


def evaluate(p: AlphaPairing, x: SVector, y: SVector) -> PiElement:
    """Bilinear extension of the matrix to integer combinations."""
    acc = PiElement.zero(p.ground)
    for i, c in x:
        for j, d in y:
            acc = acc + p.matrix[i][j].scaled(c * d)
    return acc


def locate(space: TupleSpace, letter: int) -> tuple[int, int]:
    for block in reversed(range(len(space.pairings))):
        if letter >= space.offsets[block]:
            return block, letter - space.offsets[block] + 1
    raise PairingError("letter index out of range")


def tuple_evaluate(space: TupleSpace, x: WeakVector, y: WeakVector) -> PiElement:
    acc = PiElement.zero(space.ground)
    # letter-letter terms within blocks
    for i, c in x.letters:
        bi, li = locate(space, i)
        for j, d in y.letters:
            bj, lj = locate(space, j)
            if bi == bj:
                acc = acc + space.pairings[bi].matrix[li][lj].scaled(c * d)
    # letter-s and s-letter terms
    for i, c in x.letters:
        b, l = locate(space, i)
        acc = acc + space.pairings[b].matrix[l][0].scaled(c * y.s_coeffs[b])
    for j, d in y.letters:
        b, l = locate(space, j)
        acc = acc + space.pairings[b].matrix[0][l].scaled(x.s_coeffs[b] * d)
    for b, p in enumerate(space.pairings):
        acc = acc + p.matrix[0][0].scaled(x.s_coeffs[b] * y.s_coeffs[b])
    return acc


def distinguished(space: TupleSpace) -> WeakVector:
    return WeakVector((), (1,) * len(space.pairings))


def enumerate_weak_fillings(
    pairings: Sequence[AlphaPairing], s_bound: int = 2
) -> Iterator[tuple[WeakVector, ...]]:
    """Weak fillings with every distinguished coefficient in
    [-s_bound, s_bound].  The first vector is always s_1 + ... + s_r."""
    if s_bound < 1:
        raise PairingError("s_bound must be at least 1")
    space = TupleSpace(tuple(pairings))
    r = len(space.pairings)
    coeff_range = range(-s_bound, s_bound + 1)
    for matching in _matchings(space.ground, space.proj, 0, ()):
        pools = [itertools.product(coeff_range, repeat=r) for _ in matching]
        for combo in itertools.product(*pools):
            yield (distinguished(space),) + tuple(
                WeakVector(group, tuple(cs)) for group, cs in zip(matching, combo)
            )


# ---------------------------------------------------------------------------
# the product-order weak search
#
# Per matching, a Gram entry of a weak filling is assembled from four term
# tables in one scalar image of the coordinates: ``Lb`` pairs the letter
# parts of two slots, ``Rt`` and ``Ct`` pair a letter part with the
# distinguished part of the other slot, and ``Dt`` pairs two distinguished
# parts.


def _weak_tables(space: TupleSpace, scalar):
    """Per-letter tables of one scalar image of the pairing coordinates:
    within-block entries B, rows against each distinguished element R,
    columns C, and the distinguished self-values D."""
    m = space.num_letters
    r = len(space.pairings)
    B = [[0] * m for _ in range(m)]
    R = [[0] * r for _ in range(m)]
    C = [[0] * r for _ in range(m)]
    D = [scalar(p.coords[0][0]) for p in space.pairings]
    for t, p in enumerate(space.pairings):
        off = space.offsets[t]
        coords = p.coords
        for li in range(1, p.num_letters + 1):
            gi = off + li - 1
            R[gi][t] = scalar(coords[li][0])
            C[gi][t] = scalar(coords[0][li])
            for lj in range(1, p.num_letters + 1):
                B[gi][off + lj - 1] = scalar(coords[li][lj])
    return B, R, C, D


def _matching_terms(groups, tables, vectors):
    """Gram terms of one matching in one scalar image.  Slot 0 is the
    distinguished vector and slot x > 0 the letter group ``groups[x - 1]``;
    ``Lb[x][y]`` pairs the letter parts of two slots, ``Rt[x][k]`` pairs
    the letter part of slot x with the distinguished elements weighted by
    coefficient vector k, and ``Ct[y][k]`` is the same in the other order."""
    B, R, C, _ = tables
    r = len(vectors[0])
    slots = ((),) + tuple(groups)
    Lb = [[sum(a * b * B[i][j] for i, a in gx for j, b in gy) for gy in slots] for gx in slots]
    Lr = [[sum(a * R[i][t] for i, a in g) for t in range(r)] for g in slots]
    Lc = [[sum(a * C[i][t] for i, a in g) for t in range(r)] for g in slots]
    Rt = [[sum(map(operator.mul, v, row)) for v in vectors] for row in Lr]
    Ct = [[sum(map(operator.mul, v, row)) for v in vectors] for row in Lc]
    return Lb, Rt, Ct


def _gram(terms, keys: Sequence[int]) -> list[list]:
    """Gram matrix of one candidate; ``keys`` gives the coefficient vector
    of each slot as an index.  ``Dt[k][l]`` pairs the distinguished parts
    of coefficient vectors k and l."""
    Lb, Rt, Ct, Dt = terms
    return [
        [Lb[x][y] + Rt[x][ky] + Ct[y][kx] + Dt[kx][ky] for y, ky in enumerate(keys)]
        for x, kx in enumerate(keys)
    ]


def product_weak_search(space: TupleSpace, s_bound: int, scalars: Sequence[Callable]):
    """The normalized weak fillings in product order, with their Gram terms
    in each scalar image: per matching, every tuple of coefficient-vector
    indices from ``itertools.product``."""
    r = len(space.pairings)
    tables = [_weak_tables(space, scalar) for scalar in scalars]
    relevant = any(
        D[t] or any(row[t] for row in R) or any(row[t] for row in C)
        for _, R, C, D in tables
        for t in range(r - 1)
    )
    spread = (
        tuple(
            d + (0,)
            for d in itertools.product(range(-2 * s_bound, 2 * s_bound + 1), repeat=r - 1)
        )
        if relevant
        else ((0,) * r,)
    )
    vectors = ((1,) * r,) + spread
    d_terms = [
        [[sum(u[t] * v[t] * D[t] for t in range(r)) for v in vectors] for u in vectors]
        for _, _, _, D in tables
    ]
    choices = range(1, len(vectors))
    for matching in _matchings(space.ground, space.proj, 0, ()):
        terms = [_matching_terms(matching, t, vectors) + (dt,) for t, dt in zip(tables, d_terms)]
        for combo in itertools.product(choices, repeat=len(matching)):
            yield terms, (0,) + combo, matching, vectors


def product_is_hyperbolic_tuple(
    pairings: Sequence[AlphaPairing], s_bound: int = 2
) -> Optional[tuple[WeakVector, ...]]:
    """The first product-order weak filling whose Gram matrix vanishes in
    every coordinate (fixed coordinates mod 2)."""
    space = TupleSpace(tuple(pairings))
    nfree = len(space.ground.free_reps())
    dim = nfree + len(space.ground.fixed_reps())
    scalars = [operator.itemgetter(k) for k in range(dim)]
    for terms, keys, matching, vectors in product_weak_search(space, s_bound, scalars):
        if all(
            not any(x if k < nfree else x % 2 for row in _gram(t, keys) for x in row)
            for k, t in enumerate(terms)
        ):
            return tuple(
                WeakVector(group, vectors[k]) for group, k in zip(((),) + matching, keys)
            )
    return None


def product_tuple_genus(pairings: Sequence[AlphaPairing], phi: PhiSpec, s_bound: int = 2) -> int:
    """Least doubled genus over the product-order weak fillings, every
    candidate ranked until one has rank 0."""
    space = TupleSpace(tuple(pairings))
    best: Optional[int] = None
    for terms, keys, _, _ in product_weak_search(space, s_bound, [phi.scalar(space.ground)]):
        rank = _gram_rank(phi, _gram(terms[0], keys))
        if best is None or rank < best:
            best = rank
            if best == 0:
                break
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# sparse value arithmetic
#
# The arithmetic ``PiElement`` used before it stored its coordinate tuple:
# a value is the pair ``(free, torsion)`` of its nonzero free-orbit
# coefficients and its set fixed points, each sorted by declaration index,
# and every operation goes back through ``sparse_make``.

SparseValue = tuple[tuple[tuple[str, int], ...], tuple[str, ...]]


def sparse_make(alphabet, free=(), torsion=()) -> SparseValue:
    idx = alphabet.symbols.index
    fr = {r: c for r, c in dict(free).items() if c != 0}
    for r in fr:
        if alphabet.orbit_rep(r) != r or alphabet.is_fixed(r):
            raise AlphabetError(f"{r!r} is not a free orbit representative")
    tor = set()
    for r in torsion:
        if not alphabet.is_fixed(r):
            raise AlphabetError(f"{r!r} is not a fixed point")
        tor.symmetric_difference_update({r})
    return (
        tuple(sorted(fr.items(), key=lambda kv: idx(kv[0]))),
        tuple(sorted(tor, key=idx)),
    )


def sparse_of_letter(alphabet, symbol: str) -> SparseValue:
    symbol = alphabet.check(symbol)
    if alphabet.is_fixed(symbol):
        return sparse_make(alphabet, {}, (symbol,))
    rep = alphabet.orbit_rep(symbol)
    return sparse_make(alphabet, {rep: 1 if symbol == rep else -1})


def sparse_add(alphabet, x: SparseValue, y: SparseValue) -> SparseValue:
    acc = dict(x[0])
    for r, c in y[0]:
        acc[r] = acc.get(r, 0) + c
    tor = set(x[1])
    tor.symmetric_difference_update(y[1])
    return sparse_make(alphabet, acc, tor)


def sparse_neg(alphabet, x: SparseValue) -> SparseValue:
    return sparse_make(alphabet, {r: -c for r, c in x[0]}, x[1])


def sparse_sub(alphabet, x: SparseValue, y: SparseValue) -> SparseValue:
    return sparse_add(alphabet, x, sparse_neg(alphabet, y))


def sparse_scaled(alphabet, x: SparseValue, k: int) -> SparseValue:
    return sparse_make(alphabet, {r: k * c for r, c in x[0]}, x[1] if k % 2 else ())


def sparse_format(alphabet, x: SparseValue, torsion_suffix: bool = False) -> str:
    if not x[0] and not x[1]:
        return "0"
    terms = []
    free = dict(x[0])
    tor = set(x[1])
    for a in alphabet.symbols:
        if a in free:
            c = free[a]
            mag = "" if abs(c) == 1 else str(abs(c))
            terms.append(("-" if c < 0 else "+") + mag + a)
        elif a in tor:
            terms.append("+" + a + ("(2)" if torsion_suffix else ""))
    out = "".join(terms)
    return out[1:] if out.startswith("+") else out


def sparse_apply(phi: PhiSpec, x: SparseValue):
    vals = dict(phi.values)
    if not phi.prime:
        acc = Fraction(0)
        for rep, c in x[0]:
            acc += c * vals[rep]
        return acc  # torsion bits map to 0 over the rationals
    acc = 0
    for rep, c in x[0]:
        acc = (acc + c * vals[rep]) % phi.prime
    for rep in x[1]:
        acc = (acc + vals[rep]) % phi.prime
    return acc
