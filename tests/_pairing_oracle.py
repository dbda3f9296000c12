"""The sparse pairing routes the coordinate kernels replaced, kept as test
oracles.

Values are ``PiElement``s read from ``AlphaPairing.matrix`` and combined
with sparse group arithmetic; the weak fillings are the literal box of
coefficient vectors, not the normalized representatives the searches in
``nanocob.pairings`` walk.
"""

import itertools
from typing import Iterator, Sequence

from nanocob.algebra import PiElement
from nanocob.pairings import (
    AlphaPairing,
    PairingError,
    SVector,
    TupleSpace,
    WeakVector,
    _matchings,
)


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
