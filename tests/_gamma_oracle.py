"""The entry-by-entry route to a word's gamma that one reduction loop
replaced, kept as a test oracle.

``Nanoword.gamma`` hands the word's syllables to ``PiWord.from_syllables``
at once.  The old route built one generator per entry and multiplied it
onto the product so far, and wrote the syllable merge out again in the
cyclic reduction.  Both are copied here on plain syllable tuples, so they
share no code with ``PiWord``.
"""

from nanocob.algebra import InvolutiveAlphabet
from nanocob.words import Nanoword

Syllables = tuple[tuple[str, int], ...]


def generator(alphabet: InvolutiveAlphabet, symbol: str, power: int = 1) -> Syllables:
    """The orbit generator of ``symbol`` to the power ``power``, negated on
    the partner of a free orbit."""
    rep = alphabet.orbit_rep(symbol)
    if alphabet.is_fixed(symbol):
        exp = power % 2
    else:
        exp = power if symbol == rep else -power
    return ((rep, exp),) if exp else ()


def product(alphabet: InvolutiveAlphabet, left: Syllables, right: Syllables) -> Syllables:
    """The reduced product of two reduced words."""
    stack = list(left)
    for rep, exp in right:
        if stack and stack[-1][0] == rep:
            merged = stack[-1][1] + exp
            if alphabet.is_fixed(rep):
                merged %= 2
            stack.pop()
            if merged:
                stack.append((rep, merged))
        else:
            stack.append((rep, exp))
    return tuple(stack)


def gamma_by_products(w: Nanoword) -> Syllables:
    """The product over entries of the projection's generator, inverted at
    each second occurrence, one multiplication per entry."""
    seen: set[int] = set()
    out: Syllables = ()
    for x in w.seq:
        power = 1 if x not in seen else -1
        seen.add(x)
        out = product(w.ground, out, generator(w.ground, w.proj[x], power))
    return out


def cyclic_reduction(alphabet: InvolutiveAlphabet, syllables: Syllables) -> Syllables:
    """Merge matching end syllables of a reduced word until they differ."""
    syl = list(syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        rep = syl[0][0]
        merged = syl[-1][1] + syl[0][1]
        if alphabet.is_fixed(rep):
            merged %= 2
        syl = syl[1:-1]
        if merged:
            syl.insert(0, (rep, merged))
    return tuple(syl)
