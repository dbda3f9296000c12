"""The routes the mirror rule replaced, kept as test oracles.

A surgery factor used to be cut out as a nanophrase and tested there:
entries mirrored inside each constituent word, epsilon from which words
hold a letter (``Nanophrase.epsilon``).  A bridge used to compute its
letter involution and a positional epsilon from word positions directly.
"""

from nanocob.words import Nanophrase, SymmetryWitness


def factor_phrase(w, letters, segments):
    """The factor cut out by ``segments`` as a nanophrase; its local
    letter ``i`` is the letter ``letters[i]`` of ``w``."""
    local = {g: i for i, g in enumerate(letters)}
    words = tuple(
        tuple(local[x] for x in w.seq[start:end]) for start, end in segments
    )
    return Nanophrase(
        w.ground,
        words,
        tuple(w.proj[g] for g in letters),
        tuple(w.names[g] for g in letters),
    )


def phrase_witness(phrase):
    """The symmetry witness of a phrase by the phrase route."""
    iota = {}
    for w in phrase.words:
        n = len(w)
        for i, x in enumerate(w):
            y = w[n - 1 - i]
            if iota.setdefault(x, y) != y:
                return None
    epsilon = {x: phrase.epsilon(x) for x in range(len(phrase.proj))}
    for x, y in iota.items():
        expected = phrase.proj[x]
        if epsilon[x]:
            expected = phrase.ground.tau(expected)
        if phrase.proj[y] != expected:
            return None
    return SymmetryWitness(tuple(sorted(iota.items())), tuple(sorted(epsilon.items())))


def bridge_witness(w, factor, kappa):
    """``(iota, epsilon)`` of a bridge by the positional route, or None;
    ``factor`` and ``kappa`` must already pass the segment checks."""
    iota = {}
    for r, (start, end) in enumerate(factor.segments):
        ts, _ = factor.segments[kappa[r]]
        n = end - start
        for offset in range(n):
            x = w.seq[start + offset]
            y = w.seq[ts + (n - 1 - offset)]
            if iota.setdefault(x, y) != y:
                return None

    segment_of = {}
    for r, (start, end) in enumerate(factor.segments):
        for pos in range(start, end):
            segment_of[pos] = r

    def symmetric_position(pos):
        r = segment_of[pos]
        start, end = factor.segments[r]
        ts, _ = factor.segments[kappa[r]]
        return ts + (end - 1 - pos)

    epsilon = {}
    for b in factor.letters:
        first, _ = w.occurrences(b)
        epsilon[b] = 1 if symmetric_position(first) == w.occurrences(iota[b])[0] else 0
    for b in factor.letters:
        expected = w.proj[b]
        if epsilon[b]:
            expected = w.ground.tau(expected)
        if w.proj[iota[b]] != expected:
            return None
    return tuple(sorted(iota.items())), tuple(sorted(epsilon.items()))
