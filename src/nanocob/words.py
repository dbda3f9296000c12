"""Nanowords and nanophrases over an involutive ground alphabet.

A nanoword is a word in which every letter occurs exactly twice, each
letter carrying a projection to the ground alphabet.  Letters are dense
integer ids internally; display names live in a side table so canonical
forms and hashing stay cheap.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import AlphabetError, InvolutiveAlphabet, PiWord, Value


# How the empty word is printed; the parser reads it back.
EMPTY_WORD = "(empty)"


class WordError(ValueError):
    """Raised for sequences violating the twice-occurrence invariant."""


def _default_names(count: int) -> tuple[str, ...]:
    return tuple(f"L{i + 1}" for i in range(count))


def fresh_names(
    wanted: Iterable[str], used: Iterable[str], mark: str = "'"
) -> tuple[str, ...]:
    """Each wanted name, extended by ``mark`` until it clashes neither with
    ``used`` nor with an earlier result."""
    taken = set(used)
    out = []
    for name in wanted:
        while name in taken:
            name += mark
        out.append(name)
        taken.add(name)
    return tuple(out)


def key_of(seq: Sequence[int], proj: Sequence[str]) -> tuple:
    """The canonical key of a letter sequence with its projection table:
    ids renumbered by first occurrence, plus the projections in that order.
    Nothing is validated; ``seq`` must hold each letter it names twice."""
    relabel: dict[int, int] = {}
    renumbered = tuple([relabel.setdefault(x, len(relabel)) for x in seq])
    return (renumbered, tuple([proj[old] for old in relabel]))


def _validate_letters(seq: Sequence[int], names: Sequence[str]) -> None:
    num_letters = len(names)
    counts = [0] * num_letters
    for x in seq:
        if not 0 <= x < num_letters:
            raise WordError(f"letter id {x} out of range")
        counts[x] += 1
    bad = [i for i, c in enumerate(counts) if c != 2]
    if bad:
        detail = ", ".join(f"letter {names[i]} occurs {counts[i]} times" for i in bad)
        raise WordError(f"not a nanoword: {detail}")


class Nanoword(Value):
    def __init__(
        self,
        ground: InvolutiveAlphabet,
        seq: tuple[int, ...],
        proj: tuple[str, ...],
        names: tuple[str, ...],
    ):
        if len(proj) != len(names):
            raise WordError("projection/name tables misaligned")
        _validate_letters(seq, names)
        for a in proj:
            ground.check(a)
        if len(set(names)) != len(names):
            raise WordError("duplicate letter names")
        fields = self.__dict__
        fields["ground"] = ground
        fields["seq"] = seq
        fields["proj"] = proj
        fields["names"] = names

    @staticmethod
    def empty(ground: InvolutiveAlphabet) -> "Nanoword":
        return Nanoword(ground, (), (), ())

    @staticmethod
    def from_names(
        ground: InvolutiveAlphabet,
        letters: Sequence[str],
        proj: Mapping[str, str],
    ) -> "Nanoword":
        """Build from a sequence of letter names plus a projection map.
        ``letters`` may be a string when all names are single characters."""
        order: list[str] = []
        ids: dict[str, int] = {}
        seq = []
        for name in letters:
            if name not in ids:
                ids[name] = len(order)
                order.append(name)
            seq.append(ids[name])
        missing = [n for n in order if n not in proj]
        if missing:
            raise WordError(f"projection missing for {', '.join(missing)}")
        stray = [n for n in proj if n not in ids]
        if stray:
            raise WordError(f"projection given for letters not in the word: {', '.join(stray)}")
        return Nanoword(
            ground, tuple(seq), tuple(proj[n] for n in order), tuple(order)
        )

    # -- basic views ---------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.seq)

    @property
    def num_letters(self) -> int:
        return len(self.proj)

    @cached_property
    def partner(self) -> tuple[int, ...]:
        """The position of each entry's other entry, built once per word."""
        first: dict[int, int] = {}
        partner = [0] * len(self.seq)
        for p, x in enumerate(self.seq):
            q = first.setdefault(x, p)
            partner[p], partner[q] = q, p
        return tuple(partner)

    def letter_seq(self) -> tuple[str, ...]:
        return tuple(self.names[i] for i in self.seq)

    def occurrences(self, letter: int) -> tuple[int, int]:
        pos = [i for i, x in enumerate(self.seq) if x == letter]
        return pos[0], pos[1]

    def __str__(self) -> str:
        if not self.seq:
            return EMPTY_WORD
        word = " ".join(self.letter_seq())
        proj = " ".join(f"{n}={a}" for n, a in zip(self.names, self.proj))
        return f"{word} [{proj}]"

    # -- canonical form ------------------------------------------------

    def canonical_key(self) -> tuple:
        """Isomorphism invariant: ``key_of`` the word's sequence and
        projections.  Two nanowords over the same ground alphabet are
        isomorphic iff their keys coincide."""
        return key_of(self.seq, self.proj)

    @staticmethod
    def from_key(ground: InvolutiveAlphabet, key: tuple) -> "Nanoword":
        """The canonical form whose ``canonical_key`` is ``key``."""
        seq, proj = key
        return Nanoword(ground, seq, proj, _default_names(len(proj)))

    def canonical_form(self) -> "Nanoword":
        return Nanoword.from_key(self.ground, self.canonical_key())

    def is_isomorphic(self, other: "Nanoword") -> bool:
        return self.ground == other.ground and self.canonical_key() == other.canonical_key()

    # -- elementary operations ------------------------------------------

    def opposite(self) -> "Nanoword":
        return Nanoword(self.ground, tuple(reversed(self.seq)), self.proj, self.names)

    def concatenate(self, other: "Nanoword") -> "Nanoword":
        if self.ground != other.ground:
            raise AlphabetError("ground alphabet mismatch")
        shift = self.num_letters
        return Nanoword(
            self.ground,
            self.seq + tuple(x + shift for x in other.seq),
            self.proj + other.proj,
            self.names + fresh_names(other.names, self.names),
        )

    def circular_shift(self) -> "Nanoword":
        """Move the first letter's two entries: AxAy -> x A~ y A~ where the
        fresh letter A~ projects to tau of the old projection."""
        if not self.seq:
            raise WordError("cannot shift the empty nanoword")
        head = self.seq[0]
        second = self.seq.index(head, 1)
        body = self.seq[1:second] + (head,) + self.seq[second + 1 :] + (head,)
        proj = list(self.proj)
        proj[head] = self.ground.tau(proj[head])
        names = list(self.names)
        (names[head],) = fresh_names([names[head] + "~"], names, "~")
        return Nanoword(self.ground, body, tuple(proj), tuple(names))

    def push_forward(
        self, f: Mapping[str, str], target: InvolutiveAlphabet
    ) -> "Nanoword":
        for a in self.ground.symbols:
            if a not in f:
                raise AlphabetError(f"map undefined on {a!r}")
            if f[self.ground.tau(a)] != target.tau(f[a]):
                raise AlphabetError(f"map is not equivariant at {a!r}")
        return Nanoword(
            target, self.seq, tuple(f[a] for a in self.proj), self.names
        )

    def pull_back(self, beta: Iterable[str]) -> "Nanoword":
        sub = self.ground.restrict(beta)
        keep = {i for i, a in enumerate(self.proj) if a in sub}
        relabel = {old: new for new, old in enumerate(sorted(keep))}
        return Nanoword(
            sub,
            tuple(relabel[x] for x in self.seq if x in keep),
            tuple(self.proj[i] for i in sorted(keep)),
            tuple(self.names[i] for i in sorted(keep)),
        )

    def delete_letters(self, letters: Iterable[int]) -> tuple["Nanoword", dict[int, int]]:
        """Remove the given letters; also return the old->new id map for
        the survivors."""
        drop = set(letters)
        survivors = [i for i in range(self.num_letters) if i not in drop]
        relabel = {old: new for new, old in enumerate(survivors)}
        word = Nanoword(
            self.ground,
            tuple(relabel[x] for x in self.seq if x not in drop),
            tuple(self.proj[i] for i in survivors),
            tuple(self.names[i] for i in survivors),
        )
        return word, relabel

    def to_phrase(self) -> "Nanophrase":
        return Nanophrase(self.ground, (self.seq,), self.proj, self.names)

    def gamma(self) -> PiWord:
        """Product over entries of the orbit generator of the projection,
        inverted at each second occurrence."""
        partner = self.partner
        syllables = [(self.proj[x], 1 if partner[p] > p else -1) for p, x in enumerate(self.seq)]
        return PiWord.from_syllables(self.ground, syllables)


class Nanophrase(Value):
    """A sequence of words whose concatenation is a nanoword."""

    def __init__(
        self,
        ground: InvolutiveAlphabet,
        words: tuple[tuple[int, ...], ...],
        proj: tuple[str, ...],
        names: tuple[str, ...],
    ):
        # a phrase is valid exactly when its concatenation is a nanoword
        Nanoword(ground, tuple(x for w in words for x in w), proj, names)
        fields = self.__dict__
        fields["ground"] = ground
        fields["words"] = words
        fields["proj"] = proj
        fields["names"] = names

    def is_even(self) -> bool:
        return all(len(w) % 2 == 0 for w in self.words)

    def epsilon(self, letter: int) -> int:
        """0 when both entries of the letter sit in one constituent word."""
        homes = [r for r, w in enumerate(self.words) for x in w if x == letter]
        if len(homes) != 2:
            raise WordError(f"unknown letter id {letter}")
        return 0 if homes[0] == homes[1] else 1

    def symmetry_witness(self) -> Optional["SymmetryWitness"]:
        """``mirror_witness`` with the constituent words as the segments,
        each read backwards onto itself.  Its positional epsilon is then
        the word-crossing indicator ``epsilon``."""
        seq: list[int] = []
        segments = []
        for w in self.words:
            segments.append((len(seq), len(seq) + len(w)))
            seq.extend(w)
        return mirror_witness(self.ground, seq, self.proj, segments)

    def __str__(self) -> str:
        body = " | ".join(" ".join(self.names[x] for x in w) for w in self.words)
        proj = " ".join(f"{n}={a}" for n, a in zip(self.names, self.proj))
        return f"({body}) [{proj}]"


class SymmetryWitness(Value):
    """The letter involution of the mirror rule and the per-letter twist
    indicator ``epsilon``, as sorted ``(letter, value)`` pairs."""

    def __init__(self, iota: tuple[tuple[int, int], ...], epsilon: tuple[tuple[int, int], ...]):
        fields = self.__dict__
        fields["iota"] = iota
        fields["epsilon"] = epsilon


def mirror_witness(
    ground: InvolutiveAlphabet,
    seq: Sequence[int],
    proj: Sequence[str],
    segments: Sequence[tuple[int, int]],
    kappa: Optional[Sequence[int]] = None,
) -> Optional[SymmetryWitness]:
    """The mirror rule behind surgeries, bridges and symmetric phrases.

    Each segment ``r`` of ``seq`` (half-open position ranges, ascending and
    disjoint) is read backwards onto segment ``kappa[r]``, the identity
    when ``kappa`` is None; ``kappa`` must be an involution between
    segments of equal length.  The entries read against each other define
    the letter involution ``iota``.  A letter's ``epsilon`` is 1 when the
    mirror of its first entry is the first entry of its partner, else 0;
    with the identity ``kappa`` this is 1 exactly when its entries lie in
    different segments.  The projection rule asks ``proj[iota(x)]`` to be
    ``proj[x]``, or ``tau(proj[x])`` when ``epsilon`` is 1.

    Returns the witness in the ids of ``seq``, or None when the mirrored
    letters are not a well-defined map, a letter has only one entry in the
    segments, or the projection rule fails."""
    tau = ground.tau
    iota: dict[int, int] = {}
    first_image: dict[int, int] = {}
    epsilon: dict[int, int] = {}
    for r, (start, end) in enumerate(segments):
        top = segments[r if kappa is None else kappa[r]][0] + end - 1
        for p in range(start, end):
            x, image = seq[p], top - p
            y = seq[image]
            if iota.setdefault(x, y) != y:
                return None
            if x not in first_image:
                first_image[x] = image
                continue
            twisted = first_image[x] < image
            if proj[y] != (tau(proj[x]) if twisted else proj[x]):
                return None
            epsilon[x] = int(twisted)
    if len(epsilon) != len(iota):
        return None
    return SymmetryWitness(tuple(sorted(iota.items())), tuple(sorted(epsilon.items())))
