"""Ground alphabets with involution and the two groups built on them.

An involutive alphabet is a finite ordered set of symbols with a
self-inverse map ``tau``.  Its orbits index the cyclic factors of a free
product (one infinite cyclic group per free orbit, one order-2 group per
fixed point) and the summands of the abelianized value group (a copy of
Z per free orbit, a copy of Z/2 per fixed point).  Both groups are
implemented with exact integer arithmetic and eager reduction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union


class AlphabetError(ValueError):
    """Raised for malformed alphabets or symbols outside the alphabet."""


FREE = "free"
FIXED = "fixed"


@dataclass(frozen=True)
class InvolutiveAlphabet:
    """Ordered symbol set with an involution, given as canonical orbit pairs.

    ``pairs`` lists each orbit exactly once as ``(rep, other)`` with
    ``rep`` the member that comes first in declaration order; fixed
    points appear as ``(a, a)``.
    """

    symbols: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def build(symbols: Sequence[str], tau: Mapping[str, str]) -> "InvolutiveAlphabet":
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise AlphabetError("duplicate symbols in alphabet")
        for a in symbols:
            if a not in tau:
                raise AlphabetError(f"tau undefined on {a!r}")
        for a, b in tau.items():
            if a not in symbols or b not in symbols:
                raise AlphabetError(f"tau mentions unknown symbol in {a!r}<->{b!r}")
            if tau[b] != a:
                raise AlphabetError(f"tau is not an involution at {a!r}")
        index = {a: i for i, a in enumerate(symbols)}
        pairs = []
        seen = set()
        for a in symbols:
            if a in seen:
                continue
            b = tau[a]
            seen.add(a)
            seen.add(b)
            rep, other = (a, b) if index[a] <= index[b] else (b, a)
            pairs.append((rep, other))
        return InvolutiveAlphabet(symbols, tuple(pairs))

    @staticmethod
    def fixed_point_free(reps: Sequence[str], partners: Sequence[str]) -> "InvolutiveAlphabet":
        """Alphabet with orbits (reps[i], partners[i]), all free."""
        if len(reps) != len(partners):
            raise AlphabetError("reps and partners must align")
        symbols: list[str] = []
        tau: dict[str, str] = {}
        for a, b in zip(reps, partners):
            symbols.extend((a, b))
            tau[a] = b
            tau[b] = a
        return InvolutiveAlphabet.build(symbols, tau)

    @staticmethod
    def plus_minus() -> "InvolutiveAlphabet":
        """The two-symbol alphabet {+, -} with the swap involution."""
        return InvolutiveAlphabet.build(("+", "-"), {"+": "-", "-": "+"})

    @cached_property
    def _tau(self) -> dict[str, str]:
        t: dict[str, str] = {}
        for a, b in self.pairs:
            t[a] = b
            t[b] = a
        return t

    @cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.symbols)}

    @cached_property
    def _rep(self) -> dict[str, str]:
        r: dict[str, str] = {}
        for a, b in self.pairs:
            r[a] = a
            r[b] = a
        return r

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def check(self, symbol: str) -> str:
        if symbol not in self._index:
            raise AlphabetError(f"unknown symbol {symbol!r}")
        return symbol

    def tau(self, symbol: str) -> str:
        return self._tau[self.check(symbol)]

    def index(self, symbol: str) -> int:
        return self._index[self.check(symbol)]

    def is_fixed(self, symbol: str) -> bool:
        return self.tau(symbol) == symbol

    def orbit_rep(self, symbol: str) -> str:
        return self._rep[self.check(symbol)]

    def orbits(self) -> tuple["Orbit", ...]:
        return tuple(
            Orbit(rep, FIXED if rep == other else FREE) for rep, other in self.pairs
        )

    @cached_property
    def _free_reps(self) -> tuple[str, ...]:
        return tuple(rep for rep, other in self.pairs if rep != other)

    @cached_property
    def _fixed_reps(self) -> tuple[str, ...]:
        return tuple(rep for rep, other in self.pairs if rep == other)

    def free_reps(self) -> tuple[str, ...]:
        return self._free_reps

    def fixed_reps(self) -> tuple[str, ...]:
        return self._fixed_reps

    # The value layout.  A value of the abelianized group is a coordinate
    # tuple: one integer per free orbit, then one bit per fixed point, each
    # in orbit order.  Coordinate k is free exactly when k < nfree.

    @cached_property
    def nfree(self) -> int:
        """The number of free coordinates, which come first."""
        return len(self._free_reps)

    @cached_property
    def dimension(self) -> int:
        """The length of a coordinate tuple: one entry per orbit."""
        return len(self.pairs)

    @cached_property
    def _units(self) -> dict[str, tuple[int, int]]:
        units: dict[str, tuple[int, int]] = {}
        for k, rep in enumerate(self._free_reps + self._fixed_reps):
            units[self._tau[rep]] = (k, -1)
            units[rep] = (k, 1)
        return units

    def unit(self, symbol: str) -> tuple[int, int]:
        """The coordinate and sign of a symbol's value: +1 on orbit
        representatives, -1 on the partner of a free one."""
        return self._units[self.check(symbol)]

    def reduce(self, v: Iterable[int]) -> tuple[int, ...]:
        """Integer coordinates as a value: fixed entries reduced mod 2."""
        v = tuple(v)
        n = self.nfree
        return v if n == len(v) else v[:n] + tuple(x % 2 for x in v[n:])

    def negate(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """The negative of a value; fixed bits are their own negatives."""
        n = self.nfree
        return tuple(map(operator.neg, v[:n])) + v[n:]

    def restrict(self, keep: Iterable[str]) -> "InvolutiveAlphabet":
        """Sub-alphabet on a tau-invariant symbol set, declaration order kept."""
        keep_set = set(keep)
        for a in keep_set:
            self.check(a)
            if self.tau(a) not in keep_set:
                raise AlphabetError(f"subset not involution-invariant at {a!r}")
        symbols = tuple(a for a in self.symbols if a in keep_set)
        return InvolutiveAlphabet.build(symbols, {a: self._tau[a] for a in symbols})

    def __str__(self) -> str:
        tau_text = " ".join(f"{a}<->{b}" for a, b in self.pairs)
        return f"alphabet: {' '.join(self.symbols)} | tau: {tau_text}"


@dataclass(frozen=True)
class Orbit:
    """One involution orbit, named by its first-declared member."""

    representative: str
    kind: str  # FREE or FIXED


@dataclass(frozen=True)
class PiElement:
    """Element of the abelian group on the alphabet with a + tau(a) = 0.

    Stored as its coordinate tuple in the alphabet's layout (free-orbit
    integers, then fixed-orbit bits), so equality and hashing are
    structural.  ``free`` and ``torsion`` are sparse views of it.
    """

    alphabet: InvolutiveAlphabet
    coords: tuple[int, ...]

    @staticmethod
    def make(
        alphabet: InvolutiveAlphabet,
        free: Mapping[str, int] = (),
        torsion: Iterable[str] = (),
    ) -> "PiElement":
        coords = [0] * alphabet.dimension
        for r, c in dict(free).items():
            if c == 0:
                continue
            if alphabet.orbit_rep(r) != r or alphabet.is_fixed(r):
                raise AlphabetError(f"{r!r} is not a free orbit representative")
            coords[alphabet.unit(r)[0]] = c
        for r in torsion:
            if not alphabet.is_fixed(r):
                raise AlphabetError(f"{r!r} is not a fixed point")
            coords[alphabet.unit(r)[0]] ^= 1
        return PiElement(alphabet, tuple(coords))

    @staticmethod
    def zero(alphabet: InvolutiveAlphabet) -> "PiElement":
        return PiElement(alphabet, (0,) * alphabet.dimension)

    @staticmethod
    def of_letter(alphabet: InvolutiveAlphabet, symbol: str) -> "PiElement":
        k, sign = alphabet.unit(symbol)
        return PiElement(alphabet, tuple(sign if t == k else 0 for t in range(alphabet.dimension)))

    def _require_same(self, other: "PiElement") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetError("ground alphabet mismatch")

    @property
    def free(self) -> tuple[tuple[str, int], ...]:
        """The nonzero free-orbit coefficients, by orbit representative."""
        return tuple((r, c) for r, c in zip(self.alphabet.free_reps(), self.coords) if c)

    @property
    def torsion(self) -> tuple[str, ...]:
        """The fixed points whose bit is set."""
        bits = self.coords[self.alphabet.nfree:]
        return tuple(r for r, b in zip(self.alphabet.fixed_reps(), bits) if b)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "PiElement") -> "PiElement":
        self._require_same(other)
        coords = map(operator.add, self.coords, other.coords)
        return PiElement(self.alphabet, self.alphabet.reduce(coords))

    def __neg__(self) -> "PiElement":
        return PiElement(self.alphabet, self.alphabet.negate(self.coords))

    def __sub__(self, other: "PiElement") -> "PiElement":
        self._require_same(other)
        coords = map(operator.sub, self.coords, other.coords)
        return PiElement(self.alphabet, self.alphabet.reduce(coords))

    def scaled(self, k: int) -> "PiElement":
        return PiElement(self.alphabet, self.alphabet.reduce(k * c for c in self.coords))

    def coordinates(self) -> tuple[int, ...]:
        """Free-orbit integer coefficients, then fixed-orbit bits, each in
        orbit order."""
        return self.coords

    @staticmethod
    def from_coordinates(
        alphabet: InvolutiveAlphabet, coords: Sequence[int]
    ) -> "PiElement":
        """Inverse of ``coordinates``; fixed-orbit entries are read mod 2."""
        if len(coords) != alphabet.dimension:
            raise AlphabetError(f"values have {alphabet.dimension} coordinates, got {len(coords)}")
        return PiElement(alphabet, alphabet.reduce(coords))

    def format(self, torsion_suffix: bool = False) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for rep, other in self.alphabet.pairs:
            c = self.coords[self.alphabet.unit(rep)[0]]
            if not c:
                continue
            if rep == other:
                terms.append("+" + rep + ("(2)" if torsion_suffix else ""))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                terms.append(("-" if c < 0 else "+") + mag + rep)
        out = "".join(terms)
        return out[1:] if out.startswith("+") else out

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class PiWord:
    """Reduced word in the free product of cyclic groups on the orbits.

    Syllables are (orbit representative, exponent) with adjacent
    syllables in distinct orbits, nonzero exponents, and exponent 1 on
    order-2 (fixed-orbit) generators.
    """

    alphabet: InvolutiveAlphabet
    syllables: tuple[tuple[str, int], ...]

    @staticmethod
    def identity(alphabet: InvolutiveAlphabet) -> "PiWord":
        return PiWord(alphabet, ())

    @staticmethod
    def generator(alphabet: InvolutiveAlphabet, symbol: str, power: int = 1) -> "PiWord":
        """The generator attached to ``symbol``, i.e. its orbit generator
        raised to +1 for the representative and -1 for its partner."""
        return PiWord.from_syllables(alphabet, ((symbol, power),))

    @staticmethod
    def from_syllables(
        alphabet: InvolutiveAlphabet, syllables: Iterable[tuple[str, int]]
    ) -> "PiWord":
        """The reduced product of the syllables ``(symbol, power)``: each is
        the orbit generator of ``symbol`` raised to ``power``, negated on the
        partner of a free orbit.  Adjacent powers of one orbit merge, mod 2
        on a fixed point, and a zero power drops out."""
        stack: list[tuple[str, int]] = []
        for symbol, power in syllables:
            rep = alphabet.orbit_rep(symbol)
            if symbol != rep:
                power = -power
            if stack and stack[-1][0] == rep:
                power += stack.pop()[1]
            if alphabet.is_fixed(rep):
                power %= 2
            if power:
                stack.append((rep, power))
        return PiWord(alphabet, tuple(stack))

    def _require_same(self, other: "PiWord") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetError("ground alphabet mismatch")

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "PiWord") -> "PiWord":
        self._require_same(other)
        return PiWord.from_syllables(self.alphabet, self.syllables + other.syllables)

    def inverse(self) -> "PiWord":
        out = []
        for rep, exp in reversed(self.syllables):
            out.append((rep, exp if self.alphabet.is_fixed(rep) else -exp))
        return PiWord(self.alphabet, tuple(out))

    def cyclic_reduction(self) -> "PiWord":
        """Shortest conjugate: the last syllable moves to the front and the
        word is reduced again, until its end syllables lie in different
        orbits."""
        word = self
        while len(word.syllables) >= 2 and word.syllables[0][0] == word.syllables[-1][0]:
            syl = word.syllables
            word = PiWord.from_syllables(self.alphabet, syl[-1:] + syl[:-1])
        return word

    def abelianized(self) -> PiElement:
        coords = [0] * self.alphabet.dimension
        for rep, exp in self.syllables:
            coords[self.alphabet.unit(rep)[0]] += exp
        return PiElement.from_coordinates(self.alphabet, coords)

    def cyclic_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical representative of the conjugacy class: the least
        rotation of the cyclic reduction."""
        syl = self.cyclic_reduction().syllables
        if len(syl) <= 1:
            return syl
        rotations = [syl[i:] + syl[:i] for i in range(len(syl))]
        return min(rotations)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for rep, exp in self.syllables:
            parts.append(rep if exp == 1 else f"{rep}^{exp}")
        return " ".join(parts)


def pi_word_is_conjugate(u: PiWord, v: PiWord) -> bool:
    """Conjugacy via the free-product criterion: equal cyclic reductions
    up to syllable rotation, compared through ``cyclic_key``."""
    u._require_same(v)
    return u.cyclic_key() == v.cyclic_key()


RATIONALS = "Q"
PRIME_FIELD = "F"


class PhiSpecError(ValueError):
    """Raised when a coefficient homomorphism violates the torsion relations."""


def _require_reps(alphabet: InvolutiveAlphabet, values: Mapping[str, object]) -> None:
    for key in values:
        if key not in alphabet or alphabet.orbit_rep(key) != key:
            raise PhiSpecError(f"{key!r} is not an orbit representative")


@dataclass(frozen=True)
class PhiSpec:
    """Additive map from the abelianized group into an exact coefficient
    field: the rationals or a prime field GF(p).

    Values are given on orbit representatives; any other key is
    rejected.  On a fixed orbit the relation a + a = 0 forces
    2*phi(a) = 0, so rational targets (and odd prime fields) demand
    phi(a) = 0 there.
    """

    target: str
    prime: int
    values: tuple[tuple[str, Union[Fraction, int]], ...]

    @staticmethod
    def rationals(
        alphabet: InvolutiveAlphabet, values: Mapping[str, Union[int, Fraction]]
    ) -> "PhiSpec":
        _require_reps(alphabet, values)
        vals = {}
        for rep, _ in alphabet.pairs:
            v = Fraction(values.get(rep, 0))
            if alphabet.is_fixed(rep) and v != 0:
                raise PhiSpecError(f"rational phi must vanish on fixed point {rep!r}")
            vals[rep] = v
        return PhiSpec(RATIONALS, 0, tuple(sorted(vals.items(), key=lambda kv: alphabet.index(kv[0]))))

    @staticmethod
    def prime_field(
        alphabet: InvolutiveAlphabet, p: int, values: Mapping[str, int]
    ) -> "PhiSpec":
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise PhiSpecError(f"{p} is not prime")
        _require_reps(alphabet, values)
        vals = {}
        for rep, _ in alphabet.pairs:
            v = values.get(rep, 0) % p
            if alphabet.is_fixed(rep) and (2 * v) % p != 0:
                raise PhiSpecError(
                    f"phi over GF({p}) must satisfy 2*phi = 0 on fixed point {rep!r}"
                )
            vals[rep] = v
        return PhiSpec(PRIME_FIELD, p, tuple(sorted(vals.items(), key=lambda kv: alphabet.index(kv[0]))))

    @staticmethod
    def signs(alphabet: InvolutiveAlphabet, signs: Mapping[str, int]) -> "PhiSpec":
        """A +/-1 valued map on every symbol; requires tau fixed-point-free."""
        if alphabet.fixed_reps():
            raise PhiSpecError("sign-valued phi needs a fixed-point-free involution")
        for rep in alphabet.free_reps():
            if signs.get(rep, 1) not in (1, -1):
                raise PhiSpecError(f"sign for {rep!r} must be +-1")
        return PhiSpec.rationals(alphabet, {r: signs.get(r, 1) for r in alphabet.free_reps()})

    def value(self, rep: str) -> Union[Fraction, int]:
        return dict(self.values)[rep]

    @cached_property
    def integral(self) -> bool:
        """Whether every value is an integer, so that images of integer
        coordinates are plain ints."""
        return all(v.denominator == 1 for _, v in self.values)

    def weights(self, alphabet: InvolutiveAlphabet) -> tuple[Union[Fraction, int], ...]:
        """The map as a weight vector over ``PiElement.coordinates()``:
        phi(x) is the dot product of the weights with the coordinates of
        x, reduced mod p over GF(p).  Integral values are given as ints."""
        vals = dict(self.values)
        return tuple(
            int(v) if v.denominator == 1 else v
            for v in map(vals.__getitem__, alphabet.free_reps() + alphabet.fixed_reps())
        )

    def scalar(
        self, alphabet: InvolutiveAlphabet
    ) -> Callable[[Sequence[int]], Union[Fraction, int]]:
        """The map on coordinate tuples of ``alphabet``: the dot product
        with the weights, reduced mod p over GF(p)."""
        weights = self.weights(alphabet)
        prime = self.prime
        if prime:
            return lambda c: sum(map(operator.mul, weights, c)) % prime
        return lambda c: sum(map(operator.mul, weights, c))

    def apply(self, x: PiElement) -> Union[Fraction, int]:
        return self.scalar(x.alphabet)(x.coords)

    def label(self) -> str:
        inside = ",".join(f"{r}={v}" for r, v in self.values)
        base = "Q" if self.target == RATIONALS else f"GF({self.prime})"
        return f"phi[{base}]({inside})"

