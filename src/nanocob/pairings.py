"""Pairings attached to nanowords, their fillings, and derived invariants.

A pairing is a finite set with one distinguished element ``s`` and a
matrix of values in the abelianized orbit group; the non-distinguished
elements project to the ground alphabet.  Hyperbolicity is decided by
complete enumeration of fillings (partitions of the letters into
admissible signed singletons and pairs, plus the vector ``s``).  On top
of this sit the per-orbit polynomial invariant, the half-rank genus
under a coefficient homomorphism, weak (tuple) fillings, shifts of
pairings, and coverings of words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import (
    AlphabetError,
    InvolutiveAlphabet,
    PhiSpec,
    PiElement,
    RATIONALS,
)
from .intlinalg import IntegerLattice, integer_rank, rank_mod_p, rational_rank
from .words import Nanoword, WordError


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


@dataclass(frozen=True)
class AlphaPairing:
    ground: InvolutiveAlphabet
    proj: tuple[str, ...]
    names: tuple[str, ...]
    matrix: tuple[tuple[PiElement, ...], ...]  # index 0 is s

    def __post_init__(self):
        size = len(self.proj) + 1
        if len(self.names) != len(self.proj):
            raise PairingError("projection/name tables misaligned")
        if len(self.matrix) != size or any(len(r) != size for r in self.matrix):
            raise PairingError("matrix shape must cover letters plus s")
        for a in self.proj:
            self.ground.check(a)

    @staticmethod
    def build(
        ground: InvolutiveAlphabet,
        proj: Sequence[str],
        entries: Mapping[tuple[int, int], PiElement],
        names: Optional[Sequence[str]] = None,
    ) -> "AlphaPairing":
        size = len(proj) + 1
        zero = PiElement.zero(ground)
        rows = [[zero] * size for _ in range(size)]
        for (i, j), v in entries.items():
            rows[i][j] = v
        if names is None:
            names = tuple(f"S{i + 1}" for i in range(len(proj)))
        return AlphaPairing(ground, tuple(proj), tuple(names), tuple(map(tuple, rows)))

    @staticmethod
    def trivial(ground: InvolutiveAlphabet) -> "AlphaPairing":
        return AlphaPairing.build(ground, (), {})

    @staticmethod
    def distinguished_only(ground: InvolutiveAlphabet, r: PiElement) -> "AlphaPairing":
        return AlphaPairing.build(ground, (), {(0, 0): r})

    @property
    def num_letters(self) -> int:
        return len(self.proj)

    def entry(self, i: int, j: int) -> PiElement:
        return self.matrix[i][j]

    def evaluate(self, x: SVector, y: SVector) -> PiElement:
        """Bilinear extension of the matrix to integer combinations."""
        acc = PiElement.zero(self.ground)
        for i, c in x:
            for j, d in y:
                acc = acc + self.matrix[i][j].scaled(c * d)
        return acc

    def is_skew_symmetric(self) -> bool:
        size = self.num_letters + 1
        for i in range(size):
            if not self.matrix[i][i].is_zero():
                return False
            for j in range(i + 1, size):
                if not (self.matrix[i][j] + self.matrix[j][i]).is_zero():
                    return False
        return True

    def is_normal(self) -> bool:
        return self.matrix[0][0].is_zero()

    def opposite(self) -> "AlphaPairing":
        rows = tuple(tuple(-v for v in row) for row in self.matrix)
        return AlphaPairing(self.ground, self.proj, self.names, rows)

    def format_matrix(self, sep: str = "\t") -> str:
        labels = ("s",) + self.names
        lines = [sep.join((" ",) + labels)]
        for lab, row in zip(labels, self.matrix):
            lines.append(sep.join((lab,) + tuple(str(v) for v in row)))
        return "\n".join(lines)


def sum_pairings(p1: AlphaPairing, p2: AlphaPairing) -> AlphaPairing:
    """Block sum: letters are kept orthogonal, the distinguished rows add."""
    if p1.ground != p2.ground:
        raise PairingError("ground alphabet mismatch")
    m1, m2 = p1.num_letters, p2.num_letters
    zero = PiElement.zero(p1.ground)
    size = m1 + m2 + 1
    rows = [[zero] * size for _ in range(size)]
    rows[0][0] = p1.matrix[0][0] + p2.matrix[0][0]
    for i in range(1, m1 + 1):
        rows[i][0] = p1.matrix[i][0]
        rows[0][i] = p1.matrix[0][i]
        for j in range(1, m1 + 1):
            rows[i][j] = p1.matrix[i][j]
    for i in range(1, m2 + 1):
        rows[m1 + i][0] = p2.matrix[i][0]
        rows[0][m1 + i] = p2.matrix[0][i]
        for j in range(1, m2 + 1):
            rows[m1 + i][m1 + j] = p2.matrix[i][j]
    names = list(p1.names)
    used = set(names)
    for n in p2.names:
        fresh = n
        while fresh in used:
            fresh += "'"
        names.append(fresh)
        used.add(fresh)
    return AlphaPairing(
        p1.ground, p1.proj + p2.proj, tuple(names), tuple(map(tuple, rows))
    )


def r_of(p: AlphaPairing) -> PiElement:
    return p.matrix[0][0]


def are_isomorphic(p1: AlphaPairing, p2: AlphaPairing) -> bool:
    """Search for a projection-preserving bijection of letters carrying one
    matrix to the other.  Intended for small pairings."""
    if p1.ground != p2.ground or sorted(p1.proj) != sorted(p2.proj):
        return False
    if not (p1.matrix[0][0] + (-p2.matrix[0][0])).is_zero():
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
            ok = True
            for k, kk in assignment.items():
                if not (p1.matrix[i][k] - p2.matrix[j][kk]).is_zero():
                    ok = False
                    break
                if not (p1.matrix[k][i] - p2.matrix[kk][j]).is_zero():
                    ok = False
                    break
            if ok and (p1.matrix[i][i] - p2.matrix[j][j]).is_zero():
                assignment[i] = j
                if extend(i + 1):
                    return True
                del assignment[i]
        return False

    return extend(1)


# ---------------------------------------------------------------------------
# pairing of a nanoword


def _interleaving_sign(occ_a: tuple[int, int], occ_b: tuple[int, int]) -> int:
    ia, ja = occ_a
    ib, jb = occ_b
    if ia < ib < ja < jb:
        return 1
    if ib < ia < jb < ja:
        return -1
    return 0


def pairing_of_nanoword(w: Nanoword) -> AlphaPairing:
    """Skew-symmetric pairing whose entries record how the spans of two
    letters interleave, weighted by the projections of the letters that
    cross them."""
    ground = w.ground
    m = w.num_letters
    occ = [w.occurrences(i) for i in range(m)]
    zero = PiElement.zero(ground)

    def letter_value(i: int) -> PiElement:
        return PiElement.of_letter(ground, w.proj[i])

    def circ(a: int, b: int) -> PiElement:
        ia, ja = occ[a]
        ib, jb = occ[b]
        acc = zero
        for d in range(m):
            if ia < occ[d][0] < ja and ib < occ[d][1] < jb:
                acc = acc + letter_value(d)
        return acc

    entries: dict[tuple[int, int], PiElement] = {}
    for a in range(m):
        es = zero
        for d in range(m):
            n = _interleaving_sign(occ[a], occ[d])
            if n:
                es = es + letter_value(d).scaled(n)
        entries[(a + 1, 0)] = es
        entries[(0, a + 1)] = -es
        for b in range(m):
            if a == b:
                continue
            n = _interleaving_sign(occ[a], occ[b])
            val = (circ(a, b) - circ(b, a)).scaled(2)
            if n:
                val = val + (letter_value(a) + letter_value(b)).scaled(n)
            entries[(a + 1, b + 1)] = val
    return AlphaPairing.build(ground, w.proj, entries, w.names)


def pairing_of_nanoword_alt(w: Nanoword) -> AlphaPairing:
    """Independent route to the same pairing through the three interleaving
    patterns of a pair of spans, written with single-crossing counts."""
    ground = w.ground
    m = w.num_letters
    occ = [w.occurrences(i) for i in range(m)]

    def bracket(x: range, y: range) -> PiElement:
        acc = PiElement.zero(ground)
        for d in range(m):
            in_x = sum(1 for t in occ[d] if t in x)
            in_y = sum(1 for t in occ[d] if t in y)
            if in_x == 1 and in_y == 1:
                acc = acc + PiElement.of_letter(ground, w.proj[d])
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
        return (bracket(x, y) + bracket(x, z) + bracket(y, z)).scaled(2) + (
            PiElement.of_letter(ground, w.proj[a]) + PiElement.of_letter(ground, w.proj[b])
        )

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


def enumerate_fillings(p: AlphaPairing) -> Iterator[tuple[SVector, ...]]:
    """All fillings: the vector s plus a partition of the letters into
    singletons and admissible signed pairs."""
    return _matchings(p.ground, p.proj, 1, (S_VECTOR,))


def tautological_filling(p: AlphaPairing) -> tuple[SVector, ...]:
    return (S_VECTOR,) + tuple(((i, 1),) for i in range(1, p.num_letters + 1))


def _coord_matrix(p: AlphaPairing) -> tuple[list[list[tuple[int, ...]]], int, int]:
    """Pairing values as flat integer coordinate vectors (free-orbit
    coefficients, then fixed-orbit bits to be read modulo 2)."""
    nfree = len(p.ground.free_reps())
    dim = nfree + len(p.ground.fixed_reps())
    return [[v.coordinates() for v in row] for row in p.matrix], nfree, dim


def _coords_vanish(acc: Sequence[int], nfree: int) -> bool:
    return all(x == 0 for x in acc[:nfree]) and all(
        x % 2 == 0 for x in acc[nfree:]
    )


def _filling_annihilates(
    matrix: list[list[tuple[int, ...]]], nfree: int, dim: int, filling: Sequence[SVector]
) -> bool:
    for x in filling:
        for y in filling:
            acc = [0] * dim
            for i, c in x:
                for j, d in y:
                    k = c * d
                    row = matrix[i][j]
                    for t in range(dim):
                        acc[t] += k * row[t]
            if not _coords_vanish(acc, nfree):
                return False
    return True


def filling_is_annihilating(p: AlphaPairing, filling: Sequence[SVector]) -> bool:
    matrix, nfree, dim = _coord_matrix(p)
    return _filling_annihilates(matrix, nfree, dim, filling)


def is_hyperbolic(p: AlphaPairing) -> Optional[tuple[SVector, ...]]:
    matrix, nfree, dim = _coord_matrix(p)
    for filling in enumerate_fillings(p):
        if _filling_annihilates(matrix, nfree, dim, filling):
            return filling
    return None


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


@dataclass(frozen=True)
class Genus:
    """Half the rank of a filling Gram matrix, stored doubled so
    half-integers stay exact."""

    twice: int

    def __post_init__(self):
        if self.twice < 0:
            raise PairingError("genus cannot be negative")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"


def _gram_rank(phi: PhiSpec, gram: list[list]) -> int:
    if phi.target == RATIONALS:
        if all(
            isinstance(x, int) or x.denominator == 1 for row in gram for x in row
        ):
            return integer_rank([[int(x) for x in row] for row in gram])
        return rational_rank(gram)
    return rank_mod_p(gram, phi.prime)


def _phi_scalar(phi: PhiSpec, v: PiElement):
    """phi(v), as an exact integer whenever a rational value is integral."""
    x = phi.apply(v)
    if phi.target == RATIONALS and x.denominator == 1:
        return int(x)
    return x


def _phi_matrix(p: AlphaPairing, phi: PhiSpec) -> list[list]:
    """Scalar image of the pairing matrix."""
    return [[_phi_scalar(phi, v) for v in row] for row in p.matrix]


def _scalar_gram(matrix: list[list], filling: Sequence[SVector]) -> list[list]:
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


def genus_of_filling(
    p: AlphaPairing, phi: PhiSpec, filling: Sequence[SVector]
) -> Genus:
    gram = _scalar_gram(_phi_matrix(p, phi), filling)
    return Genus(_gram_rank(phi, gram))


def genus(p: AlphaPairing, phi: PhiSpec) -> Genus:
    matrix = _phi_matrix(p, phi)
    best: Optional[int] = None
    for filling in enumerate_fillings(p):
        rank = _gram_rank(phi, _scalar_gram(matrix, filling))
        if best is None or rank < best:
            best = rank
        if best == 0:
            break
    assert best is not None  # the tautological filling always exists
    return Genus(best)


def phi_sign_battery(alphabet: InvolutiveAlphabet) -> tuple[PhiSpec, ...]:
    """Every assignment of +-1 to the free orbit representatives (fixed
    points go to 0), deduplicated by global negation."""
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
    for rep, coeff in g.free:
        if coeff < 0:
            return -g, -1, False
        return g, 1, False
    return g, 1, True


@dataclass(frozen=True)
class OrbitPoly:
    """Value of the polynomial invariant on one orbit: a combination of
    basis monomials modulo inversion of the variables (and modulo 2 on
    fixed orbits and on self-inverse monomials)."""

    kind: str  # algebra.FREE or algebra.FIXED
    terms: tuple[tuple[PiElement, int], ...]

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
        return max((sum(map(abs, g.coordinates())) for g, _ in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g, c in self.terms:
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(("-" if c < 0 else "+") + mag + f"[{g}]")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


@dataclass(frozen=True)
class UPoly:
    """The polynomial invariant, one value per orbit representative; the
    value on the other orbit member is the negation."""

    alphabet: InvolutiveAlphabet
    entries: tuple[tuple[str, OrbitPoly], ...]

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
        import hashlib

        text = ";".join(f"{rep}:{v}" for rep, v in self.entries)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def __str__(self) -> str:
        return ", ".join(f"u({rep})={v}" for rep, v in self.entries)


def u_polynomial(p: AlphaPairing) -> UPoly:
    ground = p.ground
    by_symbol: dict[str, list[PiElement]] = {}
    for i in range(1, p.num_letters + 1):
        es = p.matrix[i][0]
        if not es.is_zero():
            by_symbol.setdefault(p.proj[i - 1], []).append(es)
    entries = []
    for orbit in ground.orbits():
        rep = orbit.representative
        deltas: list[tuple[PiElement, int]] = [(g, 1) for g in by_symbol.get(rep, [])]
        if orbit.is_free:
            deltas.extend((g, -1) for g in by_symbol.get(ground.tau(rep), []))
        entries.append((rep, OrbitPoly.build(orbit.kind, deltas)))
    return UPoly(ground, tuple(entries))


def u_polynomial_of_nanoword(w: Nanoword) -> UPoly:
    return u_polynomial(pairing_of_nanoword(w))


def u_degree(u: UPoly, symbol: str) -> int:
    if u.alphabet.fixed_reps():
        raise AlphabetError("degree requires a fixed-point-free involution")
    return u.value(symbol).degree()


# ---------------------------------------------------------------------------
# surgery consistency


def verify_surgery_filling(w: Nanoword, factor) -> bool:
    """Check the orthogonality relations behind surgery invariance and that
    the associated filling annihilates the summed pairing.

    ``factor`` needs ``letters`` and ``segments`` attributes describing an
    even symmetric factor of ``w``.
    """
    to_global = sorted(factor.letters)
    phrase = w.factor_phrase(to_global, factor.segments)
    if not phrase.is_even():
        raise WordError("factor is not even")
    witness = phrase.symmetry_witness()
    if witness is None:
        raise WordError("factor is not symmetric")

    iota = {to_global[a]: to_global[b] for a, b in witness.iota}
    eps = {to_global[a]: e for a, e in witness.epsilon}
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
    for b1 in b_plus:
        for b2 in b_plus:
            if not p_w.evaluate(lam(b1), lam(b2)).is_zero():
                return False
    for b in b_plus:
        if not p_w.evaluate(lam(b), S_VECTOR).is_zero():
            return False
        for c in c_letters:
            if not p_w.evaluate(lam(b), ((c + 1, 1),)).is_zero():
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


@dataclass(frozen=True)
class WeakVector:
    """Vector over a tuple of pairings: a combination of letters plus one
    coefficient per distinguished element."""

    letters: tuple[tuple[int, int], ...]  # (global letter index, coeff)
    s_coeffs: tuple[int, ...]


@dataclass(frozen=True)
class TupleSpace:
    """Disjoint union of the letter sets of several pairings with the
    block-orthogonal bilinear extension."""

    pairings: tuple[AlphaPairing, ...]

    def __post_init__(self):
        ground = self.pairings[0].ground
        for p in self.pairings:
            if p.ground != ground:
                raise PairingError("ground alphabet mismatch")

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

    def locate(self, letter: int) -> tuple[int, int]:
        for block in reversed(range(len(self.pairings))):
            if letter >= self.offsets[block]:
                return block, letter - self.offsets[block] + 1
        raise PairingError("letter index out of range")

    def evaluate(self, x: WeakVector, y: WeakVector) -> PiElement:
        acc = PiElement.zero(self.ground)
        # letter-letter terms within blocks
        for i, c in x.letters:
            bi, li = self.locate(i)
            for j, d in y.letters:
                bj, lj = self.locate(j)
                if bi == bj:
                    acc = acc + self.pairings[bi].matrix[li][lj].scaled(c * d)
        # letter-s and s-letter terms
        for i, c in x.letters:
            b, l = self.locate(i)
            acc = acc + self.pairings[b].matrix[l][0].scaled(c * y.s_coeffs[b])
        for j, d in y.letters:
            b, l = self.locate(j)
            acc = acc + self.pairings[b].matrix[0][l].scaled(x.s_coeffs[b] * d)
        for b, p in enumerate(self.pairings):
            acc = acc + p.matrix[0][0].scaled(x.s_coeffs[b] * y.s_coeffs[b])
        return acc

    def distinguished(self) -> WeakVector:
        return WeakVector((), (1,) * len(self.pairings))


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
            yield (space.distinguished(),) + tuple(
                WeakVector(group, tuple(cs)) for group, cs in zip(matching, combo)
            )


# Adding a multiple of the distinguished vector s_1+...+s_r to any other
# vector of a weak filling changes neither its span nor, consequently, the
# Gram rank or annihilation.  Modulo that move a coefficient box
# [-s_bound, s_bound]^r reduces to difference coefficients against the last
# block, each ranging over [-2*s_bound, 2*s_bound], with the last component
# pinned to 0.  The searches below enumerate those representatives; the
# verdicts agree exactly with the literal box search of
# ``enumerate_weak_fillings`` (tests/test_pairings.py::TestWeakBoxOracle).


def _weak_tables(space: TupleSpace, convert):
    """Per-letter tables of converted pairing values: within-block entries
    B, rows against each distinguished element R, columns C, and the
    distinguished self-values D."""
    m = space.num_letters
    r = len(space.pairings)
    zero = convert(PiElement.zero(space.ground))
    B = [[zero] * m for _ in range(m)]
    R = [[zero] * r for _ in range(m)]
    C = [[zero] * r for _ in range(m)]
    D = [convert(p.matrix[0][0]) for p in space.pairings]
    for t, p in enumerate(space.pairings):
        off = space.offsets[t]
        for li in range(1, p.num_letters + 1):
            gi = off + li - 1
            R[gi][t] = convert(p.matrix[li][0])
            C[gi][t] = convert(p.matrix[0][li])
            for lj in range(1, p.num_letters + 1):
                B[gi][off + lj - 1] = convert(p.matrix[li][lj])
    return B, R, C, D


def _group_tables(groups, B, R, C, r, add, scale, zero):
    """Bilinear tables aggregated over the letter groups of one matching;
    slot 0 is the distinguished vector with no letter part."""
    slots = [()] + list(groups)
    size = len(slots)
    Lb = [[zero] * size for _ in range(size)]
    Lr = [[zero] * r for _ in range(size)]
    Lc = [[zero] * r for _ in range(size)]
    for x, gx in enumerate(slots):
        for t in range(r):
            acc_r = zero
            acc_c = zero
            for i, a in gx:
                acc_r = add(acc_r, scale(R[i][t], a))
                acc_c = add(acc_c, scale(C[i][t], a))
            Lr[x][t] = acc_r
            Lc[x][t] = acc_c
        for y, gy in enumerate(slots):
            acc = zero
            for i, a in gx:
                for j, b in gy:
                    acc = add(acc, scale(B[i][j], a * b))
            Lb[x][y] = acc
    return Lb, Lr, Lc


def _c_combos(num_groups: int, r: int, s_bound: int, relevant: bool):
    """Coefficient choices for the non-distinguished vectors."""
    if not relevant or r == 1:
        yield ((0,) * r,) * num_groups
        return
    spread = tuple(
        tuple(d) + (0,)
        for d in itertools.product(
            range(-2 * s_bound, 2 * s_bound + 1), repeat=r - 1
        )
    )
    yield from itertools.product(spread, repeat=num_groups)


def _weak_search(space: TupleSpace, s_bound: int, convert, add, scale, handle):
    """Drive the normalized weak-filling enumeration; ``handle`` receives
    the Gram-entry closure and the vector family for each candidate and
    may return a result to stop early."""
    r = len(space.pairings)
    B, R, C, D = _weak_tables(space, convert)
    zero = convert(PiElement.zero(space.ground))
    relevant = any(
        v != zero
        for t in range(r - 1)
        for v in [D[t]] + [R[i][t] for i in range(space.num_letters)] + [
            C[i][t] for i in range(space.num_letters)
        ]
    )
    ones = (1,) * r
    for matching in _matchings(space.ground, space.proj, 0, ()):
        Lb, Lr, Lc = _group_tables(matching, B, R, C, r, add, scale, zero)
        size = len(matching) + 1
        for combo in _c_combos(len(matching), r, s_bound, relevant):
            coeffs = (ones,) + combo

            def entry(x: int, y: int):
                acc = Lb[x][y]
                cx, cy = coeffs[x], coeffs[y]
                for t in range(r):
                    if cy[t]:
                        acc = add(acc, scale(Lr[x][t], cy[t]))
                    if cx[t]:
                        acc = add(acc, scale(Lc[y][t], cx[t]))
                        if cy[t]:
                            acc = add(acc, scale(D[t], cx[t] * cy[t]))
                return acc

            result = handle(entry, size, matching, combo)
            if result is not None:
                return result
    return None


def _weak_vectors(matching, combo, r: int) -> tuple[WeakVector, ...]:
    return (WeakVector((), (1,) * r),) + tuple(
        WeakVector(group, cs) for group, cs in zip(matching, combo)
    )


def is_hyperbolic_tuple(
    pairings: Sequence[AlphaPairing], s_bound: int = 2
) -> Optional[tuple[WeakVector, ...]]:
    """One-sided hyperbolicity search: a returned weak filling annihilates;
    None only means the bounded search found nothing."""
    if s_bound < 1:
        raise PairingError("s_bound must be at least 1")
    space = TupleSpace(tuple(pairings))
    r = len(space.pairings)
    nfree = len(space.ground.free_reps())

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(a, k):
        return tuple(k * x for x in a)

    def handle(entry, size, matching, combo):
        for x in range(size):
            for y in range(size):
                if not _coords_vanish(entry(x, y), nfree):
                    return None
        return _weak_vectors(matching, combo, r)

    return _weak_search(space, s_bound, PiElement.coordinates, add, scale, handle)


def weakly_cobordant(p: AlphaPairing, q: AlphaPairing, s_bound: int = 2) -> bool:
    return is_hyperbolic_tuple((p, q.opposite()), s_bound) is not None


def tuple_genus(
    pairings: Sequence[AlphaPairing], phi: PhiSpec, s_bound: int = 2
) -> Genus:
    """Minimal half-rank over the bounded weak fillings: an upper bound for
    the true minimum, exact when the optimum has coefficients in range."""
    if s_bound < 1:
        raise PairingError("s_bound must be at least 1")
    space = TupleSpace(tuple(pairings))
    best: list[Optional[int]] = [None]

    def add(a, b):
        return a + b

    def scale(a, k):
        return a * k

    def handle(entry, size, matching, combo):
        gram = [[entry(x, y) for y in range(size)] for x in range(size)]
        rank = _gram_rank(phi, gram)
        if best[0] is None or rank < best[0]:
            best[0] = rank
        if best[0] == 0:
            return 0
        return None

    _weak_search(space, s_bound, lambda v: _phi_scalar(phi, v), add, scale, handle)
    assert best[0] is not None
    return Genus(best[0])


# ---------------------------------------------------------------------------
# shifts of pairings and coverings of words


def m_shift(p: AlphaPairing, letter: int, m: int) -> AlphaPairing:
    """Replace one letter by a fresh one projecting to tau of its value;
    the new row is m*(s-row) minus the old row.  Requires skew symmetry."""
    if not p.is_skew_symmetric():
        raise PairingError("shift is defined for skew-symmetric pairings")
    if not 1 <= letter <= p.num_letters:
        raise PairingError("letter index out of range")
    size = p.num_letters + 1
    rows = [list(r) for r in p.matrix]
    for j in range(size):
        if j == letter:
            continue
        val = p.matrix[0][j].scaled(m) - p.matrix[letter][j]
        rows[letter][j] = val
        rows[j][letter] = -val
    rows[letter][letter] = PiElement.zero(p.ground)
    proj = list(p.proj)
    proj[letter - 1] = p.ground.tau(proj[letter - 1])
    names = list(p.names)
    fresh = names[letter - 1] + "~"
    while fresh in names:
        fresh += "~"
    names[letter - 1] = fresh
    return AlphaPairing(p.ground, tuple(proj), tuple(names), tuple(map(tuple, rows)))


def covering(w: Nanoword, subgroups: Mapping[str, Sequence[PiElement]]) -> Nanoword:
    """Keep only the letters whose distinguished pairing value lies in the
    subgroup attached to their projection's orbit.

    ``subgroups`` maps orbit representatives to generator lists; orbits not
    mentioned default to the zero subgroup.
    """
    ground = w.ground
    free = ground.free_reps()
    fixed = ground.fixed_reps()
    dim = len(free) + len(fixed)

    by_rep: dict[str, list[PiElement]] = {}
    for key, gens in subgroups.items():
        by_rep.setdefault(ground.orbit_rep(key), []).extend(gens)

    lattices: dict[str, IntegerLattice] = {}
    for rep, _ in ground.pairs:
        gens = [g.coordinates() for g in by_rep.get(rep, ())]
        gens.extend(
            tuple(2 if i == len(free) + j else 0 for i in range(dim))
            for j in range(len(fixed))
        )
        lattices[rep] = IntegerLattice(dim, gens)

    p = pairing_of_nanoword(w)
    doomed = [
        i
        for i in range(w.num_letters)
        if not lattices[ground.orbit_rep(w.proj[i])].contains(p.matrix[i + 1][0].coordinates())
    ]
    word, _ = w.delete_letters(doomed)
    return word


def full_subgroups(ground: InvolutiveAlphabet) -> dict[str, list[PiElement]]:
    """Generator lists presenting the whole value group, per orbit."""
    gens = [PiElement.of_letter(ground, rep) for rep, _ in ground.pairs]
    return {rep: list(gens) for rep, _ in ground.pairs}
