"""Enumeration of nanowords, invariant tables, slice adjudication,
length-norm bounds, and randomized verification suites.

Everything that needs randomness takes an explicit seed; enumeration
orders are deterministic so tables are reproducible run to run.
"""

from __future__ import annotations

import itertools
import random
import sys
from functools import cached_property
from typing import AbstractSet, Callable, Iterator, Optional, Sequence

from .algebra import InvolutiveAlphabet, PhiSpec, PiElement, PiWord, Value
from .moves import (
    Caps,
    DEFAULT_CAPS,
    Metamorphosis,
    Move,
    bounded_bfs,
    enumerate_bridges,
    insert_phrase,
    inserted_segments,
    key_images,
)
from .pairings import (
    AlphaPairing,
    UPoly,
    are_isomorphic,
    genus,
    is_hyperbolic,
    m_shift,
    pairing_of_nanoword,
    pairing_of_nanoword_alt,
    phi_sign_battery,
    r_of,
    sum_pairings,
    tuple_genus,
    u_degree,
    u_polynomial,
    verify_surgery_filling,
)
from .surfaces import genus_rank_check
from .words import EMPTY_WORD, Nanoword, WordError


class EnumerationGuard(ValueError):
    """Raised when an enumeration request would blow up combinatorially."""


# ---------------------------------------------------------------------------
# enumeration


def enumerate_matchings(chords: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of 2*chords positions, (2*chords - 1)!! of them."""

    def rec(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not free:
            yield ()
            return
        head, rest = free[0], free[1:]
        for idx, other in enumerate(rest):
            for tail in rec(rest[:idx] + rest[idx + 1 :]):
                yield ((head, other),) + tail

    return rec(tuple(range(2 * chords)))


def matching_to_word(
    ground: InvolutiveAlphabet,
    matching: Sequence[tuple[int, int]],
    labels: Sequence[str],
) -> Nanoword:
    """The word of a chord matching with one projection per chord.  Chords
    are numbered by first position, so the word is its own canonical form."""
    seq = [0] * (2 * len(matching))
    for cid, (i, j) in enumerate(sorted(matching)):
        seq[i] = cid
        seq[j] = cid
    return Nanoword.from_key(ground, (tuple(seq), tuple(labels)))


# Largest half-length enumerated without ``allow_large``.
MAX_HALF_LENGTH = 6


def enumerate_nanowords(
    half_length: int, ground: InvolutiveAlphabet, allow_large: bool = False
) -> list[Nanoword]:
    """All isomorphism classes with the given number of letters: chord
    matchings crossed with projection labelings.  Matchings are listed by
    first position and letters numbered in that order, so every word is
    already its own canonical form and no two coincide."""
    if half_length < 0:
        raise EnumerationGuard("half-length must be nonnegative")
    # no list holds more than sys.maxsize words, whatever ``allow_large`` says
    count = 1
    for k in range(1, half_length + 1):
        count *= (2 * k - 1) * len(ground.symbols)
        if count > sys.maxsize:
            raise EnumerationGuard(
                f"half-length {half_length} gives more than {sys.maxsize} words"
            )
    if not allow_large and (len(ground.symbols) > 3 or half_length > MAX_HALF_LENGTH):
        raise EnumerationGuard(
            "enumeration grows as (2n-1)!! * |alphabet|^n; pass allow_large=True"
        )
    return [
        matching_to_word(ground, matching, labels)
        for matching in enumerate_matchings(half_length)
        for labels in itertools.product(ground.symbols, repeat=half_length)
    ]


# ---------------------------------------------------------------------------
# invariant records and slice verdicts


class InvariantRecord(Value):
    """The invariants of one word, each computed on first read and then
    kept, under the coefficient maps ``phis``.  ``invariant_record`` files
    a word under its canonical form: no invariant depends on letter ids or
    names.

    A verdict reads the invariants cheapest first (gamma, then u, then the
    genera, then hyperbolicity) and stops at the first that is nonzero, so
    a word obstructed by gamma never builds its pairing.  The genera read
    hyperbolicity first: an annihilating filling has a zero Gram matrix
    under every coefficient map, so a hyperbolic pairing has genus 0 under
    all of them."""

    def __init__(self, word: Nanoword, phis: tuple[PhiSpec, ...]):
        fields = self.__dict__
        fields["word"] = word
        fields["phis"] = phis

    @cached_property
    def pairing(self) -> AlphaPairing:
        return pairing_of_nanoword(self.word)

    @cached_property
    def gamma(self) -> PiWord:
        return self.word.gamma()

    @cached_property
    def gamma_cyclic(self) -> tuple:
        return self.gamma.cyclic_key()

    @cached_property
    def u(self) -> UPoly:
        return u_polynomial(self.pairing)

    @cached_property
    def hyperbolic(self) -> bool:
        return is_hyperbolic(self.pairing) is not None

    @cached_property
    def genera(self) -> tuple[tuple[str, int], ...]:
        if self.hyperbolic:
            return tuple((phi.label(), 0) for phi in self.phis)
        return tuple((phi.label(), genus(self.pairing, phi).twice) for phi in self.phis)

    @cached_property
    def r(self) -> PiElement:
        return r_of(self.pairing)

    def cobordism_key(self) -> tuple:
        return (
            self.gamma.syllables,
            tuple((rep, poly.terms) for rep, poly in self.u.entries),
            self.genera,
            self.hyperbolic,
            self.r.coords,
        )


def invariant_record(
    w: Nanoword, phis: Optional[Sequence[PhiSpec]] = None
) -> InvariantRecord:
    phis = phi_sign_battery(w.ground) if phis is None else tuple(phis)
    return InvariantRecord(w.canonical_form(), phis)


SLICE = "slice"
NOT_SLICE = "not_slice"
UNKNOWN = "unknown"


class SliceVerdict(Value):
    def __init__(
        self,
        status: str,
        obstruction: Optional[str] = None,
        witness: Optional[Metamorphosis] = None,
        caps: Caps = DEFAULT_CAPS,
    ):
        fields = self.__dict__
        fields["status"] = status
        fields["obstruction"] = obstruction
        fields["witness"] = witness
        fields["caps"] = caps

    def __str__(self) -> str:
        if self.status == SLICE:
            return f"Slice({len(self.witness.moves)} moves)"
        if self.status == NOT_SLICE:
            return f"NotSlice({self.obstruction})"
        return f"Unknown(caps {self.caps.describe()})"


def obstruction(record: InvariantRecord) -> Optional[str]:
    """The first invariant of the record that rules out sliceness, by name,
    or None when all of them vanish."""
    if not record.gamma.is_identity():
        return "gamma"
    if not record.u.is_zero():
        return "u"
    if any(twice > 0 for _, twice in record.genera):
        return "genus"
    if not record.hyperbolic:
        return "pairing"
    return None


def slice_status(
    w: Nanoword,
    caps: Caps = DEFAULT_CAPS,
    phis: Optional[Sequence[PhiSpec]] = None,
    extra_templates: Sequence[tuple[tuple, tuple[str, ...]]] = (),
) -> SliceVerdict:
    return slice_verdict(invariant_record(w, phis), caps, extra_templates)


def slice_verdict(
    record: InvariantRecord,
    caps: Caps = DEFAULT_CAPS,
    extra_templates: Sequence[tuple[tuple, tuple[str, ...]]] = (),
) -> SliceVerdict:
    """The verdict for the word of an already computed record: the first
    nonzero obstruction, else a bounded search for the empty word.  A
    witness is replayed before it is returned."""
    named = obstruction(record)
    if named is not None:
        return SliceVerdict(NOT_SLICE, named, caps=caps)
    w = record.word
    search = bounded_bfs(
        w, Nanoword.empty(w.ground), caps, extra_templates=extra_templates
    )
    if search.equivalent:
        _assert_replays(w, search.metamorphosis)
        return SliceVerdict(SLICE, witness=search.metamorphosis, caps=caps)
    return SliceVerdict(UNKNOWN, caps=caps)


def _assert_replays(w: Nanoword, witness: Metamorphosis) -> None:
    """A ``Slice`` witness must take ``w`` to the empty word.  The search
    reads its children's keys off sequences without applying their moves,
    so its result is checked here, at the boundary."""
    try:
        length = witness.replay(w).length
    except WordError as exc:
        raise AssertionError(f"slice witness does not replay: {exc}") from exc
    if length:
        raise AssertionError(f"slice witness ends at a word of length {length}, not 0")


def length_norm_bounds(w: Nanoword, caps: Caps = DEFAULT_CAPS) -> tuple[int, int]:
    """Certified lower bound and search upper bound for half the minimal
    length in the equivalence class of ``w``.

    The lower bound combines: sliceness (bound 0), the no-value-1 gap,
    the degree of the polynomial invariant plus one, and half the genus
    plus one.  The upper bound is half the shortest length reached."""
    search = bounded_bfs(w, Nanoword.empty(w.ground), caps)
    if search.equivalent:
        _assert_replays(w, search.metamorphosis)
        return 0, 0
    upper = min(len(seq) for seq, _ in search.reached) // 2
    record = invariant_record(w)
    if obstruction(record) is None:
        return 0, upper
    lower = 2  # non-slice rules out 0, and the norm never takes value 1
    if not w.ground.fixed_reps():
        for rep in w.ground.free_reps():
            lower = max(lower, u_degree(record.u, rep) + 1)
    for _, twice in record.genera:
        sigma = twice // 2
        lower = max(lower, (sigma + 1) // 2 + 1)
    return lower, upper


# ---------------------------------------------------------------------------
# classification


DISTINCT = "distinct"
COBORDANT = "cobordant"


class ClassRow(Value):
    def __init__(self, index: int, record: InvariantRecord, verdict: SliceVerdict, component: int):
        fields = self.__dict__
        fields["index"] = index
        fields["record"] = record
        fields["verdict"] = verdict
        fields["component"] = component


class ClassificationTable(Value):
    def __init__(self, rows: tuple[ClassRow, ...]):
        self.__dict__["rows"] = rows

    def pair_status(self, i: int, j: int) -> str:
        a, b = self.rows[i], self.rows[j]
        if a.component == b.component:
            return COBORDANT
        if a.record.cobordism_key() != b.record.cobordism_key():
            return DISTINCT
        return UNKNOWN

    def fields(self) -> list[list[str]]:
        """The header and then one list of fields per row."""
        out = [
            ["index", "word", "proj", "length", "gamma", "u_hash", "u", "sigma",
             "verdict", "component"]
        ]
        for row in self.rows:
            w = row.record.word
            sigma = ";".join(f"{label}:{twice}" for label, twice in row.record.genera)
            out.append(
                [
                    str(row.index),
                    " ".join(w.letter_seq()) or EMPTY_WORD,
                    " ".join(f"{n}={a}" for n, a in zip(w.names, w.proj)),
                    str(w.length),
                    str(row.record.gamma),
                    row.record.u.fingerprint(),
                    str(row.record.u).replace(",", ";"),
                    sigma,
                    str(row.verdict),
                    str(row.component),
                ]
            )
        return out


def classify_words(
    words: Sequence[Nanoword],
    caps: Caps = DEFAULT_CAPS,
    phis: Optional[Sequence[PhiSpec]] = None,
) -> ClassificationTable:
    """Bucket by invariant record, then merge bucket members whose
    equivalence the bounded search certifies: ``j`` joins ``i`` when one
    search from ``i`` reaches ``j``.

    No merge search starts from a ``Slice`` row.  A partner it leaves
    unresolved shares its cobordism key, so every invariant of it vanishes
    and it is ``Unknown``; its own verdict search has already looked for
    the empty word.  What this gives up: the search inserts only
    templates, so its moves are not closed under inversion, and a search
    from a slice row may reach an ``Unknown`` that the ``Unknown``'s own
    search misses.

    An exhausted merge search is filed under every image of its start key
    (``key_images``), and a row whose key is filed starts no search of its
    own: the images of what the search reached are what a search from that
    image would reach.  A search the node cap stopped is never reused."""
    records = [invariant_record(w, phis) for w in words]
    verdicts = [slice_verdict(rec, caps) for rec in records]

    parent = list(range(len(words)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    # slice words are all cobordant to the empty word, hence to each other
    slice_members = [i for i, v in enumerate(verdicts) if v.status == SLICE]
    for i, j in zip(slice_members, slice_members[1:]):
        union(i, j)

    merge_caps = caps.replace(bfs_nodes=min(caps.bfs_nodes, 600))
    keys = [rec.word.canonical_key() for rec in records]
    # each exhausted merge search's reached set, under every image of its
    # start key, with the index of that image in ``key_images``
    filed: dict[tuple, tuple[int, AbstractSet[tuple]]] = {}

    def merge_search(i: int) -> tuple[int, AbstractSet[tuple]]:
        if keys[i] in filed:
            return filed[keys[i]]
        search = bounded_bfs(words[i], None, merge_caps)
        if search.exhausted:
            for t, image in enumerate(key_images(words[i].ground, keys[i])):
                filed.setdefault(image, (t, search.reached))
        return 0, search.reached

    buckets: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        buckets.setdefault(rec.cobordism_key(), []).append(i)
    for members in buckets.values():
        for pos, i in enumerate(members):
            if verdicts[i].status == SLICE:
                continue
            found = None  # looked up once, when i first meets an unresolved j
            for j in members[pos + 1 :]:
                if find(i) == find(j):
                    continue
                if found is None:
                    found = merge_search(i)
                t, reached = found
                # i's key is image t of the search's start, so j is reached
                # exactly when image t of j is: each map is an involution
                if key_images(words[j].ground, keys[j])[t] in reached:
                    union(i, j)

    rows = tuple(
        ClassRow(i, records[i], verdicts[i], find(i)) for i in range(len(words))
    )
    table = ClassificationTable(rows)
    _assert_sound(table)
    return table


def _assert_sound(table: ClassificationTable) -> None:
    """A pair must never be both invariant-distinct and search-cobordant:
    every component holds a single cobordism key."""
    first: dict[int, ClassRow] = {}
    for row in table.rows:
        a = first.setdefault(row.component, row)
        if a.record.cobordism_key() != row.record.cobordism_key():
            raise AssertionError(
                f"classification soundness violated for rows {a.index}, {row.index}"
            )


def classify(
    half_length: int,
    ground: InvolutiveAlphabet,
    caps: Caps = DEFAULT_CAPS,
    phis: Optional[Sequence[PhiSpec]] = None,
    allow_large: bool = False,
) -> ClassificationTable:
    return classify_words(
        enumerate_nanowords(half_length, ground, allow_large), caps, phis
    )


# ---------------------------------------------------------------------------
# random generators


def random_nanoword(
    rng: random.Random, ground: InvolutiveAlphabet, num_letters: int
) -> Nanoword:
    positions = list(range(2 * num_letters))
    rng.shuffle(positions)
    matching = [
        tuple(sorted(positions[2 * i : 2 * i + 2])) for i in range(num_letters)
    ]
    labels = [rng.choice(ground.symbols) for _ in range(num_letters)]
    return matching_to_word(ground, matching, labels)


def random_even_symmetric_phrase(
    rng: random.Random, ground: InvolutiveAlphabet
) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """A random even symmetric nanophrase, as (segment words with local
    letter ids, projections).

    Positions are matched mirror-symmetrically, so the position-forced
    letter involution exists by construction; projections on each
    involution orbit are then chosen to satisfy the twist rule.  The
    phrase has one to three segments, each of even length two to six.
    """
    k = rng.randint(1, 3)
    lengths = [rng.randrange(2, 7, 2) for _ in range(k)]
    positions = [(r, i) for r in range(k) for i in range(lengths[r])]

    def mirror(pos: tuple[int, int]) -> tuple[int, int]:
        r, i = pos
        return (r, lengths[r] - 1 - i)

    unmatched = set(positions)
    chord_of: dict[tuple[int, int], int] = {}
    chords: list[tuple[tuple[int, int], tuple[int, int]]] = []
    while unmatched:
        p = min(unmatched)
        unmatched.discard(p)
        q = rng.choice(sorted(unmatched))
        unmatched.discard(q)
        cid = len(chords)
        chords.append((p, q))
        chord_of[p] = cid
        chord_of[q] = cid
        mp, mq = mirror(p), mirror(q)
        if {mp, mq} != {p, q}:
            unmatched.discard(mp)
            unmatched.discard(mq)
            mid = len(chords)
            chords.append((mp, mq))
            chord_of[mp] = mid
            chord_of[mq] = mid

    iota = {}
    for cid, (p, q) in enumerate(chords):
        iota[cid] = chord_of[mirror(p)]
    eps = {cid: (0 if p[0] == q[0] else 1) for cid, (p, q) in enumerate(chords)}

    proj: dict[int, str] = {}
    for cid in range(len(chords)):
        if cid in proj:
            continue
        a = rng.choice(ground.symbols)
        proj[cid] = a
        partner = iota[cid]
        if partner != cid:
            proj[partner] = ground.tau(a) if eps[cid] else a

    words = tuple(
        tuple(chord_of[(r, i)] for i in range(lengths[r])) for r in range(k)
    )
    return words, tuple(proj[c] for c in range(len(chords)))


def random_surgery_instance(
    rng: random.Random,
    ground: InvolutiveAlphabet,
    max_total_length: int = 14,
) -> tuple[Nanoword, Move]:
    """A word containing a random even symmetric factor, and its ``SURG`` move."""
    words, proj = random_even_symmetric_phrase(rng, ground)
    phrase_length = sum(len(word) for word in words)
    budget = max(0, (max_total_length - phrase_length) // 2)
    context = random_nanoword(rng, ground, rng.randint(0, budget))
    points = sorted(rng.randint(0, context.length) for _ in words)
    w = insert_phrase(context, words, proj, points)
    base = context.num_letters
    letters = tuple(range(base, base + len(proj)))
    return w, Move("SURG", (letters, inserted_segments(words, points)))


def random_pi_element(rng: random.Random, ground: InvolutiveAlphabet) -> PiElement:
    free = {
        rep: rng.randint(-2, 2)
        for rep in ground.free_reps()
        if rng.random() < 0.7
    }
    torsion = tuple(rep for rep in ground.fixed_reps() if rng.random() < 0.3)
    return PiElement.make(ground, free, torsion)


def random_skew_pairing(
    rng: random.Random, ground: InvolutiveAlphabet, num_letters: int
) -> AlphaPairing:
    zero = PiElement.zero(ground)
    entries: dict[tuple[int, int], PiElement] = {(0, 0): zero}
    proj = [rng.choice(ground.symbols) for _ in range(num_letters)]
    for i in range(1, num_letters + 1):
        es = random_pi_element(rng, ground)
        entries[(i, 0)] = es
        entries[(0, i)] = -es
        for j in range(i + 1, num_letters + 1):
            v = random_pi_element(rng, ground)
            entries[(i, j)] = v
            entries[(j, i)] = -v
    return AlphaPairing.build(ground, proj, entries)


# ---------------------------------------------------------------------------
# verification suites


class SuiteResult(Value):
    def __init__(self, name: str, passed: bool, checked: int, detail: str = ""):
        fields = self.__dict__
        fields["name"] = name
        fields["passed"] = passed
        fields["checked"] = checked
        fields["detail"] = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: {self.checked} checks{extra}"


# The suites' alphabets: one free orbit, two free orbits, and one free
# orbit plus a fixed point.
_SUITE_ALPHABETS = (
    InvolutiveAlphabet.fixed_point_free(("a",), ("A",)),
    InvolutiveAlphabet.fixed_point_free(("a", "b"), ("A", "B")),
    InvolutiveAlphabet.build(("a", "A", "c"), {"a": "A", "A": "a", "c": "c"}),
)


def _random_alphabet(rng: random.Random, allow_fixed: bool = True) -> InvolutiveAlphabet:
    return rng.choice(_SUITE_ALPHABETS if allow_fixed else _SUITE_ALPHABETS[:2])


def suite_surgery_filling(seed: int = 0, count: int = 500, max_length: int = 14) -> SuiteResult:
    rng = random.Random(seed)
    for trial in range(count):
        ground = _random_alphabet(rng)
        w, surgery = random_surgery_instance(rng, ground, max_length)
        if not verify_surgery_filling(w, surgery):
            return SuiteResult(
                "surgery-filling", False, trial + 1, f"failed on {w}"
            )
    return SuiteResult("surgery-filling", True, count)


def _record_for_move_check(w: Nanoword, phis) -> tuple:
    p = pairing_of_nanoword(w)
    return (
        w.gamma().syllables,
        tuple((rep, poly.terms) for rep, poly in u_polynomial(p).entries),
        tuple(genus(p, phi).twice for phi in phis),
    )


# The phrase each homotopy move acts on, in local letter ids.
_MOVE_PHRASES = {"H1": ((0, 0),), "H2": ((0, 1), (1, 0)), "H3": ((0, 1), (0, 2), (1, 2))}


def _random_move_instance(rng: random.Random, ground: InvolutiveAlphabet):
    """A (word, move) pair for a random move type, built by planting the
    move's phrase inside a random context."""
    kind = rng.choice(("H1", "H2", "H3", "SURG"))
    if kind == "SURG":
        return random_surgery_instance(rng, ground, max_total_length=12)
    context = random_nanoword(rng, ground, rng.randint(0, 3))
    words = _MOVE_PHRASES[kind]
    if kind == "H1":
        points = [rng.randint(0, context.length)]
        proj = (rng.choice(ground.symbols),)
    else:
        a = rng.choice(ground.symbols)
        points = sorted(rng.randint(0, context.length) for _ in words)
        proj = (a, ground.tau(a)) if kind == "H2" else (a, a, a)
    w = insert_phrase(context, words, proj, points)
    starts = tuple(start for start, _ in inserted_segments(words, points))
    return w, Move(kind, starts)


def suite_move_invariance(seed: int = 0, count: int = 1000) -> SuiteResult:
    rng = random.Random(seed)
    shifts = count // 5
    for trial in range(count - shifts):
        ground = _random_alphabet(rng)
        phis = phi_sign_battery(ground)
        w, move = _random_move_instance(rng, ground)
        if _record_for_move_check(w, phis) != _record_for_move_check(move.apply(w), phis):
            return SuiteResult(
                "move-invariance", False, trial + 1, f"{move.kind} changed invariants on {w}"
            )
    for trial in range(shifts):
        ground = _random_alphabet(rng)
        phis = phi_sign_battery(ground)
        w = random_nanoword(rng, ground, rng.randint(1, 5))
        shifted = w.circular_shift()
        p, ps = pairing_of_nanoword(w), pairing_of_nanoword(shifted)
        ok = (
            w.gamma().cyclic_key() == shifted.gamma().cyclic_key()
            and u_polynomial(p) == u_polynomial(ps)
            and all(genus(p, phi).twice == genus(ps, phi).twice for phi in phis)
            and are_isomorphic(ps, m_shift(p, w.seq[0] + 1, 2))
        )
        if not ok:
            return SuiteResult(
                "move-invariance", False, count - shifts + trial + 1,
                f"shift changed invariants on {w}",
            )
    return SuiteResult("move-invariance", True, count)


def suite_genus_rank(max_half_length: int = 5) -> SuiteResult:
    ground = InvolutiveAlphabet.plus_minus()
    words = []
    for n in range(max_half_length + 1):
        words.extend(enumerate_nanowords(n, ground))
    bad = [w for w in words if not genus_rank_check(w)]
    if bad:
        return SuiteResult(
            "genus-rank", False, len(words), f"first failure {bad[0]}"
        )
    return SuiteResult("genus-rank", True, len(words))


def suite_inequalities(seed: int = 0, triples: int = 100, pairs: int = 100) -> SuiteResult:
    rng = random.Random(seed)
    checked = 0
    for _ in range(triples):
        ground = _random_alphabet(rng)
        phi = rng.choice(phi_sign_battery(ground))
        ps = [random_skew_pairing(rng, ground, rng.randint(1, 2)) for _ in range(3)]
        s12 = genus(sum_pairings(ps[0], ps[1].opposite()), phi).twice
        s23 = genus(sum_pairings(ps[1], ps[2].opposite()), phi).twice
        s13 = genus(sum_pairings(ps[0], ps[2].opposite()), phi).twice
        checked += 1
        if s12 + s23 < s13:
            return SuiteResult("inequalities", False, checked, "triangle violated")
    for _ in range(pairs):
        ground = _random_alphabet(rng)
        phi = rng.choice(phi_sign_battery(ground))
        p1 = random_skew_pairing(rng, ground, rng.randint(1, 2))
        p2 = random_skew_pairing(rng, ground, rng.randint(1, 2))
        checked += 1
        if genus(p1, phi).twice + genus(p2, phi).twice < genus(sum_pairings(p1, p2), phi).twice:
            return SuiteResult("inequalities", False, checked, "subadditivity violated")
    return SuiteResult("inequalities", True, checked)


def suite_sandwich(seed: int = 0, pairs: int = 100, s_bound: int = 2) -> SuiteResult:
    rng = random.Random(seed)
    for trial in range(pairs):
        ground = _random_alphabet(rng)
        phi = rng.choice(phi_sign_battery(ground))
        p1 = random_skew_pairing(rng, ground, rng.randint(1, 2))
        p2 = random_skew_pairing(rng, ground, rng.randint(1, 2))
        whole = genus(sum_pairings(p1, p2), phi).twice
        weak = tuple_genus((p1, p2), phi, s_bound).twice
        if not (whole >= weak >= whole - 2):
            return SuiteResult(
                "sandwich", False, trial + 1,
                f"tuple genus {weak} outside [{whole - 2}, {whole}] (doubled)",
            )
    return SuiteResult("sandwich", True, pairs)


class BridgeReport(Value):
    def __init__(
        self, checked: int, weak_checked: int, violations: int, min_slack_quadrupled: Optional[int]
    ):
        fields = self.__dict__
        fields["checked"] = checked
        fields["weak_checked"] = weak_checked
        fields["violations"] = violations
        fields["min_slack_quadrupled"] = min_slack_quadrupled

    @property
    def passed(self) -> bool:
        return self.violations == 0


# The bridge suite's sample: words of 1 to 3 letters, their bridges of at
# most 3 letters in at most 4 segments, and the tuple-genus variant of the
# bound on every fourth bridge.
_BRIDGE_WORD_LETTERS = 3
_BRIDGE_LETTERS, _BRIDGE_SEGMENTS = 3, 4
_WEAK_EVERY = 4


def bridge_inequality_suite(
    sample_size: int,
    ground: Optional[InvolutiveAlphabet] = None,
    seed: int = 0,
) -> BridgeReport:
    """Sample words over a fixed-point-free alphabet, enumerate their
    bridges, and check the arch count against half the genus of the
    before/after pairing sum, for every sign-valued coefficient map.
    Every ``_WEAK_EVERY``-th bridge also gets the weaker tuple-genus
    variant of the bound."""
    rng = random.Random(seed)
    checked = 0
    weak_checked = 0
    min_slack = None
    for _ in range(sample_size):
        g = ground if ground is not None else _random_alphabet(rng, allow_fixed=False)
        if g.fixed_reps():
            raise ValueError("bridge suite needs a fixed-point-free involution")
        phis = phi_sign_battery(g)
        w = random_nanoword(rng, g, rng.randint(1, _BRIDGE_WORD_LETTERS))
        p_w = pairing_of_nanoword(w)
        sigma_cache: dict[tuple, list[int]] = {}
        for count, bridge in enumerate(
            enumerate_bridges(w, _BRIDGE_LETTERS, _BRIDGE_SEGMENTS)
        ):
            x = bridge.apply(w)
            key = x.canonical_key()
            if key not in sigma_cache:
                p_sum = sum_pairings(p_w, pairing_of_nanoword(x).opposite())
                sigma_cache[key] = [genus(p_sum, phi).twice for phi in phis]
            for twice in sigma_cache[key]:
                checked += 1
                slack = 4 * bridge.arches - twice  # g >= sigma/2, quadrupled
                if slack < 0:
                    return BridgeReport(checked, weak_checked, 1, slack)
                min_slack = slack if min_slack is None else min(min_slack, slack)
            small = w.num_letters + x.num_letters <= 3
            if count % _WEAK_EVERY == 0 and small:
                p_x = pairing_of_nanoword(x)
                for phi in phis:
                    weak_checked += 1
                    weak_twice = tuple_genus((p_w, p_x.opposite()), phi).twice
                    if 4 * bridge.arches - weak_twice < 0:
                        return BridgeReport(checked, weak_checked, 1, None)
    return BridgeReport(checked, weak_checked, 0, min_slack)


def suite_bridge_inequality(seed: int = 0, words: int = 200) -> SuiteResult:
    report = bridge_inequality_suite(words, None, seed)
    total = report.checked + report.weak_checked
    if not report.passed:
        return SuiteResult(
            "bridge-inequality", False, total, "arch count below genus bound"
        )
    # the quadrupled slack is even: the summed pairing is skew-symmetric,
    # so its Gram ranks are even
    slack = report.min_slack_quadrupled
    detail = "" if slack is None else f"min doubled slack {slack // 2}"
    return SuiteResult("bridge-inequality", True, total, detail)


def suite_shift_consistency(seed: int = 0, count: int = 200) -> SuiteResult:
    rng = random.Random(seed)
    for trial in range(count):
        ground = _random_alphabet(rng)
        w = random_nanoword(rng, ground, rng.randint(1, 5))
        shifted = w.circular_shift()
        p, ps = pairing_of_nanoword(w), pairing_of_nanoword(shifted)
        if not are_isomorphic(ps, m_shift(p, w.seq[0] + 1, 2)):
            return SuiteResult(
                "shift-consistency", False, trial + 1, f"shift mismatch on {w}"
            )
        rotated = w
        for _ in range(w.length):
            rotated = rotated.circular_shift()
        if not rotated.is_isomorphic(w):
            return SuiteResult(
                "shift-consistency", False, trial + 1, f"full rotation moved {w}"
            )
    return SuiteResult("shift-consistency", True, count)


def suite_alt_pairing(seed: int = 0, count: int = 500, max_letters: int = 6) -> SuiteResult:
    rng = random.Random(seed)
    for trial in range(count):
        ground = _random_alphabet(rng)
        w = random_nanoword(rng, ground, rng.randint(0, max_letters))
        p1 = pairing_of_nanoword(w)
        p2 = pairing_of_nanoword_alt(w)
        if p1.coords != p2.coords:
            return SuiteResult(
                "alt-pairing", False, trial + 1, f"routes disagree on {w}"
            )
    return SuiteResult("alt-pairing", True, count)


ALL_SUITES: dict[str, Callable[..., SuiteResult]] = {
    "surgery-filling": suite_surgery_filling,
    "move-invariance": suite_move_invariance,
    "genus-rank": suite_genus_rank,
    "inequalities": suite_inequalities,
    "sandwich": suite_sandwich,
    "bridge-inequality": suite_bridge_inequality,
    "shift-consistency": suite_shift_consistency,
    "alt-pairing": suite_alt_pairing,
}
