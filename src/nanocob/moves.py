"""Local moves on nanowords and bounded search over move sequences.

Three homotopy rewrites (the first two delete the one- and two-letter
surgery factors), deletion of bridges (factors whose segments mirror
onto one another through a segment involution) and of even symmetric
factors (surgery: the identity-involution bridges), both from one generator,
circular shifts, and a bounded search over canonical keys.  The
inverse-surgery side of the search inserts factors from a small template
list, since arbitrary insertions are an infinite move space.  The search
takes insertions last: it is breadth-first where an insertion costs 1 and
every other move costs 0, so a word that homotopy moves and surgeries
empty is emptied before any state an insertion reached is expanded.
An insertion is legal exactly when deleting what it inserted is, so one
rule, ``validate_bridge``, decides factor moves in both directions.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import AbstractSet, Iterator, Optional, Sequence

from .algebra import InvolutiveAlphabet, Value
from .words import Nanoword, SymmetryWitness, WordError, fresh_names, key_of, mirror_witness


class Caps(Value):
    """Search bounds shared by factor/bridge enumeration and the BFS.
    ``bfs_length`` None means the start length + 4."""

    def __init__(
        self,
        max_letters: int = 6,
        max_k: int = 4,
        bfs_length: Optional[int] = None,
        bfs_nodes: int = 4000,
    ):
        fields = self.__dict__
        fields["max_letters"] = max_letters
        fields["max_k"] = max_k
        fields["bfs_length"] = bfs_length
        fields["bfs_nodes"] = bfs_nodes

    def describe(self) -> str:
        return ",".join(f"{key}={getattr(self, field)}" for key, field in CAP_KEYS.items())

    def length_cap(self, length: int) -> int:
        """The longest word a search from a word of ``length`` may visit."""
        return self.bfs_length if self.bfs_length is not None else length + 4


# Each ``--caps`` key with the ``Caps`` field it sets, in ``describe`` order.
CAP_KEYS = {"letters": "max_letters", "k": "max_k", "bfs": "bfs_length", "nodes": "bfs_nodes"}


DEFAULT_CAPS = Caps()


class Move(Value):
    """One replayable rewrite.  ``data`` is kind-specific:

    H1: (i,)  H2: (i, j)  H3: (i, j, k)  SHIFT: ()
    SURG/BRIDGE: (letters, segments[, kappa]) referring to the source word
    INS: (words, proj, positions[, kappa]) describing the inserted factor

    A factor move (H1, H2, SURG, BRIDGE, INS) deletes or inserts a bridge
    with its ``kappa``, the identity when it has none (as when INS undoes no
    bridge, and for H1 and H2, the one- and two-letter surgeries).
    """

    def __init__(self, kind: str, data: tuple, inverse: bool = False):
        fields = self.__dict__
        fields["kind"] = kind
        fields["data"] = data
        fields["inverse"] = inverse

    @property
    def kappa(self) -> Optional[tuple[int, ...]]:
        """The segment involution of a bridge, or of an insertion undoing one."""
        if self.kind in ("BRIDGE", "INS") and len(self.data) == len(_LAYOUTS[self.kind]):
            return self.data[-1]
        return None

    @property
    def arches(self) -> int:
        """The arches of ``kappa``: its pairs of swapped segments."""
        return sum(1 for r, image in enumerate(self.kappa or ()) if r < image)

    def factor(self, w: Nanoword) -> tuple:
        """The factor a deleting move takes out of ``w``, as ``(letters,
        segments)``: letters and the disjoint in-order segments (half-open
        position ranges) covering exactly their entries.  For ``H1@i`` the
        letter at ``i`` on ``(i, i + 2)``, for ``H2@i,j`` the letters at
        ``i, i + 1`` on ``(i, i + 2), (j, j + 2)``, for SURG and BRIDGE the
        head of ``data``.  H1 and H2 are surgeries, which
        ``validate_bridge`` decides, but an H2 site must also be
        ``ab ... ba``, not the sibling surgery ``ab ... ab``: a site out of
        range or not of that shape raises WordError, and so does a move
        that deletes no factor (H3, SHIFT, INS)."""
        if self.kind in ("SURG", "BRIDGE"):
            return self.data[:2]
        if self.kind not in ("H1", "H2"):
            raise WordError(f"move kind {self.kind!r} deletes no factor")
        i, j = self.data[0], self.data[-1]
        pair = w.seq[i:i + 2]
        if min(i, j) < 0 or j + 2 > w.length or (self.kind == "H2" and w.seq[j:j + 2] != pair[::-1]):
            raise WordError(f"no {self.kind} site at positions {_join(self.data)}")
        return tuple(sorted(set(pair))), tuple((s, s + 2) for s in self.data)

    def apply(self, w: Nanoword) -> Nanoword:
        if self.kind == "H3":
            return apply_h3(w, self.data, self.inverse)
        if self.kind == "SHIFT":
            return w.circular_shift()
        grows = self.kind == "INS"
        if grows:
            x = insert_phrase(w, *self.data[:3])
            letters = tuple(range(w.num_letters, x.num_letters))
            segments = inserted_segments(self.data[0], self.data[2])
        else:
            x, (letters, segments) = w, self.factor(w)
        if validate_bridge(x, letters, segments, self.kappa or range(len(segments))) is None:
            what = "inserted phrase" if grows else f"factor at {segments}"
            raise WordError(f"{what} is not a bridge with its kappa")
        return x if grows else x.delete_letters(letters)[0]

    def to_line(self) -> str:
        head = f"INV {self.kind}" if self.inverse else self.kind
        if self.kind in _POSITIONS:
            return f"{head}@{_join(self.data)}"
        fields = [f"{n}={_FIELDS[n][0](v)}" for n, v in zip(_LAYOUTS[self.kind], self.data)]
        if self.kappa is not None:
            fields.append(f"arches={self.arches}")
        return " ".join([head, *fields])

    @staticmethod
    def from_line(line: str) -> "Move":
        text = line.strip()
        try:
            return Move._parse_line(text)
        except KeyError as exc:
            raise WordError(f"cannot parse move line {text!r}: no field {exc}") from exc
        except ValueError as exc:
            raise WordError(f"cannot parse move line {text!r}: {exc}") from exc

    @staticmethod
    def _parse_line(text: str) -> "Move":
        """A missing field raises KeyError; a malformed value, an unknown
        kind or field, a misplaced ``INV`` or a stated ``arches`` that is
        not the arch count of ``kappa`` raises ValueError."""
        inverse = text.startswith("INV ")
        if inverse:
            text = text[4:]
        if "@" in text:
            kind, rest = text.split("@", 1)
            move = Move(kind, _ints(rest), inverse)
            if len(move.data) != _POSITIONS.get(kind):
                raise ValueError(f"wrong number of positions for {kind!r}")
        else:
            kind, *parts = text.split(" ")
            if kind not in _LAYOUTS:
                raise ValueError(f"unknown move kind {kind!r}")
            fields = dict(part.partition("=")[::2] for part in parts)
            layout = _LAYOUTS[kind]
            if kind == "INS" and "kappa" not in fields:
                layout = layout[:-1]  # an insertion that undoes no bridge
            move = Move(kind, tuple(_FIELDS[name][1](fields.pop(name)) for name in layout), inverse)
            stated = fields.pop("arches", None) if move.kappa is not None else None
            if fields:
                raise ValueError(f"{kind} has no field {min(fields)!r}")
            if stated is not None and int(stated) != move.arches:
                raise ValueError(f"kappa has {move.arches} arches, not {stated}")
        if inverse and move.kind not in ("H3", "INS"):  # no other kind has an inverse form
            raise ValueError("only H3 and INS take INV")
        return move


def _join(values: Sequence, sep: str = ",") -> str:
    return sep.join(map(str, values))


def _ints(text: str, sep: str = ",") -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(sep))


_POSITIONS = {"H1": 1, "H2": 2, "H3": 3}

# How each named field of a move line is written, and read back (a
# malformed value raises ValueError).
_FIELDS = {
    "letters": (_join, _ints),
    "segs": (
        lambda segments: ",".join(f"{a}-{b}" for a, b in segments),
        lambda text: tuple((int(a), int(b)) for a, b in (s.split("-") for s in text.split(","))),
    ),
    "kappa": (_join, _ints),
    "words": (
        lambda words: "|".join(_join(word, ".") for word in words),
        lambda text: tuple(_ints(word, ".") for word in text.split("|")),
    ),
    "proj": (",".join, lambda text: tuple(text.split(","))),
    "at": (_join, _ints),
}

# The named fields of each move written with them, in ``data`` order: the
# factor moves, and SHIFT, which has none.  A line whose move has a
# ``kappa`` also states its ``arches``, which must agree.
_LAYOUTS = {
    "SHIFT": (),
    "SURG": ("letters", "segs"),
    "BRIDGE": ("letters", "segs", "kappa"),
    "INS": ("words", "proj", "at", "kappa"),
}


class Metamorphosis(Value):
    """A replayable move sequence.  Replay canonicalizes after every move,
    matching how the search generated it."""

    def __init__(self, moves: tuple[Move, ...]):
        self.__dict__["moves"] = moves

    @property
    def total_arches(self) -> int:
        """The arches of the bridges deleted, and of the insertions that
        undo bridges: the arch count of each move's ``kappa``, the one its
        replay validates, so a log keeps it."""
        return sum(m.arches for m in self.moves)

    def replay(self, start: Nanoword) -> Nanoword:
        """The canonical end of the moves from ``start``; a move that does
        not apply raises WordError, led by its 1-based position."""
        current = start.canonical_form()
        for number, move in enumerate(self.moves, start=1):
            try:
                current = move.apply(current).canonical_form()
            except ValueError as exc:
                raise WordError(f"move {number}: {exc}") from exc
        return current

    def to_log(self) -> str:
        return "\n".join(m.to_line() for m in self.moves)

    @staticmethod
    def from_log(text: str) -> "Metamorphosis":
        lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
        return Metamorphosis(tuple(Move.from_line(ln) for ln in lines))

    def inverted(self, start: Nanoword) -> "Metamorphosis":
        """The reverse move sequence, with positions resolved by replaying
        from ``start``.  Replaying the result from the endpoint returns a
        word isomorphic to ``start``.  Factor moves keep their ``kappa``, so
        inverting is total on them and keeps the arches."""
        current = start.canonical_form()
        backward: list[Move] = []
        for move in self.moves:
            result = move.apply(current).canonical_form()
            backward.extend(_invert_move(move, current, result))
            current = result
        return Metamorphosis(tuple(reversed(backward)))


def _invert_move(move: Move, w: Nanoword, result: Nanoword) -> list[Move]:
    """Inverse of one move applied to (canonical) ``w``, as replayable
    moves against ``result``, the canonical form of the move's result.  A
    factor move inverts to one that keeps its ``kappa``."""
    if move.kind == "H3":
        return [Move("H3", move.data, inverse=not move.inverse)]
    if move.kind == "SHIFT":
        return [Move("SHIFT", ())] * (w.length - 1)
    kappa = () if move.kappa is None else (move.kappa,)
    if move.kind == "INS":
        segments = inserted_segments(move.data[0], move.data[2])
        inserted = sorted({result.seq[p] for s, e in segments for p in range(s, e)})
        return [Move("BRIDGE" if kappa else "SURG", (tuple(inserted), segments) + kappa)]
    letters, segments = move.factor(w)
    local = {g: i for i, g in enumerate(sorted(letters))}
    words = tuple(tuple(local[x] for x in w.seq[start:end]) for start, end in segments)
    # a segment goes back to its start, less the segments deleted before it
    points = tuple(s - sum(map(len, words[:t])) for t, (s, _) in enumerate(segments))
    return [Move("INS", (words, tuple(w.proj[g] for g in local), points) + kappa, inverse=True)]


# ---------------------------------------------------------------------------
# homotopy moves


def find_h1_sites(w: Nanoword) -> list[Move]:
    return [
        Move("H1", (i,))
        for i in range(w.length - 1)
        if w.seq[i] == w.seq[i + 1]
    ]


def find_h2_sites(w: Nanoword) -> list[Move]:
    """Sites ``ab ... ba``: for each ``i`` the only candidate ``j`` is the
    other entry of ``b``, so there is at most one site per ``i``."""
    partner = w.partner
    sites = []
    for i in range(w.length - 1):
        a, b = w.seq[i], w.seq[i + 1]
        j = partner[i + 1]
        if a == b or j < i + 2 or partner[i] != j + 1:
            continue
        if w.proj[b] == w.ground.tau(w.proj[a]):
            sites.append(Move("H2", (i, j)))
    return sites


def _h3_positions(w: Nanoword, i: int, j: int, k: int, forward: bool) -> Optional[tuple[int, int, int]]:
    if not (0 <= i and i + 1 < j and j + 1 < k and k + 1 < w.length):
        return None
    if forward:
        a, b = w.seq[i], w.seq[i + 1]
        a2, c = w.seq[j], w.seq[j + 1]
        b2, c2 = w.seq[k], w.seq[k + 1]
    else:
        b, a = w.seq[i], w.seq[i + 1]
        c, a2 = w.seq[j], w.seq[j + 1]
        c2, b2 = w.seq[k], w.seq[k + 1]
    if a != a2 or b != b2 or c != c2:
        return None
    if len({a, b, c}) != 3:
        return None
    if not (w.proj[a] == w.proj[b] == w.proj[c]):
        return None
    return (a, b, c)


def find_h3_sites(w: Nanoword, inverse: bool = False) -> list[Move]:
    """Sites ``ab ac bc`` (inverse: ``ba ca cb``).  The letters at ``i``
    and ``i + 1`` force ``j`` and ``k`` through their other entries, so
    there is at most one site per ``i``."""
    partner = w.partner
    sites = []
    for i in range(w.length - 1):
        if inverse:
            j, k = partner[i + 1] - 1, partner[i] - 1
        else:
            j, k = partner[i], partner[i + 1]
        if _h3_positions(w, i, j, k, forward=not inverse):
            sites.append(Move("H3", (i, j, k), inverse=inverse))
    return sites


def apply_h3(w: Nanoword, site: tuple[int, int, int], inverse: bool = False) -> Nanoword:
    """Rewrite ``ab ac bc`` at ``site`` to ``ba ca cb``; with ``inverse``,
    rewrite ``ba ca cb`` back to ``ab ac bc``."""
    letters = _h3_positions(w, *site, forward=not inverse)
    if letters is None:
        pattern = "inverse third-move" if inverse else "third-move"
        raise WordError(f"no {pattern} pattern at positions {site}")
    a, b, c = letters
    pairs = ((a, b), (a, c), (b, c)) if inverse else ((b, a), (c, a), (c, b))
    seq = list(w.seq)
    for p, pair in zip(site, pairs):
        seq[p:p + 2] = pair
    return Nanoword(w.ground, tuple(seq), w.proj, w.names)


# ---------------------------------------------------------------------------
# factors, surgeries, bridges


def enumerate_factors(w: Nanoword, max_letters: int, max_k: int) -> Iterator[tuple]:
    """Every factor within the caps, as ``(letters, segments)``, in
    deterministic order: by size, then letter tuple, then per maximal run of
    positions by (piece count, cut offsets).  Adjacent segments model empty
    context between them."""
    m = w.num_letters
    for size in range(1, min(m, max_letters) + 1):
        for subset in itertools.combinations(range(m), size):
            taken = {p for p, x in enumerate(w.seq) if x in subset}
            runs = [  # maximal runs of taken positions, as (start, end)
                (p, next(end for end in itertools.count(p) if end not in taken))
                for p in sorted(taken)
                if p - 1 not in taken
            ]
            spare = max_k - len(runs)  # cuts left once each run has a segment
            if spare < 0:
                continue
            splits = [
                [
                    tuple(zip((start,) + cuts, cuts + (end,)))
                    for count in range(spare + 1)
                    for cuts in itertools.combinations(range(start + 1, end), count)
                ]
                for start, end in runs
            ]
            for pieces in itertools.product(*splits):
                segments = sum(pieces, ())
                if len(segments) <= max_k:
                    yield subset, segments


def _mirrored_segments(w: Nanoword, max_letters: int, pairs: bool) -> list[list]:
    """Per start position, the segments a factor may take there, as
    ``(end, covered, images, right, fresh, twin)``.

    A piece is a segment mirrored onto itself or, with ``pairs``, two equal
    segments ``[c1 - radius, c1)`` and ``[c2, c2 + radius)`` mirrored onto
    each other: ``p`` mirrors onto ``top - p`` with ``top = c1 + c2 - 1``.
    It grows from its centres one mirrored pair at a time while every letter
    with both entries inside mirrors onto one letter of its own projection.

    The other entry ``q`` of an entry ``p`` must mirror onto the other entry
    of the letter at ``p``'s image.  That fixes whether the letter is
    twisted, hence the projection the image must carry; without ``pairs`` a
    letter split across segments is always twisted.  For ``q`` outside the
    segment, ``covered`` and ``images`` list each ``p`` with ``q`` before it
    and the letter at its image; ``right`` pairs each later ``q`` with the
    letter its image must hold.  ``fresh`` counts the letters the piece adds.
    A pair is listed at its first segment with ``twin = (start, end,
    covered, images, right)``; one segment has ``twin`` None."""
    seq, proj, partner = w.seq, w.proj, w.partner
    twisted_proj = [w.ground.tau(a) for a in proj]
    n = len(seq)
    by_start: list[list] = [[] for _ in range(n)]

    def segment(start: int, end: int, top: int) -> Optional[tuple]:
        covered, images, right = [], [], []
        for p in range(start, end):
            q = partner[p]
            if start <= q < end:
                continue
            mirror = top - p
            image = seq[mirror]
            untwisted = pairs and (p < q) != (mirror < partner[mirror])
            if proj[image] != (proj if untwisted else twisted_proj)[seq[p]]:
                return None
            if q < start:
                covered.append(p)
                images.append(image)
            else:
                right.append((q, image))
        fresh = (end - start - len(covered) + len(right)) // 2
        return end, tuple(covered), tuple(images), tuple(right), fresh, None

    for c1 in range(1, n):
        for c2 in range(c1, n) if pairs else (c1,):
            top = c1 + c2 - 1
            for radius in range(1, min(c1, n - c2, max_letters) + 1):
                start, end = c1 - radius, c2 + radius
                # The letters at start and end - 1 mirror onto each other.  If
                # either has both entries inside, so does the other, and their
                # other entries must mirror onto each other as well.
                a, b = partner[start], partner[end - 1]
                if (
                    start <= a < c1 or c2 <= a < end or start <= b < c1 or c2 <= b < end
                ) and (a + b != top or proj[seq[start]] != proj[seq[end - 1]]):
                    break
                if c1 == c2 and (whole := segment(start, end, top)):
                    by_start[start].append(whole)
                first = pairs and segment(start, c1, top)
                if first and (second := segment(c2, end, top)):
                    twin = (c2,) + second[:4]  # fresh counts the letters of both
                    by_start[start].append(first[:4] + (first[4] + second[4], twin))
    return by_start


def _enumeration_order(letters: tuple, segments: tuple) -> tuple:
    """The sort key that puts factors in the order of ``enumerate_factors``."""
    pieces: list[tuple[int, tuple[int, ...]]] = []  # per run: piece count, cut offsets
    run_start = run_end = -1
    for start, end in segments:
        if start == run_end:
            parts, cuts = pieces[-1]
            pieces[-1] = (parts + 1, cuts + (start - run_start,))
        else:
            run_start = start
            pieces.append((1, ()))
        run_end = end
    return (len(letters), letters, tuple(pieces))


def _mirror_factors(
    w: Nanoword, max_letters: int, max_k: int, pairs: bool
) -> list[tuple[tuple, tuple[int, ...], tuple, tuple]]:
    """Every factor within the caps with each segment involution ``kappa``
    that makes it a bridge (without ``pairs`` only the identity: the surgery
    factors), as ``(order, kappa, letters, segments)`` in the order of
    ``enumerate_factors`` and then of ``kappa``.

    Segments are chosen left to right from ``_mirrored_segments``.  An entry
    whose other entry is not yet covered is pending, with the letter its
    mirror must hold; a pair's first segment promises its second, taken when
    the scan reaches it.  The next segment may not start past the first
    pending entry, which no later segment could cover.  A factor is complete
    when nothing is pending or promised."""
    by_start = _mirrored_segments(w, max_letters, pairs)
    n = w.length
    found: list[tuple[tuple, tuple]] = []  # (segments, kappa) of each factor
    chosen: list[tuple[int, int]] = []
    mates: list[int] = []  # kappa of the chosen segments, once each pair is complete

    def extend(after: int, pending: dict, letters: int, promised: tuple) -> None:
        # promised: (start, option) of the second segments ahead, by start
        if not pending and not promised and chosen:
            found.append((tuple(chosen), tuple(mates)))
        room = max_k - len(chosen) - len(promised)
        if room < 1 and not promised:
            return
        last = min(pending) if pending else n - 1
        stop = n
        if promised:  # the next promised segment: no new one may cross it
            stop = promised[0][0]
            last = min(last, stop)
            if room < 1:
                after = stop  # only the promised segment may follow
        for start in range(after, last + 1):
            for end, covered, images, right, fresh, twin in (
                by_start[start] if start < stop else (promised[0][1],)
            ):
                if start < stop < end or letters + fresh > max_letters:
                    continue
                if covered and tuple(map(pending.get, covered)) != images:
                    continue
                ahead, mate = promised, len(mates)
                if isinstance(twin, int):  # a promised second segment, mate of twin
                    mates[twin] = mate
                    ahead, mate = promised[1:], twin
                elif twin is not None:  # a pair's first segment promises its second
                    if room < 2 or any(twin[0] < opt[0] and s < twin[1] for s, opt in promised):
                        continue  # no room, or it would cross a promised segment
                    # its letters counted with the first, so its option adds none
                    ahead = tuple(sorted(promised + ((twin[0], twin[1:] + (0, mate)),)))
                rest = pending.copy()
                for p in covered:
                    del rest[p]
                rest.update(right)
                chosen.append((start, end))
                mates.append(mate)
                extend(end, rest, letters + fresh, ahead)
                chosen.pop()
                mates.pop()

    extend(0, {}, 0, ())
    out = []
    for segments, kappa in found:
        letters = tuple(sorted({x for s, e in segments for x in w.seq[s:e]}))
        out.append((_enumeration_order(letters, segments), kappa, letters, segments))
    out.sort()  # no two factors share their order
    return out


def enumerate_even_symmetric_factors(
    w: Nanoword, max_letters: int = DEFAULT_CAPS.max_letters, max_k: int = DEFAULT_CAPS.max_k
) -> list[Move]:
    """The surgeries within the caps, as ``SURG`` moves: the bridges whose
    ``kappa`` is the identity, in the order of ``enumerate_factors``."""
    surgeries = _mirror_factors(w, max_letters, max_k, pairs=False)
    return [Move("SURG", (letters, segments)) for _, _, letters, segments in surgeries]


def insert_phrase(
    w: Nanoword,
    words: Sequence[Sequence[int]],
    proj: Sequence[str],
    positions: Sequence[int],
) -> Nanoword:
    """Insert the segments of a phrase (given with local letter ids) at the
    given ascending positions of ``w``."""
    if len(words) != len(positions):
        raise WordError("one insertion point per segment required")
    if any(positions[t] > positions[t + 1] for t in range(len(positions) - 1)):
        raise WordError("insertion points must be ascending")
    if any(p < 0 or p > w.length for p in positions):
        raise WordError("insertion point out of range")
    base = w.num_letters
    seq = list(w.seq)
    for word, pos in zip(reversed(words), reversed(positions)):
        seq[pos:pos] = [base + x for x in word]
    names = fresh_names((f"N{base + i + 1}" for i in range(len(proj))), w.names)
    return Nanoword(w.ground, tuple(seq), w.proj + tuple(proj), w.names + names)


def inserted_segments(
    words: Sequence[Sequence[int]], positions: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Where ``insert_phrase`` puts each segment: half-open position ranges
    of the result.  Every earlier segment shifts a later one right by its
    length."""
    segments = []
    grown = 0
    for word, pos in zip(words, positions):
        segments.append((pos + grown, pos + grown + len(word)))
        grown += len(word)
    return tuple(segments)


def factor_is_well_formed(w: Nanoword, letters: Sequence[int], segments: Sequence) -> bool:
    """Letters distinct ids of letters of ``w``; segments disjoint,
    ascending, in range, covering exactly the entries of those letters."""
    chosen = set(letters)
    if len(chosen) != len(letters):
        return False
    seq = w.seq
    last = covered = 0
    for start, end in segments:
        if not last <= start < end <= len(seq) or not chosen.issuperset(seq[start:end]):
            return False
        last = end
        covered += end - start
    # a letter of ``w`` has two entries, so 2 * |chosen| positions holding
    # only chosen letters hold both entries of each, and each is a letter
    return covered == 2 * len(chosen)


def validate_bridge(
    w: Nanoword, letters: Sequence[int], segments: Sequence, kappa: Sequence[int]
) -> Optional[SymmetryWitness]:
    """Check the bridge conditions for a factor, ``letters`` on
    ``segments``, and a segment involution: ``kappa`` an involution,
    matching segment lengths, even length on fixed segments, then the
    mirror rule (``mirror_witness``) with ``kappa``.
    With the identity ``kappa`` these are the conditions on a surgery
    factor.  Returns the mirror rule's witness (``iota``, ``epsilon``), or
    None when a condition fails."""
    if not factor_is_well_formed(w, letters, segments):
        return None
    kappa = tuple(kappa)
    k = len(kappa)
    if k != len(segments):
        return None
    for r, image in enumerate(kappa):
        # kappa(kappa(r)) = r for every r makes kappa a permutation too
        if not 0 <= image < k or kappa[image] != r:
            return None
        (start, end), (image_start, image_end) = segments[r], segments[image]
        if end - start != image_end - image_start or (image == r and (end - start) % 2):
            return None
    return mirror_witness(w.ground, w.seq, w.proj, segments, kappa)


def enumerate_bridges(
    w: Nanoword, max_letters: int = DEFAULT_CAPS.max_letters, max_k: int = DEFAULT_CAPS.max_k
) -> list[Move]:
    """The bridges within the caps, as ``BRIDGE`` moves: every factor of
    ``enumerate_factors`` with every segment involution ``kappa`` that
    ``validate_bridge`` accepts, ordered by factor in the order of
    ``enumerate_factors`` and then by ``kappa`` read as a tuple."""
    return [
        Move("BRIDGE", (letters, segments, kappa))
        for _, kappa, letters, segments in _mirror_factors(w, max_letters, max_k, pairs=True)
    ]


# ---------------------------------------------------------------------------
# bounded search, insertions last


def _insertion_templates(ground: InvolutiveAlphabet) -> list[tuple[tuple, tuple[str, ...]]]:
    """Factors inserted by the search: a doubled letter, and the two-letter
    split factors that undo the second homotopy move and its sibling."""
    out = []
    for a in ground.symbols:
        out.append((((0, 0),), (a,)))  # AA at one position
        b = ground.tau(a)
        out.append((((0, 1), (1, 0)), (a, b)))  # (AB | BA)
        out.append((((0, 1), (0, 1)), (a, b)))  # (AB | AB)
    return out


def check_templates(ground: InvolutiveAlphabet, templates: Sequence[tuple]) -> None:
    """Check insertion templates as ``INS`` moves into the empty word over
    ``ground``: each must be an even symmetric phrase, a bridge with the
    identity ``kappa`` (WordError, or AlphabetError for a foreign symbol)."""
    for words, proj in templates:
        Move("INS", (words, proj, (0,) * len(words)), inverse=True).apply(Nanoword.empty(ground))


def site_moves(w: Nanoword, caps: Caps = DEFAULT_CAPS) -> Iterator[Move]:
    """The moves at the sites of ``w``, in search order: H1, H2, H3,
    inverse H3, then one surgery per even symmetric factor within the caps
    that is no H1 or H2 site.  Those two moves are the one- and two-letter
    surgeries, listed once; they are found apart from the factors, since
    caps with ``letters`` or ``k`` below 2 leave the second one out."""
    deletions = find_h1_sites(w) + find_h2_sites(w)
    yield from deletions
    yield from find_h3_sites(w)
    yield from find_h3_sites(w, inverse=True)
    sites = {move.factor(w)[1] for move in deletions}
    for move in enumerate_even_symmetric_factors(w, caps.max_letters, caps.max_k):
        if move.data[1] not in sites:
            yield move


def neighbors(
    w: Nanoword,
    caps: Caps = DEFAULT_CAPS,
    extra_templates: Sequence[tuple[tuple, tuple[str, ...]]] = (),
) -> Iterator[tuple[Move, tuple]]:
    """Each move the search takes from ``w`` with the canonical key of its
    result: the site moves, then the template insertions that stay within
    the length cap.  A deletion's key is read off the sequence without its
    factor's letters and an insertion's off the grown sequence, without
    building a word or checking it (``slice_verdict`` replays its witness,
    and ``bounded_bfs`` checks the templates); only H3 builds its word."""
    for move in site_moves(w, caps):
        if move.kind == "H3":
            yield move, move.apply(w).canonical_key()
        else:
            drop, _ = move.factor(w)
            yield move, key_of([x for x in w.seq if x not in drop], w.proj)
    max_len = caps.length_cap(w.length)
    base = w.num_letters
    for words, proj in _insertion_templates(w.ground) + list(extra_templates):
        total = sum(len(word) for word in words)
        if w.length + total > max_len:
            continue
        shifted = [[base + x for x in word] for word in words]
        grown_proj = w.proj + tuple(proj)
        slots = itertools.combinations_with_replacement(
            range(w.length + 1), len(words)
        )
        for positions in slots:
            seq = list(w.seq)
            for word, pos in zip(reversed(shifted), reversed(positions)):
                seq[pos:pos] = word
            move = Move("INS", (words, proj, positions), inverse=True)
            yield move, key_of(seq, grown_proj)


def key_images(ground: InvolutiveAlphabet, key: tuple) -> tuple[tuple, tuple, tuple, tuple]:
    """The four images of a state key under the symmetries of the search:
    the identity, ``tau`` on every projection, reversal, and both.

    The moves compare projections only up to ``tau`` and read segments as
    mirror images, so each map takes the H1, H2, H3 and inverse-H3 sites,
    the surgery factors within the caps and the template set onto
    themselves, and keeps lengths; each is an involution.  So an exhausted
    ``bounded_bfs`` from an image of ``w`` reaches exactly the images, under
    the same map, of the keys reached from ``w``.  A search the node cap
    stopped has no such image: which states it reaches depends on its
    expansion order, which the maps change."""
    seq, proj = key
    twisted = tuple([ground.tau(a) for a in proj])
    backward = seq[::-1]
    # tau leaves the letter order alone, so its image is already canonical
    return key, (seq, twisted), key_of(backward, proj), key_of(backward, twisted)


class SearchOutcome(Value):
    """What a search found: ``metamorphosis`` is None when the caps ran out
    first; ``explored`` counts the states expanded, each once; ``reached``
    holds the canonical keys of every state discovered.  ``exhausted`` is
    True when no state was left to expand, so every state reached within
    the length cap was expanded with all its children, and False when the
    target was found or the node cap stopped the search."""

    def __init__(
        self,
        metamorphosis: Optional[Metamorphosis],
        explored: int,
        reached: AbstractSet[tuple],
        exhausted: bool = False,
    ):
        fields = self.__dict__
        fields["metamorphosis"] = metamorphosis
        fields["explored"] = explored
        fields["reached"] = reached
        fields["exhausted"] = exhausted

    @property
    def equivalent(self) -> bool:
        return self.metamorphosis is not None


def bounded_bfs(
    w: Nanoword,
    v: Optional[Nanoword],
    caps: Caps = DEFAULT_CAPS,
    extra_templates: Sequence[tuple[tuple, tuple[str, ...]]] = (),
) -> SearchOutcome:
    """Search move sequences from ``w``; with a target ``v`` stop when its
    isomorphism class is reached, otherwise exhaust the caps.  An outcome
    without a metamorphosis is never a proof of inequivalence.

    Insertions come last.  Expanding a state pulls its children from
    ``neighbors`` until the first insertion, then parks the rest of that
    iterator in a FIFO ``deferred`` queue; a parked iterator resumes only
    when no state reached by other moves waits in ``queue``.  So states are
    expanded in order of the insertions on their path (a 0-1 BFS), those
    with equal counts in discovery order.  ``explored`` counts a state when
    it is expanded, and parked insertions resume only while it is below
    the node cap, so the cap bounds the same work as a plain FIFO search.

    A state is a canonical key; its word is built only when it is
    expanded, except the start's, which is ``w.canonical_form()``.  The
    extra templates are checked once, by ``check_templates``, since
    ``neighbors`` builds no word that would check them."""
    check_templates(w.ground, extra_templates)
    origin = w.canonical_form()
    # a canonical form's sequence and projections are its key
    start = (origin.seq, origin.proj)
    target = v.canonical_key() if v is not None else None
    parents: dict[tuple, Optional[tuple[tuple, Move]]] = {start: None}

    def outcome(found: Optional[tuple], explored: int, exhausted: bool = False) -> SearchOutcome:
        meta = None
        if found is not None:
            moves = []
            while parents[found] is not None:
                found, move = parents[found]
                moves.append(move)
            meta = Metamorphosis(tuple(reversed(moves)))
        return SearchOutcome(meta, explored, parents.keys(), exhausted)

    if start == target:
        return outcome(start, 1)
    queue = deque([start])
    deferred: deque[tuple[tuple, Iterator[tuple[Move, tuple]]]] = deque()
    explored = 0
    max_len = caps.length_cap(w.length)
    scoped = caps.replace(bfs_length=max_len)
    while queue or deferred:
        if explored >= caps.bfs_nodes:
            return outcome(None, explored)
        if queue:
            key = queue.popleft()
            explored += 1
            word = origin if key is start else Nanoword.from_key(w.ground, key)
            children = neighbors(word, scoped, extra_templates)
            park = True
        else:
            key, children = deferred.popleft()
            park = False
        for move, child in children:
            if park and move.kind == "INS":
                deferred.append((key, itertools.chain([(move, child)], children)))
                break
            if len(child[0]) > max_len or child in parents:
                continue
            parents[child] = (key, move)
            if child == target:
                return outcome(child, explored)
            queue.append(child)
    return outcome(None, explored, exhausted=True)
