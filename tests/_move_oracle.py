"""The move-site, surgery-factor and bridge routes that generation
replaced, kept as test oracles.

Surgeries used to be every factor within the caps with even
segments, kept when ``mirror_witness`` accepts it.  Bridges used to be
every factor within the caps with every segment involution, kept when
``validate_bridge`` accepts the pair.  A surgery factor used
to be checked on three paths of its own: ``apply_surgery`` (since
replaced by the ``SURG`` move),
``validate_bridge`` with the identity ``kappa``, and the checks that
opened ``verify_surgery_filling``.  The second and third
homotopy moves used to be found by scanning every pair and triple of
positions.  The bounded search used to store a canonical word beside the
key of every state it discovered, and to build every child's word by
applying its move; ``bfs_storing_words`` keeps that loop in today's
insertions-last order.  Before that order, the search expanded every
state's children, insertions included, in one FIFO queue: ``bfs_fifo``.
"""

import itertools
from collections import deque

from nanocob.moves import (
    DEFAULT_CAPS,
    Metamorphosis,
    Move,
    SearchOutcome,
    _h3_positions,
    check_templates,
    enumerate_factors,
    neighbors,
    validate_bridge,
)
from nanocob.words import Nanoword, mirror_witness


def even_symmetric_factors_by_filter(w, max_letters, max_k):
    return [
        Move("SURG", (letters, segments))
        for letters, segments in enumerate_factors(w, max_letters, max_k)
        if not any((end - start) % 2 for start, end in segments)
        and mirror_witness(w.ground, w.seq, w.proj, segments) is not None
    ]


def involutions(k):
    """Every involution of ``range(k)`` in lexicographic order."""

    def rec(assigned):
        free = [r for r in range(k) if r not in assigned]
        if not free:
            yield tuple(assigned[r] for r in range(k))
            return
        head = free[0]
        assigned[head] = head
        yield from rec(assigned)
        del assigned[head]
        for other in free[1:]:
            assigned[head] = other
            assigned[other] = head
            yield from rec(assigned)
            del assigned[head]
            del assigned[other]

    return rec({})


def bridges_by_filter(w, max_letters, max_k):
    return [
        Move("BRIDGE", (letters, segments, kappa))
        for letters, segments in enumerate_factors(w, max_letters, max_k)
        for kappa in involutions(len(segments))
        if validate_bridge(w, letters, segments, kappa) is not None
    ]


def factor_is_well_formed_by_scan(w, letters, segments):
    """Letters distinct ids of letters of ``w``; segments disjoint,
    ascending, in range, covering exactly the positions a scan of the whole
    word finds for those letters."""
    chosen = set(letters)
    if len(chosen) != len(letters):
        return False
    if any(not 0 <= x < w.num_letters for x in chosen):
        return False
    last = 0
    covered = []
    for start, end in segments:
        if not (0 <= start < end <= w.length) or start < last:
            return False
        last = end
        covered.extend(range(start, end))
    expected = [i for i, x in enumerate(w.seq) if x in chosen]
    return covered == expected


def surgery_accepted_by_apply(w, letters, segments):
    """The checks ``apply_surgery`` made: well formed, even, symmetric."""
    return (
        factor_is_well_formed_by_scan(w, letters, segments)
        and not any((end - start) % 2 for start, end in segments)
        and mirror_witness(w.ground, w.seq, w.proj, segments) is not None
    )


def surgery_accepted_by_bridge(w, letters, segments):
    """The bridge checks with the identity ``kappa``: well formed, every
    fixed segment even, then the mirror rule read with ``kappa``."""
    if not factor_is_well_formed_by_scan(w, letters, segments):
        return False
    if any((end - start) % 2 for start, end in segments):
        return False
    kappa = tuple(range(len(segments)))
    return mirror_witness(w.ground, w.seq, w.proj, segments, kappa) is not None


def surgery_witness_by_filling_checks(w, letters, segments):
    """The witness ``verify_surgery_filling`` read, or None where its
    opening checks (even, symmetric, the letters cut out) refused.  These
    checks assumed ascending in-range segments, so the oracle is only
    meaningful on such factors."""
    if any((end - start) % 2 for start, end in segments):
        return None
    witness = mirror_witness(w.ground, w.seq, w.proj, segments)
    if witness is None or [b for b, _ in witness.iota] != sorted(letters):
        return None
    return witness


def h2_sites_by_scan(w):
    sites = []
    for i in range(w.length - 1):
        a, b = w.seq[i], w.seq[i + 1]
        if a == b or w.proj[b] != w.ground.tau(w.proj[a]):
            continue
        for j in range(i + 2, w.length - 1):
            if w.seq[j] == b and w.seq[j + 1] == a:
                sites.append(Move("H2", (i, j)))
    return sites


def h3_sites_by_scan(w, inverse=False):
    sites = []
    for i in range(w.length):
        for j in range(i + 2, w.length):
            for k in range(j + 2, w.length - 1):
                if _h3_positions(w, i, j, k, forward=not inverse):
                    sites.append(Move("H3", (i, j, k), inverse=inverse))
    return sites


def bfs_storing_words(w, v, caps=DEFAULT_CAPS, extra_templates=()):
    start = w.canonical_form()
    target_key = v.canonical_key() if v is not None else None
    parents = {start.canonical_key(): None}
    state_words = {start.canonical_key(): start}

    def witness(key):
        moves = []
        while parents[key] is not None:
            key, move = parents[key]
            moves.append(move)
        return Metamorphosis(tuple(reversed(moves)))

    if target_key is not None and start.canonical_key() == target_key:
        return SearchOutcome(Metamorphosis(()), 1, parents.keys())

    queue = deque([start.canonical_key()])
    deferred = deque()  # (key, the rest of its children), from the first insertion
    explored = 0
    max_len = caps.length_cap(start.length)
    scoped = caps.replace(bfs_length=max_len)
    while queue or deferred:
        if explored >= caps.bfs_nodes:
            return SearchOutcome(None, explored, parents.keys())
        if queue:
            key = queue.popleft()
            explored += 1
            children = neighbors(state_words[key], scoped, extra_templates)
            park = True
        else:
            key, children = deferred.popleft()
            park = False
        current = state_words[key]
        for move, child_key in children:
            if park and move.kind == "INS":
                deferred.append((key, itertools.chain([(move, child_key)], children)))
                break
            result = move.apply(current)
            if result.length > max_len:
                continue
            ckey = result.canonical_key()
            if ckey in parents:
                continue
            child = result.canonical_form()
            parents[ckey] = (key, move)
            state_words[ckey] = child
            if target_key is not None and ckey == target_key:
                return SearchOutcome(witness(ckey), explored, parents.keys())
            queue.append(ckey)
    return SearchOutcome(None, explored, parents.keys(), exhausted=True)


def bfs_fifo(w, v, caps=DEFAULT_CAPS, extra_templates=()):
    """The search before insertions came last: one FIFO queue, every child
    of a state generated when it is expanded."""
    check_templates(w.ground, extra_templates)
    start = w.canonical_key()
    target = v.canonical_key() if v is not None else None
    parents = {start: None}

    def outcome(found, explored, exhausted=False):
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
    explored = 0
    max_len = caps.length_cap(w.length)
    scoped = caps.replace(bfs_length=max_len)
    while queue and explored < caps.bfs_nodes:
        key = queue.popleft()
        explored += 1
        current = Nanoword.from_key(w.ground, key)
        for move, child in neighbors(current, scoped, extra_templates):
            if len(child[0]) > max_len or child in parents:
                continue
            parents[child] = (key, move)
            if child == target:
                return outcome(child, explored)
            queue.append(child)
    return outcome(None, explored, exhausted=not queue)
