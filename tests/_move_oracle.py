"""The move-site and surgery-factor routes that generation replaced, kept
as test oracles.

Surgery factors used to be every factor within the caps with even
segments, kept when ``mirror_witness`` accepts it.  The second and third
homotopy moves used to be found by scanning every pair and triple of
positions.  The bounded search used to store a canonical word beside the
key of every state it discovered.
"""

from collections import deque
from dataclasses import replace

from nanocob.moves import (
    DEFAULT_CAPS,
    Metamorphosis,
    Move,
    SearchOutcome,
    _h3_positions,
    enumerate_factors,
    neighbors,
)
from nanocob.words import mirror_witness


def even_symmetric_factors_by_filter(w, max_letters, max_k):
    return [
        f
        for f in enumerate_factors(w, max_letters, max_k)
        if not any((end - start) % 2 for start, end in f.segments)
        and mirror_witness(w.ground, w.seq, w.proj, f.segments) is not None
    ]


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
    min_length = start.length

    def witness(key):
        moves = []
        while parents[key] is not None:
            key, move = parents[key]
            moves.append(move)
        return Metamorphosis(tuple(reversed(moves)))

    if target_key is not None and start.canonical_key() == target_key:
        return SearchOutcome(Metamorphosis(()), 1, min_length, parents.keys())

    queue = deque([start.canonical_key()])
    explored = 0
    max_len = caps.length_cap(start.length)
    scoped = replace(caps, bfs_length=max_len)
    while queue and explored < caps.bfs_nodes:
        key = queue.popleft()
        explored += 1
        current = state_words[key]
        for move, result in neighbors(current, scoped, extra_templates):
            if result.length > max_len:
                continue
            ckey = result.canonical_key()
            if ckey in parents:
                continue
            child = result.canonical_form()
            parents[ckey] = (key, move)
            state_words[ckey] = child
            min_length = min(min_length, child.length)
            if target_key is not None and ckey == target_key:
                return SearchOutcome(witness(ckey), explored, min_length, parents.keys())
            queue.append(ckey)
    return SearchOutcome(None, explored, min_length, parents.keys())
