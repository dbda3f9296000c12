"""The move-site and surgery-factor routes that generation replaced, kept
as test oracles.

Surgery factors used to be every factor within the caps with even
segments, kept when ``mirror_witness`` accepts it.  The second and third
homotopy moves used to be found by scanning every pair and triple of
positions.
"""

from nanocob.moves import Move, _h3_positions, enumerate_factors
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
