"""Savage's S-span [16] — the technique behind "recomputation can help".

The S-span of a CDAG is the maximum number of *distinct* vertices that can
acquire a red pebble starting from any placement of S red pebbles, using
only compute and evict moves (no I/O), with capacity S.  Recomputation is
inherent: a vertex may be re-pebbled to free space and pebbled again.

Savage's extension of Hong–Kung:  Q ≥ S·(⌈(|V_int| + |V_out|)/span_{2S}⌉ − 1)
— when the span is small, every burst of computation between I/O phases is
small, forcing many phases.  Unlike the Theorem 1.1 machinery this bound
*can* be loose under recomputation for some CDAGs (Savage exhibits CDAGs
where recomputation beats it) — which is exactly the phenomenon §V of the
paper discusses.  The exact computation below (BFS over red-set states) is
for the small instances the tests certify.
"""

from __future__ import annotations

from itertools import combinations

from repro.cdag.core import CDAG

__all__ = ["s_span", "savage_lower_bound"]


def _span_from(
    pred_mask: list[int], computable: list[int], start_mask: int, S: int,
    reachable: int,
) -> int:
    """Distinct vertices ever pebbled from a fixed start placement.

    ``computable`` lists the non-input vertices; the search stops early
    once every one of them has been pebbled (``reachable``), since no
    further state can add to the count.
    """
    seen_states = {start_mask}
    stack = [start_mask]
    ever = start_mask
    while stack:
        red = stack.pop()
        popcount = bin(red).count("1")
        for v in computable:
            bit = 1 << v
            if (pred_mask[v] & red) != pred_mask[v]:
                continue
            if red & bit:
                continue
            if popcount < S:
                nxt = red | bit
                if nxt not in seen_states:
                    seen_states.add(nxt)
                    stack.append(nxt)
                ever |= bit
            else:
                # must evict something first: branch over victims ≠ v's preds
                victims = red & ~pred_mask[v]
                while victims:
                    ubit = victims & -victims
                    victims ^= ubit
                    nxt = (red & ~ubit) | bit
                    if nxt not in seen_states:
                        seen_states.add(nxt)
                        stack.append(nxt)
                    ever |= bit
        if (ever & reachable) == reachable:
            break
        # pure evictions only shrink options; skipping them is safe because
        # every compute transition above already considers one eviction,
        # and chains of evictions never enable a compute that a single
        # just-in-time eviction cannot
    return bin(ever).count("1") - bin(start_mask).count("1")


def s_span(cdag: CDAG, S: int, max_vertices: int = 14, max_starts: int | None = None) -> int:
    """span_S(G): max distinct new pebblings over all ≤S-pebble placements.

    Exact (exponential) — guarded to small CDAGs.  Start placements range
    over all subsets of size min(S, |V|); ``max_starts`` caps them.  A
    placement can pebble at most the non-inputs outside it, so placements
    whose cap cannot beat the best span so far are not searched, and the
    scan ends once some placement pebbles every non-input.
    """
    n = cdag.num_vertices
    if n > max_vertices:
        raise ValueError(f"exact span limited to ≤ {max_vertices} vertices (got {n})")
    if S < 1:
        raise ValueError("S must be >= 1")
    g = cdag.graph
    pred_mask = [0] * n
    for v in range(n):
        for u in g.predecessors(v):
            pred_mask[v] |= 1 << u
    inputs = set(cdag.inputs)
    computable = [v for v in range(n) if v not in inputs]
    non_inputs = 0
    for v in computable:
        non_inputs |= 1 << v
    ceiling = len(computable)
    best = 0
    count = 0
    # placements of size ≤ S: a smaller placement can yield MORE new
    # pebblings (its vertices don't count against the 'new' total)
    for size in range(min(S, n) + 1):
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            reachable = non_inputs & ~mask
            if bin(reachable).count("1") > best:
                best = max(best, _span_from(pred_mask, computable, mask, S, reachable))
                if best == ceiling:
                    return best
            count += 1
            if max_starts is not None and count >= max_starts:
                return best
    return best


def savage_lower_bound(cdag: CDAG, M: int, max_vertices: int = 14) -> float:
    """Q ≥ M·(⌈#non-inputs / span_{2M}⌉ − 1) — the S-span I/O floor."""
    span = s_span(cdag, 2 * M, max_vertices=max_vertices)
    to_compute = cdag.num_vertices - len(cdag.inputs)
    if span == 0:
        return float("inf") if to_compute else 0.0
    phases = -(-to_compute // span)  # ceil
    return float(M * max(0, phases - 1))
