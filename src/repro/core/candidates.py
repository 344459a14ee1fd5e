"""Candidate view generation (Sections 5.2 and 5.4).

**Graph views.**  The naive candidate space — all subgraphs of the union of
the workload queries — is exponential in the number of edges.  Section 5.2
shows the useful candidates are exactly

* every workload query itself, and
* every common subgraph (intersection) of two or more workload queries,

with views *superseded* by a larger view (monotonicity property) removed.
A superseded view is one with a strict superset view contained in exactly
the same workload queries — i.e. the surviving candidates are precisely the
**closed** element sets of the workload, where the closure of a set is the
intersection of all queries containing it.  :func:`intersection_closure_candidates`
computes them by the paper's iterated-intersection procedure (including the
reviewer's refinement of intersecting previously found intersections).

For heavily overlapping workloads Section 5.2 proposes an a-priori
formulation: treat each query as a transaction of edge "items" and mine
frequent itemsets with support ≥ ``minSup``, then filter superseded views.
:func:`apriori_candidates` implements the level-wise miner literally (for
moderate workloads and tests); :func:`closed_candidates` produces the same
post-filter output directly — closed frequent sets — and is what the large
benchmarks use.  :func:`select_graph_views` is the whole §5.2 loop: one of
these generators, then the budgeted greedy set cover.

**Aggregate graph views.**  Candidates are paths between *interesting
nodes* of the workload union graph ``GAll`` (Section 5.4):
path origins/endpoints and branch-in/branch-out nodes of the maximal paths.
:func:`candidate_aggregate_paths` enumerates all simple paths of length ≥ 2
between interesting nodes, reproducing the paper's Figure 2 example
(5 candidates instead of the naive 11).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations
from typing import Hashable

from .paths import Path, adjacency_of
from .query import GraphQuery, PathAggregationQuery
from .record import Edge
from .setcover import SelectionResult, greedy_select_views
from .views import graph_view_supersedes

__all__ = [
    "intersection_closure_candidates",
    "apriori_candidates",
    "closed_candidates",
    "select_graph_views",
    "filter_superseded",
    "interesting_nodes",
    "candidate_aggregate_paths",
]


def _support(elements: frozenset[Edge], queries: Sequence[GraphQuery]) -> int:
    """Number of workload queries that contain the element set."""
    return sum(1 for q in queries if elements <= q.elements)


def filter_superseded(
    candidates: Iterable[frozenset[Edge]], queries: Sequence[GraphQuery]
) -> list[frozenset[Edge]]:
    """Drop candidates superseded by a larger candidate (monotonicity)."""
    pool = list(dict.fromkeys(candidates))
    out: list[frozenset[Edge]] = []
    for cand in pool:
        superseded = any(
            other != cand and graph_view_supersedes(other, cand, queries)
            for other in pool
        )
        if not superseded:
            out.append(cand)
    return out


def intersection_closure_candidates(
    queries: Sequence[GraphQuery], min_support: int = 1
) -> list[frozenset[Edge]]:
    """Candidate graph views by the Section 5.2 construction.

    Starts from the query element sets, iteratively adds pairwise
    intersections (of queries, then of previously found intersections —
    footnote 1), until a fixpoint; then filters superseded views and
    candidates with support below ``min_support`` queries.  Candidates with
    fewer than two elements are excluded: their bitmaps already exist.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    current: set[frozenset[Edge]] = {q.elements for q in queries}
    frontier = list(current)
    while frontier:
        new: set[frozenset[Edge]] = set()
        pool = list(current)
        for a, b in combinations(pool, 2):
            common = a & b
            if len(common) >= 2 and common not in current:
                new.add(common)
        if not new:
            break
        current |= new
        frontier = list(new)
    sized = [c for c in current if len(c) >= 2]
    supported = [c for c in sized if _support(c, queries) >= min_support]
    return sorted(filter_superseded(supported, queries), key=lambda s: (-len(s), sorted(map(repr, s))))


def apriori_candidates(
    queries: Sequence[GraphQuery],
    min_support: int = 2,
    max_size: int | None = None,
) -> list[frozenset[Edge]]:
    """Literal a-priori frequent edge-set mining (Section 5.2 workaround).

    Transactions are the query element sets; an itemset is frequent when at
    least ``min_support`` queries contain it.  Returns frequent itemsets of
    size ≥ 2 with superseded ones removed.  ``max_size`` optionally bounds
    the level-wise expansion (a safety valve; the paper needs none because
    it applies this to query workloads, not records).
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    transactions = [q.elements for q in queries]
    # L1: frequent single elements.
    item_counts: dict[Edge, int] = {}
    for t in transactions:
        for item in t:
            item_counts[item] = item_counts.get(item, 0) + 1
    level: set[frozenset[Edge]] = {
        frozenset([item])
        for item, count in item_counts.items()
        if count >= min_support
    }
    frequent: list[frozenset[Edge]] = []
    size = 1
    while level and (max_size is None or size < max_size):
        size += 1
        # Candidate generation: join level-(k-1) sets sharing k-2 items.
        candidates: set[frozenset[Edge]] = set()
        level_list = sorted(level, key=lambda s: sorted(map(repr, s)))
        for a, b in combinations(level_list, 2):
            union = a | b
            if len(union) == size:
                # Prune: all (k-1)-subsets must be frequent.
                if all(union - {item} in level for item in union):
                    candidates.add(union)
        next_level: set[frozenset[Edge]] = set()
        for cand in candidates:
            if _support(cand, queries) >= min_support:
                next_level.add(cand)
        frequent.extend(next_level)
        level = next_level
    return sorted(
        filter_superseded(frequent, queries),
        key=lambda s: (-len(s), sorted(map(repr, s))),
    )


def closed_candidates(
    queries: Sequence[GraphQuery], min_support: int = 1
) -> list[frozenset[Edge]]:
    """Closed frequent element sets — the a-priori output after the
    supersession filter, computed directly.

    A candidate survives the monotonicity filter exactly when no strict
    superset is contained in the same set of queries, i.e. when it is
    *closed*.  Closed sets are intersections of groups of transactions, so
    we enumerate them by intersecting each query with every known closed
    set — polynomial in the output size rather than in ``2^|items|``.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    closed: set[frozenset[Edge]] = set()
    for query in queries:
        additions = {query.elements}
        for existing in closed:
            common = existing & query.elements
            if len(common) >= 2:
                additions.add(common)
        closed |= additions
    sized = [c for c in closed if len(c) >= 2]
    out = [c for c in sized if _support(c, queries) >= min_support]
    return sorted(out, key=lambda s: (-len(s), sorted(map(repr, s))))


def select_graph_views(
    workload: Sequence[GraphQuery],
    budget: int,
    method: str = "closure",
    min_support: int = 1,
) -> tuple[SelectionResult, int]:
    """Workload → graph views to materialize (§5.2): generate candidates,
    then pick up to ``budget`` of them by greedy extended set cover.

    ``method`` picks the candidate generator: ``"closure"`` (iterated
    query intersections), ``"apriori"`` (level-wise frequent itemsets),
    or ``"closed"`` (closed frequent sets — apriori's post-filter output,
    computed directly; the scalable choice for big workloads).
    Candidates are keyed by their element sets, so the selection's
    ``selected`` lists the chosen sets in pick order.  Returns the
    selection and the number of candidates generated.
    """
    if method == "closure":
        candidates = intersection_closure_candidates(workload, min_support)
    elif method == "apriori":
        candidates = apriori_candidates(workload, max(min_support, 1))
    elif method == "closed":
        candidates = closed_candidates(workload, min_support)
    else:
        raise ValueError(f"unknown candidate method {method!r}")
    selection = greedy_select_views(
        [q.elements for q in workload], {c: c for c in candidates}, budget
    )
    return selection, len(candidates)


# -- aggregate graph views (Section 5.4) ---------------------------------------


def interesting_nodes(agg_queries: Sequence[PathAggregationQuery]) -> frozenset[Hashable]:
    """Interesting nodes of the workload union graph ``GAll``.

    A node is interesting when it is (a) the origin or endpoint of a
    maximal path of some query, (b) the starting node of two or more
    distinct edges traversed by maximal paths (branch-out), or (c) the
    ending node of two or more distinct traversed edges (branch-in).
    """
    maximal: list[Path] = []
    for query in agg_queries:
        maximal.extend(query.maximal_paths())
    interesting: set[Hashable] = set()
    out_edges: dict[Hashable, set[Hashable]] = {}
    in_edges: dict[Hashable, set[Hashable]] = {}
    for path in maximal:
        interesting.add(path.start)
        interesting.add(path.end)
        for u, v in path.edges():
            out_edges.setdefault(u, set()).add(v)
            in_edges.setdefault(v, set()).add(u)
    interesting.update(u for u, vs in out_edges.items() if len(vs) >= 2)
    interesting.update(v for v, us in in_edges.items() if len(us) >= 2)
    return frozenset(interesting)


def candidate_aggregate_paths(
    agg_queries: Sequence[PathAggregationQuery],
    max_length: int | None = 32,
) -> list[Path]:
    """Candidate paths for aggregate graph views (Section 5.4).

    All simple paths of length ≥ 2 edges between interesting nodes, walking
    the union graph ``GAll`` of the workload queries.  By the aggregate
    monotonicity property any omitted path is dominated by a candidate.
    ``max_length`` bounds the enumeration depth for pathological unions.
    """
    union_edges: set[Edge] = set()
    for query in agg_queries:
        union_edges |= query.query.edges()
    nodes_of_interest = interesting_nodes(agg_queries)
    adjacency = adjacency_of(union_edges)
    out: list[Path] = []

    def walk(trail: list[Hashable], visited: set[Hashable]) -> None:
        node = trail[-1]
        if len(trail) >= 3 and node in nodes_of_interest:
            out.append(Path(tuple(trail)))
        if max_length is not None and len(trail) - 1 >= max_length:
            return
        for succ in adjacency.get(node, []):
            if succ in visited:
                continue
            visited.add(succ)
            trail.append(succ)
            walk(trail, visited)
            trail.pop()
            visited.remove(succ)

    for start in sorted(nodes_of_interest, key=repr):
        walk([start], {start})
    return out
