"""Joinability-discovery baselines.

jl_match     fuzzy Jaccard over distinct instance values, where two values
             count as equal when their normalized Levenshtein similarity
             reaches the threshold; the value matching is optimal (maximum
             cardinality): a greedy maximal matching, which is maximum when
             it covers the smaller side, else Hopcroft-Karp from it. The
             fuzzy-equality relation is computed once over all sampled
             values, not per column pair (value_neighbours: deletion-variant
             or partition candidates, each window value's variants built
             once per length band; an equal-length candidate is confirmed by
             its Hamming distance when that settles it, and the rest of a
             value's candidates by one packed bit-parallel edit-distance
             pass, common.levenshtein_rows). The values are interned to ids
             in sorted value order, and the relation is held as CSR: one
             offsets array and one flat array('i') of neighbour ids.
sf_match     similarity flooding over typed schema graphs (table -column->
             column -type-> datatype): iterate sigma' = normalize(sigma0 +
             sigma + propagate(sigma)) over the pairwise connectivity graph
             until the residual drops below epsilon. That graph always has
             the same shape (the table pair, every column pair, every
             datatype pair), so each pair's feed is computed in closed form,
             with the float operations of propagating edge by edge.
hybrid_match weighted blend of header similarity and instance containment.
external_match  run an external matcher process and read its predictions CSV.

profile builds what a pair matcher reads, once over a set of tables: column
samples (value ids for jl), jl's neighbour relation and reach sets, hybrid's
share sets (reachable_columns), one schema graph per table for sf, and
complete name similarity tables: header_sims over every header pair for sf
and hybrid, and table_sims over every table-name pair for sf. Each table's
edit distances come from one packed bit-parallel pass
(common.levenshtein_rows). The pair matchers build nothing; they only read
the profile they are given, and return one score per column pair: a's
sorted columns by b's, the tables in name order.
match_corpus profiles the whole corpus once and scores every table pair
through it. Its Predictions are a score list aligned with ColumnPairs, the
corpus's cross-table column pairs in canonical order, held per column rather
than per pair. parse_predictions_csv gives an external matcher's rows
the same form, the highest score kept for a pair given more than once.

All matchers are stateless and symmetric; scores live in [0, 1].
"""

from __future__ import annotations

import csv
import heapq
import io
import subprocess
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Iterator, Sequence, Set
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, combinations, groupby
from operator import add, itemgetter, ne, sub

from .common import EvaluationError, levenshtein_rows, seeded_rng, token_jaccard, word_set
from .model import ColumnRef, Corpus, TableData

VALUE_SAMPLE_CAP = 500  # distinct values per column fed to instance matchers
JL_DELTA = 0.8  # jl: least normalized Levenshtein similarity of two equal values
MATCHERS = ("jl", "sf", "hybrid")  # the built-in pair matchers, by name

PairKey = tuple[ColumnRef, ColumnRef]


def _sorted_columns(t: TableData) -> list[ColumnRef]:
    return [(t.name, c) for c in sorted(t.schema.column_names())]


class ColumnPairs:
    """A column-pair list in canonical order: each pair (left, right) with
    left <= right, the pairs strictly increasing. It is held by rows: row r
    pairs lefts[r] with each of rights[lo:hi], (lo, hi) = bounds[r], in order,
    and its pairs start at offsets[r]. A corpus's list (of_tables) shares one
    rights list, every column in canonical order, across its rows, so it
    takes memory per column, not per pair."""

    def __init__(self, lefts: list[ColumnRef], rights: list[ColumnRef], bounds: list[tuple[int, int]]):
        self.lefts, self.rights, self.bounds = lefts, rights, bounds
        self.offsets = list(accumulate((hi - lo for lo, hi in bounds), initial=0))
        self._row_of = {ref: r for r, ref in enumerate(lefts)}

    @classmethod
    def of_tables(cls, tables: Iterable[TableData]) -> ColumnPairs:
        """Every cross-table column pair: for each table in name order, each
        of its columns in name order with every column of the later tables.
        validate rejects duplicate table and column names, so these are
        exactly the canonical keys, in order."""
        refs: list[ColumnRef] = []
        ends: list[int] = []
        for t in sorted(tables, key=lambda t: t.name):
            refs += _sorted_columns(t)
            ends += [len(refs)] * len(t.schema.columns)
        return cls(refs, refs, [(end, len(refs)) for end in ends])

    @classmethod
    def of_keys(cls, keys: list[PairKey]) -> ColumnPairs:
        """The list of the given canonical keys, which must be strictly
        increasing."""
        lefts, rights, bounds = [], [], []
        for left, row in groupby(keys, itemgetter(0)):
            lo = len(rights)
            rights += [right for _left, right in row]
            lefts.append(left)
            bounds.append((lo, len(rights)))
        return cls(lefts, rights, bounds)

    def __len__(self) -> int:
        return self.offsets[-1]

    def __iter__(self) -> Iterator[PairKey]:
        for left, (lo, hi) in zip(self.lefts, self.bounds):
            for right in self.rights[lo:hi]:
                yield left, right

    def key(self, i: int) -> PairKey:
        """The i-th pair."""
        r = bisect_right(self.offsets, i) - 1
        return self.lefts[r], self.rights[self.bounds[r][0] + i - self.offsets[r]]

    def index(self, key: PairKey) -> int | None:
        """The position of a canonical key, None when the list lacks it."""
        left, right = key
        r = self._row_of.get(left)
        if r is None:
            return None
        lo, hi = self.bounds[r]
        j = bisect_left(self.rights, right, lo, hi)
        return self.offsets[r] + j - lo if j < hi and self.rights[j] == right else None


@dataclass(eq=False)
class Predictions:
    """One matcher's output: scores[i] is the score of pairs.key(i). Its
    length is the prediction count."""

    pairs: ColumnPairs
    scores: list[float]

    @classmethod
    def best_of(cls, rows: Iterable[tuple[ColumnRef, ColumnRef, float]]) -> Predictions:
        """Predictions from (left, right, score) rows in any order: each pair
        taken in canonical order, the highest score kept for a pair given more
        than once."""
        best: dict[PairKey, float] = {}
        for left, right, score in rows:
            key = (left, right) if left <= right else (right, left)
            if key not in best or score > best[key]:
                best[key] = score
        keys = sorted(best)
        return cls(ColumnPairs.of_keys(keys), [best[k] for k in keys])

    def __len__(self) -> int:
        return len(self.scores)

    def items(self) -> Iterator[tuple[PairKey, float]]:
        return zip(self.pairs, self.scores)

    def score_of(self, key: PairKey) -> float:
        """The score of a canonical key, 0.0 for a pair not predicted."""
        i = self.pairs.index(key)
        return 0.0 if i is None else self.scores[i]

    def positives(self, threshold: float) -> set[PairKey]:
        """The pairs scored strictly above the threshold."""
        return {self.pairs.key(i) for i, s in enumerate(self.scores) if s > threshold}

    def ranked(self, n: int) -> list[PairKey]:
        """The n highest-scored pairs, highest first. nlargest is a stable
        selection, so ties break on canonical order."""
        top = heapq.nlargest(n, range(len(self.scores)), key=self.scores.__getitem__)
        return [self.pairs.key(i) for i in top]


def sample_values(table: TableData, column: str, seed: int = 0) -> list[str]:
    values = sorted(table.value_set(column))
    if len(values) <= VALUE_SAMPLE_CAP:
        return values
    rng = seeded_rng("sample_values", seed, table.name, column)
    return sorted(rng.sample(values, VALUE_SAMPLE_CAP))


def column_samples(tables: Iterable[TableData], seed: int = 0) -> dict[ColumnRef, frozenset[str]]:
    """Every column's sample_values as a set, keyed by (table, column): the
    one value profile the instance matchers share."""
    return {
        (t.name, c.name): frozenset(sample_values(t, c.name, seed))
        for t in tables
        for c in t.schema.columns
    }


def reachable_columns(
    samples: dict[ColumnRef, frozenset], neighbours: ValueNeighbours | None = None
) -> dict[ColumnRef, frozenset[ColumnRef]]:
    """Each column's share set: the columns whose samples hold one of its
    sampled values, read off a value -> columns posting index. Given the
    neighbour relation (over every sampled value) and the samples as its
    value ids, its reach set instead: the share set plus the columns holding a
    neighbour of one of its values. A column pair outside these sets has no
    equal (no admissible) value pair."""
    postings: dict = {}
    for ref, values in samples.items():
        for v in values:
            postings.setdefault(v, []).append(ref)
    reach = {}
    for ref, values in samples.items():
        if neighbours is not None:
            values = values.union(*map(neighbours.__getitem__, values))
        reach[ref] = frozenset(chain.from_iterable(map(postings.__getitem__, values)))
    return reach


def _lower_ratios(names: Iterable[str]) -> dict[tuple[str, str], float]:
    """The complete name-similarity table of sf: for every unordered pair of
    names, each name with itself included, keyed (x, y) with x <= y, the
    normalized Levenshtein similarity of the lowered names, 1 - distance /
    the longer one's length (1.0 when they are equal). The lowered strings'
    own lengths divide, since str.lower can change a length. All distances
    come from one levenshtein_rows over the distinct lowered names."""
    names = sorted(set(names))
    lowered = [x.lower() for x in names]
    distinct = list(dict.fromkeys(lowered))
    position = {s: j for j, s in enumerate(distinct)}
    rows = levenshtein_rows(distinct, distinct)
    ratios = {}
    for i, (x, xl) in enumerate(zip(names, lowered)):
        row, lx = rows[position[xl]], len(xl)
        for y, yl in zip(names[i:], lowered[i:]):
            ratios[(x, y)] = 1.0 if xl == yl else 1.0 - row[position[yl]] / max(lx, len(yl))
    return ratios


def _name_similarities(names: Iterable[str]) -> dict[tuple[str, str], float]:
    """The complete header-similarity table of hybrid, keyed as _lower_ratios:
    the larger of the lowered names' normalized Levenshtein similarity and
    the Jaccard similarity of their word sets (COMA's name matchers)."""
    words = {x: word_set(x) for x in names}
    sims = _lower_ratios(words)
    for (x, y), ratio in sims.items():
        sims[(x, y)] = max(ratio, token_jaccard(words[x], words[y]))
    return sims


# --------------------------------------------------------------------------
# Jaccard-Levenshtein
# --------------------------------------------------------------------------


def _max_bipartite_matching(adj, n_left: int, n_right: int) -> int:
    """Maximum cardinality matching size: adj[u] lists the right vertices of
    left vertex u, for every u in range(n_left), and there are n_right right
    vertices (any hashable values). A greedy maximal matching comes first;
    when it covers the smaller side it is maximum, otherwise Hopcroft-Karp
    augments it to a maximum one."""
    INF = float("inf")
    match_l: list = [None] * n_left
    match_r: dict = {}
    for u in range(n_left):
        for v in adj[u]:
            if v not in match_r:
                match_l[u] = v
                match_r[v] = u
                break
    size = len(match_r)
    if size == min(n_left, n_right):
        return size
    dist = [0.0] * n_left

    def bfs() -> bool:
        """Layer the left vertices by alternating-path length from the free
        ones, up to the first layer with an edge to a free right vertex."""
        q = deque()
        for u in range(n_left):
            if match_l[u] is None:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        limit = INF  # one past that layer
        while q:
            u = q.popleft()
            if dist[u] >= limit:
                break
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    limit = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return limit != INF

    def augment(root: int) -> bool:
        """Layered DFS from a free left vertex, iterative so that long
        augmenting paths cannot exhaust the interpreter stack. path[i] left
        the layer through right vertex via[i]."""
        path = [root]
        edges = [iter(adj[root])]
        via: list[int] = []
        while path:
            u = path[-1]
            for v in edges[-1]:
                w = match_r.get(v)
                if w is None:
                    via.append(v)
                    for x, y in zip(path, via):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    path.append(w)
                    edges.append(iter(adj[w]))
                    break
            else:
                dist[u] = INF
                path.pop()
                edges.pop()
                if via:
                    via.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] is None and augment(u):
                size += 1
    return size


def _max_edits(m: int, delta: float) -> int:
    """Largest edit distance at which two values, the longer of length m,
    still reach normalized similarity delta: ratio >= delta iff dist <= this."""
    return int((1.0 - delta) * max(m, 1) + 1e-9)


DELETION_MAX_EDITS = 2  # beyond, partition signatures: deletion variants grow as C(m, k)


def _deletion_variants(s: str, drop: int) -> set[str]:
    """Every string left after deleting exactly `drop` characters of s: its
    subsequences of length len(s) - drop."""
    return set(map("".join, combinations(s, len(s) - drop)))


def _deletion_candidates(values: list[str], longs: list[int], window: list[int], k: int):
    """Candidate partners of each value of length m = len(values[longs[0]])
    among `window` (every value with length in [m - k, m]), all given by id.

    Two strings within k edits, the longer of length m, share a subsequence
    of length m - k (FastSS-style deletion neighbourhoods), so the values
    that share a length-(m - k) deletion variant are a lossless candidate set.
    Digit strings and dates share long prefixes but few such variants. Each
    window value's variants are built once; a long value (the window holds
    them all) keeps the posting lists its variants fell in, not the
    variants, and gathers them once every window value is posted."""
    m = len(values[longs[0]])
    target = max(m - k, 0)
    postings: dict[str, list[int]] = {}
    gathered = []  # (long value, its variants' posting lists)
    for w in window:
        s = values[w]
        lists = [postings.setdefault(var, []) for var in _deletion_variants(s, len(s) - target)]
        for posting in lists:
            posting.append(w)
        if len(s) == m:
            gathered.append((w, lists))
    for v, lists in gathered:
        yield v, set().union(*lists)


def _partition_candidates(values: list[str], longs: list[int], window: list[int], k: int):
    """Candidate partners by partition signatures (Pass-Join, Li et al.,
    VLDB 2012): cut each value of length m into k + 1 segments. k edits leave
    at least one segment intact, and it reappears in the partner shifted by
    at most k positions. Values are given by id, as to _deletion_candidates."""
    m = len(values[longs[0]])
    base, extra = divmod(m, k + 1)
    if base == 0:  # segments would be empty: every window value qualifies
        for v in longs:
            yield v, set(window)
        return
    segments = []  # (start, length), the last `extra` segments one longer
    start = 0
    for i in range(k + 1):
        length = base + (i >= k + 1 - extra)
        segments.append((start, length))
        start += length
    postings: dict[tuple[int, str], list[int]] = {}
    for v in longs:
        s = values[v]
        for i, (st, ln) in enumerate(segments):
            postings.setdefault((i, s[st:st + ln]), []).append(v)
    found: dict[int, set[int]] = {v: set() for v in longs}
    for w in window:
        s = values[w]
        lw = len(s)
        for i, (st, ln) in enumerate(segments):
            for p in range(max(0, st - k), min(lw - ln, st + k) + 1):
                for v in postings.get((i, s[p:p + ln]), ()):
                    found[v].add(w)
    yield from found.items()


class ValueNeighbours:
    """A fuzzy-equality relation over interned values. `values` holds the
    distinct values in sorted order, and a value's id is its position there
    (`ids` maps it back). The relation is held as CSR: the neighbours of id i
    are targets[offsets[i]:offsets[i + 1]], each once, so a value's entry
    costs four bytes, not a set slot and a string reference."""

    def __init__(self, values: list[str], offsets: Sequence[int], targets: Sequence[int]):
        self.values, self.offsets, self.targets = values, offsets, targets
        self.ids = {v: i for i, v in enumerate(values)}

    def __getitem__(self, i: int) -> Sequence[int]:
        """The neighbour ids of id i."""
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def intern(self, values: Iterable[str]) -> frozenset[int]:
        """The ids of values the relation holds."""
        return frozenset(map(self.ids.__getitem__, values))


def value_neighbours(values: Iterable[str], delta: float) -> ValueNeighbours:
    """Fuzzy-equality relation over the distinct values: each value's
    neighbours are every other value u with lev_ratio(value, u) >= delta.

    Pairs are grouped by the longer value's length m, which fixes the edit
    budget k. Candidates come from an inverted index over the values whose
    length lies within k of m (deletion variants while k is small, partition
    signatures beyond), and each candidate is confirmed exactly: by its
    Hamming distance when that settles it, else by its edit distance, all of
    a value's remaining candidates in one levenshtein_rows call."""
    from array import array

    values = sorted(set(values))
    by_len: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        by_len.setdefault(len(v), []).append(i)
    adj = [array("i") for _ in values]
    for m in sorted(by_len):
        k = _max_edits(m, delta)
        if k <= 0:
            continue
        longs = by_len[m]
        window = [w for n in range(max(m - k, 0), m + 1) for w in by_len.get(n, ())]
        generate = _deletion_candidates if k <= DELETION_MAX_EDITS else _partition_candidates
        for v, found in generate(values, longs, window, k):
            s = values[v]
            near = []
            unsettled = []
            for w in found:
                t = values[w]
                if len(t) < m:
                    unsettled.append(w)
                elif w <= v:  # a pair of two length-m values is seen from both ends; check it once
                    continue
                elif sum(map(ne, s, t)) <= k:
                    # of equal length, the edit distance is at most the
                    # Hamming distance
                    near.append(w)
                elif k > 1:  # one edit between equal lengths is a substitution
                    unsettled.append(w)
            if unsettled:
                distances = levenshtein_rows([s], [values[w] for w in unsettled])[0]
                near += [w for w, d in zip(unsettled, distances) if d <= k]
            for w in near:
                adj[v].append(w)
                adj[w].append(v)
    offsets = array("q", accumulate(map(len, adj), initial=0))
    targets = array("i", [0]) * offsets[-1]
    for i, lo in enumerate(offsets[:-1]):
        targets[lo:offsets[i + 1]] = adj[i]
        adj[i] = None
    return ValueNeighbours(values, offsets, targets)


def _fuzzy_jaccard_indexed(sa: Set[int], sb: Set[int], neighbours: ValueNeighbours) -> float:
    """Fuzzy Jaccard of two sets of value ids: Jaccard with Levenshtein-
    thresholded equality. Given a neighbour relation that covers both sets,
    the admissible pairs are the equal values plus each value's neighbours on
    the other side. The value-to-value matching is maximum cardinality over
    every admissible pair, so the score never depends on tie-breaking."""
    if not sa or not sb:
        return 0.0
    offsets, targets = neighbours.offsets, neighbours.targets
    equal = sa & sb
    fuzzy = {}  # a value of sa -> its admissible partners, when it has a neighbour in sb
    for va in sa:
        lo, hi = offsets[va], offsets[va + 1]
        if lo != hi:
            hits = sb.intersection(targets[lo:hi])
            if hits:
                fuzzy[va] = hits | {va} if va in equal else hits
    matched = len(equal)
    if fuzzy:
        # an equal value with no fuzzy edge on either side is an isolated
        # edge, in every maximum matching; the rest goes to the matching
        touched = set().union(*fuzzy.values())
        shared = equal & touched
        adj = [*fuzzy.values(), *((v,) for v in shared.difference(fuzzy))]
        matched += _max_bipartite_matching(adj, len(adj), len(touched)) - len(shared)
    union = len(sa) + len(sb) - matched
    return matched / union if union else 0.0


def jl_match(
    a: TableData,
    b: TableData,
    *,
    samples: dict[ColumnRef, frozenset[int]],
    neighbours: ValueNeighbours,
    reach: dict[ColumnRef, frozenset[ColumnRef]],
    columns: dict[str, list[ColumnRef]],
) -> list[float]:
    """Fuzzy Jaccard (_fuzzy_jaccard_indexed) of every column pair, read from
    profile(..., "jl"):
    the column samples as value ids, their neighbour relation at JL_DELTA,
    the reach sets and each table's sorted column refs.
    A pair outside the reach sets scores exactly 0.0 without being looked
    at. The tables are taken in name order and the scores come for a's
    sorted columns by b's, so they follow canonical order and both argument
    orders give the same ones."""
    if b.name < a.name:
        a, b = b, a
    cols_b = columns[b.name]
    scores = []
    for ref_a in columns[a.name]:
        va, reach_a = samples[ref_a], reach[ref_a]
        scores += [
            _fuzzy_jaccard_indexed(va, samples[ref_b], neighbours) if ref_b in reach_a else 0.0
            for ref_b in cols_b
        ]
    return scores


# --------------------------------------------------------------------------
# Similarity Flooding
# --------------------------------------------------------------------------

DATATYPE_BONUS = 0.05


@dataclass
class SchemaGraph:
    """One table's schema graph as sf_match reads it. The graph's shape is
    fixed: an edge labelled "column" from the table node to each column node,
    and one labelled "type" from each column node to its datatype node, so a
    table needs only its column refs (sorted), each column's position among
    them and its datatype's position in the sorted distinct datatypes (both
    in schema order), and how many columns have each datatype."""

    columns: list[ColumnRef]
    ranks: list[int]
    types: list[int]
    datatypes: list[str]
    type_counts: list[int]


def schema_graph(t: TableData) -> SchemaGraph:
    cols = t.schema.columns
    names = sorted(c.name for c in cols)
    datatypes = sorted({c.datatype for c in cols})
    rank = {n: i for i, n in enumerate(names)}
    type_pos = {d: i for i, d in enumerate(datatypes)}
    types = [type_pos[c.datatype] for c in cols]
    counts = [0] * len(datatypes)
    for i in types:
        counts[i] += 1
    return SchemaGraph([(t.name, n) for n in names], [rank[c.name] for c in cols], types, datatypes, counts)


def sf_match(
    a: TableData,
    b: TableData,
    epsilon: float = 1e-3,
    max_iters: int = 200,
    *,
    graphs: dict[str, SchemaGraph],
    header_sims: dict[tuple[str, str], float],
    table_sims: dict[tuple[str, str], float],
) -> tuple[list[float], bool]:
    """Similarity-flooding fixpoint over the pairwise connectivity graph.

    Returns (column-pair scores, converged flag), the scores for a's sorted
    columns by b's, the tables in name order. The pair graph
    has one table pair, every column pair and every datatype pair. Initial
    scores are name similarities (plus a small datatype-equality bonus for
    columns) and datatype equality. Propagation coefficients are the inverse
    product of same-label edge multiplicities on both sides, applied along
    and against pair edges. With na and nb columns, each iteration feeds
      a column pair   sigma(table pair) * (1 / (na * nb))
                      + sigma(its datatype pair) * (1 / (ca * cb)), where ca
                      and cb count the columns of either datatype;
      the table pair  the sum of every column pair's sigma;
      a datatype pair the sum of its column pairs' sigmas;
    each sum taken in a's schema order by b's, one addition at a time, so
    every float operation is that of propagating edge by edge. The schema
    graphs and the column- and table-name similarity tables are read from
    profile(..., "sf"). The tables are taken in name order, so both argument
    orders give the same scores, bit for bit."""
    if b.name < a.name:
        a, b = b, a
    ga, gb = graphs[a.name], graphs[b.name]
    na, nb = len(ga.ranks), len(gb.ranks)
    if not (na and nb):
        # a table without columns has no nodes, so the pair graph is empty:
        # its residual, 0.0, meets epsilon on the first iteration
        return [], max_iters > 0 and 0.0 < epsilon

    # column pair (i, j), the i-th column of a and the j-th of b in schema
    # order, sits at i * nb + j; datatype pair (p, q) at p * ndb + q
    ndb = len(gb.datatypes)
    col0: list[float] = []
    col_type: list[int] = []
    for i, p in zip(ga.ranks, ga.types):
        name_a, type_a = ga.columns[i][1], ga.datatypes[p]
        for j, q in zip(gb.ranks, gb.types):
            name_b = gb.columns[j][1]
            s = header_sims[(name_a, name_b) if name_a <= name_b else (name_b, name_a)]
            if type_a == gb.datatypes[q]:
                s = min(1.0, s + DATATYPE_BONUS)
            col0.append(s)
            col_type.append(p * ndb + q)
    type0 = [1.0 if x == y else 0.0 for x in ga.datatypes for y in gb.datatypes]
    type_w = [1.0 / (ca * cb) for ca in ga.type_counts for cb in gb.type_counts]
    table_w = 1.0 / (na * nb)
    table0 = table_sims[(a.name, b.name)]

    col, typ, table = col0, type0, table0
    converged = False
    for _ in range(max_iters):
        from_table = table_w * table
        feed = [from_table + w * s for w, s in zip(type_w, typ)]
        next_col = []
        into_type = [0] * len(typ)
        for s0, s, t in zip(col0, col, col_type):
            next_col.append(s0 + s + feed[t])
            into_type[t] += s
        next_type = list(map(add, map(add, type0, typ), into_type))
        next_table = table0 + table + reduce(add, col, 0)
        peak = max(max(next_col), max(next_type), next_table)
        if peak > 0:
            next_col = [x / peak for x in next_col]
            next_type = [x / peak for x in next_type]
            next_table /= peak
        # the residual, the largest change of any pair, is below epsilon
        # iff every part's is; the longest part is checked last
        converged = (
            abs(next_table - table) < epsilon
            and max(map(abs, map(sub, next_type, typ))) < epsilon
            and max(map(abs, map(sub, next_col, col))) < epsilon
        )
        col, typ, table = next_col, next_type, next_table
        if converged:
            break

    # back to canonical order: a's sorted columns by b's
    scores = [0.0] * (na * nb)
    in_schema_order = iter(col)
    for i in ga.ranks:
        for j in gb.ranks:
            scores[i * nb + j] = max(0.0, min(1.0, next(in_schema_order)))
    return scores, converged


# --------------------------------------------------------------------------
# name + instance hybrid
# --------------------------------------------------------------------------


def instance_containment(values_a: Iterable[str], values_b: Iterable[str]) -> float:
    """The share of the smaller value set that the other holds. Sets are read
    as given, other iterables copied into sets."""
    sa = values_a if isinstance(values_a, Set) else set(values_a)
    sb = values_b if isinstance(values_b, Set) else set(values_b)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / min(len(sa), len(sb))


def hybrid_match(
    a: TableData,
    b: TableData,
    w_name: float = 0.5,
    w_instance: float = 0.5,
    *,
    samples: dict[ColumnRef, frozenset[str]],
    share: dict[ColumnRef, frozenset[ColumnRef]],
    header_sims: dict[tuple[str, str], float],
) -> list[float]:
    """COMA-style blend: header similarity (max of normalized Levenshtein and
    token-set Jaccard) weighted against instance containment, which is 0.0
    for a pair outside the share sets. The column samples, share sets and
    header-similarity table are read from profile(..., "hybrid"). The tables
    are taken in name order and the scores come for a's sorted columns by
    b's, so they follow canonical order and both argument orders give the
    same ones."""
    if w_name < 0 or w_instance < 0 or abs(w_name + w_instance - 1.0) > 1e-9:
        raise EvaluationError("hybrid weights must be non-negative and sum to 1")
    if b.name < a.name:
        a, b = b, a
    cols_b = _sorted_columns(b)
    scores = []
    for ref_a in _sorted_columns(a):
        va, share_a, name_a = samples[ref_a], share[ref_a], ref_a[1]
        for ref_b in cols_b:
            containment = instance_containment(va, samples[ref_b]) if ref_b in share_a else 0.0
            name_b = ref_b[1]
            name = header_sims[(name_a, name_b) if name_a <= name_b else (name_b, name_a)]
            scores.append(w_name * name + w_instance * containment)
    return scores


# --------------------------------------------------------------------------
# corpus-level orchestration and the external adapter
# --------------------------------------------------------------------------


def profile(tables: Iterable[TableData], matcher: str, seed: int = 0) -> dict:
    """The keyword arguments the pair matcher of `matcher` reads, built once
    over `tables` (every pair scored through them must come from there):

    jl      samples (each column's value ids), neighbours
            (value_neighbours at JL_DELTA), reach and columns (each
            table's sorted column refs)
    sf      graphs (one schema graph per table), header_sims (the lowered
            headers' normalized Levenshtein similarity) and table_sims (the
            same over the table names)
    hybrid  samples, share, header_sims (the larger of that similarity and
            the headers' word-set Jaccard)

    The similarity tables are complete, keyed (x, y) with x <= y: every pair
    of names, each name with itself included, so a table can also be matched
    with itself. `seed` draws the column samples."""
    if matcher not in MATCHERS:
        raise EvaluationError(f"unknown matcher {matcher!r}")
    tables = list(tables)
    headers = [c.name for t in tables for c in t.schema.columns]
    if matcher == "sf":
        return {
            "graphs": {t.name: schema_graph(t) for t in tables},
            "header_sims": _lower_ratios(headers),
            "table_sims": _lower_ratios(t.name for t in tables),
        }
    samples = column_samples(tables, seed)
    if matcher == "hybrid":
        return {
            "samples": samples,
            "share": reachable_columns(samples),
            "header_sims": _name_similarities(headers),
        }
    neighbours = value_neighbours(frozenset().union(*samples.values()), JL_DELTA)
    ids = {ref: neighbours.intern(values) for ref, values in samples.items()}
    return {
        "samples": ids,
        "neighbours": neighbours,
        "reach": reachable_columns(ids, neighbours),
        "columns": {t.name: _sorted_columns(t) for t in tables},
    }


def match_corpus(corpus: Corpus, matcher: str, **params) -> Predictions:
    """Run a built-in matcher over every cross-table column pair: the corpus
    is profiled once, then each table pair is scored through the module's
    jl_match, sf_match or hybrid_match. `params` are hybrid's weights
    (w_name, w_instance), passed on to hybrid_match; any other keyword raises
    EvaluationError.

    The scores come in the order of that list by construction. A pair matcher
    scores table a's sorted columns by b's, so for each table a in name
    order, each of its columns takes its row of every later table's block,
    in name order."""
    shared = profile(corpus.tables, matcher, corpus.seed)
    for name in params:
        if matcher != "hybrid" or name not in ("w_name", "w_instance"):
            raise EvaluationError(f"matcher {matcher!r} takes no keyword {name!r}")
    tables = sorted(corpus.tables, key=lambda t: t.name)
    scores: list[float] = []
    for i, a in enumerate(tables):
        blocks = []  # (scores of a with b, b's column count)
        for b in tables[i + 1:]:
            if matcher == "jl":
                block = jl_match(a, b, **shared)
            elif matcher == "sf":
                block = sf_match(a, b, **shared)[0]
            else:
                block = hybrid_match(a, b, **params, **shared)
            blocks.append((block, len(b.schema.columns)))
        for r in range(len(a.schema.columns)):
            for block, nb in blocks:
                scores += block[r * nb:(r + 1) * nb]
    return Predictions(ColumnPairs.of_tables(tables), scores)


def write_predictions_csv(preds: Predictions) -> str:
    """The predictions interchange CSV, one row per prediction, in canonical
    order, each row ended by LF. Quoting is decided field by field, so each
    column's two cells are CSV-encoded once, and a row joins its left
    column's cells, its right column's and the score. A cell holding a CR or
    an LF is quoted, so csv.reader reads each cell back whole."""
    buf = io.StringIO()
    # csv.writer quotes a cell holding any character of its line terminator
    writer = csv.writer(buf, lineterminator="\r\n")

    def row_text(cells) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()[:-2]

    encoded: dict[ColumnRef, str] = {}

    def encode(ref: ColumnRef) -> str:
        text = encoded.get(ref)
        if text is None:
            text = encoded[ref] = row_text(ref)
        return text

    pairs, scores = preds.pairs, preds.scores
    rights = list(map(encode, pairs.rights))
    lines = [row_text(["left_table", "left_column", "right_table", "right_column", "score"]) + "\n"]
    for left, (lo, hi), offset in zip(pairs.lefts, pairs.bounds, pairs.offsets):
        prefix = encode(left)
        lines += [
            f"{prefix},{right},{score:.6f}\n"
            for right, score in zip(rights[lo:hi], scores[offset:offset + hi - lo])
        ]
    return "".join(lines)


def parse_predictions_csv(text: str, corpus: Corpus | None = None) -> Predictions:
    """Parse and validate the predictions interchange CSV (line-precise
    errors). Rows may come in any order; a pair given more than once keeps
    its highest score."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise EvaluationError("empty predictions file")
    start = 1 if rows[0][:1] == ["left_table"] else 0
    parsed = []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        if len(row) != 5:
            raise EvaluationError(f"predictions line {lineno}: expected 5 fields, got {len(row)}")
        lt, lc, rt, rc, raw = row
        try:
            score = float(raw)
        except ValueError:
            raise EvaluationError(f"predictions line {lineno}: bad score {raw!r}")
        if not (0.0 <= score <= 1.0):
            raise EvaluationError(f"predictions line {lineno}: score {score} outside [0, 1]")
        if corpus is not None:
            for tbl, col in ((lt, lc), (rt, rc)):
                if not corpus.has_table(tbl):
                    raise EvaluationError(
                        f"predictions line {lineno}: unknown table {tbl!r}"
                    )
                if col not in corpus.table(tbl).schema.column_names():
                    raise EvaluationError(
                        f"predictions line {lineno}: table {tbl!r} has no column {col!r}"
                    )
        parsed.append(((lt, lc), (rt, rc), score))
    return Predictions.best_of(parsed)


def external_match(
    corpus_dir: str, command_template: str, corpus: Corpus | None = None, timeout: float = 600.0
) -> Predictions:
    """Run an external matcher: the template's {corpus} placeholder is replaced
    with the corpus directory; predictions are read from stdout (CSV). A
    command that cannot start or outlives `timeout` seconds is an
    EvaluationError naming it."""
    import shlex

    try:
        parts = shlex.split(command_template)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise EvaluationError(f"external matcher command {command_template!r}: {exc}") from None
    cmd = [part.replace("{corpus}", str(corpus_dir)) for part in parts]
    if not cmd:
        raise EvaluationError("external matcher command is empty")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except OSError as exc:  # missing, not executable, not a program
        raise EvaluationError(
            f"external matcher could not start ({exc.strerror or exc}): {shlex.join(cmd)}"
        ) from None
    except subprocess.TimeoutExpired:
        raise EvaluationError(
            f"external matcher timed out after {timeout:g} s: {shlex.join(cmd)}"
        ) from None
    if proc.returncode != 0:
        raise EvaluationError(
            f"external matcher exited {proc.returncode}: {proc.stderr.strip()[:500]}"
        )
    return parse_predictions_csv(proc.stdout, corpus=corpus)
