"""Joinability-discovery baselines.

jl_match     fuzzy Jaccard over distinct instance values, where two values
             count as equal when their normalized Levenshtein similarity
             reaches the threshold; the value matching is optimal (maximum
             cardinality), computed with Hopcroft-Karp over the admissible
             pairs. The fuzzy-equality relation is computed once over all
             sampled values (value_neighbours: inverted-index candidates,
             each confirmed by the bit-parallel edit distance), not per
             column pair.
sf_match     similarity flooding: build typed schema graphs, form the pairwise
             connectivity graph over same-typed node pairs, then iterate
             sigma' = normalize(sigma0 + sigma + propagate(sigma)) until the
             residual drops below epsilon.
hybrid_match weighted blend of header similarity and instance containment.
external_match  run an external matcher process and read its predictions CSV.

profile builds what a pair matcher reads, once over a set of tables: column
samples, jl's neighbour map and reach sets, hybrid's share sets
(reachable_columns), one schema graph per table for sf, and one
header-similarity table for sf and hybrid, filled on first use of each header
pair. The pair matchers build nothing; they only read the profile they are
given. match_corpus profiles the whole corpus once and scores every table
pair through it.

All matchers are stateless and symmetric; scores live in [0, 1].
"""

from __future__ import annotations

import csv
import io
import subprocess
from collections import Counter, deque
from collections.abc import Iterable, Set
from dataclasses import dataclass
from itertools import chain, combinations
from operator import sub

from .common import EvaluationError, lev_ratio, levenshtein, seeded_rng, token_jaccard
from .model import ColumnRef, Corpus, TableData, keys_increasing

VALUE_SAMPLE_CAP = 500  # distinct values per column fed to instance matchers
JL_DELTA = 0.8  # jl: least normalized Levenshtein similarity of two equal values


@dataclass
class MatchPrediction:
    left: ColumnRef
    right: ColumnRef
    score: float

    def __post_init__(self):
        self.left = tuple(self.left)
        self.right = tuple(self.right)
        if self.right < self.left:
            self.left, self.right = self.right, self.left

    def key(self) -> tuple[ColumnRef, ColumnRef]:
        return (self.left, self.right)


def dedupe_predictions(preds: list[MatchPrediction]) -> list[MatchPrediction]:
    """Canonical ordering, max score kept on duplicates. Predictions already
    in strictly increasing key order, as match_corpus returns them, are only
    copied."""
    if keys_increasing(preds):
        return list(preds)
    best: dict[tuple, MatchPrediction] = {}
    for p in preds:
        cur = best.get(p.key())
        if cur is None or p.score > cur.score:
            best[p.key()] = p
    return [best[k] for k in sorted(best)]


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
    samples: dict[ColumnRef, frozenset[str]], neighbours: dict[str, set[str]] | None = None
) -> dict[ColumnRef, frozenset[ColumnRef]]:
    """Each column's share set: the columns whose samples hold one of its
    sampled values, read off a value -> columns posting index. Given the
    neighbour map, its reach set instead: the share set plus the columns
    holding a neighbour of one of its values. A column pair outside these
    sets has no equal (no admissible) value pair."""
    postings: dict[str, list[ColumnRef]] = {}
    for ref, values in samples.items():
        for v in values:
            postings.setdefault(v, []).append(ref)
    reach = {}
    for ref, values in samples.items():
        if neighbours is not None:
            values = values.union(*(neighbours[v] for v in values & neighbours.keys()))
        reach[ref] = frozenset(chain.from_iterable(map(postings.__getitem__, values)))
    return reach


def _memo_similarity(memo: dict[tuple[str, str], float], x: str, y: str, similarity) -> float:
    """similarity of two headers through memo, keyed by the unordered pair:
    the header similarities are symmetric, so both orders share one entry,
    computed in the key's order."""
    key = (x, y) if x <= y else (y, x)
    sim = memo.get(key)
    if sim is None:
        sim = memo[key] = similarity(*key)
    return sim


# --------------------------------------------------------------------------
# Jaccard-Levenshtein
# --------------------------------------------------------------------------


def _max_bipartite_matching(adj: dict[int, list[int]], n_left: int, n_right: int) -> int:
    """Hopcroft-Karp maximum cardinality matching size."""
    INF = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj.get(u, ()):
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def augment(root: int) -> bool:
        """Layered DFS from a free left vertex, iterative so that long
        augmenting paths cannot exhaust the interpreter stack. path[i] left
        the layer through right vertex via[i]."""
        path = [root]
        edges = [iter(adj.get(root, ()))]
        via: list[int] = []
        while path:
            u = path[-1]
            for v in edges[-1]:
                w = match_r[v]
                if w == -1:
                    via.append(v)
                    for x, y in zip(path, via):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    path.append(w)
                    edges.append(iter(adj.get(w, ())))
                    break
            else:
                dist[u] = INF
                path.pop()
                edges.pop()
                if via:
                    via.pop()
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and augment(u):
                size += 1
    return size


def _max_edits(m: int, delta: float) -> int:
    """Largest edit distance at which two values, the longer of length m,
    still reach normalized similarity delta: ratio >= delta iff dist <= this."""
    return int((1.0 - delta) * max(m, 1) + 1e-9)


DELETION_MAX_EDITS = 2  # beyond, partition signatures: deletion variants grow as C(m, k)


def _deletion_variants(s: str, drop: int) -> set[str]:
    """Every string left after deleting exactly `drop` characters of s."""
    keep = len(s) - drop
    return {"".join(map(s.__getitem__, pos)) for pos in combinations(range(len(s)), keep)}


def _deletion_candidates(longs: list[str], window: list[str], k: int):
    """Candidate partners of each value of length m = len(longs[0]) among
    `window` (every value with length in [m - k, m]).

    Two strings within k edits, the longer of length m, share a subsequence
    of length m - k (FastSS-style deletion neighbourhoods), so the values
    that share a length-(m - k) deletion variant are a lossless candidate set.
    Digit strings and dates share long prefixes but few such variants."""
    target = max(len(longs[0]) - k, 0)
    postings: dict[str, list[str]] = {}
    for w in window:
        for var in _deletion_variants(w, len(w) - target):
            postings.setdefault(var, []).append(w)
    for v in longs:
        found: set[str] = set()
        for var in _deletion_variants(v, len(v) - target):
            found.update(postings[var])
        yield v, found


def _partition_candidates(longs: list[str], window: list[str], k: int):
    """Candidate partners by partition signatures (Pass-Join, Li et al.,
    VLDB 2012): cut each value of length m into k + 1 segments. k edits leave
    at least one segment intact, and it reappears in the partner shifted by
    at most k positions."""
    m = len(longs[0])
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
    postings: dict[tuple[int, str], list[str]] = {}
    for v in longs:
        for i, (st, ln) in enumerate(segments):
            postings.setdefault((i, v[st:st + ln]), []).append(v)
    found: dict[str, set[str]] = {v: set() for v in longs}
    for w in window:
        lw = len(w)
        for i, (st, ln) in enumerate(segments):
            for p in range(max(0, st - k), min(lw - ln, st + k) + 1):
                for v in postings.get((i, w[p:p + ln]), ()):
                    found[v].add(w)
    yield from found.items()


def value_neighbours(values: Iterable[str], delta: float) -> dict[str, set[str]]:
    """Fuzzy-equality relation over distinct values: value -> every other
    value u with lev_ratio(value, u) >= delta.

    Pairs are grouped by the longer value's length m, which fixes the edit
    budget k. Candidates come from an inverted index over the values whose
    length lies within k of m (deletion variants while k is small, partition
    signatures beyond), and each candidate is confirmed with its exact edit
    distance. Values without neighbours have no entry."""
    by_len: dict[int, list[str]] = {}
    for v in set(values):
        by_len.setdefault(len(v), []).append(v)
    neighbours: dict[str, set[str]] = {}
    for m in sorted(by_len):
        k = _max_edits(m, delta)
        if k <= 0:
            continue
        longs = by_len[m]
        window = [w for n in range(max(m - k, 0), m + 1) for w in by_len.get(n, ())]
        generate = _deletion_candidates if k <= DELETION_MAX_EDITS else _partition_candidates
        for v, found in generate(longs, window, k):
            for w in found:
                # a pair of two length-m values is seen from both ends; check it once
                if (len(w) == m and w <= v) or levenshtein(v, w) > k:
                    continue
                neighbours.setdefault(v, set()).add(w)
                neighbours.setdefault(w, set()).add(v)
    return neighbours


def _fuzzy_jaccard_indexed(sa: Set[str], sb: Set[str], neighbours: dict[str, set[str]]) -> float:
    """fuzzy_jaccard over two distinct-value sets, given a neighbour map that
    covers both: the admissible pairs are the equal values plus each value's
    neighbours on the other side."""
    if not sa or not sb:
        return 0.0
    fuzzy = {}
    for va in sa & neighbours.keys():
        hits = neighbours[va] & sb
        if hits:
            fuzzy[va] = hits
    equal = sa & sb
    matched = len(equal)
    if fuzzy:
        # an equal value with no fuzzy edge on either side is an isolated
        # edge, in every maximum matching; the rest goes to Hopcroft-Karp
        touched = set().union(*fuzzy.values())
        shared = [v for v in equal if v in fuzzy or v in touched]
        right = {v: j for j, v in enumerate(touched.union(shared))}
        left = {va: [right[u] for u in hits] for va, hits in fuzzy.items()}
        for v in shared:
            left.setdefault(v, []).append(right[v])
        adj = dict(enumerate(left.values()))
        matched += _max_bipartite_matching(adj, len(adj), len(right)) - len(shared)
    union = len(sa) + len(sb) - matched
    return matched / union if union else 0.0


def fuzzy_jaccard(values_a: list[str], values_b: list[str], delta: float) -> float:
    """Jaccard over two value sets with Levenshtein-thresholded equality.

    The value-to-value matching is maximum cardinality (Hopcroft-Karp) over
    every admissible pair, so the score never depends on tie-breaking. With
    delta = 1.0 this reduces to classical Jaccard over the distinct sets.
    """
    sa, sb = set(values_a), set(values_b)
    return _fuzzy_jaccard_indexed(sa, sb, value_neighbours(sa | sb, delta))


def _sorted_columns(t: TableData) -> list[ColumnRef]:
    return [(t.name, c) for c in sorted(t.schema.column_names())]


def jl_match(
    a: TableData,
    b: TableData,
    *,
    samples: dict[ColumnRef, frozenset[str]],
    neighbours: dict[str, set[str]],
    reach: dict[ColumnRef, frozenset[ColumnRef]],
) -> list[MatchPrediction]:
    """fuzzy_jaccard over every column pair, read from profile(..., "jl"):
    the column samples, their neighbour map at JL_DELTA and the reach sets.
    A pair outside the reach sets scores exactly 0.0 without being looked
    at. The tables are taken in name order, so the predictions come in
    canonical order and both argument orders give the same ones."""
    if b.name < a.name:
        a, b = b, a
    cols_b = _sorted_columns(b)
    preds = []
    for ref_a in _sorted_columns(a):
        va, reach_a = samples[ref_a], reach[ref_a]
        for ref_b in cols_b:
            score = _fuzzy_jaccard_indexed(va, samples[ref_b], neighbours) if ref_b in reach_a else 0.0
            preds.append(MatchPrediction(ref_a, ref_b, score))
    return preds


# --------------------------------------------------------------------------
# Similarity Flooding
# --------------------------------------------------------------------------

DATATYPE_BONUS = 0.05


def _lower_ratio(a: str, b: str) -> float:
    return lev_ratio(a.lower(), b.lower())


def _schema_edges(t: TableData) -> list[tuple[tuple, str, tuple]]:
    """Typed edges: table -column-> column nodes, column -type-> datatype nodes."""
    edges = []
    tnode = ("table", t.name)
    for c in t.schema.columns:
        cnode = ("column", c.name)
        edges.append((tnode, "column", cnode))
        edges.append((cnode, "type", ("datatype", c.datatype)))
    return edges


# the kinds of an edge's source and target nodes, by edge label
_EDGE_ENDS = {"column": ("table", "column"), "type": ("column", "datatype")}


@dataclass
class SchemaGraph:
    """One table's schema graph as sf_match reads it. nodes: each kind's
    nodes, kinds and nodes sorted. edges: per label, in edge order, (source
    position, target position, source out-multiplicity, target
    in-multiplicity), where a position indexes the node's kind list and a
    multiplicity counts the node's edges of that label."""

    nodes: dict[str, list[tuple]]
    edges: dict[str, list[tuple[int, int, int, int]]]
    datatypes: dict[str, str]  # column name -> datatype


def schema_graph(t: TableData) -> SchemaGraph:
    edges = _schema_edges(t)
    nodes: dict[str, list[tuple]] = {}
    for n in sorted({n for e in edges for n in (e[0], e[2])}):
        nodes.setdefault(n[0], []).append(n)
    pos = {n: i for group in nodes.values() for i, n in enumerate(group)}
    out_mult = Counter((s, l) for s, l, _d in edges)
    in_mult = Counter((d, l) for _s, l, d in edges)
    by_label: dict[str, list[tuple[int, int, int, int]]] = {}
    for s, l, d in edges:
        by_label.setdefault(l, []).append((pos[s], pos[d], out_mult[(s, l)], in_mult[(d, l)]))
    return SchemaGraph(nodes, by_label, {c.name: c.datatype for c in t.schema.columns})


def sf_match(
    a: TableData,
    b: TableData,
    epsilon: float = 1e-3,
    max_iters: int = 200,
    *,
    graphs: dict[str, SchemaGraph],
    header_sims: dict[tuple[str, str], float],
) -> tuple[list[MatchPrediction], bool]:
    """Similarity-flooding fixpoint over the pairwise connectivity graph.

    Returns (predictions for column pairs, converged flag). Initial scores are
    name similarities (plus a small datatype-equality bonus for columns);
    propagation coefficients are the inverse product of same-label edge
    multiplicities on both sides, applied along and against pair edges. The
    schema graphs and the column-name similarity table are read from
    profile(..., "sf"). The tables are taken in name order, so both argument
    orders give the same scores, bit for bit.
    """
    if b.name < a.name:
        a, b = b, a
    ga, gb = graphs[a.name], graphs[b.name]

    def initial(na: tuple, nb: tuple) -> float:
        kind = na[0]
        if kind == "datatype":
            return 1.0 if na[1] == nb[1] else 0.0
        if kind == "table":
            return _lower_ratio(na[1], nb[1])
        # datatype bonus added below, needs column objects
        return _memo_similarity(header_sims, na[1], nb[1], _lower_ratio)

    # same-kind node pairs in sorted order; pair (i, j) of a kind sits at
    # offset[kind] + i * len(gb.nodes[kind]) + j
    pairs: list[tuple[tuple, tuple]] = []
    offset: dict[str, int] = {}
    for kind, group_a in ga.nodes.items():
        offset[kind] = len(pairs)
        pairs.extend((na, nb) for na in group_a for nb in gb.nodes.get(kind, ()))
    sigma0 = []
    for na, nb in pairs:
        s = initial(na, nb)
        if na[0] == "column" and ga.datatypes[na[1]] == gb.datatypes[nb[1]]:
            s = min(1.0, s + DATATYPE_BONUS)
        sigma0.append(s)

    # pair graph edges with propagation coefficients (both directions)
    prop: list[list[tuple[int, float]]] = [[] for _ in pairs]
    for label, edges_a in ga.edges.items():
        if label not in gb.edges:
            continue
        src_kind, dst_kind = _EDGE_ENDS[label]
        src_off, src_n = offset[src_kind], len(gb.nodes[src_kind])
        dst_off, dst_n = offset[dst_kind], len(gb.nodes[dst_kind])
        for sa, da, out_a, in_a in edges_a:
            for sb, db, out_b, in_b in gb.edges[label]:
                src, dst = src_off + sa * src_n + sb, dst_off + da * dst_n + db
                prop[dst].append((src, 1.0 / (out_a * out_b)))
                prop[src].append((dst, 1.0 / (in_a * in_b)))

    sigma = list(sigma0)
    converged = False
    for _ in range(max_iters):
        nxt = []
        for s0, s, feeds in zip(sigma0, sigma, prop):
            flow = 0
            for j, w in feeds:
                flow += w * sigma[j]
            nxt.append(s0 + s + flow)
        peak = max(nxt) if nxt else 1.0
        if peak > 0:
            nxt = [x / peak for x in nxt]
        residual = max(map(abs, map(sub, nxt, sigma)), default=0.0)
        sigma = nxt
        if residual < epsilon:
            converged = True
            break

    preds = [
        MatchPrediction((a.name, na[1]), (b.name, nb[1]), max(0.0, min(1.0, s)))
        for (na, nb), s in zip(pairs, sigma)
        if na[0] == "column"
    ]
    return preds, converged


# --------------------------------------------------------------------------
# name + instance hybrid
# --------------------------------------------------------------------------


def name_similarity(a: str, b: str) -> float:
    return max(lev_ratio(a.lower(), b.lower()), token_jaccard(a, b))


def instance_containment(values_a: Iterable[str], values_b: Iterable[str]) -> float:
    sa, sb = set(values_a), set(values_b)
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
) -> list[MatchPrediction]:
    """COMA-style blend: header similarity (max of normalized Levenshtein and
    token-set Jaccard) weighted against instance containment, which is 0.0
    for a pair outside the share sets. The column samples, share sets and
    name_similarity table are read from profile(..., "hybrid"). The tables
    are taken in name order, so the predictions come in canonical order and
    both argument orders give the same ones."""
    if w_name < 0 or w_instance < 0 or abs(w_name + w_instance - 1.0) > 1e-9:
        raise EvaluationError("hybrid weights must be non-negative and sum to 1")
    if b.name < a.name:
        a, b = b, a
    cols_b = _sorted_columns(b)
    preds = []
    for ref_a in _sorted_columns(a):
        va, share_a = samples[ref_a], share[ref_a]
        for ref_b in cols_b:
            containment = instance_containment(va, samples[ref_b]) if ref_b in share_a else 0.0
            name = _memo_similarity(header_sims, ref_a[1], ref_b[1], name_similarity)
            score = w_name * name + w_instance * containment
            preds.append(MatchPrediction(ref_a, ref_b, score))
    return preds


# --------------------------------------------------------------------------
# corpus-level orchestration and the external adapter
# --------------------------------------------------------------------------


def profile(tables: Iterable[TableData], matcher: str, seed: int = 0) -> dict:
    """The keyword arguments the pair matcher of `matcher` reads, built once
    over `tables` (every pair scored through them must come from there):

    jl      samples, neighbours (value_neighbours at JL_DELTA), reach
    sf      graphs (one schema graph per table), header_sims
    hybrid  samples, share, header_sims

    A header_sims table starts empty and is filled on first use of each
    header pair. `seed` draws the column samples."""
    if matcher == "sf":
        return {"graphs": {t.name: schema_graph(t) for t in tables}, "header_sims": {}}
    if matcher not in ("jl", "hybrid"):
        raise EvaluationError(f"unknown matcher {matcher!r}")
    samples = column_samples(tables, seed)
    if matcher == "hybrid":
        return {"samples": samples, "share": reachable_columns(samples), "header_sims": {}}
    neighbours = value_neighbours(frozenset().union(*samples.values()), JL_DELTA)
    return {"samples": samples, "neighbours": neighbours, "reach": reachable_columns(samples, neighbours)}


def match_corpus(corpus: Corpus, matcher: str, **params) -> list[MatchPrediction]:
    """Run a built-in matcher over every cross-table column pair: the corpus
    is profiled once, then each table pair is scored through the module's
    jl_match, sf_match or hybrid_match, with `params` passed on."""
    shared = profile(corpus.tables, matcher, corpus.seed)
    tables = sorted(corpus.tables, key=lambda t: t.name)
    preds: list[MatchPrediction] = []
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            if matcher == "jl":
                preds.extend(jl_match(a, b, **params, **shared))
            elif matcher == "sf":
                preds.extend(sf_match(a, b, **params, **shared)[0])
            else:
                preds.extend(hybrid_match(a, b, **params, **shared))
    # one prediction per column pair: validate rejects duplicate table and
    # column names, so the keys are unique and sorting them is canonical
    preds.sort(key=MatchPrediction.key)
    return preds


def write_predictions_csv(preds: list[MatchPrediction]) -> str:
    """The predictions interchange CSV, one row per deduplicated prediction.
    Quoting is decided field by field, so each column's two cells are
    CSV-encoded once and a row joins them with the score."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def row_text(cells) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()

    encoded: dict[ColumnRef, str] = {}
    lines = [row_text(["left_table", "left_column", "right_table", "right_column", "score"])]
    for p in dedupe_predictions(preds):
        for ref in (p.left, p.right):
            if ref not in encoded:
                encoded[ref] = row_text(ref)[:-1]
        lines.append(f"{encoded[p.left]},{encoded[p.right]},{p.score:.6f}\n")
    return "".join(lines)


def parse_predictions_csv(text: str, corpus: Corpus | None = None) -> list[MatchPrediction]:
    """Parse and validate the predictions interchange CSV (line-precise errors)."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise EvaluationError("empty predictions file")
    start = 1 if rows[0][:1] == ["left_table"] or rows[0] == [
        "left_table", "left_column", "right_table", "right_column", "score",
    ] else 0
    preds = []
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
                corpus.table(tbl).schema.column_index(col)
        preds.append(MatchPrediction((lt, lc), (rt, rc), score))
    return dedupe_predictions(preds)


def external_match(
    corpus_dir: str, command_template: str, corpus: Corpus | None = None, timeout: float = 600.0
) -> list[MatchPrediction]:
    """Run an external matcher: the template's {corpus} placeholder is replaced
    with the corpus directory; predictions are read from stdout (CSV). A
    command that cannot start or outlives `timeout` seconds is an
    EvaluationError naming it."""
    import shlex

    cmd = [part.replace("{corpus}", str(corpus_dir)) for part in shlex.split(command_template)]
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
