"""Joinability-discovery baselines.

jl_match     fuzzy Jaccard over distinct instance values, where two values
             count as equal when their normalized Levenshtein similarity
             reaches the threshold; the value matching is optimal (maximum
             cardinality), computed with Hopcroft-Karp over the admissible
             pairs. The fuzzy-equality relation is computed once over all
             sampled values (value_neighbours: inverted-index candidates,
             each confirmed by banded Levenshtein), not per column pair.
sf_match     similarity flooding: build typed schema graphs, form the pairwise
             connectivity graph over same-typed node pairs, then iterate
             sigma' = normalize(sigma0 + sigma + propagate(sigma)) until the
             residual drops below epsilon.
hybrid_match weighted blend of header similarity and instance containment.
external_match  run an external matcher process and read its predictions CSV.

All matchers are stateless and symmetric; scores live in [0, 1].
"""

from __future__ import annotations

import csv
import io
import subprocess
from collections import deque
from collections.abc import Iterable, Set
from dataclasses import dataclass
from itertools import combinations

from .common import EvaluationError, lev_ratio, seeded_rng, token_jaccard
from .model import ColumnRef, Corpus, TableData

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
    """Canonical ordering, max score kept on duplicates."""
    best: dict[tuple, MatchPrediction] = {}
    for p in preds:
        cur = best.get(p.key())
        if cur is None or p.score > cur.score:
            best[p.key()] = p
    return [best[k] for k in sorted(best)]


def sample_values(table: TableData, column: str, cap: int = VALUE_SAMPLE_CAP, seed: int = 0) -> list[str]:
    values = sorted(table.value_set(column))
    if len(values) <= cap:
        return values
    rng = seeded_rng("sample_values", seed, table.name, column)
    return sorted(rng.sample(values, cap))


def column_samples(
    tables: Iterable[TableData], cap: int = VALUE_SAMPLE_CAP, seed: int = 0
) -> dict[ColumnRef, frozenset[str]]:
    """Every column's sample_values as a set, keyed by (table, column): the
    one value profile the instance matchers share."""
    return {
        (t.name, c.name): frozenset(sample_values(t, c.name, cap, seed))
        for t in tables
        for c in t.schema.columns
    }


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


def _lev_within(a: str, b: str, k: int) -> int:
    """Banded Levenshtein: the exact distance when it is <= k, else k + 1."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    big = k + 1
    if abs(la - lb) > k or k <= 0:
        return big
    prev = [j if j <= k else big for j in range(lb + 1)]
    for i in range(1, la + 1):
        lo, hi = max(1, i - k), min(lb, i + k)
        cur = [big] * (lb + 1)
        if i <= k:
            cur[0] = i
        row_min = cur[0]
        for j in range(lo, hi + 1):
            cost = prev[j - 1] + (a[i - 1] != b[j - 1])
            if prev[j] + 1 < cost:
                cost = prev[j] + 1
            if cur[j - 1] + 1 < cost:
                cost = cur[j - 1] + 1
            cur[j] = cost if cost < big else big
            if cur[j] < row_min:
                row_min = cur[j]
        if row_min > k:
            return big
        prev = cur
    return prev[lb]


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
    signatures beyond), and each candidate is confirmed with the banded
    Levenshtein. Values without neighbours have no entry."""
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
                if (len(w) == m and w <= v) or _lev_within(v, w, k) > k:
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


def jl_match(
    a: TableData,
    b: TableData,
    delta: float = JL_DELTA,
    cap: int = VALUE_SAMPLE_CAP,
    seed: int = 0,
    *,
    samples: dict[ColumnRef, frozenset[str]] | None = None,
    neighbours: dict[str, set[str]] | None = None,
) -> list[MatchPrediction]:
    """fuzzy_jaccard over every column pair. match_corpus passes the
    corpus-wide column samples and their neighbour map; without them both
    are built over the two tables."""
    if samples is None:
        samples = column_samples((a, b), cap, seed)
    if neighbours is None:
        neighbours = value_neighbours(frozenset().union(*samples.values()), delta)
    preds = []
    for ca in a.schema.columns:
        va = samples[(a.name, ca.name)]
        for cb in b.schema.columns:
            score = _fuzzy_jaccard_indexed(va, samples[(b.name, cb.name)], neighbours)
            preds.append(MatchPrediction((a.name, ca.name), (b.name, cb.name), score))
    return dedupe_predictions(preds)


# --------------------------------------------------------------------------
# Similarity Flooding
# --------------------------------------------------------------------------

DATATYPE_BONUS = 0.05
TOP_TOKENS = 10


def _top_tokens(t: TableData, column: str) -> frozenset[str]:
    counts: dict[str, int] = {}
    for v in t.column_values(column):
        for tok in v.lower().split():
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return frozenset(tok for tok, _n in ranked[:TOP_TOKENS])


def _schema_graph(t: TableData, include_tokens: bool) -> list[tuple[tuple, str, tuple]]:
    """Typed edges: table -column-> column nodes, column -type-> datatype nodes,
    optionally column -tokens-> a frequent-instance-token node."""
    edges = []
    tnode = ("table", t.name)
    for c in t.schema.columns:
        cnode = ("column", c.name)
        edges.append((tnode, "column", cnode))
        edges.append((cnode, "type", ("datatype", c.datatype)))
        if include_tokens:
            edges.append((cnode, "tokens", ("tokens", _top_tokens(t, c.name))))
    return edges


def sf_match(
    a: TableData,
    b: TableData,
    epsilon: float = 1e-3,
    max_iters: int = 200,
    include_tokens: bool = False,
) -> tuple[list[MatchPrediction], bool]:
    """Similarity-flooding fixpoint over the pairwise connectivity graph.

    Returns (predictions for column pairs, converged flag). Initial scores are
    name similarities (plus a small datatype-equality bonus for columns);
    propagation coefficients are the inverse product of same-label edge
    multiplicities on both sides, applied along and against pair edges. The
    default graphs are schema-only; include_tokens adds one node per column
    carrying its most frequent instance tokens.
    """
    edges_a = _schema_graph(a, include_tokens)
    edges_b = _schema_graph(b, include_tokens)
    nodes_a = sorted({n for e in edges_a for n in (e[0], e[2])})
    nodes_b = sorted({n for e in edges_b for n in (e[0], e[2])})

    def initial(na: tuple, nb: tuple) -> float:
        kind = na[0]
        if kind == "datatype":
            return 1.0 if na[1] == nb[1] else 0.0
        if kind == "tokens":
            sets_a, sets_b = na[1], nb[1]
            union = sets_a | sets_b
            return len(sets_a & sets_b) / len(union) if union else 0.0
        if kind == "table":
            return lev_ratio(na[1].lower(), nb[1].lower())
        sim = lev_ratio(na[1].lower(), nb[1].lower())
        return sim  # datatype bonus added below, needs column objects

    pairs: list[tuple[tuple, tuple]] = [
        (na, nb) for na in nodes_a for nb in nodes_b if na[0] == nb[0]
    ]
    index = {p: i for i, p in enumerate(pairs)}
    sigma0 = []
    dtype_a = {c.name: c.datatype for c in a.schema.columns}
    dtype_b = {c.name: c.datatype for c in b.schema.columns}
    for na, nb in pairs:
        s = initial(na, nb)
        if na[0] == "column" and dtype_a[na[1]] == dtype_b[nb[1]]:
            s = min(1.0, s + DATATYPE_BONUS)
        sigma0.append(s)

    # pair graph edges with propagation coefficients (both directions)
    out_mult_a: dict[tuple[tuple, str], int] = {}
    in_mult_a: dict[tuple[tuple, str], int] = {}
    for s, l, d in edges_a:
        out_mult_a[(s, l)] = out_mult_a.get((s, l), 0) + 1
        in_mult_a[(d, l)] = in_mult_a.get((d, l), 0) + 1
    out_mult_b: dict[tuple[tuple, str], int] = {}
    in_mult_b: dict[tuple[tuple, str], int] = {}
    for s, l, d in edges_b:
        out_mult_b[(s, l)] = out_mult_b.get((s, l), 0) + 1
        in_mult_b[(d, l)] = in_mult_b.get((d, l), 0) + 1

    prop: list[list[tuple[int, float]]] = [[] for _ in pairs]
    for sa, la, da in edges_a:
        for sb, lb, db in edges_b:
            if la != lb:
                continue
            if (sa, sb) not in index or (da, db) not in index:
                continue
            src, dst = index[(sa, sb)], index[(da, db)]
            w_fwd = 1.0 / (out_mult_a[(sa, la)] * out_mult_b[(sb, lb)])
            w_bwd = 1.0 / (in_mult_a[(da, la)] * in_mult_b[(db, lb)])
            prop[dst].append((src, w_fwd))
            prop[src].append((dst, w_bwd))

    sigma = list(sigma0)
    converged = False
    for _ in range(max_iters):
        nxt = []
        for i in range(len(pairs)):
            flow = sum(w * sigma[j] for j, w in prop[i])
            nxt.append(sigma0[i] + sigma[i] + flow)
        peak = max(nxt) if nxt else 1.0
        if peak > 0:
            nxt = [x / peak for x in nxt]
        residual = max((abs(x - y) for x, y in zip(nxt, sigma)), default=0.0)
        sigma = nxt
        if residual < epsilon:
            converged = True
            break

    preds = []
    for (na, nb), s in zip(pairs, sigma):
        if na[0] == "column":
            preds.append(
                MatchPrediction((a.name, na[1]), (b.name, nb[1]), max(0.0, min(1.0, s)))
            )
    return dedupe_predictions(preds), converged


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
    cap: int = VALUE_SAMPLE_CAP,
    seed: int = 0,
    *,
    samples: dict[ColumnRef, frozenset[str]] | None = None,
) -> list[MatchPrediction]:
    """COMA-style blend: header similarity (max of normalized Levenshtein and
    token-set Jaccard) weighted against instance containment. match_corpus
    passes the corpus-wide column samples; without them they are drawn here."""
    if w_name < 0 or w_instance < 0 or abs(w_name + w_instance - 1.0) > 1e-9:
        raise EvaluationError("hybrid weights must be non-negative and sum to 1")
    if samples is None:
        samples = column_samples((a, b), cap, seed)
    preds = []
    for ca in a.schema.columns:
        va = samples[(a.name, ca.name)]
        for cb in b.schema.columns:
            containment = instance_containment(va, samples[(b.name, cb.name)])
            score = w_name * name_similarity(ca.name, cb.name) + w_instance * containment
            preds.append(MatchPrediction((a.name, ca.name), (b.name, cb.name), score))
    return dedupe_predictions(preds)


# --------------------------------------------------------------------------
# corpus-level orchestration and the external adapter
# --------------------------------------------------------------------------


def match_corpus(corpus: Corpus, matcher: str, jobs: int = 1, **params) -> list[MatchPrediction]:
    """Run a built-in matcher over every cross-table column pair.

    The instance matchers share one value sample per column, drawn once; jl
    also shares one neighbour map over all sampled values. Table pairs then
    score on up to `jobs` threads; the combined prediction list is canonical
    regardless of scheduling."""
    if matcher not in ("jl", "sf", "hybrid"):
        raise EvaluationError(f"unknown matcher {matcher!r}")
    tables = sorted(corpus.tables, key=lambda t: t.name)
    seed = corpus.seed
    shared: dict = {}
    if matcher != "sf":
        shared["samples"] = column_samples(tables, params.get("cap", VALUE_SAMPLE_CAP), seed)
    if matcher == "jl":
        shared["neighbours"] = value_neighbours(
            frozenset().union(*shared["samples"].values()), params.get("delta", JL_DELTA)
        )

    def score_pair(pair: tuple[TableData, TableData]) -> list[MatchPrediction]:
        a, b = pair
        if matcher == "jl":
            return jl_match(a, b, seed=seed, **params, **shared)
        if matcher == "sf":
            return sf_match(a, b, **params)[0]
        return hybrid_match(a, b, seed=seed, **params, **shared)

    pairs = [
        (tables[i], tables[j])
        for i in range(len(tables))
        for j in range(i + 1, len(tables))
    ]
    if jobs > 1 and len(pairs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(score_pair, pairs))
    else:
        chunks = [score_pair(p) for p in pairs]
    preds: list[MatchPrediction] = []
    for chunk in chunks:
        preds.extend(chunk)
    return dedupe_predictions(preds)


def write_predictions_csv(preds: list[MatchPrediction]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["left_table", "left_column", "right_table", "right_column", "score"])
    for p in dedupe_predictions(preds):
        writer.writerow([p.left[0], p.left[1], p.right[0], p.right[1], f"{p.score:.6f}"])
    return buf.getvalue()


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
    with the corpus directory; predictions are read from stdout (CSV)."""
    import shlex

    cmd = [part.replace("{corpus}", str(corpus_dir)) for part in shlex.split(command_template)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise EvaluationError(
            f"external matcher exited {proc.returncode}: {proc.stderr.strip()[:500]}"
        )
    return parse_predictions_csv(proc.stdout, corpus=corpus)
