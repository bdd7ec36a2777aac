"""Shared test fixtures and independent oracles.

The oracles here deliberately use different algorithms from the package code
they check: naive double loops for metrics, the textbook dynamic program for
edit distance, recursive backtracking for optimal fuzzy matching, exhaustive
pairwise classification for ground truth (its own classifier, written from
the definition in `lakeforge.ground_truth` without importing that module).

It also holds the thin entry points over package internals that only tests
call, next to the oracles they are checked against: `fuzzy_jaccard` (jl's
score of two value lists), `apply_value_noise` (one value op on one column),
`filled` (an op's parameters as a plan step hands them to its handler),
`ALL_OPS` (every op name) and `random_plans` (a hypothesis strategy of
plans over `small_finance_corpus`). `LoopbackEndpoint` serves scripted
completions over real HTTP on 127.0.0.1, for the gateway's own client.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from itertools import chain

from hypothesis import strategies as st

from lakeforge.common import PerturbationError, seeded_rng, split_words
from lakeforge.matchers import DATATYPE_BONUS, _fuzzy_jaccard_indexed, sample_values, value_neighbours
from lakeforge.model import Corpus
from lakeforge.perturb import OPS, VALUE, parse_plan

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# ontology builders
# ---------------------------------------------------------------------------

_FINANCE_CONCEPTS = [
    (
        "Organization",
        [
            "key id: integer [Organization ID]",
            "prop Legal Name: text [Legal Name]",
            "prop Industry: categorical [Sector]",
            "prop Home City: text [City]",
        ],
    ),
    (
        "Currency Name",
        [
            "key Currency: text [Currency]",
            "prop Issuing Country: text [Country]",
            "prop Display Rank: integer [Display Rank]",
        ],
    ),
    (
        "Monetary Amount",
        [
            "key Amount: decimal [Amount]",
            "prop Valuation Date: date [Valuation Date]",
            "prop Amount Scale: integer [Amount Scale]",
        ],
    ),
    (
        "Postal Address",
        [
            "prop Address Line 1: text [Street Address]",
            "prop City: text [City]",
            "prop State: text [State]",
            "prop Zipcode: text [Zipcode]",
        ],
    ),
    (
        "Listed Security",
        [
            "prop Ticker Symbol: text [Ticker Symbol]",
            "prop Legal Name: text [Legal Name]",
            "prop Listing Date: date [Listing Date]",
        ],
    ),
    (
        "Financial Service Account",
        [
            "key Account Number: text [Account Number]",
            "prop Account Type: categorical [Account Type]",
            "prop Opened Date: date [Account Open Date]",
        ],
    ),
    (
        "Securities Transaction",
        [
            "prop Type: categorical [Transaction Type]",
            "prop Count: integer [Share Count]",
            "prop Settlement Date: date [Settlement Date]",
        ],
    ),
    (
        "Stock Exchange",
        [
            "prop Exchange Name: text [Exchange]",
            "prop Exchange City: text [City]",
            "prop Founded Date: date [Exchange Founding Date]",
        ],
    ),
    (
        "Customer",
        [
            "key id: integer [Customer ID]",
            "prop Full Name: text [Person Name]",
            "prop Email Address: text [Email]",
            "prop Home State: text [State]",
        ],
    ),
    (
        "Branch",
        [
            "key Branch Code: integer [Branch Code]",
            "prop Branch City: text [City]",
            "prop Phone: text [Phone Number]",
        ],
    ),
    (
        "Loan",
        [
            "prop Principal: decimal [Loan Principal]",
            "prop Origination Date: date [Loan Origination Date]",
            "prop Status: categorical [Loan Status]",
        ],
    ),
    (
        "Credit Card Account",
        [
            "key Card Number: text [Card Number]",
            "prop Credit Limit: decimal [Credit Limit]",
            "prop Issue Date: date [Card Issue Date]",
        ],
    ),
    (
        "Insurance Policy",
        [
            "key Policy Number: text [Policy Number]",
            "prop Premium: decimal [Premium Amount]",
            "prop Effective Date: date [Policy Effective Date]",
        ],
    ),
    (
        "Dividend Payment",
        [
            "prop Amount Per Share: decimal [Dividend Per Share]",
            "prop Payment Date: date [Dividend Payment Date]",
        ],
    ),
    (
        "Earnings Report",
        [
            "prop Fiscal Year: integer [Fiscal Year]",
            "prop Revenue: decimal [Revenue]",
            "prop Report Date: date [Earnings Report Date]",
        ],
    ),
    (
        "Market Index",
        [
            "prop Index Name: text [Index Name]",
            "prop Base Value: decimal [Index Base Value]",
            "prop Launch Date: date [Index Launch Date]",
        ],
    ),
    (
        "Index Membership",
        [
            "prop Weight: decimal [Index Weight]",
            "prop Added Date: date [Index Addition Date]",
        ],
    ),
    (
        "Regulatory Filing",
        [
            "prop Filing Type: categorical [Filing Type]",
            "prop Filing Date: date [Filing Date]",
            "prop Page Count: integer [Page Count]",
        ],
    ),
    (
        "Portfolio",
        [
            "key Portfolio Code: integer [Portfolio Code]",
            "prop Inception Date: date [Portfolio Inception Date]",
            "prop Strategy: categorical [Strategy]",
        ],
    ),
    (
        "Portfolio Holding",
        [
            "prop Quantity: integer [Holding Quantity]",
            "prop Acquired Date: date [Acquisition Date]",
        ],
    ),
]

_FINANCE_RELATIONS = [
    ("locatedAt", "Organization", "Postal Address"),
    ("lists", "Organization", "Listed Security"),
    ("quotedCurrency", "Currency Name", "Listed Security"),
    ("lastTradedAmount", "Monetary Amount", "Listed Security"),
    ("heldAt", "Organization", "Financial Service Account"),
    ("facilitatedByAccount", "Financial Service Account", "Securities Transaction"),
    ("priceAmount", "Monetary Amount", "Securities Transaction"),
    ("refersToListedSecurity", "Listed Security", "Securities Transaction"),
    ("listingVenue", "Stock Exchange", "Listed Security"),
    ("operatedBy", "Organization", "Branch"),
    ("loanCustomer", "Customer", "Loan"),
    ("loanBranch", "Branch", "Loan"),
    ("cardHolder", "Customer", "Credit Card Account"),
    ("insuredParty", "Customer", "Insurance Policy"),
    ("declaredFor", "Listed Security", "Dividend Payment"),
    ("paymentCurrency", "Currency Name", "Dividend Payment"),
    ("reportedBy", "Organization", "Earnings Report"),
    ("memberIndex", "Market Index", "Index Membership"),
    ("memberSecurity", "Listed Security", "Index Membership"),
    ("filedBy", "Organization", "Regulatory Filing"),
    ("managedFor", "Customer", "Portfolio"),
    ("holdingPortfolio", "Portfolio", "Portfolio Holding"),
    ("holdingSecurity", "Listed Security", "Portfolio Holding"),
]


def finance_ontology_text(n_concepts: int = 20) -> str:
    """Native-format synthetic finance ontology with the first n concepts and
    every relation whose endpoints are both included."""
    chosen = _FINANCE_CONCEPTS[:n_concepts]
    names = {c[0] for c in chosen}
    out = []
    for name, props in chosen:
        out.append(f"concept {name}")
        out.extend(f"  {p}" for p in props)
        out.append("")
    for rel, domain, rng in _FINANCE_RELATIONS:
        if domain in names and rng in names:
            out.append(f"relation {rel}: {domain} -> {rng}")
    return "\n".join(out) + "\n"


def fig1_text() -> str:
    return (FIXTURES / "fig1.onto").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def waves_oracle(nodes, edges) -> list[list[str]] | None:
    """Generation waves by fixed-point iteration, edge (a, b) meaning that a
    depends on b: a table's wave is 1 plus the largest wave among its
    dependencies (0 with none), each wave sorted by name. None when the waves
    never settle, which only a cycle makes them do."""
    wave = dict.fromkeys(nodes, 0)
    for _ in range(len(wave) + 1):
        nxt = {n: max((wave[b] + 1 for a, b in edges if a == n), default=0) for n in wave}
        if nxt == wave:
            return [sorted(n for n in wave if wave[n] == k) for k in range(max(wave.values(), default=-1) + 1)]
        wave = nxt
    return None


def _oracle_classify(values, pks, value_maps, left, right):
    """(kind, key_side, mapping_id) of one pair, straight from the definition:
    PK containment, then intersection, then the first value map in event-id
    order whose image of either side meets the other side."""
    lv, rv = values[left], values[right]
    if pks.get(left[0]) == left[1] and rv and rv <= lv:
        return "pkfk", "left", None
    if pks.get(right[0]) == right[1] and lv and lv <= rv:
        return "pkfk", "right", None
    if lv & rv:
        return "exact", None, None
    for event_id, vm in value_maps:
        left_image = {vm[v] for v in lv if v in vm}
        right_image = {vm[v] for v in rv if v in vm}
        if left_image & rv or right_image & lv:
            return "semantic", None, event_id
    return "none", None, None


def brute_force_ground_truth(corpus: Corpus) -> set[tuple]:
    """Exhaustive pairwise classification over all cross-table column pairs,
    as (left, right, kind, key_side, mapping_id). Value sets are read from
    the rows, and the classifier shares no code with the package's."""
    values = {}
    for t in corpus.tables:
        for i, c in enumerate(t.schema.columns):
            values[(t.name, c.name)] = {row[i] for row in t.rows if row[i] != ""}
    pks = {t.name: t.schema.primary_key for t in corpus.tables}
    value_maps = sorted(
        ((ev.event_id, ev.value_map) for ev in corpus.lineage if ev.value_map),
        key=lambda e: e[0],
    )
    out = set()
    tables = corpus.tables
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            a, b = tables[i], tables[j]
            for ca in a.schema.column_names():
                for cb in b.schema.column_names():
                    left, right = (a.name, ca), (b.name, cb)
                    if right < left:
                        left, right = right, left
                    kind, key_side, mapping_id = _oracle_classify(
                        values, pks, value_maps, left, right
                    )
                    if kind != "none":
                        out.add((left, right, kind, key_side, mapping_id))
    return out


def pairs_as_set(pairs) -> set[tuple]:
    return {(p.left, p.right, p.kind, p.key_side, p.mapping_id) for p in pairs}


def best_scores(rows) -> dict[tuple, float]:
    """The highest score given to each pair among (left, right, score) rows,
    keyed by the pair with its lesser column ref first."""
    best: dict[tuple, float] = {}
    for left, right, score in rows:
        key = tuple(sorted([tuple(left), tuple(right)]))
        if key not in best or score > best[key]:
            best[key] = score
    return best


def confusion_oracle(rows, truth: set, threshold: float) -> tuple[float, float, float]:
    """Naive confusion-matrix recount over (left, right, score) rows
    (independent of the evaluation module)."""
    best = best_scores(rows)
    tp = fp = 0
    for key, score in best.items():
        if score > threshold:
            if key in truth:
                tp += 1
            else:
                fp += 1
    fn = sum(1 for t in truth if best.get(t, 0.0) <= threshold)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


def topk_oracle(rows, truth: set, k: int) -> float:
    """Truth hits among the k best pairs of a full sort (ties in pair order),
    over k: a slot beyond the pairs there are is a miss."""
    ranked = sorted(best_scores(rows).items(), key=lambda kv: (-kv[1], kv[0]))
    hits = 0
    for key, _score in ranked[:k]:
        if key in truth:
            hits += 1
    return hits / k


_TASK_KINDS = {
    "exact_joins": {"exact", "pkfk"},
    "semantic_joins": {"exact", "pkfk", "semantic"},
}


def report_oracle(rows, ground_truth, task: str, threshold: float, ks) -> dict:
    """The scoring fields of evaluate's report of one task, by brute force
    over (left, right, score) rows: the highest score per pair, P/R/F1 by
    recount, top-k by full sort and the difficulty cells of the semantic
    pairs, a pair not predicted scoring 0.0."""
    best = best_scores(rows)
    truth = {tuple(sorted([tuple(p.left), tuple(p.right)])) for p in ground_truth if p.kind in _TASK_KINDS[task]}
    precision, recall, f1 = confusion_oracle(rows, truth, threshold)
    difficulty = {"easy": {"total": 0, "correct": 0}, "difficult": {"total": 0, "correct": 0}}
    for p in ground_truth:
        if p.kind == "semantic":
            cell = difficulty[p.difficulty]
            cell["total"] += 1
            cell["correct"] += best.get(tuple(sorted([tuple(p.left), tuple(p.right)])), 0.0) > threshold
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "top_k": {str(k): topk_oracle(rows, truth, k) for k in ks},
        "difficulty": difficulty,
        "degenerate": not truth,
        "truth_size": len(truth),
        "prediction_count": len(best),
    }


def pair_keys(a, b) -> list[tuple]:
    """The pairs a pair matcher scores, in its order: the tables in name
    order, the first's sorted columns by the second's, each pair with its
    lesser column ref first."""
    if b.name < a.name:
        a, b = b, a
    return [
        tuple(sorted([(a.name, x), (b.name, y)]))
        for x in sorted(a.schema.column_names())
        for y in sorted(b.schema.column_names())
    ]


def reference_levenshtein(a: str, b: str) -> int:
    """Edit distance by the Wagner-Fischer table, one row per character of a."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def reference_lev_ratio(a: str, b: str) -> float:
    """1 - distance / longer length; 1.0 for two empty strings."""
    longer = max(len(a), len(b))
    return 1.0 - reference_levenshtein(a, b) / longer if longer else 1.0


def reference_name_similarity(a: str, b: str) -> float:
    """hybrid's header similarity by its definition: the larger of
    reference_lev_ratio over the lowered names and the Jaccard similarity of
    their case-folded word sets (words as `lakeforge.common.split_words`
    defines them)."""
    wa = {w.casefold() for w in split_words(a)}
    wb = {w.casefold() for w in split_words(b)}
    if wa or wb:
        jaccard = len(wa & wb) / len(wa | wb)
    else:
        jaccard = 1.0
    return max(reference_lev_ratio(a.lower(), b.lower()), jaccard)


def optimal_fuzzy_jaccard(values_a, values_b, delta: float) -> float:
    """Exhaustive optimal fuzzy Jaccard for small sets: maximize the number of
    matched pairs (similarity >= delta) by backtracking."""
    sa, sb = sorted(set(values_a)), sorted(set(values_b))
    if not sa or not sb:
        return 0.0
    admissible = [
        [j for j, vb in enumerate(sb) if reference_lev_ratio(va, vb) >= delta] for va in sa
    ]

    best = 0

    def recurse(i: int, used: set, count: int):
        nonlocal best
        if count + (len(sa) - i) <= best:
            return
        if i == len(sa):
            best = max(best, count)
            return
        recurse(i + 1, used, count)  # leave value i unmatched
        for j in admissible[i]:
            if j not in used:
                used.add(j)
                recurse(i + 1, used, count + 1)
                used.remove(j)

    recurse(0, set(), 0)
    union = len(sa) + len(sb) - best
    return best / union if union else 0.0


def fuzzy_jaccard(values_a: list[str], values_b: list[str], delta: float) -> float:
    """Jaccard over two value sets with Levenshtein-thresholded equality, by
    the package's path: one value_neighbours relation over both lists, then
    _fuzzy_jaccard_indexed on the interned sets. With delta = 1.0 this reduces
    to classical Jaccard over the distinct sets."""
    neighbours = value_neighbours(chain(values_a, values_b), delta)
    return _fuzzy_jaccard_indexed(neighbours.intern(values_a), neighbours.intern(values_b), neighbours)


def _kuhn_matching(admissible: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size by one augmenting-path search per left
    vertex (Kuhn's algorithm)."""
    owner = [-1] * n_right

    def augment(i: int, seen: set) -> bool:
        for j in admissible[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] == -1 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(1 for i in range(len(admissible)) if augment(i, set()))


def reference_jl_scores(corpus: Corpus, delta: float = 0.8) -> dict[tuple, float]:
    """jl by its definition, one column pair at a time: each column's
    sample_values, every value pair with reference_lev_ratio >= delta
    admissible, and a maximum matching over them. Keys are canonical (left,
    right) pairs."""
    ratio: dict[tuple[str, str], float] = {}

    def similar(a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        if key not in ratio:
            ratio[key] = reference_lev_ratio(a, b)
        return ratio[key] >= delta

    samples = {
        (t.name, c): sorted(set(sample_values(t, c, seed=corpus.seed)))
        for t in corpus.tables
        for c in t.schema.column_names()
    }
    scores = {}
    tables = sorted(corpus.tables, key=lambda t: t.name)
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            for ca in a.schema.column_names():
                for cb in b.schema.column_names():
                    va, vb = samples[(a.name, ca)], samples[(b.name, cb)]
                    admissible = [[j for j, y in enumerate(vb) if similar(x, y)] for x in va]
                    matched = _kuhn_matching(admissible, len(vb))
                    union = len(va) + len(vb) - matched
                    score = matched / union if va and vb and union else 0.0
                    scores[tuple(sorted([(a.name, ca), (b.name, cb)]))] = score
    return scores


def reference_sf(a, b, epsilon: float = 1e-3, max_iters: int = 200):
    """Similarity flooding by generic propagation over the pairwise
    connectivity graph: typed schema edges (table -column-> column -type->
    datatype), every same-kind node pair, and one coefficient per pair-graph
    edge and direction, the inverse product of the same-label edge
    multiplicities on both sides. A table without columns has no nodes, so
    its pair graph is empty. Returns ([(key, score)] for the column pairs,
    a's sorted columns by b's, each key canonical, and converged)."""
    if b.name < a.name:
        a, b = b, a

    def ratio(x: str, y: str) -> float:
        return reference_lev_ratio(x.lower(), y.lower())

    def graph(t):
        edges = []
        for c in t.schema.columns:
            edges.append((("table", t.name), "column", ("column", c.name)))
            edges.append((("column", c.name), "type", ("datatype", c.datatype)))
        nodes: dict[str, list[tuple]] = {}
        for n in sorted({n for e in edges for n in (e[0], e[2])}):
            nodes.setdefault(n[0], []).append(n)
        return edges, nodes, {c.name: c.datatype for c in t.schema.columns}

    (edges_a, nodes_a, types_a), (edges_b, nodes_b, types_b) = graph(a), graph(b)
    pairs = [(x, y) for kind in nodes_a for x in nodes_a[kind] for y in nodes_b.get(kind, ())]
    index = {pair: i for i, pair in enumerate(pairs)}
    sigma0 = []
    for x, y in pairs:
        if x[0] == "datatype":
            s = 1.0 if x[1] == y[1] else 0.0
        else:
            s = ratio(x[1], y[1])
        if x[0] == "column" and types_a[x[1]] == types_b[y[1]]:
            s = min(1.0, s + DATATYPE_BONUS)
        sigma0.append(s)

    def multiplicities(edges):
        out, into = {}, {}
        for s, label, d in edges:
            out[(s, label)] = out.get((s, label), 0) + 1
            into[(d, label)] = into.get((d, label), 0) + 1
        return out, into

    (out_a, in_a), (out_b, in_b) = multiplicities(edges_a), multiplicities(edges_b)
    feeds: list[list[tuple[int, float]]] = [[] for _ in pairs]
    for label in ("column", "type"):
        for sa, la, da in edges_a:
            if la != label:
                continue
            for sb, lb, db in edges_b:
                if lb != label:
                    continue
                src, dst = index[(sa, sb)], index[(da, db)]
                feeds[dst].append((src, 1.0 / (out_a[(sa, label)] * out_b[(sb, label)])))
                feeds[src].append((dst, 1.0 / (in_a[(da, label)] * in_b[(db, label)])))

    sigma = list(sigma0)
    converged = False
    for _ in range(max_iters):
        nxt = []
        for s0, s, incoming in zip(sigma0, sigma, feeds):
            flow = 0
            for j, w in incoming:
                flow += w * sigma[j]
            nxt.append(s0 + s + flow)
        peak = max(nxt, default=1.0)
        if peak > 0:
            nxt = [x / peak for x in nxt]
        residual = max((abs(x - s) for x, s in zip(nxt, sigma)), default=0.0)
        sigma = nxt
        if residual < epsilon:
            converged = True
            break
    scores = []
    for (x, y), s in zip(pairs, sigma):
        if x[0] == "column":
            left, right = (a.name, x[1]), (b.name, y[1])
            key = (left, right) if left <= right else (right, left)
            scores.append((key, max(0.0, min(1.0, s))))
    return scores, converged


def recount_from_csvs(corpus_dir) -> dict:
    """Independent stats recount from raw CSVs plus the manifest's pair list."""
    corpus_dir = Path(corpus_dir)
    manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    rows = []
    cols = []
    for entry in manifest["tables"]:
        with open(corpus_dir / entry["file"], newline="", encoding="utf-8") as f:
            data = list(csv.reader(f))
        cols.append(len(data[0]))
        rows.append(len(data) - 1)
    n = len(manifest["tables"])
    exact = sum(1 for p in manifest["ground_truth"] if p["kind"] in ("exact", "pkfk"))
    semantic = sum(1 for p in manifest["ground_truth"] if p["kind"] == "semantic")
    return {
        "tables": n,
        "avg_rows": round(sum(rows) / n, 4) if n else 0.0,
        "avg_cols": round(sum(cols) / n, 4) if n else 0.0,
        "exact_joins": exact,
        "semantic_joins": semantic,
    }


def reference_corpus_digest(directory) -> str:
    """A saved corpus's digest by the README's rule: SHA-256 over
    manifest.json's bytes without its second line (the digest member), then
    each CSV in the manifest's table order as file name, NUL, CSV bytes, NUL."""
    directory = Path(directory)
    lines = (directory / "manifest.json").read_bytes().split(b"\n")
    h = hashlib.sha256(b"\n".join(lines[:1] + lines[2:]))
    for entry in json.loads(b"\n".join(lines))["tables"]:
        h.update(entry["file"].encode("utf-8") + b"\0" + (directory / entry["file"]).read_bytes() + b"\0")
    return h.hexdigest()


def write_saved_manifest(path, manifest) -> None:
    """Write the manifest's values at `path` in save_corpus's layout, with
    the digest recomputed by reference_corpus_digest."""

    def write():
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    write()
    # the digest does not cover its own line, so the stale one can stand in
    manifest["digest"] = reference_corpus_digest(path.parent)
    write()


# ---------------------------------------------------------------------------
# scripted LLM transport (prompt-aware test double)
# ---------------------------------------------------------------------------

_COLS_RE = re.compile(r"the table named (.+?) has the following columns: \[(.*?)\]")
_DEP_RE = re.compile(r"Given the entries of column '(.*?)' are \[(.*?)\]")


def _parse_list(raw: str) -> list[str]:
    return [m.group(1) for m in re.finditer(r"'((?:[^'\\]|\\.)*)'", raw)]


def dep_values_in_prompt(prompt: str) -> dict[str, list[str]]:
    """The referenced values a generation prompt embeds, by local column."""
    return {name: _parse_list(vals) for name, vals in _DEP_RE.findall(prompt)}


def format_rows_as_completion(rows: list[tuple[str, ...]]) -> str:
    """Inverse of parse_completion for well-formed rows."""
    return "\n".join(f"Example {i}: " + "; ".join(row) for i, row in enumerate(rows, start=1))


def scripted_completion(prompt: str, rows_per_prompt: int = 5, bad_fk: bool = False) -> str:
    """Emit an example-list completion consistent with the prompt: dependency
    columns reuse the given values, other columns get synthetic fillers."""
    m = _COLS_RE.search(prompt)
    if not m:
        return "no idea"
    table, cols_raw = m.group(1), m.group(2)
    columns = _parse_list(cols_raw)
    deps = dep_values_in_prompt(prompt)
    lines = []
    salt = abs(hash_stable(prompt)) % 1000
    for i in range(1, rows_per_prompt + 1):
        values = []
        for c in columns:
            if c in deps and deps[c]:
                pool = deps[c]
                if bad_fk and i == 1:
                    values.append("out-of-set-value")
                else:
                    values.append(pool[(i + salt) % len(pool)])
            else:
                values.append(f"{c} v{salt}_{i}")
        lines.append(f"Example {i}: " + "; ".join(values))
    return "\n".join(lines)


def shared_pool_completion(prompt: str, rows_per_prompt: int = 5) -> str:
    """Like scripted_completion, but every non-dependency column of every
    table draws from one pool of nine values ("v0".."v8"), so columns of
    different semantic types share values."""
    m = _COLS_RE.search(prompt)
    if not m:
        return "no idea"
    columns = _parse_list(m.group(2))
    deps = dep_values_in_prompt(prompt)
    salt = abs(hash_stable(prompt)) % 1000
    lines = []
    for i in range(1, rows_per_prompt + 1):
        values = [
            deps[c][(i + salt) % len(deps[c])] if deps.get(c) else f"v{(salt + i + j) % 9}"
            for j, c in enumerate(columns)
        ]
        lines.append(f"Example {i}: " + "; ".join(values))
    return "\n".join(lines)


def hash_stable(s: str) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha256(s.encode()).digest()[:8], "big")


def uppercase_variant_transport(req) -> str:
    """Gateway double for semantic perturbation: upper-cases every listed value
    (a no-op response for already-uppercase values), echoing the numbering."""
    out = []
    for line in req.prompt.splitlines():
        m = re.match(r"^(\d+)\.\s*(.*)$", line)
        if m:
            out.append(f"{m.group(1)}. {m.group(2).upper()}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# loopback completions endpoint (the real HTTP client against a local server)
# ---------------------------------------------------------------------------

HANG_UP = "hang up"  # close the connection without a response
STALL = "stall"  # send nothing until the endpoint closes: the client times out


class _EndpointHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        endpoint = self.server.endpoint
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = json.loads(raw) if raw else None
        endpoint.received.append((dict(self.headers), payload))
        reply = endpoint.reply
        outcome = reply(payload) if callable(reply) else reply[min(len(endpoint.received), len(reply)) - 1]
        if outcome == STALL:
            endpoint.closing.wait(5)
        if outcome in (STALL, HANG_UP):
            return
        status, body, *headers = outcome
        data = (body if isinstance(body, str) else json.dumps(body, ensure_ascii=False)).encode("utf-8")
        self.send_response(status)
        for name, value in dict(*headers).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a client that followed a redirect is recorded too

    def log_message(self, *args):
        pass


class _EndpointServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a client that timed out has hung up: writing to it breaks the pipe


class LoopbackEndpoint:
    """A completions endpoint on 127.0.0.1 for the span of a `with` block.

    Each POST or GET is recorded in `received` as (headers, JSON payload or
    None), then answered by `reply`: a function of the payload, or a list
    played in order whose last entry repeats. An answer is (status, body)
    or (status, body, extra headers), a str body sent as it is and any other
    as UTF-8 JSON, or HANG_UP, or STALL."""

    def __init__(self, reply):
        self.reply = reply
        self.received: list[tuple[dict, dict]] = []
        self.closing = threading.Event()

    def __enter__(self) -> "LoopbackEndpoint":
        self._server = _EndpointServer(("127.0.0.1", 0), _EndpointHandler)
        self._server.endpoint = self
        # polled every 10 ms: shutdown() waits up to one poll interval (0.5 s by default)
        threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True).start()
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1/completions"
        return self

    def __exit__(self, *exc_info) -> None:
        self.closing.set()
        self._server.shutdown()
        self._server.server_close()


def refused_url() -> str:
    """A loopback URL whose port was just bound and released: nothing listens."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/completions"


ALL_OPS = tuple(OPS)


# steps that apply to small_finance_corpus and its derivatives in any round
GROWTH_STEPS = (
    'step "Monetary Amount" vertical_split overlap_ratio=0.4',
    'step "Currency Name*" horizontal_split row_overlap_ratio=0.3 scope=all',
    'step "Postal Address" remove_columns keep=postal_address_id,City,Zip*',
    'step "Organization*" sample_rows fraction=0.6 scope=all',
    'step "Listed Security" cryptify_headers+text_noise typo_rate=0.5',
)
SEMANTIC_STEPS = (
    'step "Currency Name*" semantic_value_perturb scope=all',
    'step "Organization*" semantic_value_perturb scope=all',
)


@st.composite
def random_plans(draw, growth_steps=GROWTH_STEPS):
    """A plan of 1-3 of growth_steps followed by a semantic_value_perturb
    step, whose target, when set, repeats them over several rounds."""
    lines = []
    target = draw(st.one_of(st.none(), st.integers(10, 22)))
    if target is not None:
        lines.append(f"target {target}")
    lines.append(f"originals {draw(st.sampled_from(['keep', 'drop']))}")
    lines += draw(st.lists(st.sampled_from(growth_steps), min_size=1, max_size=3, unique=True))
    lines.append(draw(st.sampled_from(SEMANTIC_STEPS)))
    return parse_plan("\n".join(lines) + "\n")


def filled(op: str, **given) -> dict:
    """The parameter dict that a plan step hands OPS[op]'s handler: the given
    values, each of a name the op declares, and every other at its default."""
    spec = OPS[op]
    assert given.keys() <= spec.params.keys(), f"{op} declares no {sorted(given.keys() - spec.params.keys())}"
    return spec.fill(given)


def apply_value_noise(
    values: list[str], op: str, params: dict, seed: int
) -> tuple[list[str], dict[str, str] | None, list[tuple[int, str, str]] | None]:
    """Apply one column-value noise op through its `perturb.OPS` handler,
    with params filled as a plan step fills them and the RNG seeded from
    (seed, op).

    Returns (new values, value_map, cell_changes): value-consistent ops
    (jitter, text, format) fill value_map, cell-level ops (nulls, duplicates)
    fill cell_changes. semantic_value_perturb, which reads the corpus, is not
    a noise op.
    """
    spec = OPS.get(op)
    if spec is None or spec.kind != VALUE or spec.snapshot:
        raise PerturbationError(f"unknown value op {op!r}")
    return spec.handler(values, filled(op, **params), seeded_rng("noise", seed, op), None)
