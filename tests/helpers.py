"""Shared test fixtures and independent oracles.

The oracles here deliberately use different algorithms from the package code
they check: naive double loops for metrics, recursive backtracking for optimal
fuzzy matching, exhaustive pairwise classification for ground truth.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from lakeforge.common import lev_ratio
from lakeforge.ground_truth import classify_join
from lakeforge.matchers import sample_values
from lakeforge.model import Corpus

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


def brute_force_ground_truth(corpus: Corpus) -> set[tuple]:
    """Exhaustive pairwise classification over all cross-table column pairs."""
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
                    c = classify_join(corpus, left, right)
                    if c.kind != "none":
                        out.add((left, right, c.kind))
    return out


def pairs_as_set(pairs) -> set[tuple]:
    return {(p.left, p.right, p.kind) for p in pairs}


def confusion_oracle(preds, truth: set, threshold: float) -> tuple[float, float, float]:
    """Naive confusion-matrix recount (independent of the evaluation module)."""
    best: dict[tuple, float] = {}
    for p in preds:
        key = p.key()
        if key not in best or p.score > best[key]:
            best[key] = p.score
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


def topk_oracle(preds, truth: set, k: int) -> float:
    best: dict[tuple, float] = {}
    for p in preds:
        key = p.key()
        if key not in best or p.score > best[key]:
            best[key] = p.score
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    hits = 0
    for key, _score in ranked[:k]:
        if key in truth:
            hits += 1
    return hits / k


def optimal_fuzzy_jaccard(values_a, values_b, delta: float) -> float:
    """Exhaustive optimal fuzzy Jaccard for small sets: maximize the number of
    matched pairs (similarity >= delta) by backtracking."""
    sa, sb = sorted(set(values_a)), sorted(set(values_b))
    if not sa or not sb:
        return 0.0
    admissible = [
        [j for j, vb in enumerate(sb) if lev_ratio(va, vb) >= delta] for va in sa
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
    sample_values, every value pair with lev_ratio >= delta admissible, and a
    maximum matching over them. Keys are canonical (left, right) pairs."""
    ratio: dict[tuple[str, str], float] = {}

    def similar(a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        if key not in ratio:
            ratio[key] = lev_ratio(a, b)
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


# ---------------------------------------------------------------------------
# scripted LLM transport (prompt-aware test double)
# ---------------------------------------------------------------------------

_COLS_RE = re.compile(r"the table named (.+?) has the following columns: \[(.*?)\]")
_DEP_RE = re.compile(r"Given the entries of column '(.*?)' are \[(.*?)\]")


def _parse_list(raw: str) -> list[str]:
    return [m.group(1) for m in re.finditer(r"'((?:[^'\\]|\\.)*)'", raw)]


def scripted_completion(prompt: str, rows_per_prompt: int = 5, bad_fk: bool = False) -> str:
    """Emit an example-list completion consistent with the prompt: dependency
    columns reuse the given values, other columns get synthetic fillers."""
    m = _COLS_RE.search(prompt)
    if not m:
        return "no idea"
    table, cols_raw = m.group(1), m.group(2)
    columns = _parse_list(cols_raw)
    deps = {name: _parse_list(vals) for name, vals in _DEP_RE.findall(prompt)}
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
