import hashlib
import random
import string
import sys
from datetime import date
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _kuhn_matching,
    best_scores,
    finance_ontology_text,
    fuzzy_jaccard,
    optimal_fuzzy_jaccard,
    pair_keys,
    reference_jl_scores,
    reference_lev_ratio,
    reference_levenshtein,
    reference_name_similarity,
    reference_sf,
)

from lakeforge import common
from lakeforge.common import PACK_BITS, EvaluationError, levenshtein_rows
from lakeforge.matchers import (
    DELETION_MAX_EDITS,
    Predictions,
    _deletion_variants,
    _max_bipartite_matching,
    external_match,
    hybrid_match,
    instance_containment,
    jl_match,
    match_corpus,
    parse_predictions_csv,
    profile,
    reachable_columns,
    sample_values,
    sf_match,
    value_neighbours,
    write_predictions_csv,
)
from lakeforge.model import Column, Corpus, TableData, TableSchema
from lakeforge.ontology import build_dependency_graph, ontology_to_schemas, parse_ontology
from lakeforge.perturb import apply_plan, parse_plan
from lakeforge.generate import generate_base_tables, plan_generation


def table(name, col_names, rows, tag_prefix="T"):
    cols = [Column(c, f"{tag_prefix} {c}", "text") for c in col_names]
    return TableData(schema=TableSchema(name, cols, primary_key=None), rows=rows)


def column_table(name, col, values):
    return table(name, [col], [(v,) for v in values])


# ---------------------------------------------------------------------------
# Jaccard-Levenshtein
# ---------------------------------------------------------------------------


def test_identical_sets_score_one():
    assert fuzzy_jaccard(["a", "b", "c"], ["a", "b", "c"], 1.0) == 1.0


def test_disjoint_sets_score_zero():
    assert fuzzy_jaccard(["aaa", "bbb"], ["xxxxx", "yyyyy"], 0.8) == 0.0


def test_near_duplicates_fuzzy_match():
    a = ["Apple Inc.", "Microsoft Inc."]
    b = ["Apple Inc", "Microsoft Inc."]
    assert fuzzy_jaccard(a, b, 0.9) == 1.0


def _random_value(rng):
    base = rng.choice(["Apple", "Maple", "Paris", "Zurich", "Account", "Ledger", "Bond"])
    if rng.random() < 0.5:
        return base
    # mutate with up to two random edits
    s = list(base)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(["ins", "del", "sub"])
        i = rng.randrange(len(s))
        if op == "ins":
            s.insert(i, rng.choice(string.ascii_lowercase))
        elif op == "del" and len(s) > 1:
            del s[i]
        else:
            s[i] = rng.choice(string.ascii_lowercase)
    return "".join(s)


def test_classical_jaccard_equality_100_random_sets():
    rng = random.Random(424242)
    for _ in range(100):
        a = {_random_value(rng) for _ in range(rng.randint(1, 12))}
        b = {_random_value(rng) for _ in range(rng.randint(1, 12))}
        got = fuzzy_jaccard(sorted(a), sorted(b), 1.0)
        want = len(a & b) / len(a | b)
        assert got == pytest.approx(want, abs=1e-12)


def test_fuzzy_equals_optimal_oracle_on_small_sets():
    rng = random.Random(7)
    for _ in range(100):
        a = sorted({_random_value(rng) for _ in range(rng.randint(1, 10))})
        b = sorted({_random_value(rng) for _ in range(rng.randint(1, 10))})
        got = fuzzy_jaccard(a, b, 0.8)
        want = optimal_fuzzy_jaccard(a, b, 0.8)
        assert got == pytest.approx(want, abs=1e-12), (a, b)


def test_fuzzy_crossing_structure_beats_greedy():
    # greedy-by-similarity would pair a1-b1 and leave a2 unmatched; the optimal
    # matching pairs a1-b2 and a2-b1
    a = ["abcdefgh", "abcdefxx"]
    b = ["abcdefgx", "abcdefgh"]
    got = fuzzy_jaccard(a, b, 0.75)
    assert got == optimal_fuzzy_jaccard(a, b, 0.75) == 1.0


def test_jl_match_on_tables():
    a = column_table("A", "Name", ["Apple Inc.", "Microsoft Inc."])
    b = column_table("B", "Name", ["Apple Inc", "Microsoft Inc."])
    scores = jl_match(a, b, **profile([a, b], "jl"))
    assert scores[0] == 1.0


def test_jl_empty_column_scores_zero():
    a = column_table("A", "Name", [""])
    b = column_table("B", "Name", ["x"])
    assert jl_match(a, b, **profile([a, b], "jl"))[0] == 0.0


def test_jl_symmetry():
    a = column_table("A", "Name", ["alpha", "beta", "gamma"])
    b = column_table("B", "Title", ["alpha", "delta"])
    shared = profile([a, b], "jl")
    assert jl_match(a, b, **shared) == jl_match(b, a, **shared)


def test_matching_long_augmenting_path_is_iterative():
    # the greedy first phase matches i -> i + 1 and leaves the last vertex
    # free; the one augmenting path then runs through all 3000 vertices
    n = 3000
    adj = {i: [j for j in (i + 1, i) if j < n] for i in range(n)}
    assert _max_bipartite_matching(adj, n, n) == n


_bipartite = st.integers(1, 6).flatmap(
    lambda n_right: st.tuples(
        st.lists(st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right), max_size=7),
        st.just(n_right),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=_bipartite)
# the greedy start strands left vertex 2; its augmenting path runs through
# both matched left vertices
@example(graph=([[0, 1], [1, 2], [0]], 3))
# the greedy start strands two left vertices, one augmenting path each
@example(graph=([[0, 1], [2, 3], [0], [2]], 4))
def test_matching_equals_kuhn(graph):
    adj, n_right = graph
    want = _kuhn_matching(adj, n_right)
    assert _max_bipartite_matching(adj, len(adj), n_right) == want
    # right vertices may be any hashable values, as the jl matcher passes value ids
    relabelled = [[f"r{v}" for v in row] for row in adj]
    assert _max_bipartite_matching(relabelled, len(adj), n_right) == want


_digit_runs = st.builds(
    lambda prefix, tail: prefix + tail,
    st.sampled_from(["1000", "2500", "90000"]),
    st.text(alphabet="0179", max_size=5),
)
_dates = st.builds(
    lambda d, us: d.strftime("%m/%d/%Y" if us else "%Y-%m-%d"),
    st.dates(min_value=date(1990, 1, 1), max_value=date(1991, 3, 31)),
    st.booleans(),
)
_labels = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(["Filing Type_", "FILING TYPE_", "Loan Status_"]),
    st.text(alphabet="0123x", max_size=4),
)
_words = st.text(alphabet="abAB c.", max_size=24)


def _edit(value, edits):
    for op, at, ch in edits:
        i = at % (len(value) + 1)
        if op == "trim":  # drop the first or last `at % 4` characters
            n = at % 4
            value = value[n:] if i % 2 else value[: len(value) - n]
        elif op == "ins":
            value = value[:i] + ch + value[i:]
        elif op == "del":
            value = value[:i] + value[i + 1:]
        else:
            value = value[:i] + ch + value[i + 1:]
    return value


def _with_edited_copies(base):
    """The drawn values plus copies of them a few edits away, so that many
    pairs sit at or just past the edit budget."""
    edits = st.lists(
        st.tuples(st.sampled_from(["trim", "ins", "del", "sub"]), st.integers(0, 40), st.sampled_from("0a_ ")),
        min_size=1,
        max_size=3,
    )
    copies = st.lists(st.builds(_edit, st.sampled_from(base), edits), max_size=20)
    return copies.map(lambda extra: base + extra)


_headers = st.one_of(
    st.text(st.sampled_from("aAbBcC _"), max_size=24),
    st.sampled_from(["Person ID", "PID", "person_id", "PersonId", "Account Number", "ACCOUNT NUMBER",
                     "Valuation Date", "Date Valuation", "Straße", "STRASSE", "\U0001d518ser Name"]),
)


_row_text = st.text(st.sampled_from("ab \u00e9\u0130\U0001d518\U0001f600"), max_size=12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(texts=st.lists(_row_text, max_size=5), patterns=st.lists(_row_text, max_size=12), bound=st.integers(1, 40))
# the bound itself: repeated and empty strings in one pack, a pattern longer
# than a pack, and a pattern set whose total crosses it
@example(texts=["", "ab", "ab"], patterns=["", "ab", "ab", "", "\U0001f600"], bound=PACK_BITS)
@example(texts=["ab\U0001f600", "", "b"], patterns=["ab", "a" * (PACK_BITS + 1), "b"], bound=PACK_BITS)
@example(texts=["ba", "\u00e9"], patterns=["ab" * 100] * 11 + ["\u00e9"], bound=PACK_BITS)
# each string against each, so both argument orders: empty strings, astral
# code points and runs past one 64-bit word
@example(texts=["", "\U0001f600" * 70], patterns=["", "\U0001f600" * 70], bound=PACK_BITS)
@example(texts=["a" * 64, "a" * 63 + "b"], patterns=["a" * 64, "a" * 63 + "b"], bound=PACK_BITS)
@example(texts=["ab" * 40, "ba" * 40], patterns=["ab" * 40, "ba" * 40], bound=PACK_BITS)
# shared prefixes and suffixes: the shorter string all affix, affixes that
# overlap in the longer one, and affixes past one word
@example(texts=["aa", "aaa", "abbb", "ababb"], patterns=["aa", "aaa", "abbb", "ababb"], bound=PACK_BITS)
@example(
    texts=["\u00e9" * 70 + "ab" + "c" * 70, "\u00e9" * 70 + "ba" + "c" * 70],
    patterns=["\u00e9" * 70 + "ab" + "c" * 70, "\u00e9" * 70 + "ba" + "c" * 70],
    bound=PACK_BITS,
)
def test_levenshtein_rows_equal_reference_dp(texts, patterns, bound):
    # a smaller pack bound makes short pattern lists span several packs
    with mock.patch.object(common, "PACK_BITS", bound):
        rows = levenshtein_rows(texts, patterns)
    assert rows == [[reference_levenshtein(t, p) for p in patterns] for t in texts]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_headers, b=_headers)
def test_name_similarity_equals_reference(a, b):
    tables = [table("A", [a], []), table("B", [b], [])]
    sims = profile(tables, "hybrid")["header_sims"]
    assert sims[(a, b) if a <= b else (b, a)] == reference_name_similarity(a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(st.one_of(_digit_runs, _dates, _labels, _words), min_size=1, max_size=20).flatmap(
        _with_edited_copies
    ),
    delta=st.sampled_from([0.75, 0.8, 0.9]),
)
# three leading deletions shift every intact partition segment by the full budget
@example(values=["Filing Type_123", "ing Type_123"], delta=0.8)
def test_value_neighbours_equal_brute_force(values, delta):
    want = {}
    for a in values:
        for b in values:
            if a != b and reference_lev_ratio(a, b) >= delta:
                want.setdefault(a, set()).add(b)
    neighbours = value_neighbours(values, delta)
    assert neighbours.values == sorted(set(values))
    got = {}
    for i, v in enumerate(neighbours.values):
        ids = list(neighbours[i])
        assert len(set(ids)) == len(ids)
        if ids:
            got[v] = {neighbours.values[j] for j in ids}
    assert got == want


def test_match_corpus_jl_equals_per_pair_reference(small_finance_corpus):
    preds = match_corpus(small_finance_corpus, "jl")
    assert dict(preds.items()) == reference_jl_scores(small_finance_corpus)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    case=st.text(st.sampled_from(["a", "b", "0", "é", "ß", "\U0001d518"]), max_size=8).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(0, min(len(s), DELETION_MAX_EDITS)))
    )
)
def test_deletion_variants_equal_combinations(case):
    s, drop = case
    want = {
        "".join(ch for i, ch in enumerate(s) if i not in gone)
        for gone in map(set, combinations(range(len(s)), drop))
    }
    assert _deletion_variants(s, drop) == want


# value pools: values of different pools are never within the jl threshold,
# values of one pool often are
_POOLS = [
    ["Apple", "Maple", "Apples", "Ample", "Bond"],
    ["1000", "1001", "10001", "2500", "25000"],
    ["2020-01-01", "2020-01-02", "2021-11-30"],
    ["zeta theta", "omega psi"],
]
_pool_values = st.lists(st.sampled_from(range(len(_POOLS))), min_size=1, max_size=2, unique=True).flatmap(
    lambda pools: st.lists(
        st.one_of(
            st.sampled_from([v for i in pools for v in _POOLS[i]]),
            st.builds(
                _edit,
                st.sampled_from([v for i in pools for v in _POOLS[i]]),
                st.lists(st.tuples(st.sampled_from(["ins", "del", "sub"]), st.integers(0, 12),
                                   st.sampled_from("0a-")), min_size=1, max_size=2),
            ),
        ),
        max_size=6,
    )
)
_small_corpus = st.lists(st.lists(_pool_values, min_size=1, max_size=3), min_size=2, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(columns_per_table=_small_corpus)
def test_jl_blocking_is_lossless(columns_per_table):
    tables = []
    for t, columns in enumerate(columns_per_table):
        n = max(map(len, columns))
        rows = [tuple(col[i] if i < len(col) else "" for col in columns) for i in range(n)]
        tables.append(table(f"T{t}", [f"c{j}" for j in range(len(columns))], rows))
    corpus = Corpus(tables=tables, seed=3)
    scores = dict(match_corpus(corpus, "jl").items())
    assert scores == reference_jl_scores(corpus)

    samples = {(t.name, c): frozenset(sample_values(t, c, seed=3)) for t in tables for c in t.schema.column_names()}
    neighbours = value_neighbours(frozenset().union(*samples.values()), 0.8)
    reach = reachable_columns({ref: neighbours.intern(v) for ref, v in samples.items()}, neighbours)
    for (left, right), score in scores.items():
        admissible = any(
            x == y or reference_lev_ratio(x, y) >= 0.8 for x in samples[left] for y in samples[right]
        )
        assert (right in reach[left]) == (left in reach[right]) == admissible
        if not admissible:
            assert score == 0.0 and type(score) is float


TREND_PLAN = (
    "step * vertical_split overlap_ratio=0.2\n"
    "step * cryptify_headers+text_noise typo_rate=0.3\n"
    "step * semantic_value_perturb backend=offline\n"
)


@pytest.fixture(scope="module")
def acceptance_07_corpus():
    schema_set, _ = ontology_to_schemas(parse_ontology(finance_ontology_text(6)))
    plan = plan_generation(build_dependency_graph(schema_set), row_caps=20)
    corpus, _ = generate_base_tables(schema_set, plan, seed=42)
    return apply_plan(corpus, parse_plan(TREND_PLAN))[0]


# write_predictions_csv SHA-256 per corpus and matcher, pinned from the
# matchers before column-pair blocking and per-table schema graphs
GOLDEN_PREDICTIONS = {
    ("small_finance_corpus", "jl"): "783859d7a02fbd498fc5ac947ae21b41a449b5d9cdd5a8135ca3235cab86c35f",
    ("small_finance_corpus", "sf"): "059a829886da93c88d98a1564b10d9b20e57b89e084df982a50e762a3b631c14",
    ("small_finance_corpus", "hybrid"): "ab9f3de15e95c0dce212052adaad56b8556c9f86154d22af0398ff63789197b4",
    ("acceptance_07_corpus", "jl"): "2567abe792216ca3a2822013ebd56b6ae8c293d9867095c467c166e32bf6189b",
    ("acceptance_07_corpus", "sf"): "20d936209930566622d7a00d3327074fb19dca5e94507d201dd8f7ae200e9d29",
    ("acceptance_07_corpus", "hybrid"): "1dd0ba4c26e530c7424cc8aef884ebf452eabc1f589a181c54789911b1a5e425",
}


@pytest.mark.parametrize("corpus_name, matcher", sorted(GOLDEN_PREDICTIONS))
def test_golden_predictions(request, corpus_name, matcher):
    corpus = request.getfixturevalue(corpus_name)
    text = write_predictions_csv(match_corpus(corpus, matcher))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_PREDICTIONS[(corpus_name, matcher)]


PAIR_MATCHERS = {
    "jl": jl_match,
    "sf": lambda a, b, **shared: sf_match(a, b, **shared)[0],
    "hybrid": hybrid_match,
}


@pytest.mark.parametrize("matcher", sorted(PAIR_MATCHERS))
def test_two_table_profile_equals_match_corpus(small_finance_corpus, matcher):
    # a profile of just the two tables (jl's neighbour map and reach sets,
    # sf's and hybrid's header similarities over those two) scores their
    # pair as match_corpus does through the corpus-wide profile
    pair_matcher = PAIR_MATCHERS[matcher]
    tables = sorted(small_finance_corpus.tables, key=lambda t: t.name)
    seed = small_finance_corpus.seed
    pairwise = []
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            shared = profile([a, b], matcher, seed)
            # either table order gives the same scores, one per column pair
            chunk = pair_matcher(a, b, **shared)
            swapped = pair_matcher(b, a, **shared)
            assert swapped == chunk and len(chunk) == len(a.schema.columns) * len(b.schema.columns)
            pairwise += zip(pair_keys(a, b), chunk)
    corpus_wide = match_corpus(small_finance_corpus, matcher)
    assert sorted(pairwise) == list(corpus_wide.items())


_HEADERS = ["id", "ID", "Name", "name", "Code", "Account Number", "acct_no", "Listed Date"]


@st.composite
def _table_pair(draw):
    """Two tables of distinct names, each with one to three columns of
    random headers, datatypes and pool values (see _POOLS)."""
    names = draw(st.lists(st.sampled_from(["A", "B", "a", "Ledger", "Ledger 2"]), min_size=2, max_size=2,
                          unique=True))
    tables = []
    for name in names:
        headers = draw(st.lists(st.sampled_from(_HEADERS), min_size=1, max_size=3, unique=True))
        cols = [Column(h, f"T {h}", draw(st.sampled_from(["text", "integer", "date"]))) for h in headers]
        columns = [draw(_pool_values) for _ in headers]
        rows = [tuple(col[i] if i < len(col) else "" for col in columns) for i in range(max(map(len, columns)))]
        tables.append(TableData(schema=TableSchema(name, cols, primary_key=None), rows=rows))
    return tables


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=_table_pair(), matcher=st.sampled_from(sorted(PAIR_MATCHERS)))
def test_pair_matchers_symmetric_canonical_and_bounded(pair, matcher):
    a, b = pair
    shared = profile(pair, matcher)
    ab = PAIR_MATCHERS[matcher](a, b, **shared)
    ba = PAIR_MATCHERS[matcher](b, a, **shared)
    assert ab == ba
    assert len(ab) == len(a.schema.columns) * len(b.schema.columns)
    assert all(0.0 <= score <= 1.0 for score in ab)


_NAMES = ["A", "a", "Ab", "aB", "\u0130", "i\u0307", "Ledger", "PID", "Person ID"]


def _unordered_pairs(names):
    """Every unordered pair of the names, each with itself included, as the
    similarity tables key them."""
    return {(x, y) if x <= y else (y, x) for x, y in combinations_with_replacement(set(names), 2)}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    spec=st.lists(
        st.tuples(st.sampled_from(_NAMES), st.lists(st.sampled_from(_NAMES + _HEADERS), max_size=3, unique=True)),
        min_size=1, max_size=4, unique_by=lambda t: t[0],
    )
)
# names that differ only in case, "İ", whose lowered form is two characters
# long, shared and distinct headers, a zero-column table, a single table
@example(spec=[("\u0130", ["\u0130", "i\u0307"]), ("i\u0307", ["PID"]), ("A", [])])
@example(spec=[("a", ["Ab", "aB"])])
def test_name_similarity_tables_equal_per_pair_definition(spec):
    tables = [table(name, headers, []) for name, headers in spec]
    headers = [h for _name, hs in spec for h in hs]
    sf, hybrid = profile(tables, "sf"), profile(tables, "hybrid")
    assert sf["header_sims"] == {
        (x, y): reference_lev_ratio(x.lower(), y.lower()) for x, y in _unordered_pairs(headers)
    }
    assert sf["table_sims"] == {
        (x, y): reference_lev_ratio(x.lower(), y.lower()) for x, y in _unordered_pairs(t.name for t in tables)
    }
    assert hybrid["header_sims"] == {(x, y): reference_name_similarity(x, y) for x, y in _unordered_pairs(headers)}
    # the tables hold every key a pair matcher reads, a table with itself included
    for a, b in combinations_with_replacement(tables, 2):
        sf_match(a, b, **sf)
        hybrid_match(a, b, **hybrid)


@st.composite
def _shuffled_tables(draw):
    """Two to four tables of distinct names, in an order other than their
    names' as often as not, each with zero to three columns of pool values."""
    names = draw(st.permutations(draw(st.lists(st.sampled_from(["A", "B", "a", "Ledger", "Ledger 2"]),
                                               min_size=2, max_size=4, unique=True))))
    tables = []
    for name in names:
        headers = draw(st.lists(st.sampled_from(_HEADERS), max_size=3, unique=True))
        columns = [draw(_pool_values) for _ in headers]
        rows = [tuple(col[i] if i < len(col) else "" for col in columns) for i in range(max(map(len, columns), default=0))]
        tables.append(table(name, headers, rows))
    return tables


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tables=_shuffled_tables(), matcher=st.sampled_from(sorted(PAIR_MATCHERS)))
def test_match_corpus_keys_strictly_increase_and_cover_every_pair(tables, matcher):
    preds = match_corpus(Corpus(tables=tables), matcher)
    pairs = preds.pairs
    keys = list(pairs)
    assert len(preds) == len(pairs) == len(keys)
    assert all(x < y for x, y in zip(keys, keys[1:]))
    # the compact index finds each pair where iteration puts it
    assert [pairs.key(i) for i in range(len(keys))] == keys
    assert [pairs.index(key) for key in keys] == list(range(len(keys)))
    assert pairs.index(((tables[0].name, "no such column"), (tables[1].name, "id"))) is None
    assert set(keys) == {
        tuple(sorted([(a.name, ca), (b.name, cb)]))
        for a, b in combinations(tables, 2)
        for ca in a.schema.column_names()
        for cb in b.schema.column_names()
    }


# ---------------------------------------------------------------------------
# Similarity Flooding
# ---------------------------------------------------------------------------


def three_col_schema(name, names_types):
    cols = [Column(n, n, t) for n, t in names_types]
    rows = []
    return TableData(schema=TableSchema(name, cols, primary_key=None), rows=rows)


def test_sf_identity_mapping_on_identical_schemas():
    spec = [("Ticker", "text"), ("Price", "decimal"), ("Listed Date", "date")]
    a = three_col_schema("A", spec)
    b = three_col_schema("B", spec)
    scores, converged = sf_match(a, b, **profile([a, b], "sf"))
    assert converged
    by_left = {}
    for (left, right), score in zip(pair_keys(a, b), scores):
        col_a = left[1] if left[0] == "A" else right[1]
        col_b = right[1] if right[0] == "B" else left[1]
        by_left.setdefault(col_a, []).append((score, col_b))
    for col, scored in by_left.items():
        best = max(scored)[1]
        assert best == col, f"top-1 for {col} is {best}"


def test_sf_disjoint_schemas_below_threshold():
    a = three_col_schema("A", [("aaa", "text"), ("bbb", "text")])
    b = three_col_schema("B", [("xxxxx", "date"), ("zzzzz", "decimal")])
    scores, converged = sf_match(a, b, **profile([a, b], "sf"))
    assert converged
    assert all(score < 0.5 for score in scores)


def test_sf_converges_on_fig1_pairs(fig1_corpus):
    tables = fig1_corpus.tables
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            pair = [tables[i], tables[j]]
            scores, converged = sf_match(*pair, epsilon=1e-3, max_iters=200, **profile(pair, "sf"))
            assert converged
            assert all(0.0 <= score <= 1.0 for score in scores)


def test_sf_invariant_under_column_order():
    spec = [("Ticker", "text"), ("Price", "decimal"), ("Listed Date", "date")]
    a1 = three_col_schema("A", spec)
    a2 = three_col_schema("A", list(reversed(spec)))
    b = three_col_schema("B", [("Symbol", "text"), ("Cost", "decimal")])
    s1 = {key: round(s, 12) for key, s in zip(pair_keys(a1, b), sf_match(a1, b, **profile([a1, b], "sf"))[0])}
    s2 = {key: round(s, 12) for key, s in zip(pair_keys(a2, b), sf_match(a2, b, **profile([a2, b], "sf"))[0])}
    assert s1 == s2


def test_sf_symmetry():
    a = three_col_schema("A", [("Ticker", "text"), ("Price", "decimal")])
    b = three_col_schema("B", [("Symbol", "text"), ("Cost", "decimal")])
    shared = profile([a, b], "sf")
    assert sf_match(a, b, **shared)[0] == sf_match(b, a, **shared)[0]


# a schema: up to five distinct headers in drawn (not sorted) order, with
# datatypes drawn from three, so they repeat
_sf_schema = st.lists(st.sampled_from(_HEADERS), max_size=5, unique=True).flatmap(
    lambda headers: st.lists(
        st.sampled_from(["text", "integer", "date"]), min_size=len(headers), max_size=len(headers)
    ).map(lambda types: list(zip(headers, types)))
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    spec_a=_sf_schema,
    spec_b=_sf_schema,
    names=st.sampled_from([("A", "B"), ("B", "A"), ("Ledger", "Ledger 2"), ("ledger", "Ledger")]),
    itself=st.booleans(),
    max_iters=st.sampled_from([0, 1, 2, 5, 200]),
    epsilon=st.sampled_from([1e-3, 1e-9, 0.0]),
)
@example(spec_a=[], spec_b=[("id", "text")], names=("A", "B"), itself=False, max_iters=200, epsilon=1e-3)
@example(spec_a=[("Name", "text")], spec_b=[("name", "text")], names=("A", "B"), itself=False, max_iters=200, epsilon=1e-3)
@example(spec_a=[], spec_b=[], names=("A", "B"), itself=True, max_iters=200, epsilon=1e-3)
def test_sf_equals_reference_propagation(spec_a, spec_b, names, itself, max_iters, epsilon):
    # the closed-form fixpoint against generic propagation over the pair
    # graph: the same scores bit for bit, in the same order, and the same
    # converged flag, in either argument order
    a = three_col_schema(names[0], spec_a)
    b = a if itself else three_col_schema(names[1], spec_b)
    shared = profile([a] if itself else [a, b], "sf")
    want = reference_sf(a, b, epsilon, max_iters)
    for x, y in ((a, b), (b, a)):
        scores, converged = sf_match(x, y, epsilon, max_iters, **shared)
        assert (list(zip(pair_keys(x, y), scores)), converged) == want


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------


def test_hybrid_identical_headers_and_values():
    a = column_table("A", "Currency", ["USD", "EUR"])
    b = column_table("B", "Currency", ["USD", "EUR"])
    scores = hybrid_match(a, b, **profile([a, b], "hybrid"))
    assert scores[0] == pytest.approx(1.0)
    assert scores[0] > 0.5


def test_hybrid_cryptified_header_closed_form():
    a = column_table("A", "Person ID", ["1", "2", "3"])
    b = column_table("B", "PID", ["1", "2", "3"])
    shared = profile([a, b], "hybrid")
    scores = hybrid_match(a, b, 0.5, 0.5, **shared)
    name = shared["header_sims"][("PID", "Person ID")]
    assert scores[0] == pytest.approx(0.5 * name + 0.5 * 1.0)
    assert name == pytest.approx(max(reference_lev_ratio("person id", "pid"), 0.0))


def test_hybrid_weight_validation():
    a = column_table("A", "x", ["1"])
    b = column_table("B", "x", ["1"])
    with pytest.raises(EvaluationError, match="sum to 1"):
        hybrid_match(a, b, 0.9, 0.5, **profile([a, b], "hybrid"))


def test_hybrid_monotone_in_containment():
    a = column_table("A", "Code", [f"v{i}" for i in range(10)])
    partial = column_table("B", "Code", ["v0", "v1", "zzz1", "zzz2", "zzz3"])
    full = column_table("B", "Code", ["v0", "v1", "v2", "v3", "v4"])
    s_partial = hybrid_match(a, partial, **profile([a, partial], "hybrid"))[0]
    s_full = hybrid_match(a, full, **profile([a, full], "hybrid"))[0]
    assert s_full > s_partial


def test_instance_containment_definition():
    assert instance_containment(["a", "b", "c", "d"], ["a", "b"]) == 1.0
    assert instance_containment(["a", "b"], ["a", "x"]) == 0.5
    assert instance_containment([], ["a"]) == 0.0


# ---------------------------------------------------------------------------
# orchestration and the external adapter
# ---------------------------------------------------------------------------


def test_match_corpus_runs_all_table_pairs(small_finance_corpus):
    preds = match_corpus(small_finance_corpus, "hybrid")
    tables = small_finance_corpus.tables
    expect_pairs = 0
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            expect_pairs += len(tables[i].schema.columns) * len(tables[j].schema.columns)
    assert len(preds) == expect_pairs
    assert all(0.0 <= score <= 1.0 for score in preds.scores)


def test_predictions_csv_round_trip():
    preds = Predictions.best_of([
        (("B", "y"), ("A", "x"), 0.75),
        (("A", "x"), ("C", "z"), 0.25),
    ])
    text = write_predictions_csv(preds)
    assert "0.750000" in text
    again = parse_predictions_csv(text)
    assert list(again.items()) == list(preds.items()) == [((("A", "x"), ("B", "y")), 0.75), ((("A", "x"), ("C", "z")), 0.25)]


def _csv_line(cells) -> str:
    """One row as the predictions CSV holds it: csv.writer's minimal quoting,
    with CR and LF both in its line terminator so that a cell holding either
    is quoted, and the row ended by LF."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


_CSV_HEADER = ["left_table", "left_column", "right_table", "right_column", "score"]


def test_predictions_csv_quotes_each_cell_like_csv_writer():
    odd = [("T,1", 'c"x'), ("U\nV", " y"), ("U\nV", ""), ("W", "z\r")]
    rows = [(a, b, 0.125 * (i + j)) for i, a in enumerate(odd) for j, b in enumerate(odd) if i < j]
    rows.append((odd[1], odd[0], 0.9))  # a duplicate key: the higher score wins
    want = [_csv_line(_CSV_HEADER)] + [
        _csv_line([*left, *right, f"{score:.6f}"]) for (left, right), score in sorted(best_scores(rows).items())
    ]
    text = write_predictions_csv(Predictions.best_of(rows))
    assert text == "".join(want)
    assert 'W,"z\r"' in text
    assert list(parse_predictions_csv(text).items()) == sorted(best_scores(rows).items())


# names that need quoting, a dotted capital whose lowered form is longer, and
# a character outside the basic multilingual plane
_ODD_NAMES = ["A", "a,b", 'q"t', "l\nf", "c\rr", "\u0130", "i\u0307", "\U0001d518", " s "]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    spec=st.lists(
        st.tuples(st.sampled_from(_ODD_NAMES), st.lists(st.sampled_from(_ODD_NAMES), max_size=3, unique=True)),
        min_size=2, max_size=3, unique_by=lambda t: t[0],
    ),
    matcher=st.sampled_from(sorted(PAIR_MATCHERS)),
)
def test_predictions_csv_equals_csv_writer_reference(spec, matcher):
    tables = [
        table(name, headers, [tuple(f"v{(i + j) % 3}" for j in range(len(headers))) for i in range(2)])
        for name, headers in spec
    ]
    # the reference: every table pair scored on its own, each row encoded
    # whole by csv.writer, in sorted pair order
    shared = profile(tables, matcher)
    scores = {}
    for a, b in combinations(tables, 2):
        scores.update(zip(pair_keys(a, b), PAIR_MATCHERS[matcher](a, b, **shared)))
    rows = [_csv_line(_CSV_HEADER)] + [
        _csv_line([*left, *right, f"{score:.6f}"]) for (left, right), score in sorted(scores.items())
    ]
    text = write_predictions_csv(match_corpus(Corpus(tables=tables), matcher))
    assert text == "".join(rows)
    # the file parses back to its pairs and printed scores
    assert list(parse_predictions_csv(text).items()) == [
        (key, float(f"{score:.6f}")) for key, score in sorted(scores.items())
    ]


def test_predictions_best_of_sorted_input_and_duplicates():
    a, b, c = ("A", "x"), ("B", "y"), ("C", "z")
    ordered = [(a, b, 0.5), (a, c, 0.25), (b, c, 0.75)]
    items = [((a, b), 0.5), ((a, c), 0.25), ((b, c), 0.75)]
    assert list(Predictions.best_of(ordered).items()) == items
    assert list(Predictions.best_of(ordered[::-1]).items()) == items
    doubled = [ordered[0], (b, a, 0.9), *ordered[1:]]
    assert list(Predictions.best_of(doubled).items()) == [((a, b), 0.9), ((a, c), 0.25), ((b, c), 0.75)]


def test_predictions_csv_score_range_error():
    text = "left_table,left_column,right_table,right_column,score\nA,x,B,y,1.7\n"
    with pytest.raises(EvaluationError, match="line 2.*outside"):
        parse_predictions_csv(text)


def test_external_match_stub(tmp_path, small_finance_corpus):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import sys\n"
        "print('left_table,left_column,right_table,right_column,score')\n"
        "print('Organization,Legal Name,Listed Security,Legal Name,0.900000')\n"
    )
    preds = external_match(str(tmp_path), f"{sys.executable} {stub}", small_finance_corpus)
    assert len(preds) == 1
    assert preds.scores[0] == 0.9


def test_external_match_nonzero_exit(tmp_path):
    stub = tmp_path / "bad.py"
    stub.write_text("import sys; sys.exit(3)\n")
    with pytest.raises(EvaluationError, match="exited 3"):
        external_match(str(tmp_path), f"{sys.executable} {stub}")


def test_external_match_empty_command(tmp_path):
    with pytest.raises(EvaluationError, match="empty"):
        external_match(str(tmp_path), "  ")


def test_external_match_reference_validation(tmp_path, small_finance_corpus):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "print('left_table,left_column,right_table,right_column,score')\n"
        "print('Ghost,x,Organization,id,0.5')\n"
    )
    with pytest.raises(EvaluationError, match="^predictions line 2: unknown table 'Ghost'$"):
        external_match(str(tmp_path), f"{sys.executable} {stub}", small_finance_corpus)
    stub.write_text(
        "print('left_table,left_column,right_table,right_column,score')\n"
        "print('Currency Name,Currency,Currency Name,ghost,0.5')\n"
    )
    with pytest.raises(
        EvaluationError, match="^predictions line 2: table 'Currency Name' has no column 'ghost'$"
    ):
        external_match(str(tmp_path), f"{sys.executable} {stub}", small_finance_corpus)


@pytest.mark.parametrize("matcher, keyword", [("jl", "delta"), ("sf", "w_name"), ("hybrid", "epsilon")])
def test_match_corpus_rejects_a_keyword_the_matcher_does_not_take(small_finance_corpus, matcher, keyword):
    with pytest.raises(EvaluationError, match=f"^matcher '{matcher}' takes no keyword '{keyword}'$"):
        match_corpus(small_finance_corpus, matcher, **{keyword: 0.9})
