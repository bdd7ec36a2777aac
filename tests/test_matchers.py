import hashlib
import random
import string
import sys
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    finance_ontology_text,
    optimal_fuzzy_jaccard,
    reference_jl_scores,
    reference_lev_ratio,
    reference_levenshtein,
)

from lakeforge.common import EvaluationError, levenshtein, token_jaccard
from lakeforge.matchers import (
    MatchPrediction,
    _max_bipartite_matching,
    dedupe_predictions,
    external_match,
    fuzzy_jaccard,
    hybrid_match,
    instance_containment,
    jl_match,
    match_corpus,
    name_similarity,
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
    preds = jl_match(a, b, **profile([a, b], "jl"))
    assert preds[0].score == 1.0


def test_jl_empty_column_scores_zero():
    a = column_table("A", "Name", [""])
    b = column_table("B", "Name", ["x"])
    assert jl_match(a, b, **profile([a, b], "jl"))[0].score == 0.0


def test_jl_symmetry():
    a = column_table("A", "Name", ["alpha", "beta", "gamma"])
    b = column_table("B", "Title", ["alpha", "delta"])
    shared = profile([a, b], "jl")
    ab = {p.key(): p.score for p in jl_match(a, b, **shared)}
    ba = {p.key(): p.score for p in jl_match(b, a, **shared)}
    assert ab == ba


def test_matching_long_augmenting_path_is_iterative():
    # the greedy first phase matches i -> i + 1 and leaves the last vertex
    # free; the one augmenting path then runs through all 3000 vertices
    n = 3000
    adj = {i: [j for j in (i + 1, i) if j < n] for i in range(n)}
    assert _max_bipartite_matching(adj, n, n) == n


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


# few letters, so that strings share characters, plus non-ASCII and astral
# code points (one Python character each, so one pattern bit each)
_lev_chars = st.sampled_from("abc \u00e9\u00df\U0001d518\U0001f600")
_lev_text = st.one_of(
    st.text(_lev_chars, max_size=150),
    st.builds(lambda ch, n: ch * n, _lev_chars, st.integers(0, 150)),
    # a run past one 64-bit word, then a tail
    st.builds(lambda ch, n, tail: ch * n + tail, _lev_chars, st.integers(60, 90), st.text(_lev_chars, max_size=20)),
    st.text(max_size=70),
)
_lev_edits = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "sub"]), st.integers(0, 150), _lev_chars), max_size=6
)


def _lev_pair(a):
    """a beside an unrelated string or beside a copy a few edits away."""
    return st.tuples(st.just(a), st.one_of(_lev_text, st.builds(_edit, st.just(a), _lev_edits)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=_lev_text.flatmap(_lev_pair))
@example(pair=("", ""))
@example(pair=("", "\U0001f600" * 70))
@example(pair=("a" * 64, "a" * 63 + "b"))
@example(pair=("ab" * 40, "ba" * 40))
def test_levenshtein_equals_reference_dp(pair):
    a, b = pair
    d = levenshtein(a, b)
    assert d == reference_levenshtein(a, b)
    assert levenshtein(b, a) == d


_affix = st.one_of(
    st.text(_lev_chars, max_size=30),
    st.builds(lambda ch, n: ch * n, _lev_chars, st.integers(1, 70)),
)
_short_lev_text = st.text(_lev_chars, max_size=30)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    pair=_short_lev_text.flatmap(
        lambda a: st.tuples(st.just(a), st.one_of(_short_lev_text, st.builds(_edit, st.just(a), _lev_edits)))
    ),
    prefix=_affix,
    suffix=_affix,
)
# the shorter string is all prefix and suffix; the affixes overlap in the longer one
@example(pair=("", "a"), prefix="a", suffix="a")
@example(pair=("b", "ab"), prefix="ab", suffix="b")
def test_levenshtein_with_shared_prefix_and_suffix(pair, prefix, suffix):
    a, b = prefix + pair[0] + suffix, prefix + pair[1] + suffix
    assert levenshtein(a, b) == reference_levenshtein(a, b)
    assert levenshtein(b, a) == reference_levenshtein(a, b)


_headers = st.one_of(
    st.text(st.sampled_from("aAbBcC _"), max_size=24),
    st.sampled_from(["Person ID", "PID", "person_id", "PersonId", "Account Number", "ACCOUNT NUMBER",
                     "Valuation Date", "Date Valuation", "Straße", "STRASSE", "\U0001d518ser Name"]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_headers, b=_headers)
def test_name_similarity_equals_reference(a, b):
    want = max(reference_lev_ratio(a.lower(), b.lower()), token_jaccard(a, b))
    assert name_similarity(a, b) == want


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
    assert value_neighbours(values, delta) == want


def test_match_corpus_jl_equals_per_pair_reference(small_finance_corpus):
    preds = match_corpus(small_finance_corpus, "jl")
    assert {p.key(): p.score for p in preds} == reference_jl_scores(small_finance_corpus)


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
    scores = {p.key(): p.score for p in match_corpus(corpus, "jl")}
    assert scores == reference_jl_scores(corpus)

    samples = {(t.name, c): frozenset(sample_values(t, c, seed=3)) for t in tables for c in t.schema.column_names()}
    reach = reachable_columns(samples, value_neighbours(frozenset().union(*samples.values()), 0.8))
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
            # either table order gives the same predictions, in canonical order
            chunk = pair_matcher(a, b, **shared)
            swapped = pair_matcher(b, a, **shared)
            assert [p.key() for p in chunk] == sorted(p.key() for p in chunk)
            assert [(p.key(), p.score) for p in swapped] == [(p.key(), p.score) for p in chunk]
            pairwise += chunk
    corpus_wide = match_corpus(small_finance_corpus, matcher)
    assert [(p.key(), p.score) for p in dedupe_predictions(pairwise)] == [
        (p.key(), p.score) for p in corpus_wide
    ]


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
    ab = [(p.key(), p.score) for p in PAIR_MATCHERS[matcher](a, b, **shared)]
    ba = [(p.key(), p.score) for p in PAIR_MATCHERS[matcher](b, a, **shared)]
    assert ab == ba
    keys = [key for key, _score in ab]
    assert keys == sorted(set(keys)) and len(keys) == len(a.schema.columns) * len(b.schema.columns)
    assert all(0.0 <= score <= 1.0 for _key, score in ab)


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
    preds, converged = sf_match(a, b, **profile([a, b], "sf"))
    assert converged
    by_left = {}
    for p in preds:
        col_a = p.left[1] if p.left[0] == "A" else p.right[1]
        col_b = p.right[1] if p.right[0] == "B" else p.left[1]
        by_left.setdefault(col_a, []).append((p.score, col_b))
    for col, scored in by_left.items():
        best = max(scored)[1]
        assert best == col, f"top-1 for {col} is {best}"


def test_sf_disjoint_schemas_below_threshold():
    a = three_col_schema("A", [("aaa", "text"), ("bbb", "text")])
    b = three_col_schema("B", [("xxxxx", "date"), ("zzzzz", "decimal")])
    preds, converged = sf_match(a, b, **profile([a, b], "sf"))
    assert converged
    assert all(p.score < 0.5 for p in preds)


def test_sf_converges_on_fig1_pairs(fig1_corpus):
    tables = fig1_corpus.tables
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            pair = [tables[i], tables[j]]
            preds, converged = sf_match(*pair, epsilon=1e-3, max_iters=200, **profile(pair, "sf"))
            assert converged
            assert all(0.0 <= p.score <= 1.0 for p in preds)


def test_sf_invariant_under_column_order():
    spec = [("Ticker", "text"), ("Price", "decimal"), ("Listed Date", "date")]
    a1 = three_col_schema("A", spec)
    a2 = three_col_schema("A", list(reversed(spec)))
    b = three_col_schema("B", [("Symbol", "text"), ("Cost", "decimal")])
    s1 = {p.key(): round(p.score, 12) for p in sf_match(a1, b, **profile([a1, b], "sf"))[0]}
    s2 = {p.key(): round(p.score, 12) for p in sf_match(a2, b, **profile([a2, b], "sf"))[0]}
    assert s1 == s2


def test_sf_symmetry():
    a = three_col_schema("A", [("Ticker", "text"), ("Price", "decimal")])
    b = three_col_schema("B", [("Symbol", "text"), ("Cost", "decimal")])
    shared = profile([a, b], "sf")
    ab = [(p.key(), p.score) for p in sf_match(a, b, **shared)[0]]
    ba = [(p.key(), p.score) for p in sf_match(b, a, **shared)[0]]
    assert ab == ba


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------


def test_hybrid_identical_headers_and_values():
    a = column_table("A", "Currency", ["USD", "EUR"])
    b = column_table("B", "Currency", ["USD", "EUR"])
    preds = hybrid_match(a, b, **profile([a, b], "hybrid"))
    assert preds[0].score == pytest.approx(1.0)
    assert preds[0].score > 0.5


def test_hybrid_cryptified_header_closed_form():
    a = column_table("A", "Person ID", ["1", "2", "3"])
    b = column_table("B", "PID", ["1", "2", "3"])
    preds = hybrid_match(a, b, 0.5, 0.5, **profile([a, b], "hybrid"))
    expect = 0.5 * name_similarity("Person ID", "PID") + 0.5 * 1.0
    assert preds[0].score == pytest.approx(expect)
    assert name_similarity("Person ID", "PID") == pytest.approx(
        max(reference_lev_ratio("person id", "pid"), 0.0)
    )


def test_hybrid_weight_validation():
    a = column_table("A", "x", ["1"])
    b = column_table("B", "x", ["1"])
    with pytest.raises(EvaluationError, match="sum to 1"):
        hybrid_match(a, b, 0.9, 0.5, **profile([a, b], "hybrid"))


def test_hybrid_monotone_in_containment():
    a = column_table("A", "Code", [f"v{i}" for i in range(10)])
    partial = column_table("B", "Code", ["v0", "v1", "zzz1", "zzz2", "zzz3"])
    full = column_table("B", "Code", ["v0", "v1", "v2", "v3", "v4"])
    s_partial = hybrid_match(a, partial, **profile([a, partial], "hybrid"))[0].score
    s_full = hybrid_match(a, full, **profile([a, full], "hybrid"))[0].score
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
    assert all(0.0 <= p.score <= 1.0 for p in preds)


def test_predictions_csv_round_trip():
    preds = [
        MatchPrediction(("B", "y"), ("A", "x"), 0.75),
        MatchPrediction(("A", "x"), ("C", "z"), 0.25),
    ]
    text = write_predictions_csv(preds)
    assert "0.750000" in text
    again = parse_predictions_csv(text)
    assert {p.key(): p.score for p in again} == {p.key(): p.score for p in dedupe_predictions(preds)}


def test_predictions_csv_quotes_each_cell_like_csv_writer():
    import csv
    import io

    odd = [("T,1", 'c"x'), ("U\nV", " y"), ("U\nV", ""), ("W", "z\r")]
    preds = [MatchPrediction(a, b, 0.125 * (i + j)) for i, a in enumerate(odd) for j, b in enumerate(odd) if i < j]
    preds.append(MatchPrediction(odd[1], odd[0], 0.9))  # a duplicate key: the higher score wins
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["left_table", "left_column", "right_table", "right_column", "score"])
    for p in dedupe_predictions(preds):
        writer.writerow([*p.left, *p.right, f"{p.score:.6f}"])
    assert write_predictions_csv(preds) == buf.getvalue()


def test_dedupe_predictions_sorted_input_and_duplicates():
    a, b, c = ("A", "x"), ("B", "y"), ("C", "z")
    ordered = [MatchPrediction(a, b, 0.5), MatchPrediction(a, c, 0.25), MatchPrediction(b, c, 0.75)]
    assert dedupe_predictions(ordered) == ordered and dedupe_predictions(ordered) is not ordered
    assert dedupe_predictions(ordered[::-1]) == ordered
    doubled = [ordered[0], MatchPrediction(b, a, 0.9), *ordered[1:]]
    assert [(p.key(), p.score) for p in dedupe_predictions(doubled)] == [
        (ordered[0].key(), 0.9), (ordered[1].key(), 0.25), (ordered[2].key(), 0.75)
    ]


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
    assert preds[0].score == 0.9


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
    with pytest.raises(EvaluationError, match="unknown table"):
        external_match(str(tmp_path), f"{sys.executable} {stub}", small_finance_corpus)
