import random
import string
import sys
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import optimal_fuzzy_jaccard, reference_jl_scores

from lakeforge.common import EvaluationError, lev_ratio
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
    sf_match,
    value_neighbours,
    write_predictions_csv,
)
from lakeforge.model import Column, TableData, TableSchema


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
    preds = jl_match(a, b, delta=0.9)
    assert preds[0].score == 1.0


def test_jl_empty_column_scores_zero():
    a = column_table("A", "Name", [""])
    b = column_table("B", "Name", ["x"])
    assert jl_match(a, b)[0].score == 0.0


def test_jl_symmetry():
    a = column_table("A", "Name", ["alpha", "beta", "gamma"])
    b = column_table("B", "Title", ["alpha", "delta"])
    ab = {p.key(): p.score for p in jl_match(a, b)}
    ba = {p.key(): p.score for p in jl_match(b, a)}
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
            if a != b and lev_ratio(a, b) >= delta:
                want.setdefault(a, set()).add(b)
    assert value_neighbours(values, delta) == want


def test_match_corpus_jl_equals_per_pair_reference(small_finance_corpus):
    preds = match_corpus(small_finance_corpus, "jl")
    assert {p.key(): p.score for p in preds} == reference_jl_scores(small_finance_corpus)


@pytest.mark.parametrize("matcher, pair_matcher", [("jl", jl_match), ("hybrid", hybrid_match)])
def test_pair_matcher_alone_equals_match_corpus(small_finance_corpus, matcher, pair_matcher):
    # alone, a pair matcher draws its own samples (and jl its own neighbour
    # map); match_corpus shares corpus-wide ones
    tables = sorted(small_finance_corpus.tables, key=lambda t: t.name)
    seed = small_finance_corpus.seed
    pairwise = [p for i, a in enumerate(tables) for b in tables[i + 1:]
                for p in pair_matcher(a, b, seed=seed)]
    corpus_wide = match_corpus(small_finance_corpus, matcher)
    assert [(p.key(), p.score) for p in dedupe_predictions(pairwise)] == [
        (p.key(), p.score) for p in corpus_wide
    ]


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
    preds, converged = sf_match(a, b)
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
    preds, converged = sf_match(a, b)
    assert converged
    assert all(p.score < 0.5 for p in preds)


def test_sf_converges_on_fig1_pairs(fig1_corpus):
    tables = fig1_corpus.tables
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            preds, converged = sf_match(tables[i], tables[j], epsilon=1e-3, max_iters=200)
            assert converged
            assert all(0.0 <= p.score <= 1.0 for p in preds)


def test_sf_invariant_under_column_order():
    spec = [("Ticker", "text"), ("Price", "decimal"), ("Listed Date", "date")]
    a1 = three_col_schema("A", spec)
    a2 = three_col_schema("A", list(reversed(spec)))
    b = three_col_schema("B", [("Symbol", "text"), ("Cost", "decimal")])
    s1 = {p.key(): round(p.score, 12) for p in sf_match(a1, b)[0]}
    s2 = {p.key(): round(p.score, 12) for p in sf_match(a2, b)[0]}
    assert s1 == s2


def test_sf_symmetry():
    a = three_col_schema("A", [("Ticker", "text"), ("Price", "decimal")])
    b = three_col_schema("B", [("Symbol", "text"), ("Cost", "decimal")])
    ab = {p.key(): round(p.score, 12) for p in sf_match(a, b)[0]}
    ba = {p.key(): round(p.score, 12) for p in sf_match(b, a)[0]}
    assert ab == ba


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------


def test_hybrid_identical_headers_and_values():
    a = column_table("A", "Currency", ["USD", "EUR"])
    b = column_table("B", "Currency", ["USD", "EUR"])
    preds = hybrid_match(a, b)
    assert preds[0].score == pytest.approx(1.0)
    assert preds[0].score > 0.5


def test_hybrid_cryptified_header_closed_form():
    a = column_table("A", "Person ID", ["1", "2", "3"])
    b = column_table("B", "PID", ["1", "2", "3"])
    preds = hybrid_match(a, b, 0.5, 0.5)
    expect = 0.5 * name_similarity("Person ID", "PID") + 0.5 * 1.0
    assert preds[0].score == pytest.approx(expect)
    assert name_similarity("Person ID", "PID") == pytest.approx(
        max(lev_ratio("person id", "pid"), 0.0)
    )


def test_hybrid_weight_validation():
    a = column_table("A", "x", ["1"])
    b = column_table("B", "x", ["1"])
    with pytest.raises(EvaluationError, match="sum to 1"):
        hybrid_match(a, b, 0.9, 0.5)


def test_hybrid_monotone_in_containment():
    a = column_table("A", "Code", [f"v{i}" for i in range(10)])
    partial = column_table("B", "Code", ["v0", "v1", "zzz1", "zzz2", "zzz3"])
    full = column_table("B", "Code", ["v0", "v1", "v2", "v3", "v4"])
    s_partial = hybrid_match(a, partial)[0].score
    s_full = hybrid_match(a, full)[0].score
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


def test_external_match_reference_validation(tmp_path, small_finance_corpus):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "print('left_table,left_column,right_table,right_column,score')\n"
        "print('Ghost,x,Organization,id,0.5')\n"
    )
    with pytest.raises(EvaluationError, match="unknown table"):
        external_match(str(tmp_path), f"{sys.executable} {stub}", small_finance_corpus)


def test_match_corpus_parallel_matches_serial(small_finance_corpus):
    serial = match_corpus(small_finance_corpus, "hybrid", jobs=1)
    parallel = match_corpus(small_finance_corpus, "hybrid", jobs=4)
    assert [(p.key(), p.score) for p in serial] == [(p.key(), p.score) for p in parallel]


def test_sf_instance_token_variant():
    a = TableData(
        schema=TableSchema("A", [Column("Code", "Currency", "text")], None),
        rows=[("USD",), ("EUR",), ("USD",)],
    )
    b = TableData(
        schema=TableSchema("B", [Column("Abbrev", "Currency", "text")], None),
        rows=[("USD",), ("EUR",)],
    )
    plain, _ = sf_match(a, b)
    with_tokens, converged = sf_match(a, b, include_tokens=True)
    assert converged
    # shared instance tokens lift the column-pair score
    assert with_tokens[0].score > plain[0].score
