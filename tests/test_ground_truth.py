from helpers import (
    brute_force_ground_truth,
    finance_ontology_text,
    pairs_as_set,
    random_plans,
    shared_pool_completion,
)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lakeforge.common import PerturbationError
from lakeforge.gateway import GatewayConfig, LlmGateway
from lakeforge.generate import generate_base_tables, plan_generation
from lakeforge.ground_truth import ValueIndex, recompute_ground_truth
from lakeforge.model import (
    Column,
    Corpus,
    LineageEvent,
    TableData,
    TableSchema,
)
from lakeforge.ontology import build_dependency_graph, ontology_to_schemas, parse_ontology
from lakeforge.perturb import apply_plan, default_plan, parse_plan


def table(name, cols, rows, pk=None):
    return TableData(
        schema=TableSchema(
            name=name, columns=[Column(c, tag, dt) for c, tag, dt in cols], primary_key=pk
        ),
        rows=rows,
    )


def corpus_of(*tables, lineage=(), seed=0):
    c = Corpus(tables=list(tables), ground_truth=[], lineage=list(lineage), seed=seed)
    c.refresh_stats()
    return c


ACCOUNTS = table(
    "Accounts",
    [("Account Number", "Account Number", "text"), ("Owner", "Person Name", "text")],
    [("1001", "Alice Johnson"), ("1002", "Bruno Keller"), ("1003", "Carla Mendes")],
    pk="Account Number",
)

PAYMENTS = table(
    "Payments",
    [("Account Number", "Account Number", "text"), ("Memo", "Note", "text")],
    [("1001", "m1"), ("1001", "m2"), ("1003", "m3")],
)


def test_shared_semantic_type_yields_candidate_pair():
    corpus = corpus_of(ACCOUNTS, PAYMENTS)
    pairs = recompute_ground_truth(corpus)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.key() == ((("Accounts", "Account Number")), ("Payments", "Account Number"))


def test_distinct_types_sharing_a_value_are_exact():
    # the definition reads values only: semantic types play no part
    a = table("A", [("x", "Tag One", "text")], [("1",), ("2",)])
    b = table("B", [("y", "Tag Two", "text")], [("1",), ("3",)])
    pairs = recompute_ground_truth(corpus_of(a, b))
    assert [(p.key(), p.kind) for p in pairs] == [((("A", "x"), ("B", "y")), "exact")]
    c = table("C", [("z", "Tag One", "text")], [("4",)])
    assert recompute_ground_truth(corpus_of(a, c)) == []


def test_three_tables_sharing_type_give_three_pairs():
    tables = [
        table(f"T{i}", [("c", "Shared Tag", "text")], [("v",), (f"u{i}",)]) for i in range(3)
    ]
    pairs = recompute_ground_truth(corpus_of(*tables))
    assert len(pairs) == 3  # C(3,2)


def test_classify_pkfk_with_containment():
    corpus = corpus_of(ACCOUNTS, PAYMENTS)
    # canonical left is ("Accounts", ...) so the key side is left
    pairs = recompute_ground_truth(corpus)
    assert [(p.kind, p.key_side) for p in pairs] == [("pkfk", "left")]
    # a foreign key value outside the key's values leaves the pair exact
    stray = table(
        "Payments", [("Account Number", "Account Number", "text")], [("1001",), ("9999",)]
    )
    pairs = recompute_ground_truth(corpus_of(ACCOUNTS, stray))
    assert [(p.kind, p.key_side) for p in pairs] == [("exact", None)]


def test_classify_exact_for_identical_copies():
    a = table("A", [("c", "Tag", "text")], [("x",), ("y",)])
    b = table("B", [("c", "Tag", "text")], [("x",), ("y",)])
    pairs = recompute_ground_truth(corpus_of(a, b))
    assert [(p.key(), p.kind, p.key_side) for p in pairs] == [
        ((("A", "c"), ("B", "c")), "exact", None)
    ]


def test_classify_semantic_via_recorded_mapping():
    a = table("A", [("c", "Tag", "text")], [("x",), ("y",)])
    b = table("B", [("c", "Tag", "text")], [("X",), ("Y",)])
    ev = LineageEvent(
        event_id="ev00001",
        op="semantic_value_perturb",
        source=("A", "c"),
        result=("B", "c"),
        value_map={"x": "X", "y": "Y"},
    )
    corpus = corpus_of(a, b, lineage=[ev])
    pairs = recompute_ground_truth(corpus)
    assert [(p.key(), p.kind, p.mapping_id) for p in pairs] == [
        ((("A", "c"), ("B", "c")), "semantic", "ev00001")
    ]


def test_zero_overlap_without_mapping_is_none():
    a = table("A", [("c", "Tag", "text")], [("x",)])
    b = table("B", [("c", "Tag", "text")], [("z",)])
    assert recompute_ground_truth(corpus_of(a, b)) == []


def test_nulls_never_join():
    a = table("A", [("c", "Tag", "text")], [("",), ("x",)])
    b = table("B", [("c", "Tag", "text")], [("",), ("y",)])
    assert recompute_ground_truth(corpus_of(a, b)) == []
    # a null is no value either side of a mapping
    ev = LineageEvent(
        event_id="ev00001", op="text_noise", source=("A", "c"), result=("B", "c"),
        value_map={"": "y"},
    )
    assert recompute_ground_truth(corpus_of(a, b, lineage=[ev])) == []


def test_classification_symmetric():
    # the key table sorting first or last only flips the key side
    assert recompute_ground_truth(corpus_of(ACCOUNTS, PAYMENTS)) == recompute_ground_truth(
        corpus_of(PAYMENTS, ACCOUNTS)
    )
    accounts_last = TableData(
        schema=TableSchema(
            name="Zaccounts", columns=ACCOUNTS.schema.columns, primary_key="Account Number"
        ),
        rows=ACCOUNTS.rows,
    )
    pairs = recompute_ground_truth(corpus_of(PAYMENTS, accounts_last))
    assert [(p.left[0], p.right[0], p.kind, p.key_side) for p in pairs] == [
        ("Payments", "Zaccounts", "pkfk", "right")
    ]


def test_difficulty_rules():
    corpus = corpus_of(
        table("A", [("Currency", "Currency", "text")], [("USD",)]),
        table("B", [("currency ", "Currency", "text")], [("USD",)]),
        table("C", [("PID", "Person ID", "text")], [("USD",)]),
    )
    by_key = {p.key(): p for p in recompute_ground_truth(corpus)}
    assert by_key[(("A", "Currency"), ("B", "currency "))].difficulty == "easy"
    assert by_key[(("A", "Currency"), ("C", "PID"))].difficulty == "difficult"


def test_kinds_mutually_exclusive_per_pair(small_finance_corpus):
    seen = {}
    for p in small_finance_corpus.ground_truth:
        assert p.key() not in seen
        seen[p.key()] = p.kind


def test_propagation_without_lineage_reproduces_parents(small_finance_corpus):
    pairs = recompute_ground_truth(small_finance_corpus)
    assert pairs_as_set(pairs) == pairs_as_set(small_finance_corpus.ground_truth)
    assert pairs_as_set(pairs) == brute_force_ground_truth(small_finance_corpus)


def test_vertical_split_shared_columns_become_exact_pairs(small_finance_corpus):
    plan = parse_plan('step "Postal Address" vertical_split overlap_ratio=0.4\n')
    derived, _ = apply_plan(small_finance_corpus, plan)
    children = [t.name for t in derived.tables if "__vertical_split" in t.name]
    assert len(children) == 2
    shared = [
        ev.params["shared"] for ev in derived.lineage if ev.result[0] == children[0]
    ][0]
    by_key = {p.key(): p for p in derived.ground_truth}
    for col in shared:
        key = tuple(sorted([(children[0], col), (children[1], col)]))
        assert tuple(key) in by_key
        assert by_key[tuple(key)].kind in ("exact", "pkfk")


def test_propagated_equals_brute_force_after_splits(small_finance_corpus):
    plan = parse_plan(
        'step "Postal Address" vertical_split overlap_ratio=0.4\n'
        'step "Postal Address__vertical_split_0_a" vertical_split overlap_ratio=0.5 scope=all\n'
    )
    derived, _ = apply_plan(small_finance_corpus, plan)
    assert pairs_as_set(derived.ground_truth) == brute_force_ground_truth(derived)


def test_semantic_rewrite_on_perturbed_column(small_finance_corpus):
    plan = parse_plan('step "Currency Name" semantic_value_perturb col=Currency\n')
    derived, _ = apply_plan(small_finance_corpus, plan)
    child = [t.name for t in derived.tables if "__semantic_value_perturb" in t.name][0]
    pair = [
        p
        for p in derived.ground_truth
        if {p.left[0], p.right[0]} == {"Currency Name", child} and "Currency" in (p.left[1], p.right[1])
    ]
    assert pair and all(p.kind == "semantic" for p in pair)
    assert all(p.mapping_id for p in pair)


def test_propagated_equals_brute_force_with_semantic_and_noise(small_finance_corpus):
    plan = parse_plan(
        "step * vertical_split overlap_ratio=0.2\n"
        'step "Postal Address" cryptify_headers+text_noise typo_rate=0.5\n'
        'step "Currency Name" semantic_value_perturb\n'
        'step "Organization" inject_nulls rate=0.1\n'
    )
    derived, _ = apply_plan(small_finance_corpus, plan)
    assert pairs_as_set(derived.ground_truth) == brute_force_ground_truth(derived)


def test_header_only_perturbation_preserves_kind_flips_difficulty(small_finance_corpus):
    plan = parse_plan('step "Financial Service Account" cryptify_headers\n')
    derived, _ = apply_plan(small_finance_corpus, plan)
    child = [t.name for t in derived.tables if "__cryptify" in t.name][0]
    pairs = [
        p
        for p in derived.ground_truth
        if {p.left[0], p.right[0]} == {"Financial Service Account", child}
    ]
    assert pairs
    for p in pairs:
        assert p.kind in ("exact", "pkfk")  # values untouched
    assert any(p.difficulty == "difficult" for p in pairs)


def test_no_closure_across_composed_mappings():
    # base -> d1 via h1, d1 -> d2 via h2: no single recorded mapping connects
    # base to d2, so the pair classifies none (mapping composition excluded)
    base = table("Base", [("c", "Tag", "text")], [("usd",), ("eur",)])
    d1 = table("D1", [("c", "Tag", "text")], [("US Dollar",), ("Euro Unit",)])
    d2 = table("D2", [("c", "Tag", "text")], [("US-DLR",), ("EUR-UNIT",)])
    events = [
        LineageEvent(
            event_id="ev00001", op="semantic_value_perturb",
            source=("Base", "c"), result=("D1", "c"),
            value_map={"usd": "US Dollar", "eur": "Euro Unit"},
        ),
        LineageEvent(
            event_id="ev00002", op="semantic_value_perturb",
            source=("D1", "c"), result=("D2", "c"),
            value_map={"US Dollar": "US-DLR", "Euro Unit": "EUR-UNIT"},
        ),
    ]
    corpus = corpus_of(base, d1, d2, lineage=events)
    pairs = recompute_ground_truth(corpus)
    assert [(p.key(), p.kind, p.mapping_id) for p in pairs] == [
        ((("Base", "c"), ("D1", "c")), "semantic", "ev00001"),
        ((("D1", "c"), ("D2", "c")), "semantic", "ev00002"),
    ]


def test_earliest_mapping_wins_across_sides():
    # ev00002 connects the pair through the left column, ev00001 through the
    # right one; the earlier event id is the pair's mapping, whatever the
    # lineage order and whichever side is asked first
    for lower, upper in (("A", "B"), ("B", "A")):
        a = table(lower, [("c", "Tag", "text")], [("x",), ("y",)])
        b = table(upper, [("c", "Tag", "text")], [("X",), ("Y",)])
        events = [
            LineageEvent(
                event_id="ev00002", op="semantic_value_perturb",
                source=(lower, "c"), result=(upper, "c"), value_map={"x": "X"},
            ),
            LineageEvent(
                event_id="ev00001", op="semantic_value_perturb",
                source=(upper, "c"), result=(lower, "c"), value_map={"Y": "y"},
            ),
        ]
        corpus = corpus_of(a, b, lineage=events)
        pairs = recompute_ground_truth(corpus)
        assert [(p.kind, p.mapping_id) for p in pairs] == [("semantic", "ev00001")]
        assert pairs_as_set(pairs) == brute_force_ground_truth(corpus)


_VALUES = ["a", "b", "c", "d", "e", "f", "g"]


@st.composite
def _mapped_corpora(draw):
    """2-4 small tables whose columns each carry one of two semantic types,
    so pairs across types are in play as well as pairs within one, plus 1-5
    value maps over the same values in a shuffled lineage order."""
    tables = []
    for i in range(draw(st.integers(2, 4))):
        n_rows = draw(st.integers(1, 3))
        cols = [
            draw(st.lists(st.sampled_from([""] + _VALUES), min_size=n_rows, max_size=n_rows))
            for _ in range(draw(st.integers(1, 3)))
        ]
        pk = None
        if draw(st.booleans()):
            cols[0] = draw(
                st.lists(st.sampled_from(_VALUES), min_size=n_rows, max_size=n_rows, unique=True)
            )
            pk = "c0"
        tables.append(
            table(
                f"T{i}",
                [(f"c{j}", draw(st.sampled_from(["Tag", "Other"])), "text") for j in range(len(cols))],
                list(zip(*cols)),
                pk=pk,
            )
        )
    maps = draw(
        st.lists(
            st.dictionaries(st.sampled_from(_VALUES), st.sampled_from(_VALUES), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    events = [
        LineageEvent(
            event_id=f"ev{k + 1:05d}", op="semantic_value_perturb",
            source=("T0", "c0"), result=("T1", "c0"), value_map=maps[k],
        )
        for k in draw(st.permutations(range(len(maps))))
    ]
    return corpus_of(*tables, lineage=events)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corpus=_mapped_corpora())
def test_ground_truth_equals_oracle_with_overlapping_mappings(corpus):
    assert pairs_as_set(recompute_ground_truth(corpus)) == brute_force_ground_truth(corpus)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(corpus=_mapped_corpora())
def test_joinable_columns_are_the_exact_and_pkfk_columns(corpus):
    expected = {}
    for p in recompute_ground_truth(corpus):
        if p.kind in ("exact", "pkfk"):
            for t, c in (p.left, p.right):
                expected.setdefault(t, set()).add(c)
    assert ValueIndex(corpus.tables).joinable() == expected


def _shared_pool_gateway() -> LlmGateway:
    return LlmGateway(
        GatewayConfig(mode="live"), transport=lambda req: shared_pool_completion(req.prompt)
    )


def test_llm_corpus_with_shared_values_matches_oracle():
    # every non-key column draws from one pool of nine values, so columns of
    # different semantic types share values and pairs cross types
    schema_set, _ = ontology_to_schemas(parse_ontology(finance_ontology_text(5)))
    plan = plan_generation(build_dependency_graph(schema_set), row_caps=10, backend="llm")
    base, _ = generate_base_tables(schema_set, plan, gateway=_shared_pool_gateway(), seed=1)
    oracle = brute_force_ground_truth(base)
    assert any(
        base.table(l[0]).schema.column(l[1]).semantic_type
        != base.table(r[0]).schema.column(r[1]).semantic_type
        for l, r, *_ in oracle
    )
    assert pairs_as_set(base.ground_truth) == oracle
    derived, _ = apply_plan(base, default_plan())
    assert pairs_as_set(derived.ground_truth) == brute_force_ground_truth(derived)


def _count_recomputes(monkeypatch) -> list:
    import lakeforge.perturb as perturb_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return recompute_ground_truth(*args, **kwargs)

    monkeypatch.setattr(perturb_module, "recompute_ground_truth", counting)
    return calls


def test_carried_ground_truth_equals_fresh_recompute_over_rounds(small_finance_corpus, monkeypatch):
    # the semantic_value_perturb step reads joinable columns in each of three
    # rounds; the ground truth itself is computed once, at the end
    calls = _count_recomputes(monkeypatch)
    plan = parse_plan(
        "target 13\n"
        'step "Currency Name" vertical_split overlap_ratio=0.4\n'
        'step "Currency Name" semantic_value_perturb\n'
    )
    derived, _ = apply_plan(small_finance_corpus, plan)
    assert len(calls) == 1
    assert pairs_as_set(derived.ground_truth) == brute_force_ground_truth(derived)


def test_perturbing_again_cannot_replace_a_table(small_finance_corpus):
    # perturbing a derived corpus again can reach a derivative name the input
    # already holds; the plan fails rather than rebuild that table, so no
    # pair found on the old table can outlive it
    first, _ = apply_plan(
        small_finance_corpus,
        parse_plan('step "Currency Name" text_noise typo_rate=1\n'),
    )
    assert first.has_table("Currency Name__text_noise_0")
    assert pairs_as_set(first.ground_truth) == brute_force_ground_truth(first)
    plan = parse_plan('step "Currency Name" text_noise typo_rate=1\n')
    with pytest.raises(PerturbationError, match="step 0: derivative 'Currency Name__text_noise_0'"):
        apply_plan(first, plan)


def test_a_later_mapping_connects_a_pair_sharing_no_value():
    a = table("A", [("id", "Key", "text"), ("x", "Tag", "text")], [("1", "p"), ("2", "q")], pk="id")
    b = table("B", [("id", "Key", "text"), ("y", "Tag", "text")], [("1", "r"), ("3", "s")], pk="id")
    first = recompute_ground_truth(corpus_of(a, b))
    assert [(p.key(), p.kind) for p in first] == [((("A", "id"), ("B", "id")), "exact")]
    ev = LineageEvent(
        event_id="ev00001", op="text_noise", source=("A", "x"), result=("B", "y"), value_map={"p": "r"}
    )
    corpus = corpus_of(a, b, lineage=[ev])
    second = recompute_ground_truth(corpus)
    assert second[0] == first[0]
    assert [(p.key(), p.kind, p.mapping_id) for p in second[1:]] == [
        ((("A", "x"), ("B", "y")), "semantic", "ev00001")
    ]
    assert pairs_as_set(second) == brute_force_ground_truth(corpus)


# ---------------------------------------------------------------------------
# the value index
# ---------------------------------------------------------------------------


def _oracle_joinable(corpus) -> dict[str, set[str]]:
    """Table -> its columns in an exact or pkfk pair of the oracle."""
    out = {}
    for left, right, kind, *_ in brute_force_ground_truth(corpus):
        if kind in ("exact", "pkfk"):
            for t, c in (left, right):
                out.setdefault(t, set()).add(c)
    return out


def test_index_grown_and_shrunk_equals_a_fresh_one(small_finance_corpus):
    derived, _ = apply_plan(small_finance_corpus, default_plan())
    tables = derived.tables
    index = ValueIndex([])
    for t in reversed(tables):
        index.add(t)
    dropped = {t.name for t in tables[::3]}
    for name in sorted(dropped):
        index.remove(name)
    kept = corpus_of(*(t for t in tables if t.name not in dropped), lineage=derived.lineage)
    fresh = ValueIndex(kept.tables)
    assert index.joinable() == fresh.joinable() == _oracle_joinable(kept)
    pairs = recompute_ground_truth(kept, index=index)
    assert pairs == recompute_ground_truth(kept, index=fresh) == recompute_ground_truth(kept)
    assert pairs_as_set(pairs) == brute_force_ground_truth(kept)
    assert any(p.kind == "semantic" for p in pairs)
    # a removed table comes back as it was
    for t in tables:
        if t.name in dropped:
            index.add(t)
    assert recompute_ground_truth(derived, index=index) == derived.ground_truth


def test_all_null_column_never_pairs():
    a = table("A", [("n", "Tag", "text"), ("x", "Tag", "text")], [("", "1"), ("", "2")])
    b = table("B", [("n", "Tag", "text"), ("y", "Tag", "text")], [("", "2")])
    ev = LineageEvent(
        event_id="ev00001", op="text_noise", source=("A", "n"), result=("B", "n"),
        value_map={"": "2", "1": ""},
    )
    corpus = corpus_of(a, b, lineage=[ev])
    index = ValueIndex(corpus.tables)
    # both all-null columns fall in the one empty class
    assert index.class_of[("A", "n")] == index.class_of[("B", "n")]
    assert index.joinable() == {"A": {"x"}, "B": {"y"}}
    pairs = recompute_ground_truth(corpus, index=index)
    assert [(p.key(), p.kind) for p in pairs] == [((("A", "x"), ("B", "y")), "exact")]
    assert pairs_as_set(pairs) == brute_force_ground_truth(corpus)


def test_one_tables_columns_in_one_class_never_pair():
    a = table("A", [("x", "Tag", "text"), ("y", "Tag", "text")], [("1", "1"), ("2", "2")], pk="x")
    index = ValueIndex([a])
    assert index.class_of[("A", "x")] == index.class_of[("A", "y")]
    assert index.joinable() == {}
    assert recompute_ground_truth(corpus_of(a), index=index) == []
    b = table("B", [("z", "Tag", "text")], [("2",)])
    index.add(b)
    corpus = corpus_of(a, b)
    pairs = recompute_ground_truth(corpus, index=index)
    assert [(p.key(), p.kind, p.key_side) for p in pairs] == [
        ((("A", "x"), ("B", "z")), "pkfk", "left"),
        ((("A", "y"), ("B", "z")), "exact", None),
    ]
    assert pairs_as_set(pairs) == brute_force_ground_truth(corpus)


def test_identical_key_copies_are_pkfk_left():
    # each side is a key containing the other: the left side wins
    a = table("A", [("id", "Key", "text")], [("1",), ("2",)], pk="id")
    b = table("B", [("id", "Key", "text")], [("2",), ("1",)], pk="id")
    corpus = corpus_of(b, a)
    pairs = recompute_ground_truth(corpus)
    assert [(p.key(), p.kind, p.key_side) for p in pairs] == [
        ((("A", "id"), ("B", "id")), "pkfk", "left")
    ]
    assert pairs_as_set(pairs) == brute_force_ground_truth(corpus)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(plan=random_plans())
def test_carried_index_equals_fresh_recompute_over_random_plans(small_finance_corpus, plan):
    import lakeforge.perturb as perturb_module

    run_step, joinable = perturb_module._run_step, ValueIndex.joinable
    starting: list[dict] = []
    snapshots: list[tuple[dict, dict]] = []  # (a step's starting tables, its joinable columns)

    def recording_step(step, k, tables, *args):
        starting.append(dict(tables))
        return run_step(step, k, tables, *args)

    def recording_joinable(self):
        out = joinable(self)
        snapshots.append((starting[-1], out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb_module, "_run_step", recording_step)
        mp.setattr(ValueIndex, "joinable", recording_joinable)
        derived, _ = apply_plan(small_finance_corpus, plan)
    assert snapshots
    for tables, out in snapshots:
        assert out == ValueIndex(tables.values()).joinable()
    assert derived.ground_truth == recompute_ground_truth(derived)
    assert pairs_as_set(derived.ground_truth) == brute_force_ground_truth(derived)
