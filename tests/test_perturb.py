import hashlib
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import (
    ALL_OPS,
    FIXTURES,
    GROWTH_STEPS,
    apply_value_noise,
    filled,
    random_plans,
    reference_levenshtein,
    uppercase_variant_transport,
)

from lakeforge.common import PerturbationError, round_half_up
from lakeforge.gateway import GatewayConfig, LlmGateway
from lakeforge.ground_truth import ValueIndex, recompute_ground_truth
from lakeforge.model import (
    Column,
    TableData,
    TableSchema,
    load_corpus,
    replay_mapping,
    save_corpus,
)
import lakeforge.perturb as perturb_module
from lakeforge.perturb import OPS, SHAPE, VALUE, apply_plan, default_plan, parse_plan


def wide_table(n_cols=10, n_rows=20, name="Wide"):
    cols = [Column(f"col {i}", f"Tag {i}", "text") for i in range(n_cols)]
    rows = [tuple(f"v{i}_{j % 4}" for j in range(n_cols)) for i in range(n_rows)]
    return TableData(schema=TableSchema(name, cols, primary_key=None), rows=rows)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def test_vertical_split_shared_count():
    t = wide_table(10)
    (a, b), event = OPS["vertical_split"].handler(t, filled("vertical_split", overlap_ratio=0.2), 1, "W")
    shared = set(event["shared"])
    assert len(shared) == 2
    assert set(a.schema.column_names()) | set(b.schema.column_names()) == set(
        t.schema.column_names()
    )
    assert set(a.schema.column_names()) & set(b.schema.column_names()) == shared
    assert len(a.rows) == len(t.rows) and len(b.rows) == len(t.rows)


def test_vertical_split_floor_rule():
    t = wide_table(4)
    _children, event = OPS["vertical_split"].handler(t, filled("vertical_split", overlap_ratio=0.01), 1, "W")
    shared = event["shared"]
    assert len(shared) == 1  # max(1, round(0.01 * 4))


def test_vertical_split_unique_key_side_has_no_duplicates():
    cols = [Column("k", "Key", "text"), Column("x", "X", "text"),
            Column("y", "Y", "text"), Column("z", "Z", "text"),
            Column("w", "W", "text"), Column("q", "Q", "text")]
    rows = [(f"k{i % 3}", f"x{i}", f"y{i}", f"z{i}", f"w{i}", f"q{i}") for i in range(12)]
    t = TableData(schema=TableSchema("T", cols, primary_key=None), rows=rows)
    (a, b), event = OPS["vertical_split"].handler(
        t, filled("vertical_split", overlap_ratio=0.5, unique_key=True), 3, "T"
    )
    key_idx = [a.schema.column_index(c) for c in event["shared"]]
    keys = [tuple(r[i] for i in key_idx) for r in a.rows]
    assert len(keys) == len(set(keys))  # duplicate-count oracle: zero dupes
    assert len(b.rows) == len(t.rows)


def test_vertical_split_single_column_errors():
    t = TableData(
        schema=TableSchema("T", [Column("only", "Tag", "text")], None), rows=[("a",)]
    )
    with pytest.raises(PerturbationError, match="single-column"):
        OPS["vertical_split"].handler(t, filled("vertical_split", overlap_ratio=0.5), 0, "T")


def test_horizontal_split_overlap_counts():
    t = wide_table(3, n_rows=100)
    (a, b), _event = OPS["horizontal_split"].handler(t, filled("horizontal_split", row_overlap_ratio=0.1), 2, "W")
    sa = {tuple(r) for r in a.rows}
    sb = {tuple(r) for r in b.rows}
    # rows in this fixture are unique, so set arithmetic counts rows
    assert len(sa & sb) == 10
    assert sa | sb == {tuple(r) for r in t.rows}
    assert a.schema.column_names() == t.schema.column_names()


def test_horizontal_split_zero_ratio_disjoint_halves():
    t = wide_table(3, n_rows=10)
    (a, b), _event = OPS["horizontal_split"].handler(t, filled("horizontal_split", row_overlap_ratio=0.0), 2, "W")
    assert not ({tuple(r) for r in a.rows} & {tuple(r) for r in b.rows})
    assert len(a.rows) + len(b.rows) == 10


def test_horizontal_split_seven_rows_half():
    t = wide_table(3, n_rows=7)
    (a, b), _event = OPS["horizontal_split"].handler(t, filled("horizontal_split", row_overlap_ratio=0.5), 2, "W")
    shared = {tuple(r) for r in a.rows} & {tuple(r) for r in b.rows}
    assert len(shared) == 4  # round-half-up of 3.5
    assert len(a.rows) == 6 and len(b.rows) == 5


def test_horizontal_split_requires_two_rows():
    t = wide_table(3, n_rows=1)
    with pytest.raises(PerturbationError, match="< 2 rows"):
        OPS["horizontal_split"].handler(t, filled("horizontal_split", row_overlap_ratio=0.5), 0, "W")


def test_remove_columns_and_sample_rows():
    t = wide_table(5, n_rows=10)
    (kept,), _event = OPS["remove_columns"].handler(t, filled("remove_columns", keep=["col 0", "col 2"]), 0, "W")
    assert kept.schema.column_names() == ["col 0", "col 2"]
    (sampled,), _event = OPS["sample_rows"].handler(t, filled("sample_rows", fraction=0.3), 1, "W")
    assert len(sampled.rows) == 3


def test_projection_rows_are_tuples_of_the_kept_columns():
    t = wide_table(5, n_rows=10)
    (one,), _event = OPS["remove_columns"].handler(t, filled("remove_columns", keep=["col 3"]), 0, "W")
    assert one.rows == [(r[3],) for r in t.rows]
    (two,), _event = OPS["remove_columns"].handler(t, filled("remove_columns", keep=["col 4", "col 1"]), 0, "W")
    assert two.rows == [(r[1], r[4]) for r in t.rows]


# ---------------------------------------------------------------------------
# value noise
# ---------------------------------------------------------------------------


def test_inject_nulls_exact_count():
    values = [f"v{i}" for i in range(100)]
    out, vmap, cells = apply_value_noise(values, "inject_nulls", {"rate": 0.1}, seed=5)
    assert sum(1 for v in out if v == "") == 10
    assert vmap is None and len(cells) == 10
    assert replay_mapping(values, vmap, cells) == out


def test_numeric_jitter_bound_and_mapping():
    values = ["200"] * 5 + ["1000"]
    out, vmap, cells = apply_value_noise(values, "numeric_jitter", {"rel_scale": 0.01}, seed=7)
    for old, new in (vmap or {}).items():
        assert abs(int(new) - int(old)) <= max(1, round(int(old) * 0.0101))
    assert replay_mapping(values, vmap, cells) == out
    # same original value jitters identically everywhere (value-consistent h)
    assert len({out[i] for i in range(5)}) == 1


def test_numeric_jitter_decimal_format_preserved():
    out, vmap, _ = apply_value_noise(["100042.17"], "numeric_jitter", {"rel_scale": 0.01}, seed=1)
    assert "." in out[0] and len(out[0].split(".")[1]) == 2


def test_numeric_jitter_rejects_non_numeric():
    with pytest.raises(PerturbationError, match="non-numeric"):
        apply_value_noise(["abc"], "numeric_jitter", {}, seed=1)


def test_typo_noise_single_edit():
    out, vmap, _ = apply_value_noise(["Paris"], "text_noise", {"typo_rate": 1.0}, seed=3)
    assert len(vmap) == 1
    old, new = next(iter(vmap.items()))
    assert reference_levenshtein(old, new) == 1


def test_duplicates_increase_repetition():
    values = [f"v{i}" for i in range(50)]
    out, vmap, cells = apply_value_noise(values, "duplicates", {"rate": 0.3}, seed=9)
    assert vmap is None
    assert len(set(out)) < len(set(values))
    assert replay_mapping(values, vmap, cells) == out


def test_text_noise_modes():
    out, vmap, _ = apply_value_noise(
        ["482 Maple Street"], "text_noise", {"mode": "abbreviations"}, seed=1
    )
    assert out == ["482 Maple St."]
    out, vmap, _ = apply_value_noise(
        ["482 Maple Street"], "text_noise", {"mode": "word_removal"}, seed=1
    )
    assert len(out[0].split(" ")) == 2


def test_format_noise_dates():
    out, vmap, _ = apply_value_noise(["2031-04-17"], "format_noise", {"kind": "dates"}, seed=1)
    assert out == ["17.04.2031"]
    assert vmap == {"2031-04-17": "17.04.2031"}


# ---------------------------------------------------------------------------
# schema ops
# ---------------------------------------------------------------------------


def test_cryptify_person_id():
    schema = TableSchema("T", [Column("Person ID", "Person ID", "text")], None)
    out, mapping = OPS["cryptify_headers"].handler(schema, filled("cryptify_headers"), 0)
    assert mapping["Person ID"] == "PID"


def test_cryptify_short_single_word():
    schema = TableSchema("T", [Column("id", "Key", "text")], None)
    out, mapping = OPS["cryptify_headers"].handler(schema, filled("cryptify_headers"), 0)
    assert mapping["id"] == "ID"


def test_cryptify_collision_suffix():
    schema = TableSchema(
        "T",
        [Column("Account Number", "A", "text"), Column("Area Name", "B", "text")],
        None,
    )
    out, mapping = OPS["cryptify_headers"].handler(schema, filled("cryptify_headers"), 0)
    assert mapping["Account Number"] == "AN"
    assert mapping["Area Name"] == "AN1"


def test_cryptify_preserves_semantic_types_and_pk():
    schema = TableSchema(
        "T",
        [Column("Person ID", "Person ID", "integer"), Column("Full Name", "Person Name", "text")],
        primary_key="Person ID",
    )
    out, mapping = OPS["cryptify_headers"].handler(schema, filled("cryptify_headers"), 0)
    assert out.primary_key == "PID"
    assert out.columns[0].semantic_type == "Person ID"


def test_header_typos_rate():
    schema = TableSchema(
        "T", [Column(f"column {i}", f"T{i}", "text") for i in range(10)], None
    )
    out, mapping = OPS["header_typos"].handler(schema, filled("header_typos", header_rate=0.3), 4)
    assert len(mapping) == 3
    for old, new in mapping.items():
        assert reference_levenshtein(old, new) == 1


# ---------------------------------------------------------------------------
# semantic perturbation
# ---------------------------------------------------------------------------


def _semantic(corpus, table, column, gateway=None, backend="offline"):
    """The semantic_value_perturb handler on one column of corpus, as a step
    would run it: (new values, value_map)."""
    t = corpus.table(table)
    joinable = ValueIndex(corpus.tables).joinable().get(table, set())
    source = perturb_module._Source(t, column, joinable, gateway, 0, [])
    values, value_map, _cells = OPS["semantic_value_perturb"].handler(
        t.column_values(column), filled("semantic_value_perturb", backend=backend), None, source
    )
    return values, value_map


def test_semantic_perturb_requires_joinable_column(small_finance_corpus):
    with pytest.raises(PerturbationError, match="participates in no"):
        _semantic(small_finance_corpus, "Postal Address", "Zipcode")


def test_semantic_perturb_offline_currency(small_finance_corpus):
    values, mapping = _semantic(small_finance_corpus, "Currency Name", "Currency")
    assert mapping.get("USD") == "US Dollar" or "USD" not in mapping or True
    originals = small_finance_corpus.table("Currency Name").column_values("Currency")
    non_null = {v for v in originals if v}
    assert set(mapping) == non_null  # total over distinct values
    assert len(set(mapping.values())) == len(mapping)  # injective (bijection onto image)
    assert all(mapping[v] != v for v in mapping)
    assert values == [mapping.get(v, v) for v in originals]


def test_semantic_perturb_llm_double_uppercases(small_finance_corpus):
    gw = LlmGateway(GatewayConfig(mode="live"), transport=uppercase_variant_transport)
    values, mapping = _semantic(
        small_finance_corpus, "Currency Name", "Currency", gateway=gw, backend="llm"
    )
    originals = small_finance_corpus.table("Currency Name").column_values("Currency")
    changed = {v for v in originals if v and v.upper() != v}
    assert set(mapping) == changed  # upper-case originals come back unchanged -> no entry
    for old, new in mapping.items():
        assert new == old.upper()


def test_semantic_perturb_llm_arity_mismatch_leaves_chunk(small_finance_corpus):
    gw = LlmGateway(GatewayConfig(mode="live"), transport=lambda req: "garbled")
    values, mapping = _semantic(
        small_finance_corpus, "Currency Name", "Currency", gateway=gw, backend="llm"
    )
    assert mapping is None  # no value changed
    assert values == small_finance_corpus.table("Currency Name").column_values("Currency")
    # the warning reaches the list apply_plan returns, with the step's index
    plan = parse_plan('step Ghost text_noise\nstep "Currency Name" semantic_value_perturb backend=llm col=Currency\n')
    derived, warnings = apply_plan(small_finance_corpus, plan, gateway=gw)
    assert warnings == [
        "step 0: selector 'Ghost' matched no table",
        "step 1: semantic_value_perturb left a chunk of 'Currency Name' column 'Currency' "
        "unperturbed (response arity mismatch)",
        "step 1: semantic_value_perturb changed no cell of 'Currency Name'",
    ]
    assert derived.table_names() == small_finance_corpus.table_names()


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_parse_plan_line_errors():
    with pytest.raises(PerturbationError, match="line 2"):
        parse_plan("step * vertical_split\nstep *\n")
    with pytest.raises(PerturbationError, match="line 1.*unknown op"):
        parse_plan("step * explode\n")
    with pytest.raises(PerturbationError, match="rate must be within"):
        parse_plan("step * inject_nulls rate=1.5\n")
    with pytest.raises(PerturbationError, match="overlap_ratio"):
        parse_plan("step * vertical_split overlap_ratio=0\n")
    with pytest.raises(PerturbationError, match="composite"):
        parse_plan("step * vertical_split+text_noise\n")
    # each value is checked as its token is read: the first bad one is named
    with pytest.raises(PerturbationError, match="line 1: text_noise mode must be one of"):
        parse_plan("step * text_noise mode=bogus typo_rate=2 typo_rat=1\n")


def test_each_numeric_range_admits_its_closed_ends_only():
    # every declared range, read independently of _check_param: a "[" or "]"
    # end is in the range, a "(" or ")" end and anything beyond it are not
    for op, spec in OPS.items():
        for name, (default, accepts) in spec.params.items():
            if not isinstance(accepts, str):
                continue
            assert parse_plan(f"step * {op} {name}={default}\n").steps[0].params == {name: default}
            lo, hi = (float(end) for end in accepts[1:-1].split(", "))
            for value, admitted in (
                (lo, accepts[0] == "["), (hi, accepts[-1] == "]"), (lo - 0.5, False), (hi + 0.5, False)
            ):
                text = f"step * {op} {name}={value}\n"
                if admitted:
                    assert parse_plan(text).steps[0].params == {name: value}
                else:
                    message = re.escape(f"line 1: {name} must be within {accepts}")
                    with pytest.raises(PerturbationError, match=message):
                        parse_plan(text)


def test_default_plan_parses():
    plan = default_plan()
    assert len(plan.steps) == 4


def test_empty_plan_noop_marker(small_finance_corpus):
    derived, warnings = apply_plan(small_finance_corpus, parse_plan(""))
    assert [t.name for t in derived.tables] == [t.name for t in small_finance_corpus.tables]
    assert derived.lineage[-1].op == "noop"


def test_selector_matching_nothing_warns(small_finance_corpus):
    derived, warnings = apply_plan(
        small_finance_corpus, parse_plan('step "No Such Table" cryptify_headers\n')
    )
    assert any("matched no table" in w for w in warnings)


def test_one_vertical_split_per_base_table_counts(small_finance_corpus):
    # 6 base tables + 2 children each = 18 when originals are retained
    plan = parse_plan("step * vertical_split overlap_ratio=0.2\n")
    derived, _ = apply_plan(small_finance_corpus, plan)
    assert len(derived.tables) == 18
    assert derived.stats.base_tables == 6


def test_derived_tables_all_trace_to_base(small_finance_corpus):
    derived, _ = apply_plan(small_finance_corpus, default_plan())
    base = set(derived.base_table_names())
    derived_names = {t.name for t in derived.tables} - base
    result_map = {}
    for ev in derived.lineage:
        if ev.op != "noop":
            result_map.setdefault(ev.result[0], ev.source[0])
    for name in derived_names:
        cur = name
        hops = 0
        while cur not in base:
            assert cur in result_map, f"{name} has no lineage chain to a base table"
            cur = result_map[cur]
            hops += 1
            assert hops < 10
        assert cur in base


def test_value_mapping_replay_reproduces_columns(small_finance_corpus):
    plan = parse_plan(
        'step "Organization" text_noise typo_rate=0.5\n'
        'step "Organization" inject_nulls rate=0.2\n'
    )
    derived, _ = apply_plan(small_finance_corpus, plan)
    for ev in derived.lineage:
        if ev.op in ("text_noise", "inject_nulls"):
            src_table, src_col = ev.source
            dst_table, dst_col = ev.result
            src = derived.table(src_table).column_values(src_col)
            dst = derived.table(dst_table).column_values(dst_col)
            assert replay_mapping(src, ev.value_map, ev.cell_changes) == dst


def test_plan_determinism(small_finance_corpus, tmp_path):
    d1, _ = apply_plan(small_finance_corpus, default_plan())
    d2, _ = apply_plan(small_finance_corpus, default_plan())
    save_corpus(d1, tmp_path / "a")
    save_corpus(d2, tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_plan_target_repeats_steps(small_finance_corpus):
    plan = parse_plan("target 30\nstep * vertical_split overlap_ratio=0.2\n")
    derived, _ = apply_plan(small_finance_corpus, plan)
    assert len(derived.tables) >= 30


def test_default_plan_round_trips_through_save(tmp_path, small_finance_corpus):
    derived, _ = apply_plan(small_finance_corpus, default_plan())
    save_corpus(derived, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded == derived


def test_plan_header_typos_and_shape_ops(small_finance_corpus):
    plan = parse_plan(
        'step "Organization" header_typos header_rate=0.5\n'
        'step "Organization" horizontal_split row_overlap_ratio=0.2\n'
        'step "Organization" remove_columns keep=id,Legal*\n'
        'step "Organization" sample_rows fraction=0.4\n'
    )
    derived, warnings = apply_plan(small_finance_corpus, plan)
    names = {t.name for t in derived.tables}
    assert any("__header_typos_" in n for n in names)
    assert sum(1 for n in names if "__horizontal_split_" in n) == 2
    kept = derived.table("Organization__remove_columns_2")
    assert kept.schema.column_names() == ["id", "Legal Name"]
    sampled = derived.table("Organization__sample_rows_3")
    assert len(sampled.rows) == 12  # 0.4 * 30
    # horizontal split children record the unionability marker in lineage
    h_events = [ev for ev in derived.lineage if ev.op == "horizontal_split"]
    assert h_events and all(ev.params.get("union_task") for ev in h_events)


def test_semantic_perturb_on_derived_table_via_scope_all(small_finance_corpus):
    plan = parse_plan(
        'step "Currency Name" vertical_split overlap_ratio=0.4\n'
        'step "Currency Name__vertical_split_0_a" semantic_value_perturb scope=all\n'
    )
    derived, warnings = apply_plan(small_finance_corpus, plan)
    assert any("__semantic_value_perturb_" in t.name for t in derived.tables)


def test_originals_drop_directive(small_finance_corpus):
    plan = parse_plan(
        "originals drop\n"
        'step "Currency Name" vertical_split overlap_ratio=0.4\n'
        'step "Organization" text_noise typo_rate=0\n'
    )
    derived, warnings = apply_plan(small_finance_corpus, plan)
    names = {t.name for t in derived.tables}
    assert "Currency Name" not in names
    assert sum(1 for n in names if "__vertical_split" in n) == 2
    assert len(derived.tables) == 7  # 6 bases - 1 consumed + 2 children
    # a step that changed no cell adds no table and consumes no source
    assert "Organization" in names
    assert warnings == ["step 1: text_noise changed no cell of 'Organization'"]


def test_composite_value_op_before_header_op(small_finance_corpus):
    # value event result columns must carry post-rename names when the header
    # op runs after the value op in the chain
    plan = parse_plan('step "Organization" text_noise+cryptify_headers typo_rate=0.5\n')
    derived, _ = apply_plan(small_finance_corpus, plan)
    child = [t for t in derived.tables if "__text_noise_cryptify_headers" in t.name][0]
    value_events = [ev for ev in derived.lineage if ev.op == "text_noise"]
    assert value_events
    for ev in value_events:
        assert ev.result[0] == child.name
        assert ev.result[1] in child.schema.column_names()
        src = derived.table(ev.source[0]).column_values(ev.source[1])
        dst = child.column_values(ev.result[1])
        assert replay_mapping(src, ev.value_map, ev.cell_changes) == dst
    # ground truth recompute works (would raise on a dangling column)
    from helpers import brute_force_ground_truth, pairs_as_set
    assert pairs_as_set(derived.ground_truth) == brute_force_ground_truth(derived)


# Every op, both composite orders (a header op before and after a value op),
# col=, seed_offset= and quoted selectors. Shared by the two golden plans.
_GOLDEN_STEPS = """\
step "Organization" vertical_split overlap_ratio=0.4 unique_key=true
step "Currency Name" horizontal_split row_overlap_ratio=0.2
step "Postal Address" remove_columns keep=postal_address_id,City,Zip*
step "Monetary Amount" sample_rows fraction=0.5 seed_offset=3
step "Listed Security" numeric_jitter rel_scale=0.05
step "Listed Security" duplicates rate=0.2 col=Legal*
step "Postal Address" inject_nulls rate=0.1 col=Zipcode
step "Postal Address" format_noise kind=addresses
step "Financial Service Account" format_noise kind=dates
step "Currency Name" text_noise mode=synonyms
step "Organization" text_noise mode=word_removal
step * cryptify_headers+text_noise typo_rate=0.3
step "Listed Security" numeric_jitter+header_typos header_rate=0.5 rel_scale=0.02
step "Monetary Amount" header_typos header_rate=0.5
step "Currency Name" semantic_value_perturb backend=offline
"""


@pytest.mark.parametrize(
    "plan_text, manifest_sha256",
    [
        (
            # repeated rounds, plus a step that reads derived tables
            "target 40\n"
            + _GOLDEN_STEPS
            + 'step "Organization__vertical_split_*" semantic_value_perturb scope=all\n',
            "db324c5faf038602900a3e15ba63c9a4a8e9b3a9831203ac9aca484f097a272d",
        ),
        (
            "originals drop\n" + _GOLDEN_STEPS,
            "2236692d49fcae3ae6fdc7b5b2e9a6717170f4f589c1839842b2dfefb5a0eeec",
        ),
    ],
    ids=["target-scope-all", "originals-drop"],
)
def test_golden_manifest_every_op(small_finance_corpus, tmp_path, plan_text, manifest_sha256):
    # pins the whole derived corpus (tables, lineage params, value maps, cell
    # changes, ground truth) so a change to op dispatch shows as a new digest
    derived, _ = apply_plan(small_finance_corpus, parse_plan(plan_text))
    assert {ev.op for ev in derived.lineage} == set(ALL_OPS)
    save_corpus(derived, tmp_path)
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == manifest_sha256


def test_every_op_plan_records_every_op(fig1_corpus):
    # CI perturbs fig1 with this plan under two hash seeds and diffs the trees,
    # so it must reach every op
    plan = parse_plan((FIXTURES / "every_op.plan").read_text(encoding="utf-8"))
    derived, warnings = apply_plan(fig1_corpus, plan)
    assert {ev.op for ev in derived.lineage} == set(OPS)
    assert warnings == []


def _assert_value_events_record_what_their_step_gave(derived, plan):
    """Each value event's params are the values its step's line gave for the
    names its op declares: no default filled in, no other op's parameter.
    Returns the ops of the events checked."""
    value_events = [ev for ev in derived.lineage if ev.op in OPS and OPS[ev.op].kind == VALUE]
    for ev in value_events:
        # a derivative is <source>__<ops>_<k>, k counting steps over all rounds
        step = plan.steps[int(ev.result[0].rsplit("_", 1)[1]) % len(plan.steps)]
        assert ev.op in step.ops
        assert ev.params == {k: v for k, v in step.params.items() if k in OPS[ev.op].params}
    return {ev.op for ev in value_events}


def test_ops_that_can_share_a_step_declare_distinct_parameters():
    # a composite chains schema ops with at most one value op, so each key of
    # a composite names one parameter; no op declares a step-level key
    for op, spec in OPS.items():
        assert not spec.params.keys() & {"col", "scope", "seed_offset"}, op
    for a, b in itertools.combinations(OPS, 2):
        kinds = {OPS[a].kind, OPS[b].kind}
        if SHAPE not in kinds and kinds != {VALUE}:
            assert not OPS[a].params.keys() & OPS[b].params.keys(), (a, b)


def test_composite_gives_each_op_its_own_rate(small_finance_corpus):
    plan = parse_plan('step "Organization" header_typos+inject_nulls header_rate=1 rate=0.2\n')
    derived, warnings = apply_plan(small_finance_corpus, plan)
    assert warnings == []
    source = small_finance_corpus.table("Organization")
    (header_event,) = [ev for ev in derived.lineage if ev.op == "header_typos"]
    assert set(header_event.params["header_map"]) == set(source.schema.column_names())
    null_events = [ev for ev in derived.lineage if ev.op == "inject_nulls"]
    assert null_events
    for ev in null_events:
        assert ev.params == {"rate": 0.2}
        assert len(ev.cell_changes) == round_half_up(0.2 * len(source.rows))


# value steps that apply to small_finance_corpus in any round, each giving its
# op's parameters in a different way: with a schema op's, with col=,
# scope= and seed_offset=, or none at all
_VALUE_STEPS = (
    'step "Listed Security" numeric_jitter+header_typos header_rate=0.5 rel_scale=0.02',
    'step "Organization" header_typos+inject_nulls header_rate=1 rate=0.2',
    'step "Postal Address" text_noise+cryptify_headers mode=abbreviations typo_rate=0.5',
    'step "Listed Security" duplicates rate=0.3 col=Legal* seed_offset=2',
    'step "Monetary Amount*" inject_nulls scope=all',
    'step "Postal Address" format_noise kind=addresses',
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(plan=random_plans(GROWTH_STEPS + _VALUE_STEPS))
def test_value_events_record_the_parameters_their_step_gave(small_finance_corpus, plan):
    derived, _ = apply_plan(small_finance_corpus, plan)
    _assert_value_events_record_what_their_step_gave(derived, plan)


def test_golden_and_every_op_plans_record_the_parameters_their_steps_gave(
    small_finance_corpus, fig1_corpus
):
    for corpus, text in (
        (small_finance_corpus, "target 40\n" + _GOLDEN_STEPS),
        (fig1_corpus, (FIXTURES / "every_op.plan").read_text(encoding="utf-8")),
    ):
        plan = parse_plan(text)
        derived, _ = apply_plan(corpus, plan)
        checked = _assert_value_events_record_what_their_step_gave(derived, plan)
        assert checked == {op for op, spec in OPS.items() if spec.kind == VALUE}


def test_rounds_drop_plan_snapshots_in_a_later_round_and_drops(fig1_corpus):
    # CI perturbs fig1 with this plan under two hash seeds and diffs the trees,
    # so it must reach a second round's joinability snapshot and the drop of
    # consumed base tables
    plan = parse_plan((FIXTURES / "rounds_drop.plan").read_text(encoding="utf-8"))
    derived, warnings = apply_plan(fig1_corpus, plan)
    steps = len(plan.steps)
    semantic_steps = {
        int(ev.result[0].rsplit("_", 1)[1])
        for ev in derived.lineage
        if ev.op == "semantic_value_perturb"
    }
    assert any(k >= steps for k in semantic_steps)
    assert derived.base_table_names() == ["Postal Address"]
    assert warnings == []
    assert derived.ground_truth == recompute_ground_truth(derived)


def test_op_lists_in_docs_follow_the_op_table():
    # the module docstring names each kind's ops in table order
    block = perturb_module.__doc__.split("Ops by kind", 1)[1].split("\n\n")[1]
    by_kind = {}
    for line in block.splitlines():
        if ":" in line:
            kind, line = line.split(":")
            kind = kind.strip()
        by_kind.setdefault(kind, []).extend(line.split())
    assert by_kind == {
        kind: [op for op, spec in OPS.items() if spec.kind == kind]
        for kind in ("value", "schema", "shape")
    }

    # the README table has one row per op in table order, with kind and each
    # parameter as `name=default` followed by its range, its choices or (for
    # a value of the default's type) prose; the default is read as a plan
    # step reads it
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    documented = []
    for op, kind, cell in re.findall(r"^\| `(\w+)` \| (\w+) \|(.*)\|$", readme, flags=re.M):
        declared = {}
        for entry in filter(None, (e.strip() for e in cell.replace("\\|", "|").split(";"))):
            name, default, rest = re.fullmatch(r"`(\w+)=([^`]*)`(.*)", entry).groups()
            bounds, choices = re.fullmatch(r" in ([\[(]\S+, \S+[\])])| of (\S+)|, .*", rest).groups()
            default = parse_plan(f"step * {op} {name}={default}\n").steps[0].params[name]
            declared[name] = (default, bounds or (choices and tuple(choices.split("|"))))
        documented.append((op, kind, declared))
    assert documented == [(op, spec.kind, spec.params) for op, spec in OPS.items()]
