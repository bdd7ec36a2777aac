import hashlib
import re
from pathlib import Path

import pytest

from helpers import reference_levenshtein, uppercase_variant_transport

from lakeforge.common import PerturbationError
from lakeforge.gateway import GatewayConfig, LlmGateway
from lakeforge.ground_truth import joinable_columns
from lakeforge.model import (
    Column,
    TableData,
    TableSchema,
    load_corpus,
    replay_mapping,
    save_corpus,
)
import lakeforge.perturb as perturb_module
from lakeforge.perturb import (
    ALL_OPS,
    OPS,
    apply_plan,
    apply_value_noise,
    cryptify_headers,
    default_plan,
    header_typos,
    horizontal_split,
    parse_plan,
    remove_columns,
    sample_rows,
    semantic_value_perturb,
    vertical_split,
)


def wide_table(n_cols=10, n_rows=20, name="Wide"):
    cols = [Column(f"col {i}", f"Tag {i}", "text") for i in range(n_cols)]
    rows = [tuple(f"v{i}_{j % 4}" for j in range(n_cols)) for i in range(n_rows)]
    return TableData(schema=TableSchema(name, cols, primary_key=None), rows=rows)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def test_vertical_split_shared_count():
    t = wide_table(10)
    a, b, shared = vertical_split(t, 0.2, seed=1)
    assert len(shared) == 2
    assert set(a.schema.column_names()) | set(b.schema.column_names()) == set(
        t.schema.column_names()
    )
    assert set(a.schema.column_names()) & set(b.schema.column_names()) == shared
    assert len(a.rows) == len(t.rows) and len(b.rows) == len(t.rows)


def test_vertical_split_floor_rule():
    t = wide_table(4)
    a, b, shared = vertical_split(t, 0.01, seed=1)
    assert len(shared) == 1  # max(1, round(0.01 * 4))


def test_vertical_split_unique_key_side_has_no_duplicates():
    cols = [Column("k", "Key", "text"), Column("x", "X", "text"),
            Column("y", "Y", "text"), Column("z", "Z", "text"),
            Column("w", "W", "text"), Column("q", "Q", "text")]
    rows = [(f"k{i % 3}", f"x{i}", f"y{i}", f"z{i}", f"w{i}", f"q{i}") for i in range(12)]
    t = TableData(schema=TableSchema("T", cols, primary_key=None), rows=rows)
    a, b, shared = vertical_split(t, 0.5, unique_key=True, seed=3)
    key_idx = [a.schema.column_index(c) for c in sorted(shared)]
    keys = [tuple(r[i] for i in key_idx) for r in a.rows]
    assert len(keys) == len(set(keys))  # duplicate-count oracle: zero dupes
    assert len(b.rows) == len(t.rows)


def test_vertical_split_single_column_errors():
    t = TableData(
        schema=TableSchema("T", [Column("only", "Tag", "text")], None), rows=[("a",)]
    )
    with pytest.raises(PerturbationError, match="single-column"):
        vertical_split(t, 0.5)


def test_horizontal_split_overlap_counts():
    t = wide_table(3, n_rows=100)
    a, b = horizontal_split(t, 0.1, seed=2)
    sa = {tuple(r) for r in a.rows}
    sb = {tuple(r) for r in b.rows}
    # rows in this fixture are unique, so set arithmetic counts rows
    assert len(sa & sb) == 10
    assert sa | sb == {tuple(r) for r in t.rows}
    assert a.schema.column_names() == t.schema.column_names()


def test_horizontal_split_zero_ratio_disjoint_halves():
    t = wide_table(3, n_rows=10)
    a, b = horizontal_split(t, 0.0, seed=2)
    assert not ({tuple(r) for r in a.rows} & {tuple(r) for r in b.rows})
    assert len(a.rows) + len(b.rows) == 10


def test_horizontal_split_seven_rows_half():
    t = wide_table(3, n_rows=7)
    a, b = horizontal_split(t, 0.5, seed=2)
    shared = {tuple(r) for r in a.rows} & {tuple(r) for r in b.rows}
    assert len(shared) == 4  # round-half-up of 3.5
    assert len(a.rows) == 6 and len(b.rows) == 5


def test_horizontal_split_requires_two_rows():
    t = wide_table(3, n_rows=1)
    with pytest.raises(PerturbationError, match="< 2 rows"):
        horizontal_split(t, 0.5)


def test_remove_columns_and_sample_rows():
    t = wide_table(5, n_rows=10)
    kept = remove_columns(t, ["col 0", "col 2"])
    assert kept.schema.column_names() == ["col 0", "col 2"]
    sampled = sample_rows(t, 0.3, seed=1)
    assert len(sampled.rows) == 3


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
    out, mapping = cryptify_headers(schema)
    assert mapping["Person ID"] == "PID"


def test_cryptify_short_single_word():
    schema = TableSchema("T", [Column("id", "Key", "text")], None)
    out, mapping = cryptify_headers(schema)
    assert mapping["id"] == "ID"


def test_cryptify_collision_suffix():
    schema = TableSchema(
        "T",
        [Column("Account Number", "A", "text"), Column("Area Name", "B", "text")],
        None,
    )
    out, mapping = cryptify_headers(schema)
    assert mapping["Account Number"] == "AN"
    assert mapping["Area Name"] == "AN1"


def test_cryptify_preserves_semantic_types_and_pk():
    schema = TableSchema(
        "T",
        [Column("Person ID", "Person ID", "integer"), Column("Full Name", "Person Name", "text")],
        primary_key="Person ID",
    )
    out, mapping = cryptify_headers(schema)
    assert out.primary_key == "PID"
    assert out.columns[0].semantic_type == "Person ID"


def test_header_typos_rate():
    schema = TableSchema(
        "T", [Column(f"column {i}", f"T{i}", "text") for i in range(10)], None
    )
    out, mapping = header_typos(schema, 0.3, seed=4)
    assert len(mapping) == 3
    for old, new in mapping.items():
        assert reference_levenshtein(old, new) == 1


# ---------------------------------------------------------------------------
# semantic perturbation
# ---------------------------------------------------------------------------


def _source(corpus, table, column):
    """semantic_value_perturb's table, column and joinable-column arguments."""
    return corpus.table(table), column, joinable_columns(corpus.tables).get(table, set())


def test_semantic_perturb_requires_joinable_column(small_finance_corpus):
    with pytest.raises(PerturbationError, match="participates in no"):
        semantic_value_perturb(*_source(small_finance_corpus, "Postal Address", "Zipcode"))


def test_semantic_perturb_offline_currency(small_finance_corpus):
    values, mapping = semantic_value_perturb(*_source(small_finance_corpus, "Currency Name", "Currency"))
    assert mapping.get("USD") == "US Dollar" or "USD" not in mapping or True
    originals = small_finance_corpus.table("Currency Name").column_values("Currency")
    non_null = {v for v in originals if v}
    assert set(mapping) == non_null  # total over distinct values
    assert len(set(mapping.values())) == len(mapping)  # injective (bijection onto image)
    assert all(mapping[v] != v for v in mapping)
    assert values == [mapping.get(v, v) for v in originals]


def test_semantic_perturb_llm_double_uppercases(small_finance_corpus):
    gw = LlmGateway(GatewayConfig(mode="live"), transport=uppercase_variant_transport)
    values, mapping = semantic_value_perturb(
        *_source(small_finance_corpus, "Currency Name", "Currency"), gateway=gw, backend="llm"
    )
    originals = small_finance_corpus.table("Currency Name").column_values("Currency")
    changed = {v for v in originals if v and v.upper() != v}
    assert set(mapping) == changed  # upper-case originals come back unchanged -> no entry
    for old, new in mapping.items():
        assert new == old.upper()


def test_semantic_perturb_llm_arity_mismatch_leaves_chunk(small_finance_corpus, caplog):
    gw = LlmGateway(GatewayConfig(mode="live"), transport=lambda req: "garbled")
    import logging

    with caplog.at_level(logging.WARNING):
        values, mapping = semantic_value_perturb(
            *_source(small_finance_corpus, "Currency Name", "Currency"), gateway=gw, backend="llm"
        )
    assert mapping == {}
    assert values == small_finance_corpus.table("Currency Name").column_values("Currency")
    assert "left unperturbed" in caplog.text


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
        'step "Organization" header_typos rate=0.5\n'
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
    )
    derived, _ = apply_plan(small_finance_corpus, plan)
    names = {t.name for t in derived.tables}
    assert "Currency Name" not in names
    assert sum(1 for n in names if "__vertical_split" in n) == 2
    assert len(derived.tables) == 7  # 6 bases - 1 consumed + 2 children


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
step "Listed Security" numeric_jitter+header_typos rate=0.5 rel_scale=0.02
step "Monetary Amount" header_typos rate=0.5
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
            "cf5faea97092b29a5c35a4e35e01e2d161bc085ca82e6f6773c4daccb4d5a303",
        ),
        (
            "originals drop\n" + _GOLDEN_STEPS,
            "ce8938fdfb1ffcc3d3988ea1dfa8687e520b83049ae4c9655c247e96dee1068d",
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

    # the README table has one row per op in table order, with kind and choices
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    documented = []
    for op, kind, params in re.findall(r"^\| `(\w+)` \| (\w+) \|(.*)\|$", readme, flags=re.M):
        params = params.replace("\\|", "|")
        choices = dict(p.split("=") for p in re.findall(r"`(\w+=\w+(?:\|\w+)+)`", params))
        documented.append((op, kind, {k: tuple(v.split("|")) for k, v in choices.items()}))
    assert documented == [(op, spec.kind, spec.choices) for op, spec in OPS.items()]
