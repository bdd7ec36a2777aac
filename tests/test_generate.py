import itertools

import pytest

from helpers import (
    dep_values_in_prompt,
    fig1_text,
    finance_ontology_text,
    format_rows_as_completion,
    reference_levenshtein,
    scripted_completion,
)

from lakeforge.common import GenerationError
from lakeforge.gateway import GatewayConfig, LlmGateway
from lakeforge.generate import (
    DEP_CHUNK_BUDGET,
    FEW_SHOT_CLAUSE,
    DepValues,
    TableReport,
    _generate_llm,
    generate_base_tables,
    parse_completion,
    plan_generation,
    render_prompt,
)
from lakeforge.model import Column, TableSchema, save_corpus
from lakeforge.ontology import build_dependency_graph, ontology_to_schemas, parse_ontology
from lakeforge.synth import (
    SEMANTIC_VARIANTS,
    TEXT_DICTIONARIES,
    semantic_variant_map,
    synthesize_offline,
)

# ---------------------------------------------------------------------------
# generation planning
# ---------------------------------------------------------------------------


def graph_of(text: str):
    schema_set, _ = ontology_to_schemas(parse_ontology(text))
    return schema_set, build_dependency_graph(schema_set)


def wave_index(plan) -> dict[str, int]:
    return {t: i for i, wave in enumerate(plan.waves) for t in wave}


def test_fig1_waves(fig1_schema_set):
    graph = build_dependency_graph(fig1_schema_set)
    plan = plan_generation(graph, row_caps=10)
    assert plan.waves[0] == ["Organization"]
    wave_of = wave_index(plan)
    assert wave_of["Listed Security"] > wave_of["Organization"]
    assert wave_of["Postal Address"] > wave_of["Organization"]


def test_edgeless_graph_single_wave():
    text = "concept A\n  prop x: text\n  prop y: text\nconcept B\n  prop z: text\n  prop w: text\n"
    _, graph = graph_of(text)
    plan = plan_generation(graph, row_caps=10)
    assert plan.waves == [["A", "B"]]


def test_chain_waves_match_topological_oracle():
    # A depends on B depends on C: generation order must be C, B, A
    text = (
        "concept A\n  prop a1: text\n  prop a2: text\n"
        "concept B\n  prop b1: text\n  prop b2: text\n"
        "concept C\n  prop c1: text\n  prop c2: text\n"
        "relation ab: B -> A\nrelation bc: C -> B\n"
    )
    schema_set, graph = graph_of(text)
    plan = plan_generation(graph, row_caps=10)
    assert plan.waves == [["C"], ["B"], ["A"]]
    # oracle: every dependency generated in an earlier wave
    wave_of = wave_index(plan)
    for j in schema_set.relationships:
        assert wave_of[j.target_table] < wave_of[j.source_table]


def test_wave_property_on_finance_graph():
    schema_set, graph = graph_of(finance_ontology_text(20))
    plan = plan_generation(graph, row_caps=10)
    seen = [t for wave in plan.waves for t in wave]
    assert sorted(seen) == sorted(graph.nodes)
    assert len(seen) == len(set(seen))  # each table in exactly one wave
    wave_of = wave_index(plan)
    for j in schema_set.relationships:
        assert wave_of[j.target_table] < wave_of[j.source_table]


# ---------------------------------------------------------------------------
# prompt rendering and completion parsing
# ---------------------------------------------------------------------------

LS_SCHEMA = TableSchema(
    name="Listed Security",
    columns=[
        Column("Ticker Symbol", "Ticker Symbol"),
        Column("Legal Name", "Legal Name"),
        Column("Currency", "Currency"),
        Column("Last Traded Value Monetary Amount", "Amount", "decimal"),
    ],
    primary_key=None,
)

EXAMPLE_LIST_COMPLETION = """\
Example 1: AAPL; Apple Inc.; USD; 200
Example 2: MSFT; Microsoft Inc.; USD; 138
Example 3: GOOGL; Alphabet Inc.; USD; 150
Example 4: AMZN; Amazon.com Inc.; USD; 250
Example 5: FB; Facebook Inc.; USD; 100
"""


def test_render_prompt_embeds_dependency_values():
    deps = [
        DepValues(
            "Legal Name",
            "Organization",
            "Legal Name",
            ["Apple Inc.", "Microsoft Inc.", "Amazon Inc.", "Alphabet Inc.", "Facebook Inc."],
        )
    ]
    prompt = render_prompt(LS_SCHEMA, deps, batch=5)
    assert "Listed Security" in prompt
    for col in LS_SCHEMA.column_names():
        assert col in prompt
    assert "comes from 'Legal Name' of table 'Organization'" in prompt
    assert "'Apple Inc.', 'Microsoft Inc.'" in prompt
    assert "Example" in prompt  # few-shot block present


def test_render_prompt_without_deps_has_no_dependency_sentence():
    prompt = render_prompt(LS_SCHEMA, [], batch=5)
    assert "comes from" not in prompt.replace(FEW_SHOT_CLAUSE, "")


_PROMPT_HEAD = (
    "The task is to generate row examples for the table.\n"
    "For example, the table named Retail Order has columns: ['Order Number', 'Item', "
    "'Unit Price', 'Placed By Customer Account']. And column 'Placed By Customer Account' "
    "comes from the 'Account Number' of table 'Customer Account'. The row examples should "
    "look like 'Example 1: 771204; Desk Lamp; 34.50; 200114; Example 2: 771205; Bookshelf; "
    "89.99; 200117'.\n"
    "Now, the table named Listed Security has the following columns: ['Ticker Symbol', "
    "'Legal Name', 'Currency', 'Last Traded Value Monetary Amount'].\n"
)
_PROMPT_TAIL = (
    "Generate 5 row examples for the table, one per line, in the form "
    "'Example k: v1; v2; ...' with exactly 4 values per row."
)


def test_render_prompt_text_is_pinned():
    # a prompt is part of its gateway cache key, so a changed byte would make
    # every recorded reply miss
    deps = [DepValues("Legal Name", "Organization", "Legal Name", ["Apple Inc.", "Microsoft Inc."])]
    assert render_prompt(LS_SCHEMA, deps, batch=5, partition=3) == (
        _PROMPT_HEAD
        + "The entries from column 'Legal Name' comes from 'Legal Name' of table 'Organization'. "
        "Given the entries of column 'Legal Name' are ['Apple Inc.', 'Microsoft Inc.'].\n"
        "This is partition 3 of the table.\n"
        + _PROMPT_TAIL
    )
    assert render_prompt(LS_SCHEMA, [], batch=5) == _PROMPT_HEAD + _PROMPT_TAIL


def test_render_prompt_rejects_empty_dep_values():
    with pytest.raises(GenerationError, match="non-empty"):
        render_prompt(LS_SCHEMA, [DepValues("c", "T", "x", [])])


def test_chunking_partitions_input():
    # 10 rows need 2 prompts, but 5000 referenced values at 100 per prompt
    # need 50; every reply repeats one key, so no prompt is cut short
    values = [f"v{i}" for i in range(5000)]
    schema = TableSchema("T", [Column("k", "Key"), Column("ref", "Ref")], primary_key="k")
    prompts = []

    def transport(req):
        prompts.append(req.prompt)
        return "Example 1: k1; v0"

    report = TableReport()
    gateway = LlmGateway(GatewayConfig(mode="live"), transport=transport)
    rows = _generate_llm(schema, 10, [DepValues("ref", "R", "id", values)], gateway, report)
    assert rows == [("k1", "v0")]
    assert report.prompts == len(prompts) == 50 == len(values) // DEP_CHUNK_BUDGET
    chunks = [dep_values_in_prompt(p)["ref"] for p in prompts]
    assert all(len(c) == DEP_CHUNK_BUDGET for c in chunks)
    assert list(itertools.chain.from_iterable(chunks)) == values


def test_parse_example_list_completion():
    rows, skipped = parse_completion(EXAMPLE_LIST_COMPLETION, LS_SCHEMA)
    assert len(rows) == 5
    assert all(len(r) == 4 for r in rows)
    assert rows[0] == ("AAPL", "Apple Inc.", "USD", "200")
    assert rows[4] == ("FB", "Facebook Inc.", "USD", "100")
    assert skipped == 0


def test_parse_single_line_multi_example():
    text = "Example 1: Buy; 1020; X; 1; Example 2: Sell; 638; Y; 2"
    schema = TableSchema(
        "T", [Column("a", "A"), Column("b", "B"), Column("c", "C"), Column("d", "D")], None
    )
    rows, skipped = parse_completion(text, schema)
    assert rows == [("Buy", "1020", "X", "1"), ("Sell", "638", "Y", "2")]
    assert skipped == 0


def test_parse_skips_malformed_lines():
    text = EXAMPLE_LIST_COMPLETION + "Example 6: too; few\n"
    rows, skipped = parse_completion(text, LS_SCHEMA)
    assert len(rows) == 5
    assert skipped == 1


def test_parse_counts_prose_lines_as_skipped():
    text = "Sure, here are the rows:\n" + EXAMPLE_LIST_COMPLETION
    rows, skipped = parse_completion(text, LS_SCHEMA)
    assert len(rows) == 5
    assert skipped == 1


def test_parse_all_malformed_raises_with_raw_text():
    with pytest.raises(GenerationError, match="no parseable rows"):
        parse_completion("Example 1: a; b\nExample 2: c; d\n", LS_SCHEMA)


def test_parse_drops_duplicate_primary_keys():
    schema = TableSchema("T", [Column("k", "Key"), Column("v", "Val")], primary_key="k")
    text = "Example 1: a; 1\nExample 2: a; 2\nExample 3: b; 3\n"
    rows, skipped = parse_completion(text, schema)
    assert rows == [("a", "1"), ("b", "3")]
    assert skipped == 1


def test_format_parse_round_trip():
    rows = [("AAPL", "Apple Inc.", "USD", "200"), ("MSFT", "Microsoft Inc.", "EUR", "87")]
    text = format_rows_as_completion(rows)
    parsed, skipped = parse_completion(text, LS_SCHEMA)
    assert parsed == rows and skipped == 0


# ---------------------------------------------------------------------------
# offline synthesizer
# ---------------------------------------------------------------------------


def test_synthesize_known_tag_reproducible():
    col = Column("Currency", "Currency", "text")
    a = synthesize_offline(col, 3, seed=7)
    b = synthesize_offline(col, 3, seed=7)
    assert a == b
    assert all(v in TEXT_DICTIONARIES["currency"] for v in a)
    assert synthesize_offline(col, 3, seed=8) != a or True  # different seed allowed to differ


def test_synthesize_unknown_tag_fallback():
    col = Column("x", "FooBar", "text")
    assert synthesize_offline(col, 2, seed=1) == ["FooBar_0", "FooBar_1"]


def test_synthesize_unique_primary_key_values():
    col = Column("id", "Thing Identifier", "integer")
    values = synthesize_offline(col, 1000, seed=3, unique=True)
    assert len(values) == 1000
    assert len(set(values)) == 1000


def test_synthesize_unique_text_tag_overflows_to_tokens():
    col = Column("Currency", "Currency", "text")
    values = synthesize_offline(col, 25, seed=3, unique=True)
    assert len(set(values)) == 25
    assert sum(1 for v in values if v.startswith("Currency_")) == 5


def test_value_windows_disjoint_across_space_indices():
    a = synthesize_offline(Column("x", "Tag A", "integer"), 200, seed=1, space_index=0)
    b = synthesize_offline(Column("y", "Tag B", "integer"), 200, seed=1, space_index=1)
    assert not (set(a) & set(b))
    da = synthesize_offline(Column("x", "Tag A", "date"), 200, seed=1, space_index=0)
    db = synthesize_offline(Column("y", "Tag B", "date"), 200, seed=1, space_index=1)
    assert not (set(da) & set(db))


def test_text_dictionaries_cross_tag_disjoint_and_typo_safe():
    # values of different tags must stay > 2 edits apart so 1-edit typo noise
    # can never make a value jump tags
    tags = sorted(TEXT_DICTIONARIES)
    for i, ta in enumerate(tags):
        for tb in tags[i + 1 :]:
            for va in TEXT_DICTIONARIES[ta]:
                for vb in TEXT_DICTIONARIES[tb]:
                    d = reference_levenshtein(va, vb)
                    assert d > 2, f"{ta}:{va!r} vs {tb}:{vb!r} distance {d}"


def test_semantic_variants_disjoint_from_all_base_dictionaries():
    base_values = {v for vocab in TEXT_DICTIONARIES.values() for v in vocab}
    for tag, table in SEMANTIC_VARIANTS.items():
        for old, new in table.items():
            assert new not in base_values, f"{tag} variant {new!r} collides with a base value"


def test_semantic_variant_map_total_and_injective():
    col = Column("Legal Name", "Legal Name", "text")
    values = TEXT_DICTIONARIES["legal name"][:10] + [""]
    mapping = semantic_variant_map(values, col)
    non_null = [v for v in values if v]
    assert set(mapping) == set(non_null)  # total over non-null distinct values
    assert len(set(mapping.values())) == len(mapping)  # injective
    assert all(old != new for old, new in mapping.items())


# ---------------------------------------------------------------------------
# end-to-end generation
# ---------------------------------------------------------------------------


def build(text):
    onto = parse_ontology(text)
    schema_set, _ = ontology_to_schemas(onto)
    graph = build_dependency_graph(schema_set)
    return schema_set, graph


def test_offline_fig1_fk_containment():
    schema_set, graph = build(fig1_text())
    plan = plan_generation(graph, row_caps=50)
    corpus, report = generate_base_tables(schema_set, plan, seed=42)
    ls = corpus.table("Listed Security")
    org = corpus.table("Organization")
    assert ls.value_set("listedBy") <= org.value_set("id")
    assert ls.value_set("listedBy")  # non-empty containment
    assert report.tables["Listed Security"].rows == 50


def test_offline_declared_joins_all_pkfk():
    schema_set, graph = build(finance_ontology_text(6))
    plan = plan_generation(graph, row_caps=30)
    corpus, _ = generate_base_tables(schema_set, plan, seed=5)
    declared = {
        tuple(sorted([(j.source_table, j.source_column), (j.target_table, j.target_column)]))
        for j in schema_set.relationships
    }
    by_key = {p.key(): p for p in corpus.ground_truth}
    for key in declared:
        assert tuple(key) in by_key, f"declared join {key} missing from ground truth"
        assert by_key[tuple(key)].kind == "pkfk"


def test_cap_zero_yields_empty_tables_valid_manifest(tmp_path):
    schema_set, graph = build(fig1_text())
    plan = plan_generation(graph, row_caps=0)
    corpus, _ = generate_base_tables(schema_set, plan, seed=1)
    assert all(len(t.rows) == 0 for t in corpus.tables)
    save_corpus(corpus, tmp_path)


def test_single_table_empty_ground_truth():
    schema_set, graph = build("concept Only\n  prop a: text\n  prop b: text\n")
    plan = plan_generation(graph, row_caps=10)
    corpus, _ = generate_base_tables(schema_set, plan, seed=2)
    assert corpus.ground_truth == []


def test_determinism_same_seed_same_manifest(tmp_path):
    schema_set, graph = build(finance_ontology_text(6))
    for d in ("one", "two"):
        plan = plan_generation(graph, row_caps=25)
        corpus, _ = generate_base_tables(schema_set, plan, seed=99)
        save_corpus(corpus, tmp_path / d)
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (
        tmp_path / "two" / "manifest.json"
    ).read_bytes()


def scripted_gateway() -> LlmGateway:
    return LlmGateway(GatewayConfig(mode="live"), transport=lambda req: scripted_completion(req.prompt))


def test_llm_backend_generates_and_respects_fk():
    schema_set, graph = build(fig1_text())
    plan = plan_generation(graph, row_caps=10, backend="llm")
    corpus, report = generate_base_tables(schema_set, plan, gateway=scripted_gateway(), seed=1)
    ls = corpus.table("Listed Security")
    org = corpus.table("Organization")
    assert 0 < len(ls.rows) <= 10
    assert ls.value_set("listedBy") <= org.value_set("id")
    assert report.tables["Listed Security"].prompts >= 2


def test_llm_backend_repairs_out_of_set_fk():
    gw = LlmGateway(
        GatewayConfig(mode="live"),
        transport=lambda req: scripted_completion(req.prompt, bad_fk=True),
    )
    schema_set, graph = build(fig1_text())
    plan = plan_generation(graph, row_caps=10, backend="llm")
    corpus, report = generate_base_tables(schema_set, plan, gateway=gw, seed=1)
    ls = corpus.table("Listed Security")
    org = corpus.table("Organization")
    assert ls.value_set("listedBy") <= org.value_set("id")
    assert report.tables["Listed Security"].repaired > 0


def test_llm_backend_requires_gateway():
    schema_set, graph = build(fig1_text())
    plan = plan_generation(graph, row_caps=5, backend="llm")
    with pytest.raises(GenerationError, match="gateway"):
        generate_base_tables(schema_set, plan, gateway=None, seed=1)


def test_dictionary_values_safe_for_completion_format():
    # offline values round-trip through the "Example k: v1; v2" format, so no
    # dictionary or variant value may contain the separator or marker pattern
    import re

    marker = re.compile(r"Example\s+\d+\s*:")
    pools = [v for vocab in TEXT_DICTIONARIES.values() for v in vocab]
    pools += [v for table in SEMANTIC_VARIANTS.values() for v in table.values()]
    for v in pools:
        assert ";" not in v, v
        assert "\n" not in v, v
        assert not marker.search(v), v
