import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fig1_text, finance_ontology_text, waves_oracle, FIXTURES

from lakeforge.common import OntologyError
from lakeforge.ontology import (
    DeclaredJoin,
    GroupingConfig,
    build_dependency_graph,
    ontology_to_schemas,
    parse_ontology,
)


def test_fig1_parses():
    onto = parse_ontology(fig1_text())
    assert len(onto.concepts) == 3
    assert [c.name for c in onto.concepts] == ["Organization", "Listed Security", "Postal Address"]
    assert len(onto.object_properties) >= 1
    lists = [p for p in onto.object_properties if p.name == "lists"][0]
    assert lists.domain_concept == "Organization"
    assert lists.range_concept == "Listed Security"


def test_empty_document_rejected():
    with pytest.raises(OntologyError, match="no concepts"):
        parse_ontology("# nothing here\n")


def test_dangling_range_reference():
    text = "concept A\n  prop x: text\n  prop y: text\nrelation r: A -> Missing\n"
    with pytest.raises(OntologyError, match="dangling range reference"):
        parse_ontology(text)


def test_duplicate_concept_rejected():
    text = "concept A\n  prop x: text\nconcept A\n  prop y: text\n"
    with pytest.raises(OntologyError, match="duplicate concept"):
        parse_ontology(text)


def test_syntax_error_carries_line_number():
    text = "concept A\n  prop x: text\nthis is not a statement\n"
    with pytest.raises(OntologyError, match="line 3"):
        parse_ontology(text)


def test_unflagged_self_reference_rejected():
    # a table referencing itself would depend on itself, so no wave holds it;
    # no syntax flags one through, so the relation fails at parse
    text = "concept A\n  prop x: text\n  prop y: text\nrelation r: A -> A\n"
    with pytest.raises(OntologyError, match="^object property 'r': self-reference on 'A'$"):
        parse_ontology(text)
    with pytest.raises(OntologyError, match="^object property 'r': dangling range reference 'A \\[self\\]'$"):
        parse_ontology(text.replace("-> A", "-> A [self]"))
    turtle = (
        "@prefix ex: <http://x#> .\n"
        "ex:A a owl:Class .\n"
        "ex:r a owl:ObjectProperty ; rdfs:domain ex:A ; rdfs:range ex:A .\n"
    )
    with pytest.raises(OntologyError, match="^object property 'r': self-reference on 'A'$"):
        parse_ontology(turtle, format="turtle")


def test_turtle_subset_parses():
    onto = parse_ontology((FIXTURES / "fig1.ttl").read_text(encoding="utf-8"), format="turtle")
    names = sorted(c.name for c in onto.concepts)
    assert names == ["Listed Security", "Organization", "Postal Address"]
    org = onto.concept("Organization")
    assert "Legal Name" in [p.name for p in org.data_properties]
    assert len(onto.object_properties) == 2


def test_turtle_dangling_domain():
    text = (
        '@prefix ex: <http://x#> .\n'
        "ex:A a owl:Class .\n"
        "ex:p a owl:DatatypeProperty ; rdfs:domain ex:Missing ; rdfs:range xsd:string .\n"
    )
    with pytest.raises(OntologyError, match="dangling domain"):
        parse_ontology(text, format="turtle")


def test_listed_security_gains_listed_by(fig1_ontology):
    schema_set, _ = ontology_to_schemas(fig1_ontology)
    ls = schema_set.table("Listed Security")
    assert "listedBy" in ls.column_names()
    join = [j for j in schema_set.relationships if j.source_column == "listedBy"][0]
    assert join.source_table == "Listed Security"
    assert (join.target_table, join.target_column) == ("Organization", "id")
    assert join.kind == "pkfk"
    # reference column inherits the referenced key's semantic type and datatype
    ref = ls.column("listedBy")
    assert ref.semantic_type == "Organization ID"
    assert ref.datatype == "integer"


def test_single_concept_no_relationships():
    text = "concept Only\n  prop a: text\n  prop b: text\n"
    schema_set, warnings = ontology_to_schemas(parse_ontology(text))
    assert len(schema_set.tables) == 1
    assert schema_set.relationships == []
    assert warnings == []
    # synthetic key added when the ontology declares none
    t = schema_set.tables[0]
    assert t.primary_key == "only_id"
    assert t.columns[0].datatype == "integer"


def test_five_concept_chain_counts():
    # A -> B -> C -> D -> E of object properties: 5 tables, 4 pkfk joins
    names = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"]
    parts = []
    for n in names:
        parts.append(f"concept {n}\n  prop {n} One: text\n  prop {n} Two: text\n")
    for a, b in zip(names, names[1:]):
        parts.append(f"relation {a.lower()}Link: {a} -> {b}\n")
    schema_set, _ = ontology_to_schemas(parse_ontology("".join(parts)))
    assert len(schema_set.tables) == 5
    assert len(schema_set.relationships) == 4
    assert all(j.kind == "pkfk" for j in schema_set.relationships)


def test_declared_joins_biject_with_object_properties():
    onto = parse_ontology(finance_ontology_text(20))
    schema_set, warnings = ontology_to_schemas(onto)
    assert len(schema_set.relationships) == len(onto.object_properties)
    assert not warnings


def test_small_concept_merges_into_most_connected():
    text = (
        "concept Host\n  prop One: text\n  prop Two: text\n"
        "concept Tiny\n  prop Lonely Field: text\n"
        "relation tinyLink: Host -> Tiny\n"
    )
    schema_set, warnings = ontology_to_schemas(parse_ontology(text), GroupingConfig(min_props=2))
    assert len(schema_set.tables) == 1
    host = schema_set.table("Host")
    assert "Lonely Field" in host.column_names()
    assert any("merged concept 'Tiny'" in w for w in warnings)
    # the relation between merged concepts is dropped with a warning
    assert schema_set.relationships == []
    assert any("dropped" in w for w in warnings)


def test_merge_conflict_renames_with_suffix():
    text = (
        "concept Host\n  prop Shared: text\n  prop Two: text\n"
        "concept Tiny\n  prop Shared: text\n"
        "relation link: Host -> Tiny\n"
    )
    schema_set, warnings = ontology_to_schemas(parse_ontology(text))
    host = schema_set.table("Host")
    assert "Shared_2" in host.column_names()
    assert any("merge conflict" in w for w in warnings)


def test_renames_take_the_first_free_suffix():
    text = (
        "concept Host\n  prop Shared: text\n  prop Shared_2: text\n  prop Two: text\n"
        "concept Tiny\n  prop Shared: text\n"
        "concept Other\n  prop listedBy: text\n  prop listedBy_2: text\n"
        "relation link: Host -> Tiny\n"
        "relation lists: Host -> Other\n"
    )
    schema_set, warnings = ontology_to_schemas(parse_ontology(text))
    assert schema_set.table("Host").column_names()[-1] == "Shared_3"
    assert schema_set.table("Other").column_names()[-1] == "listedBy_3"
    assert "merge conflict: property 'Shared' of 'Tiny' renamed to Shared_3 in table 'Host'" in warnings
    assert "reference column 'listedBy' already exists in 'Other'; renamed to listedBy_3" in warnings


def test_unconnected_small_concept_stays_standalone():
    text = (
        "concept Host\n  prop One: text\n  prop Two: text\n"
        "concept Island\n  prop Only: text\n"
    )
    schema_set, warnings = ontology_to_schemas(parse_ontology(text))
    assert {t.name for t in schema_set.tables} == {"Host", "Island"}
    assert any("no connected host" in w for w in warnings)


def test_min_props_changes_merge_outcome():
    onto = parse_ontology(
        "concept Big\n  prop A: text\n  prop B: text\n  prop C: text\n"
        "concept Mid\n  prop D: text\n  prop E: text\n"
        "relation link: Big -> Mid\n"
    )
    s2, _ = ontology_to_schemas(onto, GroupingConfig(min_props=2))
    assert len(s2.tables) == 2
    s3, _ = ontology_to_schemas(onto, GroupingConfig(min_props=3))
    assert len(s3.tables) == 1


def test_dependency_graph_fig1(fig1_schema_set):
    graph = build_dependency_graph(fig1_schema_set)
    assert ("Listed Security", "Organization") in graph.edges
    # Listed Security and Postal Address depend on Organization
    assert sorted(a for a, b in graph.edges if b == "Organization") == [
        "Listed Security",
        "Postal Address",
    ]
    # edges equal declared joins exactly
    expect = {(j.source_table, j.target_table) for j in fig1_schema_set.relationships}
    assert graph.edges == expect


def test_dependency_graph_edgeless():
    text = "concept A\n  prop x: text\n  prop y: text\nconcept B\n  prop z: text\n  prop w: text\n"
    schema_set, _ = ontology_to_schemas(parse_ontology(text))
    graph = build_dependency_graph(schema_set)
    assert (graph.nodes, graph.edges) == (["A", "B"], set())
    assert graph.waves == [["A", "B"]]


def test_cycle_detected():
    text = (
        "concept A\n  prop x: text\n  prop y: text\n"
        "concept B\n  prop z: text\n  prop w: text\n"
        "relation ab: A -> B\nrelation ba: B -> A\n"
    )
    schema_set, _ = ontology_to_schemas(parse_ontology(text))
    with pytest.raises(OntologyError, match="^dependency cycle detected: A -> B -> A$"):
        build_dependency_graph(schema_set)
    # the range side depends on the domain side: B on A, C on B, A on C
    text = text.replace("relation ba: B -> A\n", "concept C\n  prop v: text\n  prop u: text\n"
                        "relation bc: B -> C\nrelation ca: C -> A\n")
    schema_set, _ = ontology_to_schemas(parse_ontology(text))
    with pytest.raises(OntologyError, match="^dependency cycle detected: A -> C -> B -> A$"):
        build_dependency_graph(schema_set)



def test_self_loop_is_a_cycle():
    # no ontology parses to a self-join, but a schema set built in Python can
    # hold one, and the graph names it as a cycle
    text = "concept A\n  prop x: text\n  prop y: text\n"
    schema_set, _ = ontology_to_schemas(parse_ontology(text))
    key = schema_set.tables[0].primary_key
    schema_set.relationships.append(DeclaredJoin("A", key, "A", key))
    with pytest.raises(OntologyError, match="^dependency cycle detected: A -> A$"):
        build_dependency_graph(schema_set)


_NAMES = ["Gamma", "alpha", "Beta 2", "Beta", "delta", "Zeta", "eta", "Theta"]


def _relations_text(names, relations, fmt, split):
    """An ontology of `names`, two properties each (so none merges), with
    relation `link<i>` from a to b for each (a, b) of `relations`; in Turtle,
    `split` states each relation's domain and range before its type."""
    if fmt == "native":
        text = "".join(f"concept {c}\n  prop {c} One: text\n  prop {c} Two: text\n" for c in names)
        return text + "".join(f"relation link{i}: {a} -> {b}\n" for i, (a, b) in enumerate(relations))
    iri = {c: f"ex:C{k}" for k, c in enumerate(names)}
    lines = ["@prefix ex: <http://x#> ."]
    for c in names:
        lines.append(f'{iri[c]} a owl:Class ; rdfs:label "{c}" .')
        lines += [f'{iri[c]}{p} a owl:DatatypeProperty ; rdfs:domain {iri[c]} ; rdfs:label "{c} {p}" .'
                  for p in ("One", "Two")]
    for i, (a, b) in enumerate(relations):
        ends = f"rdfs:domain {iri[a]} ; rdfs:range {iri[b]}"
        lines += ([f"ex:link{i} {ends} .", f"ex:link{i} a owl:ObjectProperty ."] if split
                  else [f"ex:link{i} a owl:ObjectProperty ; {ends} ."])
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 8), fmt=st.sampled_from(["native", "turtle"]), split=st.booleans())
def test_waves_equal_the_oracle_or_a_cycle_is_named(data, n, fmt, split):
    """Random relations over n concepts, in either format: a relation from a
    concept to itself fails at parse; otherwise the waves are the oracle's,
    or, when the joins hold a cycle, the error names a closed path of
    declared joins."""
    names = data.draw(st.permutations(_NAMES[:n]))
    link = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda ab: ab[0] != ab[1])
    size = data.draw(st.integers(0, 12))
    relations = data.draw(st.lists(link, min_size=size, max_size=size))
    if data.draw(st.integers(0, 3)) == 0:  # a relation from a concept to itself
        loop = data.draw(st.sampled_from(names))
        relations.insert(data.draw(st.integers(0, size)), (loop, loop))
    text = _relations_text(names, relations, fmt, split)
    loops = {(f"link{i}", a) for i, (a, b) in enumerate(relations) if a == b}
    if loops:
        with pytest.raises(OntologyError) as info:
            parse_ontology(text, format=fmt)
        assert any(str(info.value) == f"object property {r!r}: self-reference on {c!r}" for r, c in loops)
        return
    schema_set, warnings = ontology_to_schemas(parse_ontology(text, format=fmt))
    assert warnings == []
    joins = {(j.source_table, j.target_table) for j in schema_set.relationships}
    assert joins == {(b, a) for a, b in relations}
    want = waves_oracle(names, joins)
    if want is not None:
        assert build_dependency_graph(schema_set).waves == want
        return
    with pytest.raises(OntologyError) as info:
        build_dependency_graph(schema_set)
    prefix = "dependency cycle detected: "
    assert str(info.value).startswith(prefix)
    path = str(info.value)[len(prefix):].split(" -> ")
    assert path[0] == path[-1] and len(set(path)) == len(path) - 1 >= 2
    assert set(zip(path, path[1:])) <= joins


def test_finance_ontology_compiles_to_20_tables():
    schema_set, warnings = ontology_to_schemas(parse_ontology(finance_ontology_text(20)))
    assert len(schema_set.tables) == 20
    assert not warnings
    build_dependency_graph(schema_set)  # acyclic


def test_column_count_arithmetic():
    # columns per unmerged table = data properties + reference columns
    # + (0 or 1 synthetic key)
    onto = parse_ontology(finance_ontology_text(20))
    schema_set, _ = ontology_to_schemas(onto)
    refs_by_range = {}
    for op in onto.object_properties:
        refs_by_range[op.range_concept] = refs_by_range.get(op.range_concept, 0) + 1
    for concept in onto.concepts:
        t = schema_set.table(concept.name)
        synthetic = 0 if any(p.is_key for p in concept.data_properties) else 1
        expect = len(concept.data_properties) + refs_by_range.get(concept.name, 0) + synthetic
        assert len(t.columns) == expect, concept.name
