"""Ontology parsing and compilation into relational schemas.

Two input formats are supported: a native line-oriented format (concept /
prop / key / relation statements) and a small Turtle subset that reads only
class declarations, datatype properties with rdfs:domain / rdfs:range, and
object properties. Compilation maps each concept to a table, folds small
concepts into their most-connected neighbor, and turns every object property
into a reference column on the range-side table joined (PK/FK) to the domain
table's primary key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from .common import OntologyError, slugify, split_words, unique_name
from .model import Column, DATATYPES, TableSchema

VOWELS = set("aeiou")


@dataclass
class DataProperty:
    name: str
    semantic_type: str
    datatype: str = "text"
    is_key: bool = False


@dataclass
class Concept:
    name: str
    data_properties: list[DataProperty] = field(default_factory=list)


@dataclass
class ObjectProperty:
    name: str
    domain_concept: str
    range_concept: str


@dataclass
class Ontology:
    concepts: list[Concept] = field(default_factory=list)
    object_properties: list[ObjectProperty] = field(default_factory=list)

    def concept(self, name: str) -> Concept:
        for c in self.concepts:
            if c.name == name:
                return c
        raise OntologyError(f"no concept named {name!r}")

    def validate(self) -> None:
        if not self.concepts:
            raise OntologyError("no concepts declared")
        names = [c.name for c in self.concepts]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise OntologyError(f"duplicate concept name(s): {dupes}")
        known = set(names)
        for c in self.concepts:
            props = [p.name for p in c.data_properties]
            pdupes = sorted({p for p in props if props.count(p) > 1})
            if pdupes:
                raise OntologyError(f"concept {c.name!r}: duplicate data properties {pdupes}")
            keys = [p for p in c.data_properties if p.is_key]
            if len(keys) > 1:
                raise OntologyError(f"concept {c.name!r}: more than one key property")
        for op in self.object_properties:
            for side, ref in (("domain", op.domain_concept), ("range", op.range_concept)):
                if ref not in known:
                    raise OntologyError(
                        f"object property {op.name!r}: dangling {side} reference {ref!r}"
                    )
            if op.domain_concept == op.range_concept:
                # a table referencing itself would depend on itself
                raise OntologyError(f"object property {op.name!r}: self-reference on {op.domain_concept!r}")


@dataclass
class DeclaredJoin:
    source_table: str
    source_column: str
    target_table: str
    target_column: str
    kind: str = "pkfk"  # hint: pkfk | exact

    def key(self) -> tuple:
        return (self.source_table, self.source_column, self.target_table, self.target_column)


@dataclass
class SchemaSet:
    tables: list[TableSchema] = field(default_factory=list)
    relationships: list[DeclaredJoin] = field(default_factory=list)

    def table(self, name: str) -> TableSchema:
        for t in self.tables:
            if t.name == name:
                return t
        raise OntologyError(f"no table named {name!r}")

    def validate(self) -> None:
        for t in self.tables:
            t.validate()
            if t.primary_key is None:
                raise OntologyError(f"table {t.name!r} has no primary key column")
        names = {t.name for t in self.tables}
        for j in self.relationships:
            for tbl, col in ((j.source_table, j.source_column), (j.target_table, j.target_column)):
                if tbl not in names:
                    raise OntologyError(f"declared join references missing table {tbl!r}")
                self.table(tbl).column_index(col)


@dataclass
class GroupingConfig:
    min_props: int = 2


@dataclass
class DependencyGraph:
    """Directed graph: edge A -> B means table A depends on table B.

    waves: the topological layering; wave k holds, sorted by name, the tables
    whose dependencies all sit in waves < k."""

    nodes: list[str]
    edges: set[tuple[str, str]]
    waves: list[list[str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# native format
# ---------------------------------------------------------------------------

_RE_CONCEPT = re.compile(r"^concept\s+(.+?)\s*$")
_RE_PROP = re.compile(r"^(key|prop)\s+([^:]+?)\s*:\s*(\w+)\s*(?:\[\s*(.+?)\s*\])?\s*$")
_RE_RELATION = re.compile(r"^relation\s+([^:]+?)\s*:\s*(.+?)\s*->\s*(.+?)\s*$")


def _parse_native(source: str) -> Ontology:
    onto = Ontology()
    current: Concept | None = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _RE_CONCEPT.match(line)
        if m:
            current = Concept(name=m.group(1))
            onto.concepts.append(current)
            continue
        m = _RE_PROP.match(line)
        if m:
            if current is None:
                raise OntologyError("property declared before any concept", lineno)
            kw, name, datatype, tag = m.groups()
            if datatype not in DATATYPES:
                raise OntologyError(f"unknown datatype {datatype!r}", lineno)
            current.data_properties.append(
                DataProperty(
                    name=name,
                    semantic_type=tag if tag else name,
                    datatype=datatype,
                    is_key=(kw == "key"),
                )
            )
            continue
        m = _RE_RELATION.match(line)
        if m:
            name, domain, rng = m.groups()
            onto.object_properties.append(ObjectProperty(name=name, domain_concept=domain, range_concept=rng))
            continue
        raise OntologyError(f"cannot parse statement {line!r}", lineno)
    onto.validate()
    return onto


# ---------------------------------------------------------------------------
# turtle subset
# ---------------------------------------------------------------------------

_XSD_MAP = {
    "string": "text",
    "integer": "integer",
    "int": "integer",
    "long": "integer",
    "decimal": "decimal",
    "float": "decimal",
    "double": "decimal",
    "date": "date",
    "datetime": "date",
    "boolean": "categorical",
}


def _local_name(term: str) -> str:
    for sep in ("#", "/", ":"):
        if sep in term:
            term = term.rsplit(sep, 1)[1]
    return term


def _display_name(term: str) -> str:
    return " ".join(w.capitalize() if w.islower() else w for w in split_words(_local_name(term)))


def _parse_turtle(source: str) -> Ontology:
    # Statement splitter for the subset: prefixed names, ';' predicate lists,
    # quoted literals without escapes, statements terminated by '.'.
    def strip_comment(raw: str) -> str:
        in_quote = in_angle = False
        for i, ch in enumerate(raw):
            if ch == '"':
                in_quote = not in_quote
            elif ch == "<" and not in_quote:
                in_angle = True
            elif ch == ">" and not in_quote:
                in_angle = False
            elif ch == "#" and not in_quote and not in_angle:
                return raw[:i]
        return raw

    statements: list[tuple[int, list[str]]] = []
    buf: list[str] = []
    start_line = 1
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = strip_comment(raw).rstrip()
        if not line.strip():
            continue
        if not buf:
            start_line = lineno
        buf.append(line.strip())
        if line.strip().endswith("."):
            text = " ".join(buf)[:-1].strip()
            tokens = re.findall(r'"[^"]*"|<[^>]*>|[^\s;]+|;', text)
            statements.append((start_line, tokens))
            buf = []
    if buf:
        raise OntologyError("unterminated statement (missing '.')", start_line)

    classes: dict[str, int] = {}
    labels: dict[str, str] = {}
    # each property's first line, domain and range; those typed
    # owl:ObjectProperty are object properties, the rest datatype properties
    props: dict[str, dict] = {}
    object_props: set[str] = set()

    def record(subject: str, pred: str, obj: str, lineno: int) -> None:
        p = _local_name(pred).lower()
        if pred == "a" or p == "type":
            t = _local_name(obj).lower()
            if t == "class":
                classes.setdefault(subject, lineno)
            elif t in ("datatypeproperty", "objectproperty"):
                props.setdefault(subject, {"line": lineno})
                if t == "objectproperty":
                    object_props.add(subject)
        elif p in ("domain", "range"):
            props.setdefault(subject, {"line": lineno})[p] = obj
        elif p == "label":
            labels[subject] = obj.strip('"')

    for lineno, tokens in statements:
        if not tokens:
            continue
        if tokens[0].lower() == "@prefix":
            continue
        if len(tokens) < 3:
            raise OntologyError(f"malformed statement {' '.join(tokens)!r}", lineno)
        subject = tokens[0]
        i = 1
        while i < len(tokens):
            try:
                sep = tokens.index(";", i)
            except ValueError:
                sep = len(tokens)
            chunk = tokens[i:sep]
            if len(chunk) < 2:
                raise OntologyError(f"malformed predicate-object in {subject!r}", lineno)
            record(subject, chunk[0], chunk[1], lineno)
            i = sep + 1

    concept_map: dict[str, Concept] = {}
    for subject in classes:
        cname = labels.get(subject, _display_name(subject))
        concept_map[subject] = Concept(name=cname)

    for name, info in sorted(props.items()):
        if name in object_props:
            continue
        domain = info.get("domain")
        if domain is None:
            raise OntologyError(f"datatype property {name!r} lacks rdfs:domain", info["line"])
        if domain not in concept_map:
            raise OntologyError(
                f"datatype property {name!r}: dangling domain reference {domain!r}", info["line"]
            )
        rng = info.get("range", "")
        datatype = _XSD_MAP.get(_local_name(rng).lower(), "text")
        pname = labels.get(name, _display_name(name))
        concept_map[domain].data_properties.append(
            DataProperty(name=pname, semantic_type=pname, datatype=datatype)
        )

    object_properties: list[ObjectProperty] = []
    for name in sorted(object_props):
        info = props[name]
        domain, rng = info.get("domain"), info.get("range")
        if domain is None or rng is None:
            raise OntologyError(
                f"object property {name!r} lacks rdfs:domain or rdfs:range", info["line"]
            )
        for side, ref in (("domain", domain), ("range", rng)):
            if ref not in concept_map:
                raise OntologyError(
                    f"object property {name!r}: dangling {side} reference {ref!r}", info["line"]
                )
        object_properties.append(
            ObjectProperty(
                name=labels.get(name, _local_name(name)),
                domain_concept=concept_map[domain].name,
                range_concept=concept_map[rng].name,
            )
        )

    onto = Ontology(concepts=list(concept_map.values()), object_properties=object_properties)
    onto.validate()
    return onto


def parse_ontology(source: str, format: str = "native") -> Ontology:
    """Parse ontology text in the given format ("native" or "turtle")."""
    if format == "native":
        return _parse_native(source)
    if format == "turtle":
        return _parse_turtle(source)
    raise OntologyError(f"unknown ontology format {format!r}")


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _passive_column_name(prop_name: str) -> str:
    """Reference-column name for an object property: 'lists' -> 'listedBy';
    multi-word property names are used verbatim."""
    t = prop_name.strip()
    if len(split_words(t)) > 1:
        return t
    w = t[:-1] if t.endswith("s") and len(t) > 1 else t
    if w.endswith("e"):
        w += "d"
    elif w.endswith("y") and len(w) > 1 and w[-2].lower() not in VOWELS:
        w = w[:-1] + "ied"
    else:
        w += "ed"
    return w + "By"


def _connectivity(onto: Ontology) -> dict[str, dict[str, int]]:
    conn: dict[str, dict[str, int]] = {c.name: {} for c in onto.concepts}
    for op in onto.object_properties:
        a, b = op.domain_concept, op.range_concept
        conn[a][b] = conn[a].get(b, 0) + 1
        conn[b][a] = conn[b].get(a, 0) + 1
    return conn


def ontology_to_schemas(
    onto: Ontology, grouping: GroupingConfig | None = None
) -> tuple[SchemaSet, list[str]]:
    """Compile concepts to table schemas and object properties to declared joins.

    Returns (schema set, warnings). Concepts with fewer than min_props data
    properties fold into the eligible concept they share the most object
    properties with (ties broken lexicographically); a small concept with no
    connected eligible host stays standalone.
    """
    onto.validate()
    grouping = grouping or GroupingConfig()
    warnings: list[str] = []

    hosts = {c.name for c in onto.concepts if len(c.data_properties) >= grouping.min_props}
    conn = _connectivity(onto)
    merged_into: dict[str, str] = {}
    for c in onto.concepts:
        if c.name in hosts:
            continue
        linked = [(h, n) for h, n in conn[c.name].items() if h in hosts and n > 0]
        if not linked:
            warnings.append(
                f"concept {c.name!r} has fewer than {grouping.min_props} data properties "
                f"but no connected host; kept standalone"
            )
            continue
        linked.sort(key=lambda hn: (-hn[1], hn[0]))
        merged_into[c.name] = linked[0][0]
        warnings.append(f"merged concept {c.name!r} into {linked[0][0]!r}")

    def home(concept: str) -> str:
        return merged_into.get(concept, concept)

    tables: dict[str, TableSchema] = {}
    for c in onto.concepts:
        if c.name in merged_into:
            continue
        columns: list[Column] = []
        pk = None
        for p in c.data_properties:
            columns.append(Column(p.name, p.semantic_type, p.datatype))
            if p.is_key:
                pk = p.name
        tables[c.name] = TableSchema(name=c.name, columns=columns, primary_key=pk)

    for small, host in sorted(merged_into.items()):
        schema = tables[host]
        existing = set(schema.column_names())
        for p in onto.concept(small).data_properties:
            name = unique_name(p.name, existing)
            if name != p.name:
                warnings.append(
                    f"merge conflict: property {p.name!r} of {small!r} renamed to "
                    f"{name} in table {host!r}"
                )
            existing.add(name)
            schema.columns.append(Column(name, p.semantic_type, p.datatype))

    for name, schema in tables.items():
        if schema.primary_key is None:
            pk_name = f"{slugify(name)}_id"
            existing = set(schema.column_names())
            while pk_name in existing:
                pk_name += "_"
            schema.columns.insert(0, Column(pk_name, f"{name} Identifier", "integer"))
            schema.primary_key = pk_name

    relationships: list[DeclaredJoin] = []
    for op in onto.object_properties:
        domain_t, range_t = home(op.domain_concept), home(op.range_concept)
        if domain_t == range_t:
            warnings.append(
                f"object property {op.name!r} links concepts merged into the same table "
                f"{domain_t!r}; dropped"
            )
            continue
        pk = tables[domain_t].primary_key
        pk_col = tables[domain_t].column(pk)
        schema = tables[range_t]
        existing = set(schema.column_names())
        passive = _passive_column_name(op.name)
        ref_name = unique_name(passive, existing)
        if ref_name != passive:
            warnings.append(
                f"reference column {passive!r} already exists in {range_t!r}; "
                f"renamed to {ref_name}"
            )
        schema.columns.append(Column(ref_name, pk_col.semantic_type, pk_col.datatype))
        relationships.append(
            DeclaredJoin(
                source_table=range_t,
                source_column=ref_name,
                target_table=domain_t,
                target_column=pk,
                kind="pkfk",
            )
        )

    schema_set = SchemaSet(tables=list(tables.values()), relationships=relationships)
    schema_set.validate()
    return schema_set, warnings


def build_dependency_graph(schema_set: SchemaSet) -> DependencyGraph:
    """One node per table, one edge per declared join (FK table -> PK table),
    layered into generation waves.

    Raises on cycles: the generation order requires a DAG.
    """
    schema_set.validate()
    nodes = sorted(t.name for t in schema_set.tables)
    edges = {(j.source_table, j.target_table) for j in schema_set.relationships}
    graph = DependencyGraph(nodes=nodes, edges=edges)
    # added in sorted order, so the cycle reported does not hang on set order
    sorter = TopologicalSorter({n: () for n in nodes})
    for a, b in sorted(edges):
        sorter.add(a, b)
    try:
        sorter.prepare()
    except CycleError as exc:
        # graphlib walks from a table to its dependents; the message reads
        # in the depends-on direction
        raise OntologyError("dependency cycle detected: " + " -> ".join(reversed(exc.args[1]))) from None
    while sorter.is_active():
        wave = sorted(sorter.get_ready())
        graph.waves.append(wave)
        sorter.done(*wave)
    return graph
