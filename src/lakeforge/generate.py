"""Dependency-ordered table population.

Tables are generated in waves over the dependency graph: a table only
generates after every table it references, so foreign-key columns can be
sampled from (and prompt-conditioned on) already-generated primary keys.
Backends: "offline" (deterministic synthesizer) and "llm" (prompted through
the gateway, parsed from "Example k: v1; v2; ..." completions, with FK repair
for out-of-set values).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .common import GenerationError, seeded_rng, stable_hash
from .gateway import CompletionRequest, LlmGateway
from .ground_truth import recompute_ground_truth
from .model import Corpus, TableData, TableSchema
from .ontology import DeclaredJoin, DependencyGraph, SchemaSet
from .synth import needs_value_window, synthesize_offline

BATCH_ROWS = 5  # rows requested per prompt, matching the example-list output shape
DEP_CHUNK_BUDGET = 100  # referenced values embedded per prompt


@dataclass
class GenerationPlan:
    waves: list[list[str]]
    row_cap: int  # rows per table
    backend: str = "offline"  # offline | llm


def plan_generation(graph: DependencyGraph, row_caps: int, backend: str = "offline") -> GenerationPlan:
    """Generate in the graph's waves: wave k holds tables whose dependencies
    all sit in waves < k, ordered lexicographically for determinism. Every
    table gets `row_caps` rows."""
    return GenerationPlan(waves=[list(w) for w in graph.waves], row_cap=row_caps, backend=backend)


# --------------------------------------------------------------------------
# prompting
# --------------------------------------------------------------------------

FEW_SHOT_CLAUSE = (
    "For example, the table named Retail Order has columns: "
    "['Order Number', 'Item', 'Unit Price', 'Placed By Customer Account']. "
    "And column 'Placed By Customer Account' comes from the 'Account Number' "
    "of table 'Customer Account'. The row examples should look like "
    "'Example 1: 771204; Desk Lamp; 34.50; 200114; Example 2: 771205; "
    "Bookshelf; 89.99; 200117'."
)
SCHEMA_CLAUSE = "Now, the table named {table} has the following columns: {columns}."
DEPENDENCY_CLAUSE = (
    "The entries from column '{column}' comes from '{ref_column}' of table "
    "'{ref_table}'. Given the entries of column '{column}' are {values}."
)
# Naming the partition keeps batch prompts distinct, so record/replay
# caching cannot collapse successive batches of a dependency-free table.
PARTITION_CLAUSE = "This is partition {partition} of the table."
INSTRUCTION_CLAUSE = (
    "Generate {batch} row examples for the table, one per line, in the form "
    "'Example k: v1; v2; ...' with exactly {width} values per row."
)


@dataclass
class DepValues:
    column: str  # local (foreign key) column
    ref_table: str
    ref_column: str
    values: list[str]


def render_prompt(
    schema: TableSchema,
    deps: list[DepValues],
    batch: int = BATCH_ROWS,
    partition: int | None = None,
) -> str:
    """Render one generation prompt: few-shot block, full column list, one
    dependency sentence per dep embedding the referenced values, and the
    row-count instruction."""
    for dep in deps:
        if not dep.values:
            raise GenerationError(
                f"dependency values for column {dep.column!r} must be non-empty"
            )
    parts = ["The task is to generate row examples for the table."]
    parts.append(FEW_SHOT_CLAUSE)
    parts.append(
        SCHEMA_CLAUSE.format(
            table=schema.name, columns=str(schema.column_names())
        )
    )
    for dep in deps:
        parts.append(
            DEPENDENCY_CLAUSE.format(
                column=dep.column,
                ref_column=dep.ref_column,
                ref_table=dep.ref_table,
                values=str(dep.values),
            )
        )
    if partition is not None:
        parts.append(PARTITION_CLAUSE.format(partition=partition))
    parts.append(
        INSTRUCTION_CLAUSE.format(batch=batch, width=len(schema.columns))
    )
    return "\n".join(parts)


_EXAMPLE_MARK = re.compile(r"Example\s+\d+\s*:")


def parse_completion(text: str, schema: TableSchema) -> tuple[list[tuple[str, ...]], int]:
    """Extract rows from completion text.

    Chunks introduced by an "Example <int>:" marker whose ';'-separated value
    count equals the column count become rows (values trimmed); everything
    else is skipped and counted. Duplicate primary keys are dropped, first
    occurrence wins. Returns (rows, skipped). Raises when no row parses.
    """
    width = len(schema.columns)
    rows: list[tuple[str, ...]] = []
    skipped = 0
    marks = list(_EXAMPLE_MARK.finditer(text))
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(text)
        chunk = text[m.end() : end].split("\n", 1)[0]
        values = [v.strip() for v in chunk.split(";")]
        while values and values[-1] == "":
            values.pop()
        if len(values) == width:
            rows.append(tuple(values))
        else:
            skipped += 1
    for line in text.splitlines():
        if line.strip() and not _EXAMPLE_MARK.search(line):
            skipped += 1
    if schema.primary_key is not None:
        idx = schema.column_index(schema.primary_key)
        seen: set[str] = set()
        unique_rows = []
        for row in rows:
            if row[idx] in seen:
                skipped += 1
                continue
            seen.add(row[idx])
            unique_rows.append(row)
        rows = unique_rows
    if not rows:
        raise GenerationError(
            f"no parseable rows for table {schema.name!r}; raw completion:\n{text}"
        )
    return rows, skipped


# --------------------------------------------------------------------------
# generation
# --------------------------------------------------------------------------


@dataclass
class TableReport:
    rows: int = 0
    repaired: int = 0
    skipped: int = 0
    prompts: int = 0


@dataclass
class GenerationReport:
    tables: dict[str, TableReport] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["table\trows\trepaired\tskipped\tprompts"]
        for name in sorted(self.tables):
            r = self.tables[name]
            lines.append(f"{name}\t{r.rows}\t{r.repaired}\t{r.skipped}\t{r.prompts}")
        return "\n".join(lines)


def _space_registry(schema_set: SchemaSet) -> dict[str, int]:
    """Corpus-level reserved-window index per semantic tag, so numeric/date
    value spaces of distinct tags never overlap."""
    tags = sorted(
        {
            c.semantic_type
            for t in schema_set.tables
            for c in t.columns
            if needs_value_window(c)
        }
    )
    return {tag: i for i, tag in enumerate(tags)}


def _deps_for(schema_set: SchemaSet, table: str) -> list[DeclaredJoin]:
    return sorted(
        (j for j in schema_set.relationships if j.source_table == table),
        key=lambda j: j.key(),
    )


def _generate_offline(
    schema: TableSchema,
    n: int,
    seed: int,
    spaces: dict[str, int],
    fk_pools: dict[str, list[str]],
) -> list[tuple[str, ...]]:
    columns: list[list[str]] = []
    for col in schema.columns:
        if col.name in fk_pools:
            pool = fk_pools[col.name]
            rng = seeded_rng("fk", seed, schema.name, col.name)
            columns.append([rng.choice(pool) for _ in range(n)])
            continue
        unique = col.name == schema.primary_key
        col_seed = stable_hash(seed, schema.name, col.name)
        columns.append(
            synthesize_offline(
                col, n, col_seed, space_index=spaces.get(col.semantic_type), unique=unique
            )
        )
    return [tuple(col[i] for col in columns) for i in range(n)]


def _generate_llm(
    schema: TableSchema,
    n: int,
    deps: list[DepValues],
    gateway: LlmGateway,
    report: TableReport,
) -> list[tuple[str, ...]]:
    import math

    n_prompts = max(1, math.ceil(n / BATCH_ROWS))
    for dep in deps:
        n_prompts = max(n_prompts, math.ceil(len(dep.values) / DEP_CHUNK_BUDGET))

    def dep_slice(dep: DepValues, i: int) -> list[str]:
        size = math.ceil(len(dep.values) / n_prompts)
        chunk = dep.values[i * size : (i + 1) * size]
        if not chunk:  # short dep: cycle values so the clause stays non-empty
            chunk = [dep.values[i % len(dep.values)]]
        return chunk

    rows: list[tuple[str, ...]] = []
    pk_idx = schema.column_index(schema.primary_key) if schema.primary_key else None
    seen_pk: set[str] = set()
    for i in range(n_prompts):
        if len(rows) >= n:
            break
        sliced = [
            DepValues(d.column, d.ref_table, d.ref_column, dep_slice(d, i)) for d in deps
        ]
        prompt = render_prompt(schema, sliced, batch=BATCH_ROWS, partition=i + 1)
        report.prompts += 1
        completion = gateway.complete(CompletionRequest(prompt=prompt))
        try:
            batch_rows, skipped = parse_completion(completion, schema)
        except GenerationError:
            report.skipped += BATCH_ROWS
            continue
        report.skipped += skipped
        for row in batch_rows:
            if pk_idx is not None:
                if row[pk_idx] in seen_pk:
                    report.skipped += 1
                    continue
                seen_pk.add(row[pk_idx])
            rows.append(row)
            if len(rows) >= n:
                break
    if not rows and n > 0:
        raise GenerationError(f"llm backend produced no rows for table {schema.name!r}")
    return rows


def _repair_fk(
    rows: list[tuple[str, ...]],
    schema: TableSchema,
    fk_pools: dict[str, list[str]],
    seed: int,
) -> tuple[list[tuple[str, ...]], int]:
    if not fk_pools or not rows:
        return rows, 0
    repaired = 0
    indexed = {schema.column_index(c): c for c in fk_pools}
    pool_sets = {c: set(v) for c, v in fk_pools.items()}
    out = []
    for row in rows:
        row = list(row)
        for idx, col in indexed.items():
            if row[idx] not in pool_sets[col]:
                rng = seeded_rng("repair", seed, schema.name, col, row[idx])
                row[idx] = rng.choice(fk_pools[col])
                repaired += 1
        out.append(tuple(row))
    return out, repaired


def generate_base_tables(
    schema_set: SchemaSet,
    plan: GenerationPlan,
    gateway: LlmGateway | None = None,
    seed: int = 0,
) -> tuple[Corpus, GenerationReport]:
    """Populate every table wave by wave and assemble the base corpus.

    After generation every declared FK's value set is contained in the
    referenced PK's value set (out-of-set LLM values are repaired by seeded
    replacement). Ground truth is computed from the generated values alone
    (see ground_truth), so a declared join is in it whenever its FK column
    holds a value. Each table is validated as it is generated; the corpus
    as a whole is validated by save_corpus.
    """
    schema_set.validate()
    if plan.backend == "llm" and gateway is None:
        raise GenerationError("llm backend requires a gateway")
    spaces = _space_registry(schema_set)
    report = GenerationReport()
    tables: dict[str, TableData] = {}
    schemas = {t.name: t for t in schema_set.tables}
    n = plan.row_cap

    for wave in plan.waves:
        for name in wave:
            schema = schemas[name]
            treport = TableReport()
            joins = _deps_for(schema_set, name)
            fk_pools: dict[str, list[str]] = {}
            dep_values: list[DepValues] = []
            # every table has n rows and a non-null key, so with n > 0 no
            # referenced key pool is empty
            for j in joins:
                ref = tables[j.target_table]
                pool = sorted(ref.value_set(j.target_column))
                fk_pools[j.source_column] = pool
                dep_values.append(DepValues(j.source_column, j.target_table, j.target_column, pool))
            if n <= 0:
                rows: list[tuple[str, ...]] = []
            elif plan.backend == "offline":
                rows = _generate_offline(schema, n, seed, spaces, fk_pools)
            else:
                rows = _generate_llm(schema, n, dep_values, gateway, treport)
                rows, repaired = _repair_fk(rows, schema, fk_pools, seed)
                treport.repaired = repaired
            treport.rows = len(rows)
            table = TableData(schema=schema, rows=rows)
            table.validate()
            tables[name] = table
            report.tables[name] = treport

    corpus = Corpus(
        tables=[tables[t.name] for t in schema_set.tables],
        ground_truth=[],
        lineage=[],
        seed=seed,
    )
    corpus.ground_truth = recompute_ground_truth(corpus)
    corpus.refresh_stats()
    return corpus, report
