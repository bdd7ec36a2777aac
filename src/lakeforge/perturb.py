"""Table perturbations: column-value noise, schema noise, and table-shape
operations, each emitting lineage events sufficient to reconstruct ground
truth mechanically. Derived tables are added next to their bases (originals
retained), named `<base>__<op>_<k>`.

Plan files are line-oriented:

    # optional desired total table count
    target 100
    step <table_glob> <op[+op...]> [key=value ...]

Common step parameters: col=<column glob>, scope=base|all (default base),
seed_offset=<int>. Quoting works for names with spaces. A composite op chain
("cryptify_headers+text_noise") builds a single derivative and may contain at
most one value-level op.
"""

from __future__ import annotations

import fnmatch
import logging
import re
import shlex
from dataclasses import dataclass, field

from .common import (
    NULL,
    PerturbationError,
    norm_header,
    round_half_up,
    seeded_rng,
    split_words,
    stable_hash,
)
from .gateway import CompletionRequest, LlmGateway, PERTURB_TEMPERATURE
from .ground_truth import recompute_ground_truth
from .model import (
    Column,
    Corpus,
    KIND_EXACT,
    KIND_PKFK,
    LineageEvent,
    TableData,
    TableSchema,
)
from .synth import (
    SYNONYM_WORDS,
    ABBREVIATION_WORDS,
    reformat_address,
    reformat_date,
    reformat_name,
    remove_word,
    semantic_variant_map,
    substitute_words,
    typo_variant,
)

log = logging.getLogger(__name__)

VOWELS = set("aeiouAEIOU")

VALUE_OPS = (
    "numeric_jitter",
    "duplicates",
    "text_noise",
    "format_noise",
    "inject_nulls",
    "semantic_value_perturb",
)
SCHEMA_OPS = ("cryptify_headers", "header_typos")
SHAPE_OPS = ("vertical_split", "horizontal_split", "remove_columns", "sample_rows")
ALL_OPS = VALUE_OPS + SCHEMA_OPS + SHAPE_OPS

DEFAULT_PLAN_TEXT = """\
# Default derived-corpus plan: per base table, two vertical splits (one with a
# unique-key side), one cryptified + typo-noised derivative and one
# semantically perturbed derivative.
step * vertical_split overlap_ratio=0.2 unique_key=false
step * vertical_split overlap_ratio=0.2 unique_key=true
step * cryptify_headers+text_noise typo_rate=0.3
step * semantic_value_perturb backend=offline
"""


@dataclass
class PerturbStep:
    table_glob: str
    ops: list[str]
    params: dict = field(default_factory=dict)
    col_glob: str | None = None
    scope: str = "base"
    seed_offset: int = 0


@dataclass
class PerturbationPlan:
    steps: list[PerturbStep] = field(default_factory=list)
    derived_table_target: int | None = None
    keep_originals: bool = True  # drop tables that served as perturbation sources


def _parse_value(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


_RATE_PARAMS = ("rate", "typo_rate", "fraction")


def _validate_params(ops: list[str], params: dict, where: str) -> None:
    for key in _RATE_PARAMS:
        if key in params and not (0.0 <= float(params[key]) <= 1.0):
            raise PerturbationError(f"{where}: {key} must be within [0, 1]")
    if "overlap_ratio" in params and not (0.0 < float(params["overlap_ratio"]) < 1.0):
        raise PerturbationError(f"{where}: overlap_ratio must be within (0, 1)")
    # the horizontal overlap ladder starts at 0% (disjoint halves)
    if "row_overlap_ratio" in params and not (0.0 <= float(params["row_overlap_ratio"]) < 1.0):
        raise PerturbationError(f"{where}: row_overlap_ratio must be within [0, 1)")
    if "rel_scale" in params and not (0.0 <= float(params["rel_scale"]) <= 1.0):
        raise PerturbationError(f"{where}: rel_scale must be within [0, 1]")


def parse_plan(text: str) -> PerturbationPlan:
    """Parse a plan document; errors carry the offending line number."""
    plan = PerturbationPlan()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise PerturbationError(f"line {lineno}: {exc}")
        if tokens[0] == "target":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise PerturbationError(f"line {lineno}: target takes one integer")
            plan.derived_table_target = int(tokens[1])
            continue
        if tokens[0] == "originals":
            if len(tokens) != 2 or tokens[1] not in ("keep", "drop"):
                raise PerturbationError(f"line {lineno}: originals takes keep or drop")
            plan.keep_originals = tokens[1] == "keep"
            continue
        if tokens[0] != "step":
            raise PerturbationError(f"line {lineno}: expected 'step', 'target' or 'originals'")
        if len(tokens) < 3:
            raise PerturbationError(f"line {lineno}: step needs a selector and an op")
        table_glob, op_field = tokens[1], tokens[2]
        ops = op_field.split("+")
        for op in ops:
            if op not in ALL_OPS:
                raise PerturbationError(f"line {lineno}: unknown op {op!r}")
        if len(ops) > 1:
            if any(op in SHAPE_OPS for op in ops):
                raise PerturbationError(
                    f"line {lineno}: table-shape ops cannot be part of a composite step"
                )
            if sum(op in VALUE_OPS for op in ops) > 1:
                raise PerturbationError(
                    f"line {lineno}: at most one value-level op per composite step"
                )
        params: dict = {}
        col_glob = None
        scope = "base"
        seed_offset = 0
        for tok in tokens[3:]:
            if "=" not in tok:
                raise PerturbationError(f"line {lineno}: expected key=value, got {tok!r}")
            key, val = tok.split("=", 1)
            if key == "col":
                col_glob = val
            elif key == "scope":
                if val not in ("base", "all"):
                    raise PerturbationError(f"line {lineno}: scope must be base or all")
                scope = val
            elif key == "seed_offset":
                seed_offset = int(val)
            elif key == "keep":
                params["keep"] = val.split(",")
            else:
                params[key] = _parse_value(val)
        _validate_params(ops, params, f"line {lineno}")
        plan.steps.append(
            PerturbStep(
                table_glob=table_glob,
                ops=ops,
                params=params,
                col_glob=col_glob,
                scope=scope,
                seed_offset=seed_offset,
            )
        )
    return plan


def default_plan() -> PerturbationPlan:
    return parse_plan(DEFAULT_PLAN_TEXT)


# --------------------------------------------------------------------------
# table-shape ops
# --------------------------------------------------------------------------


def vertical_split(
    t: TableData,
    overlap_ratio: float,
    unique_key: bool = False,
    seed: int = 0,
    name_a: str | None = None,
    name_b: str | None = None,
) -> tuple[TableData, TableData, set[str]]:
    """Split columns into two overlapping projections.

    Shared column count is max(1, round(ratio * columns)). Both children keep
    every row; with unique_key the first child keeps only the first row per
    distinct shared-column tuple."""
    cols = t.schema.column_names()
    if len(cols) < 2:
        raise PerturbationError(f"cannot vertically split single-column table {t.name!r}")
    rng = seeded_rng("vsplit", seed, t.name)
    n_shared = min(len(cols), max(1, round_half_up(overlap_ratio * len(cols))))
    shared = set(rng.sample(cols, n_shared))
    rest = [c for c in cols if c not in shared]
    rng.shuffle(rest)
    half = (len(rest) + 1) // 2
    a_only, b_only = set(rest[:half]), set(rest[half:])

    def project(keep: set[str], name: str, dedupe: bool) -> TableData:
        keep_cols = [c for c in t.schema.columns if c.name in keep]
        idxs = [t.schema.column_index(c.name) for c in keep_cols]
        pk = t.schema.primary_key if t.schema.primary_key in keep else None
        rows = [tuple(r[i] for i in idxs) for r in t.rows]
        if dedupe:
            key_idx = [i for i, c in enumerate(keep_cols) if c.name in shared]
            seen: set[tuple] = set()
            uniq = []
            for r in rows:
                k = tuple(r[i] for i in key_idx)
                if k in seen:
                    continue
                seen.add(k)
                uniq.append(r)
            rows = uniq
        schema = TableSchema(
            name=name,
            columns=[Column(c.name, c.semantic_type, c.datatype) for c in keep_cols],
            primary_key=pk,
        )
        return TableData(schema=schema, rows=rows)

    a = project(shared | a_only, name_a or f"{t.name}__vertical_split_0_a", unique_key)
    b = project(shared | b_only, name_b or f"{t.name}__vertical_split_0_b", False)
    return a, b, shared


def horizontal_split(
    t: TableData,
    row_overlap_ratio: float,
    seed: int = 0,
    name_a: str | None = None,
    name_b: str | None = None,
) -> tuple[TableData, TableData]:
    """Split rows into two tables with round(ratio * rows) shared rows; the
    union covers every row and both children keep the parent schema."""
    n = len(t.rows)
    if n < 2:
        raise PerturbationError(f"cannot horizontally split table {t.name!r} with < 2 rows")
    rng = seeded_rng("hsplit", seed, t.name)
    overlap = min(n, round_half_up(row_overlap_ratio * n))
    order = list(range(n))
    rng.shuffle(order)
    shared = set(order[:overlap])
    rest = order[overlap:]
    half = (len(rest) + 1) // 2
    a_idx = sorted(shared | set(rest[:half]))
    b_idx = sorted(shared | set(rest[half:]))

    def child(idxs: list[int], name: str) -> TableData:
        schema = TableSchema(
            name=name,
            columns=[Column(c.name, c.semantic_type, c.datatype) for c in t.schema.columns],
            primary_key=t.schema.primary_key,
        )
        return TableData(schema=schema, rows=[t.rows[i] for i in idxs])

    a = child(a_idx, name_a or f"{t.name}__horizontal_split_0_a")
    b = child(b_idx, name_b or f"{t.name}__horizontal_split_0_b")
    return a, b


def remove_columns(t: TableData, keep: list[str], name: str | None = None) -> TableData:
    """Project onto the columns matching any keep pattern."""
    keep_names = [
        c.name
        for c in t.schema.columns
        if any(fnmatch.fnmatchcase(c.name, pat) for pat in keep)
    ]
    if not keep_names:
        raise PerturbationError(f"remove_columns keeps nothing of table {t.name!r}")
    idxs = [t.schema.column_index(c) for c in keep_names]
    schema = TableSchema(
        name=name or f"{t.name}__remove_columns_0",
        columns=[
            Column(c.name, c.semantic_type, c.datatype)
            for c in t.schema.columns
            if c.name in keep_names
        ],
        primary_key=t.schema.primary_key if t.schema.primary_key in keep_names else None,
    )
    return TableData(schema=schema, rows=[tuple(r[i] for i in idxs) for r in t.rows])


def sample_rows(t: TableData, fraction: float, seed: int = 0, name: str | None = None) -> TableData:
    count = min(len(t.rows), round_half_up(fraction * len(t.rows)))
    rng = seeded_rng("sample", seed, t.name)
    idxs = sorted(rng.sample(range(len(t.rows)), count))
    schema = TableSchema(
        name=name or f"{t.name}__sample_rows_0",
        columns=[Column(c.name, c.semantic_type, c.datatype) for c in t.schema.columns],
        primary_key=t.schema.primary_key,
    )
    return TableData(schema=schema, rows=[t.rows[i] for i in idxs])


# --------------------------------------------------------------------------
# schema ops
# --------------------------------------------------------------------------


def _initialism(header: str) -> str:
    words = split_words(header)
    if len(words) > 1:
        return "".join(w if w.isupper() else w[0].upper() for w in words)
    word = words[0] if words else header
    if len(word) <= 3:
        return word.upper()
    kept = word[0] + "".join(ch for ch in word[1:] if ch not in VOWELS)
    return kept[:3].upper()


def cryptify_headers(schema: TableSchema) -> tuple[TableSchema, dict[str, str]]:
    """Rewrite headers to cryptic short forms; collisions get numeric suffixes.

    Semantic types are untouched, only the visible header changes."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for c in schema.columns:
        new = _initialism(c.name)
        if new in used:
            k = 1
            while f"{new}{k}" in used:
                k += 1
            new = f"{new}{k}"
        used.add(new)
        mapping[c.name] = new
    new_schema = TableSchema(
        name=schema.name,
        columns=[Column(mapping[c.name], c.semantic_type, c.datatype) for c in schema.columns],
        primary_key=mapping.get(schema.primary_key) if schema.primary_key else None,
    )
    return new_schema, mapping


def header_typos(schema: TableSchema, rate: float, seed: int = 0) -> tuple[TableSchema, dict[str, str]]:
    rng = seeded_rng("header_typos", seed, schema.name)
    names = schema.column_names()
    count = min(len(names), round_half_up(rate * len(names)))
    chosen = set(rng.sample(names, count))
    mapping: dict[str, str] = {}
    used = set(names)
    for name in names:
        if name not in chosen:
            mapping[name] = name
            continue
        new = typo_variant(name, rng)
        tries = 0
        while new in used and tries < 8:
            new = typo_variant(name, rng)
            tries += 1
        used.add(new)
        mapping[name] = new
    new_schema = TableSchema(
        name=schema.name,
        columns=[Column(mapping[c.name], c.semantic_type, c.datatype) for c in schema.columns],
        primary_key=mapping.get(schema.primary_key) if schema.primary_key else None,
    )
    return new_schema, {k: v for k, v in mapping.items() if k != v}


# --------------------------------------------------------------------------
# value ops
# --------------------------------------------------------------------------


def _decimals_of(v: str) -> int | None:
    if re.fullmatch(r"-?\d+", v):
        return 0
    m = re.fullmatch(r"-?\d+\.(\d+)", v)
    if m:
        return len(m.group(1))
    return None


def apply_value_noise(
    values: list[str], op: str, params: dict, seed: int
) -> tuple[list[str], dict[str, str] | None, list[tuple[int, str, str]] | None]:
    """Apply one column-value noise op.

    Returns (new values, value_map, cell_changes): value-consistent ops
    (jitter, text, format) fill value_map, cell-level ops (nulls, duplicates)
    fill cell_changes. Replaying the returned mapping over the input
    reproduces the output byte-for-byte.
    """
    rng = seeded_rng("noise", seed, op)
    distinct = sorted({v for v in values if v != NULL})

    if op == "numeric_jitter":
        scale = float(params.get("rel_scale", 0.01))
        value_map: dict[str, str] = {}
        for v in distinct:
            dec = _decimals_of(v)
            if dec is None:
                raise PerturbationError(f"numeric_jitter on non-numeric value {v!r}")
            x = float(v) * (1.0 + rng.uniform(-scale, scale))
            new = str(int(round(x))) if dec == 0 else f"{x:.{dec}f}"
            if new != v:
                value_map[v] = new
        return [value_map.get(v, v) for v in values], value_map or None, None

    if op == "duplicates":
        rate = float(params.get("rate", 0.1))
        candidates = [i for i, v in enumerate(values) if v != NULL]
        count = min(len(candidates), round_half_up(rate * len(values)))
        chosen = sorted(rng.sample(candidates, count))
        out = list(values)
        cells: list[tuple[int, str, str]] = []
        for i in chosen:
            new = rng.choice(distinct)
            if new != out[i]:
                cells.append((i, out[i], new))
                out[i] = new
        return out, None, cells or None

    if op == "inject_nulls":
        rate = float(params.get("rate", 0.1))
        candidates = [i for i, v in enumerate(values) if v != NULL]
        count = min(len(candidates), round_half_up(rate * len(values)))
        chosen = sorted(rng.sample(candidates, count))
        out = list(values)
        cells = []
        for i in chosen:
            cells.append((i, out[i], NULL))
            out[i] = NULL
        return out, None, cells or None

    if op == "text_noise":
        mode = params.get("mode", "typos")
        value_map = {}
        if mode == "typos":
            rate = float(params.get("typo_rate", 1.0))
            count = min(len(distinct), round_half_up(rate * len(distinct)))
            chosen = rng.sample(distinct, count)
            taken = set(distinct)
            for v in sorted(chosen):
                new = typo_variant(v, rng)
                tries = 0
                while new in taken and tries < 8:
                    new = typo_variant(v, rng)
                    tries += 1
                taken.add(new)
                if new != v:
                    value_map[v] = new
        elif mode == "synonyms":
            for v in distinct:
                new = substitute_words(v, SYNONYM_WORDS)
                if new != v:
                    value_map[v] = new
        elif mode == "abbreviations":
            for v in distinct:
                new = substitute_words(v, ABBREVIATION_WORDS)
                if new != v:
                    value_map[v] = new
        elif mode == "word_removal":
            taken = set(distinct)
            for v in distinct:
                new = remove_word(v, rng)
                if new != v and new not in taken:
                    taken.add(new)
                    value_map[v] = new
        else:
            raise PerturbationError(f"unknown text_noise mode {mode!r}")
        return [value_map.get(v, v) for v in values], value_map or None, None

    if op == "format_noise":
        kind = params.get("kind", "dates")
        fn = {"dates": reformat_date, "addresses": reformat_address, "names": reformat_name}.get(
            kind
        )
        if fn is None:
            raise PerturbationError(f"unknown format_noise kind {kind!r}")
        value_map = {}
        for v in distinct:
            new = fn(v)
            if new != v:
                value_map[v] = new
        return [value_map.get(v, v) for v in values], value_map or None, None

    raise PerturbationError(f"unknown value op {op!r}")


_NUMBERED_LINE = re.compile(r"^\s*(\d+)[.)]\s*(.*\S)\s*$")


def _render_variant_prompt(table: TableData, column: str, chunk: list[str]) -> str:
    col = table.schema.column(column)
    lines = [
        f"Table: {table.name}",
        f"Column: {column} (semantic type: {col.semantic_type}, datatype: {col.datatype})",
        f"Table columns: {table.schema.column_names()}",
        "For each value below, write a semantically equivalent variant of the value",
        "(an abbreviation, expansion, or rephrasing) that preserves its meaning in",
        "this column. Reply with the same numbering, one value per line, as 'k. variant'.",
    ]
    lines += [f"{i}. {v}" for i, v in enumerate(chunk, start=1)]
    return "\n".join(lines)


def _parse_variant_response(text: str, expected: int) -> list[str] | None:
    found: dict[int, str] = {}
    for line in text.splitlines():
        m = _NUMBERED_LINE.match(line)
        if m:
            found[int(m.group(1))] = m.group(2)
    if sorted(found) != list(range(1, expected + 1)):
        return None
    return [found[i] for i in range(1, expected + 1)]


def semantic_value_perturb(
    corpus: Corpus,
    table: str,
    column: str,
    gateway: LlmGateway | None = None,
    backend: str = "offline",
    seed: int = 0,
    chunk_size: int = 100,
    *,
    participants: dict[str, set[str]] | None = None,
) -> tuple[list[str], dict[str, str]]:
    """Rewrite a joinable column's values into semantically equivalent ones.

    The column must participate in at least one exact or pkfk pair (perturbing
    joinable columns is the point). `participants` (table -> such columns),
    when given, must be derived from `corpus.ground_truth`; it spares the scan
    of the whole ground truth. Offline backend: built-in variant tables
    with a total injective fallback. LLM backend: chunked prompts with schema
    context; a chunk whose response does not line up is left unperturbed.
    Returns (new values, old->new mapping; unchanged values get no entry).
    """
    if participants is not None:
        participates = column in participants.get(table, ())
    else:
        ref = (table, column)
        participates = any(
            p.kind in (KIND_EXACT, KIND_PKFK) and ref in (p.left, p.right)
            for p in corpus.ground_truth
        )
    if not participates:
        raise PerturbationError(
            f"column {table}.{column} participates in no exact/pkfk pair"
        )
    t = corpus.table(table)
    values = t.column_values(column)
    col = t.schema.column(column)

    if backend == "offline":
        mapping = semantic_variant_map(values, col)
        return [mapping.get(v, v) for v in values], mapping

    if gateway is None:
        raise PerturbationError("llm backend requires a gateway")
    distinct = sorted({v for v in values if v != NULL})
    mapping: dict[str, str] = {}
    for i in range(0, len(distinct), chunk_size):
        chunk = distinct[i : i + chunk_size]
        prompt = _render_variant_prompt(t, column, chunk)
        response = gateway.complete(
            CompletionRequest(prompt=prompt, temperature=PERTURB_TEMPERATURE)
        )
        variants = _parse_variant_response(response, len(chunk))
        if variants is None:
            log.warning(
                "semantic perturb chunk of %s.%s left unperturbed (response arity mismatch)",
                table,
                column,
            )
            continue
        for old, new in zip(chunk, variants):
            if new != old:
                mapping[old] = new
    return [mapping.get(v, v) for v in values], mapping


# --------------------------------------------------------------------------
# plan execution
# --------------------------------------------------------------------------


def _is_numeric_column(t: TableData, col: Column) -> bool:
    if col.datatype not in ("integer", "decimal"):
        return False
    return all(_decimals_of(v) is not None for v in t.value_set(col.name))


def _eligible_columns(t: TableData, op: str, params: dict, exact_cols: set[str]) -> list[str]:
    pk = t.schema.primary_key
    out = []
    for col in t.schema.columns:
        if col.name == pk:
            continue
        if op == "numeric_jitter":
            ok = _is_numeric_column(t, col)
        elif op == "text_noise":
            ok = col.datatype in ("text", "categorical")
        elif op == "format_noise":
            kind = params.get("kind", "dates")
            ok = (
                (kind == "dates" and col.datatype == "date")
                or (kind == "addresses" and norm_header(col.semantic_type) == "street address")
                or (kind == "names" and norm_header(col.semantic_type) == "person name")
            )
        elif op == "semantic_value_perturb":
            ok = col.name in exact_cols
        else:  # duplicates, inject_nulls
            ok = True
        if ok:
            out.append(col.name)
    return out


def _copy_table(t: TableData, name: str) -> TableData:
    schema = TableSchema(
        name=name,
        columns=[Column(c.name, c.semantic_type, c.datatype) for c in t.schema.columns],
        primary_key=t.schema.primary_key,
    )
    return TableData(schema=schema, rows=list(t.rows))


def apply_plan(
    corpus: Corpus,
    plan: PerturbationPlan,
    gateway: LlmGateway | None = None,
) -> tuple[Corpus, list[str]]:
    """Execute plan steps in order against a copy of the corpus.

    Derived tables are appended (originals retained unless the plan says
    otherwise), lineage events recorded, ground truth recomputed and stats
    refreshed. A step failure aborts the whole plan; a selector matching
    nothing only warns. Returns the derived corpus and warnings."""
    warnings: list[str] = []
    tables: dict[str, TableData] = {t.name: t for t in corpus.tables}
    base_names = set(corpus.base_table_names())
    lineage = list(corpus.lineage)
    consumed: set[str] = set()
    event_n = len(lineage)

    def next_event_id() -> str:
        nonlocal event_n
        event_n += 1
        return f"ev{event_n:05d}"

    if not plan.steps:
        lineage.append(
            LineageEvent(
                event_id=next_event_id(), op="noop", source=("", None), result=("", None)
            )
        )

    def current_snapshot() -> tuple[Corpus, dict[str, set[str]]]:
        """Corpus view of the evolving table set with recomputed ground truth,
        plus the per-table columns participating in exact/pkfk pairs."""
        snapshot = Corpus(
            tables=list(tables.values()),
            ground_truth=[],
            lineage=list(lineage),
            seed=corpus.seed,
        )
        snapshot.ground_truth = recompute_ground_truth(
            snapshot, parent_pairs=corpus.ground_truth
        )
        by_table: dict[str, set[str]] = {}
        for p in snapshot.ground_truth:
            if p.kind in (KIND_EXACT, KIND_PKFK):
                by_table.setdefault(p.left[0], set()).add(p.left[1])
                by_table.setdefault(p.right[0], set()).add(p.right[1])
        return snapshot, by_table

    k = 0
    steps = list(plan.steps)
    rounds = 0
    while True:
        for step in steps:
            try:
                k = _run_step(
                    step, k, tables, base_names, lineage, next_event_id, warnings,
                    corpus, gateway, current_snapshot, consumed,
                )
            except PerturbationError:
                raise
            except Exception as exc:
                raise PerturbationError(str(exc), step_index=k)
        rounds += 1
        if plan.derived_table_target is None or len(tables) >= plan.derived_table_target:
            break
        if rounds >= 50:
            warnings.append(
                f"derived table target {plan.derived_table_target} not reached "
                f"after {rounds} rounds; stopping at {len(tables)} tables"
            )
            break

    if not plan.keep_originals:
        for name in consumed:
            tables.pop(name, None)

    derived = Corpus(
        tables=list(tables.values()),
        ground_truth=[],
        lineage=lineage,
        seed=corpus.seed,
    )
    derived.ground_truth = recompute_ground_truth(derived, parent_pairs=corpus.ground_truth)
    derived.refresh_stats()
    derived.validate()
    return derived, warnings


def _run_step(
    step: PerturbStep,
    k: int,
    tables: dict[str, TableData],
    base_names: set[str],
    lineage: list[LineageEvent],
    next_event_id,
    warnings: list[str],
    corpus: Corpus,
    gateway: LlmGateway | None,
    current_snapshot,
    consumed: set[str],
) -> int:
    pool = [
        name
        for name in tables
        if fnmatch.fnmatchcase(name, step.table_glob)
        and (step.scope == "all" or name in base_names)
    ]
    if not pool:
        warnings.append(f"step {k}: selector {step.table_glob!r} matched no table")
        return k + 1
    sem_corpus: Corpus | None = None
    participants: dict[str, set[str]] = {}
    if "semantic_value_perturb" in step.ops:
        sem_corpus, participants = current_snapshot()
    label = "_".join(step.ops)
    seed_base = corpus.seed + step.seed_offset

    for name in sorted(pool):
        src = tables[name]
        consumed.add(name)
        step_seed = seed_base + k

        if step.ops == ["vertical_split"]:
            a, b, shared = vertical_split(
                src,
                float(step.params.get("overlap_ratio", 0.2)),
                bool(step.params.get("unique_key", False)),
                seed=step_seed,
                name_a=f"{name}__{label}_{k}_a",
                name_b=f"{name}__{label}_{k}_b",
            )
            for child in (a, b):
                tables[child.name] = child
                lineage.append(
                    LineageEvent(
                        event_id=next_event_id(),
                        op="vertical_split",
                        source=(name, None),
                        result=(child.name, None),
                        params={
                            "shared": sorted(shared),
                            "overlap_ratio": step.params.get("overlap_ratio", 0.2),
                            "unique_key": bool(step.params.get("unique_key", False)),
                        },
                    )
                )
            continue

        if step.ops == ["horizontal_split"]:
            a, b = horizontal_split(
                src,
                float(step.params.get("row_overlap_ratio", 0.1)),
                seed=step_seed,
                name_a=f"{name}__{label}_{k}_a",
                name_b=f"{name}__{label}_{k}_b",
            )
            overlap = len({r for r in a.rows} & {r for r in b.rows})
            for child in (a, b):
                tables[child.name] = child
                lineage.append(
                    LineageEvent(
                        event_id=next_event_id(),
                        op="horizontal_split",
                        source=(name, None),
                        result=(child.name, None),
                        params={
                            "row_overlap_ratio": step.params.get("row_overlap_ratio", 0.1),
                            "shared_rows": overlap,
                            "union_task": True,  # unionability ground truth, emitted only
                        },
                    )
                )
            continue

        if step.ops == ["remove_columns"]:
            child = remove_columns(
                src, step.params.get("keep", ["*"]), name=f"{name}__{label}_{k}"
            )
            tables[child.name] = child
            lineage.append(
                LineageEvent(
                    event_id=next_event_id(),
                    op="remove_columns",
                    source=(name, None),
                    result=(child.name, None),
                    params={"kept": child.schema.column_names()},
                )
            )
            continue

        if step.ops == ["sample_rows"]:
            child = sample_rows(
                src,
                float(step.params.get("fraction", 0.5)),
                seed=step_seed,
                name=f"{name}__{label}_{k}",
            )
            tables[child.name] = child
            lineage.append(
                LineageEvent(
                    event_id=next_event_id(),
                    op="sample_rows",
                    source=(name, None),
                    result=(child.name, None),
                    params={"fraction": step.params.get("fraction", 0.5), "rows": len(child.rows)},
                )
            )
            continue

        # composite / schema / value step building one derivative
        child_name = f"{name}__{label}_{k}"
        child = _copy_table(src, child_name)
        original_name = {c: c for c in child.schema.column_names()}
        pending: list[LineageEvent] = []

        for op in step.ops:
            if op in SCHEMA_OPS:
                if op == "cryptify_headers":
                    new_schema, hmap = cryptify_headers(child.schema)
                else:
                    new_schema, hmap = header_typos(
                        child.schema, float(step.params.get("rate", 0.3)), seed=step_seed
                    )
                new_schema.name = child_name
                original_name = {
                    hmap.get(cur, cur): orig for cur, orig in original_name.items()
                }
                child = TableData(schema=new_schema, rows=child.rows)
                pending.append(
                    LineageEvent(
                        event_id="",
                        op=op,
                        source=(name, None),
                        result=(child_name, None),
                        params={"header_map": {o: n for o, n in hmap.items() if o != n}},
                    )
                )
                continue

            # value-level op
            if step.col_glob is not None:
                cols = [
                    c
                    for c in child.schema.column_names()
                    if fnmatch.fnmatchcase(original_name[c], step.col_glob)
                    or fnmatch.fnmatchcase(c, step.col_glob)
                ]
            else:
                exact_cols = participants.get(name, set())
                cols = _eligible_columns(src, op, step.params, exact_cols)
                cols = [c for c in child.schema.column_names() if original_name[c] in cols]
            if not cols:
                warnings.append(
                    f"step {k}: op {op} matched no eligible column of {name!r}"
                )
            for cname in cols:
                idx = child.schema.column_index(cname)
                col_values = [r[idx] for r in child.rows]
                if op == "semantic_value_perturb":
                    new_values, vmap = semantic_value_perturb(
                        sem_corpus,
                        name,
                        original_name[cname],
                        gateway=gateway,
                        backend=step.params.get("backend", "offline"),
                        seed=step_seed,
                        participants=participants,
                    )
                    cell_changes = None
                else:
                    new_values, vmap, cell_changes = apply_value_noise(
                        col_values, op, step.params, stable_hash(step_seed, name, cname)
                    )
                if not vmap and not cell_changes:
                    continue
                rows = [list(r) for r in child.rows]
                for i, v in enumerate(new_values):
                    rows[i][idx] = v
                child = TableData(schema=child.schema, rows=[tuple(r) for r in rows])
                pending.append(
                    LineageEvent(
                        event_id="",
                        op=op,
                        source=(name, original_name[cname]),
                        result=(child_name, cname),
                        params={kk: vv for kk, vv in step.params.items() if kk != "keep"},
                        value_map=vmap,
                        cell_changes=cell_changes,
                    )
                )

        child.validate()
        tables[child_name] = child
        # a later header op in the chain may have renamed columns after a value
        # event was recorded; point result columns at their final names
        orig_to_final = {orig: cur for cur, orig in original_name.items()}
        for ev in pending:
            src_col = ev.source[1]
            if src_col is not None:
                ev.result = (child_name, orig_to_final.get(src_col, ev.result[1]))
            ev.event_id = next_event_id()
            lineage.append(ev)
    return k + 1


