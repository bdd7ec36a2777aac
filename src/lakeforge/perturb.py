"""Table perturbations: column-value noise, schema noise, and table-shape
operations, each emitting lineage events sufficient to reconstruct ground
truth mechanically. Derived tables are added next to their bases (originals
retained unless the plan drops them), named `<base>__<op>_<k>`.

Plan files are line-oriented:

    # optional desired total table count
    target 100
    # keep (default) or drop the base tables that served as perturbation sources
    originals keep
    step <table_glob> <op[+op...]> [key=value ...]

Common step parameters: col=<column glob>, scope=base|all (default base),
seed_offset=<int>. Quoting works for names with spaces. A composite op chain
("cryptify_headers+text_noise") builds a single derivative; it may contain at
most one value-level op and no table-shape op.

Ops by kind, each kind in `OPS` order (README.md lists their parameters):

    value:  numeric_jitter duplicates text_noise format_noise inject_nulls
            semantic_value_perturb
    schema: cryptify_headers header_typos
    shape:  vertical_split horizontal_split remove_columns sample_rows

A new op is one `OPS` entry plus its handler.
"""

from __future__ import annotations

import fnmatch
import logging
import random
import re
import shlex
from dataclasses import dataclass, field
from typing import Callable

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
from .ground_truth import joinable_columns, recompute_ground_truth
from .model import (
    Column,
    Corpus,
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
    # False ("originals drop") removes the base tables that served as perturbation
    # sources; a derived source stays, since its lineage event names it
    keep_originals: bool = True


def _parse_value(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


# numeric parameter -> (its range as errors show it, membership test)
_NUMERIC_PARAMS = {
    "rate": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    "typo_rate": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    "fraction": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    "overlap_ratio": ("(0, 1)", lambda x: 0.0 < x < 1.0),
    # the horizontal overlap ladder starts at 0% (disjoint halves)
    "row_overlap_ratio": ("[0, 1)", lambda x: 0.0 <= x < 1.0),
    "rel_scale": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
}


def _validate_params(ops: list[str], params: dict, where: str) -> None:
    """Numeric parameters must be numbers within their range; the string
    parameters an op of the step declares (`OpSpec.choices`) must name a
    known choice."""
    for key, (bounds, within) in _NUMERIC_PARAMS.items():
        if key not in params:
            continue
        if not isinstance(params[key], (int, float)):
            raise PerturbationError(f"{where}: {key} must be a number, got {params[key]!r}")
        if not within(params[key]):
            raise PerturbationError(f"{where}: {key} must be within {bounds}")
    for op in ops:
        for key, allowed in OPS[op].choices.items():
            if key in params and params[key] not in allowed:
                raise PerturbationError(
                    f"{where}: {op} {key} must be one of {'|'.join(allowed)}, "
                    f"got {params[key]!r}"
                )


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
            if op not in OPS:
                raise PerturbationError(f"line {lineno}: unknown op {op!r}")
        if len(ops) > 1:
            if any(OPS[op].kind == SHAPE for op in ops):
                raise PerturbationError(
                    f"line {lineno}: table-shape ops cannot be part of a composite step"
                )
            if sum(OPS[op].kind == VALUE for op in ops) > 1:
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
                try:
                    seed_offset = int(val)
                except ValueError:
                    raise PerturbationError(
                        f"line {lineno}: seed_offset must be an integer, got {val!r}"
                    ) from None
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


def _schema_as(t: TableData, name: str, keep: set[str] | list[str] | None = None) -> TableSchema:
    """A copy of t's schema under a new name, cut to the columns in `keep`
    if given; the primary key survives only if kept."""
    pk = t.schema.primary_key
    return TableSchema(
        name=name,
        columns=[
            Column(c.name, c.semantic_type, c.datatype)
            for c in t.schema.columns
            if keep is None or c.name in keep
        ],
        primary_key=pk if keep is None or pk in keep else None,
    )


def _project(t: TableData, keep: set[str] | list[str], name: str) -> TableData:
    schema = _schema_as(t, name, keep)
    idxs = [t.schema.column_index(c) for c in schema.column_names()]
    return TableData(schema=schema, rows=[tuple(r[i] for i in idxs) for r in t.rows])


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

    a = _project(t, shared | a_only, name_a or f"{t.name}__vertical_split_0_a")
    b = _project(t, shared | b_only, name_b or f"{t.name}__vertical_split_0_b")
    if unique_key:
        key_idx = [i for i, c in enumerate(a.schema.column_names()) if c in shared]
        first: dict[tuple, tuple] = {}
        for r in a.rows:
            first.setdefault(tuple(r[i] for i in key_idx), r)
        a = TableData(schema=a.schema, rows=list(first.values()))
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

    a = _schema_as(t, name_a or f"{t.name}__horizontal_split_0_a")
    b = _schema_as(t, name_b or f"{t.name}__horizontal_split_0_b")
    return (
        TableData(schema=a, rows=[t.rows[i] for i in a_idx]),
        TableData(schema=b, rows=[t.rows[i] for i in b_idx]),
    )


def remove_columns(t: TableData, keep: list[str], name: str | None = None) -> TableData:
    """Project onto the columns matching any keep pattern."""
    keep_names = [
        c.name
        for c in t.schema.columns
        if any(fnmatch.fnmatchcase(c.name, pat) for pat in keep)
    ]
    if not keep_names:
        raise PerturbationError(f"remove_columns keeps nothing of table {t.name!r}")
    return _project(t, keep_names, name or f"{t.name}__remove_columns_0")


def sample_rows(t: TableData, fraction: float, seed: int = 0, name: str | None = None) -> TableData:
    count = min(len(t.rows), round_half_up(fraction * len(t.rows)))
    rng = seeded_rng("sample", seed, t.name)
    idxs = sorted(rng.sample(range(len(t.rows)), count))
    schema = _schema_as(t, name or f"{t.name}__sample_rows_0")
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


def _renamed(schema: TableSchema, mapping: dict[str, str]) -> TableSchema:
    return TableSchema(
        name=schema.name,
        columns=[Column(mapping[c.name], c.semantic_type, c.datatype) for c in schema.columns],
        primary_key=mapping.get(schema.primary_key) if schema.primary_key else None,
    )


def _fresh_typo(value: str, rng: random.Random, taken: set[str]) -> str:
    """A typo variant of value, redrawn up to 8 times while it is in `taken`;
    the result joins `taken`."""
    new = typo_variant(value, rng)
    tries = 0
    while new in taken and tries < 8:
        new = typo_variant(value, rng)
        tries += 1
    taken.add(new)
    return new


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
    return _renamed(schema, mapping), mapping


def header_typos(schema: TableSchema, rate: float, seed: int = 0) -> tuple[TableSchema, dict[str, str]]:
    rng = seeded_rng("header_typos", seed, schema.name)
    names = schema.column_names()
    count = min(len(names), round_half_up(rate * len(names)))
    chosen = set(rng.sample(names, count))
    used = set(names)
    mapping = {name: _fresh_typo(name, rng, used) if name in chosen else name for name in names}
    return _renamed(schema, mapping), {k: v for k, v in mapping.items() if k != v}


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


def _distinct(values: list[str]) -> list[str]:
    return sorted({v for v in values if v != NULL})


def _map_distinct(distinct: list[str], fn: Callable[[str], str]) -> dict[str, str]:
    """old -> fn(old) for every value fn changes."""
    return {v: new for v in distinct if (new := fn(v)) != v}


def _by_map(values: list[str], value_map: dict[str, str]):
    """A value-consistent op's result: every occurrence of a value maps alike."""
    return [value_map.get(v, v) for v in values], value_map or None, None


def _numeric_jitter(values, params, rng, source):
    scale = float(params.get("rel_scale", 0.01))
    value_map: dict[str, str] = {}
    for v in _distinct(values):
        dec = _decimals_of(v)
        if dec is None:
            raise PerturbationError(f"numeric_jitter on non-numeric value {v!r}")
        x = float(v) * (1.0 + rng.uniform(-scale, scale))
        new = str(int(round(x))) if dec == 0 else f"{x:.{dec}f}"
        if new != v:
            value_map[v] = new
    return _by_map(values, value_map)


def _cell_op(replacement: Callable[[random.Random, list[str]], str]):
    """A cell-level op: round(rate * rows) random non-null cells each take
    replacement(rng, distinct values); unchanged cells are not recorded."""

    def handler(values, params, rng, source):
        rate = float(params.get("rate", 0.1))
        candidates = [i for i, v in enumerate(values) if v != NULL]
        count = min(len(candidates), round_half_up(rate * len(values)))
        chosen = sorted(rng.sample(candidates, count))
        distinct = _distinct(values)
        out = list(values)
        cells: list[tuple[int, str, str]] = []
        for i in chosen:
            new = replacement(rng, distinct)
            if new != out[i]:
                cells.append((i, out[i], new))
                out[i] = new
        return out, None, cells or None

    return handler


def _typo_map(distinct: list[str], params: dict, rng: random.Random) -> dict[str, str]:
    rate = float(params.get("typo_rate", 1.0))
    count = min(len(distinct), round_half_up(rate * len(distinct)))
    chosen = rng.sample(distinct, count)
    taken = set(distinct)
    value_map = {}
    for v in sorted(chosen):
        new = _fresh_typo(v, rng, taken)
        if new != v:
            value_map[v] = new
    return value_map


def _word_removal_map(distinct: list[str], params: dict, rng: random.Random) -> dict[str, str]:
    taken = set(distinct)
    value_map = {}
    for v in distinct:
        new = remove_word(v, rng)
        if new != v and new not in taken:
            taken.add(new)
            value_map[v] = new
    return value_map


# text_noise mode -> builder of its value map; the first is the default
_TEXT_MODES = {
    "typos": _typo_map,
    "synonyms": lambda distinct, params, rng: _map_distinct(
        distinct, lambda v: substitute_words(v, SYNONYM_WORDS)
    ),
    "abbreviations": lambda distinct, params, rng: _map_distinct(
        distinct, lambda v: substitute_words(v, ABBREVIATION_WORDS)
    ),
    "word_removal": _word_removal_map,
}


def _text_noise(values, params, rng, source):
    mode = params.get("mode", "typos")
    if mode not in _TEXT_MODES:
        raise PerturbationError(f"unknown text_noise mode {mode!r}")
    return _by_map(values, _TEXT_MODES[mode](_distinct(values), params, rng))


# format_noise kind -> (reformatter, the columns it applies to); the first is
# the default
_FORMAT_KINDS = {
    "dates": (reformat_date, lambda col: col.datatype == "date"),
    "addresses": (reformat_address, lambda col: norm_header(col.semantic_type) == "street address"),
    "names": (reformat_name, lambda col: norm_header(col.semantic_type) == "person name"),
}


def _format_kind(params: dict):
    kind = params.get("kind", "dates")
    if kind not in _FORMAT_KINDS:
        raise PerturbationError(f"unknown format_noise kind {kind!r}")
    return _FORMAT_KINDS[kind]


def _format_noise(values, params, rng, source):
    reformat, _applies = _format_kind(params)
    return _by_map(values, _map_distinct(_distinct(values), reformat))


@dataclass(frozen=True)
class _Source:
    """The source column of a derivative's value op, with what
    semantic_value_perturb reads: the source table and its columns in an
    exact or pkfk pair when the step began."""

    table: TableData
    column: str
    joinable: set[str]
    gateway: LlmGateway | None


def _semantic_value_perturb(values, params, rng, source):
    new_values, mapping = semantic_value_perturb(
        source.table,
        source.column,
        source.joinable,
        gateway=source.gateway,
        backend=params.get("backend", "offline"),
    )
    return new_values, mapping, None


def apply_value_noise(
    values: list[str], op: str, params: dict, seed: int
) -> tuple[list[str], dict[str, str] | None, list[tuple[int, str, str]] | None]:
    """Apply one column-value noise op.

    Returns (new values, value_map, cell_changes): value-consistent ops
    (jitter, text, format) fill value_map, cell-level ops (nulls, duplicates)
    fill cell_changes. Replaying the returned mapping over the input
    reproduces the output byte-for-byte. semantic_value_perturb, which reads
    the corpus, is not a noise op.
    """
    spec = OPS.get(op)
    if spec is None or spec.kind != VALUE or spec.snapshot:
        raise PerturbationError(f"unknown value op {op!r}")
    return spec.handler(values, params, seeded_rng("noise", seed, op), None)


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
    t: TableData,
    column: str,
    joinable: set[str],
    gateway: LlmGateway | None = None,
    backend: str = "offline",
    chunk_size: int = 100,
) -> tuple[list[str], dict[str, str]]:
    """Rewrite a joinable column's values into semantically equivalent ones.

    The column must be in `joinable`, t's columns that participate in at
    least one exact or pkfk pair (perturbing joinable columns is the point;
    ground_truth.joinable_columns gives them). Offline backend: built-in
    variant tables with a total injective fallback. LLM backend: chunked
    prompts with schema context; a chunk whose response does not line up is
    left unperturbed. Returns (new values, old->new mapping; unchanged values
    get no entry).
    """
    if column not in joinable:
        raise PerturbationError(
            f"column {t.name}.{column} participates in no exact/pkfk pair"
        )
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
                t.name,
                column,
            )
            continue
        for old, new in zip(chunk, variants):
            if new != old:
                mapping[old] = new
    return [mapping.get(v, v) for v in values], mapping


# --------------------------------------------------------------------------
# the op table
# --------------------------------------------------------------------------


def _vertical_split_step(t: TableData, params: dict, seed: int, prefix: str):
    overlap_ratio = params.get("overlap_ratio", 0.2)
    unique_key = bool(params.get("unique_key", False))
    a, b, shared = vertical_split(
        t, float(overlap_ratio), unique_key, seed=seed, name_a=f"{prefix}_a", name_b=f"{prefix}_b"
    )
    event = {"shared": sorted(shared), "overlap_ratio": overlap_ratio, "unique_key": unique_key}
    return [a, b], event


def _horizontal_split_step(t: TableData, params: dict, seed: int, prefix: str):
    row_overlap_ratio = params.get("row_overlap_ratio", 0.1)
    a, b = horizontal_split(
        t, float(row_overlap_ratio), seed=seed, name_a=f"{prefix}_a", name_b=f"{prefix}_b"
    )
    event = {
        "row_overlap_ratio": row_overlap_ratio,
        "shared_rows": len(set(a.rows) & set(b.rows)),
        "union_task": True,  # unionability ground truth, emitted only
    }
    return [a, b], event


def _remove_columns_step(t: TableData, params: dict, seed: int, prefix: str):
    child = remove_columns(t, params.get("keep", ["*"]), name=prefix)
    return [child], {"kept": child.schema.column_names()}


def _sample_rows_step(t: TableData, params: dict, seed: int, prefix: str):
    fraction = params.get("fraction", 0.5)
    child = sample_rows(t, float(fraction), seed=seed, name=prefix)
    return [child], {"fraction": fraction, "rows": len(child.rows)}


def _is_numeric(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    if col.datatype not in ("integer", "decimal"):
        return False
    return all(_decimals_of(v) is not None for v in t.value_set(col.name))


def _is_text(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    return col.datatype in ("text", "categorical")


def _is_formattable(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    _reformat, applies = _format_kind(params)
    return applies(col)


def _is_joinable(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    return col.name in joinable


SHAPE, SCHEMA, VALUE = "shape", "schema", "value"


@dataclass(frozen=True)
class OpSpec:
    """One perturbation op. Handlers by kind:

    shape:  (table, params, seed, child name) -> (children, lineage params)
    schema: (schema, params, seed) -> (schema, old -> new header map)
    value:  (values, params, rng, _Source) -> (values, value_map, cell_changes)

    eligible(table, column, params, joinable columns) picks a value op's
    columns when the step has no col= (None: every non-key column); choices
    lists the values of its string parameters; snapshot says it reads which
    columns of the tables derived so far are in an exact or pkfk pair."""

    kind: str
    handler: Callable
    eligible: Callable[[TableData, Column, dict, set[str]], bool] | None = None
    choices: dict[str, tuple] = field(default_factory=dict)
    snapshot: bool = False


OPS: dict[str, OpSpec] = {
    "numeric_jitter": OpSpec(VALUE, _numeric_jitter, _is_numeric),
    "duplicates": OpSpec(VALUE, _cell_op(lambda rng, distinct: rng.choice(distinct))),
    "text_noise": OpSpec(VALUE, _text_noise, _is_text, {"mode": tuple(_TEXT_MODES)}),
    "format_noise": OpSpec(VALUE, _format_noise, _is_formattable, {"kind": tuple(_FORMAT_KINDS)}),
    "inject_nulls": OpSpec(VALUE, _cell_op(lambda rng, distinct: NULL)),
    "semantic_value_perturb": OpSpec(
        VALUE, _semantic_value_perturb, _is_joinable, {"backend": ("offline", "llm")}, snapshot=True
    ),
    "cryptify_headers": OpSpec(SCHEMA, lambda schema, params, seed: cryptify_headers(schema)),
    "header_typos": OpSpec(
        SCHEMA,
        lambda schema, params, seed: header_typos(
            schema, float(params.get("rate", 0.3)), seed=seed
        ),
    ),
    "vertical_split": OpSpec(SHAPE, _vertical_split_step),
    "horizontal_split": OpSpec(SHAPE, _horizontal_split_step),
    "remove_columns": OpSpec(SHAPE, _remove_columns_step),
    "sample_rows": OpSpec(SHAPE, _sample_rows_step),
}

VALUE_OPS = tuple(op for op, spec in OPS.items() if spec.kind == VALUE)
SCHEMA_OPS = tuple(op for op, spec in OPS.items() if spec.kind == SCHEMA)
SHAPE_OPS = tuple(op for op, spec in OPS.items() if spec.kind == SHAPE)
ALL_OPS = tuple(OPS)


# --------------------------------------------------------------------------
# plan execution
# --------------------------------------------------------------------------


def _eligible_columns(t: TableData, op: str, params: dict, joinable: set[str]) -> list[str]:
    eligible = OPS[op].eligible
    pk = t.schema.primary_key
    return [
        col.name
        for col in t.schema.columns
        if col.name != pk and (eligible is None or eligible(t, col, params, joinable))
    ]


def _record(lineage: list[LineageEvent], ev: LineageEvent) -> None:
    """Append ev to the lineage under the next event id."""
    ev.event_id = f"ev{len(lineage) + 1:05d}"
    lineage.append(ev)


def apply_plan(
    corpus: Corpus,
    plan: PerturbationPlan,
    gateway: LlmGateway | None = None,
) -> tuple[Corpus, list[str]]:
    """Execute plan steps in order against a copy of the corpus.

    Derived tables are appended (originals retained unless the plan says
    otherwise), lineage events recorded, ground truth recomputed and stats
    refreshed. A step failure aborts the whole plan; a selector matching
    nothing only warns. Returns the derived corpus and warnings.

    Ground truth is computed once, on the derived corpus. A step whose op
    reads the ground truth (semantic_value_perturb) needs only which columns
    are in an exact or pkfk pair, so it reads joinable_columns of the tables
    derived so far. The derived corpus is not validated here; save_corpus
    validates it before writing anything."""
    warnings: list[str] = []
    tables: dict[str, TableData] = {t.name: t for t in corpus.tables}
    base_names = set(corpus.base_table_names())
    lineage = list(corpus.lineage)
    consumed: set[str] = set()
    if not plan.steps:
        _record(lineage, LineageEvent(event_id="", op="noop", source=("", None), result=("", None)))

    k = 0
    steps = list(plan.steps)
    rounds = 0
    while True:
        for step in steps:
            try:
                k = _run_step(
                    step, k, tables, base_names, lineage, warnings,
                    corpus.seed, gateway, consumed,
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
        # a consumed derived table stays: its own lineage event names it
        for name in consumed & base_names:
            tables.pop(name, None)

    derived = Corpus(
        tables=list(tables.values()),
        ground_truth=[],
        lineage=lineage,
        seed=corpus.seed,
    )
    derived.ground_truth = recompute_ground_truth(derived)
    derived.refresh_stats()
    return derived, warnings


def _run_step(
    step: PerturbStep,
    k: int,
    tables: dict[str, TableData],
    base_names: set[str],
    lineage: list[LineageEvent],
    warnings: list[str],
    seed: int,
    gateway: LlmGateway | None,
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
    specs = [OPS[op] for op in step.ops]
    # which columns of the tables derived so far are in an exact or pkfk pair
    joinable_by_table = joinable_columns(tables.values()) if any(spec.snapshot for spec in specs) else {}
    label = "_".join(step.ops)
    seed_base = seed + step.seed_offset

    for name in sorted(pool):
        src = tables[name]
        joinable = joinable_by_table.get(name, set())
        consumed.add(name)
        step_seed = seed_base + k
        child_name = f"{name}__{label}_{k}"

        if specs[0].kind == SHAPE:
            # parse_plan keeps shape ops out of composites: one op, its children
            children, params = specs[0].handler(src, step.params, step_seed, child_name)
            for child in children:
                tables[child.name] = child
                _record(
                    lineage,
                    LineageEvent(
                        event_id="",
                        op=step.ops[0],
                        source=(name, None),
                        result=(child.name, None),
                        params=dict(params),
                    ),
                )
            continue

        # composite of schema and value ops building one derivative
        child = TableData(schema=_schema_as(src, child_name), rows=list(src.rows))
        original_name = {c: c for c in child.schema.column_names()}
        pending: list[LineageEvent] = []

        for op, spec in zip(step.ops, specs):
            if spec.kind == SCHEMA:
                new_schema, hmap = spec.handler(child.schema, step.params, step_seed)
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
                cols = _eligible_columns(src, op, step.params, joinable)
                cols = [c for c in child.schema.column_names() if original_name[c] in cols]
            if not cols:
                warnings.append(
                    f"step {k}: op {op} matched no eligible column of {name!r}"
                )
            for cname in cols:
                idx = child.schema.column_index(cname)
                source = _Source(src, original_name[cname], joinable, gateway)
                # the same draws as apply_value_noise with this column's seed
                rng = seeded_rng("noise", stable_hash(step_seed, name, cname), op)
                new_values, vmap, cell_changes = spec.handler(
                    [r[idx] for r in child.rows], step.params, rng, source
                )
                if not vmap and not cell_changes:
                    continue
                rows = [r[:idx] + (v,) + r[idx + 1 :] for r, v in zip(child.rows, new_values)]
                child = TableData(schema=child.schema, rows=rows)
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
            _record(lineage, ev)
    return k + 1
