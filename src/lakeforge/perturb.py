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

Common step parameters: col=<column glob> (on a step with a value op),
scope=base|all (default base), seed_offset=<int>; any other key must name a
parameter an op of the step declares in `OpSpec.params` (remove_columns'
keep=<glob,...>, header_typos' header_rate). Quoting works for names with
spaces. A composite op chain ("cryptify_headers+text_noise") builds a single
derivative; it may contain at most one value-level op and no table-shape op.
A derivative for which the chain records no lineage event (a value op alone
that changed no cell) is not added, and its step warns instead.

Ops by kind, each kind in `OPS` order (README.md lists their parameters):

    value:  numeric_jitter duplicates text_noise format_noise inject_nulls
            semantic_value_perturb
    schema: cryptify_headers header_typos
    shape:  vertical_split horizontal_split remove_columns sample_rows

A new op is one `OPS` entry: its handler and its parameters.
"""

from __future__ import annotations

import fnmatch
import random
import re
import shlex
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .common import (
    NULL,
    GatewayError,
    PerturbationError,
    norm_header,
    round_half_up,
    seeded_rng,
    split_words,
    stable_hash,
)
from .gateway import CompletionRequest, LlmGateway, PERTURB_TEMPERATURE
from .ground_truth import ValueIndex, recompute_ground_truth
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

VOWELS = set("aeiouAEIOU")
VARIANT_CHUNK_SIZE = 100  # distinct values per semantic-variant prompt

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


def _check_param(op: str, key: str, raw: str, where: str):
    """raw as a value of op's parameter key, if its `OpSpec.params` entry
    accepts it: one of its choices, a number (not a boolean) in its range, or
    else a value of its default's type."""
    default, accepts = OPS[op].params[key]
    if isinstance(default, list):
        return raw.split(",")
    value = _parse_value(raw)
    if isinstance(accepts, tuple):
        if value not in accepts:
            raise PerturbationError(f"{where}: {op} {key} must be one of {'|'.join(accepts)}, got {value!r}")
    elif isinstance(default, bool):
        if not isinstance(value, bool):
            raise PerturbationError(f"{where}: {key} must be true or false, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PerturbationError(f"{where}: {key} must be a number, got {value!r}")
    else:
        lo, hi = map(float, accepts[1:-1].split(","))
        if not (lo < value < hi or value == lo and accepts[0] == "["
                or value == hi and accepts[-1] == "]"):
            raise PerturbationError(f"{where}: {key} must be within {accepts}")
    return value


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
            # no two ops that can share a step declare the same name
            owner = next((op for op in ops if key in OPS[op].params), None)
            if key == "col" and any(OPS[op].kind == VALUE for op in ops):
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
            elif owner is not None:
                params[key] = _check_param(owner, key, val, f"line {lineno}")
            else:
                raise PerturbationError(f"line {lineno}: {op_field} takes no parameter {key}")
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
    pick = itemgetter(*idxs)
    # itemgetter of one index returns the bare value, not a 1-tuple
    rows = [pick(r) for r in t.rows] if len(idxs) > 1 else [(pick(r),) for r in t.rows]
    return TableData(schema=schema, rows=rows)


def _vertical_split(t: TableData, params: dict, seed: int, name: str):
    """Split columns into two overlapping projections, `<name>_a` and `<name>_b`.

    Shared column count is max(1, round(overlap_ratio * columns)). Both
    children keep every row; with unique_key the first child keeps only the
    first row per distinct shared-column tuple."""
    overlap_ratio = params["overlap_ratio"]
    unique_key = params["unique_key"]
    cols = t.schema.column_names()
    if len(cols) < 2:
        raise PerturbationError(f"cannot vertically split single-column table {t.name!r}")
    rng = seeded_rng("vsplit", seed, t.name)
    n_shared = min(len(cols), max(1, round_half_up(float(overlap_ratio) * len(cols))))
    shared = set(rng.sample(cols, n_shared))
    rest = [c for c in cols if c not in shared]
    rng.shuffle(rest)
    half = (len(rest) + 1) // 2
    a_only, b_only = set(rest[:half]), set(rest[half:])

    a = _project(t, shared | a_only, f"{name}_a")
    b = _project(t, shared | b_only, f"{name}_b")
    if unique_key:
        key_idx = [i for i, c in enumerate(a.schema.column_names()) if c in shared]
        first: dict[tuple, tuple] = {}
        for r in a.rows:
            first.setdefault(tuple(r[i] for i in key_idx), r)
        a = TableData(schema=a.schema, rows=list(first.values()))
    event = {"shared": sorted(shared), "overlap_ratio": overlap_ratio, "unique_key": unique_key}
    return [a, b], event


def _horizontal_split(t: TableData, params: dict, seed: int, name: str):
    """Split rows into `<name>_a` and `<name>_b` with round(row_overlap_ratio
    * rows) shared rows; the union covers every row and both children keep
    the parent schema."""
    row_overlap_ratio = params["row_overlap_ratio"]
    n = len(t.rows)
    if n < 2:
        raise PerturbationError(f"cannot horizontally split table {t.name!r} with < 2 rows")
    rng = seeded_rng("hsplit", seed, t.name)
    overlap = min(n, round_half_up(float(row_overlap_ratio) * n))
    order = list(range(n))
    rng.shuffle(order)
    shared = set(order[:overlap])
    rest = order[overlap:]
    half = (len(rest) + 1) // 2
    a_idx = sorted(shared | set(rest[:half]))
    b_idx = sorted(shared | set(rest[half:]))

    a = TableData(schema=_schema_as(t, f"{name}_a"), rows=[t.rows[i] for i in a_idx])
    b = TableData(schema=_schema_as(t, f"{name}_b"), rows=[t.rows[i] for i in b_idx])
    event = {
        "row_overlap_ratio": row_overlap_ratio,
        "shared_rows": len(set(a.rows) & set(b.rows)),
        "union_task": True,  # unionability ground truth, emitted only
    }
    return [a, b], event


def _remove_columns(t: TableData, params: dict, seed: int, name: str):
    """Project onto the columns matching any `keep` pattern."""
    keep_names = [
        c.name
        for c in t.schema.columns
        if any(fnmatch.fnmatchcase(c.name, pat) for pat in params["keep"])
    ]
    if not keep_names:
        raise PerturbationError(f"remove_columns keeps nothing of table {t.name!r}")
    return [_project(t, keep_names, name)], {"kept": keep_names}


def _sample_rows(t: TableData, params: dict, seed: int, name: str):
    fraction = params["fraction"]
    count = min(len(t.rows), round_half_up(float(fraction) * len(t.rows)))
    rng = seeded_rng("sample", seed, t.name)
    idxs = sorted(rng.sample(range(len(t.rows)), count))
    child = TableData(schema=_schema_as(t, name), rows=[t.rows[i] for i in idxs])
    return [child], {"fraction": fraction, "rows": count}


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


def _cryptify_headers(schema: TableSchema, params: dict, seed: int):
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


def _header_typos(schema: TableSchema, params: dict, seed: int):
    rng = seeded_rng("header_typos", seed, schema.name)
    names = schema.column_names()
    count = min(len(names), round_half_up(float(params["header_rate"]) * len(names)))
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
    scale = float(params["rel_scale"])
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
        candidates = [i for i, v in enumerate(values) if v != NULL]
        count = min(len(candidates), round_half_up(float(params["rate"]) * len(values)))
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
    count = min(len(distinct), round_half_up(float(params["typo_rate"]) * len(distinct)))
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


# text_noise mode -> builder of its value map
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
    return _by_map(values, _TEXT_MODES[params["mode"]](_distinct(values), params, rng))


# format_noise kind -> (reformatter, the columns it applies to)
_FORMAT_KINDS = {
    "dates": (reformat_date, lambda col: col.datatype == "date"),
    "addresses": (reformat_address, lambda col: norm_header(col.semantic_type) == "street address"),
    "names": (reformat_name, lambda col: norm_header(col.semantic_type) == "person name"),
}


def _format_noise(values, params, rng, source):
    reformat, _applies = _FORMAT_KINDS[params["kind"]]
    return _by_map(values, _map_distinct(_distinct(values), reformat))


@dataclass(frozen=True)
class _Source:
    """The source column of a derivative's value op, with what the
    semantic_value_perturb handler reads: the source table, its columns in an
    exact or pkfk pair when the step began, the gateway, and the step's index
    and the warnings list that apply_plan returns."""

    table: TableData
    column: str
    joinable: set[str]
    gateway: LlmGateway | None
    step: int
    warnings: list[str]


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


def _semantic_value_perturb(values, params, rng, source: _Source):
    """Rewrite a joinable column's values into semantically equivalent ones.

    The source column must be joinable: in at least one exact or pkfk pair
    when the step began (perturbing joinable columns is the point). Offline
    backend: built-in variant tables with a total injective fallback. LLM
    backend: chunked prompts with schema context; a chunk whose response does
    not line up is left unperturbed. Unchanged values get no value_map entry.
    """
    t, column = source.table, source.column
    if column not in source.joinable:
        raise PerturbationError(
            f"column {t.name}.{column} participates in no exact/pkfk pair"
        )
    if params["backend"] == "offline":
        return _by_map(values, semantic_variant_map(values, t.schema.column(column)))

    if source.gateway is None:
        raise PerturbationError("llm backend requires a gateway")
    distinct = _distinct(values)
    mapping: dict[str, str] = {}
    for i in range(0, len(distinct), VARIANT_CHUNK_SIZE):
        chunk = distinct[i : i + VARIANT_CHUNK_SIZE]
        prompt = _render_variant_prompt(t, column, chunk)
        response = source.gateway.complete(
            CompletionRequest(prompt=prompt, temperature=PERTURB_TEMPERATURE)
        )
        variants = _parse_variant_response(response, len(chunk))
        if variants is None:
            source.warnings.append(
                f"step {source.step}: semantic_value_perturb left a chunk of {t.name!r} "
                f"column {column!r} unperturbed (response arity mismatch)"
            )
            continue
        for old, new in zip(chunk, variants):
            if new != old:
                mapping[old] = new
    return _by_map(values, mapping)


# --------------------------------------------------------------------------
# the op table
# --------------------------------------------------------------------------


def _is_numeric(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    if col.datatype not in ("integer", "decimal"):
        return False
    return all(_decimals_of(v) is not None for v in t.value_set(col.name))


def _is_text(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    return col.datatype in ("text", "categorical")


def _is_formattable(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    _reformat, applies = _FORMAT_KINDS[params["kind"]]
    return applies(col)


def _is_joinable(t: TableData, col: Column, params: dict, joinable: set[str]) -> bool:
    return col.name in joinable


SHAPE, SCHEMA, VALUE = "shape", "schema", "value"


@dataclass(frozen=True)
class OpSpec:
    """One perturbation op. Its handler is the whole op: it reads its own
    params (`fill`), which parse_plan has checked. By kind:

    shape:  (table, params, seed, child name) -> (children, lineage params);
            a split's two children are `<child name>_a` and `_b`
    schema: (schema, params, seed) -> (schema, old -> new header map)
    value:  (values, params, rng, _Source) -> (values, value_map, cell_changes),
            None for an empty value_map or cell_changes

    eligible(table, column, params, joinable columns) picks a value op's
    columns when the step has no col= (None: every non-key column). params,
    the one record of what the op takes, maps each name to (default, accepts):
    a number's range such as "[0, 1)", a tuple of choices, or None for a value
    of the default's type (a boolean, or a comma list of column globs).
    snapshot says the op reads which columns of the tables derived so far are
    in an exact or pkfk pair."""

    kind: str
    handler: Callable
    eligible: Callable[[TableData, Column, dict, set[str]], bool] | None = None
    params: dict[str, tuple] = field(default_factory=dict)
    snapshot: bool = False

    def fill(self, given: dict) -> dict:
        """The values given for this op's parameters, defaults filling the rest."""
        return {key: given.get(key, default) for key, (default, _accepts) in self.params.items()}


OPS: dict[str, OpSpec] = {
    "numeric_jitter": OpSpec(VALUE, _numeric_jitter, _is_numeric, {"rel_scale": (0.01, "[0, 1]")}),
    "duplicates": OpSpec(
        VALUE, _cell_op(lambda rng, distinct: rng.choice(distinct)), params={"rate": (0.1, "[0, 1]")}
    ),
    "text_noise": OpSpec(
        VALUE, _text_noise, _is_text, {"typo_rate": (1.0, "[0, 1]"), "mode": ("typos", tuple(_TEXT_MODES))}
    ),
    "format_noise": OpSpec(VALUE, _format_noise, _is_formattable, {"kind": ("dates", tuple(_FORMAT_KINDS))}),
    "inject_nulls": OpSpec(VALUE, _cell_op(lambda rng, distinct: NULL), params={"rate": (0.1, "[0, 1]")}),
    "semantic_value_perturb": OpSpec(
        VALUE, _semantic_value_perturb, _is_joinable, {"backend": ("offline", ("offline", "llm"))},
        snapshot=True,
    ),
    "cryptify_headers": OpSpec(SCHEMA, _cryptify_headers),
    "header_typos": OpSpec(SCHEMA, _header_typos, params={"header_rate": (0.3, "[0, 1]")}),
    "vertical_split": OpSpec(
        SHAPE, _vertical_split, params={"overlap_ratio": (0.2, "(0, 1)"), "unique_key": (False, None)}
    ),
    # the horizontal overlap ladder starts at 0% (disjoint halves)
    "horizontal_split": OpSpec(SHAPE, _horizontal_split, params={"row_overlap_ratio": (0.1, "[0, 1)")}),
    "remove_columns": OpSpec(SHAPE, _remove_columns, params={"keep": (["*"], None)}),
    "sample_rows": OpSpec(SHAPE, _sample_rows, params={"fraction": (0.5, "[0, 1]")}),
}


# --------------------------------------------------------------------------
# plan execution
# --------------------------------------------------------------------------


def _eligible_columns(t: TableData, spec: OpSpec, params: dict, joinable: set[str]) -> list[str]:
    eligible = spec.eligible
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

    One ValueIndex follows the tables: each derivative enters it as it
    enters the corpus, and the bases that `originals drop` takes out leave
    it. A step whose op reads the ground truth (semantic_value_perturb)
    needs only which columns are in an exact or pkfk pair, so it reads the
    index's joinable columns at the step's start. Ground truth is computed
    once, on the derived corpus, from the same index. The derived corpus is
    not validated here; save_corpus validates it before writing anything."""
    warnings: list[str] = []
    tables: dict[str, TableData] = {t.name: t for t in corpus.tables}
    base_names = set(corpus.base_table_names())
    lineage = list(corpus.lineage)
    consumed: set[str] = set()
    index = ValueIndex(tables.values())
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
                    corpus.seed, gateway, consumed, index,
                )
            except (PerturbationError, GatewayError):  # a gateway failure keeps its exit code
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
            del tables[name]
            index.remove(name)

    derived = Corpus(
        tables=list(tables.values()),
        ground_truth=[],
        lineage=lineage,
        seed=corpus.seed,
    )
    derived.ground_truth = recompute_ground_truth(derived, index=index)
    derived.refresh_stats()
    return derived, warnings


def _check_unused(tables: dict[str, TableData], child_name: str, source: str, k: int) -> None:
    """A derivative's name <table>__<ops>_<k> restarts k in every apply_plan,
    so perturbing a perturbed corpus can reach a name its input already
    holds. Replacing that table would orphan the lineage events naming it."""
    if child_name in tables:
        raise PerturbationError(
            f"derivative {child_name!r} of {source!r} would replace the table of that name",
            step_index=k,
        )


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
    index: ValueIndex,
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
    # each op's own parameters, at their defaults where the step gives none
    op_params = [spec.fill(step.params) for spec in specs]
    # which columns of the tables derived so far are in an exact or pkfk pair
    joinable_by_table = index.joinable() if any(spec.snapshot for spec in specs) else {}
    label = "_".join(step.ops)
    seed_base = seed + step.seed_offset

    for name in sorted(pool):
        src = tables[name]
        joinable = joinable_by_table.get(name, set())
        step_seed = seed_base + k
        child_name = f"{name}__{label}_{k}"

        if specs[0].kind == SHAPE:
            consumed.add(name)
            # parse_plan keeps shape ops out of composites: one op, its children
            children, event_params = specs[0].handler(src, op_params[0], step_seed, child_name)
            for child in children:
                _check_unused(tables, child.name, name, k)
                tables[child.name] = child
                # shape ops only select rows and columns: a child with every row copies its columns
                copies = {c: (name, c) for c in child.schema.column_names()}
                index.add(child, copies if len(child.rows) == len(src.rows) else None)
                _record(
                    lineage,
                    LineageEvent(
                        event_id="",
                        op=step.ops[0],
                        source=(name, None),
                        result=(child.name, None),
                        params=dict(event_params),
                    ),
                )
            continue

        # composite of schema and value ops building one derivative; its value
        # op edits one transposed copy of the rows
        schema = _schema_as(src, child_name)
        original_name = {c: c for c in schema.column_names()}
        columns = list(zip(*src.rows)) or [()] * len(schema.columns)
        pending: list[LineageEvent] = []

        for op, spec, params in zip(step.ops, specs, op_params):
            if spec.kind == SCHEMA:
                schema, hmap = spec.handler(schema, params, step_seed)
                original_name = {
                    hmap.get(cur, cur): orig for cur, orig in original_name.items()
                }
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
                    for c in schema.column_names()
                    if fnmatch.fnmatchcase(original_name[c], step.col_glob)
                    or fnmatch.fnmatchcase(c, step.col_glob)
                ]
            else:
                cols = _eligible_columns(src, spec, params, joinable)
                cols = [c for c in schema.column_names() if original_name[c] in cols]
            if not cols:
                warnings.append(
                    f"step {k}: op {op} matched no eligible column of {name!r}"
                )
            for cname in cols:
                idx = schema.column_index(cname)
                source = _Source(src, original_name[cname], joinable, gateway, k, warnings)
                rng = seeded_rng("noise", stable_hash(step_seed, name, cname), op)
                new_values, vmap, cell_changes = spec.handler(list(columns[idx]), params, rng, source)
                if not vmap and not cell_changes:
                    continue
                columns[idx] = new_values
                pending.append(
                    LineageEvent(
                        event_id="",
                        op=op,
                        source=(name, original_name[cname]),
                        result=(child_name, cname),
                        # what the step gave, not the defaults filled in
                        params={kk: vv for kk, vv in step.params.items() if kk in spec.params},
                        value_map=vmap,
                        cell_changes=cell_changes,
                    )
                )

        if not pending:
            # lineage would not account for the derivative: it would count as
            # a base table
            warnings.append(f"step {k}: {'+'.join(step.ops)} changed no cell of {name!r}")
            continue
        _check_unused(tables, child_name, name, k)
        # the source columns that value events name; every row is kept, so
        # each other column holds its source column's values
        edited = {ev.source[1] for ev in pending} - {None}
        child = TableData(schema=schema, rows=list(zip(*columns)) if edited else list(src.rows))
        child.validate()
        tables[child_name] = child
        index.add(child, {cur: (name, orig) for cur, orig in original_name.items() if orig not in edited})
        consumed.add(name)
        # a later header op in the chain may have renamed columns after a value
        # event was recorded; point result columns at their final names
        orig_to_final = {orig: cur for cur, orig in original_name.items()}
        for ev in pending:
            src_col = ev.source[1]
            if src_col is not None:
                ev.result = (child_name, orig_to_final.get(src_col, ev.result[1]))
            _record(lineage, ev)
    return k + 1
