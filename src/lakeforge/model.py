"""Corpus data model: schemas, table data, join ground truth, lineage, and the
on-disk layout (one RFC-4180 CSV per table plus a JSON manifest with a content
digest). All cell values are strings; the empty string is the null token.

The manifest is `json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)`
of its values plus a final newline, so its first member is the digest, on
the manifest's second line. The digest is SHA-256 over the bytes on disk: the
manifest without that line, then each CSV in the manifest's table order as
file name, NUL, CSV bytes, NUL. Saving hashes the manifest text it writes, and
loading hashes the bytes it reads, so neither serializes the manifest a second
time. Ground-truth pairs, most of a large manifest, are written straight from
`JoinPair`s through a fixed template rather than through a dict per pair.
Loading checks each ground-truth entry's types first, which is what keeps a
loaded pair within that template.
Validation decides with set and map passes, and looks for the first fault
item by item only when one fails, so its messages are those of a loop.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, fields
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from pathlib import Path

from .common import NULL, CorpusError, _write_json, slugify, unique_name

DATATYPES = ("text", "integer", "decimal", "date", "categorical")

KIND_EXACT = "exact"
KIND_PKFK = "pkfk"
KIND_SEMANTIC = "semantic"
JOIN_KINDS = (KIND_EXACT, KIND_PKFK, KIND_SEMANTIC)

EASY = "easy"
DIFFICULT = "difficult"

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 2


@dataclass
class Column:
    name: str
    semantic_type: str
    datatype: str = "text"

    def validate(self) -> None:
        if self.datatype not in DATATYPES:
            raise CorpusError(f"unknown datatype {self.datatype!r} for column {self.name!r}")


@dataclass
class TableSchema:
    name: str
    columns: list[Column]
    primary_key: str | None = None

    def validate(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise CorpusError(f"table {self.name!r}: duplicate column names {dupes}")
        if self.primary_key is not None and self.primary_key not in names:
            raise CorpusError(
                f"table {self.name!r}: primary key {self.primary_key!r} does not resolve"
            )
        for c in self.columns:
            c.validate()

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise CorpusError(f"table {self.name!r} has no column {name!r}")


@dataclass
class TableData:
    schema: TableSchema
    rows: list[tuple[str, ...]]

    @property
    def name(self) -> str:
        return self.schema.name

    def validate(self) -> None:
        self.schema.validate()
        width = len(self.schema.columns)
        if not set(map(len, self.rows)) <= {width}:
            i, row = next((i, row) for i, row in enumerate(self.rows, start=1) if len(row) != width)
            raise CorpusError(f"table {self.name!r} row {i}: arity {len(row)} != column count {width}")
        if self.schema.primary_key is not None and self.rows:
            keys = list(map(itemgetter(self.schema.column_index(self.schema.primary_key)), self.rows))
            if NULL in keys or len(set(keys)) != len(keys):
                seen: set[str] = set()
                for i, v in enumerate(keys, start=1):
                    if v == NULL:
                        raise CorpusError(f"table {self.name!r} row {i}: null primary key")
                    if v in seen:
                        raise CorpusError(f"table {self.name!r} row {i}: duplicate primary key {v!r}")
                    seen.add(v)

    def column_values(self, column: str) -> list[str]:
        idx = self.schema.column_index(column)
        return [row[idx] for row in self.rows]

    def value_set(self, column: str) -> set[str]:
        """Distinct non-null values; nulls never participate in joins."""
        return {v for v in self.column_values(column) if v != NULL}


ColumnRef = tuple[str, str]  # (table name, column name)


@dataclass(slots=True)
class JoinPair:
    left: ColumnRef
    right: ColumnRef
    kind: str
    difficulty: str = EASY
    key_side: str | None = None  # "left"/"right" for pkfk pairs
    mapping_id: str | None = None

    def __post_init__(self):
        self.left = tuple(self.left)
        self.right = tuple(self.right)
        if self.right < self.left:
            self.left, self.right = self.right, self.left
            if self.key_side == "left":
                self.key_side = "right"
            elif self.key_side == "right":
                self.key_side = "left"

    def key(self) -> tuple[ColumnRef, ColumnRef]:
        return (self.left, self.right)


def _is_ref(value: object) -> bool:
    return (
        isinstance(value, list) and len(value) == 2
        and isinstance(value[0], str) and isinstance(value[1], str)
    )


@dataclass
class LineageEvent:
    event_id: str
    op: str
    source: tuple[str, str | None]
    result: tuple[str, str | None]
    params: dict = field(default_factory=dict)
    # Value-level mapping h (old -> new), defined when the op rewrites whole
    # values consistently; this is what semantic classification consumes.
    value_map: dict[str, str] | None = None
    # Cell-level record [(row index, old, new), ...] for ops that change
    # individual cells (nulls, duplicates); used for byte-exact replay.
    cell_changes: list[tuple[int, str, str]] | None = None

    def to_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "op": self.op,
            "source": list(self.source),
            "result": list(self.result),
            "params": self.params,
            "value_map": self.value_map,
            "cell_changes": [list(c) for c in self.cell_changes] if self.cell_changes else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "LineageEvent":
        """The event of a manifest's lineage entry. A missing key raises
        KeyError, and a value of the wrong type or shape CorpusError."""
        if not isinstance(d, dict):
            raise CorpusError(f"not an object: {d!r}")
        source, result = d["source"], d["result"]
        for key, value in (("source", source), ("result", result)):
            if not (
                isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
                and (value[1] is None or isinstance(value[1], str))
            ):
                raise CorpusError(
                    f"{key!r} is not a list of a string and a string or null: {value!r}"
                )
        event_id, op = d["event_id"], d["op"]
        params, value_map, cells = d.get("params", {}), d.get("value_map"), d.get("cell_changes")
        for key, value in (("event_id", event_id), ("op", op)):
            if not isinstance(value, str):
                raise CorpusError(f"{key!r} is not a string: {value!r}")
        if not isinstance(params, dict):
            raise CorpusError(f"'params' is not an object: {params!r}")
        # the maps can be large, so the messages do not repeat them
        if not (
            value_map is None
            or (isinstance(value_map, dict) and all(isinstance(v, str) for v in value_map.values()))
        ):
            raise CorpusError("'value_map' is neither null nor an object of strings")
        if not (cells is None or (isinstance(cells, list) and all(map(_is_cell_change, cells)))):
            raise CorpusError("'cell_changes' is neither null nor a list of [int, str, str]")
        return LineageEvent(
            event_id=event_id,
            op=op,
            source=tuple(source),
            result=tuple(result),
            params=params,
            value_map=value_map,
            cell_changes=[(c[0], c[1], c[2]) for c in cells] if cells else None,
        )


def _is_cell_change(value: object) -> bool:
    return (
        isinstance(value, list) and len(value) == 3 and type(value[0]) is int
        and isinstance(value[1], str) and isinstance(value[2], str)
    )


def replay_mapping(
    values: list[str],
    value_map: dict[str, str] | None = None,
    cell_changes: list[tuple[int, str, str]] | None = None,
) -> list[str]:
    """Re-apply a recorded mapping to source values; reproduces the perturbed column."""
    out = list(values)
    if value_map:
        out = [value_map.get(v, v) for v in out]
    if cell_changes:
        for i, _old, new in cell_changes:
            out[i] = new
    return out


@dataclass
class CorpusStats:
    tables: int = 0
    base_tables: int = 0
    avg_rows: float = 0.0
    avg_cols: float = 0.0
    exact_joins: int = 0
    semantic_joins: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "CorpusStats":
        """The stats of a manifest. Anything but an object whose keys are
        among the fields is a CorpusError."""
        names = [f.name for f in fields(CorpusStats)]
        if not isinstance(d, dict) or not d.keys() <= set(names):
            raise CorpusError(f"not an object with keys among {names}: {d!r}")
        return CorpusStats(**d)


def keys_increasing(items: list) -> bool:
    """Whether the items' key()s are strictly increasing: already sorted and
    free of duplicates, so deduplicating them would only copy the list."""
    prev = None
    for item in items:
        key = item.key()
        if prev is not None and not prev < key:
            return False
        prev = key
    return True


def dedupe_pairs(pairs: list[JoinPair]) -> list[JoinPair]:
    """Canonical, deduplicated, sorted ground truth (first occurrence wins)."""
    if keys_increasing(pairs):
        return list(pairs)
    seen: dict[tuple, JoinPair] = {}
    for p in pairs:
        seen.setdefault(p.key(), p)
    return [seen[k] for k in sorted(seen)]


@dataclass
class Corpus:
    """Tables, ground truth and lineage of one corpus.

    The table list is fixed once the corpus is built: `__post_init__` sorts
    it and indexes it by name, and `table`/`has_table` read that index. Build
    a new `Corpus` rather than editing `tables` in place.

    `digest` is the manifest digest that load_corpus verified ("" for a
    corpus not loaded). It is not part of the corpus's value, so equality
    ignores it.
    """

    tables: list[TableData]
    ground_truth: list[JoinPair] = field(default_factory=list)
    lineage: list[LineageEvent] = field(default_factory=list)
    seed: int = 0
    stats: CorpusStats = field(default_factory=CorpusStats)
    digest: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        # canonical table order makes save/load the identity on the model
        self.tables = sorted(self.tables, key=lambda t: t.name)
        self.ground_truth = dedupe_pairs(self.ground_truth)
        # the first table of a name wins; validate() rejects duplicates
        self._by_name: dict[str, TableData] = {}
        for t in self.tables:
            self._by_name.setdefault(t.name, t)

    def table(self, name: str) -> TableData:
        try:
            return self._by_name[name]
        except KeyError:
            raise CorpusError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._by_name

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def base_table_names(self) -> list[str]:
        """Tables not produced as the result of any lineage event."""
        derived = {ev.result[0] for ev in self.lineage if ev.op != "noop"}
        return [t.name for t in self.tables if t.name not in derived]

    def mappings(self) -> list[LineageEvent]:
        return [ev for ev in self.lineage if ev.value_map]

    def validate(self) -> None:
        if len(self._by_name) != len(self.tables):
            raise CorpusError("duplicate table names in corpus")
        derived = {ev.result[0] for ev in self.lineage if ev.op != "noop"}
        for t in self.tables:
            t.validate()
            if t.name not in derived:
                for c in t.schema.columns:
                    if not c.semantic_type:
                        raise CorpusError(
                            f"base table {t.name!r} column {c.name!r} lacks a semantic type"
                        )
        refs = {(t.name, c.name) for t in self.tables for c in t.schema.columns}
        if not (
            refs.issuperset(map(attrgetter("left"), self.ground_truth))
            and refs.issuperset(map(attrgetter("right"), self.ground_truth))
            and set(JOIN_KINDS).issuperset(map(attrgetter("kind"), self.ground_truth))
        ):
            for p in self.ground_truth:
                for table, column in (p.left, p.right):
                    if not self.has_table(table):
                        raise CorpusError(f"ground truth references missing table {table!r}")
                    if (table, column) not in refs:
                        raise CorpusError(f"table {table!r} has no column {column!r}")
                if p.kind not in JOIN_KINDS:
                    raise CorpusError(f"unknown join kind {p.kind!r}")
        if not self._by_name.keys() >= derived:
            ev = next(ev for ev in self.lineage if ev.op != "noop" and not self.has_table(ev.result[0]))
            raise CorpusError(f"lineage event {ev.event_id} result table {ev.result[0]!r} missing")
        expect = compute_stats(self)
        if expect != self.stats:
            raise CorpusError(
                f"corpus stats out of date: stored {self.stats.to_dict()} != recomputed {expect.to_dict()}"
            )

    def refresh_stats(self) -> None:
        self.stats = compute_stats(self)


def compute_stats(corpus: Corpus) -> CorpusStats:
    n = len(corpus.tables)
    avg_rows = round(sum(len(t.rows) for t in corpus.tables) / n, 4) if n else 0.0
    avg_cols = round(sum(len(t.schema.columns) for t in corpus.tables) / n, 4) if n else 0.0
    kinds = list(map(attrgetter("kind"), corpus.ground_truth))
    exact = kinds.count(KIND_EXACT) + kinds.count(KIND_PKFK)
    semantic = kinds.count(KIND_SEMANTIC)
    return CorpusStats(
        tables=n,
        base_tables=len(corpus.base_table_names()),
        avg_rows=avg_rows,
        avg_cols=avg_cols,
        exact_joins=exact,
        semantic_joins=semantic,
    )


def _csv_bytes(table: TableData) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.schema.column_names())
    writer.writerows(table.rows)
    return buf.getvalue().encode("utf-8")


def _table_files(corpus: Corpus) -> dict[str, str]:
    files: dict[str, str] = {}
    used: set[str] = set()
    for name in sorted(corpus.table_names()):
        candidate = unique_name(slugify(name), used)
        used.add(candidate)
        files[name] = candidate + ".csv"
    return files


def _manifest_core(corpus: Corpus, files: dict[str, str]) -> dict:
    """The manifest's values other than its digest and ground truth."""
    return {
        "format_version": FORMAT_VERSION,
        "seed": corpus.seed,
        "stats": corpus.stats.to_dict(),
        "tables": [
            {
                "name": t.name,
                "file": files[t.name],
                "primary_key": t.schema.primary_key,
                "rows": len(t.rows),
                "columns": [
                    {"name": c.name, "semantic_type": c.semantic_type, "datatype": c.datatype}
                    for c in t.schema.columns
                ],
            }
            for t in sorted(corpus.tables, key=lambda t: t.name)
        ],
        "lineage": [ev.to_dict() for ev in corpus.lineage],
    }


# A ground-truth pair as json.dumps(..., indent=2) writes an entry of the
# manifest's top-level "ground_truth" list, keys sorted. The slots take the
# JSON text of _pair_fields.
_PAIR_INDENTED = (
    '{\n      "difficulty": %s,\n      "key_side": %s,\n      "kind": %s,\n'
    '      "left": [\n        %s,\n        %s\n      ],\n      "mapping_id": %s,\n'
    '      "right": [\n        %s,\n        %s\n      ]\n    }'
)


def _pair_fields(p: JoinPair) -> tuple[str, ...]:
    return (
        encode_basestring(p.difficulty),
        "null" if p.key_side is None else encode_basestring(p.key_side),
        encode_basestring(p.kind),
        encode_basestring(p.left[0]),
        encode_basestring(p.left[1]),
        "null" if p.mapping_id is None else encode_basestring(p.mapping_id),
        encode_basestring(p.right[0]),
        encode_basestring(p.right[1]),
    )


def _write_manifest(values: dict, pairs: list[JoinPair], emit) -> None:
    """Emit, in pieces, `json.dumps(..., sort_keys=True, indent=2,
    ensure_ascii=False)`'s text of `values` with `pairs` as its
    "ground_truth"."""
    sep = "{\n  "
    for key in sorted([*values, "ground_truth"]):
        emit(f"{sep}{encode_basestring(key)}: ")
        sep = ",\n  "
        if key != "ground_truth":
            _write_json(values[key], "\n  ", emit)
        elif pairs:
            item_sep = "[\n    "
            for p in pairs:
                emit(item_sep + _PAIR_INDENTED % _pair_fields(p))
                item_sep = ",\n    "
            emit("\n  ]")
        else:
            emit("[]")
    emit("\n}")


def save_corpus(corpus: Corpus, directory: str | Path) -> str:
    """Write one CSV per table plus manifest.json; returns the content digest.

    This is the validation point of the generate and perturb stages, which
    do not validate the corpora they build: invariant violations abort
    before anything is written. Identical corpora produce byte-identical
    manifests, in the layout of `json.dumps(..., sort_keys=True, indent=2,
    ensure_ascii=False)`. The manifest is written as bytes, so the bytes
    hashed are the bytes on disk on every platform.
    """
    corpus.validate()
    directory = Path(directory)
    files = _table_files(corpus)
    parts: list[str] = []
    _write_manifest(_manifest_core(corpus, files), dedupe_pairs(corpus.ground_truth), parts.append)
    parts.append("\n")
    # the manifest without its digest line: "{\n" and the members after it
    body = "".join(parts).encode("utf-8")
    del parts
    h = hashlib.sha256(body)
    # in name order, the order of the manifest's "tables"
    blobs = {fname: _csv_bytes(corpus.table(name)) for name, fname in files.items()}
    for fname, blob in blobs.items():
        h.update(fname.encode("utf-8") + b"\x00" + blob + b"\x00")
    digest = h.hexdigest()

    directory.mkdir(parents=True, exist_ok=True)
    for fname, blob in blobs.items():
        (directory / fname).write_bytes(blob)
    with open(directory / MANIFEST_NAME, "wb") as f, memoryview(body) as view:
        f.write(view[:2])
        f.write(f'  "digest": "{digest}",\n'.encode("ascii"))
        f.write(view[2:])
    return digest


def load_corpus(directory: str | Path) -> Corpus:
    """Load and verify a corpus directory written by save_corpus. It leaves
    the cyclic collector alone: `cli.main` pauses it for each command."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CorpusError(f"no {MANIFEST_NAME} in {directory}")
    # hash the manifest's bytes at once and drop them, so no full-size copy
    # outlives the parse; the digest covers every line but the second, the
    # digest member's
    raw = manifest_path.read_bytes()
    start = raw.find(b"\n") + 1
    end = raw.find(b"\n", start) + 1 or len(raw)
    h = hashlib.sha256()
    with memoryview(raw) as view:
        h.update(view[:start])
        h.update(view[end:])
    try:
        text = raw.decode("utf-8")
        del raw
        manifest = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorpusError(f"{manifest_path}: not a JSON manifest: {exc}") from None
    del text
    if not isinstance(manifest, dict):
        raise CorpusError(f"{manifest_path}: not a JSON manifest: top level is not an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CorpusError(
            f"{manifest_path}: format_version {version!r} cannot be verified: only version "
            f"{FORMAT_VERSION} digests are checked; regenerate the corpus"
        )

    tables: list[TableData] = []
    for n, entry in enumerate(manifest.get("tables", []), start=1):
        if not isinstance(entry, dict):
            raise CorpusError(f"{manifest_path}: table entry {n} is not an object: {entry!r}")
        try:
            columns = entry["columns"]
            if not (isinstance(columns, list) and all(isinstance(c, dict) for c in columns)):
                raise CorpusError(
                    f"{manifest_path}: table entry {n}: 'columns' is not a list of objects: {columns!r}"
                )
            strings = [("name", entry["name"]), ("file", entry["file"])] + [
                (f"columns[{i}].{key}", c[key])
                for i, c in enumerate(columns)
                for key in ("name", "semantic_type", "datatype")
            ]
            for key, value in strings:
                if not isinstance(value, str):
                    raise CorpusError(
                        f"{manifest_path}: table entry {n}: {key!r} is not a string: {value!r}"
                    )
            if not (entry.get("primary_key") is None or isinstance(entry["primary_key"], str)):
                raise CorpusError(
                    f"{manifest_path}: table entry {n}: 'primary_key' is neither a string nor null: "
                    f"{entry['primary_key']!r}"
                )
            schema = TableSchema(
                name=entry["name"],
                columns=[Column(c["name"], c["semantic_type"], c["datatype"]) for c in columns],
                primary_key=entry.get("primary_key"),
            )
            path = directory / entry["file"]
        except KeyError as exc:
            raise CorpusError(
                f"{manifest_path}: table entry {n} lacks key {exc.args[0]!r}"
            ) from None
        if not path.exists():
            raise CorpusError(f"manifest references missing CSV {entry['file']!r}")
        blob = path.read_bytes()
        h.update(entry["file"].encode("utf-8") + b"\x00" + blob + b"\x00")
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        rows = list(map(tuple, csv.reader(io.StringIO(text, newline=""))))
        if not rows:
            raise CorpusError(f"table {entry['name']!r}: empty CSV (missing header)")
        header = list(rows[0])
        if header != schema.column_names():
            raise CorpusError(
                f"table {entry['name']!r}: CSV header {header} != schema columns"
            )
        tables.append(TableData(schema=schema, rows=rows[1:]))

    try:
        ground_truth = []
        for n, d in enumerate(manifest.get("ground_truth", []), start=1):
            if not isinstance(d, dict):
                bad = f"not an object: {d!r}"
            else:
                left, right, kind = d["left"], d["right"], d["kind"]
                difficulty = d.get("difficulty", EASY)
                key_side, mapping_id = d.get("key_side"), d.get("mapping_id")
                if not _is_ref(left):
                    bad = f"'left' is not a list of two strings: {left!r}"
                elif not _is_ref(right):
                    bad = f"'right' is not a list of two strings: {right!r}"
                elif not isinstance(kind, str):
                    bad = f"'kind' is not a string: {kind!r}"
                elif not isinstance(difficulty, str):
                    bad = f"'difficulty' is not a string: {difficulty!r}"
                elif not (key_side is None or isinstance(key_side, str)):
                    bad = f"'key_side' is neither a string nor null: {key_side!r}"
                elif not (mapping_id is None or isinstance(mapping_id, str)):
                    bad = f"'mapping_id' is neither a string nor null: {mapping_id!r}"
                else:
                    ground_truth.append(JoinPair(left, right, kind, difficulty, key_side, mapping_id))
                    continue
            raise CorpusError(f"{manifest_path}: ground-truth entry {n}: {bad}")
        lineage = []
        for n, d in enumerate(manifest.get("lineage", []), start=1):
            try:
                lineage.append(LineageEvent.from_dict(d))
            except CorpusError as exc:
                raise CorpusError(f"{manifest_path}: lineage entry {n}: {exc}") from None
    except KeyError as exc:
        raise CorpusError(
            f"{manifest_path}: ground-truth or lineage entry lacks key {exc.args[0]!r}"
        ) from None
    try:
        stats = CorpusStats.from_dict(manifest.get("stats", {}))
    except CorpusError as exc:
        raise CorpusError(f"{manifest_path}: stats: {exc}") from None
    corpus = Corpus(
        tables=tables,
        ground_truth=ground_truth,
        lineage=lineage,
        seed=manifest.get("seed", 0),
        stats=stats,
    )

    # validated ahead of the digest, so a row of the wrong arity is named
    # (validate checks each row's arity, once per load)
    corpus.validate()
    if next(iter(manifest)) != "digest":
        raise CorpusError(f"{manifest_path}: the first member is not the digest")
    expect = h.hexdigest()
    if expect != manifest["digest"]:
        raise CorpusError(
            f"{manifest_path}: digest mismatch: manifest says {manifest['digest']}, contents give {expect}"
        )
    corpus.digest = expect
    return corpus
