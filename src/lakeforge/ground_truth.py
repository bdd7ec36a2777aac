"""Join ground truth: every cross-table column pair that is exact, PK-FK or
semantic, with its difficulty, computed mechanically from values and recorded
mappings (`recompute_ground_truth`).

A pair is pkfk when one side is its table's primary key and the other side's
non-empty value set is contained in it; exact when the raw value sets
intersect; semantic when some recorded lineage mapping h connects the value
sets (mapped intersection non-empty). Kinds are mutually exclusive, in that
precedence order. "Semantic" deliberately requires a recorded mapping: the
ground truth stays mechanical and auditable, open-world equivalence detection
is the matcher's job. Semantic types, declared joins and lineage adjacency
play no part. A pair is easy when its two column headers are equal after
`norm_header`, and difficult otherwise.

Both the ground truth and the joinable columns read one `ValueIndex`. It
groups columns into value classes, the columns whose non-null value set is
the same: a corpus has many copies of few value sets. Each value's posting
list holds the classes whose set contains it, in the manner of JOSIE's
value -> set index (Zhu et al., SIGMOD 2019), and only a new class posts its
values. `apply_plan` builds one index per run: it adds each derivative as it
enters the corpus and removes the base tables that `originals drop` takes
out, and its joinability snapshots and its final recompute read that index.
A derivative's column copied unchanged joins its source's class unhashed.

Two columns share a value exactly when their classes share a posting list,
so exact and pkfk are decided once per such class pair: containment is a
property of the two classes, and only which member is its table's key varies.
A mapping entry v -> h(v) connects the classes holding v with those holding
h(v), so walking the mappings in event-id order gives each connected class
pair sharing no value its earliest mapping, the pair's `mapping_id`. Each
class pair's label is then emitted for every member pair that spans two
tables. An all-null column's class is empty, so it never pairs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .common import NULL, norm_header
from .model import (
    DIFFICULT,
    EASY,
    ColumnRef,
    Corpus,
    JoinPair,
    LineageEvent,
    TableData,
    KIND_EXACT,
    KIND_PKFK,
    KIND_SEMANTIC,
)


class ValueIndex:
    """The columns of a set of tables grouped into value classes.

    `class_of` maps each column to its class id, `sets[c]` is class c's value
    set and `members[c]` its columns, `near[c]` the classes sharing a value
    with c (c itself unless its set is empty), `postings` each value to the
    classes holding it and `keys` the primary-key columns. A removed table's
    columns leave their classes; a class is never deleted, so its id and
    postings stay valid."""

    def __init__(self, tables: Iterable[TableData]) -> None:
        self.class_of: dict[ColumnRef, int] = {}
        self.sets: list[frozenset[str]] = []
        self.members: list[list[ColumnRef]] = []
        self.near: list[set[int]] = []
        self.postings: dict[str, list[int]] = {}
        self.keys: set[ColumnRef] = set()
        self._ids: dict[frozenset[str], int] = {}
        self._columns: dict[str, list[ColumnRef]] = {}
        for t in tables:
            self.add(t)

    def add(self, t: TableData, copies: dict[str, ColumnRef] | None = None) -> None:
        """Index the columns of t, a table not in the index. `copies` maps a
        column of t to an indexed column of equal values, whose class it joins."""
        refs = [(t.name, c) for c in t.schema.column_names()]
        self._columns[t.name] = refs
        if t.schema.primary_key is not None:
            self.keys.add((t.name, t.schema.primary_key))
        copies = copies or {}
        for i, ref in enumerate(refs):
            c = self.class_of.get(copies.get(ref[1]))
            if c is None:
                values = frozenset(map(itemgetter(i), t.rows))
                if NULL in values:
                    values = values - {NULL}
                c = self._ids.get(values)
            if c is None:
                c = self._ids[values] = len(self.sets)
                self.sets.append(values)
                self.members.append([])
                near = {c} if values else set()
                self.near.append(near)
                for v in values:
                    posting = self.postings.get(v)
                    if posting is None:
                        self.postings[v] = [c]
                    else:
                        near.update(posting)
                        posting.append(c)
                for d in near:
                    self.near[d].add(c)
            self.class_of[ref] = c
            self.members[c].append(ref)

    def remove(self, name: str) -> None:
        """Drop table `name`'s columns from the index."""
        for ref in self._columns.pop(name):
            self.members[self.class_of.pop(ref)].remove(ref)
            self.keys.discard(ref)

    def joinable(self) -> dict[str, set[str]]:
        """Table -> its columns in some exact or pkfk pair: those holding a
        value that a column of another table also holds."""
        out: dict[str, set[str]] = {}
        for c, refs in enumerate(self.members):
            if refs and len({t for d in self.near[c] for t, _ in self.members[d]}) > 1:
                for t, col in refs:
                    out.setdefault(t, set()).add(col)
        return out

    def ground_truth(self, mappings: Iterable[LineageEvent]) -> list[JoinPair]:
        """The ground truth of the indexed tables under `mappings`, sorted by
        pair key."""
        sets, members, near, postings, keys = (
            self.sets, self.members, self.near, self.postings, self.keys
        )
        # the earliest mapping connecting each class pair that shares no value
        mapped: dict[tuple[int, int], str] = {}
        for ev in sorted(mappings, key=lambda ev: ev.event_id):
            reach: dict[int, set[int]] = {}
            for v, h in ev.value_map.items():
                sources, images = postings.get(v), postings.get(h)
                if sources and images:
                    for d in images:
                        reach.setdefault(d, set()).update(sources)
            for d, sources in reach.items():
                for c in sources:
                    if c not in near[d]:
                        mapped.setdefault((c, d) if c < d else (d, c), ev.event_id)

        # integer ranks order the column refs: pair keys sort as ints
        rank = {ref: i for i, ref in enumerate(sorted(self.class_of))}
        n = len(rank)
        # each class's members as (rank, ref, normalized header, is a key)
        info = [
            [(rank[ref], ref, norm_header(ref[1]), ref in keys) for ref in refs]
            for refs in members
        ]
        out: list[tuple[int, JoinPair]] = []

        def emit(c: int, d: int, mapping_id: str | None) -> None:
            """Label each member pair of classes c <= d spanning two tables."""
            # whether a member of c (of d) would be a key containing the other
            c_keys = mapping_id is None and sets[d] <= sets[c]
            d_keys = mapping_id is None and sets[c] <= sets[d]
            mc, md = info[c], info[d]
            for i, (ra, a, na, a_is_key) in enumerate(mc):
                a_key = c_keys and a_is_key
                for rb, b, nb, b_is_key in mc[i + 1 :] if c == d else md:
                    if a[0] == b[0]:
                        continue
                    b_key = d_keys and b_is_key
                    if ra < rb:
                        left, right, left_key, right_key = a, b, a_key, b_key
                        sort_key = ra * n + rb
                    else:
                        left, right, left_key, right_key = b, a, b_key, a_key
                        sort_key = rb * n + ra
                    if mapping_id is not None:
                        kind, key_side = KIND_SEMANTIC, None
                    elif left_key:
                        kind, key_side = KIND_PKFK, "left"
                    elif right_key:
                        kind, key_side = KIND_PKFK, "right"
                    else:
                        kind, key_side = KIND_EXACT, None
                    pair = JoinPair(
                        left=left,
                        right=right,
                        kind=kind,
                        difficulty=EASY if na == nb else DIFFICULT,
                        key_side=key_side,
                        mapping_id=mapping_id,
                    )
                    out.append((sort_key, pair))

        for c, near_c in enumerate(near):
            for d in near_c:
                if d >= c:
                    emit(c, d, None)
        for (c, d), mapping_id in mapped.items():
            emit(c, d, mapping_id)
        out.sort(key=lambda e: e[0])
        return [pair for _, pair in out]


def recompute_ground_truth(corpus: Corpus, *, index: ValueIndex | None = None) -> list[JoinPair]:
    """The corpus's full ground truth, sorted by pair key. `index`, when
    given, must index exactly the corpus's tables."""
    if index is None:
        index = ValueIndex(corpus.tables)
    return index.ground_truth(corpus.mappings())
