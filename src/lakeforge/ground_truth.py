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

Both functions read one posting index (`_postings`): each column's non-null
value set, and each value's posting list of the columns holding it, in the
manner of JOSIE's value -> set index (Zhu et al., SIGMOD 2019). Exact and pkfk
pairs are exactly the cross-table column pairs that share a posting list;
pkfk needs a non-empty contained side, so it always shares one. A mapping
entry v -> h(v) connects the columns holding v with those holding h(v), so
walking the mappings in event-id order finds every semantic pair together
with its earliest mapping, the pair's `mapping_id`. Equal posting lists share
one id, so each mapping walks its distinct (image list, source list) links
once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .common import norm_header
from .model import (
    DIFFICULT,
    EASY,
    ColumnRef,
    Corpus,
    JoinPair,
    TableData,
    KIND_EXACT,
    KIND_PKFK,
    KIND_SEMANTIC,
)

Postings = dict[str, list[ColumnRef]]


def _postings(tables: Iterable[TableData]) -> tuple[dict[ColumnRef, set[str]], Postings]:
    """Each column's non-null value set, and each value -> the columns holding
    it. A posting list holds a table's columns next to each other, in the
    order the tables come."""
    values: dict[ColumnRef, set[str]] = {}
    postings: Postings = defaultdict(list)
    for t in tables:
        for c in t.schema.column_names():
            ref = (t.name, c)
            values[ref] = t.value_set(c)
            for v in values[ref]:
                postings[v].append(ref)
    return values, postings


def recompute_ground_truth(corpus: Corpus) -> list[JoinPair]:
    """The corpus's full ground truth, sorted by pair key."""
    values, postings = _postings(corpus.tables)
    pks = {(t.name, t.schema.primary_key) for t in corpus.tables}
    norms = {ref: norm_header(ref[1]) for ref in values}
    found: dict[tuple[ColumnRef, ColumnRef], JoinPair] = {}

    def add(a: ColumnRef, b: ColumnRef, kind: str, **kw) -> None:
        difficulty = EASY if norms[a] == norms[b] else DIFFICULT
        found[(a, b)] = JoinPair(left=a, right=b, kind=kind, difficulty=difficulty, **kw)

    # many values have the same posting list: each distinct list gets one id
    ids: dict[tuple[ColumnRef, ...], int] = {}
    list_of = {v: ids.setdefault(tuple(refs), len(ids)) for v, refs in postings.items()}
    lists = list(ids)

    # columns sharing a value
    near: dict[ColumnRef, set[ColumnRef]] = {}
    for refs in lists:
        for a in refs:
            near.setdefault(a, set()).update(refs)
    for a, bs in near.items():
        for b in bs:
            if a < b and a[0] != b[0]:
                lv, rv = values[a], values[b]
                if a in pks and rv <= lv:
                    add(a, b, KIND_PKFK, key_side="left")
                elif b in pks and lv <= rv:
                    add(a, b, KIND_PKFK, key_side="right")
                else:
                    add(a, b, KIND_EXACT)

    for ev in sorted(corpus.mappings(), key=lambda ev: ev.event_id):
        # the distinct (image list, source list) links of the map, keyed by
        # the columns holding an image, usually fewer than those holding the
        # value it maps from
        links: dict[int, set[int]] = {}
        for v, h in ev.value_map.items():
            if v in list_of and h in list_of:
                links.setdefault(list_of[h], set()).add(list_of[v])
        reach: dict[ColumnRef, set[ColumnRef]] = {}
        for image, sources in links.items():
            columns = set().union(*(lists[s] for s in sources))
            for b in lists[image]:
                reach.setdefault(b, set()).update(columns)
        for b, sources in reach.items():
            for a in sources:
                key = (a, b) if a < b else (b, a)
                if a[0] != b[0] and key not in found:
                    add(*key, KIND_SEMANTIC, mapping_id=ev.event_id)

    return [found[k] for k in sorted(found)]


def joinable_columns(tables: Iterable[TableData]) -> dict[str, set[str]]:
    """Table -> its columns in some exact or pkfk pair: those holding a value
    that a column of another table also holds."""
    _values, postings = _postings(tables)
    shared: set[ColumnRef] = set()
    for refs in postings.values():
        if refs[0][0] != refs[-1][0]:  # a table's columns are adjacent
            shared.update(refs)
    out: dict[str, set[str]] = {}
    for t, c in shared:
        out.setdefault(t, set()).add(c)
    return out
