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
play no part.

Both functions read one posting index (`_postings`): each column's non-null
value set, and each value's posting list of the columns holding it, in the
manner of JOSIE's value -> set index (Zhu et al., SIGMOD 2019). Exact and pkfk
pairs are exactly the cross-table column pairs that share a posting list;
pkfk needs a non-empty contained side, so it always shares one. A mapping
entry v -> h(v) connects the columns holding v with those holding h(v), so
walking the mappings in event-id order finds every semantic pair together
with its earliest mapping, the pair's `mapping_id`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .model import (
    ColumnRef,
    Corpus,
    JoinPair,
    TableData,
    KIND_EXACT,
    KIND_PKFK,
    KIND_SEMANTIC,
    classify_pair_difficulty,
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


def _pair(a: ColumnRef, b: ColumnRef, kind: str, **kw) -> JoinPair:
    return JoinPair(
        left=a, right=b, kind=kind, difficulty=classify_pair_difficulty(a[1], b[1]), **kw
    )


def recompute_ground_truth(corpus: Corpus) -> list[JoinPair]:
    """The corpus's full ground truth, sorted by pair key."""
    values, postings = _postings(corpus.tables)
    pks = {(t.name, t.schema.primary_key) for t in corpus.tables}
    found: dict[tuple[ColumnRef, ColumnRef], JoinPair] = {}

    # columns sharing a value; many values have the same posting list
    near: dict[ColumnRef, set[ColumnRef]] = {}
    for refs in {tuple(refs) for refs in postings.values()}:
        for a in refs:
            near.setdefault(a, set()).update(refs)
    for a, bs in near.items():
        for b in bs:
            if a < b and a[0] != b[0]:
                lv, rv = values[a], values[b]
                if a in pks and rv <= lv:
                    found[(a, b)] = _pair(a, b, KIND_PKFK, key_side="left")
                elif b in pks and lv <= rv:
                    found[(a, b)] = _pair(a, b, KIND_PKFK, key_side="right")
                else:
                    found[(a, b)] = _pair(a, b, KIND_EXACT)

    for ev in sorted(corpus.mappings(), key=lambda ev: ev.event_id):
        # keyed by the columns holding an image, usually fewer than those
        # holding the value it maps from
        reach: dict[ColumnRef, set[ColumnRef]] = {}
        for v, h in ev.value_map.items():
            if v in postings and h in postings:
                for b in postings[h]:
                    reach.setdefault(b, set()).update(postings[v])
        for b, sources in reach.items():
            for a in sources:
                key = (a, b) if a < b else (b, a)
                if a[0] != b[0] and key not in found:
                    found[key] = _pair(*key, KIND_SEMANTIC, mapping_id=ev.event_id)

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
