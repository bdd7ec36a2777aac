"""Join ground truth: classification of column pairs as exact / PK-FK /
semantic, difficulty labeling, and mechanical recomputation after
perturbation (`recompute_ground_truth`).

A pair is pkfk when one side is its table's primary key and the other side's
non-empty value set is contained in it; exact when the raw value sets
intersect; semantic when some recorded lineage mapping h connects the value
sets (mapped intersection non-empty). Kinds are mutually exclusive, in that
precedence order. "Semantic" deliberately requires a recorded mapping: the
ground truth stays mechanical and auditable, open-world equivalence detection
is the matcher's job.

When several mappings connect a pair, the one with the smallest event id
wins and becomes the pair's `mapping_id`. The classifier indexes every
mapping's domain values (value -> mapping positions in event-id order), so a
pair is tested only against the mappings whose domain meets one of its two
value sets; any other mapping maps both sides to the empty set and could not
have matched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    ColumnRef,
    Corpus,
    JoinPair,
    TableData,
    KIND_EXACT,
    KIND_PKFK,
    KIND_SEMANTIC,
    classify_pair_difficulty,
    dedupe_pairs,
)
from .ontology import DeclaredJoin


# candidate -> (left table, right table, pair): what recompute_ground_truth
# found on the tables it read, carried to the next recompute
KnownPairs = dict[tuple[ColumnRef, ColumnRef], tuple[TableData, TableData, JoinPair]]


@dataclass
class Classification:
    kind: str  # exact | pkfk | semantic | none
    key_side: str | None = None
    mapping_id: str | None = None


class _Classifier:
    """Corpus-wide classifier with memoized value sets and mapped value sets.

    `_by_value` is an inverted index from each mapping's domain value to the
    positions (in event-id order) of the mappings defined on it, so a pair is
    tested only against the mappings that touch one of its columns.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._values: dict[ColumnRef, set[str]] = {}
        self._mapped: dict[tuple[int, ColumnRef], set[str]] = {}
        self._touching: dict[ColumnRef, set[int]] = {}
        self._mappings = sorted(corpus.mappings(), key=lambda ev: ev.event_id)
        self._by_value: dict[str, list[int]] = {}
        for pos, ev in enumerate(self._mappings):
            for v in ev.value_map:
                self._by_value.setdefault(v, []).append(pos)

    def values(self, ref: ColumnRef) -> set[str]:
        if ref not in self._values:
            self._values[ref] = self.corpus.table(ref[0]).value_set(ref[1])
        return self._values[ref]

    def touching(self, ref: ColumnRef) -> set[int]:
        """Positions of the mappings whose domain meets the column's values."""
        if ref not in self._touching:
            by_value = self._by_value
            self._touching[ref] = {
                pos for v in self.values(ref) if v in by_value for pos in by_value[v]
            }
        return self._touching[ref]

    def mapped(self, pos: int, ref: ColumnRef) -> set[str]:
        key = (pos, ref)
        if key not in self._mapped:
            vm = self._mappings[pos].value_map
            self._mapped[key] = {vm[v] for v in self.values(ref) if v in vm}
        return self._mapped[key]

    def is_pk(self, ref: ColumnRef) -> bool:
        return self.corpus.table(ref[0]).schema.primary_key == ref[1]

    def classify(self, left: ColumnRef, right: ColumnRef) -> Classification:
        lv, rv = self.values(left), self.values(right)
        if self.is_pk(left) and rv and rv <= lv:
            return Classification(KIND_PKFK, key_side="left")
        if self.is_pk(right) and lv and lv <= rv:
            return Classification(KIND_PKFK, key_side="right")
        if lv & rv:
            return Classification(KIND_EXACT)
        # a mapping touching neither column maps both to empty sets, so
        # skipping it leaves the first match, and its event id, unchanged
        for pos in sorted(self.touching(left) | self.touching(right)):
            if self.mapped(pos, left) & rv or self.mapped(pos, right) & lv:
                return Classification(
                    KIND_SEMANTIC, mapping_id=self._mappings[pos].event_id
                )
        return Classification("none")


def classify_join(corpus: Corpus, left: ColumnRef, right: ColumnRef) -> Classification:
    """Classify one cross-table column pair. Symmetric up to pkfk orientation."""
    return _Classifier(corpus).classify(left, right)


def _type_candidates(corpus: Corpus) -> set[tuple[ColumnRef, ColumnRef]]:
    by_tag: dict[str, list[ColumnRef]] = {}
    for t in corpus.tables:
        for c in t.schema.columns:
            if c.semantic_type:
                by_tag.setdefault(c.semantic_type, []).append((t.name, c.name))
    out: set[tuple[ColumnRef, ColumnRef]] = set()
    for refs in by_tag.values():
        for i in range(len(refs)):
            for j in range(i + 1, len(refs)):
                a, b = refs[i], refs[j]
                if a[0] == b[0]:
                    continue  # within-table pairs are never joins
                out.add((a, b) if a <= b else (b, a))
    return out


def _lineage_candidates(corpus: Corpus) -> set[tuple[ColumnRef, ColumnRef]]:
    out: set[tuple[ColumnRef, ColumnRef]] = set()
    names = set(corpus.table_names())

    def resolves(table: str, column: str) -> bool:
        return any(c.name == column for c in corpus.table(table).schema.columns)

    for ev in corpus.lineage:
        st, sc = ev.source
        rt, rc = ev.result
        if sc is None or rc is None:
            continue
        if st in names and rt in names and st != rt:
            if not (resolves(st, sc) and resolves(rt, rc)):
                continue  # columns may have been renamed or dropped downstream
            a, b = (st, sc), (rt, rc)
            out.add((a, b) if a <= b else (b, a))
    return out


def recompute_ground_truth(
    corpus: Corpus,
    declared: list[DeclaredJoin] | None = None,
    parent_pairs: list[JoinPair] | None = None,
    *,
    known: KnownPairs | None = None,
) -> list[JoinPair]:
    """Full mechanical ground truth from semantic types, declared joins,
    lineage-adjacent columns and any parent pairs, each (re)classified.

    `known` carries classifications from one recompute to the next while a
    corpus grows (apply_plan's snapshots). It maps a candidate to the pair
    found for it and the two tables it was read from, and is filled as
    pairs are found. An entry is reused while both names still resolve to
    those table objects: kind and difficulty depend only on the two
    columns, and a semantic pair keeps the earliest connecting mapping,
    which later events cannot undercut. So the corpus's lineage must extend
    the one the entries were found under. Candidates that classified none
    are tried again, since a later mapping may connect them."""
    candidates = _type_candidates(corpus)
    candidates |= _lineage_candidates(corpus)
    names = set(corpus.table_names())
    for j in declared or []:
        a, b = (j.source_table, j.source_column), (j.target_table, j.target_column)
        if a[0] in names and b[0] in names and a[0] != b[0]:
            candidates.add((a, b) if a <= b else (b, a))
    for p in parent_pairs or []:
        if p.left[0] in names and p.right[0] in names:
            try:
                corpus.table(p.left[0]).schema.column_index(p.left[1])
                corpus.table(p.right[0]).schema.column_index(p.right[1])
            except Exception:
                continue
            candidates.add((p.left, p.right))

    if known is None:
        known = {}
    by_name = {t.name: t for t in corpus.tables}
    clf = _Classifier(corpus)
    pairs = []
    for a, b in sorted(candidates):
        ta, tb = by_name[a[0]], by_name[b[0]]
        hit = known.get((a, b))
        if hit is not None and hit[0] is ta and hit[1] is tb:
            pairs.append(hit[2])
            continue
        c = clf.classify(a, b)
        if c.kind != "none":
            pair = JoinPair(
                left=a,
                right=b,
                kind=c.kind,
                difficulty=classify_pair_difficulty(a[1], b[1]),
                key_side=c.key_side,
                mapping_id=c.mapping_id,
            )
            known[(a, b)] = (ta, tb, pair)
            pairs.append(pair)
    return dedupe_pairs(pairs)
