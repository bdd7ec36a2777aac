import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_corpus_digest

from lakeforge import model
from lakeforge.common import CorpusError, _write_json
from lakeforge.model import (
    JOIN_KINDS,
    Column,
    Corpus,
    JoinPair,
    LineageEvent,
    TableData,
    TableSchema,
    compute_stats,
    load_corpus,
    replay_mapping,
    save_corpus,
)


def small_corpus() -> Corpus:
    t1 = TableData(
        schema=TableSchema(
            name="Accounts",
            columns=[
                Column("acct_id", "Account Number", "text"),
                Column("Owner", "Person Name", "text"),
            ],
            primary_key="acct_id",
        ),
        rows=[("1001", "Alice Johnson"), ("1002", "Bruno Keller")],
    )
    t2 = TableData(
        schema=TableSchema(
            name="Payments",
            columns=[
                Column("payment_id", "Payment Identifier", "integer"),
                Column("account", "Account Number", "text"),
            ],
            primary_key="payment_id",
        ),
        rows=[("1", "1001"), ("2", "1001"), ("3", "1002")],
    )
    pair = JoinPair(
        left=("Accounts", "acct_id"), right=("Payments", "account"), kind="pkfk",
        difficulty="difficult", key_side="left",
    )
    corpus = Corpus(tables=[t1, t2], ground_truth=[pair], lineage=[], seed=11)
    corpus.refresh_stats()
    return corpus


def test_table_lookup_by_name():
    corpus = small_corpus()
    assert corpus.table("Payments").name == "Payments"
    assert corpus.has_table("Accounts") and corpus.has_table("Payments")
    assert not corpus.has_table("Ghost") and not corpus.has_table("accounts")
    with pytest.raises(CorpusError, match="no table named 'Ghost'"):
        corpus.table("Ghost")


def test_table_files_take_the_first_free_suffix():
    names = ["A b", "a-b", "a_b", "A_B_2", "!!"]
    corpus = Corpus(tables=[TableData(TableSchema(n, [Column("c", "C")]), []) for n in names])
    assert model._table_files(corpus) == {
        "!!": "t.csv", "A b": "a_b.csv", "A_B_2": "a_b_2.csv", "a-b": "a_b_3.csv", "a_b": "a_b_4.csv",
    }


def test_duplicate_table_names_rejected():
    first, second = (
        TableData(schema=TableSchema(name="T", columns=[Column("c", "Tag")]), rows=rows)
        for rows in ([("1",)], [("2",)])
    )
    corpus = Corpus(tables=[first, second])
    corpus.refresh_stats()
    assert corpus.table("T") is first  # the first table of a name wins
    with pytest.raises(CorpusError, match="^duplicate table names in corpus$"):
        corpus.validate()


def test_arity_validation_names_table_and_row():
    t = TableData(
        schema=TableSchema("T", [Column("a", "A"), Column("b", "B")], primary_key=None),
        rows=[("1", "2"), ("3",)],
    )
    with pytest.raises(CorpusError, match="'T' row 2"):
        t.validate()


def test_primary_key_uniqueness_and_nulls():
    schema = TableSchema("T", [Column("k", "Key", "text")], primary_key="k")
    with pytest.raises(CorpusError, match="duplicate primary key"):
        TableData(schema=schema, rows=[("a",), ("a",)]).validate()
    with pytest.raises(CorpusError, match="null primary key"):
        TableData(schema=schema, rows=[("",)]).validate()


def test_save_load_round_trip(tmp_path):
    corpus = small_corpus()
    digest = save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded == corpus
    # the verified digest rides along, outside the corpus's value
    assert (loaded.digest, corpus.digest) == (digest, "")
    # saving the loaded corpus again is byte-identical
    digest2 = save_corpus(loaded, tmp_path / "again")
    assert digest2 == digest
    m1 = (tmp_path / "manifest.json").read_bytes()
    m2 = (tmp_path / "again" / "manifest.json").read_bytes()
    assert m1 == m2


def test_empty_corpus_round_trip(tmp_path):
    corpus = Corpus(tables=[], ground_truth=[], lineage=[], seed=0)
    corpus.refresh_stats()
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded.stats.tables == 0
    assert loaded.stats.exact_joins == 0


def test_tampered_row_arity_reported(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    path = tmp_path / "accounts.csv"
    lines = path.read_bytes().split(b"\r\n")
    lines[1] = lines[1] + b",extra"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(CorpusError, match="'Accounts' row 1"):
        load_corpus(tmp_path)


def test_tampered_value_digest_mismatch(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    path = tmp_path / "accounts.csv"
    path.write_text(
        path.read_text(encoding="utf-8").replace("Alice Johnson", "Mallory Smith"),
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match="digest mismatch"):
        load_corpus(tmp_path)


def test_missing_csv_reported(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    (tmp_path / "payments.csv").unlink()
    with pytest.raises(CorpusError, match="missing CSV"):
        load_corpus(tmp_path)


def test_dangling_ground_truth_rejected(tmp_path):
    corpus = small_corpus()
    corpus.ground_truth.append(
        JoinPair(left=("Accounts", "acct_id"), right=("Ghost", "x"), kind="exact")
    )
    with pytest.raises(CorpusError, match="missing table"):
        save_corpus(corpus, tmp_path)
    assert not (tmp_path / "manifest.json").exists()  # aborts before writing


def test_stats_recount_matches():
    corpus = small_corpus()
    s = compute_stats(corpus)
    assert s.tables == 2
    assert s.base_tables == 2
    assert s.avg_rows == 2.5
    assert s.avg_cols == 2.0
    assert s.exact_joins == 1 and s.semantic_joins == 0


def test_stats_mismatch_detected(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["stats"]["exact_joins"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


def test_replay_mapping_value_and_cell_level():
    src = ["a", "b", "a", "c"]
    assert replay_mapping(src, value_map={"a": "A"}) == ["A", "b", "A", "c"]
    assert replay_mapping(src, cell_changes=[(1, "b", ""), (3, "c", "x")]) == ["a", "", "a", "x"]


def test_null_values_excluded_from_value_set():
    t = TableData(
        schema=TableSchema("T", [Column("a", "A")], primary_key=None),
        rows=[("x",), ("",), ("y",)],
    )
    assert t.value_set("a") == {"x", "y"}


def test_lineage_round_trip(tmp_path):
    corpus = small_corpus()
    corpus.lineage.append(
        LineageEvent(
            event_id="ev00001",
            op="text_noise",
            source=("Accounts", "Owner"),
            result=("Accounts", "Owner"),
            params={"typo_rate": 0.5},
            value_map={"Alice Johnson": "Alice Jonson"},
            cell_changes=None,
        )
    )
    corpus.refresh_stats()
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded.lineage == corpus.lineage


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 1e-7, 5e-324, float("inf"), float("-inf")]),
    st.text(max_size=8),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=_json_values)
@example(value={"": [], "a": {}, "b": [[], {}], "é": "\u00e9\U0001f600\x00\x1f\\\"\u2028\ud800"})
@example(value=[True, False, None, -0.0, 1e16, 2**70, -(2**70), [1.5, {"k": "\n\t"}]])
def test_indented_json_equals_stdlib(value):
    parts = []
    _write_json(value, "\n", parts.append)
    assert "".join(parts) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def _stale_stats(corpus):
    corpus.tables[0].rows.append(("1003", "Carla Diaz"))


def _duplicate_key(corpus):
    corpus.tables[0].rows.append(corpus.tables[0].rows[0])


def _bad_arity(corpus):
    corpus.tables[1].rows.append(("4", "1002", "extra"))


def _orphan_event(corpus):
    corpus.lineage.append(
        LineageEvent(event_id="ev00001", op="sample_rows", source=("Accounts", None), result=("Gone", None))
    )


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_stale_stats, "stats out of date"),
        (_duplicate_key, "duplicate primary key"),
        (_bad_arity, "'Payments' row 4: arity 3"),
        (_orphan_event, "missing"),
    ],
)
def test_save_rejects_a_broken_corpus_before_writing_any_file(tmp_path, breakage, message):
    corpus = small_corpus()
    breakage(corpus)
    out = tmp_path / "out"
    with pytest.raises(CorpusError, match=message):
        save_corpus(corpus, out)
    assert not out.exists()


# quotes, backslashes, control, non-ASCII and astral characters
_names = st.text(
    st.sampled_from(["a", "B", " ", "_", '"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "\u2028", "中", "\U0001f600"]),
    min_size=1,
    max_size=5,
)


@st.composite
def _corpora(draw):
    tables = []
    for name in draw(st.lists(_names, min_size=2, max_size=3, unique=True)):
        columns = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
        cell = st.just("") | _names
        rows = draw(st.lists(st.tuples(*[cell] * len(columns)), max_size=2))
        tables.append(TableData(TableSchema(name, [Column(c, "Tag") for c in columns]), rows))
    # canonical ground truth: left before right in each pair, pairs sorted
    # and unique
    keys = set()
    for _ in range(draw(st.integers(0, 5))):
        ends = draw(st.lists(st.sampled_from(tables), min_size=2, max_size=2, unique_by=lambda t: t.name))
        ends = sorted((t.name, draw(st.sampled_from(t.schema.column_names()))) for t in ends)
        keys.add(tuple(ends))
    pairs = [
        JoinPair(
            left,
            right,
            kind=draw(st.sampled_from(JOIN_KINDS)),
            difficulty=draw(st.sampled_from(["easy", "difficult"])),
            key_side=draw(st.none() | st.sampled_from(["left", "right"]) | _names),
            mapping_id=draw(st.none() | st.just("ev00001") | _names),
        )
        for left, right in sorted(keys)
    ]
    ref = draw(st.sampled_from([(t.name, c) for t in tables for c in t.schema.column_names()]))
    lineage = [LineageEvent(
        "ev00001", "text_noise", ref, ref, params={"typo_rate": 0.5},
        value_map=draw(st.dictionaries(_names, _names, max_size=2)) or None,
    )]
    corpus = Corpus(tables=tables, ground_truth=pairs, lineage=lineage, seed=draw(st.integers(0, 2**40)))
    corpus.refresh_stats()
    return corpus


def _empty_corpus():
    corpus = Corpus(tables=[], seed=3)
    corpus.refresh_stats()
    return corpus


@settings(max_examples=60, deadline=None, derandomize=True)
@given(corpus=_corpora())
@example(corpus=small_corpus())
@example(corpus=_empty_corpus())
def test_manifest_and_digest_equal_the_dict_encodings(corpus):
    """The template that writes ground-truth pairs gives the bytes the stdlib
    gives for the manifest as one dict per pair, and the digest is the
    README's rule applied to the files saved."""
    files = model._table_files(corpus)
    core = model._manifest_core(corpus, files)
    core["ground_truth"] = [
        {"left": list(p.left), "right": list(p.right), "kind": p.kind, "difficulty": p.difficulty,
         "key_side": p.key_side, "mapping_id": p.mapping_id}
        for p in corpus.ground_truth
    ]
    with tempfile.TemporaryDirectory() as directory:
        digest = save_corpus(corpus, directory)
        assert digest == reference_corpus_digest(directory)
        core["digest"] = digest
        expect = json.dumps(core, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        manifest = (Path(directory) / "manifest.json").read_bytes()
        assert manifest == expect.encode("utf-8")
        # save/load is the identity, on the model and on the bytes
        loaded = load_corpus(directory)
        assert loaded == corpus
        save_corpus(loaded, Path(directory) / "again")
        assert (Path(directory) / "again" / "manifest.json").read_bytes() == manifest


def _edit_manifest(edit):
    """Apply `edit` to the saved manifest's values and write them back in
    save_corpus's layout. Validation runs before the digest check, so the
    stale digest cannot mask the fault."""

    def damage(directory):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    return damage


def _set_pair(key, value):
    return _edit_manifest(lambda manifest: manifest["ground_truth"][0].__setitem__(key, value))


def _rewrite_csv(file, rows):
    def damage(directory):
        header = (directory / file).read_bytes().split(b"\r\n")[0]
        body = b"".join(",".join(row).encode() + b"\r\n" for row in rows)
        (directory / file).write_bytes(header + b"\r\n" + body)

    return damage


_second_pair_kind_integer = _edit_manifest(
    lambda manifest: manifest["ground_truth"].append(dict(manifest["ground_truth"][0], kind=3))
)


def _swap_ends(manifest):
    pair = manifest["ground_truth"][0]
    pair["left"], pair["right"] = pair["right"], pair["left"]


_repeated_pair = _edit_manifest(
    lambda manifest: manifest["ground_truth"].append(dict(manifest["ground_truth"][0]))
)
# Accounts.Owner sorts before Accounts.acct_id ("O" < "a"), so this second
# pair precedes the first
_earlier_second_pair = _edit_manifest(
    lambda manifest: manifest["ground_truth"].append(
        dict(manifest["ground_truth"][0], left=["Accounts", "Owner"], kind="exact", key_side=None)
    )
)


# small_corpus's one pair is Accounts.acct_id (left, the key) and
# Payments.account (right)
@pytest.mark.parametrize(
    "damages, message",
    [
        ([_set_pair("right", ["Payments", "ghost"])], "table 'Payments' has no column 'ghost'"),
        ([_set_pair("kind", "fuzzy")], "unknown join kind 'fuzzy'"),
        ([_set_pair("difficulty", "hard")], "unknown difficulty 'hard'"),
        ([_set_pair("difficulty", "hard"), _set_pair("kind", "fuzzy")], "unknown join kind 'fuzzy'"),
        ([_edit_manifest(_swap_ends)],
         "ground-truth pair 1: left ('Payments', 'account') does not sort before right ('Accounts', 'acct_id')"),
        ([_repeated_pair],
         "ground-truth pair 2: ('Accounts', 'acct_id') and ('Payments', 'account') do not sort after pair 1"),
        ([_earlier_second_pair],
         "ground-truth pair 2: ('Accounts', 'Owner') and ('Payments', 'account') do not sort after pair 1"),
        ([_edit_manifest(_swap_ends), _set_pair("kind", "fuzzy")], "unknown join kind 'fuzzy'"),
        ([_second_pair_kind_integer], "{manifest}: ground-truth entry 2: 'kind' is not a string: 3"),
        (
            [_set_pair("kind", "fuzzy"), _rewrite_csv("accounts.csv", [("1001", "Alice Johnson", "x")])],
            "table 'Accounts' row 1: arity 3 != column count 2",
        ),
        ([_rewrite_csv("payments.csv", [("1", "1001"), ("1", "1001"), ("", "1002")])],
         "table 'Payments' row 2: duplicate primary key '1'"),
        ([_rewrite_csv("payments.csv", [("", "1001"), ("2", "1001"), ("2", "1002")])],
         "table 'Payments' row 1: null primary key"),
    ],
    ids=["pair-missing-column", "pair-unknown-kind", "pair-unknown-difficulty", "kind-before-difficulty",
         "pair-swapped", "pair-repeated", "pairs-out-of-order", "kind-before-order", "second-entry-bad",
         "arity-before-pair", "duplicate-key-before-null", "null-key-before-duplicate"],
)
def test_load_names_the_first_fault(tmp_path, damages, message):
    save_corpus(small_corpus(), tmp_path)
    for damage in damages:
        damage(tmp_path)
    with pytest.raises(CorpusError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == message.format(manifest=tmp_path / "manifest.json")
