import json
import sys

import pytest

from helpers import FIXTURES, finance_ontology_text

from lakeforge.cli import main
from lakeforge.model import load_corpus

FIG1 = str(FIXTURES / "fig1.onto")


def run(argv):
    return main(argv)


def test_schema_command(tmp_path, capsys):
    code = run(["schema", "--ontology", FIG1, "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "schemas.json").read_text())
    assert len(payload["tables"]) == 3
    names = {t["name"] for t in payload["tables"]}
    assert names == {"Organization", "Listed Security", "Postal Address"}
    assert len(payload["relationships"]) == 2


def test_schema_missing_file_exit_2(tmp_path, capsys):
    code = run(["schema", "--ontology", str(tmp_path / "nope.onto"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_schema_min_props_changes_output(tmp_path):
    onto = tmp_path / "o.onto"
    onto.write_text(
        "concept Big\n  prop A: text\n  prop B: text\n  prop C: text\n"
        "concept Mid\n  prop D: text\n  prop E: text\n"
        "relation link: Big -> Mid\n"
    )
    run(["schema", "--ontology", str(onto), "--out", str(tmp_path / "m2")])
    run(["schema", "--ontology", str(onto), "--out", str(tmp_path / "m3"), "--min-props", "3"])
    n2 = len(json.loads((tmp_path / "m2" / "schemas.json").read_text())["tables"])
    n3 = len(json.loads((tmp_path / "m3" / "schemas.json").read_text())["tables"])
    assert (n2, n3) == (2, 1)


def test_generate_offline(tmp_path, capsys):
    code = run(
        ["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "42",
         "--row-cap", "30"]
    )
    assert code == 0
    corpus = load_corpus(tmp_path / "c")
    assert len(corpus.tables) == 3
    assert all(len(t.rows) == 30 for t in corpus.tables)


def test_generate_rerun_identical_digest(tmp_path):
    for d in ("a", "b"):
        run(
            ["generate", "--ontology", FIG1, "--out", str(tmp_path / d), "--seed", "7",
             "--row-cap", "20"]
        )
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_generate_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["generate", "--ontology", FIG1, "--out", str(tmp_path)])
    assert err.value.code == 2  # argparse input error


def test_perturb_default_plan(tmp_path):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "base"), "--seed", "3",
         "--row-cap", "20"])
    code = run(["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv")])
    assert code == 0
    derived = load_corpus(tmp_path / "drv")
    assert derived.stats.base_tables == 3
    assert derived.stats.tables > 3


def test_perturb_empty_plan_passthrough(tmp_path):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "base"), "--seed", "3",
         "--row-cap", "10"])
    plan = tmp_path / "empty.plan"
    plan.write_text("# nothing\n")
    code = run(
        ["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv"),
         "--plan", str(plan)]
    )
    assert code == 0
    derived = load_corpus(tmp_path / "drv")
    assert derived.stats.tables == 3
    assert derived.lineage[-1].op == "noop"


def test_perturb_bad_plan_exit_4(tmp_path, capsys):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "base"), "--seed", "3",
         "--row-cap", "10"])
    plan = tmp_path / "bad.plan"
    plan.write_text("step * vertical_split overlap_ratio=0.2\nstep * explode\n")
    code = run(
        ["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv"),
         "--plan", str(plan)]
    )
    assert code == 4
    assert "line 2" in capsys.readouterr().err


def test_evaluate_three_matchers_two_tasks(tmp_path, capsys):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "15"])
    code = run(
        ["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
         "--matchers", "jl,sf,hybrid", "--tasks", "exact_joins,semantic_joins"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert len(doc["reports"]) == 6  # 3 matchers x 2 tasks
    matchers = {r["matcher"] for r in doc["reports"]}
    assert matchers == {"jl", "sf", "hybrid"}
    for name in ("jl", "sf", "hybrid"):
        assert (tmp_path / "r" / f"predictions_{name}.csv").exists()
    # k columns present: 1, 3, 5
    assert set(doc["reports"][0]["top_k"]) == {"1", "3", "5"}


def test_evaluate_with_external_stub(tmp_path):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "15"])
    stub = tmp_path / "stub.py"
    stub.write_text(
        "print('left_table,left_column,right_table,right_column,score')\n"
        "print('Organization,Legal Name,Listed Security,Legal Name,0.955000')\n"
    )
    code = run(
        ["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
         "--matchers", f"jl,external:{sys.executable} {stub}", "--tasks", "exact_joins"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert len(doc["reports"]) == 2
    assert {r["matcher"] for r in doc["reports"]} == {"jl", "external"}


def test_external_stub_reproducing_jl_gives_identical_metrics(tmp_path):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "15"])
    run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r1"),
         "--matchers", "jl", "--tasks", "exact_joins"])
    # stub that replays the in-process JL predictions byte for byte
    preds_csv = (tmp_path / "r1" / "predictions_jl.csv").read_text()
    stub = tmp_path / "replay.py"
    stub.write_text(f"import sys\nsys.stdout.write({preds_csv!r})\n")
    run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r2"),
         "--matchers", f"external:{sys.executable} {stub}", "--tasks", "exact_joins"])
    r1 = json.loads((tmp_path / "r1" / "report.json").read_text())["reports"][0]
    r2 = json.loads((tmp_path / "r2" / "report.json").read_text())["reports"][0]
    for field in ("precision", "recall", "f1", "top_k"):
        assert r1[field] == r2[field]


def test_stats_command_matches_manifest(tmp_path, capsys):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "15"])
    capsys.readouterr()
    code = run(["stats", "--corpus", str(tmp_path / "c")])
    assert code == 0
    out = capsys.readouterr().out
    assert "base tables" in out
    corpus = load_corpus(tmp_path / "c")
    assert str(corpus.stats.tables) in out


def test_stats_empty_corpus(tmp_path, capsys):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "0"])
    capsys.readouterr()
    code = run(["stats", "--corpus", str(tmp_path / "c")])
    assert code == 0
    assert "0.0" in capsys.readouterr().out


def test_finance_generate_twenty_tables(tmp_path):
    onto = tmp_path / "fin.onto"
    onto.write_text(finance_ontology_text(20))
    code = run(["generate", "--ontology", str(onto), "--out", str(tmp_path / "c"),
                "--seed", "1", "--row-cap", "25"])
    assert code == 0
    corpus = load_corpus(tmp_path / "c")
    assert len(corpus.tables) == 20


def test_schema_from_turtle_file(tmp_path):
    code = run(["schema", "--ontology", str(FIXTURES / "fig1.ttl"), "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "schemas.json").read_text())
    assert len(payload["tables"]) == 3


def test_generate_replay_cache_miss_exit_3(tmp_path, capsys):
    code = run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "1",
                "--backend", "llm", "--mode", "replay", "--cache-dir", str(tmp_path / "cache"),
                "--row-cap", "5"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_evaluate_unknown_matcher_exit_5(tmp_path, capsys):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "5"])
    code = run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                "--matchers", "mystery"])
    assert code == 5


@pytest.mark.parametrize("ks, message", [("1,x", "'x' is not an integer"), ("3,0", "0 is below 1")])
def test_evaluate_bad_k_exit_5(tmp_path, capsys, ks, message):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "5"])
    capsys.readouterr()
    code = run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                "--matchers", "sf", "--k", ks])
    assert code == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "r" / "report.json").exists()
