import gc
import json
import sys

import pytest

from helpers import (
    FIXTURES,
    finance_ontology_text,
    reference_corpus_digest,
    scripted_completion,
    uppercase_variant_transport,
)

from lakeforge import cli
from lakeforge.cli import main
from lakeforge.common import (
    CacheMiss,
    EvaluationError,
    GatewayError,
    GenerationError,
    LakeforgeError,
    PerturbationError,
)
from lakeforge.model import Corpus, load_corpus, save_corpus

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


@pytest.mark.parametrize("stage", ["schema", "perturb"])
def test_input_file_not_utf8_exit_2(tmp_path, capsys, stage):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b"concept A\n  prop x: text\xff\n")
    if stage == "schema":
        argv = ["schema", "--ontology", str(bad), "--out", str(tmp_path / "s")]
    else:
        run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "base"), "--seed", "3",
             "--row-cap", "5"])
        argv = ["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv"),
                "--plan", str(bad)]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{bad}: not UTF-8" in err


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


def test_perturb_name_collision_exit_4(tmp_path, capsys):
    # the first perturb adds Currency Name__text_noise_0; a second perturb at
    # the same step index would name its derivative alike
    onto = tmp_path / "finance.onto"
    onto.write_text(finance_ontology_text(6))
    run(["generate", "--ontology", str(onto), "--out", str(tmp_path / "base"), "--seed", "7",
         "--row-cap", "10"])
    plan = tmp_path / "typos.plan"
    plan.write_text('step "Currency Name" text_noise typo_rate=1\n')
    codes = [
        run(["perturb", "--corpus", str(tmp_path / corpus), "--out", str(tmp_path / out), "--plan", str(plan)])
        for corpus, out in (("base", "once"), ("once", "twice"))
    ]
    assert codes == [0, 4]
    err = capsys.readouterr().err
    assert "step 0: derivative 'Currency Name__text_noise_0' of 'Currency Name'" in err
    assert not (tmp_path / "twice").exists()


def test_perturb_step_changing_no_cell_adds_no_table(tmp_path, capsys):
    # a derivative that no lineage event accounts for would count as a base
    # table; the step warns instead
    onto = tmp_path / "finance.onto"
    onto.write_text(finance_ontology_text(6))
    run(["generate", "--ontology", str(onto), "--out", str(tmp_path / "base"), "--seed", "7",
         "--row-cap", "30"])
    plan = tmp_path / "noop.plan"
    plan.write_text('step "Currency Name" text_noise typo_rate=0\n')
    capsys.readouterr()
    assert run(["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv"),
                "--plan", str(plan)]) == 0
    assert "warning: step 0: text_noise changed no cell of 'Currency Name'\n" in capsys.readouterr().err
    assert run(["stats", "--corpus", str(tmp_path / "drv")]) == 0
    base_tables, tables = capsys.readouterr().out.splitlines()[1].split()[:2]
    assert (base_tables, tables) == ("6", "6")
    assert load_corpus(tmp_path / "drv").lineage == []


@pytest.fixture(scope="module")
def fig1_base(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig1") / "base"
    assert run(["generate", "--ontology", FIG1, "--out", str(base), "--seed", "3",
                "--row-cap", "10"]) == 0
    return base


@pytest.mark.parametrize(
    "step, message",
    [
        ("vertical_split seed_offset=abc", "seed_offset must be an integer, got 'abc'"),
        ("sample_rows fraction=abc", "fraction must be a number, got 'abc'"),
        ("vertical_split overlap_ratio=x", "overlap_ratio must be a number, got 'x'"),
        ("numeric_jitter rel_scale=x", "rel_scale must be a number, got 'x'"),
        ("format_noise kind=bogus", "format_noise kind must be one of dates|addresses|names"),
        ("cryptify_headers+text_noise mode=bogus", "text_noise mode must be one of typos|"),
        ("semantic_value_perturb backend=bogus", "backend must be one of offline|llm"),
        # bool("no") is true: a split would keep unique keys
        ("vertical_split unique_key=no", "unique_key must be true or false, got 'no'"),
        # a boolean is an int, so true would pass as 1
        ("inject_nulls rate=true", "rate must be a number, got True"),
        ("sample_rows fraction=false", "fraction must be a number, got False"),
        # a misspelt key would leave the op on its default
        ("vertical_split overlap=0.5 typo_rat=1", "vertical_split takes no parameter overlap"),
        ("cryptify_headers+text_noise rate=0.5", "cryptify_headers+text_noise takes no parameter rate"),
        # col= selects a value op's columns, keep= is remove_columns' alone
        ("vertical_split col=x", "vertical_split takes no parameter col"),
        ("vertical_split keep=a", "vertical_split takes no parameter keep"),
        # header_typos' rate is header_rate, so a cell op's rate cannot reach it
        ("header_typos rate=0.5", "header_typos takes no parameter rate"),
    ],
    ids=["seed_offset", "fraction", "overlap_ratio", "rel_scale", "kind", "mode", "backend",
         "unique_key", "rate-bool", "fraction-bool", "unknown-key", "unknown-key-composite",
         "col-without-value-op", "keep-not-remove-columns", "header-typos-rate"],
)
def test_perturb_bad_plan_parameter_exit_4(tmp_path, capsys, fig1_base, step, message):
    plan = tmp_path / "bad.plan"
    plan.write_text(f"step * vertical_split overlap_ratio=0.2\nstep * {step}\n")
    code = run(
        ["perturb", "--corpus", str(fig1_base), "--out", str(tmp_path / "drv"),
         "--plan", str(plan)]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and message in err
    assert not (tmp_path / "drv").exists()


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
    digest = json.loads((tmp_path / "c" / "manifest.json").read_text())["digest"]
    assert {r["corpus_digest"] for r in doc["reports"]} == {digest}


def test_evaluate_matchers_together_equal_each_alone(tmp_path):
    # each predictions CSV and each report row of a multi-matcher run is what
    # that matcher gives on its own
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "15"])
    matchers = ["jl", "sf", "hybrid"]
    for spec in [",".join(matchers), *matchers]:
        assert run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / spec),
                    "--matchers", spec, "--tasks", "exact_joins,semantic_joins"]) == 0
    together = tmp_path / ",".join(matchers)
    text = (together / "report.txt").read_text(encoding="utf-8").splitlines()
    reports = json.loads((together / "report.json").read_text(encoding="utf-8"))["reports"]
    for m in matchers:
        alone = tmp_path / m
        csv_name = f"predictions_{m}.csv"
        assert (together / csv_name).read_bytes() == (alone / csv_name).read_bytes()
        rows = (alone / "report.txt").read_text(encoding="utf-8").splitlines()
        assert rows[:2] == text[:2] and rows[2:] == [line for line in text[2:] if line.split()[0] == m]
        doc = json.loads((alone / "report.json").read_text(encoding="utf-8"))["reports"]
        assert doc == [r for r in reports if r["matcher"] == m]


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


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, capsys, enabled):
    """A command runs with the cyclic collector paused; main restores its
    prior state after a success, a LakeforgeError and an unexpected error."""
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5", "--row-cap", "3"])
    during = []
    validate = Corpus.validate
    monkeypatch.setattr(Corpus, "validate", lambda self: during.append(gc.isenabled()) or validate(self))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run(["stats", "--corpus", str(tmp_path / "c")]) == 0
        assert gc.isenabled() is enabled
        assert run(["stats", "--corpus", str(tmp_path / "missing")]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "load_corpus", lambda path: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run(["stats", "--corpus", str(tmp_path / "c")])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert during == [False]


def test_generate_negative_row_cap_exit_3(tmp_path, capsys):
    code = run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
                "--row-cap", "-5"])
    assert code == 3
    assert capsys.readouterr().err == "error: --row-cap: -5 is below 0\n"
    assert not (tmp_path / "c").exists()


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


def test_perturb_originals_drop_keeps_consumed_derived_tables(tmp_path, small_finance_corpus):
    # the second step reads the vertical-split children; dropping them would
    # orphan the lineage events that made them
    save_corpus(small_finance_corpus, tmp_path / "base")
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "originals drop\n"
        "step * vertical_split\n"
        'step "Organization__vertical_split_0_*" semantic_value_perturb scope=all\n'
    )
    code = run(["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv"),
                "--plan", str(plan)])
    assert code == 0
    names = {t.name for t in load_corpus(tmp_path / "drv").tables}
    base = {t.name for t in small_finance_corpus.tables}
    assert not names & base
    assert {"Organization__vertical_split_0_a", "Organization__vertical_split_0_b"} <= names
    assert any("__semantic_value_perturb_" in n for n in names)


def test_perturb_replays_an_llm_plan_from_the_plan_alone(tmp_path, small_finance_corpus):
    # the plan's backend=llm is all it takes: a cache recorded in-process
    # replays through the CLI to the same manifest
    from lakeforge.gateway import GatewayConfig, LlmGateway
    from lakeforge.perturb import apply_plan, parse_plan

    text = 'step "Organization" semantic_value_perturb backend=llm\n'
    cache = tmp_path / "cache"
    gateway = LlmGateway(GatewayConfig(mode="record", cache_dir=cache), transport=uppercase_variant_transport)
    derived, _warnings = apply_plan(small_finance_corpus, parse_plan(text), gateway=gateway)
    assert any(ev.op == "semantic_value_perturb" for ev in derived.lineage) and any(cache.iterdir())
    save_corpus(derived, tmp_path / "recorded")
    save_corpus(small_finance_corpus, tmp_path / "base")
    plan = tmp_path / "llm.plan"
    plan.write_text(text)
    code = run(["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "drv"),
                "--plan", str(plan), "--mode", "replay", "--cache-dir", str(cache)])
    assert code == 0
    recorded = (tmp_path / "recorded" / "manifest.json").read_bytes()
    assert (tmp_path / "drv" / "manifest.json").read_bytes() == recorded


def test_generate_replay_cache_miss_exit_3(tmp_path, capsys):
    code = run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "1",
                "--backend", "llm", "--mode", "replay", "--cache-dir", str(tmp_path / "cache"),
                "--row-cap", "5"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_generate_model_keys_the_cache(tmp_path, capsys, monkeypatch):
    from lakeforge import cli
    from lakeforge.gateway import DEFAULT_MODEL, CompletionRequest, LlmGateway, request_digest

    argv = ["generate", "--ontology", FIG1, "--seed", "1", "--backend", "llm",
            "--cache-dir", str(tmp_path / "cache"), "--row-cap", "5"]
    with monkeypatch.context() as m:
        m.setattr(cli, "LlmGateway", lambda config: LlmGateway(
            config, transport=lambda req: scripted_completion(req.prompt)))
        assert run(argv + ["--out", str(tmp_path / "c"), "--mode", "record", "--model", "m2"]) == 0
    entries = [json.loads(p.read_text(encoding="utf-8")) for p in (tmp_path / "cache").iterdir()]
    assert entries and all(e["model"] == "m2" for e in entries)
    for e in entries:
        req = CompletionRequest(prompt=e["prompt"])
        assert e["key"] == request_digest(req, "m2") != request_digest(req, DEFAULT_MODEL)
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "d"), "--mode", "replay"]) == 3
    assert "replay cache miss" in capsys.readouterr().err
    assert run(argv + ["--out", str(tmp_path / "e"), "--mode", "replay", "--model", "m2"]) == 0


@pytest.mark.parametrize(
    "error, code",
    [
        (LakeforgeError("x"), 2),
        (GenerationError("x"), 3),
        (GatewayError("x"), 3),
        (CacheMiss("0" * 64), 3),
        (PerturbationError("x"), 4),
        (EvaluationError("x"), 5),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_is_the_error_class_code(monkeypatch, capsys, error, code):
    from lakeforge import cli

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert run(["stats", "--corpus", "unused"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_generate_corrupt_cache_entry_exit_3(tmp_path, capsys, monkeypatch):
    from lakeforge import cli
    from lakeforge.gateway import LlmGateway

    argv = ["generate", "--ontology", FIG1, "--seed", "1", "--backend", "llm",
            "--cache-dir", str(tmp_path / "cache"), "--row-cap", "5"]
    with monkeypatch.context() as m:
        m.setattr(cli, "LlmGateway", lambda config: LlmGateway(
            config, transport=lambda req: scripted_completion(req.prompt)))
        assert run(argv + ["--out", str(tmp_path / "c"), "--mode", "record"]) == 0
    entry = sorted((tmp_path / "cache").iterdir())[0]
    entry.write_text("{truncated", encoding="utf-8")
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "d"), "--mode", "replay"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "corrupt cache entry" in err and str(entry) in err


def test_generate_live_http_401_fails_first_attempt_exit_3(tmp_path, capsys, monkeypatch):
    import requests

    class Denied:
        status_code = 401
        text = "invalid api key"

    calls = []
    monkeypatch.setattr(requests, "post", lambda url, **kwargs: calls.append(url) or Denied())
    code = run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "1",
                "--backend", "llm", "--mode", "live", "--endpoint", "http://127.0.0.1:9/v1/completions",
                "--row-cap", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "after 1 attempt: endpoint returned HTTP 401" in err
    assert len(calls) == 1


def test_evaluate_unknown_matcher_exit_5(tmp_path, capsys):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "5"])
    capsys.readouterr()
    code = run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                "--matchers", "nope"])
    assert code == 5
    assert capsys.readouterr().err == "error: unknown matcher 'nope'\n"
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("threshold, code", [
    ("nan", 5), ("inf", 5), ("-inf", 5), ("-0.01", 5), ("1.5", 5), ("7", 5), ("0", 0), ("1", 0),
])
def test_evaluate_threshold_must_be_finite_in_unit_interval(tmp_path, capsys, threshold, code):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "5"])
    capsys.readouterr()
    assert run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                "--matchers", "sf", f"--threshold={threshold}"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"error: --threshold: {float(threshold)} is not a number in [0, 1]\n"
        assert not (tmp_path / "r" / "report.json").exists()
    else:
        doc = json.loads((tmp_path / "r" / "report.json").read_text(encoding="utf-8"))
        assert {r["threshold"] for r in doc["reports"]} == {float(threshold)}


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


def _evaluate_external(tmp_path, command):
    run(["generate", "--ontology", FIG1, "--out", str(tmp_path / "c"), "--seed", "5",
         "--row-cap", "5"])
    return run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"),
                "--matchers", f"external:{command}", "--tasks", "exact_joins"])


@pytest.mark.parametrize("kind, reason", [("missing", "No such file"), ("not-executable", "Permission denied")])
def test_evaluate_external_cannot_start_exit_5(tmp_path, capsys, kind, reason):
    matcher = tmp_path / "matcher.sh"
    if kind == "not-executable":
        matcher.write_text("#!/bin/sh\n")
        matcher.chmod(0o644)
    capsys.readouterr()
    assert _evaluate_external(tmp_path, f"{matcher} {{corpus}}") == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in err and str(matcher) in err
    assert not (tmp_path / "r" / "report.json").exists()


def test_evaluate_external_unclosed_quote_exit_5(tmp_path, capsys):
    capsys.readouterr()
    assert _evaluate_external(tmp_path, "'abc") == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "external matcher command \"'abc\": No closing quotation" in err


def test_evaluate_external_timeout_exit_5(tmp_path, capsys, monkeypatch):
    import functools

    from lakeforge import cli, matchers

    monkeypatch.setattr(cli, "external_match", functools.partial(matchers.external_match, timeout=0.5))
    stub = tmp_path / "slow.py"
    stub.write_text("import time; time.sleep(30)\n")
    capsys.readouterr()
    assert _evaluate_external(tmp_path, f"{sys.executable} {stub}") == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "timed out after 0.5 s" in err and str(stub) in err


_ENTRY_NAMES = {"tables": "table entry", "ground_truth": "ground-truth entry", "lineage": "lineage entry"}


def _drop_manifest_key(section, key):
    """Delete `key` from the first entry of a manifest list; the message is
    the whole error line."""

    def damage(corpus):
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if section == "lineage":  # a generated corpus has none
            manifest["lineage"] = _lineage_entry()
        del manifest[section][0][key]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path, f"error: {path}: {_ENTRY_NAMES[section]} 1 lacks key {key!r}\n"

    return damage


def _write_saved_layout(path, manifest):
    """Write the manifest in save_corpus's layout, its digest recomputed."""

    def write():
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    write()
    # the digest does not cover its own line, so the stale one can stand in
    manifest["digest"] = reference_corpus_digest(path.parent)
    write()


def _bad_pair_entry(key, value):
    """Set ground_truth[0][key] (the whole entry when key is None) and
    recompute the digest, so that only the entry's types are wrong."""

    def damage(corpus):
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if key is None:
            manifest["ground_truth"][0] = value
        else:
            manifest["ground_truth"][0][key] = value
        _write_saved_layout(path, manifest)
        return path, "ground-truth entry 1: " + (f"{key!r} is" if key else "not an object")

    return damage


def _rewrite_manifest(message, transform=lambda manifest: manifest, **layout):
    """Write the manifest's values, through `transform`, by json.dumps with
    `layout`; the digest is left alone."""

    def damage(corpus):
        path = corpus / "manifest.json"
        manifest = transform(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(json.dumps(manifest, ensure_ascii=False, **layout) + "\n", encoding="utf-8")
        return path, message

    return damage


def _digest_last(manifest):
    manifest["digest"] = manifest.pop("digest")
    return manifest


def _set_manifest_value(keys, value, message):
    """Set one value of the manifest, reached through `keys`. The load
    rejects it before the digest is checked, so the digest is left alone."""

    def damage(corpus):
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        target = manifest
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path, message

    return damage


def _lineage_entry(**values):
    """One lineage entry of the right shape, with `values` set."""
    return [{"event_id": "e1", "op": "rename", "source": ["T", None], "result": ["U", None], **values}]


def _replace_manifest(text):
    def damage(corpus):
        (corpus / "manifest.json").write_text(text, encoding="utf-8")
        return corpus / "manifest.json", "not a JSON manifest"

    return damage


def _break_csv_encoding(corpus):
    csv_path = sorted(corpus.glob("*.csv"))[0]
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\xfe\r\n")
    return csv_path, "not UTF-8"


@pytest.mark.parametrize(
    "damage",
    [
        _drop_manifest_key("tables", "file"),
        _drop_manifest_key("ground_truth", "kind"),
        _drop_manifest_key("lineage", "result"),
        _drop_manifest_key("lineage", "op"),
        _bad_pair_entry("left", ["T"]),
        _bad_pair_entry("left", [1, 2]),
        _bad_pair_entry("right", ["T", "c", "d"]),
        _bad_pair_entry("kind", 3),
        _bad_pair_entry("difficulty", None),
        _bad_pair_entry("key_side", ["left"]),
        _bad_pair_entry("mapping_id", 7),
        _bad_pair_entry(None, ["left", "right"]),
        _set_manifest_value(
            ("lineage",),
            [{"event_id": "e1", "op": "rename", "source": ["T", None], "result": []}],
            "lineage entry 1: 'result' is not a list",
        ),
        _set_manifest_value(
            ("lineage",),
            [{"event_id": "e1", "op": "rename", "source": ["T", 3], "result": ["U", None]}],
            "lineage entry 1: 'source' is not a list",
        ),
        _set_manifest_value(("lineage",), ["e1"], "lineage entry 1: not an object"),
        _set_manifest_value(("lineage",), _lineage_entry(event_id=1), "lineage entry 1: 'event_id' is not a string"),
        _set_manifest_value(("lineage",), _lineage_entry(op=None), "lineage entry 1: 'op' is not a string"),
        _set_manifest_value(("lineage",), _lineage_entry(params=[]), "lineage entry 1: 'params' is not an object"),
        _set_manifest_value(
            ("lineage",), _lineage_entry(value_map=["a"]), "lineage entry 1: 'value_map' is neither null"
        ),
        _set_manifest_value(
            ("lineage",), _lineage_entry(value_map={"a": 1}), "lineage entry 1: 'value_map' is neither null"
        ),
        _set_manifest_value(
            ("lineage",), _lineage_entry(cell_changes=[["0", "a", "b"]]), "lineage entry 1: 'cell_changes' is neither"
        ),
        _set_manifest_value(
            ("lineage",), _lineage_entry(cell_changes={"0": "a"}), "lineage entry 1: 'cell_changes' is neither"
        ),
        _set_manifest_value(("stats", "foo"), 1, "stats: not an object with keys among"),
        _set_manifest_value(("stats",), [], "stats: not an object"),
        _set_manifest_value(("tables", 0, "columns"), 5, "table entry 1: 'columns' is not a list of objects"),
        _set_manifest_value(("tables", 0, "columns", 0), "id", "table entry 1: 'columns' is not a list"),
        _set_manifest_value(("tables", 0), "T.csv", "table entry 1 is not an object"),
        _set_manifest_value(("tables", 0, "name"), 5, "table entry 1: 'name' is not a string: 5"),
        _set_manifest_value(("tables", 0, "file"), None, "table entry 1: 'file' is not a string: None"),
        _set_manifest_value(
            ("tables", 0, "primary_key"), ["id"], "table entry 1: 'primary_key' is neither a string nor null"
        ),
        _set_manifest_value(
            ("tables", 0, "columns", 1, "datatype"), 3, "table entry 1: 'columns[1].datatype' is not a string: 3"
        ),
        _set_manifest_value(("format_version",), 1, "format_version 1 cannot be verified: only version 2 digests are checked; regenerate"),
        _rewrite_manifest("the first member is not the digest", _digest_last, indent=2),
        _rewrite_manifest("digest mismatch", sort_keys=True, indent=4),
        _replace_manifest("{not json"),
        _replace_manifest("[]"),
        _break_csv_encoding,
    ],
    ids=[
        "table-entry-missing-key",
        "pair-entry-missing-key",
        "lineage-entry-missing-result",
        "lineage-entry-missing-op",
        "pair-left-one-element",
        "pair-left-not-strings",
        "pair-right-three-elements",
        "pair-kind-not-string",
        "pair-difficulty-null",
        "pair-key-side-list",
        "pair-mapping-id-integer",
        "pair-entry-not-object",
        "lineage-result-empty",
        "lineage-source-column-integer",
        "lineage-entry-not-object",
        "lineage-event-id-integer",
        "lineage-op-null",
        "lineage-params-list",
        "lineage-value-map-list",
        "lineage-value-map-integer-value",
        "lineage-cell-change-index-string",
        "lineage-cell-changes-object",
        "stats-unknown-key",
        "stats-not-object",
        "table-columns-integer",
        "table-column-not-object",
        "table-entry-not-object",
        "table-name-integer",
        "table-file-null",
        "table-primary-key-list",
        "table-column-datatype-integer",
        "format-version-1",
        "digest-not-first",
        "manifest-reindented",
        "manifest-not-json",
        "manifest-not-object",
        "csv-not-utf8",
    ],
)
def test_stats_damaged_corpus_exit_2(tmp_path, capsys, damage):
    corpus = tmp_path / "c"
    run(["generate", "--ontology", FIG1, "--out", str(corpus), "--seed", "5", "--row-cap", "5"])
    path, message = damage(corpus)
    capsys.readouterr()
    assert run(["stats", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and str(path) in err


def test_evaluate_unknown_difficulty_exit_2(tmp_path, capsys, small_finance_corpus):
    # difficulty_breakdown counts semantic pairs by difficulty, so an unknown
    # one must be rejected at load
    save_corpus(small_finance_corpus, tmp_path / "base")
    run(["perturb", "--corpus", str(tmp_path / "base"), "--out", str(tmp_path / "c")])
    path = tmp_path / "c" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    next(p for p in manifest["ground_truth"] if p["kind"] == "semantic")["difficulty"] = "hard"
    _write_saved_layout(path, manifest)
    capsys.readouterr()
    code = run(["evaluate", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "r"), "--matchers", "jl"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown difficulty 'hard'\n"
    assert not (tmp_path / "r").exists()
