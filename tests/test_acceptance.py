"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -v to see them live)."""

import json
import random
import string
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from helpers import (
    brute_force_ground_truth,
    confusion_oracle,
    fig1_text,
    finance_ontology_text,
    optimal_fuzzy_jaccard,
    pairs_as_set,
    recount_from_csvs,
    topk_oracle,
)

from lakeforge.cli import main as cli_main
from lakeforge.evaluation import difficulty_breakdown, evaluate, precision_recall_f1, top_k_precision
from lakeforge.gateway import GatewayConfig, LlmGateway
from lakeforge.generate import generate_base_tables, plan_generation
from lakeforge.ground_truth import recompute_ground_truth
from lakeforge.matchers import MatchPrediction, fuzzy_jaccard, match_corpus, profile, sf_match
from lakeforge.model import load_corpus
from lakeforge.ontology import build_dependency_graph, ontology_to_schemas, parse_ontology
from lakeforge.perturb import apply_plan, parse_plan


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n:02d}] PASS  {detail}")


def _build(text: str, seed: int, cap: int):
    schema_set, _ = ontology_to_schemas(parse_ontology(text))
    graph = build_dependency_graph(schema_set)
    plan = plan_generation(graph, row_caps=cap)
    corpus, _ = generate_base_tables(schema_set, plan, seed=seed)
    return corpus


def test_acceptance_01_fixture_pipeline():
    t0 = time.monotonic()
    corpus = _build(fig1_text(), seed=42, cap=50)
    ls = corpus.table("Listed Security")
    org = corpus.table("Organization")
    fk, pk = ls.value_set("listedBy"), org.value_set("id")
    assert fk and fk <= pk, "FK containment violated"
    by_key = {p.key(): p for p in recompute_ground_truth(corpus)}
    pair = by_key[(("Listed Security", "listedBy"), ("Organization", "id"))]
    assert (pair.kind, pair.key_side) == ("pkfk", "right")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"listedBy ⊆ Organization.id, classified pkfk, {elapsed:.2f}s < 5s")


def test_acceptance_02_scale_shape(tmp_path):
    t0 = time.monotonic()
    onto = tmp_path / "finance.onto"
    onto.write_text(finance_ontology_text(20))
    assert cli_main(["generate", "--ontology", str(onto), "--out", str(tmp_path / "base"),
                     "--seed", "42", "--row-cap", "1000"]) == 0
    assert cli_main(["perturb", "--corpus", str(tmp_path / "base"),
                     "--out", str(tmp_path / "derived")]) == 0
    derived = load_corpus(tmp_path / "derived")
    assert derived.stats.base_tables == 20
    assert derived.stats.tables >= 100
    recount = recount_from_csvs(tmp_path / "derived")
    stats = derived.stats
    assert recount["tables"] == stats.tables
    assert recount["avg_rows"] == stats.avg_rows
    assert recount["avg_cols"] == stats.avg_cols
    assert recount["exact_joins"] == stats.exact_joins
    assert recount["semantic_joins"] == stats.semantic_joins
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        2,
        f"20 base / {stats.tables} total tables, stats equal CSV recount, {elapsed:.1f}s < 60s",
    )


MINI_PLAN = (
    'step "Organization" vertical_split overlap_ratio=0.3\n'
    'step "Listed Security" vertical_split overlap_ratio=0.3\n'
    'step "Organization" cryptify_headers+text_noise typo_rate=0.5\n'
    'step "Listed Security" semantic_value_perturb backend=offline\n'
    'step "Postal Address" inject_nulls rate=0.15\n'
)


def test_acceptance_03_ground_truth_oracle_equivalence():
    checked_pairs = 0
    for seed in range(20):
        corpus = _build(fig1_text(), seed=1000 + seed, cap=15 + (seed % 4) * 5)
        derived, _ = apply_plan(corpus, parse_plan(MINI_PLAN))
        assert len(derived.tables) <= 10
        propagated = pairs_as_set(derived.ground_truth)
        brute = brute_force_ground_truth(derived)
        assert propagated == brute, f"seed {seed}: propagated != brute force"
        checked_pairs += len(brute)
    _report(3, f"20 seeds, propagated == brute force (∑ {checked_pairs} pairs)")


def _random_metric_fixture(rng):
    names = [f"T{i}" for i in range(26)]
    preds = [
        MatchPrediction((a, "c"), (b, "c"), rng.random())
        for a, b in (rng.sample(names, 2) for _ in range(rng.randint(1, 200)))
    ]
    truth = {
        tuple(sorted([(a, "c"), (b, "c")]))
        for a, b in (rng.sample(names, 2) for _ in range(rng.randint(1, 200)))
    }
    return preds, truth


def test_acceptance_04_metric_oracle_equivalence():
    rng = random.Random(8675309)
    for i in range(100):
        preds, truth = _random_metric_fixture(rng)
        threshold = rng.choice([0.25, 0.5, 0.75])
        p, r, f1, _ = precision_recall_f1(preds, truth, threshold)
        op, orr, of1 = confusion_oracle(preds, truth, threshold)
        assert (p, r, f1) == pytest.approx((op, orr, of1), abs=1e-12)
        for k in (1, 3, 5):
            assert top_k_precision(preds, truth, k) == pytest.approx(
                topk_oracle(preds, truth, k), abs=1e-12
            )
    _report(4, "100 fixtures: P/R/F1 and top-1/3/5 equal the enumeration oracle")


def _random_value_set(rng, n):
    vocab = ["Apple", "Maple", "Paris", "Zurich", "Account", "Ledger", "Bond", "Pearl"]
    out = set()
    for _ in range(n):
        s = list(rng.choice(vocab))
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(s))
            op = rng.choice(["ins", "del", "sub"])
            if op == "ins":
                s.insert(i, rng.choice(string.ascii_lowercase))
            elif op == "del" and len(s) > 1:
                del s[i]
            else:
                s[i] = rng.choice(string.ascii_lowercase)
        out.add("".join(s))
    return sorted(out)


def test_acceptance_05_jl_correctness():
    rng = random.Random(5551212)
    for _ in range(100):
        a = _random_value_set(rng, rng.randint(1, 12))
        b = _random_value_set(rng, rng.randint(1, 12))
        got = fuzzy_jaccard(a, b, 1.0)
        want = len(set(a) & set(b)) / len(set(a) | set(b))
        assert got == pytest.approx(want, abs=1e-12)
    for _ in range(100):
        a = _random_value_set(rng, rng.randint(1, 10))
        b = _random_value_set(rng, rng.randint(1, 10))
        got = fuzzy_jaccard(a, b, 0.8)
        want = optimal_fuzzy_jaccard(a, b, 0.8)
        assert got == pytest.approx(want, abs=1e-12), (a, b)
    _report(5, "δ=1.0 equals classical Jaccard; δ=0.8 equals the optimal-matching oracle")


def test_acceptance_06_sf_behavior():
    corpus = _build(fig1_text(), seed=6, cap=20)
    fin = _build(finance_ontology_text(6), seed=6, cap=20)
    pair_count = 0
    for group in (corpus.tables, fin.tables):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pair = [group[i], group[j]]
                preds, converged = sf_match(*pair, epsilon=1e-3, max_iters=200, **profile(pair, "sf"))
                assert converged, f"{group[i].name} vs {group[j].name} did not converge"
                pair_count += 1
    # identical-schema self-match: top-1 per column is its namesake
    for t in corpus.tables:
        preds, converged = sf_match(t, t, **profile([t], "sf"))
        assert converged
        best: dict[str, tuple[float, str]] = {}
        for p in preds:
            ca, cb = p.left[1], p.right[1]
            for x, y in ((ca, cb), (cb, ca)):
                if x not in best or p.score > best[x][0]:
                    best[x] = (p.score, y)
        for col, (_score, partner) in best.items():
            assert partner == col, f"top-1 for {col!r} was {partner!r}"
    _report(6, f"converged on {pair_count} schema pairs; self-match maps identity")


TREND_PLAN = (
    "step * vertical_split overlap_ratio=0.2\n"
    "step * cryptify_headers+text_noise typo_rate=0.3\n"
    "step * semantic_value_perturb backend=offline\n"
)


def test_acceptance_07_trend_semantic_not_easier():
    drops = []
    for seed in (42, 43, 44, 45, 46):
        corpus = _build(finance_ontology_text(6), seed=seed, cap=20)
        derived, _ = apply_plan(corpus, parse_plan(TREND_PLAN))
        for matcher in ("jl", "hybrid"):
            preds = match_corpus(derived, matcher)
            f1_exact = evaluate(preds, derived.ground_truth, "exact_joins").f1
            f1_sem = evaluate(preds, derived.ground_truth, "semantic_joins").f1
            assert f1_sem <= f1_exact + 1e-12, (
                f"seed {seed} {matcher}: semantic F1 {f1_sem:.3f} > exact F1 {f1_exact:.3f}"
            )
            drops.append(f1_exact - f1_sem)
    _report(7, f"5 seeds × (jl, hybrid): semantic F1 ≤ exact F1 (mean drop {sum(drops)/len(drops):.3f})")


DIFFICULTY_PLAN = (
    "step * semantic_value_perturb backend=offline\n"
    'step "*__semantic_value_perturb_0" cryptify_headers scope=all\n'
)


def test_acceptance_08_difficulty_decomposition():
    rates = []
    for seed in (42, 43, 44, 45, 46):
        corpus = _build(finance_ontology_text(6), seed=seed, cap=20)
        derived, _ = apply_plan(corpus, parse_plan(DIFFICULTY_PLAN))
        preds = match_corpus(derived, "hybrid", w_name=0.6, w_instance=0.4)
        cells = difficulty_breakdown(preds, derived.ground_truth, 0.5)
        easy, diff = cells["easy"], cells["difficult"]
        assert easy.total > 0 and diff.total > 0
        easy_rate = easy.correct / easy.total
        diff_rate = diff.correct / diff.total
        assert easy_rate > diff_rate, (
            f"seed {seed}: easy {easy.as_fraction()} not above difficult {diff.as_fraction()}"
        )
        rates.append((easy.as_fraction(), diff.as_fraction()))
    _report(8, f"hybrid easy vs difficult hit rates per seed: {rates}")


def test_acceptance_09_determinism(tmp_path):
    onto = tmp_path / "fig1.onto"
    onto.write_text(fig1_text())
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        assert cli_main(["generate", "--ontology", str(onto), "--out", str(root / "base"),
                         "--seed", "42", "--row-cap", "20"]) == 0
        assert cli_main(["perturb", "--corpus", str(root / "base"),
                         "--out", str(root / "derived")]) == 0
        assert cli_main(["evaluate", "--corpus", str(root / "derived"),
                         "--out", str(root / "eval"), "--matchers", "jl,hybrid",
                         "--tasks", "exact_joins,semantic_joins"]) == 0
        outputs.append(
            (
                (root / "base" / "manifest.json").read_bytes(),
                (root / "derived" / "manifest.json").read_bytes(),
                (root / "eval" / "report.json").read_bytes(),
                (root / "eval" / "report.txt").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    _report(9, "generate→perturb→evaluate twice: manifests and reports byte-identical")


class _CompletionStub(BaseHTTPRequestHandler):
    def do_POST(self):
        import re

        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        prompt = payload["prompt"]
        m = re.search(r"the table named (.+?) has the following columns: \[(.*?)\]", prompt)
        columns = re.findall(r"'((?:[^'\\]|\\.)*)'", m.group(2)) if m else []
        deps = {
            name: re.findall(r"'((?:[^'\\]|\\.)*)'", vals)
            for name, vals in re.findall(
                r"Given the entries of column '(.*?)' are \[(.*?)\]", prompt
            )
        }
        import hashlib

        salt = int.from_bytes(hashlib.sha256(prompt.encode()).digest()[:4], "big") % 100_000
        lines = ["Here are the generated rows:"]  # prose: must degrade to a logged skip
        for i in range(1, 6):
            values = []
            for c in columns:
                pool = deps.get(c)
                values.append(
                    pool[(i + salt) % len(pool)] if pool else f"{c} value {salt}-{i}"
                )
            lines.append(f"Example {i}: " + "; ".join(values))
        body = json.dumps({"choices": [{"text": "\n".join(lines)}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_acceptance_10_llm_round_trip_record_mode(tmp_path):
    server = HTTPServer(("127.0.0.1", 0), _CompletionStub)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/v1/completions"
        schema_set, _ = ontology_to_schemas(parse_ontology(fig1_text()))
        graph = build_dependency_graph(schema_set)
        plan = plan_generation(graph, row_caps=20, backend="llm")
        gateway = LlmGateway(
            GatewayConfig(mode="record", cache_dir=tmp_path / "cache", endpoint=endpoint)
        )
        corpus, report = generate_base_tables(schema_set, plan, gateway=gateway, seed=42)
        ls = report.tables["Listed Security"]
        yield_rate = ls.rows / 20
        assert yield_rate >= 0.8, f"row yield {yield_rate:.2f} below 0.8"
        assert ls.skipped > 0  # the prose line degraded to a skip, not a bad row
        corpus.validate()  # no corrupt rows
        # recorded cache makes the same run reproducible offline
        replay_gw = LlmGateway(GatewayConfig(mode="replay", cache_dir=tmp_path / "cache"))
        corpus2, _ = generate_base_tables(schema_set, plan, gateway=replay_gw, seed=42)
        assert [t.rows for t in corpus2.tables] == [t.rows for t in corpus.tables]
    finally:
        server.shutdown()
        server.server_close()
    _report(10, f"record-mode yield {yield_rate:.2f} ≥ 0.8, skips logged, replay identical")
