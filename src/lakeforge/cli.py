"""Command-line pipeline: schema compilation, generation, perturbation,
matching/evaluation, and corpus statistics.

Exit codes: 0 success, 2 input error, 3 generation error, 4 perturbation
error, 5 evaluation error. All randomness flows from --seed; the gateway
defaults to replay mode so nothing touches the network unless asked to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .common import (
    CorpusError,
    GatewayError,
    GenerationError,
    LakeforgeError,
    OntologyError,
    PerturbationError,
    EvaluationError,
)
from .evaluation import DEFAULT_KS, DEFAULT_THRESHOLD, TASKS, evaluate, render_report
from .gateway import GatewayConfig, LlmGateway
from .generate import plan_generation, generate_base_tables
from .matchers import external_match, match_corpus, write_predictions_csv
from .model import load_corpus, save_corpus
from .ontology import GroupingConfig, build_dependency_graph, ontology_to_schemas, parse_ontology
from .perturb import apply_plan, default_plan, parse_plan

EXIT_INPUT = 2
EXIT_GENERATION = 3
EXIT_PERTURBATION = 4
EXIT_EVALUATION = 5


def _read_ontology(path: str):
    p = Path(path)
    if not p.exists():
        raise OntologyError(f"ontology file not found: {path}")
    fmt = "turtle" if p.suffix.lower() in (".ttl", ".turtle") else "native"
    return parse_ontology(p.read_text(encoding="utf-8"), format=fmt)


def _gateway(args) -> LlmGateway:
    cache_dir = getattr(args, "cache_dir", None)
    return LlmGateway(
        GatewayConfig(
            mode=getattr(args, "mode", "replay"),
            cache_dir=cache_dir,
            endpoint=getattr(args, "endpoint", None),
            model=getattr(args, "model", None) or "text-davinci-003",
        )
    )


def _schemas_payload(schema_set, warnings):
    return {
        "tables": [
            {
                "name": t.name,
                "primary_key": t.primary_key,
                "columns": [
                    {"name": c.name, "semantic_type": c.semantic_type, "datatype": c.datatype}
                    for c in t.columns
                ],
            }
            for t in schema_set.tables
        ],
        "relationships": [
            {
                "source": [j.source_table, j.source_column],
                "target": [j.target_table, j.target_column],
                "kind": j.kind,
            }
            for j in schema_set.relationships
        ],
        "warnings": warnings,
    }


def cmd_schema(args) -> int:
    onto = _read_ontology(args.ontology)
    schema_set, warnings = ontology_to_schemas(onto, GroupingConfig(min_props=args.min_props))
    build_dependency_graph(schema_set)  # rejects cycles early
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = _schemas_payload(schema_set, warnings)
    (out / "schemas.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{len(schema_set.tables)} tables, {len(schema_set.relationships)} joins -> {out/'schemas.json'}")
    return 0


def cmd_generate(args) -> int:
    onto = _read_ontology(args.ontology)
    schema_set, warnings = ontology_to_schemas(onto, GroupingConfig(min_props=args.min_props))
    graph = build_dependency_graph(schema_set)
    plan = plan_generation(graph, row_caps=args.row_cap, backend=args.backend)
    gateway = _gateway(args) if args.backend == "llm" else None
    corpus, report = generate_base_tables(
        schema_set, plan, gateway=gateway, seed=args.seed, jobs=args.jobs
    )
    digest = save_corpus(corpus, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(report.render())
    print(f"corpus: {len(corpus.tables)} tables, digest {digest[:12]} -> {args.out}")
    return 0


def cmd_perturb(args) -> int:
    corpus = load_corpus(args.corpus)
    if args.plan:
        plan_path = Path(args.plan)
        if not plan_path.exists():
            raise CorpusError(f"plan file not found: {args.plan}")
        plan = parse_plan(plan_path.read_text(encoding="utf-8"))
    else:
        plan = default_plan()
    gateway = _gateway(args) if args.backend == "llm" else None
    derived, warnings = apply_plan(corpus, plan, gateway=gateway)
    digest = save_corpus(derived, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"derived corpus: {len(derived.tables)} tables "
        f"({derived.stats.base_tables} base), digest {digest[:12]} -> {args.out}"
    )
    return 0


def _parse_ks(text: str) -> tuple[int, ...]:
    """--k: comma-separated top-k cut-offs, each a positive integer."""
    ks = []
    for part in text.split(","):
        try:
            k = int(part)
        except ValueError:
            raise EvaluationError(f"--k: {part.strip()!r} is not an integer") from None
        if k < 1:
            raise EvaluationError(f"--k: {k} is below 1")
        ks.append(k)
    return tuple(ks)


def cmd_evaluate(args) -> int:
    corpus = load_corpus(args.corpus)
    manifest = json.loads((Path(args.corpus) / "manifest.json").read_text(encoding="utf-8"))
    digest = manifest.get("digest", "")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    for t in tasks:
        if t not in TASKS:
            raise EvaluationError(f"unknown task {t!r} (choose from {', '.join(TASKS)})")
    ks = _parse_ks(args.k)

    reports = []
    for spec in [m.strip() for m in args.matchers.split(",") if m.strip()]:
        if spec.startswith("external:"):
            name, preds = "external", external_match(args.corpus, spec[len("external:"):], corpus)
        elif spec in ("jl", "sf", "hybrid"):
            name, preds = spec, match_corpus(corpus, spec, jobs=args.jobs)
        else:
            raise EvaluationError(f"unknown matcher {spec!r}")
        (out / f"predictions_{name}.csv").write_text(
            write_predictions_csv(preds), encoding="utf-8"
        )
        for task in tasks:
            reports.append(
                evaluate(
                    preds,
                    corpus.ground_truth,
                    task,
                    matcher=name,
                    threshold=args.threshold,
                    ks=ks,
                    corpus_digest=digest,
                )
            )
    text, doc = render_report(reports)
    (out / "report.txt").write_text(text, encoding="utf-8")
    (out / "report.json").write_text(doc, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    s = corpus.stats
    header = (
        f"{'base tables':>12} {'tables':>8} {'avg rows':>10} {'avg cols':>10} "
        f"{'exact joins':>12} {'semantic joins':>15}"
    )
    row = (
        f"{s.base_tables:>12} {s.tables:>8} {s.avg_rows:>10.1f} {s.avg_cols:>10.2f} "
        f"{s.exact_joins:>12} {s.semantic_joins:>15}"
    )
    print(header)
    print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lakeforge",
        description="Ontology-driven table corpora with joinability ground truth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schema", help="compile an ontology into table schemas")
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-props", type=int, default=2)
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("generate", help="generate the base corpus")
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--backend", choices=("offline", "llm"), default="offline")
    p.add_argument("--mode", choices=("live", "record", "replay"), default="replay")
    p.add_argument("--row-cap", type=int, default=1000)
    p.add_argument("--min-props", type=int, default=2)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("perturb", help="derive tables via a perturbation plan")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--backend", choices=("offline", "llm"), default="offline")
    p.add_argument("--mode", choices=("live", "record", "replay"), default="replay")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("evaluate", help="run matchers and score them")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--matchers", default="jl,sf,hybrid")
    p.add_argument("--tasks", default="exact_joins,semantic_joins")
    p.add_argument("--k", default=",".join(str(k) for k in DEFAULT_KS))
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="print corpus statistics")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OntologyError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GenerationError, GatewayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except PerturbationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PERTURBATION
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except LakeforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
