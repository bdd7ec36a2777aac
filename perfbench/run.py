"""lakeforge pipeline benchmark.

Runs one workload's CLI stages (schema, generate, perturb, then evaluate or
stats) in order, in this process, through `lakeforge.cli.main` with the
CLI's default flags, one stage after the other (a closed loop with one
client). It repeats the pipeline for --seconds seconds, checks every stage's
outputs, and prints one JSON object as the last line of standard output.

    python3 perfbench/run.py --workload fuzzy-small --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seconds 36      # every workload, end-to-end metrics
    python3 perfbench/run.py --smoke                 # toy sizes, checks every metric name

--trace 0 reports the end-to-end metrics, measured with tracing off. Their
times are scaled to a reference host speed, measured by a calibration loop
run between pipelines (see CALIBRATION_REF_S); the detail line before the
result holds the unscaled wall times.
--trace 1 alternates untraced and traced pipelines and reports the per-layer
metrics from the traced ones, plus the tracing overhead. The spans are
written to .perfbench/spans-<workload>-<seed>.jsonl when the run ends.

Run it from the root of a lakeforge checkout: the program is imported from
./src, and the run fails (exit 2, no result) when ./src/lakeforge is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5

# The calibration loop's time on this benchmark's reference host in a quiet
# phase (see README.md, "Host-speed scaling"). End-to-end times are reported
# at that host speed: measured time x CALIBRATION_REF_S / the run's median
# calibration time.
CALIBRATION_REF_S = 0.110
CALIBRATIONS_PER_ROUND = 2


def calibrate() -> float:
    """Time a fixed, lakeforge-independent piece of interpreter work (dict,
    set, string and sort operations, like the stages'), with the collector
    off so objects the program left behind cannot slow it. Returns seconds."""
    words = [f"col_{i}_{i * 7919 % 1000}" for i in range(3000)]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        scores: dict[str, float] = {}
        for r in range(6):
            for i, a in enumerate(words):
                b = words[(i * 31 + r) % len(words)]
                key = a[:6] + b[-3:]
                scores[key] = scores.get(key, 0.0) + len(set(a) & set(b)) / (len(a) + len(b))
            sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


@dataclass(frozen=True)
class Workload:
    name: str
    concepts: int  # finance-N ontology prefix
    row_cap: int
    plan: str | None  # None: perturb runs without --plan (the CLI's default plan)
    target: int | None = None  # the plan's desired table count
    matchers: str | None = None  # evaluate with these; None: the last stage is stats
    backend: str = "offline"  # generate's backend; "llm" replays a cache recorded in set-up

    def plan_text(self) -> str:
        return (f"target {self.target}\n" if self.target else "") + self.plan


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzzy-small", 6, 12, inputs.TREND_PLAN, matchers="jl,sf,hybrid"),
        Workload("wide-shallow", 5, 100, None, matchers="sf,hybrid", backend="llm"),
        Workload("build-large", 20, 80, inputs.DEFAULT_PLAN, target=200),
    )
}


def toy_size(w: Workload) -> Workload:
    return replace(w, concepts=min(w.concepts, 4), row_cap=min(w.row_cap, 6), target=None)


class CheckFailed(Exception):
    pass


@dataclass
class Iteration:
    stage_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    error: str = ""

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def build_s(self) -> float:
        return self.stage_s["generate"] + self.stage_s["perturb"]

    @property
    def evaluate_s(self) -> float:
        return self.stage_s.get("evaluate", self.stage_s.get("stats", 0.0))


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def locate_program(root: Path):
    src = root / "src"
    if not (src / "lakeforge" / "cli.py").is_file():
        print(f"error: no lakeforge sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import lakeforge.cli

    if Path(lakeforge.cli.__file__).resolve().parent != (src / "lakeforge").resolve():
        print(f"error: lakeforge imported from {lakeforge.cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return lakeforge.cli


def record_cache(w: Workload, seed: int, onto: Path, cache: Path) -> None:
    """Fill the replay cache by running generate's LLM path in record mode
    against the benchmark's deterministic transport."""
    from lakeforge.gateway import GatewayConfig, LlmGateway
    from lakeforge.generate import generate_base_tables, plan_generation
    from lakeforge.ontology import GroupingConfig, build_dependency_graph, ontology_to_schemas, parse_ontology

    gateway = LlmGateway(GatewayConfig(mode="record", cache_dir=cache), transport=inputs.record_transport)
    schema_set, _ = ontology_to_schemas(parse_ontology(onto.read_text(encoding="utf-8")), GroupingConfig())
    gen_plan = plan_generation(build_dependency_graph(schema_set), row_caps=w.row_cap, backend="llm")
    generate_base_tables(schema_set, gen_plan, gateway=gateway, seed=seed)


def set_up(w: Workload, seed: int, root: Path, work: Path) -> float:
    """Write the workload's inputs into a new directory, check that a fresh
    interpreter imports the program from source, and record the replay
    cache. Returns seconds taken."""
    start = time.perf_counter()
    work.mkdir(parents=True)
    (work / "ontology.onto").write_text(inputs.finance_ontology(w.concepts), encoding="utf-8")
    if w.plan is not None:
        (work / "plan.txt").write_text(w.plan_text(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import lakeforge.cli"], cwd=root, env=env, check=True)
    if w.backend == "llm":
        record_cache(w, seed, work / "ontology.onto", work / "cache")
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# one pipeline
# --------------------------------------------------------------------------


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(path: Path) -> dict:
    return json.loads((path / "manifest.json").read_text(encoding="utf-8"))


def check_predictions(path: Path, man: dict) -> int:
    """Rows must be one per cross-table column pair; scores in [0, 1]."""
    widths = [len(t["columns"]) for t in man["tables"]]
    expected = sum(widths[i] * widths[j] for i in range(len(widths)) for j in range(i + 1, len(widths)))
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["left_table", "left_column", "right_table", "right_column", "score"]:
        raise CheckFailed(f"{path.name}: bad header {rows[0]}")
    if len(rows) - 1 != expected:
        raise CheckFailed(f"{path.name}: {len(rows) - 1} predictions, expected {expected}")
    for row in rows[1:]:
        if not 0.0 <= float(row[4]) <= 1.0:
            raise CheckFailed(f"{path.name}: score {row[4]} outside [0, 1]")
    return expected


def truth_counts(man: dict) -> tuple[int, int]:
    """(exact + pkfk, semantic) pairs in a manifest's ground truth."""
    kinds = [p["kind"] for p in man["ground_truth"]]
    return sum(k in ("exact", "pkfk") for k in kinds), kinds.count("semantic")


def check_report(path: Path, man: dict, matchers: list[str]) -> None:
    exact, semantic = truth_counts(man)
    truth = {"exact_joins": exact, "semantic_joins": exact + semantic}
    reports = json.loads(path.read_text(encoding="utf-8"))["reports"]
    if [(r["matcher"], r["task"]) for r in reports] != [(m, t) for m in matchers for t in truth]:
        raise CheckFailed(f"report.json rows {[(r['matcher'], r['task']) for r in reports]}")
    for r in reports:
        if r["truth_size"] != truth[r["task"]]:
            raise CheckFailed(f"{r['matcher']}/{r['task']}: truth_size {r['truth_size']} != {truth[r['task']]}")


def check_stats(stdout: str, man: dict) -> None:
    values = stdout.splitlines()[1].split()
    got = (int(values[1]), int(values[4]), int(values[5]))
    expected = (len(man["tables"]), *truth_counts(man))
    if got != expected:
        raise CheckFailed(f"stats printed {got}, manifest has {expected}")


def stages(w: Workload, work: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    onto = str(work / "ontology.onto")
    llm = ["--backend", "llm", "--mode", "replay", "--cache-dir", str(work / "cache")] if w.backend == "llm" else []
    plan = ["--plan", str(work / "plan.txt")] if w.plan is not None else []
    base, derived = str(out / "base"), str(out / "derived")
    steps = [
        ("schema", ["schema", "--ontology", onto, "--out", str(out / "schemas")]),
        ("generate", ["generate", "--ontology", onto, "--out", base, "--seed", str(seed),
                      "--row-cap", str(w.row_cap), *llm]),
        ("perturb", ["perturb", "--corpus", base, "--out", derived, *plan]),
    ]
    if w.matchers:
        steps.append(("evaluate", ["evaluate", "--corpus", derived, "--out", str(out / "eval"),
                                   "--matchers", w.matchers]))
    else:
        steps.append(("stats", ["stats", "--corpus", derived]))
    return steps


def check_stage(name: str, w: Workload, out: Path, stdout: str, sizes: dict, digests: dict) -> None:
    if name == "schema":
        sizes["schemas"] = len(json.loads((out / "schemas" / "schemas.json").read_text())["tables"])
    elif name == "generate":
        base = manifest(out / "base")
        if len(base["tables"]) != sizes["schemas"]:
            raise CheckFailed(f"base corpus has {len(base['tables'])} tables, schema {sizes['schemas']}")
        digests["base_manifest"] = sha(out / "base" / "manifest.json")
    elif name == "perturb":
        derived = manifest(out / "derived")
        sizes.update(tables=len(derived["tables"]), truth_pairs=len(derived["ground_truth"]),
                     lineage=len(derived["lineage"]))
        digests["derived_manifest"] = sha(out / "derived" / "manifest.json")
    elif name == "evaluate":
        derived = manifest(out / "derived")
        matchers = w.matchers.split(",")
        for m in matchers:
            sizes["predictions_" + m] = check_predictions(out / "eval" / f"predictions_{m}.csv", derived)
            digests["predictions_" + m] = sha(out / "eval" / f"predictions_{m}.csv")
        check_report(out / "eval" / "report.json", derived, matchers)
        digests["report_json"] = sha(out / "eval" / "report.json")
        digests["report_txt"] = sha(out / "eval" / "report.txt")
    else:
        check_stats(stdout, manifest(out / "derived"))


def run_iteration(cli, w: Workload, work: Path, outputs: Path, seed: int, tracer=None) -> Iteration:
    """Run every stage once, into a fresh directory under outputs; a failing
    stage or check counts one failed operation and ends the iteration. Outputs
    are kept until the run ends, so deleting them does not load the disk
    while later pipelines are timed."""
    it = Iteration()
    name = "stages"
    try:
        for name, argv in stages(w, work, outputs, seed):
            it.attempted += 1
            gc.collect()  # each stage starts clean, as it would in its own process
            captured, errors = io.StringIO(), io.StringIO()
            span = tracer.span("stage." + name) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors), span:
                start = time.perf_counter()
                code = cli.main(argv)
                it.stage_s[name] = time.perf_counter() - start
            if code != 0:
                raise CheckFailed(f"exit code {code}: {errors.getvalue().strip()[-500:]}")
            check_stage(name, w, outputs, captured.getvalue(), it.sizes, it.digests)
    except Exception as exc:  # noqa: BLE001 - any stage failure is a counted failed operation
        it.failed += 1
        it.error = f"{name}: {type(exc).__name__}: {exc}"
    return it


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------


def peak_rss_mb(setup_children_kb: int) -> float:
    """This process's peak RSS plus that of the largest child the program
    started (children are counted only when larger than the set-up import
    check, the one child the benchmark itself starts)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (children if children > setup_children_kb else 0)) / 1024.0


def check_across_runs(root: Path, w: Workload, seed: int, digests: dict) -> str:
    """Compare the outputs' digests with those an earlier run of the same
    sources, inputs and seed recorded in this checkout; record them if there
    is none. Returns an error message, or "" when they agree."""
    h = hashlib.sha256(repr(w).encode() + (HERE / "inputs.py").read_bytes())
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    record = root / ".perfbench" / "digests" / f"{w.name}-{seed}-{h.hexdigest()[:16]}.json"
    current = dict(sorted(digests.items()))
    if record.exists():
        if json.loads(record.read_text(encoding="utf-8")) != current:
            return f"outputs differ from an earlier run of the same sources and seed ({record.name})"
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(current, sort_keys=True), encoding="utf-8")
    return ""


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, root: Path) -> dict:
    cli = locate_program(root)
    w = WORKLOADS[args.workload]
    if args.toy:
        w = toy_size(w)
    work = root / ".perfbench" / f"work-{w.name}-{args.seed}-{os.getpid()}"
    try:
        setups = [set_up(w, args.seed, root, work / f"setup-{i}") for i in range(SETUP_REPEATS)]
        inputs_dir = work / f"setup-{SETUP_REPEATS - 1}"
        setup_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        tracer = spans.Tracer() if args.trace else None
        plain: list[Iteration] = []
        traced: list[tuple[Iteration, dict]] = []
        digests: dict[str, str] | None = None
        sizes: dict[str, int] = {}
        attempted = failed = 0
        errors: list[str] = []
        calibrations: list[float] = []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            calibrations += [calibrate() for _ in range(CALIBRATIONS_PER_ROUND)]
            for with_trace in ([False, True] if tracer else [False]):
                if with_trace:
                    tracer.run_id = f"{w.name}-{args.seed}-{k}"
                    with spans.instrument(tracer):
                        it = run_iteration(cli, w, inputs_dir, work / f"iter-{k}-traced", args.seed, tracer)
                    if not it.failed:
                        traced.append((it, spans.layer_metrics(
                            tracer.run_spans(tracer.run_id), tracer.counters[tracer.run_id])))
                else:
                    it = run_iteration(cli, w, inputs_dir, work / f"iter-{k}", args.seed)
                    if not it.failed:
                        plain.append(it)
                if not it.failed:
                    sizes = it.sizes
                    if digests is None:
                        digests = it.digests
                    elif digests != it.digests:
                        it.failed += 1
                        it.error = "outputs differ from the first iteration's"
                attempted += it.attempted
                failed += it.failed
                if it.error:
                    errors.append(it.error)
            k += 1
            if failed or time.perf_counter() >= deadline:
                break
        calibrations += [calibrate() for _ in range(CALIBRATIONS_PER_ROUND)]
        if digests and not failed:
            error = check_across_runs(root, w, args.seed, digests)
            if error:
                failed += 1
                errors.append(error)
        if tracer:
            tracer.dump(root / ".perfbench" / f"spans-{w.name}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "sizes": dict(sorted(sizes.items())),
        "digests": dict(sorted((digests or {}).items())),
        "iterations": len(plain) + len(traced),
        "errors": errors[:5],
    }
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    detail["calibration_s_median"] = round(statistics.median(calibrations), 5)
    detail["host_scale"] = round(scale, 4)
    if args.trace:
        metrics = trace_metrics(plain, traced)
    else:
        wall = {
            "pipeline_s": median(it.pipeline_s for it in plain),
            "build_s": median(it.build_s for it in plain),
            "evaluate_s": median(it.evaluate_s for it in plain),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: metric(value * scale, "s") for name, value in wall.items()}
        metrics["peak_rss_mb"] = metric(peak_rss_mb(setup_children_kb), "MB")
        detail["wall_s"] = {name: round(value, 4) for name, value in wall.items()}
        detail["pipeline_s_samples"] = [round(it.pipeline_s, 4) for it in plain]
        detail["setup_s_samples"] = [round(s, 4) for s in setups]
    print(json.dumps(detail, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def trace_metrics(plain: list[Iteration], traced: list[tuple[Iteration, dict]]) -> dict:
    """Median of each per-layer metric over the traced pipelines, plus the
    traced and untraced pipeline times and the tracing overhead."""
    out = {}
    if traced:
        for name, (_value, unit) in traced[0][1].items():
            out[name] = metric(median(layers[name][0] for _it, layers in traced), unit)
    out["trace.pipeline_s"] = metric(median(it.pipeline_s for it, _layers in traced), "s")
    out["trace.untraced_pipeline_s"] = metric(median(it.pipeline_s for it in plain), "s")
    # each round runs an untraced pipeline and then a traced one; comparing
    # within rounds keeps slow phases of the host out of the ratio
    ratios = [t.pipeline_s / p.pipeline_s for p, (t, _layers) in zip(plain, traced) if p.pipeline_s]
    out["trace.overhead_pct"] = metric(100.0 * (median(ratios) - 1.0) if ratios else 0.0, "%")
    return out


def suite(root: Path, seed: int, seconds: float, toy: bool, traced: bool) -> int:
    """Run every workload (untraced, then traced if asked) in its own
    process and print each metric by name with its unit. Fails when a run
    is incorrect or lacks a metric BENCHMARK.json names."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        for trace_flag, key in ((0, "end_to_end"), (1, "per_layer"))[: 2 if traced else 1]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace_flag)] + (["--toy"] if toy else [])
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace_flag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            missing = [m["name"] for m in spec[key] if m["name"] not in result["metrics"]]
            ok = result["correct"] and not missing
            print(f"{name} trace={trace_flag}: {'ok' if ok else 'FAIL'}, {result['attempted']} attempted, "
                  f"{result['failed']} failed" + (f", missing {missing}" if missing else ""))
            for metric_name, m in sorted(result["metrics"].items()):
                print(f"  {metric_name:<34} {m['value']:>14.6g} {m['unit']}")
            if not ok:
                problems.append(f"{name} trace={trace_flag}")
    print("suite:", "ok" if not problems else f"{len(problems)} problem(s): {problems}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink the workload to a toy size")
    parser.add_argument("--all", action="store_true", help="run every workload and print its metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, traced and untraced, checking the metric names")
    args = parser.parse_args()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if args.smoke or args.all:
        locate_program(root)
        return suite(root, args.seed, 0 if args.smoke else args.seconds, toy=args.smoke, traced=args.smoke or args.trace == 1)
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args, root), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
