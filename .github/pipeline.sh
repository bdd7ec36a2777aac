#!/bin/sh
# Run fig1's CLI pipeline with the interpreter $1 into the directory $2:
# schema and generate from both fig1.onto and fig1.ttl (the Turtle reader),
# perturb under the default plan, tests/fixtures/every_op.plan
# (all 12 ops; the default plan reaches 4) and tests/fixtures/rounds_drop.plan
# (joinable columns snapshotted in two rounds, consumed base tables dropped),
# evaluate on the default-plan and every_op corpora (all three matchers over
# nulls, duplicates, format noise and every op), and stats on each corpus,
# which loads and verifies it. CI diffs the trees of two runs: under two
# string hash seeds, since one process cannot see a set order that leaks into
# an output, and under two Python versions. Run from the repository root with
# PYTHONPATH=src.
set -eu
py=$1
out=$2
$py -m lakeforge.cli schema --ontology tests/fixtures/fig1.onto --out "$out/schema"
$py -m lakeforge.cli schema --ontology tests/fixtures/fig1.ttl --out "$out/schema_ttl"
$py -m lakeforge.cli generate --ontology tests/fixtures/fig1.onto --out "$out/base" --seed 42 --row-cap 40
$py -m lakeforge.cli generate --ontology tests/fixtures/fig1.ttl --out "$out/base_ttl" --seed 42 --row-cap 40
$py -m lakeforge.cli perturb --corpus "$out/base" --out "$out/derived"
$py -m lakeforge.cli perturb --corpus "$out/base" --out "$out/every_op" --plan tests/fixtures/every_op.plan
$py -m lakeforge.cli perturb --corpus "$out/base" --out "$out/rounds_drop" --plan tests/fixtures/rounds_drop.plan
$py -m lakeforge.cli evaluate --corpus "$out/derived" --out "$out/eval"
$py -m lakeforge.cli evaluate --corpus "$out/every_op" --out "$out/eval_every_op"
for corpus in base base_ttl derived every_op rounds_drop; do
  $py -m lakeforge.cli stats --corpus "$out/$corpus" > "$out/stats-$corpus.txt"
done
