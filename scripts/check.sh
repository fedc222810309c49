#!/usr/bin/env bash
# Tier-1 gate: everything below must pass before a change lands.
#
#   ./scripts/check.sh
#
# Offline by design — the workspace has no network access in CI, so every
# cargo invocation runs with --offline against the local registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

# Asm vectorization gate (DESIGN.md §11): the GEMM microkernel and the
# window walk's tile MAC must survive as packed vector code in the release
# rlib, and — same prove-it-can-fail protocol as the lint and selfcheck
# smokes — the deliberately sequential seq_dot must FAIL the identical
# assertion.
echo "==> scripts/asm_check.sh"
./scripts/asm_check.sh
echo "==> scripts/asm_check.sh --negative-smoke"
./scripts/asm_check.sh --negative-smoke

# The worker pool must produce bit-identical results at any thread count, so
# the whole suite runs serial and at 4 threads, and the determinism suite
# additionally at 2 (the smallest count where the persistent pool's claim
# racing is live — a distinct interleaving regime from 4).
# SNAPEA_OVERSUBSCRIBE=1 lifts the pool's participants-per-core clamp so the
# threaded stages exercise real worker concurrency even on a 1-core runner.
echo "==> cargo test -q --offline (SNAPEA_THREADS=1)"
SNAPEA_THREADS=1 cargo test --workspace -q --offline

echo "==> cargo test -q --offline (SNAPEA_THREADS=4, oversubscribed)"
SNAPEA_THREADS=4 SNAPEA_OVERSUBSCRIBE=1 cargo test --workspace -q --offline

echo "==> cargo test -q --offline --test determinism (SNAPEA_THREADS=2, oversubscribed)"
SNAPEA_THREADS=2 SNAPEA_OVERSUBSCRIBE=1 cargo test -q --offline --test determinism

# The end-to-end benchmark (e2ebench/, its own workspace) builds against the
# library's public API, so a library change that breaks it must fail here
# rather than in the benchmark run. Cargo rewrites its lock file on build;
# the committed one is restored whatever the outcome.
echo "==> cargo test --release --offline --manifest-path e2ebench/Cargo.toml"
E2E_LOCK=$(mktemp)
cp e2ebench/Cargo.lock "$E2E_LOCK"
e2e_status=0
cargo test --release --offline --manifest-path e2ebench/Cargo.toml || e2e_status=$?
cp "$E2E_LOCK" e2ebench/Cargo.lock
rm -f "$E2E_LOCK"
[ "$e2e_status" -eq 0 ] || { echo "ERROR: e2ebench self-tests failed"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc gate: intra-doc links must resolve and must not point at private
# items, so deleting or renaming a public item cannot leave a dangling link.
echo "==> cargo doc --no-deps --offline (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Domain-specific static analysis (DESIGN.md §8): the workspace must lint
# clean — both the per-file token pass and the call-graph pass (R1
# determinism-reachability, R2 panic-reachability, R3 parallel-capture) —
# and, same protocol as selfcheck --inject-bug below, the lint must prove
# it *can* fail, on fixtures with planted violations.
LINT=./target/release/snapea-tool
echo "==> snapea-tool lint"
"$LINT" lint --root .
echo "==> snapea-tool lint --graph"
"$LINT" lint --root . --graph

# Negative smokes: a planted violation, bug or regression must make its
# gate fail, and where the gate names the evidence (a replay line, a call
# chain), the failure output must carry it — a gate that cannot fail is
# vacuous.
must_fail() { # <what> <expected-output-substring, or ''> <command...>
  local what="$1" want="$2" out
  shift 2
  if out=$("$@" 2>&1); then
    echo "ERROR: $what went undetected"; exit 1
  fi
  if [ -n "$want" ] && ! grep -qF -- "$want" <<< "$out"; then
    echo "ERROR: $what: failure output does not name '$want':"
    echo "$out"; exit 1
  fi
}

# Graph-rule negative smokes: one planted violation per call-graph rule,
# each required to fail naming the planted evidence chain. The fixtures
# live in a throwaway workspace so the graph pass sees only the plant.
graph_smoke() { # <rule> <chain-substring> : lint --graph must fail citing the chain
  must_fail "planted $1 violation" "$2" "$LINT" lint --root "$FIXTURE" --graph --rule "$1"
}

echo "==> snapea-tool lint negative smoke (planted violation must fail)"
FIXTURE=$(mktemp -d)
trap 'rm -rf "$FIXTURE"' EXIT
mkdir -p "$FIXTURE/crates/core/src"
printf '[workspace]\n' > "$FIXTURE/Cargo.toml"
printf '#![forbid(unsafe_code)]\nuse std::collections::HashMap;\n' \
  > "$FIXTURE/crates/core/src/lib.rs"
must_fail "planted D1 violation" '' "$LINT" lint --root "$FIXTURE"

echo "==> snapea-tool lint --graph negative smoke: R1 (env read on the result path)"
printf '#![forbid(unsafe_code)]\npub mod exec;\n' > "$FIXTURE/crates/core/src/lib.rs"
cat > "$FIXTURE/crates/core/src/exec.rs" <<'EOF'
pub fn walk() {
    helper();
}
fn helper() {
    let _v = std::env::var("PLANTED");
}
EOF
graph_smoke R1 'chain: walk() → helper() → std::env::var'

echo "==> snapea-tool lint --graph negative smoke: R2 (panic reachable from pub API)"
cat > "$FIXTURE/crates/core/src/exec.rs" <<'EOF'
pub fn api(v: &[f32]) -> f32 {
    inner(v)
}
fn inner(v: &[f32]) -> f32 {
    *v.first().unwrap()
}
EOF
graph_smoke R2 'chain: api() → inner() → .unwrap()'

echo "==> snapea-tool lint --graph negative smoke: R3 (mutating capture in a par closure)"
cat > "$FIXTURE/crates/core/src/exec.rs" <<'EOF'
pub fn fanout(items: &mut [u32]) {
    let mut log = Vec::new();
    snapea_tensor::par::run_tasks(items, |i, _t| {
        log.push(i);
    });
}
EOF
graph_smoke R3 'chain: fanout() → run_tasks() → mutates captured `log` (.push())'

# Audited panic allows may only go down (ROADMAP aim 3): the number of
# `lint:allow(P1)` annotations in the workspace's Rust sources is pinned
# here. Lower the pin when an allow goes; a new panic path needs a typed
# error instead. Same prove-it-can-fail protocol: one planted allow on top
# of the workspace's must trip it.
P1_ALLOW_MAX=52
p1_ratchet() { # <root...> : fails if the roots' Rust sources carry more than P1_ALLOW_MAX P1 allows
  local dirs=() root d n
  for root in "$@"; do
    for d in crates src tests examples; do
      if [ -d "$root/$d" ]; then dirs+=("$root/$d"); fi
    done
  done
  n=$({ grep -rF --include='*.rs' -- 'lint:allow(P1)' "${dirs[@]}" || true; } | wc -l)
  if [ "$n" -gt "$P1_ALLOW_MAX" ]; then
    echo "ERROR: $n lint:allow(P1) annotations, more than the pinned $P1_ALLOW_MAX"
    return 1
  fi
  echo "    $n lint:allow(P1) annotations (at most $P1_ALLOW_MAX)"
}
echo "==> audited panic allow ratchet (lint:allow(P1) at most $P1_ALLOW_MAX)"
p1_ratchet .
echo "==> audited panic allow ratchet negative smoke (planted allow must fail)"
printf '// lint:allow(P1) planted\n' > "$FIXTURE/crates/core/src/planted.rs"
must_fail "planted lint:allow(P1) past the pin" "more than the pinned $P1_ALLOW_MAX" \
  p1_ratchet . "$FIXTURE"
rm -rf "$FIXTURE/crates"

# Differential selfcheck: the speculative executor, kernels, and cycle
# simulator fuzzed against the snapea-oracle reference models, serial and
# parallel (results must be bit-identical at any thread count).
SELFCHECK=./target/release/snapea-tool
echo "==> snapea-tool selfcheck --cases 500 --seed 1 (SNAPEA_THREADS=1)"
SNAPEA_THREADS=1 "$SELFCHECK" selfcheck --cases 500 --seed 1
echo "==> snapea-tool selfcheck --cases 500 --seed 1 (SNAPEA_THREADS=2, oversubscribed)"
SNAPEA_THREADS=2 SNAPEA_OVERSUBSCRIBE=1 "$SELFCHECK" selfcheck --cases 500 --seed 1
echo "==> snapea-tool selfcheck --cases 500 --seed 1 (SNAPEA_THREADS=4, oversubscribed)"
SNAPEA_THREADS=4 SNAPEA_OVERSUBSCRIBE=1 "$SELFCHECK" selfcheck --cases 500 --seed 1

# The harness must also *detect* divergence: with a deliberately injected
# bug it has to fail and print a replayable case.
echo "==> snapea-tool selfcheck --inject-bug (must fail with a replayable case)"
must_fail "injected selfcheck bug" "replay: snapea-tool selfcheck --replay 0x" \
  "$SELFCHECK" selfcheck --cases 2 --seed 1 --inject-bug

# Compiled-artifact gates: `train` and `optimize` write `.snapea` artifacts;
# `inspect` must re-serialise the loaded artifact to the digest `optimize`
# reported for its fresh compile (the encoding is canonical), and `run` must
# print the same activation digest serial and at 4 threads. Fresh-vs-loaded
# bit identity is gated by tests/artifact.rs and the battery below, which
# must reject every byte-level mutation with a typed error; and — same
# prove-it-can-fail protocol as the lint and selfcheck smokes — a planted
# loader bug (one skipped section checksum) must be caught with a
# replayable case.
echo "==> artifact train/optimize/inspect/run round trip (digests must match)"
ART="$FIXTURE/artifact"
mkdir -p "$ART"
SNAPEA_LOG=off "$SELFCHECK" train --workload AlexNet --epochs 0 \
  --out "$ART/model.snapea" > /dev/null
SNAPEA_LOG=off "$SELFCHECK" optimize "$ART/model.snapea" --images 6 \
  --out "$ART/tuned.snapea" --json > "$ART/optimize.json"
SNAPEA_LOG=off "$SELFCHECK" inspect "$ART/tuned.snapea" --json > "$ART/inspect.json"
grep -q '"sections":{' "$ART/inspect.json" \
  || { echo "ERROR: inspect --json is missing the section breakdown"; exit 1; }
written=$(grep -o '"digest":"0x[0-9a-f]*"' "$ART/optimize.json")
reloaded=$(grep -o '"digest":"0x[0-9a-f]*"' "$ART/inspect.json")
if [ -z "$written" ] || [ "$written" != "$reloaded" ]; then
  echo "ERROR: inspect digest ${reloaded:-<none>} != optimize digest ${written:-<none>}"
  exit 1
fi
serial=$(SNAPEA_LOG=off SNAPEA_THREADS=1 "$SELFCHECK" run "$ART/tuned.snapea" \
  --images 4 --seed 7 --json | grep -o '"output_digest":"0x[0-9a-f]*"')
threaded=$(SNAPEA_LOG=off SNAPEA_THREADS=4 SNAPEA_OVERSUBSCRIBE=1 "$SELFCHECK" run \
  "$ART/tuned.snapea" --images 4 --seed 7 --json | grep -o '"output_digest":"0x[0-9a-f]*"')
if [ -z "$serial" ] || [ "$serial" != "$threaded" ]; then
  echo "ERROR: run digest at 4 threads ${threaded:-<none>} != serial ${serial:-<none>}"
  exit 1
fi
echo "    written and reloaded artifacts agree: $written"
echo "    serial and 4-thread runs agree: $serial"

echo "==> snapea-tool selfcheck --artifact --cases 200 --seed 1 (corruption battery)"
"$SELFCHECK" selfcheck --artifact --cases 200 --seed 1

echo "==> snapea-tool selfcheck --artifact --inject-bug (planted loader bug must be caught)"
must_fail "planted artifact loader bug" "replay: snapea-tool selfcheck --artifact --replay 0x" \
  "$SELFCHECK" selfcheck --artifact --cases 200 --seed 3 --inject-bug

# Golden-fixture gate: the committed artifact is byte-frozen (the `artifact`
# integration test additionally pins its FNV-1a digest and re-serialization);
# drift here means the format changed without a VERSION bump + regeneration.
echo "==> golden artifact byte-stability gate (tests/golden/tiny.snapea)"
golden=$(cksum tests/golden/tiny.snapea)
want="2186350779 2240 tests/golden/tiny.snapea"
if [ "$golden" != "$want" ]; then
  echo "ERROR: golden artifact drifted: got '$golden', want '$want'"
  echo "       (format changes must bump VERSION and regenerate, see tests/artifact.rs)"
  exit 1
fi

echo "==> scripts/bench.sh --smoke --scaling"
PARALLEL_SMOKE=/tmp/BENCH_parallel.smoke.json
KERNELS_SMOKE=/tmp/BENCH_kernels.smoke.json
./scripts/bench.sh --smoke --scaling --out "$PARALLEL_SMOKE" \
  --kernels-out "$KERNELS_SMOKE"

# Schema-2 gate: both reports must carry the document version and the
# degraded flag (perf-diff keys its refusal off the latter), and every
# scaling-curve point must report bit_identical:true — one per "label".
echo "==> BENCH_parallel schema + curve bit-identity gate"
for f in "$PARALLEL_SMOKE" "$KERNELS_SMOKE"; do
  grep -q '"schema":2' "$f" || { echo "ERROR: $f missing schema 2"; exit 1; }
  grep -q '"degraded":' "$f" || { echo "ERROR: $f missing degraded flag"; exit 1; }
done
points=$(grep -o '"label":"t' "$PARALLEL_SMOKE" | wc -l)
identical=$(grep -o '"bit_identical":true' "$PARALLEL_SMOKE" | wc -l)
if [ "$points" -lt 1 ] || [ "$points" -ne "$identical" ]; then
  echo "ERROR: $PARALLEL_SMOKE: $identical of $points curve points bit-identical"
  exit 1
fi
echo "    $identical/$points curve points bit-identical"

# --kernels-only smoke: the quick lane-engine loop must write the kernels
# report and nothing else (no scaling curves, no BENCH_parallel).
echo "==> scripts/bench.sh --smoke --kernels-only"
KERNELS_ONLY_SMOKE=/tmp/BENCH_kernels.only.json
KERNELS_ONLY_OUT=/tmp/BENCH_parallel.must-not-exist.json
rm -f "$KERNELS_ONLY_SMOKE" "$KERNELS_ONLY_OUT"
./scripts/bench.sh --smoke --kernels-only --out "$KERNELS_ONLY_OUT" \
  --kernels-out "$KERNELS_ONLY_SMOKE"
[ -f "$KERNELS_ONLY_SMOKE" ] || { echo "ERROR: --kernels-only wrote no kernels report"; exit 1; }
if [ -f "$KERNELS_ONLY_OUT" ]; then
  echo "ERROR: --kernels-only wrote the parallel report ($KERNELS_ONLY_OUT)"
  exit 1
fi
grep -q '"name":"lane_axpy8"' "$KERNELS_ONLY_SMOKE" \
  || { echo "ERROR: $KERNELS_ONLY_SMOKE missing the lane_axpy8 micro-kernel entry"; exit 1; }

# Scaling gate (opt-in, recording machines with >=4 cores): perfbench
# --strict asserts conv forward + executor reach >=3x at 4 threads on full
# shapes. Costs minutes, so it only runs under SNAPEA_BENCH_STRICT=1.
if [ "${SNAPEA_BENCH_STRICT:-0}" = "1" ]; then
  echo "==> scripts/bench.sh --scaling --strict (SNAPEA_BENCH_STRICT=1, full shapes)"
  ./scripts/bench.sh --scaling --strict --out /tmp/BENCH_parallel.strict.json \
    --kernels-out /tmp/BENCH_kernels.strict.json
fi

# Kernels-report gate: every entry carries its `kernel_ms` timing, the field
# perf-diff compares against the previous commit's BENCH_kernels.json. Bit
# identity of the kernels is asserted elsewhere: by the selfcheck stages
# above (executor exact, predictive and q16 vs the oracle), the oracle
# integration test (tests/oracle_matrix.rs), and the tensor crate's lane
# and GEMM property tests.
echo "==> BENCH_kernels timing gate"
entries=$(grep -o '"name":"' "$KERNELS_SMOKE" | wc -l)
timed=$(grep -o '"kernel_ms":' "$KERNELS_SMOKE" | wc -l)
if [ "$entries" -lt 1 ] || [ "$entries" -ne "$timed" ]; then
  echo "ERROR: $KERNELS_SMOKE: $timed of $entries kernel entries carry kernel_ms"
  exit 1
fi
echo "    $timed/$entries kernel entries timed"

# Trace-export smoke: a petrace run (training-free, milliseconds) must
# yield an event log that renders to schema-valid Chrome trace documents
# on both timebases — the full wall-clock trace and the virtual-PE
# sub-trace. `snapea-tool trace` validates each document before writing,
# so a zero exit plus non-empty outputs is the whole check.
echo "==> trace export smoke (repro petrace -> snapea-tool trace)"
REPRO=$PWD/target/release/repro
TOOL=$PWD/target/release/snapea-tool
mkdir -p "$FIXTURE/trace"
(cd "$FIXTURE/trace" && SNAPEA_LOG=off "$REPRO" petrace > /dev/null)
EVENTS=$(find "$FIXTURE/trace/repro-results" -name events.jsonl | head -n 1)
[ -n "$EVENTS" ] || { echo "ERROR: petrace wrote no events.jsonl"; exit 1; }
"$TOOL" trace "$EVENTS" --chrome "$FIXTURE/trace/chrome.json" \
  --pe-trace "$FIXTURE/trace/pe-trace.json" > /dev/null
for f in chrome.json pe-trace.json; do
  [ -s "$FIXTURE/trace/$f" ] || { echo "ERROR: trace export missing $f"; exit 1; }
  grep -q '"traceEvents"' "$FIXTURE/trace/$f" \
    || { echo "ERROR: $f is not a Chrome trace document"; exit 1; }
done

# Perf regression gate: a benchmark compared against itself must pass, and
# — same prove-it-can-fail protocol as the lint and selfcheck smokes — a
# planted 20% regression must trip the default 10% gate.
echo "==> snapea-tool perf-diff self-compare (must pass)"
"$TOOL" perf-diff /tmp/BENCH_parallel.smoke.json /tmp/BENCH_parallel.smoke.json > /dev/null
echo "==> snapea-tool perf-diff negative smoke (planted 20% regression must fail)"
printf '{"kernels":[{"name":"gemm_f32","kernel_ms":10.0}]}\n' > "$FIXTURE/perf-old.json"
printf '{"kernels":[{"name":"gemm_f32","kernel_ms":12.0}]}\n' > "$FIXTURE/perf-new.json"
must_fail "planted 20% regression (10% gate)" '' \
  "$TOOL" perf-diff "$FIXTURE/perf-old.json" "$FIXTURE/perf-new.json"
echo "==> snapea-tool perf-diff degraded-mismatch smoke (must refuse)"
printf '{"degraded":true,"benches":[{"name":"b","serial_ms":10.0}]}\n' > "$FIXTURE/perf-deg.json"
printf '{"degraded":false,"benches":[{"name":"b","serial_ms":10.0}]}\n' > "$FIXTURE/perf-nondeg.json"
must_fail "degraded vs non-degraded comparison" '' \
  "$TOOL" perf-diff "$FIXTURE/perf-deg.json" "$FIXTURE/perf-nondeg.json"
echo "==> snapea-tool perf-diff degraded-mismatch smoke, kernels shape (must refuse)"
printf '{"degraded":true,"kernels":[{"name":"lane_axpy8","kernel_ms":1.5}]}\n' > "$FIXTURE/perf-deg-k.json"
printf '{"degraded":false,"kernels":[{"name":"lane_axpy8","kernel_ms":1.5}]}\n' > "$FIXTURE/perf-nondeg-k.json"
must_fail "degraded vs non-degraded kernels comparison" '' \
  "$TOOL" perf-diff "$FIXTURE/perf-deg-k.json" "$FIXTURE/perf-nondeg-k.json"

echo "OK: build, tests (1, 2, and 4 threads), clippy, lint (token + call-graph passes, planted-violation smokes), selfcheck (1, 2, and 4 threads), artifact round-trip + corruption battery + golden fixture, bench smoke (scaling curves), kernels timing, trace export, and perf-diff gates all clean."
