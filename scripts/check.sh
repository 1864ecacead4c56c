#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, the tier-1 build+test suite in both
# profiles, the metrics schema, the end-to-end benchmark's smoke run,
# and the bench gates declared in scripts/bench_gates.json. Everything
# runs offline against the vendored dependency shims.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_FILE=scripts/test_count_baseline

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings -D deprecated"
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

# One durable-file substrate: the CRC-32, the file fsync and the rename
# that commits a file exist once, in cloudscope-model's durable module
# (the KB's per-append `sync_data` under SyncPolicy::Always is not one
# of them).
echo "==> durable primitives defined once (crates/model/src/durable.rs)"
if grep -rnE 'fn crc32|\.sync_all\(|fs::rename\(' crates/*/src \
  | grep -v '^crates/model/src/durable\.rs:'; then
  echo "ERROR: use cloudscope_model::durable (crc32, write_atomic, sync_dir) instead" >&2
  exit 1
fi

# One telemetry decode path: a VM's per-day runs become its series only
# in the store's lane scan (StoreTelemetry), which a resident read
# collects; nothing else reassembles stored runs.
echo "==> one telemetry decode path (crates/store/src/source.rs)"
if grep -rn --include='*.rs' 'assemble_series(' crates/*/src \
  | grep -v '^crates/store/src/source\.rs:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "ERROR: read telemetry through StoreTelemetry::try_scan instead of assembling runs again" >&2
  exit 1
fi

# One emission loop: a trace's telemetry is synthesized (`vm_telemetry(`)
# and its unplaced churn dropped at one site each, in the pass that
# generate_with and generate_to_store both sink from.
echo "==> one emission loop (crates/tracegen/src/generate.rs)"
emission=$(grep -rnE --include='*.rs' 'vm_telemetry\(|cluster(\.index\(\))? == (UNPLACED_CLUSTER|u32::MAX)' \
  crates/tracegen/src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -v 'fn vm_telemetry(' || true)
if printf '%s\n' "$emission" | grep -v -e '^crates/tracegen/src/generate\.rs:' -e '^$' \
  || [ "$(printf '%s\n' "$emission" | grep -c 'vm_telemetry(')" -gt 1 ] \
  || [ "$(printf '%s\n' "$emission" | grep -cE '== (UNPLACED_CLUSTER|u32::MAX)')" -gt 1 ]; then
  echo "ERROR: emit the trace through generate::Placed::emit instead of a second telemetry loop" >&2
  exit 1
fi

# The drive pulls each VM's wire from a step-wise corruptor as it comes
# due; only the test oracle materialises a whole stream.
echo "==> no materialised wire in ingest (crates/ingest/src/reference.rs only)"
if grep -rn 'Vec<WireSample>' crates/ingest/src \
  | grep -v '^crates/ingest/src/reference\.rs:'; then
  echo "ERROR: pull samples from cloudscope_faults::WireCorruptor instead of a Vec<WireSample>" >&2
  exit 1
fi

# A window close classifies each lane once; publication votes with the
# close's patterns, so nothing else in the ingest crate classifies.
echo "==> ingest classifies only at the window close (crates/ingest/src/ingestor.rs only)"
if grep -rn '\.classify_' crates/ingest/src \
  | grep -v '^crates/ingest/src/ingestor\.rs:'; then
  echo "ERROR: vote with the lanes' close-time patterns instead of classifying again" >&2
  exit 1
fi

# One offer path: the offer rules (validation, grid snap, out-of-week,
# lazy seal, late drop, last-write-wins apply) live in
# ingestor.rs::offer_run, which Ingestor::offer (a run of one) and the
# drive's delivery shards (a run per stream and round) both call, so a
# sample is quantized at one site, ingestor.rs::level, which the test
# oracle of the per-sample rules calls too.
echo "==> one offer path (crates/ingest/src/ingestor.rs::offer_run)"
quantize=$(grep -rn --include='*.rs' 'quantize_percentage(' crates/ingest/src \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ "$(printf '%s\n' "$quantize" | grep -c 'quantize_percentage(')" -ne 1 ]; then
  printf '%s\n' "$quantize"
  echo "ERROR: offer samples through ingestor::offer_run instead of a second copy of its rules" >&2
  exit 1
fi

# One Box–Muller formula: the exact normal is StdNormal::from_uniforms
# and the fast one's fallback calls it, so the libm expression (the
# radius √(−2 ln u) beside a 2π angle) appears in no other source file.
echo "==> one Box-Muller formula (crates/stats/src/dist.rs)"
if grep -rlF '.ln()).sqrt()' crates/*/src | grep -v '^crates/stats/src/dist\.rs$' \
  | xargs -r grep -lF 'TAU *'; then
  echo "ERROR: draw normals through cloudscope_stats::dist::StdNormal::from_uniforms" >&2
  exit 1
fi

# One paper-fact ledger: every claim of the paper, its paper value and
# its thresholds are a row of crates/repro/src/ledger.rs, so no other
# Rust source restates a paper value (the Fig 3a shortest-bin 0.49 /
# 0.81) or declares a per-figure threshold field (`fig<N>_…:`).
echo "==> paper facts declared once (crates/repro/src/ledger.rs)"
if grep -rnE --include='*.rs' '0\.49|0\.81|fig[0-9][a-z0-9]*_[a-z0-9_]*:' crates/*/src tests examples \
  | grep -v '^crates/repro/src/ledger\.rs:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "ERROR: declare the fact or threshold as a row of cloudscope_repro::ledger::LEDGER" >&2
  exit 1
fi

# One Wiener–Khinchin ACF: the ACF is the inverse transform of a power
# spectrum, and acf.rs::Spectrum::acf is the one place that takes it (the
# real-input spectrum of a dense signal and the signal-plus-mask spectrum
# of a gap-bearing one alike), so the non-test code of crates/*/src
# holds one `.inverse(` call.
echo "==> one Wiener-Khinchin inverse (crates/timeseries/src/acf.rs)"
inverse=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
    /\.inverse\(/ && !/^[[:space:]]*\/\// { print f ":" FNR ":" $0 }' "$f"
done)
if [ "$(printf '%s\n' "$inverse" | grep -c '\.inverse(')" -ne 1 ]; then
  printf '%s\n' "$inverse"
  echo "ERROR: take the ACF through acf::Spectrum::acf instead of another inverse transform" >&2
  exit 1
fi

# One counting allocator: heap and allocation claims are tests that
# install cloudscope_obs::heap::CountingAlloc, never a private copy.
echo "==> one counting allocator (crates/obs/src/heap.rs)"
if grep -rn 'unsafe impl GlobalAlloc' crates tests \
  | grep -v '^crates/obs/src/heap\.rs:'; then
  echo "ERROR: install cloudscope_obs::heap::CountingAlloc instead of another GlobalAlloc" >&2
  exit 1
fi

# Two audited homes for `unsafe`: the call into the carry-less-multiply
# CRC kernel after CPU feature detection (cloudscope-model, which denies
# unsafe_code elsewhere) and the counting allocator. An inline test
# module (`#[cfg(test)]` then `mod name {`) ends a file's scan; a
# test-only item elsewhere does not.
echo "==> unsafe only in crates/model/src/durable/clmul.rs and crates/obs/src/heap.rs"
unsafe_code=$(find crates/*/src -name '*.rs' | sort \
  | grep -v -e '^crates/model/src/durable/clmul\.rs$' -e '^crates/obs/src/heap\.rs$' \
  | while read -r f; do
  awk -v f="$f" 'test_attr && /^(pub(\([a-z]+\))? )?mod [_[:alnum:]]+ \{/ { exit }
    { test_attr = /^#\[cfg\(test\)\]/ }
    /(^|[^_[:alnum:]])unsafe([^_[:alnum:]]|$)/ && !/^[[:space:]]*\/\// { print f ":" FNR ":" $0 }' "$f"
done)
if [ -n "$unsafe_code" ]; then
  printf '%s\n' "$unsafe_code"
  echo "ERROR: keep unsafe code to the CRC kernel's dispatch and the counting allocator" >&2
  exit 1
fi

# Reachability: every non-const `pub fn` in crates/*/src is linked into
# a fresh dev build of some non-test binary (the repro bins, the
# examples, the benches, the benchmark), read with `nm --demangle`;
# structs, enums, traits, type aliases and const fns are named by
# non-test code instead. Anything else is allow-listed with the reason
# it stays (a hook other crates' tests drive, or an oracle a kept test
# compares kept code against). A stale allow-list entry fails too, so
# the list only shrinks. The gate fails, never passes, without `nm`,
# with a declared binary unbuilt, or with a binary holding no
# cloudscope_ symbol.
echo "==> every pub fn is linked into a non-test binary (scripts/reachability.py)"
python3 scripts/reachability.py

echo "==> cargo build --release"
cargo build --release --workspace

# The two workspace runs execute every suite: the robustness and parity
# gates, observability reconciliation, the KB crash matrix and
# corruption fuzzing, the store crash matrix (kill states built from
# the public writer plus torn .tmp files) and its round-trip/corruption
# suites, the byte pins of both on-disk formats, the
# allocator and generator oracles, ingest convergence, and the four
# examples, each run to an `Ok` from its `main` (tests/examples.rs). Release
# matters as much as debug: it is the mode the binaries run in, where
# debug asserts are compiled out and the in-crate oracles, CRC footers
# and torn-tail handling are the only safety net.
echo "==> cargo test -q (debug: catches overflow/shift panics release wraps)"
debug_out=$(cargo test -q --workspace 2>&1) || {
  printf '%s\n' "$debug_out"
  exit 1
}
printf '%s\n' "$debug_out"

echo "==> cargo test -q --release"
cargo test -q --release --workspace

# The classifier's decision oracle: every VM of the default trace and of
# medium(1..=32), clean and faulted, gets the same Figure 5 class from
# PatternClassifier::classify_util as from the former decision logic
# over the reference detector.
echo "==> decision oracle (release, ignored by default): classify_util moves no verdict"
cargo test -q --release -p cloudscope --test decision_oracle -- --ignored

# Every artifact the README advertises, judged: `repro all` at medium
# (26 figure shape checks, the 12 differential rows, 5 ablations) must
# hold and print exactly tests/golden/repro_medium.txt.
ARTIFACTS_DIR=${ARTIFACTS_DIR:-target/check-artifacts}
mkdir -p "$ARTIFACTS_DIR"
echo "==> repro all (medium) holds every check and matches tests/golden/repro_medium.txt"
CLOUDSCOPE_TRACE_SCALE=medium cargo run -q --release -p cloudscope-repro --bin repro -- all \
  > "$ARTIFACTS_DIR/repro_medium.txt"
if ! cmp -s "$ARTIFACTS_DIR/repro_medium.txt" tests/golden/repro_medium.txt; then
  diff tests/golden/repro_medium.txt "$ARTIFACTS_DIR/repro_medium.txt" | head -n 40
  echo "ERROR: repro all stdout differs from tests/golden/repro_medium.txt" >&2
  exit 1
fi

# A real binary run must emit a snapshot whose names/kinds validate
# against the committed schema (values are free to drift; names are not),
# generating in memory and generating straight to a store alike; the
# out-of-core run must print what the in-memory one does.
echo "==> metrics schema: repro fig1 --metrics (in memory, --trace-out) vs tests/golden/metrics_schema.json"
CLOUDSCOPE_TRACE_SCALE=small cargo run -q --release -p cloudscope-repro --bin repro -- fig1 \
  --metrics "$ARTIFACTS_DIR/fig1_metrics.json" > "$ARTIFACTS_DIR/fig1.txt"
CLOUDSCOPE_TRACE_SCALE=small cargo run -q --release -p cloudscope-repro --bin repro -- fig1 \
  --trace-out "$ARTIFACTS_DIR/store" --metrics "$ARTIFACTS_DIR/fig1_store_metrics.json" \
  > "$ARTIFACTS_DIR/fig1_store.txt"
for snapshot in fig1_metrics fig1_store_metrics; do
  cargo run -q --release -p cloudscope-repro --bin metrics_schema -- \
    "$ARTIFACTS_DIR/$snapshot.json" tests/golden/metrics_schema.json
done
if ! cmp -s "$ARTIFACTS_DIR/fig1.txt" "$ARTIFACTS_DIR/fig1_store.txt"; then
  diff "$ARTIFACTS_DIR/fig1.txt" "$ARTIFACTS_DIR/fig1_store.txt" | head -n 40
  echo "ERROR: repro fig1 --trace-out prints differently from the in-memory run" >&2
  exit 1
fi
echo "    (metrics snapshots archived at $ARTIFACTS_DIR/fig1_metrics.json, fig1_store_metrics.json)"

# The end-to-end benchmark, invoked only: every workload once on the
# small trace (each checks its own digests, parity and ledgers, and
# exits non-zero on a failed operation), then the harness self-tests.
# --locked: benchmark/Cargo.lock is frozen, so a workspace crate that
# gains or drops a dependency edge fails here instead of rewriting it.
echo "==> end-to-end benchmark: all --smoke + harness self-tests"
cargo run --locked --release --manifest-path benchmark/Cargo.toml -- all --smoke
cargo test --locked --release --manifest-path benchmark/Cargo.toml

# Worker-count invariance of the ingest drive: its delivery shards and
# close/publish sweeps follow CLOUDSCOPE_WORKERS, and the stream_ingest
# result digest (both ingest ledgers, the fault ledger, the recovered KB
# and the recommendations) must not.
echo "==> stream_ingest --smoke result digest at CLOUDSCOPE_WORKERS=1 and 3 == default"
result=benchmark/out/result-stream_ingest.json
digest_of() {
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["result_digest"])' "$1"
}
for workers in default 1 3; do
  if [ "$workers" = default ]; then
    cargo run -q --locked --release --manifest-path benchmark/Cargo.toml -- \
      run --workload stream_ingest --smoke > /dev/null
  else
    CLOUDSCOPE_WORKERS=$workers cargo run -q --locked --release --manifest-path benchmark/Cargo.toml -- \
      run --workload stream_ingest --smoke > /dev/null
  fi
  cp "$result" "$ARTIFACTS_DIR/result-stream_ingest-workers-$workers.json"
  digest=$(digest_of "$result")
  echo "    workers=$workers result_digest=$digest"
  if [ "$workers" = default ]; then
    want=$digest
  elif [ "$digest" != "$want" ]; then
    echo "ERROR: stream_ingest result digest $digest at CLOUDSCOPE_WORKERS=$workers, $want by default" >&2
    exit 1
  fi
done
echo "    (results archived at $ARTIFACTS_DIR/result-stream_ingest-workers-{default,1,3}.json)"

# Bench smoke + gates, as data: which bench writes which BENCH_*.json,
# the rows it writes, and every bound on them.
python3 scripts/bench_gates.py | tee "$ARTIFACTS_DIR/bench_gates.log"
gates=$(tail -n 1 "$ARTIFACTS_DIR/bench_gates.log")

# Test-count delta: the suite must never shrink. The baseline is the
# committed count from the last blessed run; growing it is expected
# (update the file), shrinking it fails the gate.
total=$(printf '%s\n' "$debug_out" \
  | awk '/^test result:/ { for (i = 1; i <= NF; i++) if ($i == "passed;") sum += $(i - 1) } END { print sum + 0 }')
baseline=$(cat "$BASELINE_FILE" 2>/dev/null || echo 0)
delta=$((total - baseline))
echo "==> test count: $total (baseline $baseline, delta ${delta#-} $([ "$delta" -ge 0 ] && echo gained || echo LOST))"
if [ "$total" -lt "$baseline" ]; then
  echo "ERROR: test count shrank from $baseline to $total; restore the missing tests" >&2
  exit 1
fi
if [ "$total" -gt "$baseline" ]; then
  echo "    (new high-water mark; bless it with: echo $total > $BASELINE_FILE)"
fi

echo "==> OK: all checks passed ($gates)"
