#!/usr/bin/env bash
# The full local gate: formatting, lints-as-errors, build, tests.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Workspace invariants beyond what rustc/clippy can see: no-panic server
# crates, poison recovery on shared locks, metric and fault-site names in
# sync with their docs, protocol tags in range, fixed-seed determinism,
# lock-order cycles, reactor-blocking reachability, gauge balance.
# Exit 1 on any finding; the JSON report is archived for trend tracking,
# and the server crates' lock-order graph (who holds what while acquiring
# what) is archived even when clean so a new held-across edge shows up in
# review. See docs/ANALYSIS.md.
echo "==> ptm-analyze"
mkdir -p out
cargo run -q -p ptm-analyze -- check --json-out out/analysis.json \
    --lockgraph-out out/lockgraph.json

echo "==> cargo build --release"
cargo build --workspace --release

# The runnable examples: clippy compiles them, this runs each one, so an
# example that panics (or hangs) against today's API fails CI. Every
# `examples/<name>.rs` is the `<name>` binary of the ptm-examples package.
echo "==> examples (bounded)"
for src in examples/*.rs; do
    example="$(basename "$src" .rs)"
    echo "--> $example"
    timeout 120 "target/release/$example" > /dev/null
done

# Bounded like the integration suites below: a hung unit test fails CI
# (exit 124) instead of wedging it. Compiling stays outside the bound.
echo "==> cargo test (bounded)"
cargo test --workspace --quiet --no-run
timeout 600 cargo test --workspace --quiet

# The estimator kernel and its bit-exact equivalence test against the
# materialising reference again under release codegen (vectorised loops,
# wrapping arithmetic, no debug assertions): that build is what ships.
echo "==> ptm-core tests in release (bounded)"
cargo test --release --quiet -p ptm-core --no-run
timeout 300 cargo test --release --quiet -p ptm-core

# The store again under release codegen: the four-lane CRC-32 kernel
# and the in-place record and frame encoders ship at opt-level 3, so their
# byte-wise reference, per-bit packing and golden-bytes tests run there too,
# and so do the checks the daemon's derived segment-frame CRC rests on: the
# carry-less multiply and `crc32_combine` against bit-serial and byte-wise
# references (`a_message_tail_crc_derives_from_the_whole_and_its_prefix`),
# the canonical codec (`decoded_payloads_re_encode_to_the_same_bytes`), and
# supplied CRCs writing the same frames (`supplied_crcs_write_the_same_frames`).
# The frame reader's checker thread and its 64 KiB chunks are checked here
# too: frames split by a chunk boundary at every offset
# (`frames_split_by_a_chunk_boundary_at_every_offset_read_back_bit_exact`),
# frames longer than a chunk
# (`frames_longer_than_a_chunk_read_back_among_small_ones`), torn tails at
# a boundary (`torn_tails_at_a_chunk_boundary_are_truncated`), damage found
# chunks ahead of the decoder
# (`damage_in_a_later_chunk_is_refused_at_its_offset_untouched`) and the
# first failure in file order winning
# (`a_decode_failure_in_an_early_chunk_wins_over_later_damage`).
echo "==> ptm-store tests in release (bounded)"
cargo test --release --quiet -p ptm-store --no-run
timeout 300 cargo test --release --quiet -p ptm-store

# The rpc crate again under release codegen: the worker pool's spin and
# claim races (a submit claiming a spinner as its window ends, shutdown
# during a spin) depend on timing, and the daemon ships at opt-level 3,
# not at the test profile's opt-level 1. The exhaustive frame-decoder
# check (every cut and bit flip of a corpus of valid frames) runs here too,
# and so do the inbox-drain protocol tests (arrival order across a query,
# a query on another connection overtaking a draining inbox, a full upload
# queue shedding the inbox, a panic in a middle batch, backpressure over
# the pending queue and the inbox, whole frames left buffered at the cap
# decoding without new bytes) and the round trip of uploads of every
# size and header shape through a restart, whose archived frames carry the
# CRC derived from the wire CRC (`uploads_of_every_size_and_header_reopen_bit_exact`).
echo "==> ptm-rpc tests in release (bounded)"
cargo test --release --quiet -p ptm-rpc --no-run
timeout 300 cargo test --release --quiet -p ptm-rpc

# The rpc loopback suite opens real sockets and spawns daemon threads; a
# hang here should fail CI, not wedge it. `timeout` sends SIGTERM after the
# bound (exit 124), which set -e turns into a failure.
echo "==> rpc loopback integration tests (bounded)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test rpc_loopback

# Concurrency stress on the sharded store: parallel uploaders + queriers
# must answer bit-for-bit like a sequential run, and a panicked upload must
# publish nothing. Same bounding rationale as above.
echo "==> shard stress tests (bounded)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test shard_stress

# Seeded chaos: deterministic fault plans (disk-full, fsync failure,
# connection resets, truncated frames, overload bursts) against a real
# daemon. The plans are fixed-seed, so this is a regression gate, not a
# fuzzer; the whole suite is budgeted to finish in seconds.
echo "==> chaos suite (bounded, fixed seeds)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test chaos

# Segment-lifecycle kill storms, called out separately so a storage-engine
# regression fails with its own banner: kills landing inside rotation must
# lose no acked record and answer bit-exactly after reopen, and every cut of
# the active segment must either reopen with each complete frame before it
# or, inside the checkpointed frames, be refused with every file untouched.
echo "==> storage-engine kill storms (bounded, fixed seeds)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test chaos kill_during
timeout 300 cargo test --quiet -p ptm-store --lib \
    every_cut_of_the_active_segment_recovers_or_is_refused

# Connection-scale storms against the reactor: hundreds of slow-loris
# dribblers must not starve healthy clients, a thousand concurrent
# connections must all be answered, and the pipelined upload path must be
# bit-for-bit equivalent to an in-process engine.
echo "==> reactor storms (bounded)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test reactor_storm

# Overload storms: a saturated worker pool across five fixed seeds must
# drop deadline-doomed work without executing it, keep Stats answerable
# at full saturation, drain with zero acked-record loss, and settle every
# queue-depth and in-flight gauge back to zero.
echo "==> overload storms (bounded, fixed seeds)"
timeout 300 cargo test --quiet -p ptm-integration-tests --test overload_storm

# Benchmark correctness-gate smoke: a few rounds of each gated workload,
# plus `mixed`, against a real in-process daemon. Exit 1 on any failed
# call, a `Ping` record count that differs from the acked records, or an
# answer that is not bit-exact against an in-process `CentralServer` — so
# the record decode and frame/segment CRC paths are checked end to end on
# every run. `mixed` uploads open-loop beside a paced query stream on a
# restarted archive, which the daemon loads before it serves.
echo "==> benchmark smoke (bounded, correctness gate only)"
cargo build --release --quiet --offline --manifest-path loadbench/Cargo.toml
for workload in ingest query mixed; do
    timeout 300 cargo run --release --offline --manifest-path loadbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0
done

# Traced loopback smoke: a real daemon with tracing on, one upload and one
# query against it, then the span JSONL checked against the schema
# documented in docs/OBSERVABILITY.md. The sample is archived as a CI
# artifact (out/trace-sample.jsonl) so a schema change shows up in review.
echo "==> traced loopback smoke"
ptm="target/release/ptm"
rm -f out/trace-sample.jsonl
rm -rf out/trace-smoke.ptma
"$ptm" serve --archive out/trace-smoke.ptma --addr 127.0.0.1:17171 \
    --duration-secs 4 --trace out/trace-sample.jsonl --quiet &
serve_pid=$!
# The client retries refused connections, so no startup sleep is needed.
"$ptm" upload --addr 127.0.0.1:17171 --location 5 --periods 3 \
    --vehicles 80 --persistent 20 --quiet
"$ptm" query --addr 127.0.0.1:17171 --kind point --location 5 --periods 3 --quiet
wait "$serve_pid"
"$ptm" trace-validate --file out/trace-sample.jsonl

# Cold-start smoke for the segment store: populate an archive past the
# rotation threshold (a sealed segment and an active one), stop the daemon,
# reopen with tracing on, and require the reopened daemon to answer a query
# exactly as the live one did, after an open that read each segment file
# once. The records are 8 KiB (m = 65,536 bits) and segments rotate at
# 64 KiB, so the sealed segment spans two of the frame reader's 64 KiB
# chunks with a frame across the boundary between them.
echo "==> cold-start smoke (one-pass reopen)"
rm -f out/trace-coldstart.jsonl
rm -rf out/coldstart.ptma
query=("$ptm" query --addr 127.0.0.1:17172 --kind point --location 7 --periods 12 --quiet)
"$ptm" serve --archive out/coldstart.ptma --addr 127.0.0.1:17172 \
    --rotate-bytes 65536 --duration-secs 4 --quiet &
serve_pid=$!
"$ptm" upload --addr 127.0.0.1:17172 --location 7 --periods 12 \
    --vehicles 20000 --persistent 100 --quiet
live_answer="$("${query[@]}")"
# The health probe (one Ping, no retries) must pass against the live
# daemon and fail once it has stopped.
"$ptm" serve --health --addr 127.0.0.1:17172
wait "$serve_pid"
if "$ptm" serve --health --addr 127.0.0.1:17172; then
    echo "ci: the health probe passed against a stopped daemon" >&2
    exit 1
fi
segments=$(find out/coldstart.ptma -name 'seg-*.ptms' | wc -l)
largest=$(find out/coldstart.ptma -name 'seg-*.ptms' -printf '%s\n' | sort -n | tail -n 1)
if [ "$largest" -le 65536 ]; then
    echo "ci: no segment passed one 64 KiB chunk (largest $largest bytes)" >&2
    exit 1
fi
# The reopen reads every segment front to back, once, and loads the records
# into the query engine before it answers from memory.
"$ptm" serve --archive out/coldstart.ptma --addr 127.0.0.1:17172 \
    --duration-secs 4 --trace out/trace-coldstart.jsonl --quiet &
serve_pid=$!
if ! reopened_answer="$("${query[@]}")"; then
    kill "$serve_pid" 2> /dev/null || true
    echo "ci: the reopened daemon did not answer a query" >&2
    exit 1
fi
wait "$serve_pid"
if [ "$reopened_answer" != "$live_answer" ]; then
    echo "ci: reopened daemon answered '$reopened_answer', live one '$live_answer'" >&2
    exit 1
fi
scans=$(grep -c '"name":"store.replay.scan"' out/trace-coldstart.jsonl || true)
if [ "$scans" -ne "$segments" ]; then
    echo "ci: reopen recorded $scans store.replay.scan spans for $segments segment files" >&2
    exit 1
fi
rm -rf out/trace-smoke.ptma out/coldstart.ptma

echo "ci: all green"
