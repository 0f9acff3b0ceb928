#!/usr/bin/env bash
# CI gate: build, test, format and lint the whole workspace.
# Run locally before pushing; the workflow runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier-1, exactly as ROADMAP.md writes it (the manifest is a virtual
# workspace, so this covers every member). Debug tests, default test
# threads: cargo stops at the first failing test binary, so a suite
# that is only green in release or single-threaded hides every suite
# after it (alloc_guard did, until its counters went per-thread).
echo "==> Tier-1: cargo build --release && cargo test -q"
cargo build --release && cargo test -q

# Tier-1 compiles the examples and never runs them. Run the two a
# newcomer runs first (release builds from the step above): both must
# finish, and quickstart's narrator — registered at the provider's
# `Peer` root beside a binding built around a bus of its own — must
# have heard the server either side of the messaging engine.
echo "==> examples run: quickstart (root listener hears both server phases), p2p_network"
quickstart_out="$(timeout 60 cargo run -q --release -p wsp-examples --bin quickstart)"
grep -q "server Inbound for Echo" <<<"$quickstart_out"
grep -q "server Outbound for Echo" <<<"$quickstart_out"
timeout 60 cargo run -q --release -p wsp-examples --bin p2p_network >/dev/null

# The telemetry registry is a leaf: every layer records into it, so it
# may depend on no other wsp-* crate, or the lower layers could not.
echo "==> wsp-telemetry is a leaf of the crate graph"
telemetry_deps="$(cargo tree --offline -p wsp-telemetry -e normal --prefix none)"
if grep '^wsp-' <<<"$telemetry_deps" | grep -v '^wsp-telemetry '; then
  echo "wsp-telemetry depends on the wsp-* crates above" >&2
  exit 1
fi

# The discovery plane sits below the WSPeer core: it takes its breakers
# from wsp-http and its telemetry from wsp-telemetry, so the HTTP/UDDI
# binding in wsp-core can come to depend on wsp-registry.
echo "==> wsp-registry does not depend on wsp-core"
if cargo tree --offline -p wsp-registry -e normal --prefix none | grep '^wsp-core '; then
  echo "wsp-registry depends on wsp-core" >&2
  exit 1
fi

# Time in one place: the shells read time only through
# wsp_telemetry::clock, so a virtual clock can stand in for the wall
# clock in a test, and one `Deadline` owns the budget rule.
echo "==> no production clock read outside wsp_telemetry::clock"
scripts/clock_sites.sh

# Lines of Rust per crate is a tracked number (ROADMAP aim 2): print it
# with every run, so a PR's before/after is two CI logs.
echo "==> lines of Rust per crate (scripts/loc.sh)"
scripts/loc.sh

# bench/ is its own workspace and read-only to most PRs, so nothing
# above compiles it: an API removal that breaks the benchmark would
# otherwise surface in the benchmark pipeline, not here. `manifest`
# builds it and prints the workload list without running anything.
# The build rewrites bench/Cargo.lock — among other things it adds a
# `wsp-telemetry` entry, which that lockfile predates —; put it back,
# and never commit the rewritten one.
echo "==> wspeer-bench builds against this workspace (bench/run.sh manifest)"
bench/run.sh manifest >/dev/null
git checkout -- bench/Cargo.lock

# Fault-injection matrix under two fixed seeds: the suite itself checks
# bit-reproducibility per seed; running a second seed (release, so the
# threaded watchdog timings are realistic) guards against tuning the
# resilience layer to one lucky point in seed space.
echo "==> fault injection matrix (seed 2005, debug)"
WSP_FAULT_SEED=2005 cargo test -q -p wsp-integration-tests --test fault_injection

echo "==> fault injection matrix (seed 7, release)"
WSP_FAULT_SEED=7 cargo test -q --release -p wsp-integration-tests --test fault_injection

# Overload smoke: the admission/deadline/drain suite runs over real
# sockets, then the simulated 4x-overload scenarios (shed-vs-serve
# split, backoff-beats-hammering, bit-reproducibility) are pinned under
# the same two fixed seeds as the fault matrix above so a regression in
# the shedding path cannot hide behind seed luck.
echo "==> overload smoke (admission control, deadlines, graceful drain)"
cargo test -q -p wsp-integration-tests --test overload

echo "==> overload matrix (seed 2005 / seed 7)"
WSP_FAULT_SEED=2005 cargo test -q -p wsp-integration-tests --test fault_injection http_overload
WSP_FAULT_SEED=7 cargo test -q -p wsp-integration-tests --test fault_injection http_overload

# Telemetry smoke-check: deploys a service on the container-less host,
# invokes it over real HTTP, and scrapes /metrics — counters,
# histograms, pool/dispatcher gauges and correlated trace lines must
# all be present (plus the fault-run reconstruction test). Every series
# comes from the one registry, and each layer owns its own (the buffer
# pool's, the reactor's, the advert cache's — DESIGN.md §8). The
# exposition test holds the page's shape against callers: a tenant or
# service name sent over either gateway front never adds a line. The
# scrape test has a binary of its own: the trace section shows only the
# newest spans of the process-wide ring, which tests running beside it
# could fill.
echo "==> /metrics smoke check (telemetry integration suite + exposition)"
cargo test -q -p wsp-integration-tests --test telemetry --test metrics_route
cargo test -q -p wsp-integration-tests --test gateway tenant_and_service_names_cannot_forge_metrics_lines

# Wire-path guards (PR 5): the single-pass writer stays byte-identical
# to the vendored pre-PR-5 writer on every document family, and the
# buffer pool holds up under concurrency. `wire_bytes` also carries the
# P2PS reader's oracle, run again in release below.
echo "==> wire-byte identity + pool concurrency"
cargo test -q -p wsp-integration-tests --test wire_bytes --test bufpool

# Block kernels: every per-byte scan of the codecs (tokenizer text and
# attribute values, the expander's `&` and `;`, both escapers, the HTTP
# head scan) is `wsp_xml::scan`'s 16-byte classifier, which has two
# bodies — SSE2 on x86_64, a two-word exact zero-byte test everywhere
# else — and the scans index by the masks it returns. Long input is
# walked a 64-byte window (four blocks) at a time: the escapers from
# 128 bytes on, the expander from its first `&`, with fixed-width run
# copies; shorter input and the last stretch take the block loops.
# Tier-1 ran the unit tests, the block-edge and window oracles (both
# bodies, every needle at every offset), the every-offset/oracle
# properties, the long-input properties past the 128-byte cutover and
# the reader's byte soup with overflow checks on; run them again
# without, as they ship.
echo "==> wsp-xml kernels: unit + scan_edges + prop_escape + byte soup (release)"
cargo test -q --release -p wsp-xml --lib --test scan_edges --test prop_escape --test byte_soup

# Byte-scanning tokenizer and fronted interner (PR 23): positions are
# byte arithmetic and every slice is taken between two of them, so the
# old reader is run beside the new one on whole and damaged documents
# once more without overflow checks, as it ships; the vocabulary test
# rides along because the front cache's slot function is the same kind
# of arithmetic and it needs a process of its own.
echo "==> wsp-xml read path: reader oracle + seeded vocabulary (release)"
cargo test -q --release -p wsp-integration-tests --test reader_oracle --test vocabulary

# Typed codec: every SOAP envelope, invocation, registry and P2PS
# document is read off the pull reader by its one reader and written
# from values into bytes; `Envelope::from_xml`, the tree a listener is
# shown, is that reader's view. The writers must be the tree writers'
# bytes (and the stream writer, replaying any generated tree under any
# preferred prefixes, the tree writer's); the readers are held to their own oracle — read(write(v)) ==
# v, and a document they accept, whole, damaged at every offset,
# reshaped or soup, written back is the same tree (or refused by the
# rule named for its shape). Tier-1 ran this with overflow checks on
# (the readers slice the input by offsets they computed); run it again
# without, as it ships. The allocation guard below carries the budgets
# of a whole invoke (89 over HTTP, 14 of them the server's, 98 over
# P2PS; a 16 KiB echo copies its payload 3 times), of the registry
# plane (an exact-name locate: 10 in process, 65 over HTTP; a republish
# through three replicas: 43; a binding's locate of an interface it
# holds, over HTTP: 87), of a gateway response-cache hit (1) and of a
# warm machine step in its shell (0: breaker, keyed admission, drain).
echo "==> typed codec: one reader per vocabulary, held to its oracle (release)"
cargo test -q --release -p wsp-integration-tests --test typed_codec
cargo test -q --release -p wsp-soap --test prop_envelope
cargo test -q --release -p wsp-integration-tests --test wire_bytes pipe_data::
cargo test -q --release -p wsp-p2ps --test prop_wire
cargo test -q --release -p wsp-xml --test roundtrip stream_writer

# The byte readers at the socket's edge: `HeadScan` over any
# split of soup finds the body where one scan of the whole does, and
# `frame_len` refuses a declared length past `MAX_BODY_LEN` instead of
# reserving it; the P2PS frame reader decodes a stream split anywhere as
# it decodes it whole and survives soup. Release, as they ship.
echo "==> socket-edge byte soup: HTTP heads and P2PS frames (release)"
cargo test -q --release -p wsp-http --test byte_soup
cargo test -q --release -p wsp-http --lib a_declared_length_past_the_bound
cargo test -q --release -p wsp-p2ps --lib frame_reader_reads_any_split

echo "==> allocation-regression guard (release)"
cargo test -q --release -p wsp-integration-tests --test alloc_guard

# Population-scale smoke (PR 7): the seed-sweep tier's non-ignored
# subset — a 100k-peer flash crowd asserted bit-identical across two
# runs plus partition-heal and straggler smokes — under two fixed seeds
# in release. The whole subset runs in seconds; `timeout` enforces the
# 60 s wall-clock budget the E14 acceptance bar promises. The full
# 8-seed sweeps are `#[ignore]`d (run with `-- --ignored`).
echo "==> population-scale smoke (sim_scale, seed 2005 / seed 7, release)"
WSP_FAULT_SEED=2005 timeout 300 cargo test -q --release -p wsp-integration-tests --test sim_scale
WSP_FAULT_SEED=7 timeout 300 cargo test -q --release -p wsp-integration-tests --test sim_scale

# E14 artifact: sim events/sec, peak peer count and per-scenario
# digests, for the CI artifact trail (quick mode: 100k-peer ladder).
# Like the other e14-e17 bins it writes under target/, so a CI run
# leaves the tree clean.
echo "==> E14 artifact (target/BENCH_E14.json)"
cargo run -q --release -p wsp-bench --bin e14 -- quick

# Reactor core (PR 8; the only transport core since PR 17), so every
# socket-level suite above ran on it. Re-pin the E11
# admission/deadline/drain suite explicitly under both fixed seeds in
# release (the reactor's timer wheel drives the staged deadlines).
echo "==> reactor overload/drain matrix (seed 2005 / seed 7, release)"
WSP_FAULT_SEED=2005 timeout 300 cargo test -q --release -p wsp-integration-tests --test overload
WSP_FAULT_SEED=7 timeout 300 cargo test -q --release -p wsp-integration-tests --test overload

# Run-to-completion reactor (PR 15): every reactor thread reads,
# serves and writes, so connection state is touched from all of them.
# The reactor also runs its listener's drain lifecycle for both
# servers: it steps ConnClosed on every release of a served
# connection, and one lost step hangs `shutdown` until its deadline
# (the pipe server's has no other bound), hence `timeout`. Loop the
# 8-client mixed-traffic test (keep-alive, pipelined bursts, abrupt
# closes against 2 handler permits; one response per request,
# active_connections() back to 0) and the pipe server's suite (held
# frames across a drain, refused latecomers, idle reaping) ten times
# per seed in release.
echo "==> reactor stress (8 clients x mixed traffic + pipe_tcp, 10x, seed 2005 / seed 7, release)"
for seed in 2005 7; do
  WSP_FAULT_SEED=$seed timeout 300 bash -c 'for i in 1 2 3 4 5 6 7 8 9 10; do
    cargo test -q --release -p wsp-integration-tests --test overload eight_clients || exit 1
    cargo test -q --release -p wsp-p2ps --lib pipe_tcp || exit 1
  done'
done

# Deadline rounding: a budget goes out as the whole milliseconds left,
# rounded down, and a remnant under 1 ms is expired before send. When
# it was rounded up to 1 ms, the gateway could call its spare backend
# with the caller's deadline already gone, and the gateway's deadline
# test failed about once in 20 whole-binary runs. Thirty runs of that
# binary, in debug as Tier-1 runs it.
echo "==> gateway deadline forwarding (gateway suite, 30x, debug)"
timeout 900 bash -c 'for i in $(seq 1 30); do
  cargo test -q -p wsp-integration-tests --test gateway >/dev/null 2>&1 || { echo "run $i failed"; exit 1; }
done'

# Run-to-completion P2PS pipes: a peer's machine is stepped by its
# callers, by the sending peer's thread when the peer is idle (a
# delivery runs on the sender's stack, at most four deep, one message
# per claim) and by its inbox thread for whatever queued behind a
# delivery; deliveries reach the binding on whichever thread stepped
# it, and a worker sends the reply itself — a race here shows up as a
# hang or a reordering, not a wrong answer, hence `timeout`. The thread
# that delivers a response reads it once: it looks the call up by
# `RelatesTo` and settles it in the correlator under two short locks,
# the body read between them with no lock held. Twenty release runs of
# the suites that cross those threads: the driver's own tests (two
# senders' order at one receiver, the depth bound down a 64-peer chain,
# a panicking sink closing its inbox, left work waiting for the last
# claim), the correlator's, the 4-thread x 500 nested-invoke storm,
# scope, teardown and return-pipe checks and the one-CPU queued-share
# guard in lifecycle_p2ps, and the same application code over both
# bindings. A request its caller brought to an idle provider is served
# on the caller's thread in a worker's lent slot, so ten more runs of
# lifecycle_p2ps in debug, where a `debug_assert!` checks that the jobs
# running on a dispatcher's workers and its lent slots never outnumber
# its workers. A thread that holds a peer wakes nobody until it lets its
# last peer go: the dispatcher's one `wake` defers through the driver's
# `after_release`, so the dispatcher's unit tests run in the loop too,
# `wakes_given_inside_a_peer_claim_go_out_in_order_on_its_release`
# among them.
echo "==> P2PS threading stress (thread_driver + rpc + dispatch + lifecycle_p2ps + cross_binding, 20x, release; lifecycle_p2ps 10x, debug)"
timeout 900 bash -c 'for i in $(seq 1 20); do
  cargo test -q --release -p wsp-p2ps --lib thread_driver || exit 1
  cargo test -q --release -p wsp-p2ps --lib rpc || exit 1
  cargo test -q --release -p wsp-core --lib dispatch || exit 1
  cargo test -q --release -p wsp-integration-tests --test lifecycle_p2ps --test cross_binding || exit 1
done'
timeout 900 bash -c 'for i in $(seq 1 10); do
  cargo test -q -p wsp-integration-tests --test lifecycle_p2ps || exit 1
done'

# The dispatcher's waits: an idle worker, a waiter on a call and a
# flusher all park until the event that ends their wait (or their
# caller's own deadline), with no timed re-check behind them. A lost
# wake-up used to cost a 50 ms (workers) or 5 ms (waiters, drains)
# poll; now it hangs, hence `timeout`. Twenty release runs of the
# dispatcher's unit tests (helping waits, the push that wakes a
# helping waiter, backpressure, flush, drain-on-drop), the idle-workers
# target (idle workers, a timed wait, a timed flush: context switches
# counted) and the sync/async parity suite. Every shell's lock guards
# the effect buffer its steps reuse as well as the machine's state, so
# the shells' bisimulation against their machines rides along.
echo "==> dispatcher stress (dispatch + idle_workers + dispatch_core + machine_bisim, 20x, release)"
timeout 900 bash -c 'for i in $(seq 1 20); do
  cargo test -q --release -p wsp-core --lib dispatch || exit 1
  cargo test -q --release -p wsp-core --test idle_workers || exit 1
  cargo test -q --release -p wsp-integration-tests --test dispatch_core --test machine_bisim || exit 1
done'

# Locate from the record: a consumer that has verified an interface
# builds the next HTTP/UDDI service with it from the registry record,
# without `GET ?wsdl`. Release, as it ships: the rebuilt service equals
# the fetched one over generated interfaces, one fetch per interface,
# records their fetch contradicts never fill the cache, and the
# republish, failover and httpg promises of the lifecycle suite.
echo "==> located interfaces + HTTP/UDDI lifecycle (release)"
cargo test -q --release -p wsp-integration-tests --test located_interfaces --test lifecycle_http

# Graceful drain (PR 17): a connection admitted but not yet read when
# the drain lands used to be closed as idle and its request lost —
# about once in 150 runs of this test under load. The machine now
# tells the two apart (wsp-check proves it below); 200 release runs
# keep the shell honest.
echo "==> E11 graceful drain (200x, release)"
timeout 900 bash -c 'for i in $(seq 1 200); do
  cargo test -q --release -p wsp-bench --lib e11::tests::graceful_drain_completes_all_admitted_work >/dev/null 2>&1 || { echo "run $i failed"; exit 1; }
done'

# E15 connection density, quick mode: 2 000 keep-alive connections (the
# full 10k-connection table lives in EXPERIMENTS.md §E15). The e15 bin
# exits nonzero unless every target connection is held and served at
# no more than 1 KiB of resident memory each, so this stage is a gate,
# not just an artifact.
echo "==> E15 gate (target/BENCH_E15.json, quick)"
timeout 300 cargo run -q --release -p wsp-bench --bin e15 -- quick

# Model checking (PR 6): exhaustively explore every pure protocol
# machine (breaker, admission — one machine since PR 18, explored as a
# one-tenant host and as a two-tenant mediation tier — correlation,
# drain, RPC routing) plus the composed
# breaker×admission×correlation pipeline, checking the
# invariant suite on every reachable state and transition. Runs in well
# under a minute; on failure it prints the shortest counterexample
# trace. The shell↔machine lockstep properties ride in the normal
# test pass (tests/tests/machine_bisim.rs).
echo "==> wsp-check (exhaustive state-machine exploration)"
cargo run -q --release -p wsp-check

# Every least-code PR (ROADMAP item 4) is gated on the explored state
# spaces not moving. `--counts` prints one `name states transitions`
# line per configuration; COUNTS.txt is the checked-in copy, so a PR
# that moves a count has to move the file in the same diff.
echo "==> wsp-check counts match crates/wsp-check/COUNTS.txt"
cargo run -q --release -p wsp-check -- --counts | diff -u crates/wsp-check/COUNTS.txt -

# The simulator's counterpart: `e14 -- digests` prints one `scenario
# seed events digest` line per quick-mode E14 row for seeds 2005 and 7
# (no timings). The digest covers every dispatched event, so a change
# to the engine's event order, RNG order or drop accounting has to move
# E14_DIGESTS.txt in the same diff
# (`... --bin e14 -- digests > crates/wsp-bench/E14_DIGESTS.txt`).
echo "==> E14 digests match crates/wsp-bench/E14_DIGESTS.txt"
cargo run -q --release -p wsp-bench --bin e14 -- digests | diff -u crates/wsp-bench/E14_DIGESTS.txt -

# Discovery plane (PR 9): the replicated registry. The wsp-check run
# above already exhausts the VR-lite replication group and the lease
# machine; the mutation pass below re-runs every seeded mutant (the
# skip-log-catchup and truncate-to-own-commit replicas among them) and
# fails unless each one is condemned with a counterexample trace. Then
# the failover matrix:
# committed publishes must survive a primary crash, stale-epoch clients
# must complete after the versioned shard-map redirect over BOTH real
# bindings (HTTP and P2PS pipes), and lease-expiry traces must replay
# bit-identically per seed. Finally the E16 A/B artifact — the e16 bin
# exits nonzero if any committed publish is lost or sharded locate
# availability drops below 99% during the view change, so it is a gate.
echo "==> wsp-check mutation pass (seeded mutants must be condemned)"
cargo run -q --release -p wsp-check -- --mutants

echo "==> registry failover matrix (seed 2005 / seed 7)"
WSP_FAULT_SEED=2005 timeout 300 cargo test -q -p wsp-integration-tests --test registry_failover
WSP_FAULT_SEED=7 timeout 300 cargo test -q --release -p wsp-integration-tests --test registry_failover

# The plane's cost must not grow with its age (PR 20): exchanges per
# locate counted, merged results capped, no locate faulting on a record
# deleted under it, and — after 10 000 republishes, a member's absence
# and return, and a view change — every replica back to a handful of
# retained log slots. Logical facts only; release, like the matrix.
echo "==> registry read/write path + age flatness (release)"
timeout 300 cargo test -q --release -p wsp-integration-tests --test registry_plane

echo "==> E16 artifact (target/BENCH_E16.json, quick)"
timeout 300 cargo run -q --release -p wsp-bench --bin e16 -- quick

# Mediation gateway (PR 10): the admission machine's two-tenant
# fair-share configuration is exhausted by the wsp-check run above and
# its ignore-the-reserve mutant condemned by the mutation pass (the
# same machine and invariants a host's one-tenant configuration is
# held to). The gateway fault matrix
# re-runs the integration suite — byte-identical cache replays,
# invalidation-on-republish without waiting out the TTL, backend
# crash failover, total-loss route invalidation, registry view-change
# under cached maps, hot-tenant flood isolation over both fronts —
# under the two fixed seeds. The e17 bin exits nonzero unless the
# gateway clears 3x direct goodput on the cache-friendly mix (every
# hit byte-identical), the hot flood is shed at the edge, and the cold
# tenant's p99 stays within 2x its isolated baseline, so it is a gate.
echo "==> gateway fault matrix (seed 2005 / seed 7)"
WSP_FAULT_SEED=2005 timeout 300 cargo test -q -p wsp-integration-tests --test gateway
WSP_FAULT_SEED=7 timeout 300 cargo test -q --release -p wsp-integration-tests --test gateway

echo "==> E17 artifact (target/BENCH_E17.json, quick)"
timeout 300 cargo run -q --release -p wsp-bench --bin e17 -- quick

# Tier-1 compiles no doc links: a doc comment that links a method a
# change deleted, or a private item, only shows when rustdoc runs.
echo "==> rustdoc, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
