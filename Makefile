# Build, test and verification entry points for the digfl module.
# (stdlib-only; no tool dependencies beyond the Go toolchain)

GO ?= go

.PHONY: build test bench verify verify-faults verify-net verify-adv verify-scale verify-wire verify-crash verify-engines verify-async verify-secure bench-json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# verify is the full pre-submit recipe referenced by README.md: vet every
# package, exercise every concurrent path under the race detector, run the
# suite in shuffled order (tests must not lean on their neighbours), and run
# the three goroutine-drain tests each on its own, where no earlier test can
# raise their baseline.
# Note: the -race run takes several minutes on small machines; scope it to
# touched packages while iterating ($(GO) test -race ./internal/<pkg>/).
DRAIN_TESTS = TestRoundLongPollShutdownReleasesWaiters TestAsyncShutdownMidQuorumReleasesWaiters TestRecoveringRetryAfterRecover

verify:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -shuffle=on -count=1 ./...
	for t in $(DRAIN_TESTS); do $(GO) test -count=1 -run "^$$t$$" ./internal/fednet/ || exit 1; done
	$(MAKE) verify-net
	$(MAKE) verify-adv
	$(MAKE) verify-scale
	$(MAKE) verify-wire
	$(MAKE) verify-crash
	$(MAKE) verify-engines
	$(MAKE) verify-async
	$(MAKE) verify-secure

# verify-faults runs the fault-injection suite: the determinism gate
# (TestFaultScheduleDeterministic runs the full dropout/straggler/crash/
# checkpoint/resume lifecycle twice over 3 fixed seeds and fails on any
# divergence in schedule, event trace, model bits, or attribution), the
# crash-resume bit-identity checks, and the injector/trainer/secure-retry
# fault tests across all packages. -count=1 defeats the test cache so the
# lifecycle actually re-executes.
verify-faults:
	$(GO) test -count=1 -run 'Fault|Crash|Dropout|Retr|Survivor|Checkpoint|Resume|Straggl|Backoff' \
		./internal/faults/ ./internal/hfl/ ./internal/vfl/ ./internal/logio/ ./internal/robust/ ./internal/experiments/

# verify-net runs the networked-runtime determinism gate: the loopback
# bit-identity test (3 participants over real HTTP vs the in-process
# trainer, across 3 fixed seeds, model/curve/archive/phi compared bit for
# bit), the straggler-deadline survivor equivalence, retry transparency
# under injected request loss, and cancellation promptness — plus go vet on
# the package, plus the exactly-once failover test (an update the root acked
# on an edge-mode round folds beside its edge's survivors-only partial).
# -count=1 defeats the test cache so the wire is actually exercised.
verify-net:
	$(GO) vet ./internal/fednet/
	$(GO) test -count=1 -run 'Loopback|LocalSource|Straggler|Retry|Cancel|Wire|Score|TestEdgeFailoverAckedUpdateFolded' ./internal/fednet/

# verify-scale runs the 100k-participant scaling gate: deterministic cohort
# sampling (3 seeds x rerun and crash/resume bit-identity, sampling composed
# with dropout faults), the streaming-aggregation equivalence tests
# (in-process streamed == flat-streamed loopback == two-level cohort tree,
# bit for bit across 3 seeds), the delta-retention release tests, and the
# bounded-memory gate (a 100k-participant streamed round must complete with
# total allocations bounded by the cohort, not the population). -count=1
# defeats the test cache so the memory measurement re-executes.
verify-scale:
	$(GO) vet ./internal/sampling/ ./internal/hfl/ ./internal/fednet/
	$(GO) test -count=1 -run 'Sample|Sampled|Cohort|Stream|MeanFold|Scale100k|Retain|Tree|TotalsOnly|LongPoll' \
		./internal/sampling/ ./internal/hfl/ ./internal/core/ ./internal/fednet/ ./internal/vfl/

# verify-wire runs the binary-wire gate: the frame round-trip tests, the
# cross-codec equivalence matrix (v1 clients x v2 coordinator and vice
# versa, plus tree roots, bit-identical to the in-process trainer across 3
# seeds), the malformed-frame rejection tests (truncated/oversized/NaN
# binary payloads answer 422, never a panic), a fuzz smoke pass over the
# three binary frame decoders, the pooled-buffer steady-state allocation
# test, and the bytes+allocs gate (binary must at least halve bytes on wire
# and allocations per round vs JSON on the streamed sampled benchmark).
# -count=1 defeats the test cache so the gate re-executes.
verify-wire:
	$(GO) vet ./internal/fednet/ ./internal/tensor/ ./internal/experiments/
	$(GO) test -count=1 -run 'Codec|Frame|Pool|SizeClass|WireCodec|WireDeterministic' \
		./internal/fednet/ ./internal/tensor/ ./internal/experiments/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeUpdateFrame -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodePartialFrame -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeRoundFrame -fuzztime 5s ./internal/fednet/

# verify-async runs the asynchronous-federation gate: the buffered-planner
# unit tests (K-of-N quorum cuts, staleness weights with w(0)=1 exact,
# aged-out rejection, deterministic tie-breaks, buffer snapshot round-trip),
# the loopback bit-identity test (async coordinator over real HTTP vs
# AsyncLocalSource, 202-buffered and 409-too_stale wire paths exercised),
# the mid-quorum WAL recovery test (buffered entries grafted back after a
# crash), the composition-refusal and goroutine-leak tests, and the -exp
# async acceptance study (at straggler rate 0.4 the async fold reaches the
# no-fault loss target while sync-drop does not, fresh path bit-identical
# to the streamed reference, rerun deterministic). -count=1 defeats the
# test cache so the gates re-execute.
verify-async:
	$(GO) vet ./internal/hfl/ ./internal/fednet/ ./internal/experiments/ ./internal/robust/
	$(GO) test -count=1 -run 'Async|PolyWeight|Stale|Buffered|FedProx' \
		./internal/hfl/ ./internal/fednet/ ./internal/experiments/ ./internal/robust/

# verify-secure runs the Paillier and secure-VFL gate: go vet on both
# packages, their full test suites (MulPlain over edge scalars on both sides
# of its sign branch, CRT decryption against the textbook λ/μ path, the
# fixed-point overflow and non-finite regression tests, serial/parallel
# bit-identity and the exact Paillier operation counts), and a
# one-iteration smoke pass over the MulPlain, DecryptCRT and Encrypt
# microbenches so they keep compiling and running. -count=1 defeats the
# test cache.
verify-secure:
	$(GO) vet ./internal/paillier/ ./internal/vfl/
	$(GO) test -count=1 ./internal/paillier/ ./internal/vfl/
	$(GO) test -count=1 -run '^$$' -bench 'MulPlain|DecryptCRT|Encrypt$$' -benchtime 1x ./internal/paillier/

# bench-json regenerates the perf-trajectory file for this revision: the
# wire benchmark (bytes on wire, allocs per round, per codec) plus the
# networked-runtime timings, APPENDED to $(BENCH_JSON) (entries from prior
# revisions are preserved), then diffed against the committed copy so the
# delta is visible before it lands.
BENCH_JSON ?= BENCH_10.json
bench-json:
	$(GO) run ./cmd/digfl-bench -exp wire -json $(BENCH_JSON)
	$(GO) run ./cmd/digfl-bench -exp net -json $(BENCH_JSON)
	$(GO) run ./cmd/digfl-bench -exp chaos -json $(BENCH_JSON)
	$(GO) run ./cmd/digfl-bench -exp engines -json $(BENCH_JSON)
	$(GO) run ./cmd/digfl-bench -exp async -json $(BENCH_JSON)
	git --no-pager diff --stat -- $(BENCH_JSON) || true

# verify-engines runs the contribution-engine gate: the cross-engine
# equivalence suite (truncation-disabled GTG/DPVS reproduce the exact
# per-round Shapley value to 1e-9, exact-parallel is bit-identical to
# exact, 3-seed checkpoint/resume bit-identity per engine, Lemma-3 zero
# rows under partial participation), the fednet loopback equivalence
# (every engine identical over the wire to the local trainer, /v1/score
# reporting, composition rejections), the accuracy-vs-cost acceptance
# test (gtg/dpvs recover the exact ranking at Kendall τ >= 0.9 on fewer
# utility evaluations than tmc), and the volatility determinism gate
# (the -exp volatility report rerun bit-identical across 3 seeds).
# -count=1 defeats the test cache so the gates re-execute.
verify-engines:
	$(GO) vet ./internal/shapley/ ./internal/experiments/ ./internal/fednet/ ./internal/metrics/
	$(GO) test -count=1 -run 'Engine|Truncation|Reported|AllDropped|Sampler|PooledValLoss|Kendall|Volatility|RunWrappers' \
		./internal/shapley/ ./internal/experiments/ ./internal/fednet/ ./internal/metrics/ ./internal/hfl/ ./internal/vfl/

# verify-crash runs the crash-safety gate: the deterministic chaos harness
# (seeded coordinator kills at epoch-open/mid-round/epoch-close with WAL
# recovery, plus an edge death mid-round with root failover, every
# interrupted run bit-identical to its uninterrupted reference across 3
# seeds and an uninterrupted journaled run indistinguishable from an
# unjournaled one), the WAL replay tests (streamed mid-round graft,
# torn-tail contract at every byte offset, 503-recovering rejoin with a
# goroutine-leak check), the fault-domain collision guard, and a fuzz
# smoke pass over the journal decoder (arbitrary bytes must error, never
# panic). -count=1 defeats the test cache so the kills re-execute.
verify-crash:
	$(GO) vet ./internal/fednet/ ./internal/experiments/ ./internal/faults/
	$(GO) test -count=1 -run 'WAL|Recover|Chaos|Failover|Rejoin|DomainsUnique' \
		./internal/fednet/ ./internal/experiments/ ./internal/faults/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/fednet/

# verify-adv runs the adversarial-robustness gate: the efficacy test (30%
# sign-flip attackers across 3 seeds — undefended run diverges >=2x while
# the defended run stays within 10% of clean, attackers rank below every
# honest participant by total phi, quarantine bans exactly the attackers,
# and the no-attack defended run is bit-identical to the baseline), the
# attack-simulator determinism tests, the screen/quarantine/Krum unit
# tests, the wire-level rejection tests, and the faults+attacks chaos
# property test. -count=1 defeats the test cache so the gate re-executes.
verify-adv:
	$(GO) vet ./internal/adversary/ ./internal/robust/
	$(GO) test -count=1 -run 'Adversar|Attack|Tamper|Quarantine|Screen|Krum|NormBound|Mutate|Poison|Fires|NonFinite|Reject' \
		./internal/adversary/ ./internal/robust/ ./internal/hfl/ ./internal/vfl/ ./internal/fednet/ ./internal/experiments/
