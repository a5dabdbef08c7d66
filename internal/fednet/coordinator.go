package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/jsonf"
	"digfl/internal/logio"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// Coordinator is the server side of the networked runtime: it owns the
// global model, the validation set, and the round loop, and serves the
// wire protocol to N participants. It implements hfl.RoundSource — Run
// drives an ordinary hfl.Trainer whose per-epoch local updates arrive over
// HTTP instead of from in-process dataset shards.
//
// Zero-valued fields mean: no reweighter, no aggregator override, no
// estimator (score endpoint disabled), no round deadline (each round waits
// for every active participant — appropriate only when participants are
// trusted to always report), no archive.
type Coordinator struct {
	// N is the expected participant count; Run blocks until all N joined.
	N int
	// Model is the global model prototype (the trainer clones it).
	Model nn.Model
	// Val is the server-side validation dataset.
	Val dataset.Dataset
	// Cfg holds the training hyperparameters. Cfg.Runtime.Sink also
	// receives the networked runtime's events: one NetRoundStart/End pair
	// per round, a NetRequest per wire request handled, and a NetTimeout
	// per participant that missed a round deadline.
	Cfg hfl.Config
	// Reweighter, Aggregator and Observer are passed through to the
	// underlying trainer.
	Reweighter hfl.Reweighter
	Aggregator hfl.Aggregator
	Observer   hfl.Observer
	// Screen, when non-nil, vets every round's collected updates before
	// aggregation (hfl.Trainer.Screen semantics) — the second line of
	// defense behind the wire-level shape and finiteness rejections.
	Screen hfl.Screener
	// Quarantine, when non-nil, is wired as the trainer's reweighter (the
	// Reweighter field must then be nil) and its ban state is surfaced on
	// /v1/score. When Quarantine.Estimator is nil and Estimator is set,
	// the coordinator hands its estimator to the policy, so one φ stream
	// feeds the score endpoint and the bans; the estimator is then fed
	// through the quarantine's Weights call instead of the Observer.
	Quarantine *robust.Quarantine
	// Estimator, when non-nil, observes every epoch (under the
	// coordinator's lock) and backs the /v1/score endpoint, so
	// contribution evaluation runs server-side inside the live round loop.
	Estimator *core.HFLEstimator
	// Engine, when non-nil, is a pluggable contribution engine
	// (internal/shapley) that observes every epoch under the coordinator's
	// lock; /v1/score reports its name, running φ totals, and utility-eval
	// cost alongside the DIG-FL estimator's attribution. Engines need the
	// round buffer's raw deltas, so Engine cannot compose with Stream or
	// Edges; engine state is not journaled, so Engine cannot compose with
	// Journal or Recover.
	Engine shapley.Engine
	// RoundDeadline bounds how long a round stays open once broadcast.
	// Participants that have not reported when it expires are dropped from
	// the epoch (Epoch.Reported survivor semantics); 0 waits for everyone.
	RoundDeadline time.Duration
	// Archive, when non-nil, streams every closed epoch to this writer in
	// the logio HFL training-log format as the run progresses. Archives
	// need the raw deltas, so Archive cannot compose with Stream.
	Archive io.Writer
	// Stream, when non-nil, switches /v1/update ingest to fold-on-arrival:
	// each accepted delta is folded into the round's accumulator under the
	// coordinator's lock and released, so round memory is O(d + cohort)
	// instead of O(cohort·d) — the networked half of hfl.Trainer.Stream.
	// Streaming rounds carry DeltaDots to the estimator (ResourceSaving
	// mode only) and cannot compose with Aggregator, Reweighter,
	// Quarantine, Screen, or Archive, which all need the round buffer.
	Stream hfl.StreamAggregator
	// IngestScreen, when non-nil (requires Stream), norm-clips each
	// accepted update at ingest against the screen's running
	// median-of-norms as of the previous round, advancing the median at
	// round close — the streaming form of the buffered Screen defense
	// (robust.UpdateScreen.ClipNow). Wire-level shape and finiteness
	// rejections still happen first.
	IngestScreen *robust.UpdateScreen
	// LegacyJSON pins the coordinator to the digfl-fednet/1 JSON wire: join
	// negotiation never advertises the v2 binary codec and ?c=2 round polls
	// get JSON broadcasts. Ingest still accepts both encodings — a v2
	// client behind an upgraded edge keeps working. For rollbacks and
	// cross-version tests; leave false to let clients negotiate v2.
	LegacyJSON bool
	// Edges, when positive (requires Stream), switches streaming rounds
	// from per-participant /v1/update ingest to /v1/partial ingest from
	// this many edge sub-aggregators (EdgeAggregator): each edge folds its
	// cohort segment and the root merges the partials in edge order, so a
	// two-level tree reduces in the canonical hfl.MeanStream segmented
	// order and stays bit-identical to a flat streamed run with Seg =
	// edge width.
	Edges int
	// Journal, when non-nil, turns on the coordinator's write-ahead log
	// (digfl-fednet-wal/1, see wal.go): every commit the round's outcome
	// depends on is journaled before it is acknowledged, so a coordinator
	// that dies mid-round can be rebuilt bit-identically — hand the journal
	// to a fresh Coordinator's Recover, then Run. Each record is written
	// with exactly one Write call; wrap the writer if it needs locking.
	// Journaling cannot compose with Screen or IngestScreen (clipping
	// rewrites updates after the journaled bytes, so replay would diverge)
	// or a user-set Cfg.Resume (the journal owns the resume point).
	Journal io.Writer
	// FailoverGrace, when positive on an edge-mode run, arms the root's
	// re-solicitation path: once the round has been open longer than the
	// grace with a participant's slot still unfolded, that participant's
	// next-round poll (?i=) answers Resubmit, telling it to re-send its
	// round-T update directly to the root — its edge aggregator died after
	// acknowledging the update, so the root never saw it. 0 (the default)
	// disables re-solicitation and keeps the pre-failover semantics: a dead
	// edge's whole cohort misses the round at the deadline.
	FailoverGrace time.Duration
	// EdgeWidth overrides the edge cohort width of an edge-mode round's
	// segments: global index i belongs to edge i/EdgeWidth (the last edge
	// takes any overflow), an edge's partial may claim only its own members,
	// and a member's direct submission folds into its edge's segment. 0
	// means ceil(N/Edges), the TreeLoopback partition.
	EdgeWidth int
	// Async, when non-nil (requires Stream), switches the round loop to the
	// asynchronous buffered commit policy (hfl.AsyncConfig): each round's
	// cohort is the planner's fresh set, a scheduled-lagged arrival buffers
	// across epochs (acknowledged 202 buffered), a late update for an older
	// round is admitted into the buffer while it is within MaxStaleness
	// epochs (202 buffered) and refused with 409 too_stale beyond it, and
	// the epoch commits the quorum's worth of candidates at a deterministic
	// staleness discount. Async cannot compose with Edges, and a
	// buffered-only Aggregator (median, trimmed mean, the Krum family)
	// refuses with hfl.BufferedRuleError. Cfg.Faults supplies the lag
	// schedule and tie-break seed.
	Async *hfl.AsyncConfig

	mu      sync.Mutex
	changed chan struct{}
	joined  []bool
	nJoined int
	started bool
	round   *openRound
	aggs    map[int]*aggregateReply
	lastRes *hfl.RoundResult
	done    bool
	runErr  error

	// Crash-safety state: the journal's append side, the replayed state a
	// Recover call grafts into the first round, the coordinator incarnation
	// (1 for a fresh run, +1 per recovery), and the recovering flag that
	// 503s round traffic until the rejoin barrier refills.
	wal        *WAL
	rec        *walReplay
	instance   int
	recovering bool
	archStage  *bytes.Buffer

	// asyncPlan executes the Async commit policy; built by run, accessed
	// under mu (Round's schedule/commit, ingest's late admits, journalClose's
	// buffer snapshot).
	asyncPlan *hfl.AsyncPlanner
}

// openRound is the coordinator's mutable view of the in-flight round.
type openRound struct {
	t        int
	lr       float64
	theta    []float64
	deadline time.Time // zero = none
	slots    map[int]int
	order    []int
	closed   bool

	// The round's one fold: every accepted update — and in edge mode every
	// edge partial — commits into it exactly once. folded marks the
	// committed slots (the idempotence test of every round mode) and got
	// counts them (the close condition). valGrad is the round's
	// ∇loss^v(θ_{t-1}) (served to edges via ?vg=1), and norms collects
	// pre-clip update norms for IngestScreen.ObserveNorms.
	fold    hfl.Fold
	folded  []bool
	got     int
	valGrad []float64
	norms   []float64

	// Edge-mode state (Coordinator.Edges): the fold's partial-accepting
	// view, which edges' partials committed, and the open time that arms
	// FailoverGrace (zero when re-solicitation is off).
	seg       *hfl.SegmentFold
	delivered []bool
	openedAt  time.Time

	// Async-round state (Coordinator.Async): the epoch's arrival plan.
	// order/slots cover only the schedule's fresh cohort; the round closes
	// when every fresh member posted and the quorum cut happens in the
	// planner's Commit.
	async *hfl.AsyncSchedule
}

// initLocked lazily initializes the shared state; callers hold mu.
func (c *Coordinator) initLocked() {
	if c.changed == nil {
		c.changed = make(chan struct{})
		c.joined = make([]bool, c.N)
		c.aggs = make(map[int]*aggregateReply)
		if c.instance == 0 {
			c.instance = 1
		}
	}
}

// bcastLocked wakes every waiter; callers hold mu.
func (c *Coordinator) bcastLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// Run waits for all N participants to join, trains Cfg.Epochs rounds over
// the wire, and returns the result — bit-identical to the in-process
// trainer when every participant reports every round. On return (success
// or failure) the protocol state is marked done, so polling participants
// exit cleanly. Run must be called exactly once.
func (c *Coordinator) Run(ctx context.Context) (*hfl.Result, error) {
	if c.N <= 0 {
		return nil, errors.New("fednet: coordinator needs N > 0 participants")
	}
	if c.Model == nil {
		return nil, errors.New("fednet: coordinator needs a model prototype")
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, errors.New("fednet: coordinator already run")
	}
	c.started = true
	c.initLocked()
	c.mu.Unlock()

	res, err := c.run(ctx)
	if err == nil && c.wal != nil {
		// Advisory close marker: a later Recover on this journal reports
		// the run complete instead of resuming it.
		_ = c.wal.appendJSON(walRecord{Kind: walKindRunClose})
	}
	c.mu.Lock()
	c.done = true
	c.runErr = err
	if err == nil && c.Cfg.Epochs > 0 {
		agg := &aggregateReply{State: StateClosed, T: c.Cfg.Epochs,
			Theta: tensor.Clone(res.Model.Params()), Final: true}
		if c.lastRes != nil && c.lastRes.Reported != nil {
			agg.Reported = c.lastRes.Reported
		}
		c.aggs[c.Cfg.Epochs] = agg
	}
	c.bcastLocked()
	c.mu.Unlock()
	return res, err
}

func (c *Coordinator) run(ctx context.Context) (*hfl.Result, error) {
	if c.Engine != nil {
		if c.Stream != nil {
			return nil, errors.New("fednet: Engine cannot compose with Stream — engines need the round buffer's raw deltas")
		}
		if c.Journal != nil || c.rec != nil {
			return nil, errors.New("fednet: Engine cannot compose with Journal or Recover — engine state is not journaled, so a recovery would replay a log gap")
		}
	}
	if c.Async != nil {
		if c.Stream == nil {
			return nil, errors.New("fednet: Async requires Stream (async commits are folded on acceptance, never buffered)")
		}
		if c.Edges > 0 {
			return nil, errors.New("fednet: Async cannot compose with Edges (edge partials pre-fold the cohort before the quorum cut)")
		}
		// The typed refusal precedes the generic Stream×Aggregator check so
		// callers can errors.As the buffered-rule incompatibility.
		if br, ok := c.Aggregator.(hfl.BufferedRule); ok && br.NeedsBuffer() {
			return nil, &hfl.BufferedRuleError{Rule: fmt.Sprintf("%T", c.Aggregator), Path: "Async"}
		}
		pl, err := hfl.NewAsyncPlanner(*c.Async, c.Cfg.Faults, c.Cfg.Runtime.Sink)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.asyncPlan = pl
		c.mu.Unlock()
	}
	if c.Journal != nil {
		if c.Screen != nil || c.IngestScreen != nil {
			return nil, errors.New("fednet: Journal cannot compose with Screen or IngestScreen (clipping rewrites updates after the journaled bytes)")
		}
		if c.Cfg.Resume != nil {
			return nil, errors.New("fednet: Journal owns the resume point; clear Cfg.Resume and use Recover")
		}
		c.mu.Lock()
		c.initLocked()
		c.wal = newWAL(c.Journal, c.Cfg.Runtime.Sink)
		inst := c.instance
		c.mu.Unlock()
		// Every incarnation opens the run: replay learns the restart count
		// and validates the shape before trusting any older record.
		if err := c.wal.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol,
			Instance: inst, N: c.N, Epochs: c.Cfg.Epochs, Params: c.Model.NumParams()}); err != nil {
			return nil, err
		}
	}

	// Join barrier: every round broadcast assumes the full population is
	// listening, so training starts only when all N slots are claimed.
	// A recovered coordinator holds this barrier too — its participants
	// see 503 recovering on every round poll until they re-join.
	for {
		c.mu.Lock()
		joined := c.nJoined
		ch := c.changed
		c.mu.Unlock()
		if joined == c.N {
			break
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("fednet: waiting for %d/%d participants: %w", joined, c.N, ctx.Err())
		}
	}

	cfg := c.Cfg
	cfg.Participants = c.N
	// Crash recovery: resume the trainer from the journal's last closed
	// epoch. The open round's commits (if the crash was mid-round) graft
	// into the first Round call. Note the recovered Result.Log carries only
	// post-recovery epochs — the journal checkpoints model, curve, and
	// estimator state, not raw per-epoch deltas.
	rec := c.rec
	if rec != nil && rec.lastClosed > 0 {
		cfg.Resume = &hfl.Checkpoint{Epoch: rec.lastClosed, Theta: rec.theta, ValLossCurve: rec.curve}
	}
	if c.asyncPlan != nil && rec != nil && len(rec.buffered) > 0 {
		// Reinstall the journaled carry-over buffer before the grafted round
		// re-derives its schedule: the buffer decides who is in flight.
		entries := make([]*hfl.AsyncEntry, 0, len(rec.buffered))
		for i, b := range rec.buffered {
			entries = append(entries, &hfl.AsyncEntry{Part: i, Origin: b.origin, Due: b.due, Delta: b.delta})
		}
		c.asyncPlan.SetBuffer(entries)
	}
	if c.wal != nil {
		// Journal every closed epoch before the next opens: the checkpoint
		// carries the exact state a recovery resumes from. A user
		// checkpoint hook still fires at its own cadence.
		userEvery, userFunc := cfg.CheckpointEvery, cfg.CheckpointFunc
		cfg.CheckpointEvery = 1
		cfg.CheckpointFunc = func(ck *hfl.Checkpoint) error {
			if err := c.journalClose(ck); err != nil {
				return err
			}
			if userFunc != nil && userEvery > 0 && ck.Epoch%userEvery == 0 {
				return userFunc(ck)
			}
			return nil
		}
	}
	if c.Stream != nil {
		if c.Aggregator != nil || c.Reweighter != nil || c.Quarantine != nil || c.Screen != nil {
			return nil, errors.New("fednet: Stream cannot compose with Aggregator, Reweighter, Quarantine, or Screen (they need the round buffer)")
		}
		if c.Archive != nil {
			return nil, errors.New("fednet: Stream cannot compose with Archive (the archive needs the raw deltas)")
		}
	} else {
		if c.IngestScreen != nil {
			return nil, errors.New("fednet: IngestScreen requires Stream (buffered rounds use Screen)")
		}
		if c.Edges > 0 {
			return nil, errors.New("fednet: Edges requires Stream (edge partials are pre-folded)")
		}
	}
	reweighter := c.Reweighter
	estimatorObserves := c.Estimator != nil
	if c.Quarantine != nil {
		if c.Reweighter != nil {
			return nil, errors.New("fednet: set Reweighter or Quarantine, not both")
		}
		if c.Quarantine.Estimator == nil && c.Estimator != nil {
			c.Quarantine.Estimator = c.Estimator
		}
		if c.Quarantine.Estimator == c.Estimator {
			// The quarantine's Weights call feeds the estimator; observing
			// again would double-count the epoch.
			estimatorObserves = false
		}
		// Weights mutates quarantine state read by /v1/score handlers, so
		// serialize it with the coordinator's lock.
		reweighter = &lockedReweighter{c: c, rw: c.Quarantine}
	}
	observer := c.Observer
	if estimatorObserves {
		est, user := c.Estimator, c.Observer
		observer = func(ep *hfl.Epoch) {
			c.mu.Lock()
			est.Observe(ep)
			c.mu.Unlock()
			if user != nil {
				user(ep)
			}
		}
	}
	if c.Engine != nil {
		// Engine φ state is read live by /v1/score, so observation happens
		// under the coordinator's lock, like the estimator's.
		eng, user := c.Engine, observer
		observer = func(ep *hfl.Epoch) {
			c.mu.Lock()
			eng.Observe(ep)
			c.mu.Unlock()
			if user != nil {
				user(ep)
			}
		}
	}
	if c.Archive != nil {
		var sw *logio.HFLWriter
		var err error
		if c.wal != nil {
			// Stage epochs in memory and flush to the real archive only
			// after the epoch's WAL commit: the journal, not the archive,
			// is the source of truth, and an epoch whose close record tore
			// must not reach the archive (its replay re-runs the epoch and
			// would archive it twice).
			c.archStage = &bytes.Buffer{}
			if rec != nil && rec.lastClosed > 0 {
				sw, err = logio.ResumeHFLWriter(c.archStage, c.Model.NumParams(), c.N, rec.lastClosed)
			} else {
				sw, err = logio.NewHFLWriter(c.archStage, c.Model.NumParams(), c.N)
			}
		} else {
			sw, err = logio.NewHFLWriter(c.Archive, c.Model.NumParams(), c.N)
		}
		if err != nil {
			return nil, fmt.Errorf("fednet: opening archive: %w", err)
		}
		user := observer
		observer = func(ep *hfl.Epoch) {
			// A poisoned archive must not abort training; the sticky error
			// surfaces through the writer's Err.
			_ = sw.WriteEpoch(ep)
			if user != nil {
				user(ep)
			}
		}
	}
	tr := &hfl.Trainer{
		Model: c.Model, Val: c.Val, Cfg: cfg,
		Reweighter: reweighter, Aggregator: c.Aggregator,
		Screen: c.Screen, Observer: observer, Rounds: c,
		Stream: c.Stream,
	}
	return tr.RunContext(ctx)
}

// lockedReweighter serializes a reweighter whose state is also read by the
// coordinator's HTTP handlers (the quarantine ban list).
type lockedReweighter struct {
	c  *Coordinator
	rw hfl.Reweighter
}

func (l *lockedReweighter) Weights(ep *hfl.Epoch) []float64 {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.rw.Weights(ep)
}

// Recover replays a write-ahead journal into this not-yet-run coordinator:
// the trainer resumes from the last journaled epoch close, the estimator
// and quarantine state reinstall from the same record, and the open
// round's committed updates (if the crash was mid-round) graft into the
// first Round call — so the recovered run is bit-identical to one that
// never crashed. Call it after the coordinator's fields are configured
// (the replay validates N, Epochs, and the model's parameter count) and
// before Run.
//
// Recover returns the number of journal bytes it consumed. A torn final
// record — the crash artifact — is skipped, not replayed; truncate the
// journal file to the returned length before handing its append side to
// Journal, so the next incarnation's records land on a clean prefix.
func (c *Coordinator) Recover(r io.Reader) (int64, error) {
	rep, err := replayWAL(r)
	if err != nil {
		return 0, err
	}
	if !rep.sawRunOpen {
		return 0, errors.New("fednet: WAL journal has no run_open record")
	}
	if rep.runClosed {
		return 0, errors.New("fednet: WAL journal records a completed run")
	}
	if rep.n != c.N || rep.epochs != c.Cfg.Epochs {
		return 0, fmt.Errorf("fednet: WAL journal is for n=%d epochs=%d, coordinator has n=%d epochs=%d",
			rep.n, rep.epochs, c.N, c.Cfg.Epochs)
	}
	if c.Model != nil && rep.params != c.Model.NumParams() {
		return 0, fmt.Errorf("fednet: WAL journal is for a %d-param model, coordinator has %d",
			rep.params, c.Model.NumParams())
	}
	if c.Estimator != nil && rep.est != nil {
		if err := c.Estimator.SetState(rep.est); err != nil {
			return 0, fmt.Errorf("fednet: reinstalling estimator state: %w", err)
		}
	}
	if c.Quarantine != nil && rep.quar != nil {
		if err := c.Quarantine.SetState(rep.quar); err != nil {
			return 0, fmt.Errorf("fednet: reinstalling quarantine state: %w", err)
		}
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return 0, errors.New("fednet: Recover must precede Run")
	}
	c.rec = rep
	c.instance = rep.instance + 1
	c.recovering = true
	c.mu.Unlock()
	obs.Emit(c.Cfg.Runtime.Sink, obs.Event{Kind: obs.KindRecover,
		T: rep.lastClosed + 1, N: int64(rep.records)})
	return rep.consumed, nil
}

// journalClose appends an epoch's close record — model, curve, estimator
// and quarantine state — then flushes the staged archive epochs the commit
// just made durable.
func (c *Coordinator) journalClose(ck *hfl.Checkpoint) error {
	rec := walRecord{Kind: walKindEpochClose, T: ck.Epoch,
		Theta: jsonf.Vec(ck.Theta), Curve: jsonf.Vec(ck.ValLossCurve)}
	c.mu.Lock()
	if c.Estimator != nil {
		rec.Estimator = toWalEst(c.Estimator.State())
	}
	if c.Quarantine != nil {
		rec.Quarantine = toWalQuar(c.Quarantine.State())
	}
	if c.asyncPlan != nil {
		// Snapshot the post-commit carry-over buffer: replay resolves each
		// entry's delta from the round's journaled frames, so the checkpoint
		// stays metadata-sized. The buffer is stable here — late admits are
		// gated on an open round, and the next round has not opened yet.
		for _, e := range c.asyncPlan.Buffer() {
			rec.Buffered = append(rec.Buffered, walBufEntry{Part: e.Part, Origin: e.Origin, Due: e.Due})
		}
	}
	c.mu.Unlock()
	if err := c.wal.appendJSON(rec); err != nil {
		return err
	}
	if c.archStage != nil && c.archStage.Len() > 0 {
		// Best-effort, like the unjournaled archive path: a poisoned
		// archive must not abort training — the journal holds the truth.
		_, _ = c.Archive.Write(c.archStage.Bytes())
		c.archStage.Reset()
	}
	return nil
}

// journalUpdate appends one accepted update as its canonical
// digfl-fednet/2 frame (JSON arrivals are re-encoded, so replay needs one
// decoder). Callers hold mu and must not acknowledge the update if the
// append fails.
func (c *Coordinator) journalUpdate(t, index int, delta []float64) error {
	if c.wal == nil {
		return nil
	}
	frame, err := CodecV2.EncodeUpdate(t, index, delta)
	if err != nil {
		return err
	}
	err = c.wal.Append(frame)
	tensor.PutBytes(frame)
	return err
}

// journalPartial is journalUpdate for an edge partial.
func (c *Coordinator) journalPartial(t, edge int, indices []int, sum, dots []float64) error {
	if c.wal == nil {
		return nil
	}
	frame, err := CodecV2.EncodePartial(t, edge, indices, sum, dots)
	if err != nil {
		return err
	}
	err = c.wal.Append(frame)
	tensor.PutBytes(frame)
	return err
}

// Round implements hfl.RoundSource: it broadcasts the round to the polling
// participants, waits until every active participant has reported or the
// round deadline expires, and returns the collected deltas in active
// order. A deadline expiry degrades the epoch to the survivors.
func (c *Coordinator) Round(ctx context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	sink := c.Cfg.Runtime.Sink
	r := &openRound{t: spec.T, lr: spec.LR, theta: spec.Theta, valGrad: spec.ValGrad}
	roundDeadline := c.RoundDeadline
	if c.Async != nil && c.Async.Deadline > 0 {
		// The async deadline is a real-failure safety valve only: a
		// deterministic run closes every round by arrival count, never by
		// timer (the schedule's every fresh member posts during its round).
		roundDeadline = c.Async.Deadline
	}
	var deadlineCh <-chan time.Time
	if roundDeadline > 0 {
		r.deadline = time.Now().Add(roundDeadline)
		timer := time.NewTimer(roundDeadline)
		defer timer.Stop()
		deadlineCh = timer.C
	}

	c.mu.Lock()
	c.initLocked()
	r.order = spec.Active
	if c.asyncPlan != nil {
		// Plan the epoch's arrivals. Schedule is a pure read of (buffer,
		// seed), so a grafted round re-derives the exact pre-crash plan —
		// the journaled epoch_open carries the full active set, and the
		// carry-over buffer was reinstalled before Run's first Round call.
		r.async = c.asyncPlan.Schedule(spec.T, spec.Active)
		r.order = r.async.Fresh
	}
	r.slots = make(map[int]int, len(r.order))
	for k, i := range r.order {
		r.slots[i] = k
	}
	r.folded = make([]bool, len(r.order))
	p, n := len(spec.Theta), len(r.order)
	switch {
	case c.Async != nil || c.Stream == nil || spec.ValGrad == nil:
		// Buffered and async rounds keep their deltas: the trainer's
		// plugins, or the planner's quorum cut at close, need them.
		r.fold = hfl.NewRetainFold(p, n)
	case c.Edges > 0:
		// Edge mode: segment e is edge e's cohort. Each edge folds its own
		// segment and posts it as one partial; a member whose edge died
		// reports directly and folds into the same segment here.
		order := r.order
		r.seg = hfl.NewSegmentFold(p, n, spec.ValGrad, func(k int) int { return c.edgeOf(order[k]) })
		r.fold = r.seg
		r.delivered = make([]bool, c.Edges)
		if c.FailoverGrace > 0 {
			r.openedAt = time.Now()
		}
	default:
		r.fold = c.Stream.NewFold(p, n, spec.ValGrad)
		if c.IngestScreen != nil {
			r.norms = make([]float64, 0, n)
		}
	}
	// WAL: a fresh round journals its open before it is visible to any
	// client; a recovered round (the previous incarnation already journaled
	// this open and some commits) grafts the replayed commits instead.
	rec := c.rec
	c.rec = nil
	grafted := rec != nil && rec.openT == spec.T
	if c.wal != nil && !grafted {
		if err := c.wal.appendJSON(walRecord{Kind: walKindEpochOpen,
			T: spec.T, Active: spec.Active}); err != nil {
			c.recovering = false
			c.mu.Unlock()
			return nil, err
		}
	}
	if grafted {
		c.graftLocked(r, rec)
	}
	// Recovery complete: the rejoin barrier refilled and the round is
	// republishing, so stop 503ing round traffic.
	c.recovering = false
	// Publish the previous round's aggregate: this round's broadcast theta
	// IS the post-aggregation model of round t-1.
	if spec.T > 1 {
		agg := &aggregateReply{State: StateClosed, T: spec.T - 1, Theta: tensor.Clone(spec.Theta)}
		if c.lastRes != nil && c.lastRes.Reported != nil {
			agg.Reported = c.lastRes.Reported
		}
		c.aggs[spec.T-1] = agg
	}
	c.round = r
	c.bcastLocked()
	c.mu.Unlock()
	obs.Emit(sink, obs.Event{Kind: obs.KindNetRoundStart, T: spec.T, N: int64(len(spec.Active))})
	start := obs.Start(sink)

	timedOut := false
	for !timedOut {
		c.mu.Lock()
		got := r.got
		ch := c.changed
		var walErr error
		if c.wal != nil {
			walErr = c.wal.Err()
		}
		c.mu.Unlock()
		if walErr != nil {
			// The journal is poisoned: an update the coordinator cannot
			// replay was refused its ack (the ingest dropped the
			// connection), and accepting more would fork the journaled
			// history from the applied one. Abort the run.
			c.mu.Lock()
			r.closed = true
			c.bcastLocked()
			c.mu.Unlock()
			return nil, walErr
		}
		if got == len(r.order) {
			break
		}
		select {
		case <-ch:
		case <-deadlineCh:
			timedOut = true
		case <-ctx.Done():
			c.mu.Lock()
			r.closed = true
			c.bcastLocked()
			c.mu.Unlock()
			return nil, ctx.Err()
		}
	}

	c.mu.Lock()
	r.closed = true
	fr, err := r.fold.Close()
	if err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("fednet: round %d: closing fold: %w", spec.T, err)
	}
	var missed []int
	for k, i := range r.order {
		if !r.folded[k] {
			missed = append(missed, i)
		}
	}
	// A degraded round names its reporters in active order; a full one
	// leaves Reported nil, as the trainer's fault-free epochs do.
	res := &hfl.RoundResult{Agg: fr.Sum, Dots: fr.Dots, Deltas: fr.Deltas}
	if len(fr.Slots) != len(r.order) || r.async != nil {
		res.Reported = make([]int, len(fr.Slots))
		for j, s := range fr.Slots {
			res.Reported[j] = r.order[s]
		}
	}
	nAgg := len(fr.Slots)
	if r.async != nil {
		// Async close: hand the physical arrivals to the planner, which cuts
		// the quorum over them plus the due buffered entries, folds the
		// commit set at its staleness discounts, and re-buffers (or rejects)
		// the rest. A fresh member missing an arrival is possible only when
		// a real deadline fired.
		arrivals := make(map[int][]float64, nAgg)
		for j, i := range res.Reported {
			arrivals[i] = fr.Deltas[j]
		}
		ac, err := c.asyncPlan.Commit(spec.T, len(r.theta), c.Stream, r.valGrad, r.async, arrivals)
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("fednet: round %d: async commit: %w", spec.T, err)
		}
		res = &hfl.RoundResult{Reported: ac.Reported, Agg: ac.Agg, Dots: ac.Dots}
		nAgg = len(ac.Reported)
	}
	if r.norms != nil {
		c.IngestScreen.ObserveNorms(r.norms)
	}
	c.lastRes = res
	c.bcastLocked()
	c.mu.Unlock()
	for _, i := range missed {
		obs.Emit(sink, obs.Event{Kind: obs.KindNetTimeout, T: spec.T, Part: i})
	}
	obs.Emit(sink, obs.Event{Kind: obs.KindNetRoundEnd, T: spec.T,
		N: int64(nAgg), Dur: obs.Since(sink, start)})
	return res, nil
}

// graftLocked reinstalls a replayed journal's open-round commits into a
// freshly built round: the restarted coordinator resumes mid-round with
// every acknowledged update already committed, so clients that saw an ack
// never recompute and the closed round is bit-identical to an
// uninterrupted one. The fold's state is a pure function of the committed
// set, and the journal holds each committed slot exactly once, so the
// commits replay through the ingest path's commit calls in any order. An
// async round's late admits re-enter the planner's buffer after Schedule,
// which must see the pre-admit buffer the epoch opened with. Callers hold
// mu.
func (c *Coordinator) graftLocked(r *openRound, rec *walReplay) {
	for i, la := range rec.lateAdmits {
		c.asyncPlan.Admit(i, la.origin, r.t, la.delta)
	}
	for e, p := range rec.partials {
		if slots, werr := c.partialSlotsLocked(r, e, p.indices); werr == nil {
			// Recover's shape validation precludes a refusal here.
			_ = c.commitPartialLocked(r, e, slots, p.sum, p.dots)
		}
	}
	for k, i := range r.order {
		if delta, ok := rec.updates[i]; ok && !r.folded[k] {
			_ = c.commitLocked(r, k, delta)
		}
	}
}

// commitLocked folds one accepted update into the round exactly once. Ingest
// calls it after journaling the update, WAL graft without the append.
// Callers hold mu and have checked that slot k is unfolded.
func (c *Coordinator) commitLocked(r *openRound, k int, delta []float64) error {
	if r.norms != nil {
		norm, clipped := c.IngestScreen.ClipNow(delta)
		r.norms = append(r.norms, norm)
		if clipped {
			obs.Emit(c.Cfg.Runtime.Sink, obs.Event{Kind: obs.KindUpdateClipped, T: r.t,
				Part: r.order[k], Value: norm})
		}
	}
	if err := addReleasing(r.fold, k, delta); err != nil {
		return err
	}
	r.folded[k] = true
	r.got++
	return nil
}

// addReleasing adds delta at slot and returns it to the tensor pool when
// the fold consumed it on the spot: one the fold parked or retains — or any
// delta of a fold that cannot report what it holds — stays off the pool.
func addReleasing(f hfl.Fold, slot int, delta []float64) error {
	pend, canPend := f.(interface{ Pending() int })
	before := 0
	if canPend {
		before = pend.Pending()
	}
	if err := f.Add(slot, delta); err != nil {
		return err
	}
	if canPend && pend.Pending() <= before {
		tensor.PutVec(delta)
	}
	return nil
}

// commitPartialLocked folds one edge partial — its slots already validated
// by partialSlotsLocked — exactly once, recycling the vectors when the
// fold consumed them on the spot. Callers hold mu.
func (c *Coordinator) commitPartialLocked(r *openRound, edge int, slots []int, sum, dots []float64) error {
	before := r.seg.Pending()
	if err := r.seg.AddPartial(slots, sum, dots); err != nil {
		return err
	}
	if r.seg.Pending() <= before {
		tensor.PutVec(sum)
		tensor.PutVec(dots)
	}
	for _, k := range slots {
		r.folded[k] = true
	}
	r.got += len(slots)
	r.delivered[edge] = true
	return nil
}

// edgeOf maps a global participant index to its edge-mode segment.
func (c *Coordinator) edgeOf(i int) int {
	width := c.EdgeWidth
	if width <= 0 {
		width = (c.N + c.Edges - 1) / c.Edges
	}
	return min(i/width, c.Edges-1)
}

// partialSlotsLocked maps an edge partial's member indices to slots,
// refusing a partial the fold must not take: a member outside the round or
// the edge's segment, indices out of slot order (edge cohorts are
// contiguous slot ranges), or a slot already folded. The last is the
// exactly-once rule — a member that failed over and reported directly
// supersedes its edge's partial (409 stale_round, benign for a recovering
// edge). Callers hold mu.
func (c *Coordinator) partialSlotsLocked(r *openRound, edge int, indices []int) ([]int, *WireError) {
	slots := make([]int, len(indices))
	for j, i := range indices {
		k, active := r.slots[i]
		switch {
		case !active || c.edgeOf(i) != edge:
			return nil, &WireError{Status: http.StatusBadRequest,
				Msg: fmt.Sprintf("edge %d claims participant %d outside its active cohort", edge, i)}
		case r.folded[k]:
			return nil, &WireError{Status: http.StatusConflict, Code: CodeStaleRound,
				Msg: fmt.Sprintf("participant %d already folded into round %d", i, r.t)}
		case j > 0 && k <= slots[j-1]:
			return nil, &WireError{Status: http.StatusBadRequest,
				Msg: fmt.Sprintf("edge %d indices out of slot order", edge)}
		}
		slots[j] = k
	}
	return slots, nil
}

// Handler returns the coordinator's wire-protocol handler, mountable on
// any http.Server (or httptest server). Safe to call before Run; requests
// arriving before the run starts simply wait.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("GET /v1/round", c.handleRound)
	mux.HandleFunc("POST /v1/update", c.handleUpdate)
	mux.HandleFunc("POST /v1/partial", c.handlePartial)
	mux.HandleFunc("GET /v1/aggregate", c.handleAggregate)
	mux.HandleFunc("GET /v1/score", c.handleScore)
	sink := c.Cfg.Runtime.Sink
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Every response carries the coordinator incarnation, so a client
		// detects a restart from any reply — not just a join.
		c.mu.Lock()
		c.initLocked()
		inst := c.instance
		c.mu.Unlock()
		w.Header().Set(instanceHeader, strconv.Itoa(inst))
		if sink == nil {
			mux.ServeHTTP(w, req)
			return
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindNetRequest, N: 1})
		cr := &countingReader{rc: req.Body}
		req.Body = cr
		cw := &countingWriter{ResponseWriter: w}
		mux.ServeHTTP(cw, req)
		obs.Emit(sink, obs.Event{Kind: obs.KindNetBytesRx, N: cr.n})
		obs.Emit(sink, obs.Event{Kind: obs.KindNetBytesTx, N: cw.n})
	})
}

// countingReader counts request-body bytes actually read by a handler.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// countingWriter counts response-body bytes written by a handler.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr joinRequest
	if err := readJSON(req.Body, &jr); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if jr.Protocol != Protocol {
		writeError(w, http.StatusBadRequest, "protocol %q, want %q", jr.Protocol, Protocol)
		return
	}
	if jr.Index < 0 || jr.Index >= c.N {
		writeError(w, http.StatusBadRequest, "participant index %d outside [0,%d)", jr.Index, c.N)
		return
	}
	c.mu.Lock()
	c.initLocked()
	inst := c.instance
	// Idempotent: a retried join (the first reply was lost) succeeds. Join
	// never answers 503 recovering — re-joining is how recovery completes.
	if !c.joined[jr.Index] {
		c.joined[jr.Index] = true
		c.nJoined++
		c.bcastLocked()
	}
	c.mu.Unlock()
	steps := c.Cfg.LocalSteps
	if steps < 1 {
		steps = 1
	}
	// Codec negotiation: pick the newest encoding the client accepts, v1
	// JSON when it offered nothing (or LegacyJSON pins the run to v1).
	codec := Protocol
	if !c.LegacyJSON {
		for _, a := range jr.Accept {
			if a == ProtocolV2 {
				codec = ProtocolV2
				break
			}
		}
	}
	writeJSON(w, http.StatusOK, joinReply{
		Protocol: Protocol, N: c.N, Epochs: c.Cfg.Epochs, LocalSteps: steps,
		Codec: codec, Instance: inst, Prox: c.Cfg.Prox,
	})
}

// longPollWait bounds one server-side long-poll leg; clients re-poll on a
// pending reply.
const longPollWait = 10 * time.Second

func (c *Coordinator) handleRound(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	t, err := strconv.Atoi(q.Get("t"))
	if err != nil || t < 1 {
		writeError(w, http.StatusBadRequest, "bad round number %q", q.Get("t"))
		return
	}
	// ?i= lets a participant learn it is outside the round's cohort without
	// downloading theta or computing an update; ?vg=1 asks for the round's
	// validation gradient (edge sub-aggregators on streaming rounds).
	pollIdx, hasIdx := -1, false
	if s := q.Get("i"); s != "" {
		if pollIdx, err = strconv.Atoi(s); err != nil {
			writeError(w, http.StatusBadRequest, "bad participant index %q", s)
			return
		}
		hasIdx = true
	}
	wantVG := q.Get("vg") == "1"
	headerOnly := q.Get("h") == "1"
	// ?c=2 asks for the broadcast as a digfl-fednet/2 binary frame; the
	// response Content-Type tells the client what it got, so the pin to v1
	// under LegacyJSON needs no other signal.
	wantV2 := q.Get("c") == "2" && !c.LegacyJSON
	sink := c.Cfg.Runtime.Sink
	timer := time.NewTimer(longPollWait)
	defer timer.Stop()
	for {
		c.mu.Lock()
		c.initLocked()
		if c.done {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, roundReply{State: StateDone})
			return
		}
		if c.recovering {
			// The coordinator restarted and is replaying its journal; the
			// join barrier must refill before any round republishes. The
			// client re-joins and retries with backoff.
			c.mu.Unlock()
			writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
				"coordinator is recovering; re-join and retry")
			return
		}
		// A round at or past the requested one serves the request: a
		// participant that missed rounds must jump forward, never wait for
		// a round that already closed.
		if r := c.round; r != nil && !r.closed && r.t >= t {
			if hasIdx {
				if _, active := r.slots[pollIdx]; !active {
					c.mu.Unlock()
					writeJSON(w, http.StatusOK, roundReply{State: StateOpen, T: r.t, Excluded: true})
					return
				}
			}
			reply := roundReply{State: StateOpen, T: r.t, LR: jsonf.F64(r.lr)}
			if c.Async != nil {
				reply.Quorum = c.Async.Quorum
				reply.MaxStale = c.Async.MaxStaleness
			}
			if !headerOnly {
				reply.Theta = r.theta
			}
			// A header-only poll can still carry the validation gradient:
			// edges need ∇loss^v but not theta, so ?h=1&vg=1 skips the
			// model download entirely. Additive — old clients never combine
			// the two.
			if wantVG && r.valGrad != nil {
				reply.ValGrad = r.valGrad
			}
			if !r.deadline.IsZero() {
				if rem := time.Until(r.deadline); rem > 0 {
					reply.DeadlineMS = rem.Milliseconds()
				}
			}
			c.mu.Unlock()
			if bulk := reply.Theta != nil || reply.ValGrad != nil; bulk && wantV2 {
				frame := encodeRoundFrame(reply.T, float64(reply.LR), reply.DeadlineMS,
					reply.Theta, reply.ValGrad, reply.Quorum, reply.MaxStale)
				obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: reply.T, N: 1})
				writeBinary(w, frame)
				return
			} else if bulk {
				obs.Emit(sink, obs.Event{Kind: obs.KindCodecV1Frame, T: reply.T, N: 1})
			}
			writeJSON(w, http.StatusOK, reply)
			return
		}
		// Failover re-solicitation: a participant polling for round t
		// whose round t-1 slot is still unfolded past the grace gets told
		// to re-send its t-1 update directly to the root — its edge
		// aggregator acknowledged the update and then died with it.
		var graceTimer *time.Timer
		var graceCh <-chan time.Time
		if hasIdx && c.FailoverGrace > 0 {
			if r := c.round; r != nil && !r.closed && r.delivered != nil && r.t == t-1 {
				if k, active := r.slots[pollIdx]; active && !r.folded[k] {
					rem := time.Until(r.openedAt.Add(c.FailoverGrace))
					if rem <= 0 {
						c.mu.Unlock()
						writeJSON(w, http.StatusOK, roundReply{State: StateOpen, T: r.t, Resubmit: true})
						return
					}
					graceTimer = time.NewTimer(rem)
					graceCh = graceTimer.C
				}
			}
		}
		ch := c.changed
		c.mu.Unlock()
		select {
		case <-ch:
		case <-graceCh:
			// Re-evaluate: the slot may have folded in the meantime.
		case <-timer.C:
			if graceTimer != nil {
				graceTimer.Stop()
			}
			writeJSON(w, http.StatusOK, roundReply{State: StatePending})
			return
		case <-req.Context().Done():
			if graceTimer != nil {
				graceTimer.Stop()
			}
			return
		}
		if graceTimer != nil {
			graceTimer.Stop()
		}
	}
}

func (c *Coordinator) handleUpdate(w http.ResponseWriter, req *http.Request) {
	// Two-phase decode in both encodings: the header (round, index) decodes
	// first with the delta left raw, so stale, inactive, and duplicate
	// payloads are rejected before any float parse — a straggler's late
	// megabyte costs a JSON skip (or a header peek), not a parsed buffer the
	// 409 branch then drops on the floor.
	if isBinaryRequest(req) {
		body, err := readBodyPooled(req.Body, req.ContentLength)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		defer tensor.PutBytes(body)
		t, index, d, err := decodeUpdateHeader(body)
		if err != nil {
			writeCodedError(w, http.StatusUnprocessableEntity, CodeBadFrame, "%v", err)
			return
		}
		c.ingestUpdate(w, t, index, obs.KindCodecV2Frame, func() ([]float64, error) {
			return decodeFrameVec(body[updateHdrLen:], d), nil
		})
		return
	}
	var ui updateIngest
	if err := readJSON(req.Body, &ui); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ui.Protocol != Protocol {
		writeError(w, http.StatusBadRequest, "protocol %q, want %q", ui.Protocol, Protocol)
		return
	}
	c.ingestUpdate(w, ui.T, ui.Index, obs.KindCodecV1Frame, func() ([]float64, error) {
		var delta jsonf.Vec
		if err := json.Unmarshal(ui.Delta, &delta); err != nil {
			return nil, err
		}
		return delta, nil
	})
}

// ingestUpdate runs the codec-independent acceptance pipeline for one
// update: slot and duplicate checks from the header alone, then the bulk
// decode (only once the update is known to be wanted), then the shape and
// finiteness screens, then the journal append and the round's one commit.
// Vectors the round does not hold go back to the tensor pool.
func (c *Coordinator) ingestUpdate(w http.ResponseWriter, t, index int, frameKind obs.Kind, decode func() ([]float64, error)) {
	sink := c.Cfg.Runtime.Sink
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recovering {
		// Not stale — the round may still be open once recovery finishes.
		// The client re-joins and retries; its committed update then gets
		// the idempotent ack from the grafted slot.
		writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
			"coordinator is recovering; re-join and retry")
		return
	}
	r := c.round
	if c.asyncPlan != nil && r != nil && r.async != nil && !r.closed && t < r.t {
		// Async late path: an update for an older round reached an open
		// later one. Within the staleness window it is admitted into the
		// planner's buffer (202 buffered) and folds at a discount when due;
		// beyond the window it is refused as too stale.
		c.ingestLateLocked(w, r, t, index, decode)
		return
	}
	if r == nil || r.t != t || r.closed {
		// The round is gone — the participant straggled past the deadline
		// (or submitted for a round that is not open). Benign for a
		// well-behaved client: the epoch proceeded with the survivors.
		writeCodedError(w, http.StatusConflict, CodeStaleRound,
			"round %d is not open", t)
		return
	}
	k, active := r.slots[index]
	switch {
	case !active:
		writeJSON(w, http.StatusOK, updateReply{Reason: "not-active"})
		return
	case r.folded[k]:
		// Idempotent: a retried submission (the first ack was lost) is
		// acknowledged without overwriting — and without re-decoding the
		// duplicate payload. On an edge-mode round this also covers a
		// failover resubmission whose slot the edge's partial already
		// folded: exactly-once either way.
		c.ackUpdateLocked(w, r, index)
		return
	}
	delta, err := decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding delta: %v", err)
		return
	}
	obs.Emit(sink, obs.Event{Kind: frameKind, T: t, N: 1})
	switch {
	case len(delta) != len(r.theta):
		// An honest client can never produce a wrong-length delta from
		// this round's broadcast; refuse it outright.
		tensor.PutVec(delta)
		obs.Emit(sink, obs.Event{Kind: obs.KindUpdateRejected, T: t, Part: index})
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"delta has %d params, model has %d", len(delta), len(r.theta))
		return
	case !finiteVec(delta):
		tensor.PutVec(delta)
		obs.Emit(sink, obs.Event{Kind: obs.KindUpdateRejected, T: t, Part: index})
		writeCodedError(w, http.StatusUnprocessableEntity, CodeNonFinite,
			"delta carries non-finite values")
		return
	}
	// Journal before the fold consumes the delta: an update the journal
	// cannot replay must never be acknowledged, so a failed append drops the
	// connection without a reply (the client retries against the aborting
	// run and gets 503/stale, never a false ack).
	if err := c.journalUpdate(t, index, delta); err != nil {
		tensor.PutVec(delta)
		c.bcastLocked()
		panic(http.ErrAbortHandler)
	}
	if err := c.commitLocked(r, k, delta); err != nil {
		writeError(w, http.StatusInternalServerError, "folding update: %v", err)
		return
	}
	if r.delivered != nil {
		// Edge-mode direct submission: the member's edge died, so it fell
		// back to the root (transport failure, or the re-solicitation path)
		// and folded into its edge's segment.
		obs.Emit(sink, obs.Event{Kind: obs.KindEdgeFailover, T: t, Part: index})
	}
	c.bcastLocked()
	c.ackUpdateLocked(w, r, index)
}

// ackUpdateLocked acknowledges an accepted (or idempotently retried) update:
// 200 on a commit-candidate arrival, 202 buffered when the async schedule
// lags the participant's update into a later epoch. Callers hold mu.
func (c *Coordinator) ackUpdateLocked(w http.ResponseWriter, r *openRound, index int) {
	if r.async != nil && r.async.Lag[index] > 0 {
		writeJSON(w, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"})
		return
	}
	writeJSON(w, http.StatusOK, updateReply{Accepted: true})
}

// ingestLateLocked admits (or refuses) an async late update: one computed
// against closed round origin that physically arrived while round r.t is
// open. The delta is journaled as a D2UP frame at t = r.t followed by a
// stale_admit control record, so replay can tell it apart from the open
// round's fresh arrivals. Callers hold mu.
func (c *Coordinator) ingestLateLocked(w http.ResponseWriter, r *openRound, origin, index int, decode func() ([]float64, error)) {
	sink := c.Cfg.Runtime.Sink
	if s := r.t - origin; s > c.Async.MaxStaleness {
		obs.Emit(sink, obs.Event{Kind: obs.KindStaleReject, T: r.t, Part: index, N: int64(s)})
		writeCodedError(w, http.StatusConflict, CodeTooStale,
			"update for round %d is %d epochs stale (window %d)", origin, s, c.Async.MaxStaleness)
		return
	}
	if c.asyncPlan.InFlight(index) {
		// Idempotent: a retried admission (the first 202 was lost) — or a
		// second stale update racing the buffered one — leaves the buffer
		// untouched.
		writeJSON(w, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"})
		return
	}
	delta, err := decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding delta: %v", err)
		return
	}
	switch {
	case len(delta) != len(r.theta):
		tensor.PutVec(delta)
		obs.Emit(sink, obs.Event{Kind: obs.KindUpdateRejected, T: r.t, Part: index})
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"delta has %d params, model has %d", len(delta), len(r.theta))
		return
	case !finiteVec(delta):
		tensor.PutVec(delta)
		obs.Emit(sink, obs.Event{Kind: obs.KindUpdateRejected, T: r.t, Part: index})
		writeCodedError(w, http.StatusUnprocessableEntity, CodeNonFinite,
			"delta carries non-finite values")
		return
	}
	if err := c.journalUpdate(r.t, index, delta); err != nil {
		tensor.PutVec(delta)
		c.bcastLocked()
		panic(http.ErrAbortHandler)
	}
	if c.wal != nil {
		if err := c.wal.appendJSON(walRecord{Kind: walKindStaleAdmit,
			T: r.t, Part: index, Origin: origin}); err != nil {
			c.bcastLocked()
			panic(http.ErrAbortHandler)
		}
	}
	c.asyncPlan.Admit(index, origin, r.t, delta)
	writeJSON(w, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"})
}

// handlePartial ingests one edge sub-aggregator's cohort partial on an
// edge-mode streaming round (Coordinator.Edges > 0). Same two-phase decode
// discipline as /v1/update: stale and duplicate partials are rejected from
// the header before the bulk vectors are parsed.
func (c *Coordinator) handlePartial(w http.ResponseWriter, req *http.Request) {
	if isBinaryRequest(req) {
		body, err := readBodyPooled(req.Body, req.ContentLength)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		defer tensor.PutBytes(body)
		t, edge, indices, d, err := decodePartialHeader(body)
		if err != nil {
			writeCodedError(w, http.StatusUnprocessableEntity, CodeBadFrame, "%v", err)
			return
		}
		c.ingestPartial(w, t, edge, indices, obs.KindCodecV2Frame, func() (sum, dots []float64, err error) {
			sum, dots = decodePartialVecs(body, len(indices), d)
			return sum, dots, nil
		})
		return
	}
	var pi partialIngest
	if err := readJSON(req.Body, &pi); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if pi.Protocol != Protocol {
		writeError(w, http.StatusBadRequest, "protocol %q, want %q", pi.Protocol, Protocol)
		return
	}
	c.ingestPartial(w, pi.T, pi.Edge, pi.Indices, obs.KindCodecV1Frame, func() (sum, dots []float64, err error) {
		var s, d jsonf.Vec
		if err := json.Unmarshal(pi.Sum, &s); err != nil {
			return nil, nil, fmt.Errorf("decoding sum: %w", err)
		}
		if err := json.Unmarshal(pi.Dots, &d); err != nil {
			return nil, nil, fmt.Errorf("decoding dots: %w", err)
		}
		return s, d, nil
	})
}

// ingestPartial runs the codec-independent acceptance pipeline for one edge
// partial: slot membership and ordering are validated from the header's
// indices before the bulk vectors decode, then the partial commits into the
// round's fold as one segment item. Vectors the fold does not hold go
// straight back to the pool.
func (c *Coordinator) ingestPartial(w http.ResponseWriter, t, edge int, indices []int, frameKind obs.Kind, decode func() (sum, dots []float64, err error)) {
	sink := c.Cfg.Runtime.Sink
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recovering {
		writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
			"coordinator is recovering; re-join and retry")
		return
	}
	r := c.round
	if r == nil || r.t != t || r.closed {
		writeCodedError(w, http.StatusConflict, CodeStaleRound,
			"round %d is not open", t)
		return
	}
	if r.delivered == nil {
		writeError(w, http.StatusBadRequest,
			"round %d does not ingest edge partials", t)
		return
	}
	if edge < 0 || edge >= len(r.delivered) {
		writeError(w, http.StatusBadRequest, "edge %d outside [0,%d)", edge, len(r.delivered))
		return
	}
	if r.delivered[edge] {
		// Idempotent retry of a partial whose ack was lost.
		writeJSON(w, http.StatusOK, updateReply{Accepted: true})
		return
	}
	// Validate membership before decoding the vectors.
	slots, werr := c.partialSlotsLocked(r, edge, indices)
	if werr != nil {
		writeCodedError(w, werr.Status, werr.Code, "%s", werr.Msg)
		return
	}
	sum, dots, err := decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	obs.Emit(sink, obs.Event{Kind: frameKind, T: t, N: 1})
	reject := func() {
		tensor.PutVec(sum)
		tensor.PutVec(dots)
	}
	switch {
	case len(indices) > 0 && len(sum) != len(r.theta):
		reject()
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"partial sum has %d params, model has %d", len(sum), len(r.theta))
		return
	case len(dots) != len(indices):
		reject()
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"partial carries %d dots for %d members", len(dots), len(indices))
		return
	case !finiteVec(sum) || !finiteVec(dots):
		reject()
		writeCodedError(w, http.StatusUnprocessableEntity, CodeNonFinite,
			"partial carries non-finite values")
		return
	}
	if err := c.journalPartial(t, edge, indices, sum, dots); err != nil {
		reject()
		c.bcastLocked()
		panic(http.ErrAbortHandler)
	}
	if err := c.commitPartialLocked(r, edge, slots, sum, dots); err != nil {
		writeError(w, http.StatusInternalServerError, "folding partial: %v", err)
		return
	}
	c.bcastLocked()
	writeJSON(w, http.StatusOK, updateReply{Accepted: true})
}

// finiteVec reports whether every coordinate is finite.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func (c *Coordinator) handleAggregate(w http.ResponseWriter, req *http.Request) {
	t, err := strconv.Atoi(req.URL.Query().Get("t"))
	if err != nil || t < 1 {
		writeError(w, http.StatusBadRequest, "bad round number %q", req.URL.Query().Get("t"))
		return
	}
	timer := time.NewTimer(longPollWait)
	defer timer.Stop()
	for {
		c.mu.Lock()
		c.initLocked()
		if agg, ok := c.aggs[t]; ok {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, *agg)
			return
		}
		if c.done {
			c.mu.Unlock()
			writeError(w, http.StatusNotFound, "round %d has no aggregate (run ended)", t)
			return
		}
		if c.recovering {
			// A recovered coordinator does not republish pre-crash
			// aggregates (the next round's broadcast theta carries the
			// model forward); waiting here would hang past recovery.
			c.mu.Unlock()
			writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
				"coordinator is recovering; re-join and retry")
			return
		}
		ch := c.changed
		c.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			writeJSON(w, http.StatusOK, aggregateReply{State: StatePending})
			return
		case <-req.Context().Done():
			return
		}
	}
}

func (c *Coordinator) handleScore(w http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	if c.Estimator == nil && c.Engine == nil {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "coordinator has no estimator or engine attached")
		return
	}
	if c.recovering {
		c.mu.Unlock()
		writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
			"coordinator is recovering; re-join and retry")
		return
	}
	var reply scoreReply
	if c.Estimator != nil {
		attr := c.Estimator.Attribution()
		reply.Epochs = attr.Epochs
		reply.Totals = append([]float64(nil), attr.Totals...)
		reply.Engine = "dig-fl"
	}
	if c.Engine != nil {
		rep := c.Engine.Finalize()
		reply.Engine = rep.Name
		reply.EngineTotals = rep.Totals
		reply.EngineEpochs = rep.Epochs
		reply.EngineEvals = rep.Cost.UtilityEvals
		if c.Estimator == nil {
			reply.Epochs = rep.Epochs
		}
	}
	if c.Quarantine != nil {
		reply.Quarantined = c.Quarantine.Quarantined()
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
