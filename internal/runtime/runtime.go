package runtime

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/wal"
)

// QueryID identifies a registered query within one Runtime.
type QueryID int64

// Errors returned by Runtime methods.
var (
	// ErrClosed is returned by Ingest/Register/Unregister after Close.
	ErrClosed = errors.New("runtime: closed")
	// ErrOutOfOrder is returned by Ingest for an event whose timestamp
	// precedes an already ingested one.
	ErrOutOfOrder = errors.New("runtime: event timestamps must be non-decreasing")
	// ErrUnknownQuery is returned by Unregister for an id that is not live.
	ErrUnknownQuery = errors.New("runtime: unknown query id")
)

// UnknownQueryError carries the id Unregister or Explain did not find. It
// matches ErrUnknownQuery under errors.Is.
type UnknownQueryError struct {
	ID QueryID
}

func (e *UnknownQueryError) Error() string {
	return fmt.Sprintf("runtime: unknown query id %d", e.ID)
}

// Is reports target == ErrUnknownQuery so errors.Is works unwrapped.
func (e *UnknownQueryError) Is(target error) bool { return target == ErrUnknownQuery }

// OutOfOrderError carries the regressing timestamp Ingest rejected and the
// stream time it regressed behind. It matches ErrOutOfOrder under
// errors.Is.
type OutOfOrderError struct {
	// Ts is the rejected event's timestamp; Last the largest timestamp
	// already ingested.
	Ts, Last int64
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("runtime: event timestamps must be non-decreasing: got ts %d after %d", e.Ts, e.Last)
}

// Is reports target == ErrOutOfOrder so errors.Is works unwrapped.
func (e *OutOfOrderError) Is(target error) bool { return target == ErrOutOfOrder }

// Config tunes a Runtime.
type Config struct {
	// Shards is the number of worker goroutines (and stream partitions).
	// Default GOMAXPROCS(0).
	Shards int
	// PartitionBy names the event attribute whose value routes an event to
	// a shard. Default "name" (the paper's stock symbol). Events lacking
	// the attribute hash the null value and all land in one shard.
	PartitionBy string
	// BatchSize is the number of events the ingest side accumulates
	// (across all shards) before flushing one batch per shard to the
	// workers. Default 256.
	BatchSize int
	// QueueLen is the per-worker input queue depth in batches; when a
	// worker falls behind, Ingest blocks once its queue is full
	// (backpressure). Default 8.
	QueueLen int
	// NaiveFanout puts every shard router in deliver-all mode: every event
	// is delivered to every registered engine, which evaluates its own leaf
	// filters. Kept for differential testing; the indexed router is
	// semantics-preserving, so production runs should leave this false.
	NaiveFanout bool
	// NoRangeDispatch reverts the router to generation-1 behavior: range
	// atoms (`attr > const` etc.) are interned as residual predicates and
	// evaluated once per distinct constant per event instead of compiling
	// into sorted-threshold tables. Semantics-preserving; exists for
	// differential testing and benchmarking the gen-2 win.
	NoRangeDispatch bool
	// NoSharing disables cross-query execution sharing: whole-query dedupe
	// (textually identical queries aliased onto one engine with match
	// fan-out) and shared-subplan prefixes (identical canonical class
	// prefixes materialized once per shard). Sharing is semantics-
	// preserving — match transcripts are byte-identical either way — so
	// this knob exists for differential testing and as an escape hatch.
	NoSharing bool
	// Overload selects the ingest-side behavior when a worker queue is
	// full. Default OverloadBlock (backpressure, never sheds).
	Overload OverloadPolicy
	// OverloadTimeout bounds the wait under OverloadBlockWithTimeout.
	// Default 50ms.
	OverloadTimeout time.Duration
	// Injector, when non-nil, threads the deterministic fault-injection
	// harness through every worker dispatch boundary and the merger's
	// emit path (chaos tests only; production leaves it nil and pays one
	// nil check per dispatch).
	Injector *faultinject.Injector
	// Durability, when non-nil, enables the write-ahead event log and
	// batch-boundary checkpoints (see DurConfig). Durable runtimes are
	// constructed with NewDurable, which also performs crash recovery;
	// New ignores this field.
	Durability *DurConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = stdruntime.GOMAXPROCS(0)
	}
	if c.PartitionBy == "" {
		c.PartitionBy = "name"
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 8
	}
	if c.OverloadTimeout <= 0 {
		c.OverloadTimeout = 50 * time.Millisecond
	}
	return c
}

// Stats aggregates runtime counters. Engine sums the per-shard engine
// snapshots of every query ever registered (PeakMemBytes sums per-engine
// peaks, an upper bound on the true simultaneous peak).
type Stats struct {
	Shards      int
	LiveQueries int
	// EngineGroups counts distinct physical engine groups: with whole-
	// query dedupe, textually identical queries share one group, so
	// LiveQueries - EngineGroups is the number of aliased (free-riding)
	// queries.
	EngineGroups int
	// SharedSubplans counts live shared-prefix producers (one logical
	// producer per prefix family; each is instantiated on every shard).
	// SharedPrefixConsumers is the number of engine groups reading them
	// instead of buffering and joining their prefix privately.
	SharedSubplans        int
	SharedPrefixConsumers int
	// QuarantinedQueries counts registered queries removed from execution
	// by a contained fault (not included in LiveQueries); Faults counts
	// fault records ever made, including quarantined queries since
	// unregistered. See Runtime.Faults for the records themselves.
	QuarantinedQueries int
	Faults             uint64
	// EventsShed counts events dropped at the ingest queue boundary by
	// the overload policy or an expired ingest/drain deadline, never
	// reaching their shard; ShedByShard breaks the count down per shard.
	EventsShed       uint64
	ShedByShard      []uint64
	EventsIngested   uint64
	MatchesDelivered uint64
	// EngineDeliveries counts (engine, event) deliveries across all
	// shards. Deliver-all mode (NaiveFanout) delivers every event to every
	// live engine; the indexed router only to engines with at least one
	// admitting class, so EngineDeliveries / EventsIngested is the
	// effective fan-out.
	EngineDeliveries uint64
	Engine           core.EngineStats
	// WALEnabled reports whether the write-ahead log is configured AND
	// still active (a WALDegrade error clears it); WALErrors counts WAL
	// failures observed, WALSuppressed the replayed matches withheld at or
	// below the recovered emit watermark, and WALTruncatedBytes the torn
	// tail recovery cut from the log. WAL aggregates the writer's own
	// counters (appends, fsyncs, segments, pruning).
	WALEnabled        bool
	WALErrors         uint64
	WALSuppressed     uint64
	WALTruncatedBytes int64
	WAL               wal.WriterStats
}

// registered tracks one live query: which engine group it belongs to, and
// whether a contained fault has quarantined it (the group is gone then,
// but the entry stays so Unregister of the dead id still works and a
// re-registration of the same query text gets a fresh group).
type registered struct {
	id          QueryID
	key         groupKey
	quarantined bool
	// src, coreCfg, regSeq and window feed checkpoint records when the
	// durability plane is on: the normalized query text, the engine config
	// it was registered with, the ingest seq at registration, and the
	// WITHIN window in ticks. Zero-valued when durability is off.
	src     string
	coreCfg core.Config
	regSeq  uint64
	window  int64
}

// groupKey identifies an engine group: the whole-query canonical
// fingerprint plus the exact engine configuration. Queries that are not
// canonicalizable (or registered with NoSharing) get a unique synthetic
// key, so every group — deduped or not — lives in the same registry.
type groupKey struct {
	fp  string
	cfg core.Config
}

// groupState is one engine group: the per-shard physical engines shared by
// every query aliased onto the group, plus the group's role in a prefix-
// sharing family.
type groupState struct {
	gid     int64
	members int
	regSeq  uint64         // ingest sequence stamp at group creation
	engines []*core.Engine // one per shard
	// prefixKey is the canonical prefix fingerprint when the group's query
	// has a shareable prefix ("" otherwise); consumer marks whether the
	// group reads the family's shared producer (vs running the prefix
	// privately as the family's first registrant).
	prefixKey string
	consumer  bool
}

// prefixState tracks one prefix-sharing family: how many live groups run
// the prefix privately (the family's first registrant), how many consume
// the shared producer, and the per-shard producers themselves (created
// when the first consumer registers).
type prefixState struct {
	prods     []*core.Subplan // one per shard; nil until a consumer exists
	prodID    int64
	prodInfo  *query.Info
	solos     int
	consumers int
}

// Runtime hosts many queries concurrently over one partitioned stream.
type Runtime struct {
	cfg      Config
	hashSeed maphash.Seed
	workers  []*worker
	mergeCh  chan mergeMsg
	merger   chan struct{} // closed when the merger goroutine exits

	ingested    atomic.Uint64
	delivered   atomic.Uint64
	engineDeliv atomic.Uint64
	shed        []atomic.Uint64 // per-shard overload-shed event counts

	// faults collects contained panics from workers and the merger; the
	// next mu-holding API call reaps them into the registry (workers
	// never take mu themselves).
	faults *faultSink

	// mu serializes Ingest, Register, Unregister and Close with each
	// other; the per-shard pending batches and registry below are guarded
	// by it. Workers and the merger never take it, and it is NOT held
	// while sending to worker queues — backpressure blocks only sendMu,
	// so Stats stays responsive while a slow shard catches up.
	mu         sync.Mutex
	closed     bool
	nextID     QueryID
	nextProdID int64 // negative, so producer ids never collide with group ids
	live       map[QueryID]*registered
	groups     map[groupKey]*groupState
	prefixes   map[string]*prefixState
	retired    core.EngineStats // folded counters of unregistered queries
	pending    [][]*event.Event
	// pendingSpare is the second outer batch array of the double buffer:
	// sendLocked swaps it in so a flush allocates neither the outer array
	// nor (thanks to event.GetBatch) the per-shard slices.
	pendingSpare [][]*event.Event
	nPend        int
	lastTs       int64
	lastSeq      uint64 // global arrival sequence stamp (see Ingest)
	// partKey resolves Config.PartitionBy to a schema position for shard;
	// guarded by mu like the pending batches.
	partKey event.Slot

	// sendMu serializes the worker-queue send phases. It is only ever
	// acquired while holding mu (and released after mu is dropped), which
	// keeps send phases in mu-decision order and makes it impossible for
	// a Register/Ingest send to race Close's channel close.
	sendMu sync.Mutex

	// Durability plane (all zero/nil when Config.Durability is off; see
	// durable.go). wal is the write-ahead log writer; walPend mirrors the
	// current flush's events in ingest order, appended as one batch record
	// before the workers see them. walActive clears when a WAL error
	// degrades the runtime to memory-only (WALDegrade policy). walSeed and
	// walHash switch shard() to the deterministic replayable hash.
	wal          *wal.Writer
	walPend      []*event.Event
	walActive    atomic.Bool
	walSeed      uint64
	walHash      bool
	walErrs      atomic.Uint64
	walFaultsMu  sync.Mutex
	walFaults    []WALFault
	walTruncated int64
	sinceCkpt    int

	// Merger-side exactly-once state: wmEnd/wmCount mirror the durable
	// emit watermark (read by checkpoint assembly); suppressed counts
	// replayed matches withheld at or below the recovered watermark. The
	// sup* fields are the recovery-time suppression cursor, written before
	// the merger can observe any match and then touched only on the merger
	// goroutine. crashing tells workers to skip the final flush (crash
	// simulation test hook).
	wmEnd      atomic.Int64
	wmCount    atomic.Uint64
	suppressed atomic.Uint64
	supEnd     int64
	supCount   uint64
	supSeen    uint64
	supActive  bool
	crashing   atomic.Bool
}

// New creates a Runtime and starts its worker and merger goroutines.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:      cfg,
		hashSeed: maphash.MakeSeed(),
		mergeCh:  make(chan mergeMsg, cfg.Shards*cfg.QueueLen+cfg.Shards),
		merger:   make(chan struct{}),
		live:     map[QueryID]*registered{},
		groups:   map[groupKey]*groupState{},
		prefixes: map[string]*prefixState{},
		pending:  make([][]*event.Event, cfg.Shards),
		lastTs:   math.MinInt64 / 2,
		shed:     make([]atomic.Uint64, cfg.Shards),
		faults:   newFaultSink(),
		partKey:  event.NewSlot(cfg.PartitionBy),
	}
	rt.pendingSpare = make([][]*event.Event, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		w := &worker{id: i, in: make(chan shardMsg, cfg.QueueLen), router: router.New(),
			delivered: &rt.engineDeliv, byID: map[int64]*unit{},
			faults: rt.faults, inj: cfg.Injector, crashing: &rt.crashing}
		if cfg.NaiveFanout {
			w.router.DeliverAll()
		}
		if cfg.NoRangeDispatch {
			w.router.DisableRangeDispatch()
		}
		rt.workers = append(rt.workers, w)
		go w.run(rt.mergeCh)
	}
	go rt.runMerger()
	return rt
}

// Register adds a query to every shard and returns its id. The per-shard
// engines are constructed synchronously, so a bad query or config fails
// here, before any goroutine sees it; emit (may be nil) then receives the
// query's matches from the merger goroutine in global end-time order. The
// query starts observing events ingested after Register returns.
//
// Unless Config.NoSharing is set, registration shares execution with
// already-live queries where provably safe:
//
//   - A query whose canonical fingerprint and engine configuration match a
//     live group is aliased onto that group's engines (whole-query
//     dedupe); its matches are fanned out from the shared engine, byte-
//     identical to what a private engine would have emitted.
//   - A query with a shareable canonical class prefix (core.SharedPrefixLen)
//     joins its prefix family: the family's first registrant runs the
//     prefix privately, and from the second registrant on, one shared
//     subplan per shard materializes the prefix once for all consumers.
func (rt *Runtime) Register(q *query.Query, cfg core.Config, emit func(*core.Match)) (QueryID, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, ErrClosed
	}
	if rt.faults.dirty.Load() {
		// Apply pending quarantines first, so dedupe can never alias the
		// new query onto a faulted group still lingering in the registry.
		rt.reapFaultsLocked(true)
	}
	rt.nextID++
	id, err := rt.registerLocked(rt.nextID, q, cfg, emit)
	if err == nil && rt.wal != nil && rt.walActive.Load() {
		// A checkpoint at every registration boundary keeps the durable
		// query set current; recovery re-registers at the recorded seq.
		if werr := rt.noteWALError(rt.writeCheckpointLocked()); werr != nil {
			// Fail-stop: the registration itself committed, but the runtime
			// has lost durability — surface it.
			return id, werr
		}
	}
	return id, err
}

// registerLocked is the Register body, taking the id to assign so recovery
// can re-register checkpointed queries under their original ids. Callers
// hold mu.
func (rt *Runtime) registerLocked(id QueryID, q *query.Query, cfg core.Config, emit func(*core.Match)) (QueryID, error) {
	ts := rt.lastTs   // captured under mu: the op closures run unlocked
	seq := rt.lastSeq // registration visibility barrier for shared readers

	key := groupKey{fp: fmt.Sprintf("!unique:%d", id), cfg: cfg}
	if !rt.cfg.NoSharing {
		if fp, ok := query.FingerprintQuery(q); ok {
			key.fp = fp
		}
	}

	// Whole-query dedupe: alias onto a live identical group — but only a
	// cold one. Aliasing is exact only when the host engines hold no
	// state: a warm engine's buffered window embeds pre-registration
	// events, so its future matches (and, under negation or closure, its
	// suppressions) can differ from what a fresh private engine would
	// produce. regSeq == lastSeq means no event was ingested since the
	// group registered, i.e. its engines are still empty — the common
	// register-the-fleet-then-ingest case always qualifies, and identical
	// queries registered back-to-back mid-stream still collapse.
	if gs := rt.groups[key]; gs != nil {
		if gs.regSeq == rt.lastSeq {
			gs.members++
			rt.live[id] = rt.newRegisteredLocked(id, key, q, cfg, seq)
			rt.sendLocked(func(int) shardMsg {
				return shardMsg{ts: ts, reg: &regOp{id: id, gid: gs.gid, emit: emit, seq: seq}}
			})
			return id, nil
		}
		// A live identical group exists but is warm: the new query gets
		// its own group under a synthetic key, so it never clobbers the
		// live group's registry entry.
		key.fp = fmt.Sprintf("!unique:%d", id)
	}

	// New group. Decide the prefix-sharing role first (without mutating
	// registry state), then construct engines — and producers if this
	// registration creates them — so errors leave the registry untouched.
	prefixKey := ""
	consumer := false
	var ps *prefixState
	var newProds []*core.Subplan
	var prodInfo *query.Info
	var prodID int64
	k := 0
	if !rt.cfg.NoSharing {
		if k = core.SharedPrefixLen(q, cfg); k > 0 {
			if pfp, ok := query.PrefixFingerprint(q, k); ok {
				prefixKey = pfp
				ps = rt.prefixes[pfp]
				consumer = ps != nil && (ps.prods != nil || ps.solos > 0 || ps.consumers > 0)
			}
		}
	}
	if consumer && ps.prods == nil {
		pq, err := query.PrefixQuery(q, k)
		if err != nil {
			return 0, fmt.Errorf("runtime: register: %w", err)
		}
		newProds = make([]*core.Subplan, rt.cfg.Shards)
		for i := range newProds {
			sp, err := core.NewSubplan(pq, cfg.UseHash)
			if err != nil {
				return 0, fmt.Errorf("runtime: register: %w", err)
			}
			newProds[i] = sp
		}
		prodInfo = pq.Info
	}

	engines := make([]*core.Engine, rt.cfg.Shards)
	sinks := make([]*matchSink, rt.cfg.Shards)
	for i := range engines {
		s := &matchSink{}
		var eng *core.Engine
		var err error
		if consumer {
			eng, err = core.NewEngineSharedPrefix(q, cfg, k, s.add)
		} else {
			eng, err = core.NewEngine(q, cfg, s.add)
		}
		if err != nil {
			return 0, fmt.Errorf("runtime: register: %w", err)
		}
		engines[i], sinks[i] = eng, s
	}

	// Commit registry state.
	if prefixKey != "" {
		if ps == nil {
			ps = &prefixState{}
			rt.prefixes[prefixKey] = ps
		}
		if consumer {
			if newProds != nil {
				rt.nextProdID--
				ps.prods, ps.prodID, ps.prodInfo = newProds, rt.nextProdID, prodInfo
			}
			ps.consumers++
			prodID = ps.prodID
			prodInfo = ps.prodInfo
		} else {
			ps.solos++
		}
	}
	gs := &groupState{gid: int64(id), members: 1, regSeq: seq, engines: engines, prefixKey: prefixKey, consumer: consumer}
	rt.groups[key] = gs
	rt.live[id] = rt.newRegisteredLocked(id, key, q, cfg, seq)

	prods := newProds
	routerInfo := q.Info
	if consumer {
		// A consumer's prefix admission is fully delegated to the shared
		// producer (which subscribes with exactly the prefix predicates),
		// and its shadow leaves would discard prefix deliveries anyway: a
		// suffix-only subscription keeps prefix-only events from touching
		// the consumer's engine at all. ClassInfo.Idx values are retained,
		// so admission masks still align with the full plan's class bits.
		routerInfo = &query.Info{Classes: q.Info.Classes[k:], Preds: q.Info.Preds}
	}
	// Flush buffered events first so the registration point is exact with
	// respect to Ingest order; the op rides the same send phase.
	rt.sendLocked(func(i int) shardMsg {
		op := &regOp{id: id, gid: gs.gid, info: routerInfo, eng: engines[i], sink: sinks[i],
			emit: emit, seq: seq, prodID: prodID}
		if prods != nil {
			op.prod, op.prodInfo = prods[i], prodInfo
		}
		return shardMsg{ts: ts, reg: op}
	})
	return id, nil
}

// Unregister removes a live query. When it is the last query of its engine
// group, the group's engines are dropped without a final flush: partial
// matches pending inside the window are discarded, while matches already
// emitted are still delivered. Events ingested before Unregister returns
// are still evaluated by the query. Unregistering a quarantined id
// succeeds and removes its registry entry (the fault record stays
// inspectable via Faults).
func (rt *Runtime) Unregister(id QueryID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	reg, ok := rt.live[id]
	if !ok {
		return &UnknownQueryError{ID: id}
	}
	if reg.quarantined {
		// The group (and all worker-side state) is already gone; only the
		// registry entry remains.
		delete(rt.live, id)
		return nil
	}
	ts := rt.lastTs // captured under mu: the op closure runs unlocked
	rt.sendLocked(func(int) shardMsg { return shardMsg{ts: ts, unreg: id} })
	delete(rt.live, id)
	gs := rt.groups[reg.key]
	gs.members--
	if gs.members == 0 {
		rt.dropGroupLocked(reg.key, gs)
	}
	if rt.wal != nil && rt.walActive.Load() {
		// Record the shrunken query set so recovery does not resurrect the
		// unregistered query.
		if werr := rt.noteWALError(rt.writeCheckpointLocked()); werr != nil {
			return werr
		}
	}
	return nil
}

// dropGroupLocked removes one engine group's registry entry: its engine
// counters are folded into the retired accumulator (so Stats stays
// cumulative without keeping dead engines — and their buffered windows —
// alive; workers may process a final in-flight batch after this snapshot,
// those last few events go uncounted) and its prefix-family bookkeeping is
// unwound. The family bookkeeping mirrors the workers': when the last
// consumer leaves, the per-shard producers are dropped (worker-side, by
// reader refcount); a later family member starts a fresh producer. Callers
// hold mu.
func (rt *Runtime) dropGroupLocked(key groupKey, gs *groupState) {
	for _, e := range gs.engines {
		rt.retired.Add(e.Snapshot())
	}
	delete(rt.groups, key)
	if gs.prefixKey == "" {
		return
	}
	ps := rt.prefixes[gs.prefixKey]
	if ps == nil {
		return
	}
	if gs.consumer {
		ps.consumers--
		if ps.consumers == 0 {
			ps.prods, ps.prodID, ps.prodInfo = nil, 0, nil
		}
	} else {
		ps.solos--
	}
	if ps.solos == 0 && ps.consumers == 0 {
		delete(rt.prefixes, gs.prefixKey)
	}
}

// Ingest feeds one event. Timestamps must be non-decreasing; the event's
// Seq is overwritten with a globally monotone arrival stamp here, and every
// shard engine then shares the event without copying (engines adopt
// pre-stamped sequence numbers and treat the event as immutable), so the
// caller must not reuse or mutate the event afterwards. Ingest blocks when
// a worker queue is full (backpressure) and is safe to call concurrently
// with Register/Unregister/Stats, though multi-producer ingest needs
// external ordering to keep timestamps monotone.
func (rt *Runtime) Ingest(ev *event.Event) error {
	return rt.ingest(nil, ev)
}

// ingest is the shared Ingest/IngestContext body; a nil ctx never expires.
func (rt *Runtime) ingest(ctx context.Context, ev *event.Event) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	if ev.Ts < rt.lastTs {
		return &OutOfOrderError{Ts: ev.Ts, Last: rt.lastTs}
	}
	rt.lastTs = ev.Ts
	rt.lastSeq++
	ev.Seq = rt.lastSeq
	if rt.wal != nil && rt.walActive.Load() {
		// Mirror the event in ingest order; the flush appends the mirror as
		// one write-ahead batch record before any worker sees the events.
		rt.walPend = append(rt.walPend, ev)
	}
	s := rt.shard(ev)
	if rt.pending[s] == nil {
		rt.pending[s] = event.GetBatch()
	}
	rt.pending[s] = append(rt.pending[s], ev)
	rt.nPend++
	rt.ingested.Add(1)
	if rt.nPend >= rt.cfg.BatchSize {
		return rt.sendLockedCtx(ctx, nil)
	}
	return nil
}

// shard routes an event by hashing its partition-key attribute. Durable
// runtimes use a deterministic hash under a persisted seed so recovery
// replays events to exactly the shards that saw them originally; the
// default random per-process maphash seed would scatter them. Callers
// hold mu.
func (rt *Runtime) shard(ev *event.Event) int {
	if rt.cfg.Shards == 1 {
		return 0
	}
	v := rt.partKey.Get(ev)
	if rt.walHash {
		return durableShard(v, rt.walSeed, rt.cfg.Shards)
	}
	var h maphash.Hash
	h.SetSeed(rt.hashSeed)
	switch v.Kind {
	case event.KindString:
		h.WriteString(v.S)
	case event.KindFloat:
		var b [8]byte
		u := math.Float64bits(v.F)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return int(h.Sum64() % uint64(rt.cfg.Shards))
}

// sendLocked flushes every shard's pending batch — an empty batch is a
// heartbeat carrying the current stream time, which keeps idle shards'
// watermarks advancing so the ordered merge never stalls on a cold
// shard — followed by one op message per worker when op is non-nil.
//
// It must be called with mu held and returns with mu held, but drops it
// for the blocking channel sends: only sendMu (acquired under mu, so
// send phases run in decision order) is held while backpressure bites.
func (rt *Runtime) sendLocked(op func(shard int) shardMsg) {
	_ = rt.sendLockedCtx(nil, op)
}

// sendLockedCtx is sendLocked with overload/deadline handling on the event
// flush: each shard's batch goes through sendBatch (which applies the
// overload policy and ctx), while op messages always block — registry
// operations are never shed. Returns the first context-expiry error; shard
// batches after an expiry are shed and counted, so one flush never
// half-blocks.
func (rt *Runtime) sendLockedCtx(ctx context.Context, op func(shard int) shardMsg) error {
	batches := rt.pending
	ts := rt.lastTs
	flush := rt.nPend > 0 || ts != math.MinInt64/2
	if !flush && op == nil {
		return nil
	}
	// Double-buffer the outer array: the spare is all-nil. It can be nil
	// itself when a second flush overlaps an in-flight send (mu is dropped
	// below); allocate then.
	if rt.pendingSpare != nil {
		rt.pending = rt.pendingSpare
		rt.pendingSpare = nil
	} else {
		rt.pending = make([][]*event.Event, rt.cfg.Shards)
	}
	rt.nPend = 0
	var wp []*event.Event
	if rt.wal != nil && len(rt.walPend) > 0 {
		wp, rt.walPend = rt.walPend, nil
	}

	rt.sendMu.Lock()
	rt.mu.Unlock()
	var err error
	var walErr error
	if wp != nil {
		// Write-ahead: the batch record must be durable (to the OS at
		// least) before any worker can act on the events. Under fail-stop
		// a failed append sheds the whole flush — the events were never
		// durable, so they must not be processed either.
		walErr = rt.wal.AppendBatch(wp)
	}
	failStop := walErr != nil && rt.cfg.Durability.OnWALError == WALFailStop
	for i, w := range rt.workers {
		if flush {
			if err != nil || failStop {
				rt.shedBatch(i, batches[i])
			} else if e := rt.sendBatch(ctx, w, i, shardMsg{events: batches[i], ts: ts}); e != nil {
				err = e
			}
		}
		if op != nil {
			w.in <- op(i)
		}
	}
	rt.sendMu.Unlock()
	rt.mu.Lock()
	// The batch slices now belong to the workers (returned to the shared
	// pool there); the outer array is reusable once its entries are nil.
	clear(batches)
	if rt.pendingSpare == nil {
		rt.pendingSpare = batches
	}
	if wp != nil {
		nWAL := len(wp)
		clear(wp)
		if rt.walPend == nil {
			rt.walPend = wp[:0]
		}
		if walErr != nil {
			if werr := rt.noteWALError(walErr); werr != nil && err == nil {
				err = werr
			}
		} else if rt.walActive.Load() {
			rt.sinceCkpt += nWAL
			if rt.sinceCkpt >= rt.cfg.Durability.CheckpointEvery {
				if werr := rt.noteWALError(rt.writeCheckpointLocked()); werr != nil && err == nil {
					err = werr
				}
			}
		}
	}
	return err
}

// Close flushes buffered events, final-flushes every engine (emitting all
// remaining matches, including trailing negations and closures), waits for
// the merger to drain, and stops all goroutines. It is idempotent; Ingest,
// Register and Unregister fail with ErrClosed afterwards.
func (rt *Runtime) Close() error {
	_, err := rt.closeCtx(nil)
	return err
}

// closeCtx is the shared Close/CloseContext body; a nil ctx never expires,
// so the drain is unbounded (plain Close).
func (rt *Runtime) closeCtx(ctx context.Context) (DrainReport, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		select {
		case <-rt.merger:
			return DrainReport{Complete: true}, nil
		case <-done:
			return DrainReport{}, ctx.Err()
		}
	}
	if rt.faults.dirty.Load() {
		// The worker channels are still open here, so the quarantine
		// broadcast goes through: shards drop faulted engines before the
		// final flush, keeping a quarantined query's partial matches out
		// of the drained output.
		rt.reapFaultsLocked(true)
	}
	rt.closed = true
	batches := rt.pending
	ts := rt.lastTs
	flush := rt.nPend > 0 || ts != math.MinInt64/2
	rt.pending = make([][]*event.Event, rt.cfg.Shards)
	rt.nPend = 0
	var wp []*event.Event
	if rt.wal != nil && len(rt.walPend) > 0 {
		wp, rt.walPend = rt.walPend, nil
	}
	shedBefore := rt.shedTotal()
	// Channels are closed inside the sendMu phase, after any in-flight
	// Register/Ingest send completes; closed (set under mu above) stops
	// later callers before they reach a send.
	rt.sendMu.Lock()
	rt.mu.Unlock()
	var walErr error
	if wp != nil {
		// The final flush obeys the same write-ahead discipline as every
		// other one: log first, and under fail-stop shed what never became
		// durable.
		walErr = rt.wal.AppendBatch(wp)
	}
	walShed := walErr != nil && rt.cfg.Durability.OnWALError == WALFailStop
	for i, w := range rt.workers {
		if flush {
			if walShed {
				rt.shedBatch(i, batches[i])
			} else {
				// Past the deadline sendBatch sheds rather than blocks; the
				// channels are closed regardless, so workers always terminate.
				_ = rt.sendBatch(ctx, w, i, shardMsg{events: batches[i], ts: ts})
			}
		}
		close(w.in)
	}
	rt.sendMu.Unlock()
	if walErr != nil {
		_ = rt.noteWALError(walErr)
	}
	rep := DrainReport{}
	var err error
	select {
	case <-rt.merger:
		rep.Complete = true
	case <-done:
		err = ctx.Err()
	}
	if rt.wal != nil && rep.Complete {
		// Merger drained: the emit watermark covers every delivered match.
		// A final checkpoint at the closed position makes a clean restart
		// replay-and-suppress everything (no duplicate output).
		rt.mu.Lock()
		if rt.walActive.Load() {
			_ = rt.noteWALError(rt.writeCheckpointLocked())
		}
		rt.mu.Unlock()
		if cerr := rt.noteWALError(rt.wal.Close()); cerr != nil && err == nil {
			err = cerr
		}
	}
	rep.EventsShed = rt.shedTotal() - shedBefore
	return rep, err
}

// Stats returns aggregated counters; safe to call at any time, including
// while workers are processing (engine snapshots are atomic, and worker
// backpressure never holds mu). Engine counters cover live engine groups
// (each physical engine once, no matter how many queries alias it) plus
// the totals unregistered groups had accumulated when they were removed.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	if !rt.closed && rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	engines := make([]*core.Engine, 0, len(rt.groups)*rt.cfg.Shards)
	nConsumers := 0
	for _, gs := range rt.groups {
		engines = append(engines, gs.engines...)
		if gs.consumer {
			nConsumers++
		}
	}
	nProds := 0
	for _, ps := range rt.prefixes {
		if ps.prods != nil {
			nProds++
		}
	}
	nQuar := 0
	for _, reg := range rt.live {
		if reg.quarantined {
			nQuar++
		}
	}
	nLive, nGroups := len(rt.live)-nQuar, len(rt.groups)
	agg := rt.retired
	rt.mu.Unlock()
	st := Stats{
		Shards:                rt.cfg.Shards,
		LiveQueries:           nLive,
		EngineGroups:          nGroups,
		SharedSubplans:        nProds,
		SharedPrefixConsumers: nConsumers,
		QuarantinedQueries:    nQuar,
		Faults:                rt.faults.total.Load(),
		ShedByShard:           make([]uint64, rt.cfg.Shards),
		EventsIngested:        rt.ingested.Load(),
		MatchesDelivered:      rt.delivered.Load(),
		EngineDeliveries:      rt.engineDeliv.Load(),
		Engine:                agg,
	}
	for i := range rt.shed {
		n := rt.shed[i].Load()
		st.ShedByShard[i] = n
		st.EventsShed += n
	}
	for _, e := range engines {
		st.Engine.Add(e.Snapshot())
	}
	if rt.wal != nil {
		st.WALEnabled = rt.walActive.Load()
		st.WAL = rt.wal.Stats()
	}
	st.WALErrors = rt.walErrs.Load()
	st.WALSuppressed = rt.suppressed.Load()
	st.WALTruncatedBytes = rt.walTruncated
	return st
}
