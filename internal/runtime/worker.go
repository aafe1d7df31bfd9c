package runtime

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/slicepool"
	"repro/internal/wal"
)

// shardMsg is one unit of work on a worker's input queue: a batch of
// events for this shard (possibly empty — a heartbeat), the stream time at
// flush, and at most one registry operation. Queue order defines the
// shard-local event order, so registrations take effect at an exact point
// in the stream.
type shardMsg struct {
	events []*event.Event
	ts     int64 // stream time when the batch was flushed (max ingested ts)
	reg    *regOp
	unreg  QueryID
	snap   *snapOp
	// quar names an engine group quarantined elsewhere (another shard's
	// contained panic, or a merger-side reap) that this shard must drop
	// without recording a fault of its own.
	quar int64
}

// regOp hands a registration to a worker. Exactly one of two shapes:
//   - a new engine group: eng/sink/info are set, and — for shared-prefix
//     consumers — prodID names the producer to attach to, with prod/
//     prodInfo carrying the producer itself when this registration creates
//     it;
//   - an alias onto an existing group (whole-query dedupe): eng is nil and
//     gid names the group, which is guaranteed live by queue order.
//
// seq is the runtime's ingest sequence stamp at registration: the exact
// visibility barrier for shared partial matches (Subplan.Attach).
type regOp struct {
	id   QueryID
	gid  int64
	info *query.Info
	eng  *core.Engine
	sink *matchSink
	emit func(*core.Match)
	seq  uint64

	prodID   int64
	prod     *core.Subplan
	prodInfo *query.Info
}

// matchSink collects one engine's emitted matches between batch
// boundaries. It is written synchronously by the engine's emit callback
// inside the worker goroutine, so it needs no locking. take/recycle
// alternate between two slices so steady-state collection reuses the same
// backing arrays instead of allocating per batch.
type matchSink struct{ buf, spare []*core.Match }

func (s *matchSink) add(m *core.Match) { s.buf = append(s.buf, m) }

func (s *matchSink) take() []*core.Match {
	out := s.buf
	s.buf = s.spare
	s.spare = nil
	return out
}

// recycle returns a slice obtained from take once its matches have been
// copied out.
func (s *matchSink) recycle(b []*core.Match) {
	clear(b)
	s.spare = b[:0]
}

// pendingMatch is one match waiting in the merger for its watermark.
type pendingMatch struct {
	end   int64
	shard int
	seq   uint64 // per-shard emission order, for a deterministic tie-break
	m     *core.Match
	emit  func(*core.Match)
	id    QueryID // owning query, for merger-side fault containment
}

// matchBatchPool recycles the pendingMatch batches workers ship to the
// merger (worker allocates, merger returns), keeping steady-state batch
// reporting allocation-free (see internal/slicepool).
var matchBatchPool slicepool.Pool[pendingMatch]

func getMatchBatch() []pendingMatch  { return matchBatchPool.Get() }
func putMatchBatch(b []pendingMatch) { matchBatchPool.Put(b) }

// mergeMsg is one worker's batch report to the merger: the matches its
// engines emitted this batch (sorted by end-time) and the shard's new
// watermark — a lower bound on the End of any match the shard may still
// produce. final marks the worker's last message, sent after Close
// flushed every engine.
type mergeMsg struct {
	shard     int
	matches   []pendingMatch
	watermark int64
	final     bool
}

// unit is one execution unit on this shard: an engine group (eng set) or a
// shared-subplan producer (prod set) — exactly one of the two. Both are fed
// their router deliveries, run one round at every batch boundary and are
// contained, quarantined and dropped by the same worker functions.
//
// An engine group is one physical engine together with the queries aliased
// onto it: without whole-query dedupe every group has exactly one slot;
// with it, textually identical queries share the group and each gets the
// group's matches fanned out at gather time. A shared-prefix consumer group
// reads its producer (src) through reader. A producer's members are the
// consumer groups whose horizons bound its eviction.
type unit struct {
	id   int64 // group id (> 0) or producer id (< 0)
	eng  *core.Engine
	prod *core.Subplan

	sink   *matchSink
	slots  int
	src    *unit               // producer this consumer reads (nil = none)
	reader *buffer.ShareReader // cursor into src's shared output
	// adaptive caches eng.IsAdaptive(); batchDeliv counts this group's
	// deliveries within the current batch, so the gap to the batch size
	// (= router-rejected events) can be credited to the engine's
	// statistics collector after the batch.
	adaptive   bool
	batchDeliv uint64

	// gather-round scratch: taken holds the engine's matches for the
	// current round, emitted marks that the first slot already delivered
	// the originals (later slots clone).
	round   uint64
	taken   []*core.Match
	emitted bool

	members []*unit // producer only

	// quarantined marks a unit dropped by a contained panic: every dispatch
	// path skips it until the batch-boundary sweep removes its state
	// structurally. A quarantined producer takes its members with it (their
	// shared prefix state is unrecoverable).
	quarantined bool
}

// querySlot is one registered query, in registration order. Slot order
// defines the deterministic per-batch match interleaving, exactly as the
// per-query engine list did before dedupe existed.
type querySlot struct {
	id   QueryID
	emit func(*core.Match)
	g    *unit
}

// worker owns one stream partition: a private physical engine per engine
// group, fed in shard-local order, synced at every batch boundary, plus
// the shard's shared-subplan producers. Each event batch is classified
// once by the shard's router (in deliver-all mode under Config.NaiveFanout);
// producers are fed and assembled before any consuming engine touches the
// batch, so consumers always observe a producer at or ahead of their own
// stream position.
type worker struct {
	id        int
	in        chan shardMsg
	router    *router.Router
	delivered *atomic.Uint64 // runtime-wide (engine, event) delivery counter
	faults    *faultSink
	inj       *faultinject.Injector // nil in production
	// crashing, when set, tells the worker its input channel was closed by
	// a simulated crash, not a graceful Close: skip the final flush (a
	// crash cannot confirm trailing negations) and exit without advancing
	// the watermark. Test hook for the crash-recovery differential suite.
	crashing *atomic.Bool

	slots []*querySlot
	units []*unit // creation order
	byID  map[int64]*unit
	round uint64

	// shardTime is the largest timestamp of an event THIS shard received —
	// the clock a deliver-to-all engine on this shard would have. Engines
	// are advanced to it, not to the global stream time, so time-driven
	// confirmations (trailing negation/closure) fire in exactly the same
	// batch whether or not the router withheld events, keeping delivery
	// order byte-identical between routed and deliver-all runs.
	shardTime int64
	// quarDirty flags that a unit was quarantined since the last
	// structural sweep.
	quarDirty bool
}

// recoverUnit is the deferred recovery arm of every unit dispatch: a panic
// inside the unit (or an injected fault) quarantines it instead of killing
// the worker — and with it every other query on the shard.
func (w *worker) recoverUnit(u *unit, site faultinject.Site) {
	if r := recover(); r != nil {
		w.quarantine(u, string(site), r, debug.Stack())
	}
}

// quarantine marks a unit failed after a contained panic: the flag stops
// all further dispatch, a producer's members are quarantined with it, one
// fault per member query of every engine group is recorded, and the
// batch-boundary sweep removes the state structurally. The worker records
// into the fault sink only — it must never take the runtime's registry
// lock (deadlock against a backpressured send phase); the next registry
// API call reaps the sink.
func (w *worker) quarantine(u *unit, site string, rec any, stack []byte) {
	if u.quarantined {
		return
	}
	u.quarantined = true
	w.quarDirty = true
	for _, m := range u.members {
		w.quarantine(m, site, rec, stack)
	}
	if u.eng == nil {
		return
	}
	var ids []QueryID
	for _, s := range w.slots {
		if s.g == u {
			ids = append(ids, s.id)
		}
	}
	w.faults.report(u.id, ids, QueryFault{
		GroupID:  u.id,
		Shard:    w.id,
		Site:     site,
		Panic:    fmt.Sprint(rec),
		Stack:    string(stack),
		StreamTs: w.shardTime,
	})
}

// feed delivers one routed sub-batch to a unit under panic containment.
// MaskAll deliveries fall back to full filter evaluation inside
// ProcessAdmitted.
func (w *worker) feed(u *unit, evs []router.Delivery) {
	site := faultinject.SiteEngineBatch
	if u.prod != nil {
		site = faultinject.SiteProducerBatch
	}
	defer w.recoverUnit(u, site)
	w.inj.Hit(site, w.id, u.id)
	if u.prod != nil {
		for _, d := range evs {
			u.prod.ProcessAdmitted(d.Ev, d.Mask)
		}
		return
	}
	for _, d := range evs {
		u.eng.ProcessAdmitted(d.Ev, d.Mask)
	}
}

// sync runs one batch-boundary round (or final flush) under panic
// containment. A producer assembles ahead of its consumers: its horizon is
// the live members' minimum MatchHorizon BEFORE the batch, batchMinTs the
// batch's first (smallest) timestamp; together they lower-bound every EAT
// a consumer round may use while processing the batch (see
// core.Subplan.Assemble). Quarantined members no longer bound the horizon:
// their positions must not pin producer memory. An engine's SyncAt
// advances its clock to the shard time and still runs a round when
// pending confirmations lag behind it, even if the router delivered it
// nothing.
func (w *worker) sync(u *unit, batchMinTs int64, flush bool) {
	if u.prod != nil {
		defer w.recoverUnit(u, faultinject.SiteProducerBatch)
		horizon := int64(math.MaxInt64)
		for _, m := range u.members {
			if m.quarantined {
				continue
			}
			if h := m.eng.MatchHorizon(); h < horizon {
				horizon = h
			}
		}
		if flush {
			u.prod.Flush(horizon)
		} else {
			u.prod.Assemble(horizon, batchMinTs)
		}
		return
	}
	defer w.recoverUnit(u, faultinject.SiteEngineSync)
	w.inj.Hit(faultinject.SiteEngineSync, w.id, u.id)
	if flush {
		u.eng.Flush()
	} else {
		u.eng.SyncAt(w.shardTime)
	}
}

// noteRejects credits router-level rejects to an adaptive engine's
// statistics collector under panic containment.
func (w *worker) noteRejects(u *unit, n uint64) {
	defer w.recoverUnit(u, faultinject.SiteEngineBatch)
	u.eng.NoteRouterRejects(n, w.shardTime)
}

// sweepQuarantined structurally removes every unit flagged since the last
// sweep. It runs at the batch boundary (after gather), so no flagged state
// is removed mid-iteration. A quarantined consumer's reader is detached
// from its producer here, so the shared buffer stops clamping eviction on
// a dead reader's position — a failed consumer never pins producer memory.
func (w *worker) sweepQuarantined() {
	if !w.quarDirty {
		return
	}
	w.quarDirty = false
	w.slots = slices.DeleteFunc(w.slots, func(s *querySlot) bool { return s.g.quarantined })
	for _, u := range slices.Clone(w.units) {
		if u.quarantined {
			w.drop(u)
		}
	}
}

// add installs a new unit: creation-ordered list, id index and router
// subscription (the router payload is always the *unit).
func (w *worker) add(u *unit, info *query.Info) {
	w.units = append(w.units, u)
	w.byID[u.id] = u
	w.router.Add(u.id, info, u)
}

// register applies one regOp at its exact queue position.
func (w *worker) register(op *regOp) {
	if op.prod != nil {
		w.add(&unit{id: op.prodID, prod: op.prod}, op.prodInfo)
	}
	var g *unit
	if op.eng != nil {
		g = &unit{id: op.gid, eng: op.eng, sink: op.sink, adaptive: op.eng.IsAdaptive()}
		if op.prodID != 0 {
			p := w.byID[op.prodID]
			g.src = p
			g.reader = p.prod.Attach(op.seq)
			op.eng.ConnectSharedPrefix(g.reader)
			p.members = append(p.members, g)
		}
		w.add(g, op.info)
	} else {
		g = w.byID[op.gid]
		if g == nil || g.quarantined {
			// The host group was quarantined after the registry aliased
			// this query onto it: the new query inherits the fault rather
			// than silently running nowhere.
			w.faults.report(op.gid, []QueryID{op.id}, QueryFault{
				GroupID:  op.gid,
				Shard:    w.id,
				Site:     "register.alias",
				Panic:    "engine group quarantined before alias registration",
				StreamTs: w.shardTime,
			})
			return
		}
	}
	g.slots++
	w.slots = append(w.slots, &querySlot{id: op.id, emit: op.emit, g: g})
}

// unregister removes a query slot; the group (and any producer it alone
// kept alive) goes with it when the last slot leaves.
func (w *worker) unregister(id QueryID) {
	i := slices.IndexFunc(w.slots, func(s *querySlot) bool { return s.id == id })
	if i < 0 {
		return
	}
	g := w.slots[i].g
	w.slots = slices.Delete(w.slots, i, i+1)
	g.slots--
	if g.slots == 0 {
		w.drop(g)
	}
}

// drop removes a unit's shard-local state: list/index entries and its
// router subscription. A shared-prefix consumer also detaches its reader,
// and the last reader's detach drops the producer. Idempotent (the
// quarantine sweep may reach a producer the last consumer drop already
// removed); shared by unregister and the sweep.
func (w *worker) drop(u *unit) {
	if w.byID[u.id] != u {
		return
	}
	delete(w.byID, u.id)
	w.units = slices.DeleteFunc(w.units, func(x *unit) bool { return x == u })
	w.router.Remove(u.id)
	p := u.src
	if p == nil {
		return
	}
	p.members = slices.DeleteFunc(p.members, func(x *unit) bool { return x == u })
	r := u.reader
	u.src, u.reader = nil, nil
	// A quarantined producer's internals are suspect: skip Detach and let
	// the sweep drop the producer wholesale.
	if p.quarantined {
		return
	}
	p.prod.Detach(r)
	if p.prod.Readers() == 0 {
		w.drop(p)
	}
}

// syncProds runs one assembly (or final flush) round on every live
// producer, ahead of any consumer round.
func (w *worker) syncProds(batchMinTs int64, flush bool) {
	for _, u := range w.units {
		if u.prod != nil && !u.quarantined {
			w.sync(u, batchMinTs, flush)
		}
	}
}

func (w *worker) run(out chan<- mergeMsg) {
	streamTime := int64(math.MinInt64 / 2)
	w.shardTime = math.MinInt64 / 2
	var emitSeq uint64

	gather := func(flush bool) []pendingMatch {
		w.round++
		batch := getMatchBatch()
		for _, s := range w.slots {
			g := s.g
			if g.quarantined {
				continue
			}
			if g.round != w.round {
				g.round = w.round
				w.sync(g, 0, flush)
				if g.quarantined {
					// The round panicked: the sink's matches are suspect
					// and die with the group at the sweep.
					continue
				}
				g.taken = g.sink.take()
				g.emitted = false
			}
			if len(g.taken) == 0 {
				continue
			}
			// The first slot of a group delivers the engine's matches as
			// is; further slots (dedupe aliases) get private shallow
			// clones, preserving the exact per-slot emission a private
			// twin engine would have produced.
			clone := g.emitted
			g.emitted = true
			for _, m := range g.taken {
				mm := m
				if clone {
					mm = cloneMatch(m)
				}
				emitSeq++
				batch = append(batch, pendingMatch{end: mm.End, shard: w.id, seq: emitSeq, m: mm, emit: s.emit, id: s.id})
			}
		}
		for _, g := range w.units {
			if g.round == w.round && g.taken != nil {
				g.sink.recycle(g.taken)
				g.taken = nil
			}
		}
		// Each engine emits in end-time order; interleave the per-slot
		// runs into one sorted batch. seq (assigned in slot order above)
		// breaks end-time ties, so the order is deterministic.
		slices.SortFunc(batch, func(a, b pendingMatch) int {
			if a.end != b.end {
				if a.end < b.end {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
		return batch
	}

	for msg := range w.in {
		if msg.ts > streamTime {
			streamTime = msg.ts
		}
		if n := len(msg.events); n > 0 {
			// ingest order: the batch's last event carries its max ts
			if ts := msg.events[n-1].Ts; ts > w.shardTime {
				w.shardTime = ts
			}
		}
		switch {
		case msg.reg != nil:
			w.register(msg.reg)
		case msg.unreg != 0:
			w.unregister(msg.unreg)
		case msg.snap != nil:
			w.snapshot(msg.snap)
		case msg.quar != 0:
			// Quarantine broadcast from the registry reap: the group
			// faulted on another shard (or in its OnMatch callback); drop
			// it here too, without recording a duplicate fault.
			if g, ok := w.byID[msg.quar]; ok && !g.quarantined {
				g.quarantined = true
				w.quarDirty = true
			}
		}
		// One classification pass decides, per event, which units receive
		// it and with which admitted-class bits; groups whose classes all
		// reject an event are never touched. Producers drain their
		// deliveries and assemble first, so consumer rounds see an
		// up-to-date shared prefix.
		batches := w.router.Route(msg.events)
		if len(msg.events) > 0 {
			for _, sb := range batches {
				if p := sb.Payload.(*unit); p.prod != nil && !p.quarantined {
					w.feed(p, sb.Events)
				}
			}
			w.syncProds(msg.events[0].Ts, false)
		}
		var nDeliv uint64
		for _, sb := range batches {
			g := sb.Payload.(*unit)
			if g.eng == nil || g.quarantined {
				continue
			}
			w.feed(g, sb.Events)
			g.batchDeliv = uint64(len(sb.Events))
			nDeliv += uint64(len(sb.Events))
		}
		if nDeliv > 0 {
			w.delivered.Add(nDeliv)
		}
		// Credit router-level rejects to adaptive engines: an event the
		// router withheld from a group was rejected by every one of its
		// class filters, so the statistics collector can fold it in as a
		// bulk reject — rates and selectivities then describe the
		// unconditioned stream, exactly what a deliver-to-all engine
		// would have measured (fallback subscriptions receive every
		// event, so their gap is zero by construction).
		if n := uint64(len(msg.events)); n > 0 {
			for _, g := range w.units {
				if g.adaptive && !g.quarantined && n > g.batchDeliv {
					w.noteRejects(g, n-g.batchDeliv)
				}
				g.batchDeliv = 0
			}
		}
		// Batch release: the events now live in engine buffers; the slice
		// that carried them returns to the shared pool.
		event.PutBatch(msg.events)
		batch := gather(false)
		// Sweep before the watermark probe: it runs MatchHorizon on every
		// remaining group, and a just-quarantined engine's buffers are not
		// safe to read.
		w.sweepQuarantined()

		// The shard watermark: no match this shard later produces can end
		// before it. Future matches either complete on an already buffered
		// unconsumed final-class instance (engine MatchHorizon) or on a
		// future event, whose timestamp is at least the flushed stream
		// time (ingest order is globally non-decreasing).
		wm := streamTime
		for _, g := range w.units {
			if g.eng == nil {
				continue
			}
			if h := g.eng.MatchHorizon(); h < wm {
				wm = h
			}
		}
		out <- mergeMsg{shard: w.id, matches: batch, watermark: wm, final: false}
	}

	// Simulated crash: no final flush — a real crash cannot confirm the
	// trailing negations and closures a flush would emit, and recovery
	// must be free to veto them. The non-advancing watermark keeps the
	// merger from releasing anything more on this shard's account.
	if w.crashing != nil && w.crashing.Load() {
		out <- mergeMsg{shard: w.id, matches: getMatchBatch(), watermark: math.MinInt64, final: true}
		return
	}

	// Close: final flush confirms trailing negations and closures; after
	// it no shard match is outstanding, so the watermark jumps to +inf.
	// Producers flush first so consumer flushes observe every partial
	// match.
	w.syncProds(0, true)
	batch := gather(true)
	out <- mergeMsg{shard: w.id, matches: batch, watermark: math.MaxInt64, final: true}
}

// cloneMatch gives a dedupe alias a private Match header and Fields slice.
// The constituent events (and closure-group slices) inside Fields are
// shared with the original — they are immutable stream data every engine
// already shares.
func cloneMatch(m *core.Match) *core.Match {
	c := *m
	c.Fields = append([]core.Field(nil), m.Fields...)
	return &c
}

// matchHeap is a hand-rolled min-heap of pending matches ordered by
// (end, shard, seq) — a total, deterministic order consistent with
// end-time order. It avoids container/heap's per-push interface boxing,
// which showed up as GC pressure on match-heavy workloads.
type matchHeap []pendingMatch

func (h matchHeap) less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	if h[i].shard != h[j].shard {
		return h[i].shard < h[j].shard
	}
	return h[i].seq < h[j].seq
}

func (h *matchHeap) push(pm pendingMatch) {
	*h = append(*h, pm)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *matchHeap) pop() pendingMatch {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = pendingMatch{} // release the match pointer to the GC
	a = a[:n]
	*h = a
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a.less(l, min) {
			min = l
		}
		if r < n && a.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// runMerger is the single consumer of every worker's match stream: it
// holds back matches until every shard's watermark passes their end-time,
// then releases them heap-ordered, giving one globally end-time-ordered
// output across all queries and shards. Per-query callbacks run here, so
// they are never invoked concurrently; a panicking callback quarantines
// its query (emitMatch) and its remaining queued matches are skipped.
func (rt *Runtime) runMerger() {
	defer close(rt.merger)
	n := rt.cfg.Shards
	wms := make([]int64, n)
	for i := range wms {
		wms[i] = math.MinInt64
	}
	var h matchHeap
	var skip map[QueryID]bool // queries whose OnMatch panicked
	var round []pendingMatch  // reused release scratch (zero steady-state allocs)
	finals := 0
	release := func() {
		min := wms[0]
		for _, wm := range wms[1:] {
			if wm < min {
				min = wm
			}
		}
		// Strictly below the watermark: a shard at watermark W may still
		// produce a match ending exactly at W.
		round = round[:0]
		for len(h) > 0 && h[0].end < min {
			pm := h.pop()
			if skip != nil && skip[pm.id] {
				continue
			}
			if rt.supActive {
				// Crash recovery: suppress replayed matches at or below the
				// recovered durable emit watermark — they were delivered
				// before the crash. Matches release in non-decreasing end
				// order, so once one passes the watermark the cursor is done.
				if pm.end < rt.supEnd || (pm.end == rt.supEnd && rt.supSeen < rt.supCount) {
					if pm.end == rt.supEnd {
						rt.supSeen++
					}
					rt.suppressed.Add(1)
					continue
				}
				rt.supActive = false
			}
			round = append(round, pm)
		}
		if len(round) == 0 {
			return
		}
		if rt.wal != nil {
			// Exactly-once boundary: advance and persist the emit watermark
			// BEFORE any callback runs, so a crash mid-round suppresses the
			// whole round on replay (matches may be lost to the crash, never
			// duplicated). Ends are non-decreasing across rounds, so the
			// (end, count) pair totals every match delivered so far.
			end, cnt := rt.wmEnd.Load(), rt.wmCount.Load()
			for i := range round {
				if round[i].end > end {
					end, cnt = round[i].end, 1
				} else {
					cnt++
				}
			}
			if rt.walActive.Load() {
				if rt.noteWALError(rt.wal.WriteEmitWM(wal.EmitWM{End: end, Count: cnt})) != nil {
					// Fail-stop and the watermark did not become durable:
					// delivering now would double-deliver after recovery
					// (replay would not suppress these matches). Drop the
					// round — every constituent event is already durably
					// logged ahead of the engines, so replay rebuilds and
					// delivers these matches itself.
					clear(round)
					return
				}
			}
			rt.wmEnd.Store(end)
			rt.wmCount.Store(cnt)
		}
		for i := range round {
			pm := &round[i]
			rt.delivered.Add(1)
			if pm.emit != nil && !rt.emitMatch(pm) {
				if skip == nil {
					skip = map[QueryID]bool{}
				}
				skip[pm.id] = true
			}
		}
		clear(round)
	}
	for msg := range rt.mergeCh {
		for _, pm := range msg.matches {
			h.push(pm)
		}
		putMatchBatch(msg.matches)
		if msg.watermark > wms[msg.shard] {
			wms[msg.shard] = msg.watermark
		}
		release()
		if msg.final {
			finals++
			if finals == n {
				return
			}
		}
	}
}
