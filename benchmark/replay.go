package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/wal"
)

// replayStats is what the layer replay measured.
type replayStats struct {
	tr     *tracer
	digest *digest

	routeNs, feedNs, prodNs      int64
	deliveries                   uint64 // router deliveries to engines and producers
	engineDeliveries, leafPassed uint64
	roundUs, assembleUs          []float64
	appendUs                     []float64
	coreAllocs                   uint64
	opIn, opOut, prodRecords     uint64
}

// rProd mirrors a shard worker's shared-prefix producer and its consumers.
type rProd struct {
	sp      *core.Subplan
	members []*core.Engine
}

// rShard is one shard of the replay: its router, engines in registration
// order, producers, and clock.
type rShard struct {
	router    *router.Router
	engines   []*core.Engine
	prods     []*rProd
	shardTime int64
}

// replay feeds the generated stream through the internal layers' exported
// functions on one goroutine, in a shard worker's order: per ingest batch
// and shard, router.Route, then the producers' ProcessAdmitted and
// Assemble, the engines' ProcessAdmitted, and a SyncAt round per engine;
// Flush at the end. With the log on it appends each ingest batch with
// wal.Writer.AppendBatch first. Shards are assigned by the benchmark's own
// hash: the queries are partition-local, so the match set does not depend
// on it. The digest must equal the reference, otherwise this
// decomposition is not the program.
func (b *bench) replay() (*replayStats, error) {
	rp := &replayStats{tr: newTracer(), digest: newDigest(len(b.w.queries))}
	if !b.w.runtime {
		return rp, b.replayEngine(rp)
	}
	shards, err := b.replayRegister(rp)
	if err != nil {
		return nil, err
	}
	var w *wal.Writer
	if b.w.durable {
		dir, err := os.MkdirTemp(b.workdir, "replay-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		w, err = wal.NewWriter(wal.Options{Dir: dir, Fsync: wal.FsyncInterval}, wal.Meta{Shards: benchShards, PartitionBy: "name"}, 1)
		if err != nil {
			return nil, err
		}
	}
	tr := rp.tr
	allocs := newAllocCounter()
	evs := b.w.events()
	parts := make([][]*zstream.Event, len(shards))
	for lo := 0; lo < len(evs); lo += batchSize {
		batch := evs[lo:min(lo+batchSize, len(evs))]
		root := tr.begin("replay.batch", 0, int32(lo/batchSize+1))
		if w != nil {
			sp := tr.begin("wal.append", root, 0)
			t0 := time.Now()
			if err := w.AppendBatch(batch); err != nil {
				return nil, fmt.Errorf("wal append: %w", err)
			}
			rp.appendUs = append(rp.appendUs, float64(time.Since(t0))/1e3)
			tr.end(sp)
		}
		for i := range parts {
			parts[i] = parts[i][:0]
		}
		for _, ev := range batch {
			h := fnv.New32a()
			h.Write([]byte(symbolOf(ev)))
			k := int(h.Sum32() % uint32(len(shards)))
			parts[k] = append(parts[k], ev)
		}
		for i, sh := range shards {
			b.replayShardBatch(rp, sh, parts[i], root, allocs)
		}
		tr.end(root)
	}
	root := tr.begin("replay.flush", 0, 0)
	for _, sh := range shards {
		for _, pe := range sh.prods {
			sp := tr.begin("producer.flush", root, 0)
			pe.sp.Flush(minHorizon(pe.members))
			tr.end(sp)
		}
		for _, eng := range sh.engines {
			sp := tr.begin("core.flush", root, 0)
			eng.Flush()
			tr.end(sp)
		}
	}
	tr.end(root)
	if w != nil {
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("wal close: %w", err)
		}
	}
	for _, sh := range shards {
		for _, eng := range sh.engines {
			countTree(eng.Plan().Root, &rp.opIn, &rp.opOut, &rp.leafPassed)
		}
		for _, pe := range sh.prods {
			var in, out uint64
			countTree(pe.sp.Plan().Root, &in, &out, &rp.leafPassed)
			rp.opIn += in
			rp.opOut += out
			rp.prodRecords += out
		}
	}
	b.checkReplay(rp)
	return rp, nil
}

// checkReplay compares the replay's digest with the reference.
func (b *bench) checkReplay(rp *replayStats) {
	if bad := rp.digest.mismatches(b.ref); bad > 0 {
		b.attempted += uint64(b.w.streamLen) + b.ref.total()
		b.fail(bad, "layer replay: digest %s, reference %s", rp.digest, b.ref)
	}
}

// replayRegister builds every shard's engines, producers and router
// subscriptions the way the runtime registers queries: the first query of
// a prefix family runs alone, and the second creates the family's
// producer, which it and every later member consume.
func (b *bench) replayRegister(rp *replayStats) ([]*rShard, error) {
	cfg := core.Config{Strategy: core.StrategyOptimal, UseHash: true}
	shards := make([]*rShard, benchShards)
	for i := range shards {
		shards[i] = &rShard{router: router.New(), shardTime: math.MinInt64 / 2}
	}
	type family struct {
		solo  bool
		prods []*rProd
		id    int64
	}
	families := map[string]*family{}
	seen := map[string]bool{}
	nextProd := int64(0)
	for qi, src := range b.w.queries {
		q, err := query.Parse(src)
		if err != nil {
			return nil, err
		}
		if fp, ok := query.FingerprintQuery(q); ok {
			if seen[fp] {
				return nil, fmt.Errorf("replay: query %d duplicates an earlier one; whole-query dedupe is not replayed", qi)
			}
			seen[fp] = true
		}
		var fam *family
		k := core.SharedPrefixLen(q, cfg)
		if k > 0 {
			if pfp, ok := query.PrefixFingerprint(q, k); ok {
				fam = families[pfp]
				if fam == nil {
					families[pfp] = &family{solo: true}
					fam = nil
				}
			}
		}
		if fam != nil && fam.prods == nil {
			pq, err := query.PrefixQuery(q, k)
			if err != nil {
				return nil, err
			}
			nextProd--
			fam.id = nextProd
			for _, sh := range shards {
				sp, err := core.NewSubplan(pq, cfg.UseHash)
				if err != nil {
					return nil, err
				}
				pe := &rProd{sp: sp}
				fam.prods = append(fam.prods, pe)
				sh.prods = append(sh.prods, pe)
				sh.router.Add(fam.id, pq.Info, pe)
			}
		}
		emit := func(m *core.Match) { rp.digest.add(qi, m) }
		for si, sh := range shards {
			var eng *core.Engine
			info := q.Info
			if fam != nil {
				eng, err = core.NewEngineSharedPrefix(q, cfg, k, emit)
				if err != nil {
					return nil, err
				}
				pe := fam.prods[si]
				eng.ConnectSharedPrefix(pe.sp.Attach(0))
				// Prefix admission is delegated to the producer.
				info = &query.Info{Classes: q.Info.Classes[k:], Preds: q.Info.Preds}
			} else if eng, err = core.NewEngine(q, cfg, emit); err != nil {
				return nil, err
			}
			if fam != nil {
				fam.prods[si].members = append(fam.prods[si].members, eng)
			}
			sh.engines = append(sh.engines, eng)
			sh.router.Add(int64(qi+1), info, eng)
		}
	}
	return shards, nil
}

// replayShardBatch runs one shard's share of an ingest batch in the
// worker's order.
func (b *bench) replayShardBatch(rp *replayStats, sh *rShard, evs []*zstream.Event, root int32, allocs *allocCounter) {
	tr := rp.tr
	if n := len(evs); n > 0 && evs[n-1].Ts > sh.shardTime {
		sh.shardTime = evs[n-1].Ts
	}
	sp := tr.begin("router.route", root, 0)
	t0 := time.Now()
	batches := sh.router.Route(evs)
	rp.routeNs += int64(time.Since(t0))
	tr.end(sp)
	for _, sb := range batches {
		rp.deliveries += uint64(len(sb.Events))
	}
	if len(sh.prods) > 0 && len(evs) > 0 {
		for _, sb := range batches {
			pe, ok := sb.Payload.(*rProd)
			if !ok {
				continue
			}
			sp := tr.begin("producer.process", root, 0)
			t0 := time.Now()
			for _, d := range sb.Events {
				pe.sp.ProcessAdmitted(d.Ev, d.Mask)
			}
			rp.prodNs += int64(time.Since(t0))
			tr.end(sp)
		}
		for _, pe := range sh.prods {
			sp := tr.begin("producer.assemble", root, 0)
			t0 := time.Now()
			pe.sp.Assemble(minHorizon(pe.members), evs[0].Ts)
			rp.assembleUs = append(rp.assembleUs, float64(time.Since(t0))/1e3)
			tr.end(sp)
		}
	}
	a0 := allocs.read()
	for _, sb := range batches {
		eng, ok := sb.Payload.(*core.Engine)
		if !ok {
			continue
		}
		sp := tr.begin("core.feed", root, 0)
		t0 := time.Now()
		for _, d := range sb.Events {
			eng.ProcessAdmitted(d.Ev, d.Mask)
		}
		rp.feedNs += int64(time.Since(t0))
		tr.end(sp)
		rp.engineDeliveries += uint64(len(sb.Events))
	}
	for _, eng := range sh.engines {
		before := eng.Snapshot().Rounds
		sp := tr.begin("core.sync", root, 0)
		t0 := time.Now()
		eng.SyncAt(sh.shardTime)
		d := time.Since(t0)
		tr.end(sp)
		if eng.Snapshot().Rounds > before {
			rp.roundUs = append(rp.roundUs, float64(d)/1e3)
		}
	}
	rp.coreAllocs += allocs.read() - a0
}

// replayEngine drives Query 6's adaptive engine directly, timing each
// Process call; calls that ran an assembly round are the round samples.
func (b *bench) replayEngine(rp *replayStats) error {
	q, err := query.Parse(b.w.queries[0])
	if err != nil {
		return err
	}
	cfg := core.Config{Strategy: core.StrategyOptimal, UseHash: true, Adaptive: true}
	eng, err := core.NewEngine(q, cfg, func(m *core.Match) { rp.digest.add(0, m) })
	if err != nil {
		return err
	}
	tr := rp.tr
	allocs := newAllocCounter()
	evs := b.w.events()
	a0 := allocs.read()
	for lo := 0; lo < len(evs); lo += batchSize {
		sp := tr.begin("core.feed", 0, int32(lo/batchSize+1))
		for _, ev := range evs[lo:min(lo+batchSize, len(evs))] {
			before := eng.Snapshot().Rounds
			t0 := time.Now()
			eng.Process(ev)
			d := time.Since(t0)
			if eng.Snapshot().Rounds > before {
				rp.roundUs = append(rp.roundUs, float64(d)/1e3)
			} else {
				rp.feedNs += int64(d)
				rp.engineDeliveries++
			}
		}
		tr.end(sp)
	}
	sp := tr.begin("core.flush", 0, 0)
	eng.Flush()
	tr.end(sp)
	rp.coreAllocs = allocs.read() - a0
	for _, leaf := range eng.Plan().Leaves {
		rp.leafPassed += leaf.Counters().Out
	}
	var ignore uint64
	countTree(eng.Plan().Root, &rp.opIn, &rp.opOut, &ignore)
	rp.deliveries = uint64(len(evs))
	b.checkReplay(rp)
	return nil
}

// minHorizon is the producer eviction bound: its consumers' minimum match
// horizon.
func minHorizon(engines []*core.Engine) int64 {
	h := int64(math.MaxInt64)
	for _, eng := range engines {
		if x := eng.MatchHorizon(); x < h {
			h = x
		}
	}
	return h
}

// countTree adds a plan tree's join-side candidate and output counters to
// in and out, and its leaves' passed arrivals to leafPassed.
func countTree(n operator.Node, in, out, leafPassed *uint64) {
	var walk func(n operator.Node)
	walk = func(n operator.Node) {
		c := n.Counters()
		if _, ok := n.(*operator.Leaf); ok {
			*leafPassed += c.Out
		} else {
			*in += c.In
			*out += c.Out
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(n)
}
