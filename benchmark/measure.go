package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
)

// batchSize is the Runtime's documented default ingest batch: every
// batchSize-th Ingest call after the registrations hands a batch to the
// workers (and, with the log on, appends it to the write-ahead log).
const batchSize = 256

// system is one instance of the system under test: a Runtime with the
// workload's queries registered, or one Engine.
type system struct {
	rt  *zstream.Runtime
	eng *zstream.Engine
	dir string // write-ahead log directory (durable only)
}

// bench holds one run's state: the workload, its reference and the
// failure accounting every phase adds to.
type bench struct {
	w       *workload
	workdir string
	// ref is the reference digest of the whole stream, refPaced that of
	// the paced prefix.
	ref, refPaced *digest
	tr            *tracer // nil unless this phase is traced

	attempted, failed uint64
	problems          []string
}

func (b *bench) fail(n uint64, format string, args ...any) {
	b.failed += n
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// check compares a finished phase's digest with its reference and counts
// its attempted operations (events plus reference matches).
func (b *bench) check(phase string, d, ref *digest, events int) {
	b.attempted += uint64(events) + ref.total()
	if bad := d.mismatches(ref); bad > 0 {
		b.fail(bad, "%s: digest %s, reference %s", phase, d, ref)
	}
}

// runtimeOptions are the public defaults plus WithShards(2) and, for the
// durable workload, the log in dir. The log syncs on the interval policy
// (every 50 ms) instead of the default per ingest batch: on a shared host
// the disk's fsync latency moved per-batch-sync throughput 2.3x between
// runs, more than any bound the benchmark may set.
func runtimeOptions(dir string) []zstream.RuntimeOption {
	opts := []zstream.RuntimeOption{zstream.WithShards(benchShards)}
	if dir != "" {
		opts = append(opts, zstream.WithDurability(dir, zstream.WithFsync(zstream.FsyncInterval)))
	}
	return opts
}

// setup compiles every query and builds the system, registering each query
// with an OnMatch that feeds onMatch. Spans, when traced, hang off parent.
func (b *bench) setup(onMatch func(q int, m *zstream.Match), parent int32) (*system, error) {
	tr := b.tr
	s := &system{}
	qs := make([]*zstream.Query, len(b.w.queries))
	for i, src := range b.w.queries {
		sp := tr.begin("query.compile", parent, 0)
		q, err := zstream.Compile(src)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("compile query %d: %w", i, err)
		}
		qs[i] = q
	}
	if !b.w.runtime {
		sp := tr.begin("core.new_engine", parent, 0)
		eng, err := zstream.NewEngine(qs[0], zstream.WithAdaptation(), zstream.OnMatch(func(m *zstream.Match) { onMatch(0, m) }))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.eng = eng
		return s, nil
	}
	sp := tr.begin("runtime.new", parent, 0)
	if b.w.durable {
		dir, err := os.MkdirTemp(b.workdir, "wal-")
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		s.dir = dir
		rt, _, err := zstream.NewDurableRuntime(runtimeOptions(dir)...)
		if err != nil {
			tr.end(sp)
			os.RemoveAll(dir)
			return nil, err
		}
		s.rt = rt
	} else {
		s.rt = zstream.NewRuntime(runtimeOptions("")...)
	}
	tr.end(sp)
	for i, q := range qs {
		sp := tr.begin("runtime.register", parent, 0)
		_, err := s.rt.Register(q, zstream.OnMatch(func(m *zstream.Match) { onMatch(i, m) }))
		tr.end(sp)
		if err != nil {
			s.rt.Close()
			s.cleanup()
			return nil, fmt.Errorf("register query %d: %w", i, err)
		}
	}
	return s, nil
}

// cleanup removes the system's log directory.
func (s *system) cleanup() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// feed hands event i to the system; a failed Ingest counts as a failed
// operation. flush marks a call that crosses a batch boundary.
func (b *bench) feed(s *system, ev *zstream.Event, i int, req int32) {
	if s.eng != nil {
		sp := b.tr.begin("core.process", 0, req)
		s.eng.Process(ev)
		b.tr.end(sp)
		return
	}
	sp := b.tr.begin("runtime.ingest", 0, req)
	if err := s.rt.Ingest(ev); err != nil {
		b.fail(1, "ingest event %d: %v", i, err)
	}
	b.tr.end(sp)
	if (i+1)%batchSize == 0 {
		b.tr.tag(sp, "flush")
	}
}

// finish flushes and stops the system, counting shed events as failed.
func (b *bench) finish(s *system) {
	if s.eng != nil {
		sp := b.tr.begin("core.flush", 0, 0)
		s.eng.Flush()
		b.tr.end(sp)
		return
	}
	sp := b.tr.begin("runtime.close", 0, 0)
	err := s.rt.Close()
	b.tr.end(sp)
	if err != nil {
		b.fail(1, "close: %v", err)
	}
	if shed := s.rt.Stats().EventsShed; shed > 0 {
		b.fail(shed, "%d events shed", shed)
	}
}

// restart measures what bringing the same standing state back costs after
// the system stopped: NewDurableRuntime over the log the run wrote (which
// replays it), or, with no log to recover, set-up again. It returns the
// time and the recovery report (nil without a log).
func (b *bench) restart(s *system) (time.Duration, *zstream.RecoverInfo, error) {
	if s.dir == "" {
		tr := b.tr
		b.tr = nil // a restart's compiles are not part of the traced set-up
		defer func() { b.tr = tr }()
		t0 := time.Now()
		s2, err := b.setup(func(int, *zstream.Match) {}, 0)
		d := time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		if s2.rt != nil {
			s2.rt.Close()
		}
		return d, nil, nil
	}
	sp := b.tr.begin("runtime.recover", 0, 0)
	t0 := time.Now()
	rt, info, err := zstream.NewDurableRuntime(runtimeOptions(s.dir)...)
	d := time.Since(t0)
	b.tr.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("recover: %w", err)
	}
	if err := rt.Close(); err != nil {
		return 0, nil, fmt.Errorf("close recovered runtime: %w", err)
	}
	return d, info, nil
}

// satResult is one saturated (closed-loop) pass.
type satResult struct {
	restart    time.Duration
	eventsPerS float64
	stats      zstream.RuntimeStats
	router     zstream.RouterMetrics
	engStats   zstream.Stats
	recover    *zstream.RecoverInfo
	logDir     string // kept for the traced run's log scan
}

// saturated runs one closed-loop pass: set up, ingest the whole stream as
// fast as the system accepts it, close, check the digest, restart.
// keepLog leaves the write-ahead log in place for the caller to scan and
// remove.
func (b *bench) saturated(keepLog bool) (*satResult, error) {
	evs := b.w.events()
	d := newDigest(len(b.w.queries))
	runtime.GC()
	root := b.tr.begin("setup", 0, 0)
	s, err := b.setup(d.add, root)
	b.tr.end(root)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	for i, ev := range evs {
		b.feed(s, ev, i, 0)
	}
	n := len(evs)
	evs = nil
	res := &satResult{}
	if s.rt != nil && b.tr != nil {
		// Router counters are only reported while the runtime is open; the
		// snapshot flushes pending batches, which Close would do anyway.
		res.router = s.rt.Metrics().Router
	}
	b.finish(s)
	el := time.Since(t1)
	res.eventsPerS = float64(n) / el.Seconds()
	if s.rt != nil {
		res.stats = s.rt.Stats()
	} else {
		res.engStats = s.eng.Stats()
	}
	b.check("saturated", d, b.ref, n)
	res.restart, res.recover, err = b.restart(s)
	if keepLog {
		res.logDir = s.dir
	} else {
		s.cleanup()
	}
	return res, err
}

// pacedResult is one open-loop pass.
type pacedResult struct {
	restart    time.Duration
	recovered  bool      // restart replayed a log
	latencyMs  []float64 // per End event: its due time to its last match's OnMatch entry
	lateMs     []float64 // generator lateness per event
	retainedMB float64
}

// paced runs one open-loop pass over the stream's first pacedLen events at
// the workload's fixed rate. Latency runs from the due time of a match's
// End event to OnMatch entry, one sample per End event; matches delivered
// after the last event was sent (released by the final batch or by Close)
// are not sampled.
func (b *bench) paced() (*pacedResult, error) {
	n := b.w.pacedLen
	d := newDigest(len(b.w.queries))
	var (
		p        pacer
		sampling atomic.Bool
		// Allocated before the heap baseline, so only the system's own
		// state counts as retained.
		lat  = make([]float64, 0, b.refPaced.total()+1)
		late = make([]time.Duration, n)
	)
	// One sample per End event: the latency of the last of its matches.
	// Deliveries arrive in end-time order, so an event's matches are
	// consecutive; counting each match would weight an event by how many
	// queries it completes.
	curEnd := int64(-1)
	onMatch := func(q int, m *zstream.Match) {
		if sampling.Load() {
			l := float64(time.Since(p.due(int(m.End)))) / 1e6
			if m.End == curEnd {
				lat[len(lat)-1] = l
			} else {
				lat = append(lat, l)
				curEnd = m.End
			}
		}
		d.add(q, m)
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	// Events are generated as they fall due, so the stream is never live
	// on the heap at once.
	next := b.w.source()
	root := b.tr.begin("setup", 0, 0)
	s, err := b.setup(onMatch, root)
	b.tr.end(root)
	if err != nil {
		return nil, err
	}
	// Event i has timestamp i, so a match's End indexes the pacer directly.
	p = pacer{start: time.Now().Add(time.Millisecond), rate: b.w.rate}
	sampling.Store(true)
	paceLoop(p, late, func(i int) { b.feed(s, next(), i, int32(i+1)) })
	sampling.Store(false)
	res := &pacedResult{}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.retainedMB = (float64(after.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
	b.finish(s)
	b.check("paced", d, b.refPaced, n)
	// The merger goroutine appended to lat; Close (or Flush, on the
	// caller's goroutine) has returned, so it is done.
	res.latencyMs = lat
	res.lateMs = make([]float64, len(late))
	for i, l := range late {
		res.lateMs[i] = float64(l) / 1e6
	}
	var info *zstream.RecoverInfo
	res.restart, info, err = b.restart(s)
	res.recovered = info != nil
	s.cleanup()
	return res, err
}

// setupSamples measures set-up time, and for a workload without a log the
// restart (another set-up after the stop), setupRuns times each. A sample
// averages enough consecutive set-ups to last setupSampleTime, so
// microsecond set-ups are not read off one cold call. restarts holds the
// recoveries the passes already measured over their logs.
func (b *bench) setupSamples(restarts []float64) ([]float64, []float64, error) {
	var setups []float64
	reps := 1
	for len(setups) < setupRuns {
		var sum, restartSum time.Duration
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			s, err := b.setup(func(int, *zstream.Match) {}, 0)
			sum += time.Since(t0)
			if err != nil {
				return nil, nil, err
			}
			b.finish(s)
			if s.dir == "" {
				d, _, err := b.restart(s)
				if err != nil {
					return nil, nil, err
				}
				restartSum += d
			}
			s.cleanup()
		}
		if reps == 1 && sum < setupSampleTime {
			// The first sample sizes the batch and is not kept.
			reps = int(setupSampleTime/max(sum, time.Microsecond)) + 1
			continue
		}
		setups = append(setups, sum.Seconds()/float64(reps))
		if restartSum > 0 {
			restarts = append(restarts, restartSum.Seconds()/float64(reps))
		}
	}
	return setups, restarts, nil
}

// setupRuns is how many set-up samples a run takes; setupSampleTime is how
// long one sample lasts at least.
const (
	setupRuns       = 15
	setupSampleTime = 100 * time.Millisecond
)
