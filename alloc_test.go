// Allocation regression tests for the zero-allocation hot path: steady-
// state ingest must not allocate at all, and an assembly round (including
// match emission) must stay under a fixed per-event allocation budget.
// These are the programmatic counterpart of the CI bench gate's allocs/op
// comparison against BENCH_*.json.
package zstream_test

import (
	"fmt"
	"testing"

	zstream "repro"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// raceEnabled is set by alloc_race_test.go under -race, where sync.Pool
// drops pooled items at random and the runtime-level gates cannot hold.
var raceEnabled bool

// zeroAllocBudget is the per-event budget of the zero-allocation gates:
// one allocation per thousand events, far below any real per-event cost.
const zeroAllocBudget = 0.001

// allocsPerEvent returns the exact allocations per event of one pass that
// calls feed n times. testing.AllocsPerRun truncates its average to a
// whole number, which would floor a sub-one per-event figure to zero, so
// the whole pass is one run (AllocsPerRun invokes it twice, the first as a
// warm-up: feed must have 2n events left) and the division happens here.
func allocsPerEvent(n int, feed func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for j := 0; j < n; j++ {
			feed()
		}
	}) / float64(n)
}

// gatePass is the event count of one measured pass in the zero-allocation
// gates; gateStream leaves room for a 30000-event warm-up plus the two
// passes allocsPerEvent runs.
const (
	gateWarm   = 30000
	gatePass   = 10000
	gateStream = gateWarm + 2*gatePass
)

// allocStream generates a monotone stock stream.
func allocStream(n int, sel float64) []*event.Event {
	return workload.GenStocks(workload.StockSpec{
		N: n, Seed: 8, Names: []string{"IBM", "Sun", "Oracle"},
		Weights:    []float64{1, 1, 1},
		FixedPrice: map[string]float64{"Sun": workload.SelectivityPrice(sel)},
	})
}

// TestIngestSteadyStateZeroAllocs drives an engine past its warmup (pool
// fill, buffer growth, compaction) on a match-free workload, then asserts
// that processing an event — including the assembly rounds that fire and
// evict along the way — performs zero heap allocations.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	q := query.MustParse(`
		PATTERN IBM; Sun
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND IBM.price > Sun.price + 1000000
		WITHIN 200 units`)
	eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := allocStream(gateStream, 0.5)
	for _, ev := range events[:gateWarm] {
		eng.Process(ev)
	}
	i := gateWarm
	avg := allocsPerEvent(gatePass, func() {
		eng.Process(events[i])
		i++
	})
	if avg > zeroAllocBudget {
		t.Fatalf("steady-state ingest allocates %.4f allocs/event, want <= %g", avg, zeroAllocBudget)
	}
	if m := eng.Snapshot().Matches; m != 0 {
		t.Fatalf("workload expected to be match-free, got %d matches", m)
	}
}

// TestIngestSteadyStateZeroAllocsWithMatches is the stronger variant: the
// workload produces matches, but with a nil emit callback (counting only)
// the whole ingest+assembly+drain cycle still runs allocation-free —
// output records are pooled and recycled as the root buffer drains.
func TestIngestSteadyStateZeroAllocsWithMatches(t *testing.T) {
	q := query.MustParse(`
		PATTERN IBM; Sun
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND IBM.price > Sun.price
		WITHIN 50 units`)
	eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := allocStream(gateStream, 0.5)
	for _, ev := range events[:gateWarm] {
		eng.Process(ev)
	}
	before := eng.Snapshot().Matches
	i := gateWarm
	avg := allocsPerEvent(gatePass, func() {
		eng.Process(events[i])
		i++
	})
	if avg > zeroAllocBudget {
		t.Fatalf("steady-state ingest+assembly allocates %.4f allocs/event, want <= %g", avg, zeroAllocBudget)
	}
	if after := eng.Snapshot().Matches; after == before {
		t.Fatal("measured region produced no matches; test is vacuous")
	}
}

// TestAssemblyAllocBudget bounds the allocation cost of the full serving
// path — ingest, assembly, match materialization through a live emit
// callback — on the Figure 8 workload. Materialized matches are real
// output and must allocate, but the per-event average has to stay far
// below the pre-pooling cost (~11 allocs/event on this workload).
func TestAssemblyAllocBudget(t *testing.T) {
	q := query.MustParse(`
		PATTERN IBM; Sun
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND Sun.price > IBM.price + 90
		WITHIN 200 units`)
	var matches uint64
	eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256},
		func(*core.Match) { matches++ })
	if err != nil {
		t.Fatal(err)
	}
	// Uniform random prices (no pinned selectivity): the +90 constraint
	// makes matches rare-but-present.
	events := workload.GenStocks(workload.StockSpec{
		N: 45000, Seed: 8, Names: []string{"IBM", "Sun", "Oracle"},
		Weights: []float64{1, 1, 1},
	})
	warm := 30000
	for _, ev := range events[:warm] {
		eng.Process(ev)
	}
	// matches counts the measured (second) pass only.
	const runs = 7000
	i := warm
	avg := allocsPerEvent(runs, func() {
		if i == warm+runs {
			matches = 0
		}
		eng.Process(events[i])
		i++
	})
	if matches == 0 {
		t.Fatal("measured region produced no matches; test is vacuous")
	}
	// The steady-state path itself is allocation-free (see the tests
	// above); what remains is materializing matches for the emit callback,
	// which is real output: three allocations per emitted match (the
	// Match, its Fields and one backing array for the single-event
	// fields), plus a per-event slack small enough that one extra
	// allocation per match at this match rate (~0.11/event) fails.
	matchRate := float64(matches) / runs
	budget := 0.05 + 3*matchRate
	if avg > budget {
		t.Fatalf("serving path allocates %.2f allocs/event, budget %.2f (%.3f matches/event)", avg, budget, matchRate)
	}
}

// TestRouterDeliverySteadyStateZeroAllocs pins the PR 3 invariant: the
// routed delivery path — classify a batch, deliver per-engine mini-batches
// through the pre-admitted fast path — allocates nothing per event in
// steady state, just like direct Process ingest.
func TestRouterDeliverySteadyStateZeroAllocs(t *testing.T) {
	r := router.New()
	engines := map[int64]*core.Engine{}
	for i := 0; i < 16; i++ {
		q := query.MustParse(fmt.Sprintf(`
			PATTERN A; B
			WHERE A.name = 'S%02d' AND A.price > 50 AND B.name = 'S%02d'
			  AND B.price < A.price - 1000000
			WITHIN 200 units`, i%8, i%8))
		eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		engines[int64(i)] = eng
		r.Add(int64(i), q.Info, eng)
	}
	names := make([]string, 8)
	weights := make([]float64, 8)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
		weights[i] = 1
	}
	events := workload.GenStocks(workload.StockSpec{N: gateStream, Seed: 5, Names: names, Weights: weights})
	deliver := func(evs []*event.Event) {
		for _, sb := range r.Route(evs) {
			eng := sb.Payload.(*core.Engine)
			for _, d := range sb.Events {
				eng.ProcessAdmitted(d.Ev, d.Mask)
			}
		}
	}
	deliver(events[:gateWarm])
	i := gateWarm
	avg := allocsPerEvent(gatePass, func() {
		deliver(events[i : i+1])
		i++
	})
	if avg > zeroAllocBudget {
		t.Fatalf("routed steady-state delivery allocates %.4f allocs/event, want <= %g", avg, zeroAllocBudget)
	}
	var processed uint64
	for _, eng := range engines {
		processed += eng.Snapshot().Events
	}
	if processed == 0 {
		t.Fatal("no engine received events; test is vacuous")
	}
}

// TestRuntimeIngestWALOffZeroAllocs pins the durability plane's zero-cost
// guarantee for runtimes that never opted in: with no WAL configured, the
// sharded runtime's steady-state ingest path — shard hash, pooled batch
// append, channel flush, worker dispatch, heartbeat merge — allocates
// nothing per event. Every WAL hook on the hot path hides behind one nil
// check.
func TestRuntimeIngestWALOffZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under -race")
	}
	rt := zstream.NewRuntime(zstream.WithShards(2), zstream.WithIngestBatch(64))
	cq := zstream.MustCompile(`
		PATTERN A; B
		WHERE A.name = B.name AND B.price > A.price + 1000000
		WITHIN 100 units`)
	if _, err := rt.Register(cq); err != nil {
		t.Fatal(err)
	}
	events := allocStream(gateStream, 0.5)
	for _, ev := range events[:gateWarm] {
		if err := rt.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := gateWarm
	avg := allocsPerEvent(gatePass, func() {
		if err := rt.Ingest(events[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if avg > zeroAllocBudget {
		t.Fatalf("WAL-off runtime ingest allocates %.4f allocs/event, want <= %g", avg, zeroAllocBudget)
	}
	if st := rt.Stats(); st.WALEnabled || st.EventsIngested == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestRuntimeSharedFamilyZeroAllocs puts every kind of worker unit on the
// gated path: a prefix-sharing family (one solo group running the prefix
// privately, one shared producer and three consumer groups) plus two
// dedupe aliases, ingested through the indexed router and through the
// deliver-all router (Config.NaiveFanout). The partial-match-heavy prefix
// keeps the producer and its readers busy; the impossible final predicate
// keeps the workload match-free, so steady state must not allocate.
func TestRuntimeSharedFamilyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under -race")
	}
	for _, naive := range []bool{false, true} {
		t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) {
			rt := runtime.New(runtime.Config{Shards: 2, BatchSize: 64, NaiveFanout: naive})
			src := func(k int) *query.Query {
				return query.MustParse(fmt.Sprintf(`
					PATTERN A; B; C
					WHERE A.name = B.name AND B.name = C.name AND B.price < A.price
					  AND C.price > B.price + %d
					WITHIN 20 units`, 1000000+k))
			}
			for _, k := range []int{0, 1, 2, 3, 1, 1} {
				if _, err := rt.Register(src(k), core.Config{}, nil); err != nil {
					t.Fatal(err)
				}
			}
			st := rt.Stats()
			if st.LiveQueries != 6 || st.EngineGroups != 4 || st.SharedSubplans != 1 || st.SharedPrefixConsumers != 3 {
				t.Fatalf("sharing layout = %+v, want 6 queries, 4 groups, 1 producer, 3 consumers", st)
			}
			events := allocStream(gateStream, 0.5)
			for _, ev := range events[:gateWarm] {
				if err := rt.Ingest(ev); err != nil {
					t.Fatal(err)
				}
			}
			i := gateWarm
			avg := allocsPerEvent(gatePass, func() {
				if err := rt.Ingest(events[i]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			m := rt.Metrics()
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if avg > zeroAllocBudget {
				t.Fatalf("shared-family runtime ingest allocates %.4f allocs/event, want <= %g", avg, zeroAllocBudget)
			}
			if len(m.Producers) != 1 || m.Producers[0].Operators.Out == 0 {
				t.Fatalf("producer rows = %+v, want one producer with partial matches; test is vacuous", m.Producers)
			}
			if st := rt.Stats(); st.Engine.Matches != 0 {
				t.Fatalf("workload expected to be match-free, got %d matches", st.Engine.Matches)
			}
		})
	}
}
