package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro"
)

// A workload is everything one benchmark run feeds the system: the query
// texts and a stream generator, both derived from the seed alone. The
// system under test receives only the generated events and the query text.
type workload struct {
	name string
	// queries are the standing query texts, registered in this order.
	queries []string
	// source returns a fresh generator of the stream: successive calls of
	// the generator yield events 0, 1, 2, ... Every generator yields equal
	// events; each event may be handed to the system only once, because
	// Ingest and Process take ownership of the events they are given.
	source func() func() *zstream.Event
	// streamLen is the number of events in the stream; the saturated
	// passes ingest all of them.
	streamLen int
	// pacedLen is how many of the stream's first events a paced pass
	// sends, so that a pass at the paced rate lasts a few seconds.
	pacedLen int
	// admits reports whether an event can satisfy any class of query i,
	// judged by the benchmark's own reading of the constants it wrote into
	// the query. The reference feeds each standalone engine only these
	// events; the ref.Find cross-check confirms on a prefix that the
	// restriction changes no match (the queries have no negation or
	// closure, so an event no class admits cannot affect the result).
	admits func(i int, ev *zstream.Event) bool
	// crossPrefix and crossStride size the ref.Find cross-check: the
	// stream prefix it enumerates and the stride through the queries it
	// checks, chosen so every symbol and family is covered and brute-force
	// enumeration stays short.
	crossPrefix, crossStride int

	// runtime selects the sharded Runtime; otherwise one adaptive Engine.
	runtime bool
	// durable arms the write-ahead log (WithDurability, interval fsync).
	durable bool
	// rate is the paced phase's fixed input rate in events per second,
	// about a seventh of the saturated rate on a 2-core host, so that a
	// host running slower for a while does not queue the input. It is
	// quoted in the workload's "why" in BENCHMARK.json.
	rate float64
}

// events generates the whole stream.
func (w *workload) events() []*zstream.Event {
	next := w.source()
	out := make([]*zstream.Event, w.streamLen)
	for i := range out {
		out[i] = next()
	}
	return out
}

// workloadNames lists every workload the command runs. BENCHMARK.json
// lists all but adaptive-drift, whose set-up and retained-heap figures
// varied more between runs than the benchmark's bounds allow (README.md).
var workloadNames = []string{"shared-alerts", "threshold-scan", "durable-fanout", "adaptive-drift"}

// benchShards matches the 2-core host the benchmark is sized for.
const benchShards = 2

// newWorkload builds the named workload from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "shared-alerts":
		return sharedAlerts(seed), nil
	case "threshold-scan":
		return thresholdScan(seed), nil
	case "durable-fanout":
		return durableFanout(seed), nil
	case "adaptive-drift":
		return adaptiveDrift(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// symbols returns n symbol names S00, S01, ...
func symbols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("S%02d", i)
	}
	return out
}

// uniformStream generates stock events over syms with uniform symbol
// choice and uniform prices in [0,100). Timestamps advance one tick per
// event, so a match's End names its last contributing event, and Seq is
// pre-stamped as Ts+1 (what a runtime's ingest stamp would assign).
func uniformStream(seed int64, syms []string) func() func() *zstream.Event {
	return func() func() *zstream.Event {
		rng := rand.New(rand.NewSource(seed))
		i := 0
		return func() *zstream.Event {
			sym := syms[rng.Intn(len(syms))]
			ev := zstream.NewStock(uint64(i+1), int64(i), int64(i), sym, rng.Float64()*100, float64(1+rng.Intn(100)))
			i++
			return ev
		}
	}
}

func symbolOf(ev *zstream.Event) string { return ev.Vals[1].S }
func priceOf(ev *zstream.Event) float64 { return ev.Vals[2].F }

// sharedAlerts: 256 dip-then-spike alerts over 8 symbols. Per symbol, 32
// queries share the canonical A;B dip prefix and differ only in the C
// spike threshold, so each symbol's family shares one producer. Every
// class pins the partition key to one constant.
func sharedAlerts(seed int64) *workload {
	const nq, nsym = 256, 8
	syms := symbols(nsym)
	qs := make([]string, nq)
	for i := range qs {
		sym := syms[i%nsym]
		th := 96 + float64(i/nsym)*0.03125
		qs[i] = fmt.Sprintf(`PATTERN A; B; C
WHERE A.name = '%s' AND A.price > 45
  AND B.name = '%s' AND B.price < A.price - 85
  AND C.name = '%s' AND C.price > %g
WITHIN 100 units`, sym, sym, sym, th)
	}
	return &workload{
		name:      "shared-alerts",
		queries:   qs,
		source:    uniformStream(seed, syms),
		streamLen: 200_000,
		admits:    func(i int, ev *zstream.Event) bool { return symbolOf(ev) == syms[i%nsym] },
		runtime:   true,
		rate:      40_000,
		pacedLen:  120_000,
		// 2000 events, 29 queries covering all 8 symbols and 29 families.
		crossPrefix: 2000, crossStride: 9,
	}
}

// thresholdScan: 1024 two-class band alerts with pairwise-distinct
// constants. Each class admits prices in its own band of width 100/1024;
// the A bands partition [0,100), and so do the B bands, so every event is
// admitted by one query as A and one as B. The router's sorted-threshold
// stab on each band's lower bound, with the upper bound checked per
// candidate, does nearly all the per-event work, and the engines are
// nearly idle. Each query equates the partition key across its classes.
func thresholdScan(seed int64) *workload {
	const nq = 1024
	// bands[i] holds query i's A and B bands as [lo, hi) pairs, parsed
	// back from the text the query carries so admits agrees with it
	// exactly.
	bands := make([][2][2]float64, nq)
	qs := make([]string, nq)
	for i := range qs {
		var text [2][2]string
		for c, k := range [2]int{i, (i + nq/2) % nq} {
			text[c][0] = fmt.Sprintf("%.6f", float64(k)*100/nq)
			text[c][1] = fmt.Sprintf("%.6f", float64(k+1)*100/nq)
			for e := range text[c] {
				bands[i][c][e], _ = strconv.ParseFloat(text[c][e], 64)
			}
		}
		qs[i] = fmt.Sprintf(`PATTERN A; B
WHERE A.name = B.name AND A.price >= %s AND A.price < %s
  AND B.price >= %s AND B.price < %s
WITHIN 320 units`, text[0][0], text[0][1], text[1][0], text[1][1])
	}
	return &workload{
		name:      "threshold-scan",
		queries:   qs,
		source:    uniformStream(seed, symbols(8)),
		streamLen: 200_000,
		admits: func(i int, ev *zstream.Event) bool {
			p := priceOf(ev)
			for _, b := range bands[i] {
				if p >= b[0] && p < b[1] {
					return true
				}
			}
			return false
		},
		runtime:  true,
		rate:     20_000,
		pacedLen: 80_000,
		// 32 queries whose bands are spread over [0,100).
		crossPrefix: 40_000, crossStride: 33,
	}
}

// durableFanout: 256 per-symbol `name = const` dip alerts over 64 symbols
// with the write-ahead log on. Each event reaches four light engines, so
// the log append per ingest flush and its periodic fsync dominate.
func durableFanout(seed int64) *workload {
	const nq, nsym = 256, 64
	syms := symbols(nsym)
	qs := make([]string, nq)
	for i := range qs {
		sym := syms[i%nsym]
		drop := 60 + 10*((i/nsym)%4)
		qs[i] = fmt.Sprintf(`PATTERN A; B
WHERE A.name = '%s' AND B.name = '%s' AND B.price < A.price - %d
WITHIN 50 units`, sym, sym, drop)
	}
	return &workload{
		name:        "durable-fanout",
		queries:     qs,
		source:      uniformStream(seed, syms),
		streamLen:   300_000,
		admits:      func(i int, ev *zstream.Event) bool { return symbolOf(ev) == syms[i%nsym] },
		runtime:     true,
		durable:     true,
		rate:        25_000,
		pacedLen:    100_000,
		crossPrefix: 5000, crossStride: 9,
	}
}

// query6 is the paper's Query 6 (§6.2).
const query6 = `PATTERN IBM; Sun; Oracle; Google
WHERE IBM.name = 'IBM' AND Sun.name = 'Sun'
  AND Oracle.name = 'Oracle' AND Google.name = 'Google'
  AND Oracle.price > Sun.price
  AND Oracle.price > Google.price
WITHIN 100 units`

// driftRegime is one of the three §6.2 parameter regimes: relative rates
// of IBM, Sun, Oracle and Google, and the selectivities of
// Oracle.price > Sun.price and Oracle.price > Google.price, realized by
// pinning Sun's or Google's price to 100*(1-sel) while Oracle's is uniform.
type driftRegime struct {
	weights     [4]float64
	sun, google float64
}

var driftRegimes = [3]driftRegime{
	{[4]float64{1, 100, 100, 100}, 1, 1},
	{[4]float64{1, 1, 1, 1}, 1.0 / 50, 1},
	{[4]float64{1, 1, 1, 1}, 1, 1.0 / 50},
}

var driftNames = [4]string{"IBM", "Sun", "Oracle", "Google"}

// driftSegment is the regime length in events; the stream cycles through
// the three regimes driftCycles times.
const (
	driftSegment = 10_000
	driftCycles  = 2
)

// adaptiveDrift: Query 6 on one adaptive Engine over a stream that cycles
// through the three §6.2 regimes, forcing the planner to switch plans.
func adaptiveDrift(seed int64) *workload {
	source := func() func() *zstream.Event {
		rng := rand.New(rand.NewSource(seed))
		i := 0
		return func() *zstream.Event {
			r := driftRegimes[(i/driftSegment)%3]
			total := r.weights[0] + r.weights[1] + r.weights[2] + r.weights[3]
			x := rng.Float64() * total
			k := 0
			for acc := r.weights[0]; x >= acc && k < 3; {
				k++
				acc += r.weights[k]
			}
			price := rng.Float64() * 100
			switch k {
			case 1:
				price = 100 * (1 - r.sun)
			case 3:
				price = 100 * (1 - r.google)
			}
			ev := zstream.NewStock(uint64(i+1), int64(i), int64(i), driftNames[k], price, float64(1+rng.Intn(100)))
			i++
			return ev
		}
	}
	return &workload{
		name:      "adaptive-drift",
		queries:   []string{query6},
		source:    source,
		streamLen: 3 * driftSegment * driftCycles,
		admits:    func(int, *zstream.Event) bool { return true },
		rate:      6_000,
		pacedLen:  3 * driftSegment,
		// Query 6 matches densely; brute-force enumeration grows fast.
		crossPrefix: 600, crossStride: 1,
	}
}
