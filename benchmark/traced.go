package main

import (
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/wal"
)

// tracedPairs is how many untraced and traced saturated passes the traced
// run interleaves to price the tracing.
const tracedPairs = 2

// traced makes the per-layer run. It times the public calls of traced
// saturated and paced passes, replays the same stream through the
// internal layers' exported functions on one goroutine, and reports
// per-layer counts, times and self times. Its length is set by this fixed
// set of passes, not by --seconds. The end-to-end metrics are not reported
// here: they come from untraced runs.
func (b *bench) traced(m metrics) error {
	var plain, withSpans []float64
	var sat *satResult
	var satTrace *tracer
	for k := 0; k < tracedPairs; k++ {
		r, err := b.saturated(false)
		if err != nil {
			return err
		}
		plain = append(plain, r.eventsPerS)
		b.tr = newTracer()
		last := k == tracedPairs-1
		r, err = b.saturated(last)
		if err != nil {
			return err
		}
		withSpans = append(withSpans, r.eventsPerS)
		if last {
			sat, satTrace = r, b.tr
		}
		b.tr = nil
	}
	if sat.logDir != "" {
		defer os.RemoveAll(sat.logDir)
	}
	m.set("bench.trace_overhead_pct", 100*(1-median(withSpans)/median(plain)), "%")

	// Paced passes with every Ingest call timed.
	pacedTrace := newTracer()
	b.tr = pacedTrace
	var late, lat []float64
	// On a runtime, enough passes that the flush-boundary calls support a
	// p99.
	passes := minPacedPasses
	if b.w.runtime {
		passes = max(passes, (100*tailSamples*batchSize+b.w.pacedLen-1)/b.w.pacedLen)
	}
	for k := 0; k < passes; k++ {
		r, err := b.paced()
		if err != nil {
			return err
		}
		late = append(late, r.lateMs...)
		lat = append(lat, r.latencyMs...)
	}
	b.tr = nil

	rp, err := b.replay()
	if err != nil {
		return err
	}
	events := float64(b.w.streamLen)
	perEvent := func(x float64) float64 { return x / events }

	// query and runtime: public calls of the traced saturated pass.
	sum := func(t *tracer, name string) float64 {
		var s float64
		for _, d := range t.durations(name, "") {
			s += d
		}
		return s
	}
	m.set("query.compile_ms", sum(satTrace, "query.compile")/1e6, "ms")
	m.set("runtime.register_ms", sum(satTrace, "runtime.register")/1e6, "ms")
	m.set("runtime.close_ms", sum(satTrace, "runtime.close")/1e6, "ms")
	// setTail reports a p50 or p99 timing; a layer the workload does not
	// exercise reports 0.
	setTail := func(name string, exercised bool, xs []float64, scale float64, unit string) error {
		if !exercised {
			m.set(name, 0, unit)
			return nil
		}
		p := 50.0
		if strings.HasSuffix(name, "_p99") {
			p = 99
		}
		v, err := tailPercentile(xs, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.set(name, v*scale, unit)
		return nil
	}
	ingest := pacedTrace.durations("runtime.ingest", "")
	flush := pacedTrace.durations("runtime.ingest", "flush")
	for _, t := range []struct {
		name string
		xs   []float64
	}{
		{"runtime.ingest_us_p50", ingest}, {"runtime.ingest_us_p99", ingest},
		{"runtime.flush_us_p50", flush}, {"runtime.flush_us_p99", flush},
	} {
		if err := setTail(t.name, b.w.runtime, t.xs, 1e-3, "us"); err != nil {
			return err
		}
	}
	st := sat.stats
	m.set("runtime.deliveries_per_event", perEvent(float64(st.EngineDeliveries)), "count")
	m.set("runtime.matches_per_event", perEvent(float64(st.MatchesDelivered)), "count")

	// router: the runtime's own counters, the replay's time and yield.
	m.set("router.route_ns_per_event", perEvent(float64(rp.routeNs)), "ns")
	m.set("router.deliveries_per_event", perEvent(float64(sat.router.Deliveries)), "count")
	m.set("router.residual_evals_per_event", perEvent(float64(sat.router.ResidualEvals)), "count")
	m.set("router.range_probes_per_event", perEvent(float64(sat.router.RangeProbes)), "count")
	m.set("router.delivery_yield", ratio(float64(rp.leafPassed), float64(rp.deliveries)), "ratio")

	// core: the replay's engine calls, plus the runtime's engine counters.
	eng := st.Engine
	if !b.w.runtime {
		eng = sat.engStats
	}
	m.set("core.feed_ns_per_delivery", ratio(float64(rp.feedNs), float64(rp.engineDeliveries)), "ns")
	m.set("core.round_us_p50", percentile(rp.roundUs, 50), "us")
	m.set("core.rounds_per_kevent", 1000*perEvent(float64(eng.Rounds)), "count")
	m.set("core.allocs_per_event", perEvent(float64(rp.coreAllocs)), "count")
	m.set("core.allocs_per_match", ratio(float64(rp.coreAllocs), float64(rp.digest.total())), "count")
	m.set("core.plan_switches", float64(eng.PlanSwitches), "count")
	m.set("core.peak_mem_mb", float64(eng.PeakMemBytes)/(1<<20), "MB")

	// operator: join work inside engines and producers (leaves excluded).
	m.set("operator.records_in_per_event", perEvent(float64(rp.opIn)), "count")
	m.set("operator.records_out_per_event", perEvent(float64(rp.opOut)), "count")
	m.set("operator.join_yield", ratio(float64(rp.opOut), float64(rp.opIn)), "ratio")

	// producer: shared-prefix subplans.
	m.set("producer.process_ns_per_event", perEvent(float64(rp.prodNs)), "ns")
	m.set("producer.assemble_us_p50", percentile(rp.assembleUs, 50), "us")
	m.set("producer.records_per_event", perEvent(float64(rp.prodRecords)), "count")

	// wal: replayed appends, the runtime's writer counters, a scan of the
	// traced pass's log and its recovery report.
	if err := setTail("wal.append_us_p50", b.w.durable, rp.appendUs, 1, "us"); err != nil {
		return err
	}
	if err := setTail("wal.append_us_p99", b.w.durable, rp.appendUs, 1, "us"); err != nil {
		return err
	}
	m.set("wal.fsyncs_per_kevent", 1000*perEvent(float64(st.WAL.Fsyncs)), "count")
	m.set("wal.bytes_per_event", perEvent(float64(st.WAL.Bytes)), "B")
	var scanMs, replayed float64
	if sat.logDir != "" {
		sp := rp.tr.begin("wal.scan", 0, 0)
		t0 := time.Now()
		if _, err := wal.Scan(sat.logDir); err != nil {
			return fmt.Errorf("wal scan: %w", err)
		}
		scanMs = float64(time.Since(t0)) / 1e6
		rp.tr.end(sp)
		replayed = float64(sat.recover.ReplayedEvents)
	}
	m.set("wal.scan_ms", scanMs, "ms")
	m.set("wal.replayed_events", replayed, "count")

	opt, err := b.optimizeTimes(rp.tr)
	if err != nil {
		return err
	}
	m.set("optimizer.optimize_us", median(opt), "us")

	lateP99, err := tailPercentile(late, 99)
	if err != nil {
		return err
	}
	m.set("bench.generator_late_p99_ms", lateP99, "ms")
	m.set("bench.latency_samples", float64(len(lat)), "count")
	latP99, err := tailPercentile(lat, 99)
	if err != nil {
		return fmt.Errorf("latency_p99_ms: %w", err)
	}
	m.set("latency_p99_ms", latP99, "ms")
	m.set("ops_failed_ratio", ratio(float64(b.failed), float64(b.attempted)), "ratio")

	// Self times per layer: query and runtime from the public calls of the
	// traced saturated pass, every other layer from the replay.
	self := map[string]time.Duration{}
	for i, t := range []*tracer{satTrace, rp.tr} {
		for name, d := range selfTimes(t.spans) {
			layer := strings.SplitN(name, ".", 2)[0]
			if public := layer == "query" || layer == "runtime"; public == (i == 0) {
				self[layer] += d
			}
		}
	}
	for _, layer := range []string{"query", "runtime", "router", "core", "producer", "wal", "optimizer"} {
		m.set(layer+".self_ms", float64(self[layer])/1e6, "ms")
	}

	for _, t := range []struct {
		name string
		tr   *tracer
	}{{"runtime", satTrace}, {"paced", pacedTrace}, {"replay", rp.tr}} {
		path := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-%s.jsonl", b.w.name, t.name))
		if err := t.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Printf("# %s traced: replay digest %s, reference %s; spans in %s\n", b.w.name, rp.digest, b.ref, b.workdir)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocCounter reads the process's cumulative heap allocation count
// without stopping the world.
type allocCounter struct{ s []rtmetrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"},
	}}
}

func (a *allocCounter) read() uint64 {
	rtmetrics.Read(a.s)
	var n uint64
	for _, s := range a.s {
		if s.Value.Kind() == rtmetrics.KindUint64 {
			n += s.Value.Uint64()
		}
	}
	return n
}

// optimizeTimes runs Algorithm 5 on every query under the statistics the
// workload implies, returning each call's time in microseconds. Query 6
// is optimized once per §6.2 regime; the standing queries under uniform
// statistics.
func (b *bench) optimizeTimes(tr *tracer) ([]float64, error) {
	var out []float64
	timeOne := func(q *query.Query, st *cost.Stats) error {
		sp := tr.begin("optimizer.optimize", 0, 0)
		t0 := time.Now()
		_, err := optimizer.Optimize(q, st, true)
		out = append(out, float64(time.Since(t0))/1e3)
		tr.end(sp)
		return err
	}
	for _, src := range b.w.queries {
		q, err := query.Parse(src)
		if err != nil {
			return nil, err
		}
		if b.w.runtime {
			if err := timeOne(q, cost.UniformStats(q.Info, q.Within, 1)); err != nil {
				return nil, err
			}
			continue
		}
		for _, r := range driftRegimes {
			if err := timeOne(q, regimeStats(q, r)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// regimeStats is Query 6's statistics under one regime: class rates in
// proportion to the regime's weights and the two join selectivities.
func regimeStats(q *query.Query, r driftRegime) *cost.Stats {
	st := cost.UniformStats(q.Info, q.Within, 0)
	total := r.weights[0] + r.weights[1] + r.weights[2] + r.weights[3]
	for i, c := range q.Info.Classes {
		for k, name := range driftNames {
			if c.Alias == name {
				st.Rate[i] = r.weights[k] / total
			}
		}
	}
	for i, p := range q.Info.Preds {
		if p.Single() {
			continue
		}
		switch p.Cmp.String() {
		case "Oracle.price > Sun.price":
			st.PredSel[i] = r.sun
		case "Oracle.price > Google.price":
			st.PredSel[i] = r.google
		}
	}
	return st
}
