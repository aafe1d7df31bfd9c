// Command benchmark is the repository's end-to-end benchmark. It generates
// one workload from a seed, drives the public zstream API from one
// process, checks every match against an independent reference, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object.
//
//	go run . --workload shared-alerts --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it makes a separate traced run and reports per-layer
// metrics (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for write-ahead logs and the span dump")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, workdir string) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	b := &bench{w: w, workdir: workdir}
	if err := b.reference(); err != nil {
		return err
	}
	m := metrics{}
	if traced {
		err = b.traced(m)
	} else {
		err = b.endToEnd(m, seconds)
	}
	if err != nil {
		return err
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", p)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	out, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// reference computes the expected digest and cross-checks the reference
// path against ref.Find, outside every timed region.
func (b *bench) reference() error {
	evs := b.w.events()
	ref, refPaced, err := referenceDigest(b.w, evs)
	if err != nil {
		return err
	}
	b.ref, b.refPaced = ref, refPaced
	bad, keys, err := crossCheck(b.w, evs, b.w.crossPrefix, b.w.crossStride)
	if err != nil {
		return err
	}
	if keys == 0 {
		return fmt.Errorf("workload %s: the ref.Find cross-check found no matches to compare", b.w.name)
	}
	b.attempted += uint64(bad)
	if bad > 0 {
		b.fail(uint64(bad), "reference engines and ref.Find disagree on %d keys", bad)
	}
	if ref.total() == 0 {
		return fmt.Errorf("workload %s produced no reference matches", b.w.name)
	}
	return nil
}

// Shares of --seconds given to the saturated and paced phases.
const (
	saturatedShare = 0.4
	pacedShare     = 0.6
	minSatPasses   = 3
	minPacedPasses = 2
)

// endToEnd measures the end-to-end metrics, untraced.
func (b *bench) endToEnd(m metrics, seconds float64) error {
	var eps, restarts, lat, heaps []float64
	t0 := time.Now()
	for len(eps) < minSatPasses || time.Since(t0).Seconds() < saturatedShare*seconds {
		r, err := b.saturated(false)
		if err != nil {
			return err
		}
		eps = append(eps, r.eventsPerS)
		if r.recover != nil {
			restarts = append(restarts, r.restart.Seconds())
		}
	}
	passes := int(pacedShare*seconds*b.w.rate/float64(b.w.pacedLen) + 0.5)
	if passes < minPacedPasses {
		passes = minPacedPasses
	}
	for k := 0; k < passes; k++ {
		r, err := b.paced()
		if err != nil {
			return err
		}
		lat = append(lat, r.latencyMs...)
		heaps = append(heaps, r.retainedMB)
		if r.recovered {
			restarts = append(restarts, r.restart.Seconds())
		}
	}
	setups, restarts, err := b.setupSamples(restarts)
	if err != nil {
		return err
	}
	// The latency median pools every paced pass's samples. The p99 is a
	// per-layer metric of the traced run: on a shared 2-core host its
	// run-to-run spread exceeds any bound an end-to-end metric may have.
	samples := len(lat)
	p50, err := tailPercentile(lat, 50)
	if err != nil {
		return err
	}
	m.set("events_per_s", median(eps), "1/s")
	m.set("latency_p50_ms", p50, "ms")
	m.set("setup_s", median(setups), "s")
	m.set("retained_heap_mb", median(heaps), "MB")
	m.set("recover_s", median(restarts), "s")
	fmt.Printf("# %s: %d saturated passes, %d paced passes at %.0f events/s, %d latency samples, %d set-ups, reference %s\n",
		b.w.name, len(eps), passes, b.w.rate, samples, len(setups), b.ref)
	return nil
}
