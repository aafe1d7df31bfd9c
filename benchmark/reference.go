package main

import (
	"fmt"
	"sync"

	"repro"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/ref"
)

// refConfig is the reference engines' configuration: a fixed left-deep
// plan without hashing or adaptation, so neither the runtime's router,
// sharing and sharding nor the planner the workloads exercise sits on the
// reference path.
var refConfig = core.Config{Strategy: core.StrategyLeftDeep}

// referenceDigest computes the expected match digest of w's stream with one
// standalone core.Engine per query, outside any timed region, and the
// digest of the paced prefix: the matches whose End, the last event they
// contain, lies within its first w.pacedLen events. Each engine receives
// the events w.admits gives its query. Two goroutines split the queries.
func referenceDigest(w *workload, evs []*zstream.Event) (full, prefix *digest, err error) {
	qs := make([]*query.Query, len(w.queries))
	for i, src := range w.queries {
		q, err := query.Parse(src)
		if err != nil {
			return nil, nil, fmt.Errorf("reference: query %d: %w", i, err)
		}
		qs[i] = q
	}
	d, dp := newDigest(len(qs)), newDigest(len(qs))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < len(qs); i += 2 {
				// Each goroutine writes only its own queries' digest slots.
				eng, err := core.NewEngine(qs[i], refConfig, func(m *core.Match) {
					d.add(i, m)
					if m.End < int64(w.pacedLen) {
						dp.add(i, m)
					}
				})
				if err != nil {
					errs[part] = fmt.Errorf("reference: query %d: %w", i, err)
					return
				}
				for _, ev := range evs {
					if w.admits(i, ev) {
						eng.Process(ev)
					}
				}
				eng.Flush()
			}
		}(part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return d, dp, nil
}

// crossCheck compares, on the first n events, the reference path (an
// engine per query over its admitted events) against ref.Find's brute-force
// enumeration over the unrestricted prefix, for every stride-th query. It
// returns the number of keys found by one and not the other, and the
// number ref.Find found.
func crossCheck(w *workload, evs []*zstream.Event, n, stride int) (bad, keys int, err error) {
	if n > len(evs) {
		n = len(evs)
	}
	prefix := evs[:n]
	for i := 0; i < len(w.queries); i += stride {
		q, err := query.Parse(w.queries[i])
		if err != nil {
			return 0, 0, err
		}
		want, err := ref.Find(q, prefix)
		if err != nil {
			return 0, 0, fmt.Errorf("ref.Find query %d: %w", i, err)
		}
		keys += len(want)
		var got []string
		eng, err := core.NewEngine(q, refConfig, func(m *core.Match) { got = append(got, matchKey(m)) })
		if err != nil {
			return 0, 0, err
		}
		for _, ev := range prefix {
			if w.admits(i, ev) {
				eng.Process(ev)
			}
		}
		eng.Flush()
		bad += sortedDiff(got, want)
	}
	return bad, keys, nil
}
