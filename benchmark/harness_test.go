package main

import "testing"

// TestHarnessDigestsAgree runs each workload on a short stream through
// every path the benchmark compares: the reference engines, the ref.Find
// cross-check, a saturated and a paced runtime pass, and the layer replay.
// All must agree, so a run with failed = 0 means the harness itself is
// consistent.
func TestHarnessDigestsAgree(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			n := 6000
			if name == "threshold-scan" {
				n = w.crossPrefix // matching pairs are rare
			}
			w.streamLen, w.pacedLen = n, n/2
			b := &bench{w: w, workdir: t.TempDir()}
			if err := b.reference(); err != nil {
				t.Fatal(err)
			}
			if _, err := b.saturated(false); err != nil {
				t.Fatal(err)
			}
			if _, err := b.paced(); err != nil {
				t.Fatal(err)
			}
			if _, err := b.replay(); err != nil {
				t.Fatal(err)
			}
			if b.failed != 0 || b.attempted == 0 {
				t.Fatalf("failed %d of %d: %v", b.failed, b.attempted, b.problems)
			}
		})
	}
}
