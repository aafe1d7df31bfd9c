package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestSupportedPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if v, err := tailPercentile(xs, 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %g, %v; want 990", v, err)
	}
	if v, err := tailPercentile(xs, 50); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %g, %v; want 500", v, err)
	}
	if _, err := tailPercentile(xs[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples has fewer than ten beyond it, want an error")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"events_per_s", "core.round_us_p50", "wal.append-us", "9lives"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".lead", "has space", "slash/name", "pct%", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("metrics.set accepted a bad name")
		}
	}()
	metrics{}.set("bad name", 1, "ms")
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: every
// metric name is in the charset, every listed workload exists, and each
// workload's reason quotes its paced rate.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Fatalf("%d workloads in BENCHMARK.json, want at least two", len(spec.Workloads))
	}
	for _, wl := range spec.Workloads {
		w, err := newWorkload(wl.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rate := fmt.Sprintf("paced at %gk events/s", w.rate/1000); !strings.Contains(wl.Why, rate) {
			t.Errorf("%s: why %q does not quote %q", wl.Name, wl.Why, rate)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric %q outside the charset", m.Name)
		}
	}
}
