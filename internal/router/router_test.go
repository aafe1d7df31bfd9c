package router

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/query"
)

func info(t *testing.T, src string) *query.Info {
	t.Helper()
	return query.MustParse(src).Info
}

// routeOne routes a single event and returns the delivered masks by sub id.
func routeOne(r *Router, ev *event.Event) map[int64]uint64 {
	out := map[int64]uint64{}
	for _, sb := range r.Route([]*event.Event{ev}) {
		for _, d := range sb.Events {
			out[sb.ID] = d.Mask
		}
	}
	return out
}

func TestEqualityDispatch(t *testing.T) {
	r := New()
	for i, sym := range []string{"IBM", "Sun", "Oracle"} {
		r.Add(int64(i), info(t, fmt.Sprintf(
			`PATTERN A; B WHERE A.name = '%s' AND B.name = '%s' AND B.price > A.price WITHIN 10`, sym, sym)), nil)
	}
	got := routeOne(r, event.NewStock(1, 1, 1, "Sun", 50, 1))
	if len(got) != 1 || got[1] != 0b11 {
		t.Fatalf("Sun event delivered to %v, want {1: 0b11}", got)
	}
	if got := routeOne(r, event.NewStock(2, 2, 1, "Google", 50, 1)); len(got) != 0 {
		t.Fatalf("Google event delivered to %v, want nothing", got)
	}
	st := r.Stats()
	if st.Events != 2 || st.Deliveries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestResidualDedupe(t *testing.T) {
	r := New()
	// 8 queries over different symbols share the identical residual
	// "price * volume > 90" on both classes (different aliases, same
	// fingerprint; the arithmetic keeps it off the range-dispatch path).
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf(`PATTERN L%d; H%d WHERE L%d.name = 'S%d' AND L%d.price * L%d.volume > 90
			AND H%d.name = 'S%d' AND H%d.price * H%d.volume > 90 WITHIN 10`, i, i, i, i, i, i, i, i, i, i)
		r.Add(int64(i), info(t, src), nil)
	}
	if n := len(r.atomBy); n != 1 {
		t.Fatalf("distinct residual atoms = %d, want 1 (deduped)", n)
	}
	r.Route([]*event.Event{event.NewStock(1, 1, 1, "S3", 95, 1)})
	st := r.Stats()
	if st.ResidualEvals != 1 {
		t.Errorf("residual evals = %d, want 1 (once per event, not per query)", st.ResidualEvals)
	}
	if st.Deliveries != 1 {
		t.Errorf("deliveries = %d, want 1", st.Deliveries)
	}
	// below the price threshold: dispatch hits S3's entries, residual fails
	r.Route([]*event.Event{event.NewStock(2, 2, 1, "S3", 50, 1)})
	if st := r.Stats(); st.Deliveries != 1 {
		t.Errorf("low-price event delivered, deliveries = %d", st.Deliveries)
	}
}

func TestResidualOnlyScanAndMask(t *testing.T) {
	r := New()
	r.Add(1, info(t, `PATTERN A; B WHERE A.price > 90 AND B.price < 10 WITHIN 10`), nil)
	if got := routeOne(r, event.NewStock(1, 1, 1, "X", 95, 1)); got[1] != 0b01 {
		t.Errorf("high-price mask = %b, want 01", got[1])
	}
	if got := routeOne(r, event.NewStock(2, 2, 1, "X", 5, 1)); got[1] != 0b10 {
		t.Errorf("low-price mask = %b, want 10", got[1])
	}
	if got := routeOne(r, event.NewStock(3, 3, 1, "X", 50, 1)); len(got) != 0 {
		t.Errorf("mid-price delivered %v, want nothing", got)
	}
}

func TestAlwaysAdmittedClassDegradesToFullDelivery(t *testing.T) {
	r := New()
	// B has no single-class predicate: every event must reach the query
	// with B's bit set (the documented O(Q) degradation).
	r.Add(1, info(t, `PATTERN A; B WHERE A.name = 'IBM' WITHIN 10`), nil)
	if got := routeOne(r, event.NewStock(1, 1, 1, "Sun", 50, 1)); got[1] != 0b10 {
		t.Errorf("Sun mask = %b, want 10 (B only)", got[1])
	}
	if got := routeOne(r, event.NewStock(2, 2, 1, "IBM", 50, 1)); got[1] != 0b11 {
		t.Errorf("IBM mask = %b, want 11", got[1])
	}
}

func TestManyClassFallback(t *testing.T) {
	var names []string
	for i := 0; i < 65; i++ {
		names = append(names, fmt.Sprintf("C%d", i))
	}
	src := "PATTERN " + strings.Join(names, "; ") + " WHERE C0.name = 'IBM' WITHIN 1000"
	r := New()
	r.Add(1, info(t, src), nil)
	if got := routeOne(r, event.NewStock(1, 1, 1, "Sun", 50, 1)); got[1] != MaskAll {
		t.Errorf("65-class query mask = %x, want MaskAll", got[1])
	}
}

func TestTsEqualityStaysResidual(t *testing.T) {
	r := New()
	r.Add(1, info(t, `PATTERN A; B WHERE A.ts = 5 WITHIN 10`), nil)
	if got := routeOne(r, event.NewStock(1, 5, 1, "X", 50, 1)); got[1] != 0b11 {
		t.Errorf("ts=5 event mask = %b, want 11", got[1])
	}
	if got := routeOne(r, event.NewStock(2, 6, 1, "X", 50, 1)); got[1] != 0b10 {
		t.Errorf("ts=6 event mask = %b, want 10", got[1])
	}
}

func TestSchemaLazinessAndMissingAttr(t *testing.T) {
	r := New()
	r.Add(1, info(t, `PATTERN A; B WHERE A.price > 90 AND B.ip = '1.2.3.4' WITHIN 10`), nil)
	// Stock schema has no "ip": B's eq atom can never hold there.
	if got := routeOne(r, event.NewStock(1, 1, 1, "X", 95, 1)); got[1] != 0b01 {
		t.Errorf("stock mask = %b, want 01", got[1])
	}
	// Weblog has no "price": A's residual evaluates against null → false.
	if got := routeOne(r, event.NewWeblog(2, 2, "1.2.3.4", "/", "x")); got[1] != 0b10 {
		t.Errorf("weblog mask = %b, want 10", got[1])
	}
	if len(r.tables) != 2 {
		t.Errorf("compiled tables = %d, want 2 (one per schema seen)", len(r.tables))
	}
}

func TestRemoveReleasesAtomsAndStopsDelivery(t *testing.T) {
	r := New()
	r.Add(1, info(t, `PATTERN A; B WHERE A.name = 'IBM' AND A.price * A.volume > 90 AND B.name = 'IBM' WITHIN 10`), nil)
	r.Add(2, info(t, `PATTERN X; Y WHERE X.name = 'IBM' AND X.price * X.volume > 90 AND Y.name = 'IBM' WITHIN 10`), nil)
	if n := len(r.atomBy); n != 1 {
		t.Fatalf("atoms = %d, want 1 shared", n)
	}
	ev := event.NewStock(1, 1, 1, "IBM", 95, 1)
	if got := routeOne(r, ev); len(got) != 2 {
		t.Fatalf("delivered to %v, want both", got)
	}
	r.Remove(1)
	if got := routeOne(r, ev); len(got) != 1 || got[2] == 0 {
		t.Errorf("after remove delivered to %v, want only 2", got)
	}
	if n := len(r.atomBy); n != 1 {
		t.Errorf("atoms after partial remove = %d, want 1 (still referenced)", n)
	}
	r.Remove(2)
	if n := len(r.atomBy); n != 0 {
		t.Errorf("atoms after full remove = %d, want 0", n)
	}
	if r.Subs() != 0 {
		t.Errorf("subs = %d", r.Subs())
	}
}

// TestRouteSteadyStateZeroAllocs pins the routing hot path: once schema
// tables are compiled and scratch batches warmed, routing allocates
// nothing per event — in indexed mode and in deliver-all mode, whose
// subscribers share one delivery slice.
func TestRouteSteadyStateZeroAllocs(t *testing.T) {
	for _, all := range []bool{false, true} {
		t.Run(fmt.Sprintf("deliverAll=%v", all), func(t *testing.T) {
			r := New()
			if all {
				r.DeliverAll()
			}
			for i := 0; i < 64; i++ {
				r.Add(int64(i), info(t, fmt.Sprintf(
					`PATTERN A; B WHERE A.name = 'S%02d' AND A.price > 90 AND B.name = 'S%02d' WITHIN 10`, i%16, i%16)), nil)
			}
			// Pure threshold-family queries exercise the sorted-threshold stab path.
			for i := 0; i < 64; i++ {
				r.Add(int64(64+i), info(t, fmt.Sprintf(
					`PATTERN A; B WHERE A.price > %d AND A.price <= %d WITHIN 10`, i, i+10)), nil)
			}
			events := make([]*event.Event, 256)
			for i := range events {
				events[i] = event.NewStock(uint64(i+1), int64(i), 1, fmt.Sprintf("S%02d", i%16), float64(i%100), 1)
			}
			for i := 0; i < 4; i++ { // warm scratch
				r.Route(events)
			}
			avg := testing.AllocsPerRun(100, func() { r.Route(events) })
			if avg != 0 {
				t.Errorf("Route allocates %.2f per batch in steady state, want 0", avg)
			}
		})
	}
}

// TestDeliverAll pins the deliver-to-all mode the runtime's NaiveFanout
// uses: every subscriber — including one whose predicates reject every
// event — receives every event with MaskAll, in input order, subscribers
// in registration order, before and after a Remove.
func TestDeliverAll(t *testing.T) {
	r := New()
	r.DeliverAll()
	srcs := []string{
		`PATTERN A; B WHERE A.name = 'IBM' AND B.name = 'IBM' WITHIN 10`,
		`PATTERN A; B WHERE A.price > 1000 AND B.price > 1000 WITHIN 10`, // rejects all
		`PATTERN A; B WHERE A.price * A.volume > 5 WITHIN 10`,
	}
	for i, src := range srcs {
		r.Add(int64(10-i), info(t, src), i)
	}
	events := []*event.Event{
		event.NewStock(1, 1, 1, "IBM", 50, 1),
		event.NewStock(2, 2, 1, "Sun", 60, 1),
		event.NewStock(3, 3, 1, "IBM", 70, 1),
	}
	check := func(wantIDs []int64) {
		t.Helper()
		got := r.Route(events)
		if len(got) != len(wantIDs) {
			t.Fatalf("got %d sub-batches, want %d", len(got), len(wantIDs))
		}
		for i, sb := range got {
			if sb.ID != wantIDs[i] || sb.Payload != int(10-sb.ID) {
				t.Errorf("sub-batch %d = id %d payload %v, want id %d", i, sb.ID, sb.Payload, wantIDs[i])
			}
			if len(sb.Events) != len(events) {
				t.Fatalf("sub %d got %d deliveries, want %d", sb.ID, len(sb.Events), len(events))
			}
			for j, d := range sb.Events {
				if d.Ev != events[j] || d.Mask != MaskAll {
					t.Errorf("sub %d delivery %d = (%v, %#x), want event %d with MaskAll", sb.ID, j, d.Ev, d.Mask, j)
				}
			}
		}
	}
	check([]int64{10, 9, 8})
	r.Remove(9)
	check([]int64{10, 8})
	if got := r.Route(nil); len(got) != 0 {
		t.Errorf("empty batch yielded %d sub-batches, want 0", len(got))
	}

	si, ok := r.Describe(8)
	if !ok || !si.Fallback || si.Classes != nil || si.Events != 6 {
		t.Errorf("Describe = %+v, %v; want fallback with 6 events", si, ok)
	}
	if st := r.Stats(); st.Events != 6 || st.Deliveries != 3*3+3*2 || st.ResidualEvals != 0 {
		t.Errorf("stats = %+v, want 6 events, 15 deliveries, no residual evals", st)
	}
}
