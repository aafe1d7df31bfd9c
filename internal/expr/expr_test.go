package expr

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/event"
	"repro/internal/query"
)

// compileWhere parses a two/three-class query and compiles its first
// predicate.
func compileWhere(t *testing.T, src string) Predicate {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := CompilePred(q.Info.Preds[0].Cmp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func stock(ts int64, name string, price, vol float64) *event.Event {
	return event.NewStock(uint64(ts), ts, ts, name, price, vol)
}

func recOf(n int, class int, e *event.Event) *buffer.Record {
	return buffer.Leaf(e, class, n)
}

func TestPredicateComparisons(t *testing.T) {
	cases := []struct {
		src   string
		price float64
		want  bool
	}{
		{"PATTERN A;B WHERE A.price > 10 WITHIN 5", 11, true},
		{"PATTERN A;B WHERE A.price > 10 WITHIN 5", 10, false},
		{"PATTERN A;B WHERE A.price >= 10 WITHIN 5", 10, true},
		{"PATTERN A;B WHERE A.price < 10 WITHIN 5", 9, true},
		{"PATTERN A;B WHERE A.price <= 10 WITHIN 5", 10, true},
		{"PATTERN A;B WHERE A.price = 10 WITHIN 5", 10, true},
		{"PATTERN A;B WHERE A.price = 10 WITHIN 5", 10.5, false},
		{"PATTERN A;B WHERE A.price != 10 WITHIN 5", 10.5, true},
		{"PATTERN A;B WHERE A.price != 10 WITHIN 5", 10, false},
	}
	for _, c := range cases {
		p := compileWhere(t, c.src)
		env := EventEnv{Class: 0, E: stock(1, "IBM", c.price, 0)}
		if got := p(env); got != c.want {
			t.Errorf("%s with price=%v: got %v, want %v", c.src, c.price, got, c.want)
		}
	}
}

func TestPredicateStringEquality(t *testing.T) {
	p := compileWhere(t, "PATTERN A;B WHERE A.name = 'Google' WITHIN 5")
	if !p(EventEnv{Class: 0, E: stock(1, "Google", 1, 1)}) {
		t.Error("Google should match")
	}
	if p(EventEnv{Class: 0, E: stock(1, "IBM", 1, 1)}) {
		t.Error("IBM should not match")
	}
}

func TestPredicateMultiClass(t *testing.T) {
	p := compileWhere(t, "PATTERN A;B WHERE A.price > 1.05 * B.price WITHIN 5")
	a := recOf(2, 0, stock(1, "IBM", 106, 0))
	b := recOf(2, 1, stock(2, "Google", 100, 0))
	if !p(PairEnv{L: a, R: b}) {
		t.Error("106 > 105 should hold")
	}
	b2 := recOf(2, 1, stock(2, "Google", 101, 0))
	if p(PairEnv{L: a, R: b2}) {
		t.Error("106 > 106.05 should not hold")
	}
}

func TestPredicateNullSemantics(t *testing.T) {
	// unbound class -> null -> false, for every operator
	for _, src := range []string{
		"PATTERN A;B WHERE A.price > 0 WITHIN 5",
		"PATTERN A;B WHERE A.price < 99999 WITHIN 5",
		"PATTERN A;B WHERE A.price = 0 WITHIN 5",
		"PATTERN A;B WHERE A.price != 123 WITHIN 5",
		"PATTERN A;B WHERE A.name = 'x' WITHIN 5",
	} {
		p := compileWhere(t, src)
		env := EventEnv{Class: 1, E: stock(1, "IBM", 1, 1)} // class 0 unbound
		if p(env) {
			t.Errorf("%s: predicate true on unbound class", src)
		}
	}
}

func TestPredicateTypeMismatch(t *testing.T) {
	p := compileWhere(t, "PATTERN A;B WHERE A.name > 5 WITHIN 5")
	if p(EventEnv{Class: 0, E: stock(1, "IBM", 1, 1)}) {
		t.Error("string > number should be false")
	}
	p = compileWhere(t, "PATTERN A;B WHERE A.name != 5 WITHIN 5")
	if p(EventEnv{Class: 0, E: stock(1, "IBM", 1, 1)}) {
		t.Error("string != number should be false (incomparable)")
	}
}

func TestArithmetic(t *testing.T) {
	q := query.MustParse("PATTERN A;B WHERE A.price > (B.price + 3) * 2 - 1 / 1 WITHIN 5")
	p, err := CompilePred(q.Info.Preds[0].Cmp)
	if err != nil {
		t.Fatal(err)
	}
	// (10+3)*2 - 1 = 25
	a := recOf(2, 0, stock(1, "A", 26, 0))
	b := recOf(2, 1, stock(2, "B", 10, 0))
	if !p(PairEnv{L: a, R: b}) {
		t.Error("26 > 25 should hold")
	}
	a2 := recOf(2, 0, stock(1, "A", 25, 0))
	if p(PairEnv{L: a2, R: b}) {
		t.Error("25 > 25 should not hold")
	}
}

func TestDivisionByZero(t *testing.T) {
	q := query.MustParse("PATTERN A;B WHERE A.price / A.volume > 1 WITHIN 5")
	p, err := CompilePred(q.Info.Preds[0].Cmp)
	if err != nil {
		t.Fatal(err)
	}
	if p(EventEnv{Class: 0, E: stock(1, "A", 5, 0)}) {
		t.Error("division by zero should yield null -> false")
	}
	if !p(EventEnv{Class: 0, E: stock(1, "A", 5, 2)}) {
		t.Error("5/2 > 1 should hold")
	}
}

func TestTsPseudoAttribute(t *testing.T) {
	q := query.MustParse("PATTERN A;B WHERE B.ts - A.ts > 10 WITHIN 100")
	p, err := CompilePred(q.Info.Preds[0].Cmp)
	if err != nil {
		t.Fatal(err)
	}
	a := recOf(2, 0, stock(5, "A", 1, 1))
	b := recOf(2, 1, stock(20, "B", 1, 1))
	if !p(PairEnv{L: a, R: b}) {
		t.Error("20-5 > 10 should hold")
	}
	b2 := recOf(2, 1, stock(14, "B", 1, 1))
	if p(PairEnv{L: a, R: b2}) {
		t.Error("14-5 > 10 should not hold")
	}
}

func TestAggregates(t *testing.T) {
	q := query.MustParse("PATTERN A;B+;C WHERE sum(B.volume) > 0 WITHIN 100 RETURN A, sum(B.volume), avg(B.price), count(B), min(B.price), max(B.price)")
	group := []*event.Event{
		stock(1, "B", 10, 100),
		stock(2, "B", 20, 200),
		stock(3, "B", 30, 300),
	}
	rec := &buffer.Record{Slots: make([]buffer.Slot, 3), Start: 1, End: 3}
	rec.Slots[1] = buffer.Slot{Group: group}
	env := RecordEnv{R: rec}

	wants := []float64{600, 20, 3, 10, 30} // sum vol, avg price, count, min, max
	for i, item := range q.Return[1:] {
		ev, err := Compile(item.Expr)
		if err != nil {
			t.Fatal(err)
		}
		got := ev(env)
		if got.Kind != event.KindFloat || got.F != wants[i] {
			t.Errorf("return item %d (%s) = %v, want %v", i+1, item.Expr, got, wants[i])
		}
	}
}

func TestAggregateEmptyGroup(t *testing.T) {
	q := query.MustParse("PATTERN A;B*;C WHERE sum(B.volume) >= 0 WITHIN 100")
	rec := &buffer.Record{Slots: make([]buffer.Slot, 3)}
	env := RecordEnv{R: rec}

	sumE, _ := Compile(&query.Agg{Fn: query.AggSum, Arg: &query.AttrRef{Alias: "B", Attr: "volume", Class: 1}})
	if v := sumE(env); v.F != 0 || v.Kind != event.KindFloat {
		t.Errorf("sum over empty group = %v, want 0", v)
	}
	avgE, _ := Compile(&query.Agg{Fn: query.AggAvg, Arg: &query.AttrRef{Alias: "B", Attr: "price", Class: 1}})
	if v := avgE(env); !v.IsNull() {
		t.Errorf("avg over empty group = %v, want null", v)
	}
	cntE, _ := Compile(&query.Agg{Fn: query.AggCount, Arg: &query.AttrRef{Alias: "B", Class: 1}})
	if v := cntE(env); v.F != 0 {
		t.Errorf("count over empty group = %v, want 0", v)
	}
	_ = q
}

func TestAggregateOverSingleSlot(t *testing.T) {
	// Group() on a single-event slot returns a one-element group.
	rec := recOf(2, 0, stock(1, "A", 42, 7))
	cntE, _ := Compile(&query.Agg{Fn: query.AggCount, Arg: &query.AttrRef{Alias: "A", Class: 0}})
	if v := cntE(RecordEnv{R: rec}); v.F != 1 {
		t.Errorf("count over single slot = %v", v)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(&query.AttrRef{Alias: "X", Attr: "y", Class: -1}); err == nil {
		t.Error("unresolved ref compiled")
	}
	if _, err := Compile(&query.Agg{Fn: query.AggSum, Arg: &query.AttrRef{Alias: "X", Attr: "y", Class: -1}}); err == nil {
		t.Error("unresolved agg compiled")
	}
	if _, err := CompilePred(&query.Cmp{Op: query.CmpEq, L: &query.AttrRef{Class: -1}, R: &query.NumLit{V: 1}}); err == nil {
		t.Error("bad pred compiled")
	}
	if _, err := CompilePred(&query.Cmp{Op: query.CmpEq, L: &query.NumLit{V: 1}, R: &query.AttrRef{Class: -1}}); err == nil {
		t.Error("bad pred compiled")
	}
}

func TestCompilePreds(t *testing.T) {
	q := query.MustParse("PATTERN A;B WHERE A.price > 1 AND A.price < 10 WITHIN 5")
	all, err := CompilePreds([]*query.Cmp{q.Info.Preds[0].Cmp, q.Info.Preds[1].Cmp})
	if err != nil {
		t.Fatal(err)
	}
	if !all(EventEnv{Class: 0, E: stock(1, "A", 5, 0)}) {
		t.Error("5 in (1,10) should hold")
	}
	if all(EventEnv{Class: 0, E: stock(1, "A", 11, 0)}) {
		t.Error("11 in (1,10) should not hold")
	}
	empty, err := CompilePreds(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !empty(EventEnv{}) {
		t.Error("empty conjunction should be true")
	}
}

func TestCompileKey(t *testing.T) {
	e := stock(9, "IBM", 1, 1)
	if v := CompileKey("name")(e); !v.Equal(event.Str("IBM")) {
		t.Errorf("key(name) = %v", v)
	}
	if v := CompileKey("ts")(e); !v.Equal(event.Float(9)) {
		t.Errorf("key(ts) = %v", v)
	}
	if v := CompileKey("nope")(e); !v.IsNull() {
		t.Errorf("key(nope) = %v", v)
	}
}

func TestPairEnvPrefersLeft(t *testing.T) {
	a1 := recOf(2, 0, stock(1, "L", 1, 1))
	a2 := recOf(2, 0, stock(2, "R", 2, 2))
	env := PairEnv{L: a1, R: a2}
	if got := env.Event(0); got.Get("name").S != "L" {
		t.Errorf("PairEnv should prefer left slot, got %v", got)
	}
	if g := env.Group(0); len(g) != 1 || g[0].Get("name").S != "L" {
		t.Errorf("PairEnv.Group should prefer left slot, got %v", g)
	}
}

func TestEnvOutOfRange(t *testing.T) {
	rec := recOf(1, 0, stock(1, "A", 1, 1))
	env := RecordEnv{R: rec}
	if env.Event(5) != nil || env.Group(5) != nil {
		t.Error("out-of-range class should be unbound")
	}
	pe := PairEnv{L: rec, R: rec}
	if pe.Event(5) != nil || pe.Group(5) != nil {
		t.Error("out-of-range class should be unbound in PairEnv")
	}
}

// TestSlotInvalidationAcrossSchemas drives one compiled Evaluator, one
// Predicate, one aggregate and one CompileKey extractor with events that
// alternate between three schemas: the attribute at position 1, at
// position 3, and absent. Every result must match Event.Get, so a cached
// schema position is never applied to an event of another schema.
func TestSlotInvalidationAcrossSchemas(t *testing.T) {
	at1 := event.MustSchema("At1", "name", "price")
	at3 := event.MustSchema("At3", "id", "name", "volume", "price")
	none := event.MustSchema("None", "id", "name")
	q := query.MustParse("PATTERN A;B WHERE A.price > 10 WITHIN 5")
	cmp := q.Info.Preds[0].Cmp
	pred, err := CompilePred(cmp)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := Compile(cmp.L)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Compile(&query.Agg{Fn: query.AggSum, Arg: &query.AttrRef{Alias: "A", Attr: "price", Class: 0}})
	if err != nil {
		t.Fatal(err)
	}
	key := CompileKey("price")

	mk := []func(ts int64, price float64) *event.Event{
		func(ts int64, price float64) *event.Event {
			return event.MustNew(at1, ts, event.Str("IBM"), event.Float(price))
		},
		func(ts int64, price float64) *event.Event {
			return event.MustNew(at3, ts, event.Int(ts), event.Str("IBM"), event.Float(-price), event.Float(price))
		},
		func(ts int64, _ float64) *event.Event {
			return event.MustNew(none, ts, event.Int(ts), event.Str("IBM"))
		},
	}
	// Visit the schemas in an order where every schema follows every
	// other one, so each transition re-resolves the cached position.
	order := []int{0, 1, 2, 0, 2, 1, 1, 0, 0, 2, 2}
	for i, s := range order {
		price := float64(5 + 3*i) // crosses the threshold of 10
		ev := mk[s](int64(i), price)
		want := ev.Get("price")
		if want.IsNull() != (s == 2) {
			t.Fatalf("event %d: fixture Get(price) = %v", i, want)
		}
		env := EventEnv{Class: 0, E: ev}
		if got := eval(env); got != want {
			t.Errorf("event %d (schema %s): A.price = %v, want %v", i, ev.Schema.Name(), got, want)
		}
		wantPred := !want.IsNull() && want.F > 10
		if got := pred(env); got != wantPred {
			t.Errorf("event %d (schema %s): A.price > 10 = %v, want %v", i, ev.Schema.Name(), got, wantPred)
		}
		if got := key(ev); got != want {
			t.Errorf("event %d (schema %s): key(price) = %v, want %v", i, ev.Schema.Name(), got, want)
		}
		if got := sum(env); got != want {
			t.Errorf("event %d (schema %s): sum(A.price) = %v, want %v", i, ev.Schema.Name(), got, want)
		}
	}

	// One group mixing all three schemas: the aggregate re-resolves per
	// event inside a single evaluation, and the missing attribute makes the
	// whole aggregate null.
	group := []*event.Event{mk[0](1, 2), mk[1](2, 3), mk[0](3, 4)}
	rec := &buffer.Record{Slots: make([]buffer.Slot, 2)}
	rec.Slots[0] = buffer.Slot{Group: group}
	if got := sum(RecordEnv{R: rec}); got != event.Float(9) {
		t.Errorf("sum over mixed-schema group = %v, want 9", got)
	}
	rec.Slots[0].Group = append(group, mk[2](4, 0))
	if got := sum(RecordEnv{R: rec}); !got.IsNull() {
		t.Errorf("sum over group with a missing attribute = %v, want null", got)
	}
}
