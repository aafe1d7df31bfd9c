package main

import (
	"testing"

	"repro"
)

func testMatch(start, end int64, ts ...int64) *zstream.Match {
	m := &zstream.Match{Start: start, End: end}
	for i, x := range ts {
		ev := zstream.NewStock(uint64(x+1), x, x, "S00", 1, 1)
		m.Fields = append(m.Fields, zstream.Field{Name: string(rune('A' + i)), Events: []*zstream.Event{ev}})
	}
	return m
}

func TestDigestIsOrderInsensitive(t *testing.T) {
	ms := []*zstream.Match{testMatch(1, 5, 1, 5), testMatch(2, 5, 2, 5), testMatch(3, 9, 3, 9)}
	a, b := newDigest(2), newDigest(2)
	for i, m := range ms {
		a.add(i%2, m)
	}
	for i := len(ms) - 1; i >= 0; i-- {
		b.add(i%2, ms[i])
	}
	if a.String() != b.String() || a.mismatches(b) != 0 {
		t.Fatalf("order changed the digest: %s vs %s", a, b)
	}

	// A different field, query, missing or extra match is caught.
	c := newDigest(2)
	c.add(0, testMatch(1, 5, 1, 5))
	c.add(1, testMatch(2, 5, 2, 4))
	c.add(0, testMatch(3, 9, 3, 9))
	if c.mismatches(a) != 2 {
		t.Errorf("altered match: mismatches = %d, want 2", c.mismatches(a))
	}
	d := newDigest(2)
	d.add(0, testMatch(1, 5, 1, 5))
	d.add(0, testMatch(3, 9, 3, 9))
	if d.mismatches(a) != 1 {
		t.Errorf("missing match: mismatches = %d, want 1", d.mismatches(a))
	}
	e := newDigest(2)
	e.add(1, testMatch(1, 5, 1, 5))
	e.add(1, testMatch(2, 5, 2, 5))
	e.add(0, testMatch(3, 9, 3, 9))
	if e.mismatches(a) != 2 {
		t.Errorf("match moved to another query: mismatches = %d, want 2", e.mismatches(a))
	}
}

func TestMatchKeyAndSortedDiff(t *testing.T) {
	if k := matchKey(testMatch(1, 5, 1, 5)); k != "2|6" {
		t.Fatalf("matchKey = %q, want 2|6 (Seq is Ts+1)", k)
	}
	if d := sortedDiff([]string{"b", "a", "c"}, []string{"c", "a", "d"}); d != 2 {
		t.Fatalf("sortedDiff = %d, want 2", d)
	}
}
