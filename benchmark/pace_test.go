package main

import (
	"testing"
	"time"
)

func TestPacerDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	p := pacer{start: start, rate: 1000}
	if got := p.due(1000).Sub(start); got != time.Second {
		t.Fatalf("due(1000) at 1000/s = %v, want 1s", got)
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, 0}, {0, 1}, {999 * time.Microsecond, 1},
		{time.Millisecond, 2}, {2500 * time.Microsecond, 3}, {time.Hour, 50},
	} {
		if got := p.dueCount(start.Add(c.at), 50); got != c.want {
			t.Errorf("dueCount(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestPaceLoopSendsInOrderAndCountsLateness(t *testing.T) {
	const n = 200
	p := pacer{start: time.Now(), rate: 20000} // 10ms of schedule
	late := make([]time.Duration, n)
	var sent []int
	paceLoop(p, late, func(i int) {
		sent = append(sent, i)
		if i == 50 {
			time.Sleep(5 * time.Millisecond) // a stall makes later events late
		}
	})
	for i, s := range sent {
		if s != i {
			t.Fatalf("event %d sent as %d", i, s)
		}
	}
	if len(sent) != n {
		t.Fatalf("sent %d of %d", len(sent), n)
	}
	for i, l := range late {
		if l < 0 {
			t.Fatalf("event %d sent %v before it was due", i, -l)
		}
	}
	// Event 51 was due 50µs after event 50 but waited out the stall.
	if late[51] < 4*time.Millisecond {
		t.Errorf("event after the stall late by %v, want >= 4ms", late[51])
	}
}
