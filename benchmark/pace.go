package main

import "time"

// pacer schedules an open-loop input stream: event i is due at
// start + i/rate regardless of how the system keeps up. The generator
// sleeps until the next due time and then sends every event already due,
// so it never busy-spins on a core the system's workers need, and a stall
// shows as lateness on the events sent after it.
type pacer struct {
	start time.Time
	rate  float64 // events per second
}

// due returns when event i is due.
func (p pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
}

// dueCount returns how many events are due at now (events 0..n-1 with
// due(i) <= now), capped at total.
func (p pacer) dueCount(now time.Time, total int) int {
	el := now.Sub(p.start)
	if el < 0 {
		return 0
	}
	n := int(el.Seconds()*p.rate) + 1
	for n > 0 && p.due(n-1).After(now) {
		n--
	}
	for n < total && !p.due(n).After(now) {
		n++
	}
	if n > total {
		n = total
	}
	return n
}

// paceLoop sends events 0..len(late)-1 on p's schedule through send, which
// receives the event index, and records in late[i] event i's lateness: the
// time from its due time to the moment send was called for it.
func paceLoop(p pacer, late []time.Duration, send func(i int)) {
	total := len(late)
	next := 0
	for next < total {
		now := time.Now()
		n := p.dueCount(now, total)
		if n <= next {
			time.Sleep(p.due(next).Sub(now))
			continue
		}
		for ; next < n; next++ {
			t := time.Now()
			late[next] = t.Sub(p.due(next))
			send(next)
		}
	}
}
