package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (0 for a root); spans of one request share Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int32  `json:"req,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them at exit. A nil *tracer
// records nothing, so untraced runs pay only a nil check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// tag labels an open or closed span.
func (t *tracer) tag(id int32, tag string) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Tag = tag
}

// durations returns the durations of every span named name (and, when tag
// is non-empty, carrying that tag).
func (t *tracer) durations(name, tag string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
