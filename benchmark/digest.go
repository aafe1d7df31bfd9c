package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro"
)

// digest is an order-insensitive fingerprint of a match multiset, kept per
// query: the count and the wrapping sum of 64-bit hashes of (query, Start,
// End, fields). Delivery order, shard placement and plan choice do not
// change it; a missing, extra or altered match does.
type digest struct {
	count []uint64
	sum   []uint64
}

func newDigest(queries int) *digest {
	return &digest{count: make([]uint64, queries), sum: make([]uint64, queries)}
}

// add folds one match of query q into the digest.
func (d *digest) add(q int, m *zstream.Match) {
	d.count[q]++
	d.sum[q] += matchHash(q, m)
}

// total is the number of matches across all queries.
func (d *digest) total() uint64 {
	var n uint64
	for _, c := range d.count {
		n += c
	}
	return n
}

// mismatches is a lower bound on the matches missing from or extra in d
// against ref: the count difference per query, or two (one missing, one
// extra) where counts agree but the hash sums do not.
func (d *digest) mismatches(ref *digest) uint64 {
	var bad uint64
	for q := range ref.count {
		switch {
		case d.count[q] > ref.count[q]:
			bad += d.count[q] - ref.count[q]
		case d.count[q] < ref.count[q]:
			bad += ref.count[q] - d.count[q]
		case d.sum[q] != ref.sum[q]:
			bad += 2
		}
	}
	return bad
}

// String renders the digest as one combined fingerprint.
func (d *digest) String() string {
	h := fnv.New64a()
	for q := range d.count {
		fmt.Fprintf(h, "%d:%d:%d;", q, d.count[q], d.sum[q])
	}
	return fmt.Sprintf("%d/%016x", d.total(), h.Sum64())
}

// matchHash hashes one match's identity: the query, its interval and, per
// RETURN field, the name and the timestamps of the bound events (one tick
// per event, so a timestamp names its event).
func matchHash(q int, m *zstream.Match) uint64 {
	h := mix(uint64(q)+1, uint64(m.Start))
	h = mix(h, uint64(m.End))
	for _, f := range m.Fields {
		for i := 0; i < len(f.Name); i++ {
			h = mix(h, uint64(f.Name[i]))
		}
		for _, ev := range f.Events {
			h = mix(h, uint64(ev.Ts))
		}
		h = mix(h, uint64(len(f.Events)))
	}
	return h
}

// mix is one splitmix64-style combining step.
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// matchKey renders a match in ref.Find's canonical key form: per field,
// the Seqs of the bound events, comma-joined, fields separated by '|'.
func matchKey(m *zstream.Match) string {
	b := make([]byte, 0, 32)
	for i, f := range m.Fields {
		if i > 0 {
			b = append(b, '|')
		}
		for j, ev := range f.Events {
			if j > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, "%d", ev.Seq)
		}
	}
	return string(b)
}

// sortedDiff counts keys present in one sorted list and not the other.
func sortedDiff(a, b []string) int {
	sort.Strings(a)
	sort.Strings(b)
	diff, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + len(a) - i + len(b) - j
}
