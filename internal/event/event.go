package event

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types an attribute value can take.
type Kind uint8

const (
	// KindNull is the zero Value; comparisons against it are always false.
	KindNull Kind = iota
	// KindFloat is a 64-bit floating point number. Integer attributes are
	// stored as floats as well; the paper's schemas only compare
	// numerically.
	KindFloat
	// KindString is an immutable string.
	KindString
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is null.
type Value struct {
	Kind Kind
	F    float64
	S    string
}

// Float returns a numeric Value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Int returns a numeric Value holding an integer.
func Int(i int64) Value { return Value{Kind: KindFloat, F: float64(i)} }

// String returns a string Value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Null returns the null Value.
func Null() Value { return Value{} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Equal reports whether two values are equal. Null never equals anything,
// including another null (SQL-like semantics, which is what a CEP predicate
// needs: a missing attribute cannot satisfy an equality).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind || v.Kind == KindNull {
		return false
	}
	if v.Kind == KindFloat {
		return v.F == o.F
	}
	return v.S == o.S
}

// Compare returns -1, 0, +1 for v < o, v == o, v > o and ok=false when the
// values are not comparable (different kinds or null).
func (v Value) Compare(o Value) (cmp int, ok bool) {
	if v.Kind != o.Kind || v.Kind == KindNull {
		return 0, false
	}
	switch v.Kind {
	case KindFloat:
		switch {
		case v.F < o.F:
			return -1, true
		case v.F > o.F:
			return 1, true
		default:
			return 0, true
		}
	case KindString:
		return strings.Compare(v.S, o.S), true
	}
	return 0, false
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	default:
		return "NULL"
	}
}

// Schema maps attribute names to positions in an event's value vector.
// Schemas are immutable after construction and shared by all events of a
// stream, so per-event storage is a flat []Value.
type Schema struct {
	name  string
	attrs []string
	index map[string]int
}

// NewSchema builds a schema for stream name with the given attribute names,
// in order. Attribute names must be unique.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	s := &Schema{name: name, attrs: append([]string(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("event: schema %q: duplicate attribute %q", name, a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for package-level schemas.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the stream name the schema belongs to.
func (s *Schema) Name() string { return s.name }

// Attrs returns the attribute names in declaration order. Callers must not
// mutate the returned slice.
func (s *Schema) Attrs() []string { return s.attrs }

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Index returns the position of attribute name, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Slot resolves one attribute name to its position in an event's value
// vector. It caches the last *Schema it saw together with that schema's
// position for the name, so a stream of same-schema events pays one pointer
// comparison per lookup instead of a string-map hash; a schema change
// re-resolves through Schema.Index. Get has exactly Event.Get semantics: an
// attribute the schema lacks yields the null Value.
//
// A Slot is not safe for concurrent use, and needs no synchronisation
// because each one is owned by a single goroutine: compiled evaluators and
// key extractors live inside one engine, router or statistics collector,
// which are per shard or per engine, and the runtime's partition-key slot
// is only touched under its ingest lock.
type Slot struct {
	attr   string
	schema *Schema
	pos    int
}

// NewSlot returns an unresolved Slot for attribute attr.
func NewSlot(attr string) Slot { return Slot{attr: attr, pos: -1} }

// Get returns e's value for the slot's attribute, or null if e's schema
// does not have it.
func (s *Slot) Get(e *Event) Value {
	if e.Schema != s.schema {
		s.schema = e.Schema
		s.pos = e.Schema.Index(s.attr)
	}
	if s.pos < 0 {
		return Value{}
	}
	return e.Vals[s.pos]
}

// Event is a primitive event: one occurrence on an input stream. Events are
// immutable once published to the engine; operators only hold pointers.
type Event struct {
	// Seq is a monotonically increasing arrival sequence number assigned by
	// the source. It provides an exact total order consistent with (and
	// refining) timestamp order, used for duplicate-free plan switching.
	Seq uint64
	// Ts is the occurrence timestamp in ticks. For primitive events the
	// start- and end-timestamps coincide (§3).
	Ts int64
	// Schema describes Vals. All events of a stream share one *Schema.
	Schema *Schema
	// Vals holds attribute values, positionally per Schema.
	Vals []Value
}

// New creates an event with the given schema, timestamp and values.
// len(vals) must equal the schema's attribute count.
func New(s *Schema, ts int64, vals ...Value) (*Event, error) {
	if len(vals) != s.NumAttrs() {
		return nil, fmt.Errorf("event: stream %q: got %d values, schema has %d attributes",
			s.Name(), len(vals), s.NumAttrs())
	}
	return &Event{Ts: ts, Schema: s, Vals: vals}, nil
}

// MustNew is New that panics on arity mismatch; for tests and generators.
func MustNew(s *Schema, ts int64, vals ...Value) *Event {
	e, err := New(s, ts, vals...)
	if err != nil {
		panic(err)
	}
	return e
}

// Get returns the value of the named attribute, or null if the attribute is
// not in the schema.
func (e *Event) Get(attr string) Value {
	i := e.Schema.Index(attr)
	if i < 0 {
		return Value{}
	}
	return e.Vals[i]
}

// At returns the value at attribute position i (no bounds checks beyond the
// slice's own).
func (e *Event) At(i int) Value { return e.Vals[i] }

// String implements fmt.Stringer.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d{", e.Schema.Name(), e.Ts)
	for i, a := range e.Schema.Attrs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", a, e.Vals[i])
	}
	b.WriteByte('}')
	return b.String()
}

// Stock is the stock-trade schema used by the paper's motivating queries:
// (id, name, price, volume, ts) with ts stored as the event timestamp.
var Stock = MustSchema("Stocks", "id", "name", "price", "volume")

// Weblog is the web-access schema of §6.5: (Time, IP, AccessURL,
// Description) with Time stored as the event timestamp.
var Weblog = MustSchema("Weblog", "ip", "url", "desc")

// NewStock builds a stock-trade event.
func NewStock(seq uint64, ts int64, id int64, name string, price, volume float64) *Event {
	e := MustNew(Stock, ts, Int(id), Str(name), Float(price), Float(volume))
	e.Seq = seq
	return e
}

// NewWeblog builds a web-access event.
func NewWeblog(seq uint64, ts int64, ip, url, desc string) *Event {
	e := MustNew(Weblog, ts, Str(ip), Str(url), Str(desc))
	e.Seq = seq
	return e
}
