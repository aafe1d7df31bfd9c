package expr

import (
	"fmt"
	"math"

	"repro/internal/buffer"
	"repro/internal/event"
	"repro/internal/query"
)

// TsAttr is the pseudo-attribute resolving to an event's timestamp.
const TsAttr = "ts"

// Env resolves event classes to the events bound to them in a candidate
// combination. Event returns nil / Group returns empty when the class is
// unbound (e.g. not yet assembled, or a NULL negation slot).
type Env interface {
	Event(class int) *event.Event
	Group(class int) []*event.Event
}

// RecordEnv adapts one buffer record to an Env.
type RecordEnv struct {
	R *buffer.Record
}

// Event returns the single event bound to class, if any.
func (e RecordEnv) Event(class int) *event.Event {
	if class >= len(e.R.Slots) {
		return nil
	}
	return e.R.Slots[class].E
}

// Group returns the closure group bound to class, if any.
func (e RecordEnv) Group(class int) []*event.Event {
	if class >= len(e.R.Slots) {
		return nil
	}
	s := e.R.Slots[class]
	if s.E != nil {
		return []*event.Event{s.E}
	}
	return s.Group
}

// PairEnv adapts the would-be combination of two records to an Env without
// materializing the combined record. Operators use it to test predicates
// before combining (Algorithm 1 step 5).
type PairEnv struct {
	L, R *buffer.Record
}

// Event returns the event bound to class in either record.
func (e PairEnv) Event(class int) *event.Event {
	if class < len(e.L.Slots) {
		if ev := e.L.Slots[class].E; ev != nil {
			return ev
		}
	}
	if class < len(e.R.Slots) {
		return e.R.Slots[class].E
	}
	return nil
}

// Group returns the group bound to class in either record.
func (e PairEnv) Group(class int) []*event.Event {
	if class < len(e.L.Slots) {
		if s := e.L.Slots[class]; s.IsSet() {
			if s.E != nil {
				return []*event.Event{s.E}
			}
			return s.Group
		}
	}
	if class < len(e.R.Slots) {
		if s := e.R.Slots[class]; s.IsSet() {
			if s.E != nil {
				return []*event.Event{s.E}
			}
			return s.Group
		}
	}
	return nil
}

// EventEnv binds a single event to a single class (leaf predicates).
type EventEnv struct {
	Class int
	E     *event.Event
}

// Event returns the bound event when class matches.
func (e EventEnv) Event(class int) *event.Event {
	if class == e.Class {
		return e.E
	}
	return nil
}

// Group returns the bound event as a one-element group when class matches.
func (e EventEnv) Group(class int) []*event.Event {
	if class == e.Class {
		return []*event.Event{e.E}
	}
	return nil
}

// Evaluator computes a value against an environment.
type Evaluator func(Env) event.Value

// Predicate tests a candidate combination.
type Predicate func(Env) bool

// Compile turns a value expression into an Evaluator. Attribute references
// must have been resolved by query.Analyze (Class >= 0). Each attribute
// reference resolves its schema position once per schema through an
// event.Slot, so the returned Evaluator (and every Predicate built on it)
// must be evaluated by one goroutine only.
func Compile(e query.Expr) (Evaluator, error) {
	switch x := e.(type) {
	case *query.NumLit:
		v := event.Float(x.V)
		return func(Env) event.Value { return v }, nil
	case *query.StrLit:
		v := event.Str(x.V)
		return func(Env) event.Value { return v }, nil
	case *query.AttrRef:
		if x.Class < 0 {
			return nil, fmt.Errorf("expr: unresolved attribute reference %s", x)
		}
		cls := x.Class
		if x.Attr == TsAttr {
			return func(env Env) event.Value {
				ev := env.Event(cls)
				if ev == nil {
					return event.Value{}
				}
				return event.Float(float64(ev.Ts))
			}, nil
		}
		slot := event.NewSlot(x.Attr)
		return func(env Env) event.Value {
			ev := env.Event(cls)
			if ev == nil {
				return event.Value{}
			}
			return slot.Get(ev)
		}, nil
	case *query.Arith:
		l, err := Compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := Compile(x.R)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(env Env) event.Value {
			lv, rv := l(env), r(env)
			if lv.Kind != event.KindFloat || rv.Kind != event.KindFloat {
				return event.Value{}
			}
			switch op {
			case query.OpAdd:
				return event.Float(lv.F + rv.F)
			case query.OpSub:
				return event.Float(lv.F - rv.F)
			case query.OpMul:
				return event.Float(lv.F * rv.F)
			default:
				if rv.F == 0 {
					return event.Value{}
				}
				return event.Float(lv.F / rv.F)
			}
		}, nil
	case *query.Agg:
		return compileAgg(x)
	default:
		return nil, fmt.Errorf("expr: unsupported expression %T", e)
	}
}

func compileAgg(a *query.Agg) (Evaluator, error) {
	if a.Arg.Class < 0 {
		return nil, fmt.Errorf("expr: unresolved aggregate argument %s", a.Arg)
	}
	cls := a.Arg.Class
	if a.Fn == query.AggCount {
		return func(env Env) event.Value {
			return event.Float(float64(len(env.Group(cls))))
		}, nil
	}
	isTs := a.Arg.Attr == TsAttr
	slot := event.NewSlot(a.Arg.Attr)
	get := func(ev *event.Event) (float64, bool) {
		var v event.Value
		if isTs {
			v = event.Float(float64(ev.Ts))
		} else {
			v = slot.Get(ev)
		}
		if v.Kind != event.KindFloat {
			return 0, false
		}
		return v.F, true
	}
	fn := a.Fn
	return func(env Env) event.Value {
		g := env.Group(cls)
		if len(g) == 0 {
			if fn == query.AggSum {
				return event.Float(0)
			}
			return event.Value{}
		}
		sum, mn, mx := 0.0, math.Inf(1), math.Inf(-1)
		for _, ev := range g {
			f, ok := get(ev)
			if !ok {
				return event.Value{}
			}
			sum += f
			if f < mn {
				mn = f
			}
			if f > mx {
				mx = f
			}
		}
		switch fn {
		case query.AggSum:
			return event.Float(sum)
		case query.AggAvg:
			return event.Float(sum / float64(len(g)))
		case query.AggMin:
			return event.Float(mn)
		default:
			return event.Float(mx)
		}
	}, nil
}

// CompilePred turns a comparison into a Predicate. Null operands make the
// predicate false (a missing attribute can never satisfy a constraint).
func CompilePred(c *query.Cmp) (Predicate, error) {
	l, err := Compile(c.L)
	if err != nil {
		return nil, err
	}
	r, err := Compile(c.R)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(env Env) bool {
		lv, rv := l(env), r(env)
		switch op {
		case query.CmpEq:
			return lv.Equal(rv)
		case query.CmpNeq:
			if lv.IsNull() || rv.IsNull() || lv.Kind != rv.Kind {
				return false
			}
			return !lv.Equal(rv)
		default:
			cmp, ok := lv.Compare(rv)
			if !ok {
				return false
			}
			switch op {
			case query.CmpLt:
				return cmp < 0
			case query.CmpLte:
				return cmp <= 0
			case query.CmpGt:
				return cmp > 0
			default:
				return cmp >= 0
			}
		}
	}, nil
}

// CompilePreds compiles a set of predicates into one conjunction.
func CompilePreds(cs []*query.Cmp) (Predicate, error) {
	if len(cs) == 0 {
		return func(Env) bool { return true }, nil
	}
	preds := make([]Predicate, len(cs))
	for i, c := range cs {
		p, err := CompilePred(c)
		if err != nil {
			return nil, err
		}
		preds[i] = p
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return func(env Env) bool {
		for _, p := range preds {
			if !p(env) {
				return false
			}
		}
		return true
	}, nil
}

// CompileKey compiles an attribute reference into a key extractor over a
// single event, for hash-index construction (§5.2.2). Like every compiled
// evaluator, the extractor caches its attribute's schema position and must
// be used by one goroutine only (see event.Slot).
func CompileKey(attr string) func(*event.Event) event.Value {
	if attr == TsAttr {
		return func(e *event.Event) event.Value { return event.Float(float64(e.Ts)) }
	}
	slot := event.NewSlot(attr)
	return slot.Get
}
