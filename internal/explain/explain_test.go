package explain

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/event"
	"repro/internal/operator"
)

// fakeNode is a minimal operator.Node with fixed counters over a given
// output buffer, so tree walks can be tested without building a plan.
type fakeNode struct {
	label    string
	out      *buffer.Buf
	c        operator.Counters
	children []operator.Node
}

func (n *fakeNode) Out() *buffer.Buf            { return n.out }
func (n *fakeNode) Assemble(int64, int64)       {}
func (n *fakeNode) Reset()                      {}
func (n *fakeNode) Children() []operator.Node   { return n.children }
func (n *fakeNode) Label() string               { return n.label }
func (n *fakeNode) Describe() operator.Desc     { return operator.Desc{Classes: []int{0}} }
func (n *fakeNode) Counters() operator.Counters { return n.c }

// bufWith returns a buffer that received recs records and then evicted
// every record starting before evictBefore.
func bufWith(recs int, evictBefore int64) *buffer.Buf {
	b := buffer.New()
	for i := 0; i < recs; i++ {
		b.Append(buffer.Leaf(&event.Event{Ts: int64(i), Seq: uint64(i + 1)}, 0, 1))
	}
	b.EvictBefore(evictBefore)
	return b
}

func tree(in, out uint64, buffered int) *Node {
	return &Node{Node: "seq", In: in, Out: out, Buffered: buffered, Evicted: 1, Children: []*Node{
		{Node: "leaf(0)", In: in + 1, Out: out + 1, Buffered: buffered + 1, Evicted: 2},
		{Node: "leaf(1)", In: in + 2, Out: out + 2, Buffered: buffered + 2, Evicted: 3},
	}}
}

func TestMergeAddsCounters(t *testing.T) {
	dst, src := tree(10, 4, 2), tree(5, 1, 1)
	if !Merge(dst, src) {
		t.Fatal("Merge of identical shapes reported a mismatch")
	}
	want := []Node{
		{Node: "seq", In: 15, Out: 5, Buffered: 3, Evicted: 2},
		{Node: "leaf(0)", In: 17, Out: 7, Buffered: 5, Evicted: 4},
		{Node: "leaf(1)", In: 19, Out: 9, Buffered: 7, Evicted: 6},
	}
	got := []*Node{dst, dst.Children[0], dst.Children[1]}
	for i, n := range got {
		w := want[i]
		if n.Node != w.Node || n.In != w.In || n.Out != w.Out || n.Buffered != w.Buffered || n.Evicted != w.Evicted {
			t.Errorf("node %d = %+v, want %+v", i, *n, w)
		}
	}
}

func TestMergeRejectsStructuralMismatch(t *testing.T) {
	relabeled := tree(1, 1, 1)
	relabeled.Children[1].Node = "leaf(2)"
	pruned := tree(1, 1, 1)
	pruned.Children = pruned.Children[:1]
	for name, src := range map[string]*Node{"label": relabeled, "arity": pruned} {
		if Merge(tree(1, 1, 1), src) {
			t.Errorf("%s mismatch: Merge returned true", name)
		}
	}
}

func TestTreeTotalsCountsSharedBufferOnce(t *testing.T) {
	shared := bufWith(5, 2) // 2 evicted, 3 live
	leaf := &fakeNode{label: "leaf(0)", out: bufWith(4, 1), c: operator.Counters{In: 7, Out: 4}}
	// A pass-through child that publishes the parent's own output buffer
	// (as a shared-source stand-in does) must not double its records.
	inner := &fakeNode{label: "source", out: shared, c: operator.Counters{In: 3, Out: 3}}
	root := &fakeNode{label: "seq", out: shared, c: operator.Counters{In: 11, Out: 2},
		children: []operator.Node{leaf, inner}}

	got := TreeTotals(root)
	want := Totals{In: 21, Out: 9, Buffered: 3 + 3, Evicted: 2 + 1}
	if got != want {
		t.Fatalf("TreeTotals = %+v, want %+v", got, want)
	}
}

func TestTotalsAdd(t *testing.T) {
	a := Totals{In: 1, Out: 2, Buffered: 3, Evicted: 4}
	a.Add(Totals{In: 10, Out: 20, Buffered: 30, Evicted: 40})
	if want := (Totals{In: 11, Out: 22, Buffered: 33, Evicted: 44}); a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestRender(t *testing.T) {
	n := &Node{Node: "seq[hash]", Detail: "A.name=B.name", Predicates: []string{"B.price > A.price", "B.volume > 1"},
		In: 9, Out: 3, Buffered: 2, Children: []*Node{
			{Node: "leaf(0)", In: 5, Out: 4, Buffered: 4},
			{Node: "leaf(1)", Detail: "B", In: 6, Out: 1, Buffered: 1},
		}}
	want := "seq[hash] [A.name=B.name] {B.price > A.price AND B.volume > 1} in=9 out=3 buf=2\n" +
		"  leaf(0) in=5 out=4 buf=4\n" +
		"  leaf(1) [B] in=6 out=1 buf=1\n"
	if got := Render(n); got != want {
		t.Fatalf("Render =\n%s\nwant\n%s", got, want)
	}
}
