// Package explain assembles the zstream-explain/v1 document: a stable,
// versioned JSON description of one registered query's physical plan,
// cost-model view, sharing decisions, router subscription and live
// operator counters. The document shape is modeled on granite-db's
// PhysicalPlanNode / ExplainPayload: a versioned envelope, a
// human-readable text rendering, and a physical tree of
// {node, props, children} entries.
//
// The package is deliberately free of engine dependencies: internal/core
// builds the engine-local sections, internal/runtime merges per-shard
// sections into one document. Determinism contract: for a fixed-strategy
// query with no ingested events, every field of the document is a pure
// function of the query text and configuration, so golden tests can pin
// the serialized bytes.
package explain

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/buffer"
	"repro/internal/cost"
	"repro/internal/operator"
	"repro/internal/query"
)

// Version identifies the document schema. Consumers must reject documents
// whose version they do not recognize; schema changes bump the suffix.
const Version = "zstream-explain/v1"

// Doc is the root zstream-explain/v1 document.
type Doc struct {
	// Version is always the Version constant.
	Version string `json:"version"`
	// QueryID is the runtime's query handle (0 for a standalone engine).
	QueryID int64 `json:"query_id,omitempty"`
	// Query describes the compiled query.
	Query Query `json:"query"`
	// Strategy is the configured planning strategy.
	Strategy Strategy `json:"strategy"`
	// Cost is the cost-model view of the chosen plan (absent for
	// shared-prefix consumer plans, whose prefix cost belongs to the
	// producer).
	Cost *Cost `json:"cost,omitempty"`
	// Plans lists the live physical plan variants. Fixed-strategy queries
	// always have exactly one; under adaptation shards re-plan
	// independently, so each distinct fingerprint gets one entry with the
	// shards currently running it.
	Plans []PlanVariant `json:"plans"`
	// Sharing describes multi-query sharing decisions (absent for a
	// standalone engine).
	Sharing *Sharing `json:"sharing,omitempty"`
	// Router describes the predicate-index subscription (absent for a
	// standalone engine).
	Router *Router `json:"router,omitempty"`
	// Text is a human-readable rendering of the first plan variant.
	Text string `json:"text"`
}

// Query describes the compiled query.
type Query struct {
	// Pattern is the canonical query text.
	Pattern string `json:"pattern"`
	// Window is the WITHIN length in ticks.
	Window int64 `json:"window"`
	// Classes lists the event-class aliases by class index; negated
	// classes carry a '!' prefix.
	Classes []string `json:"classes"`
	// Predicates lists every WHERE predicate in source form.
	Predicates []string `json:"predicates,omitempty"`
}

// Strategy is the configured planning strategy.
type Strategy struct {
	// Strategy is "optimal", "left-deep", "right-deep" or "fixed".
	Strategy string `json:"strategy"`
	// Adaptive reports whether runtime re-planning (§5.3) is enabled.
	Adaptive bool `json:"adaptive"`
	// UseHash reports whether equality predicates use hash indexes
	// (§5.2.2).
	UseHash bool `json:"use_hash"`
	// Negation is "auto", "pushdown" or "top" (§4.4.2).
	Negation string `json:"negation"`
	// BatchSize is the events-per-assembly-round batch size.
	BatchSize int `json:"batch_size"`
}

// Cost is the cost-model view of the chosen plan (paper §5.1, Table 1/2).
type Cost struct {
	// Source is "uniform-default" (no statistics collected yet) or
	// "collected" (adaptive statistics snapshot).
	Source string `json:"source"`
	// TimeSel is the implicit time-predicate selectivity Pt.
	TimeSel float64 `json:"time_selectivity"`
	// Classes holds per-class rate / selectivity / cardinality.
	Classes []ClassCost `json:"classes"`
	// PredSel holds per-predicate selectivities for the multi-class
	// predicates (negative values mean the default is in effect).
	PredSel []PredSel `json:"predicate_selectivities,omitempty"`
	// Tree is the per-node breakdown over the chosen shape; the root
	// carries the whole-plan estimate.
	Tree *CostNode `json:"tree,omitempty"`
	// TotalCard and TotalCost are the root estimate (Formula (1)).
	TotalCard float64 `json:"total_card"`
	TotalCost float64 `json:"total_cost"`
}

// ClassCost is one class's Table 1 statistics view.
type ClassCost struct {
	// Class is the class alias.
	Class string `json:"class"`
	// Rate is R_E, events per tick before leaf filters.
	Rate float64 `json:"rate"`
	// SingleSel is P_E, the pushed-down single-class filter selectivity.
	SingleSel float64 `json:"single_selectivity"`
	// Card is CARD_E = R_E * TW_p * P_E.
	Card float64 `json:"card"`
}

// PredSel is one multi-class predicate's selectivity.
type PredSel struct {
	// Predicate is the predicate's source form.
	Predicate string `json:"predicate"`
	// Selectivity is the modeled selectivity; negative means unknown
	// (DefaultPredSel applies).
	Selectivity float64 `json:"selectivity"`
}

// CostNode is one node of the per-operator cost breakdown.
type CostNode struct {
	// Node names the operator or planning unit.
	Node string `json:"node"`
	// Classes are the event classes the node's output covers.
	Classes []int `json:"classes,omitempty"`
	// Card is the estimated output cardinality per window.
	Card float64 `json:"card"`
	// Cost is the cumulative estimated cost (children included).
	Cost float64 `json:"cost"`
	// Children are the sub-plans, left to right.
	Children []*CostNode `json:"children,omitempty"`
}

// PlanVariant is one live physical plan shape.
type PlanVariant struct {
	// Fingerprint is the deterministic structural identity of the plan
	// tree (plan.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Shards lists the shard indexes currently running this plan.
	Shards []int `json:"shards"`
	// Switches is the total number of adaptive plan switches performed by
	// these shards since registration.
	Switches uint64 `json:"plan_switches"`
	// LastSwitch records the most recent re-plan (absent before the
	// first switch).
	LastSwitch *Switch `json:"last_switch,omitempty"`
	// Tree is the operator tree with live counters, summed across the
	// listed shards.
	Tree *Node `json:"tree"`
}

// Switch records one adaptive re-plan as a before/after fingerprint pair.
type Switch struct {
	// From and To are the plan fingerprints before and after the switch.
	From string `json:"from"`
	To   string `json:"to"`
}

// Node is one operator of the physical tree, modeled on granite-db's
// PhysicalPlanNode: an operator name, descriptive props, live counters and
// children.
type Node struct {
	// Node is the operator label (leaf(0), seq[hash], kseq(+), ...).
	Node string `json:"node"`
	// Classes are the event-class indexes the node's output binds.
	Classes []int `json:"classes,omitempty"`
	// Predicates are the value predicates evaluated at this node.
	Predicates []string `json:"predicates,omitempty"`
	// Detail is operator-specific extra information (class alias, hash
	// condition, shared-prefix length).
	Detail string `json:"detail,omitempty"`
	// In counts candidates examined: pairs tried (joins), events scanned
	// (negation/closure), arrivals (leaves).
	In uint64 `json:"records_in"`
	// Out counts records appended to the node's output buffer.
	Out uint64 `json:"records_out"`
	// Buffered is the node's current live output-buffer length.
	Buffered int `json:"buffered"`
	// Evicted counts records reclaimed from the output buffer by EAT
	// eviction (§4.3).
	Evicted uint64 `json:"evicted"`
	// Children are the child operators, left to right.
	Children []*Node `json:"children,omitempty"`
}

// Sharing describes the runtime's multi-query sharing decisions for one
// query.
type Sharing struct {
	// GroupID is the engine group the query runs in.
	GroupID int64 `json:"group_id"`
	// Members is the number of queries aliased onto the group (whole-query
	// deduplication; 1 means unshared).
	Members int `json:"members"`
	// PrefixLen is the number of leading classes delegated to a shared
	// producer (0 when the plan is self-contained).
	PrefixLen int `json:"shared_prefix_len,omitempty"`
	// ProducerID identifies the attached producer subplan.
	ProducerID int64 `json:"producer_id,omitempty"`
	// ProducerReaders is how many engine groups read the producer.
	ProducerReaders int `json:"producer_readers,omitempty"`
	// ProducerTree is the producer's operator tree with live counters,
	// summed across shards.
	ProducerTree *Node `json:"producer_tree,omitempty"`
}

// Router describes how the predicate-indexed router delivers events to the
// query's engine group.
type Router struct {
	// Mode is "indexed" (per-class admission masks), "fallback" (the
	// subscription could not be compiled; every event is delivered with
	// all classes admitted) or "naive" (deliver-all mode: every event is
	// delivered and the engine runs its own filters).
	Mode string `json:"mode"`
	// Events is the number of events routed past the subscription since
	// it was added, summed across shards.
	Events uint64 `json:"events_routed"`
	// Classes holds the per-class subscription detail.
	Classes []RouterClass `json:"classes,omitempty"`
}

// RouterClass is one class's router subscription view. Admitted/Events is
// the unconditioned admission rate (every event counted); LeafPassed/
// LeafSeen is the conditioned view the engine observes (only delivered
// events counted). Comparing the two shows how much selectivity the router
// absorbs before the engine ever sees an event.
type RouterClass struct {
	// Class is the class alias.
	Class string `json:"class"`
	// EqAtoms lists the equality predicates served by hash dispatch.
	EqAtoms []string `json:"eq_atoms,omitempty"`
	// RangeAtoms lists the comparison predicates served by sorted-threshold
	// dispatch (or entry-level float compares for extra bounds).
	RangeAtoms []string `json:"range_atoms,omitempty"`
	// Residuals lists the predicates evaluated per event (memoized across
	// subscriptions).
	Residuals []string `json:"residuals,omitempty"`
	// Always reports an unconstrained class (admits every event).
	Always bool `json:"always,omitempty"`
	// Admitted counts events admitted for this class (unconditioned).
	Admitted uint64 `json:"admitted"`
	// AdmissionRate is Admitted / Events (0 when no events routed).
	AdmissionRate float64 `json:"admission_rate"`
	// LeafSeen / LeafPassed are the class leaf's conditioned counters.
	LeafSeen   uint64 `json:"leaf_seen"`
	LeafPassed uint64 `json:"leaf_passed"`
	// PassRate is LeafPassed / LeafSeen (0 when nothing delivered).
	PassRate float64 `json:"pass_rate"`
}

// JSON serializes the document with stable two-space indentation.
func (d *Doc) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// QuerySection builds the Query section from a compiled query.
func QuerySection(q *query.Query) Query {
	in := q.Info
	out := Query{Pattern: q.String(), Window: q.Within}
	for _, ci := range in.Classes {
		alias := ci.Alias
		if ci.Negated {
			alias = "!" + alias
		}
		out.Classes = append(out.Classes, alias)
	}
	for _, pi := range in.Preds {
		out.Predicates = append(out.Predicates, pi.String())
	}
	return out
}

// CostSection builds the Cost section from a statistics snapshot and the
// chosen shape's breakdown (which may be nil for consumer plans).
func CostSection(in *query.Info, st *cost.Stats, source string, tree *cost.NodeEstimate) *Cost {
	ts := st.TimeSel
	if ts == 0 {
		ts = cost.DefaultTimeSel
	}
	c := &Cost{Source: source, TimeSel: ts}
	for i, ci := range in.Classes {
		c.Classes = append(c.Classes, ClassCost{
			Class:     ci.Alias,
			Rate:      st.Rate[i],
			SingleSel: st.SingleSel[i],
			Card:      st.ClassCard(i),
		})
	}
	for i, pi := range in.Preds {
		if pi.Single() {
			continue
		}
		sel := -1.0
		if i < len(st.PredSel) {
			sel = st.PredSel[i]
		}
		c.PredSel = append(c.PredSel, PredSel{Predicate: pi.String(), Selectivity: sel})
	}
	if tree != nil {
		c.Tree = costNode(tree)
		c.TotalCard = tree.Est.Card
		c.TotalCost = tree.Est.Cost
	}
	return c
}

func costNode(n *cost.NodeEstimate) *CostNode {
	out := &CostNode{Node: n.Desc, Classes: n.Classes, Card: n.Est.Card, Cost: n.Est.Cost}
	for _, c := range n.Children {
		out.Children = append(out.Children, costNode(c))
	}
	return out
}

// Tree snapshots an operator tree into explain nodes with live counters.
// Must run on the goroutine that owns the operators (see Node.Counters).
func Tree(n operator.Node) *Node {
	if n == nil {
		return nil
	}
	d := n.Describe()
	c := n.Counters()
	out := &Node{
		Node:       n.Label(),
		Classes:    d.Classes,
		Predicates: d.Preds,
		Detail:     d.Detail,
		In:         c.In,
		Out:        c.Out,
		Buffered:   n.Out().Len(),
		Evicted:    n.Out().Evicted(),
	}
	for _, ch := range n.Children() {
		out.Children = append(out.Children, Tree(ch))
	}
	return out
}

// Merge adds src's counters into dst position-by-position. The trees must
// be structurally identical (same labels, same arity) — the caller
// guarantees this by merging only trees with equal plan fingerprints.
// Returns false (leaving dst partially updated) on a structural mismatch,
// which indicates a fingerprint collision bug.
func Merge(dst, src *Node) bool {
	if dst.Node != src.Node || len(dst.Children) != len(src.Children) {
		return false
	}
	dst.In += src.In
	dst.Out += src.Out
	dst.Buffered += src.Buffered
	dst.Evicted += src.Evicted
	for i := range dst.Children {
		if !Merge(dst.Children[i], src.Children[i]) {
			return false
		}
	}
	return true
}

// Totals is the whole-tree counter roll-up used by the metrics surface.
type Totals struct {
	// In and Out sum every node's candidate / emission counters.
	In, Out uint64
	// Buffered sums the live record counts of every buffer in the tree.
	Buffered int
	// Evicted sums EAT evictions across every buffer in the tree.
	Evicted uint64
}

// Add accumulates o's counters into t.
func (t *Totals) Add(o Totals) {
	t.In += o.In
	t.Out += o.Out
	t.Buffered += o.Buffered
	t.Evicted += o.Evicted
}

// TreeTotals rolls up an operator tree's counters without materializing
// explain nodes. Like Tree, it must run on the owning goroutine. Leaf
// buffers referenced by negation operators are not walked (they are
// engine-owned leaves reported separately).
func TreeTotals(n operator.Node) Totals {
	var t Totals
	var walk func(n operator.Node)
	seen := map[*buffer.Buf]bool{}
	walk = func(n operator.Node) {
		c := n.Counters()
		t.In += c.In
		t.Out += c.Out
		if b := n.Out(); !seen[b] {
			seen[b] = true
			t.Buffered += b.Len()
			t.Evicted += b.Evicted()
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(n)
	return t
}

// Render writes the human-readable plan text: one node per line with
// classes, predicates and counters.
func Render(n *Node) string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Node)
		if n.Detail != "" {
			fmt.Fprintf(&sb, " [%s]", n.Detail)
		}
		if len(n.Predicates) > 0 {
			fmt.Fprintf(&sb, " {%s}", strings.Join(n.Predicates, " AND "))
		}
		fmt.Fprintf(&sb, " in=%d out=%d buf=%d", n.In, n.Out, n.Buffered)
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Ratio is a divide-by-zero-safe rate helper (JSON cannot carry NaN).
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
