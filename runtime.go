package zstream

import (
	"repro/internal/runtime"
)

// QueryID identifies a query registered with a Runtime.
type QueryID = runtime.QueryID

// RuntimeStats aggregates runtime counters: shard count, live queries,
// events ingested, matches delivered, and the summed per-shard engine
// counters.
type RuntimeStats = runtime.Stats

// Errors returned by Runtime methods.
var (
	// ErrClosed is returned by Ingest/Register/Unregister after Close.
	ErrClosed = runtime.ErrClosed
	// ErrOutOfOrder is returned by Ingest for a timestamp that precedes an
	// already ingested one.
	ErrOutOfOrder = runtime.ErrOutOfOrder
	// ErrUnknownQuery is returned by Unregister for an id that is not live.
	ErrUnknownQuery = runtime.ErrUnknownQuery
)

// RuntimeOption configures a Runtime.
type RuntimeOption func(*runtime.Config)

// WithShards sets the number of worker goroutines (stream partitions);
// default GOMAXPROCS.
func WithShards(n int) RuntimeOption {
	return func(c *runtime.Config) { c.Shards = n }
}

// WithPartitionBy names the event attribute whose value routes an event to
// a shard (default "name", the paper's stock symbol).
func WithPartitionBy(attr string) RuntimeOption {
	return func(c *runtime.Config) { c.PartitionBy = attr }
}

// WithIngestBatch sets how many events Ingest accumulates before handing
// batches to the workers (default 256). Smaller batches lower match
// latency; larger batches raise throughput.
func WithIngestBatch(n int) RuntimeOption {
	return func(c *runtime.Config) { c.BatchSize = n }
}

// WithQueueDepth sets the per-worker input queue depth in batches (default
// 8); when a worker falls that far behind, Ingest blocks (backpressure).
func WithQueueDepth(n int) RuntimeOption {
	return func(c *runtime.Config) { c.QueueLen = n }
}

// WithSubplanSharing enables or disables cross-query execution sharing
// (default enabled): textually identical queries are deduplicated onto one
// engine with match fan-out, and queries whose canonical class prefixes
// coincide share one per-shard materialization of the prefix joins instead
// of each buffering and assembling them privately. Sharing is semantics-
// preserving — the match stream is byte-identical with it on or off — so
// WithSubplanSharing(false) exists for differential testing, benchmarking
// the win, and as an escape hatch.
func WithSubplanSharing(enabled bool) RuntimeOption {
	return func(c *runtime.Config) { c.NoSharing = !enabled }
}

// Runtime executes many registered queries concurrently over one
// partitioned event stream. Events ingested into the Runtime are sharded
// by a partition-key attribute across worker goroutines, each owning a
// private engine per query and shard; the per-shard match streams are
// merged back into a single end-time-ordered output and delivered to each
// query's OnMatch callback from one goroutine.
//
// Sharding gives every query partition-local semantics: a match combines
// only events whose partition keys landed in the same shard. For queries
// whose predicates equate the key across all classes (the common CEP
// shape — "per symbol", "per IP", "per user"), the output is identical to
// a single Engine over the whole stream, for any shard count; see
// repro/internal/runtime for the full contract.
type Runtime struct {
	rt *runtime.Runtime
}

// NewRuntime creates a runtime and starts its workers.
func NewRuntime(opts ...RuntimeOption) *Runtime {
	var cfg runtime.Config
	for _, o := range opts {
		o(&cfg)
	}
	return &Runtime{rt: runtime.New(cfg)}
}

// Register adds a compiled query, configured with the same options as
// NewEngine (OnMatch, WithPlan, WithAdaptation, ...), and returns its id.
// Engine construction errors are reported here, before the query is
// installed anywhere. The query observes events ingested after Register
// returns; its OnMatch callback runs on the merger goroutine, in end-time
// order merged globally across all queries and shards.
func (r *Runtime) Register(q *Query, opts ...Option) (QueryID, error) {
	ec := engineConfig{cfg: defaultCoreConfig()}
	for _, o := range opts {
		o(&ec)
	}
	return r.rt.Register(q.q, ec.cfg, ec.emit)
}

// Unregister removes a live query; in-window partial matches are
// discarded, already-emitted matches still deliver.
func (r *Runtime) Unregister(id QueryID) error { return r.rt.Unregister(id) }

// Ingest feeds one event to every registered query's shard. Timestamps
// must be non-decreasing. Ingest blocks when workers fall behind
// (backpressure) and must not reuse the event afterwards.
func (r *Runtime) Ingest(ev *Event) error { return r.rt.Ingest(ev) }

// Close flushes all engines, delivers every remaining match, and stops the
// workers. Idempotent; the runtime rejects further use with ErrClosed.
func (r *Runtime) Close() error { return r.rt.Close() }

// Stats returns aggregated counters; safe to call while ingesting.
func (r *Runtime) Stats() RuntimeStats { return r.rt.Stats() }
