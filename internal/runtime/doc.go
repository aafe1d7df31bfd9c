// Package runtime is the concurrent multi-query execution layer above
// internal/core: one Runtime hosts many registered queries at once, shards
// the input stream by a partition key across N worker goroutines (each
// owning a per-shard core.Engine instance for every distinct live query —
// see Cross-query sharing below), ingests events through batched bounded
// channels with backpressure, and merges the per-worker match streams back
// into a single end-time-ordered output (heap-merge driven by per-shard
// watermarks).
//
// # Partitioned semantics
//
// Every event is routed to exactly one shard by hashing its partition-key
// attribute, and each shard evaluates every query over its substream
// independently. A query is therefore evaluated with partition-local
// semantics: matches combine only events that landed in the same shard.
// For queries whose predicates equate the partition key across all event
// classes (e.g. "T1.name = T2.name AND T2.name = T3.name" when partitioned
// by "name", or the paper's §6.5 web-log query equating IPs when
// partitioned by "ip"), every potential match is key-local, so the merged
// output is exactly the output of a single global engine, for any shard
// count. Queries that join across partition keys see only the shard-local
// subset of those combinations; register those on a Runtime with Shards=1
// (or a plain Engine) instead.
//
// # Ordering
//
// Ingest requires globally non-decreasing timestamps (the same contract as
// core.Engine without a reordering stage). Matches are delivered by a
// single merger goroutine in non-decreasing end-time order across all
// queries and shards; per-query callbacks never run concurrently.
//
// # Cross-query sharing
//
// Unless Config.NoSharing is set, registration shares execution between
// queries where provably safe (match transcripts stay byte-identical):
// textually identical queries collapse onto one engine group whose matches
// fan out to every alias, and queries sharing a canonical class prefix
// (query.SharablePrefix) consume one per-shard materialization of the
// prefix joins (core.Subplan) through refcounted shared readers instead of
// each buffering and assembling it. See docs/ARCHITECTURE.md.
//
// # Shard workers
//
// A shard worker runs one kind of execution unit over one delivery path.
// A unit is either an engine group or a shared-subplan producer; both
// are fed their router deliveries, run one round per batch boundary, and
// are recovered, quarantined and dropped by the same functions. Every
// batch is classified by the shard's router; under Config.NaiveFanout the
// router runs in deliver-all mode (router.Router.DeliverAll), handing
// every unit one shared slice of MaskAll deliveries, and engines evaluate
// their own leaf filters.
package runtime
