// Package router is the per-shard discrimination network that decides,
// once per event, which registered queries receive it. With thousands of
// standing queries — most of them parameterized variants of one another
// ("alert when <symbol> dips 5%") — delivering every event to every
// engine makes ingest cost O(Q) per event even when almost no query cares.
// The router cuts that to O(matching):
//
//   - Every query's leaf-admission predicates (the single-class, non-
//     aggregate WHERE atoms plan.Build pushes into leaf filters) are
//     compiled into an index, grouped lazily by event schema.
//   - `attr = const` atoms become hash-dispatch maps (attr position →
//     value → subscriber entries): one map lookup replaces evaluating the
//     equality for every query that wrote it.
//   - The remaining ("residual") atoms are deduplicated by the canonical
//     fingerprint of their AST (query.FingerprintCmp), so each distinct
//     predicate is evaluated at most once per event no matter how many
//     queries share it; results are memoized per event via epoch stamps.
//
// Route yields one mini-batch per subscriber that admitted at least one
// event, tagged with the per-event class bitmask the router proved, so
// engines can skip re-evaluating leaf filters (core.Engine.ProcessAdmitted)
// and engines whose classes all reject an event are never touched.
//
// Degradation: a class with no single-class predicates admits every event,
// so its query is touched for every event (O(Q) again for such queries);
// queries with more than 64 classes, or whose predicates fail to compile,
// fall back to unconditional delivery with MaskAll. DeliverAll makes every
// subscription such a fallback: the naive deliver-to-all reference the
// indexed mode is differentially tested against, with one delivery slice
// per batch shared by every subscriber. The router assumes the
// sequential, single-goroutine use the runtime's shard workers provide.
//
// The runtime also registers shared-subplan producers (core.Subplan) as
// subscribers, compiled from their prefix query's Info: the producer then
// receives exactly the events any of its consuming queries' prefix classes
// admit, with the same per-class masks engines get.
package router
