// Package obs is the observability layer of the simulator: structured trace
// export, post-mortem flight recording, per-flow timeline reconstruction and
// a metrics registry.
//
// The package sits directly on top of internal/trace. The tracer stays the
// single recording primitive — a bounded, allocation-free ring that is
// zero-cost when nil — and obs adds the machinery that turns a ring of raw
// events into evidence:
//
//   - jsonl.go: a versioned, round-trippable JSONL serialization of a trace
//     dump (schema v1), replacing the ad-hoc text Dump format for anything a
//     tool needs to re-read.
//   - flight.go: a FlightRecorder, the ring the experiment harness replays a
//     failed trial into and flushes to disk, so a red run ships its own
//     reproduction evidence.
//   - timeline.go: per-flow, per-PSN ledger reconstruction — the structure
//     that answers "why was this NACK blocked?" and carries the executable
//     form of the paper's §3 correctness argument (ledger invariants).
//   - metrics.go: named, additive gauges and histograms for what the trial
//     record (workload.Outcome) does not carry — routing-plane message
//     counts, live flow-table occupancy, the message completion latency
//     distribution — snapshotted into a metered experiment trial.
//
// The metrics follow the tracer's nil-object convention: a nil *Registry or
// *Histogram is safe to use and free, so instrumented code needs no guards
// and the hot path stays zero-alloc when observability is disabled.
package obs
