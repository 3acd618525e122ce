package workload

import (
	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/rnic"
	"themis/internal/sim"
)

// Outcome is the record every runner returns and the experiment harness
// serializes: each runner result (and chaos.Result) embeds it and fills it
// once where the run ends, and exp.Trial embeds the same struct, so no layer
// copies it field by field. Fixed fields only — the JSON form must be
// byte-identical across runs.
type Outcome struct {
	// CCTMillis is the completion time of the workload in milliseconds —
	// tail-group CCT for collectives, last-flow completion for motivation
	// and chaos, last-ack for incast.
	CCTMillis float64 `json:"cct_ms"`
	// RetransRatio is retransmitted/total data packets over all flows.
	RetransRatio float64 `json:"retrans_ratio"`
	// GoodputGbps is the workload's aggregate goodput where defined
	// (motivation: mean per-flow throughput, Fig. 1d; incast: receiver
	// goodput; churn: acked payload over the run).
	GoodputGbps float64 `json:"goodput_gbps,omitempty"`
	// AvgRateGbps is the observed flow's mean DCQCN sending rate while it was
	// active (motivation only, Fig. 1c).
	AvgRateGbps float64 `json:"avg_rate_gbps,omitempty"`

	// TableBytesPeak is the peak flow-table occupancy observed on any ToR at
	// flow open/close points and TableBudgetBytes the configured §4 budget
	// (churn only).
	TableBytesPeak   int `json:"table_bytes_peak,omitempty"`
	TableBudgetBytes int `json:"table_budget_bytes,omitempty"`

	// Counter blocks: transport counters over all QPs, Themis counters over
	// all ToRs (zero unless the arm installs the pipeline), fabric counters,
	// and the event-loop counters of the trial's engine (spray, which may run
	// on several, reports only the two that do not depend on how many).
	Sender     rnic.SenderStats `json:"sender"`
	Middleware core.Stats       `json:"middleware"`
	Net        fabric.Counters  `json:"net"`
	Engine     sim.Metrics      `json:"engine"`

	// Violations lists invariant violations (chaos, convergence and churn).
	Violations []string `json:"violations,omitempty"`
}

// Outcome reads the full record off a drained cluster whose workload
// completed at cct: the headline time and retransmission ratio and all four
// counter blocks, Engine being shard 0's. Runners add their own headline
// fields and violations.
func (cl *Cluster) Outcome(cct sim.Time) Outcome {
	o := Outcome{
		CCTMillis:  cct.Seconds() * 1e3,
		Sender:     cl.AggregateSenderStats(),
		Middleware: cl.ThemisStats(),
		Net:        cl.Net.Counters(),
		Engine:     cl.Engine.Metrics(),
	}
	if o.Sender.DataPackets > 0 {
		o.RetransRatio = float64(o.Sender.Retransmits) / float64(o.Sender.DataPackets)
	}
	return o
}
