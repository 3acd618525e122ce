package workload

import (
	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/rnic"
	"themis/internal/sim"
)

// Outcome is the record every runner returns and the experiment harness
// serializes: each runner result embeds it (incast and the chaos harness
// return it bare) and fills it once where the run ends, and exp.Trial embeds
// the same struct, so no layer copies it field by field. Fixed fields only —
// the JSON form must be byte-identical across runs.
type Outcome struct {
	// CCTMillis is when the workload's last unit of work completed, in
	// milliseconds: the slowest group's last rank for collectives, the last
	// transfer's acknowledgement for motivation, incast, spray, chaos and
	// convergence, the last flow's for churn.
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
	// and the event-loop counters of the trial's engines merged over shards —
	// of which only the two that do not depend on how the events are cut are
	// serialized (see sim.Metrics).
	Sender     rnic.SenderStats `json:"sender"`
	Middleware core.Stats       `json:"middleware"`
	Net        fabric.Counters  `json:"net"`
	Engine     sim.Metrics      `json:"engine"`

	// Violations lists invariant violations (chaos, convergence and churn).
	Violations []string `json:"violations,omitempty"`

	// Series holds the time series the motivation runner samples (Fig. 1b/1c;
	// nil for every other runner). Not serialized: a report carries their
	// averages, RetransRatio and AvgRateGbps.
	Series *MotivationSeries `json:"-"`
}

// Outcome reads the full record off a drained cluster whose workload
// completed at cct: the headline time and retransmission ratio and all four
// counter blocks, Engine being every shard's merged. Runners add their own
// headline fields and violations.
func (cl *Cluster) Outcome(cct sim.Time) Outcome {
	o := Outcome{
		CCTMillis:  cct.Seconds() * 1e3,
		Sender:     cl.AggregateSenderStats(),
		Middleware: cl.ThemisStats(),
		Net:        cl.Net.Counters(),
		Engine:     cl.group.Metrics(),
	}
	if o.Sender.DataPackets > 0 {
		o.RetransRatio = float64(o.Sender.Retransmits) / float64(o.Sender.DataPackets)
	}
	return o
}
