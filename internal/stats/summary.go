package stats

// Summary is the scalar digest of one metric across many observations — the
// form trial records carry so that per-seed results can be aggregated across
// a sweep without retaining every sample. The zero value is an empty summary.
//
// Percentiles are computed at Summarize time from the full sample set, so a
// summary cannot be merged with another: callers that need cross-trial
// percentiles collect the per-trial scalars and summarize them once, which is
// what the paper's figures report.
type Summary struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Summarize digests values. The empty set yields the zero Summary (all-zero,
// Count 0) rather than NaNs so the result serializes cleanly to JSON.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{
		Count: len(values),
		Min:   values[0],
		Max:   values[0],
		P50:   Percentile(values, 50),
		P99:   Percentile(values, 99),
	}
	for _, v := range values {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	return s
}
