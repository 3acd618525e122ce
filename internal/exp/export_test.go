package exp

import (
	"slices"

	"themis/internal/workload"
)

// ObserveClusters wraps every row of the workload table so seen is handed the
// config each trial's runner receives, before it runs; the returned func
// restores the table. seen may be called from several Runner workers at once.
func ObserveClusters(seen func(workload.Config)) (restore func()) {
	saved := slices.Clone(workloads)
	for i := range workloads {
		run := workloads[i].run
		workloads[i].run = func(c workload.Config) (workload.Outcome, error) {
			seen(c)
			return run(c)
		}
	}
	return func() { copy(workloads, saved) }
}
