package exp

import (
	"runtime"
	"sync"
)

// Runner executes a grid of scenarios across a worker pool. Each trial owns
// its own engines, packet pools and RNGs, so trials never share mutable
// state; results land in the output slice at their scenario's index, making
// the trial order — and therefore the serialized report — independent of the
// worker count and of scheduling. The cores are split between the workers: a
// trial cut across shards (see workload.ClusterConfig.Shards) runs them on
// its worker's share, GOMAXPROCS / workers, so a grid never has more
// goroutines spinning on shard barriers than there are processors.
type Runner struct {
	// Parallel is the worker count; values < 1 mean 1 (sequential).
	Parallel int
	// Obs is the per-trial observability configuration. Flight replays and
	// metrics registries are per trial; a shared Tracer runs the grid
	// sequentially whatever Parallel says (results do not depend on it).
	Obs Obs
}

// Run executes every scenario and returns one trial per scenario, in input
// order. Per-scenario failures are carried in Trial.Err.
func (r Runner) Run(grid []Scenario) []Trial {
	out := make([]Trial, len(grid))
	workers := r.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(grid) {
		workers = len(grid)
	}
	cores := max(runtime.GOMAXPROCS(0)/max(workers, 1), 1)
	if workers <= 1 || r.Obs.Tracer != nil {
		for i := range grid {
			out[i] = runObserved(grid[i], r.Obs, cores)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = runObserved(grid[i], r.Obs, cores)
			}
		}()
	}
	for i := range grid {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
