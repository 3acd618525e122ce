package workload_test

import (
	"fmt"

	"themis/internal/sim"
	"themis/internal/workload"
)

// ExampleBuildCluster builds a small two-rack Themis cluster, pushes one
// sprayed RDMA message across it and prints the middleware verdicts.
// Deterministic: the seed fixes every packet-level event.
func ExampleBuildCluster() {
	cl, err := workload.BuildCluster(workload.ClusterConfig{
		Seed:         7,
		Leaves:       2,
		Spines:       4,
		HostsPerLeaf: 1,
		Bandwidth:    100e9,
		LB:           workload.Themis,
	})
	if err != nil {
		panic(err)
	}
	done := false
	cl.Conn(0, 1).Send(1<<20, func() { done = true })
	cl.Run(sim.Second)
	st := cl.AggregateSenderStats()
	fmt.Printf("done=%v retransmits=%d\n", done, st.Retransmits)
	// Output: done=true retransmits=0
}
