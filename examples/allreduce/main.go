// Allreduce (Fig. 5a): the paper's headline evaluation at a reduced message
// size — 16 groups of 16 NICs on the 16x16 400 Gbps leaf-spine, ring
// Allreduce, comparing ECMP, adaptive routing and Themis under a chosen
// DCQCN configuration.
//
//	go run ./examples/allreduce [-bytes N] [-ti us] [-td us]
package main

import (
	"flag"
	"fmt"
	"log"

	"themis"
)

func main() {
	bytes := flag.Int64("bytes", 3<<20, "collective size per group (paper: 300 MB)")
	ti := flag.Int64("ti", 900, "DCQCN rate-increase timer TI, microseconds")
	td := flag.Int64("td", 4, "DCQCN rate-decrease interval TD, microseconds")
	flag.Parse()

	fmt.Printf("Fig. 5a cell: ring Allreduce, %d KB per group, DCQCN (TI,TD)=(%d,%d)us\n\n",
		*bytes>>10, *ti, *td)
	fmt.Printf("%-10s %12s %14s %10s %10s\n", "arm", "tailCCT_ms", "retransRatio", "nacksRx", "blocked")

	cct := map[themis.LBMode]float64{}
	for _, arm := range themis.Fig5Arms() {
		res, err := themis.RunCollective(themis.CollectiveConfig{
			ClusterConfig: themis.ClusterConfig{
				Seed: 1,
				LB:   arm,
				TI:   themis.Duration(*ti) * themis.Microsecond,
				TD:   themis.Duration(*td) * themis.Microsecond,
			},
			Pattern:      themis.Allreduce,
			MessageBytes: *bytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		ms := res.CCTMillis
		fmt.Printf("%-10s %12.3f %14.4f %10d %10d\n",
			arm, ms, res.RetransRatio, res.Sender.NacksRx, res.Middleware.NacksBlocked)
		cct[arm] = ms
	}
	ar, th := cct[themis.Adaptive], cct[themis.Themis]
	fmt.Printf("\nThemis completes %.1f%% faster than adaptive routing (paper range: 15.6%%-75.3%%).\n",
		(ar-th)/ar*100)
}
