package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"themis/internal/exp"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/trace"
)

// runInspect reconstructs per-flow timelines from a trace and answers "what
// happened to that flow": read from a JSONL dump (the flight dump a failed
// trial leaves under -flight-dir), or, with -scenario, recorded here by
// replaying a scenario JSON on one shard. Either way the report is the same.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	qp := fs.Int("qp", 0, "show only this QP's timeline (0 = all)")
	psn := fs.Int("psn", -1, "explain the Themis verdict for this PSN (requires -qp)")
	events := fs.Bool("events", false, "print the full per-PSN event ledger, not just summaries")
	scenario := fs.String("scenario", "", "replay this scenario JSON on one shard instead of reading a dump")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 || (fs.NArg() == 1) == (*scenario != "") { // exactly one source
		return fmt.Errorf("usage: themis-sim inspect [-qp N] [-psn N] [-events] <dump.jsonl | -scenario s.json>")
	}
	if *qp < 0 || *qp > math.MaxInt32 {
		return fmt.Errorf("inspect: -qp %d is not a QP id (0 = all)", *qp)
	}
	if *psn < -1 || *psn >= 1<<packet.PSNBits {
		return fmt.Errorf("inspect: -psn %d is outside the %d-bit PSN space", *psn, packet.PSNBits)
	}
	if *psn >= 0 && *qp == 0 {
		return fmt.Errorf("-psn requires -qp (a PSN is only meaningful within one flow)")
	}
	var d *obs.Dump
	var err error
	if *scenario != "" {
		d, err = replayScenario(*scenario)
	} else {
		d, err = readDump(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	return report(d, packet.QPID(*qp), *psn, *events)
}

// readDump reads a JSONL trace dump.
func readDump(path string) (*obs.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// replayScenario decodes a scenario JSON strictly — an unknown or ill-typed
// field is an error naming it, as is whatever Validate rejects — and runs it
// on one shard into a ring of obs.DefaultFlightCapacity events, returning the
// dump a flight replay of the same trial writes: the trial's error and
// invariant violations head it.
func replayScenario(path string) (*obs.Dump, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var sc exp.Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.Shards = 1
	ring := trace.New(obs.DefaultFlightCapacity)
	t := exp.RunObserved(sc, exp.Obs{Tracer: ring})
	failure := t.Violations
	if t.Err != "" {
		failure = append([]string{t.Err}, failure...)
	}
	return obs.NewDump(t.Name, sc.Seed, ring, failure), nil
}

// report prints d's header and violations, then each flow's summary (qp 0
// means every QP in the dump), its full ledger with events, or the verdict
// history of one PSN (psn >= 0). Every printed flow's ledger invariants are
// re-checked; a violation is an error.
func report(d *obs.Dump, qp packet.QPID, psn int, events bool) error {
	fmt.Printf("label=%q seed=%d events=%d/%d recorded", d.Label, d.Seed, len(d.Events), d.Total)
	if d.Truncated() {
		fmt.Printf(" (ring evicted %d oldest)", d.Total-uint64(len(d.Events)))
	}
	fmt.Println()
	for _, v := range d.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}

	qps := obs.QPs(d.Events)
	if qp > 0 {
		qps = []packet.QPID{qp}
	}
	bad := 0
	for _, id := range qps {
		tl := obs.TimelineFromDump(d, id)
		if psn >= 0 {
			fmt.Println(tl.ExplainNACK(packet.NewPSN(uint32(psn))))
			continue
		}
		if events {
			if err := tl.Format(os.Stdout); err != nil {
				return err
			}
		} else {
			fmt.Printf("flow qp=%d: %d events over %d PSNs\n", id, len(tl.Events), len(tl.Entries))
		}
		for _, v := range tl.CheckInvariants() {
			fmt.Printf("  LEDGER: %s\n", v)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d ledger invariant violations", bad)
	}
	return nil
}
