package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/exp"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/workload"
)

// span is one record of the seam trace. A phase span has a start and an end;
// a hook span aggregates every call of one per-packet hook within a trial
// (count, busy time, longest call) — recording each call would cost more than
// the calls do. Times are nanoseconds since the trace began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Trial   string `json:"trial"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   uint64 `json:"count,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	MaxNs   int64  `json:"max_ns,omitempty"`
}

// spanLog keeps the spans in memory; they are written out when the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (s *spanLog) begin(trial, name string, parent int) int {
	s.spans = append(s.spans, span{
		ID: len(s.spans) + 1, Parent: parent, Trial: trial, Name: name,
		StartNs: time.Since(s.t0).Nanoseconds(),
	})
	return len(s.spans)
}

func (s *spanLog) end(id int) time.Duration {
	sp := &s.spans[id-1]
	sp.EndNs = time.Since(s.t0).Nanoseconds()
	return time.Duration(sp.EndNs - sp.StartNs)
}

// hook accumulates one wrapped per-packet hook.
type hook struct {
	count       uint64
	busy, worst time.Duration
}

func (h *hook) observe(t0 time.Time) {
	d := time.Since(t0)
	h.count++
	h.busy += d
	h.worst = max(h.worst, d)
}

// tracedPipeline wraps a ToR's Themis instance at the fabric.TorPipeline seam.
type tracedPipeline struct {
	inner                     *core.Themis
	selectUp, deliver, filter *hook
}

func (p *tracedPipeline) SelectUplink(pkt *packet.Packet, cands []int) (int, bool) {
	defer p.selectUp.observe(time.Now())
	return p.inner.SelectUplink(pkt, cands)
}

func (p *tracedPipeline) OnDeliverToHost(pkt *packet.Packet) []*packet.Packet {
	defer p.deliver.observe(time.Now())
	return p.inner.OnDeliverToHost(pkt)
}

func (p *tracedPipeline) FilterHostControl(pkt *packet.Packet) bool {
	defer p.filter.observe(time.Now())
	return p.inner.FilterHostControl(pkt)
}

func (p *tracedPipeline) LinkStateChanged(port int, up bool) { p.inner.LinkStateChanged(port, up) }

// traceable reports whether the benchmark can assemble the scenario itself
// from workload.BuildCluster and collective.Run: a fault-free collective or
// motivation cell with default middleware knobs. Chaos, churn, convergence
// and spray trials drive their clusters from inside their own packages.
func traceable(sc exp.Scenario) bool {
	plain := sc.Themis == exp.ThemisKnobs{} && sc.LinkFail == nil && sc.DropEveryNData == 0 && !sc.DistributedRouting
	return plain && (sc.Workload == exp.Collective || sc.Workload == exp.Motivation)
}

// hookNames are the per-packet seams the trace wraps; seamShares adds the
// trial phases. Each name's share of the traced trial time is a metric.
var (
	hookNames  = []string{"rnic_handle_packet", "core_select_uplink", "core_on_deliver", "core_filter_ctrl"}
	seamShares = append([]string{"build", "open_flows", "collect", "sim_run_self"}, hookNames...)
)

// seamTrace runs every traceable scenario once with wrapped hooks, checks the
// replica simulated exactly what exp.Run did, and reports each phase's and
// hook's share of the traced exp.trial spans plus the wrappers' overhead
// against the plain repetitions.
func seamTrace(l *ledger, runs []cellRun, times []cellTimes) []span {
	log := &spanLog{t0: time.Now()}
	busy := map[string]time.Duration{}
	var traced, plain time.Duration
	for i := range runs {
		for j, sc := range runs[i].grid {
			if !traceable(sc) {
				continue
			}
			l.attempted++
			ref := runs[i].trials[j]
			root := log.begin(ref.Name, "exp.trial", 0)
			sender, engine, err := tracedTrial(log, root, sc, busy)
			traced += log.end(root)
			plain += min(times[i].trials[j][0], times[i].trials[j][1])
			switch {
			case err != nil:
				l.fail("seam trace %s: %v", ref.Name, err)
			case sender != ref.Sender || engine.EventsExecuted != ref.Engine.EventsExecuted:
				l.fail("seam trace %s: the traced replica diverged from exp.Run (events %d vs %d)",
					ref.Name, engine.EventsExecuted, ref.Engine.EventsExecuted)
			}
		}
	}
	for _, name := range seamShares {
		share := 0.0
		if traced > 0 {
			share = float64(busy[name]) / float64(traced)
		}
		l.set("trace.share."+name, share, "share")
	}
	overhead := 0.0
	if plain > 0 {
		overhead = float64(traced) / float64(plain)
	}
	l.set("trace.overhead_ratio", overhead, "ratio")
	return log.spans
}

// tracedTrial is exp.Run's collective or motivation path rebuilt from the
// exported pieces, with a span around each phase and a wrapper on each
// per-packet seam the fabric exposes: Network.AttachHost (the RNIC's receive
// entry) and Network.SetTorPipeline (the three Themis hooks). What remains of
// the run span after the hooks' busy time is sim_run_self — engine, fabric,
// lb and the RNIC's transmit side — which cannot be separated from outside.
func tracedTrial(log *spanLog, root int, sc exp.Scenario, busy map[string]time.Duration) (rnic.SenderStats, sim.Metrics, error) {
	trial := log.spans[root-1].Trial
	phase := func(name string, fn func()) {
		id := log.begin(trial, name, root)
		fn()
		busy[name] += log.end(id)
	}

	cfg := workload.ClusterConfig{
		Seed: sc.Seed, LB: sc.LB, Transport: sc.Transport, TI: sc.TI, TD: sc.TD,
		Leaves: sc.Leaves, Spines: sc.Spines, HostsPerLeaf: sc.HostsPerLeaf, Bandwidth: sc.Bandwidth,
	}
	horizon := 30 * sim.Second
	if sc.Workload == exp.Motivation {
		// The §2.2 study pins its fabric, spraying arm and classic DCQCN
		// timers (workload.RunMotivation's defaults).
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf, cfg.Bandwidth = 4, 4, 2, 100e9
		cfg.LB = workload.RandomSpray
		cfg.TI, cfg.TD = 55*sim.Microsecond, 50*sim.Microsecond
		horizon = 10 * sim.Second
	} else if cfg.Leaves == 0 {
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = paperLeaves, 16, paperGroups
	}

	var cl *workload.Cluster
	var err error
	hooks := map[string]*hook{}
	for _, name := range hookNames {
		hooks[name] = &hook{}
	}
	phase("build", func() {
		cl, err = workload.BuildCluster(cfg)
		if err != nil {
			return
		}
		rx := hooks["rnic_handle_packet"]
		for h, nic := range cl.NICs {
			handle := nic.HandlePacket
			cl.Net.AttachHost(packet.NodeID(h), func(p *packet.Packet) {
				defer rx.observe(time.Now())
				handle(p)
			})
		}
		for _, sw := range cl.Topo.Switches() {
			th, ok := cl.Themis[sw.ID]
			if !ok {
				continue
			}
			cl.Net.SetTorPipeline(sw.ID, &tracedPipeline{
				inner:    th,
				selectUp: hooks["core_select_uplink"],
				deliver:  hooks["core_on_deliver"],
				filter:   hooks["core_filter_ctrl"],
			})
		}
	})
	if err != nil {
		return rnic.SenderStats{}, sim.Metrics{}, err
	}

	remaining := 0
	finish := func() {
		remaining--
		if remaining == 0 {
			cl.Engine.Stop()
		}
	}
	var sampler *sim.Ticker
	phase("open_flows", func() {
		if sc.Workload == exp.Motivation {
			flows := workload.MotivationFlows()
			remaining = len(flows)
			conns := make([]*workload.Conn, len(flows))
			for i, f := range flows {
				conns[i] = cl.Conn(f[0], f[1])
				conns[i].Send(sc.MessageBytes, finish)
			}
			// RunMotivation samples the observed flow's rate every 10 us; the
			// ticker's events are part of what exp.Run simulates.
			sampler = sim.NewTicker(cl.Engine, 10*sim.Microsecond, func() { _ = conns[0].Sender.Rate() })
			sampler.Start()
			return
		}
		groups := sc.Groups
		if groups == 0 {
			groups = cfg.HostsPerLeaf
		}
		remaining = groups
		for g := 0; g < groups; g++ {
			hosts := workload.GroupHosts(cfg.Leaves, cfg.HostsPerLeaf, g)
			collective.Run(sc.Pattern, cl.Mesh(hosts), len(hosts), sc.MessageBytes, finish)
		}
	})

	id := log.begin(trial, "run", root)
	cl.Run(horizon)
	if sampler != nil {
		sampler.Stop()
	}
	cl.Engine.RunAll()
	runTime := log.end(id)
	for _, name := range hookNames {
		h := hooks[name]
		busy[name] += h.busy
		runTime -= h.busy
		end := log.spans[id-1].EndNs
		log.spans = append(log.spans, span{
			ID: len(log.spans) + 1, Parent: id, Trial: trial, Name: name,
			StartNs: log.spans[id-1].StartNs, EndNs: end,
			Count: h.count, BusyNs: h.busy.Nanoseconds(), MaxNs: h.worst.Nanoseconds(),
		})
	}
	busy["sim_run_self"] += runTime

	var sender rnic.SenderStats
	var engine sim.Metrics
	phase("collect", func() {
		sender = cl.AggregateSenderStats()
		_ = cl.ThemisStats()
		_ = cl.Net.Counters()
		engine = cl.Engine.Metrics()
	})
	if remaining != 0 {
		return sender, engine, fmt.Errorf("%d transfers unfinished at the horizon", remaining)
	}
	return sender, engine, nil
}

// writeSpans writes the run's spans to benchmark/out/ under the checkout
// root. An empty trace (fault_soak -smoke has one traceable cell, never none)
// is still written so a missing file always means a failed run.
func writeSpans(o options, workloadName string, spans []span) error {
	dir := filepath.Join(o.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workloadName, o.seed))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
