package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/system"
)

// The traced run measures every layer from outside: spans the benchmark
// records around its own calls into each layer's public functions, the
// program's obs registry and sched.Stats, a single-threaded replay through
// system.System, and a certified epoch trace through the solver. It first
// serves the nominal stream untraced, then the same stream traced, so
// obs.overhead_frac compares like with like.

const spanDir = ".bench_build/spans"

// replayWindow and coreSteps size the offline layer measurements; each
// takes well under a second on a small box.
var (
	replayWindow = map[string]time.Duration{"fabric-mix": time.Second, "front-door": time.Second, "typed-pool": 2 * time.Second}
	coreSteps    = map[string]int{"fabric-mix": 2000, "front-door": 600, "typed-pool": 100}
)

// netSimplexSteps sizes the MinCost trace of the workloads whose own
// engine is another.
const netSimplexSteps = 600

func (r *runner) layer(name string, v float64, samples int) {
	for _, l := range r.cfgLayers {
		if l.Metric == name {
			r.put(name, l.Unit, v, samples)
			return
		}
	}
	panic("perfbench: per-layer metric " + name + " is missing from workloads.json")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (r *runner) traced() error {
	wc := r.w.cfg
	var builds []float64
	for i := 0; i < 5; i++ {
		builds = append(builds, ms(buildFabrics(r.w)))
	}
	r.layer("topology.build_ms", median(builds), len(builds))
	nominal := r.w.arrivals(r.rng(segNominal), wc.Nominal, r.share(traceShare))

	// Untraced reference on the same inputs.
	x, err := r.setUp(0, nil, nil)
	if err != nil {
		return err
	}
	base, _, err := r.serve(x, nominal, "untraced")
	if err != nil {
		return err
	}
	r.violation(x.close())

	reg, sp := obs.NewRegistry(), newSpanLog()
	x, err = r.setUp(1, reg, sp)
	if err != nil {
		return err
	}
	defer func() { r.violation(x.close()) }()
	sp.reset() // the warm-up's spans are not the measured stream's
	snap0 := reg.Snapshot()
	traced, seg, err := r.serve(x, nominal, "traced")
	if err != nil {
		return err
	}
	snap1 := reg.Snapshot()
	hist := func(a, b obs.Snapshot, name string) obs.HistogramSnapshot {
		return histDiff(a.Histograms[name], b.Histograms[name])
	}
	if base > 0 {
		r.layer("obs.overhead_frac", traced/base-1, 0)
	}
	r.layer("gen.late_ms.p99", quantile(seg.pace.lateMS, 0.99), len(seg.pace.lateMS))
	r.layer("gen.outstanding_max", float64(seg.pace.outstandingMax), 0)

	sg := hist(snap0, snap1, "rsin_sched_submit_to_grant_ms")
	r.layer("sched.submit_to_grant_ms.p50", histQuantile(sg, 0.50), sg.N)
	r.layer("sched.submit_to_grant_ms.p99", histQuantile(sg, 0.99), sg.N)
	ep := hist(snap0, snap1, "rsin_sched_epoch_solve_ms")
	r.layer("sched.epoch_ms.p50", histQuantile(ep, 0.50), ep.N)
	r.layer("sched.epoch_ms.p99", histQuantile(ep, 0.99), ep.N)
	r.layer("sched.epoch_busy_frac", ep.Mean*float64(ep.N)/ms(seg.wall)/float64(x.s.NumShards()), ep.N)
	d := seg.stats
	r.layer("sched.grants_per_epoch", ratio(d.Granted, d.Epochs), int(d.Epochs))
	r.layer("sched.deferred_per_grant", ratio(d.Deferred, d.Granted), int(d.Granted))
	r.layer("sched.severed", float64(d.Severed), 0)
	r.layer("multiflow.certified_frac", ratio(d.MultiFastPath, d.MultiFastPath+d.MultiGreedy), int(d.MultiFastPath+d.MultiGreedy))
	r.layer("multiflow.greedy_epochs", float64(d.MultiGreedy), 0)
	r.layer("multiflow.gap_units", float64(d.MultiGapUnits), 0)

	// Layers this workload's stream does not reach are measured by a short
	// probe through them on the same scheduler: the front door for the
	// in-process workloads, direct gangs (and, for front-door, direct
	// sched calls) for the workloads without gangs.
	gangSnap0, gangSnap1 := snap0, snap1
	if x.door == nil {
		if err := r.doorProbe(x, reg); err != nil {
			return err
		}
	} else {
		gm := x.door.sv.Admission()
		sr := hist(snap0, snap1, "rsin_server_request_ms")
		r.layer("server.request_ms.p50", histQuantile(sr, 0.50), sr.N)
		r.layer("server.request_ms.p99", histQuantile(sr, 0.99), sr.N)
		ad := hist(snap0, snap1, "rsin_server_admission_ms")
		r.layer("server.admission_ms.p99", histQuantile(ad, 0.99), ad.N)
		r.layer("server.overhead_ms.mean", mean(values(seg.tally.grants, all))-sg.Mean, len(seg.tally.grants))
		t, p, drained, err := r.segment(x, r.w.arrivals(r.rng(segOverload), wc.Overload, r.share(wc.OverloadShare/2)))
		if err != nil {
			return err
		}
		r.account("overload", t, p, drained, false)
		r.layer("server.shed_frac", ratio(t.refused.Load(), t.attempted.Load()), int(t.attempted.Load()))
		r.layer("server.admitted_timeout_frac", ratio(t.timeouts.Load(), t.admitted.Load()), int(t.admitted.Load()))
		r.layer("server.peak_queued", float64(gm.State().PeakQueued), 0)
	}
	if r.w.name != "fabric-mix" {
		gangSnap0 = reg.Snapshot()
		if err := r.gangProbe(x); err != nil {
			return err
		}
		gangSnap1 = reg.Snapshot()
	}
	gg := hist(gangSnap0, gangSnap1, "rsin_sched_gang_submit_to_grant_ms")
	r.layer("sched.gang_submit_to_grant_ms.p99", histQuantile(gg, 0.99), gg.N)
	sub := sp.durations("sched.submit", "sched.submit_gang")
	r.layer("sched.submit_call_us.p99", quantile(sub, 0.99), len(sub))
	end := sp.durations("sched.end_service", "sched.end_gang")
	r.layer("sched.end_service_call_us.p99", quantile(end, 0.99), len(end))

	// System layer: the seeded stream replayed single-threaded.
	rp, err := replay(replayConfigs(r.w), r.w.arrivals(r.rng(segNominal), wc.Nominal, replayWindow[r.w.name]), sp)
	if err != nil {
		r.violation(err)
	}
	rc := rp.counts
	r.layer("system.cycle_us.p50", quantile(rp.cycleUS, 0.50), len(rp.cycleUS))
	r.layer("system.cycle_us.p99", quantile(rp.cycleUS, 0.99), len(rp.cycleUS))
	r.layer("system.submit_us.p99", quantile(rp.submitUS, 0.99), len(rp.submitUS))
	r.layer("system.end_service_us.p99", quantile(rp.endUS, 0.99), len(rp.endUS))
	r.layer("system.granted_per_cycle", ratio(rc.Granted, rc.Cycles), int(rc.Cycles))
	r.layer("system.deferred_per_cycle", ratio(rc.Deferred, rc.Cycles), int(rc.Cycles))
	r.layer("system.gangs_activated", float64(rc.GangsActivated), 0)

	// Core layer: the certified epoch trace through the solver entry point.
	ct, err := coreTrace(r.w, engine(r.w), r.rng(segCore), coreSteps[r.w.name], sp, "core.solve")
	if err != nil {
		r.violation(err)
	}
	cc := ct.counts
	r.layer("core.solve_us.p50", quantile(ct.solveUS, 0.50), len(ct.solveUS))
	r.layer("core.solve_us.p99", quantile(ct.solveUS, 0.99), len(ct.solveUS))
	r.layer("maxflow.arc_scans_per_grant", ratio(int64(cc.ArcScans), int64(cc.Granted)), cc.Granted)
	r.layer("maxflow.node_visits_per_grant", ratio(int64(cc.NodeVisits), int64(cc.Granted)), cc.Granted)
	r.layer("core.fast_path_frac", ratio(int64(cc.FastPaths), int64(cc.Granted)), cc.Granted)
	r.layer("core.warm_frac", ratio(int64(cc.Warm), int64(cc.Solves)), cc.Solves)
	r.rep.Replay, r.rep.Core = &rc, &cc

	// Only front-door's scheduler runs the MinCost discipline, so the warm
	// network simplex gets a certified trace of its own on every other
	// workload's fabric.
	ns := ct
	if engine(r.w) != system.MinCost {
		if ns, err = coreTrace(r.w, system.MinCost, r.rng(segNetSimplex), netSimplexSteps, sp, "netsimplex.solve"); err != nil {
			r.violation(err)
		}
		nc := ns.counts
		r.rep.NetSimplex = &nc
	}
	r.layer("netsimplex.solve_us.p50", quantile(ns.solveUS, 0.50), len(ns.solveUS))
	r.layer("netsimplex.solve_us.p99", quantile(ns.solveUS, 0.99), len(ns.solveUS))
	r.layer("netsimplex.pivots_per_grant", ratio(int64(ns.counts.Augmentations), int64(ns.counts.Granted)), ns.counts.Granted)

	path, err := sp.write(spanDir, fmt.Sprintf("spans-%s-%d.jsonl", r.w.name, r.seed))
	if err != nil {
		return err
	}
	r.rep.Spans = filepath.ToSlash(path)
	for _, l := range r.cfgLayers {
		if _, ok := r.res.Metrics[l.Metric]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", l.Metric)
		}
	}
	return nil
}

// served is one traced-run segment's measurements.
type served struct {
	tally *tally
	pace  pacing
	stats sched.Stats // counter deltas over the segment
	wall  time.Duration
}

// serve runs the nominal stream and returns CPU per serviced task.
func (r *runner) serve(x *instance, as []arrival, phase string) (float64, served, error) {
	st0, c0, w0 := x.s.Stats(), cpuTime(), time.Now()
	t, p, drained, err := r.segment(x, as)
	if err != nil {
		return 0, served{}, err
	}
	wall, c1, st1 := time.Since(w0), cpuTime(), x.s.Stats()
	r.account(phase, t, p, drained, true)
	d := statsDelta(st0, st1)
	cpu := 0.0
	if d.Serviced > 0 {
		cpu = float64(c1-c0) / 1e3 / float64(d.Serviced)
	}
	return cpu, served{tally: t, pace: p, stats: d, wall: wall}, nil
}

func statsDelta(a, b sched.Stats) sched.Stats {
	return sched.Stats{
		Granted: b.Granted - a.Granted, Serviced: b.Serviced - a.Serviced,
		Epochs: b.Epochs - a.Epochs, Deferred: b.Deferred - a.Deferred, Severed: b.Severed - a.Severed,
		MultiFastPath: b.MultiFastPath - a.MultiFastPath, MultiGreedy: b.MultiGreedy - a.MultiGreedy,
		MultiGapUnits: b.MultiGapUnits - a.MultiGapUnits,
	}
}

// doorProbe sends the workload's single tasks through a front door
// mounted on its scheduler, with the server's instruments in their own
// registry. It offers them at most at front-door's nominal rate, below the
// door's knee, so the server figures are those of a door keeping up.
func (r *runner) doorProbe(x *instance, reg *obs.Registry) error {
	d := r.share(probeShare)
	var as []arrival
	for _, a := range r.w.arrivals(r.rng(segProbe), r.w.cfg.Nominal, d) {
		if a.chaos == nil && a.task.kind == kindSingle {
			as = append(as, a)
		}
	}
	as = thin(r.rng(segProbe+1), as, int(math.Round(r.doorRate*d.Seconds())))
	srvReg := obs.NewRegistry()
	door, err := openDoor(x.s, doorAdmission(), srvReg, nproc(), doorDeadline, x.in.sp, x.ids)
	if err != nil {
		return err
	}
	door.types = x.in.types
	s0 := reg.Snapshot()
	t, p, drained, err := r.segment(&instance{s: x.s, door: door}, as)
	r.violation(door.close())
	if err != nil {
		return err
	}
	s1 := reg.Snapshot()
	r.account("door-probe", t, p, drained, true)
	srv := srvReg.Snapshot()
	sr := srv.Histograms["rsin_server_request_ms"]
	r.layer("server.request_ms.p50", histQuantile(sr, 0.50), sr.N)
	r.layer("server.request_ms.p99", histQuantile(sr, 0.99), sr.N)
	ad := srv.Histograms["rsin_server_admission_ms"]
	r.layer("server.admission_ms.p99", histQuantile(ad, 0.99), ad.N)
	sg := histDiff(s0.Histograms["rsin_sched_submit_to_grant_ms"], s1.Histograms["rsin_sched_submit_to_grant_ms"])
	r.layer("server.overhead_ms.mean", mean(values(t.grants, all))-sg.Mean, len(t.grants))
	r.layer("server.shed_frac", ratio(t.refused.Load(), t.attempted.Load()), int(t.attempted.Load()))
	r.layer("server.admitted_timeout_frac", ratio(t.timeouts.Load(), t.admitted.Load()), int(t.admitted.Load()))
	r.layer("server.peak_queued", float64(door.sv.Admission().State().PeakQueued), 0)
	return nil
}

// thin keeps n of the arrivals, chosen by rng, in their order.
func thin(rng *rand.Rand, as []arrival, n int) []arrival {
	if len(as) <= n {
		return as
	}
	keep := rng.Perm(len(as))[:n]
	slices.Sort(keep)
	out := make([]arrival, n)
	for i, j := range keep {
		out[i] = as[j]
	}
	return out
}

// gangProbe submits the workload's single tasks straight to the sched API,
// every fifth one as a two-member gang.
func (r *runner) gangProbe(x *instance) error {
	procs := r.w.fabrics()[0].Procs
	var as []arrival
	for i, a := range r.w.arrivals(r.rng(segProbe), r.w.cfg.Nominal, r.share(probeShare)) {
		if a.chaos != nil || a.task.kind != kindSingle {
			continue
		}
		if i%5 == 0 {
			p := a.task.procs[0]
			a.task = taskSpec{kind: kindGang, shard: a.task.shard, procs: []int{p, (p + 1) % procs}, hold: a.task.hold}
		}
		as = append(as, a)
	}
	in := x.in
	if in == nil {
		in = &inproc{s: x.s, led: newLedger(doorN), sp: x.door.sp, ids: x.ids}
	}
	t, p, drained, err := r.segment(&instance{s: x.s, in: in}, as)
	if err != nil {
		return err
	}
	r.account("gang-probe", t, p, drained, true)
	return nil
}

// histDiff is the histogram of the observations between two snapshots of
// the same instrument. Min and max become the edges of the outermost
// occupied buckets.
func histDiff(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)), N: b.N - a.N}
	if d.N <= 0 {
		return obs.HistogramSnapshot{}
	}
	d.Mean = (b.Mean*float64(b.N) - a.Mean*float64(a.N)) / float64(d.N)
	d.Min, d.Max = math.Inf(1), math.Inf(-1)
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			d.Counts[i] -= a.Counts[i]
		}
		if d.Counts[i] == 0 {
			continue
		}
		lo, hi := 0.0, b.Max
		if i > 0 {
			lo = b.Bounds[i-1]
		}
		if i < len(b.Bounds) {
			hi = b.Bounds[i]
		}
		d.Min = math.Min(d.Min, lo)
		d.Max = math.Max(d.Max, hi)
	}
	d.Min = math.Max(d.Min, b.Min)
	d.Max = math.Min(d.Max, b.Max)
	return d
}
