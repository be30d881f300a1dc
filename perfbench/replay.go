package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rsin/internal/core"
	"rsin/internal/system"
)

// The system replay drives a workload's seeded arrival stream through
// system.System single-threaded, in virtual time, the way a sched shard
// drives it: each flushPeriod the due releases, submissions and faults are
// applied, then Cycle runs until it grants nothing, with EndTransmission
// for every grant. Virtual time makes its counts exact for a seed; the
// spans around each call give the system layer's own latency.

// flushPeriod is sched's default FlushEvery, the epoch cadence replayed.
const flushPeriod = 500 * time.Microsecond

type replayCounts struct {
	Cycles         int64 `json:"cycles"`
	Granted        int64 `json:"granted"`
	Deferred       int64 `json:"deferred"`
	GangsActivated int64 `json:"gangs_activated"`
	Provisioned    int64 `json:"provisioned"`
	Severed        int64 `json:"severed"`
}

type replayResult struct {
	counts                   replayCounts
	cycleUS, submitUS, endUS []float64
}

// replayShard is one shard's System with the benchmark's bookkeeping.
type replayShard struct {
	sys   *system.System
	tasks map[system.TaskID]taskSpec    // submitted, not yet provisioned
	gangs map[system.GangID]*replayGang // submitted, not yet provisioned
}

type replayGang struct {
	spec  taskSpec
	phase int // collectives: the phase this gang runs
	procs []int
}

// release is a virtual-time event: a provisioned task, gang or collective
// phase ending its hold, or a link healing.
type release struct {
	at     time.Duration
	seq    int
	shard  int
	task   system.TaskID
	gang   system.GangID
	rg     *replayGang
	repair int // link to heal, or -1
}

// replay runs the stream through fresh Systems built from cfgs, one per
// shard. sp, when non-nil, records a span around every call.
func replay(cfgs []system.Config, as []arrival, sp *spanLog) (replayResult, error) {
	var res replayResult
	shards := make([]*replayShard, len(cfgs))
	for i, c := range cfgs {
		sys, err := system.New(c)
		if err != nil {
			return res, err
		}
		shards[i] = &replayShard{sys: sys, tasks: map[system.TaskID]taskSpec{},
			gangs: map[system.GangID]*replayGang{}}
	}
	var pending []release
	seq := 0
	push := func(rl release) {
		seq++
		rl.seq = seq
		pending = append(pending, rl)
	}
	timed := func(name string, into *[]float64, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		*into = append(*into, float64(t1.Sub(t0))/1e3)
		sp.add(name, 0, 0, t0, t1)
		return err
	}
	submitGang := func(sh *replayShard, rg *replayGang) error {
		members := make([]system.Task, len(rg.procs))
		for i, p := range rg.procs {
			members[i] = system.Task{Proc: p}
		}
		var gid system.GangID
		err := timed("system.submit_gang", &res.submitUS, func() (err error) {
			gid, _, err = sh.sys.SubmitGang(members)
			return err
		})
		if err != nil {
			return err
		}
		sh.gangs[gid] = rg
		return nil
	}
	if len(as) == 0 {
		return res, nil
	}
	next := 0
	for now := time.Duration(0); next < len(as) || len(pending) > 0 || busy(shards); now += flushPeriod {
		if now > as[len(as)-1].due+time.Minute {
			return res, errors.New("replay: work still queued a virtual minute after the last arrival")
		}
		// Releases and heals due by now, in a fixed order.
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].at != pending[j].at {
				return pending[i].at < pending[j].at
			}
			return pending[i].seq < pending[j].seq
		})
		k := 0
		for ; k < len(pending) && pending[k].at <= now; k++ {
			rl := pending[k]
			sh := shards[rl.shard]
			var err error
			switch {
			case rl.repair >= 0:
				_, err = sh.sys.ApplyFault(system.FaultOp{Repair: true, Target: system.FaultTargetLink, Index: rl.repair})
			case rl.rg != nil:
				err = timed("system.end_service", &res.endUS, func() error { return sh.sys.EndGangService(rl.gang) })
				if err == nil && rl.rg.spec.kind == kindCollective && rl.rg.phase+1 < len(phasesOf(rl.rg)) {
					err = submitGang(sh, nextPhase(rl.rg))
				}
			default:
				err = timed("system.end_service", &res.endUS, func() error { return sh.sys.EndService(rl.task) })
			}
			if err != nil {
				return res, fmt.Errorf("replay: release at %v: %w", rl.at, err)
			}
		}
		pending = pending[k:]
		// Arrivals due by now.
		for ; next < len(as) && as[next].due <= now; next++ {
			a := as[next]
			if c := a.chaos; c != nil {
				affected, err := shards[c.shard].sys.ApplyFault(system.FaultOp{Target: system.FaultTargetLink, Index: c.link})
				if err != nil {
					return res, fmt.Errorf("replay: fault: %w", err)
				}
				res.counts.Severed += int64(len(affected))
				push(release{at: a.due + c.down, shard: c.shard, repair: c.link})
				continue
			}
			sh := shards[a.task.shard]
			var err error
			switch a.task.kind {
			case kindSingle:
				var id system.TaskID
				err = timed("system.submit", &res.submitUS, func() (err error) {
					id, err = sh.sys.Submit(system.Task{Proc: a.task.procs[0], Needs: a.task.needs, Tier: a.task.tier})
					return err
				})
				if err == nil {
					sh.tasks[id] = a.task
				}
			case kindGang:
				err = submitGang(sh, &replayGang{spec: a.task, procs: a.task.procs})
			case kindCollective:
				err = submitGang(sh, nextPhase(&replayGang{spec: a.task, phase: -1}))
			}
			if err != nil {
				return res, fmt.Errorf("replay: submit: %w", err)
			}
		}
		// One epoch per shard: cycle until nothing more is granted.
		for si, sh := range shards {
			if len(sh.tasks) == 0 && len(sh.gangs) == 0 {
				continue
			}
			for {
				var cr *system.CycleResult
				err := timed("system.cycle", &res.cycleUS, func() (err error) {
					cr, err = sh.sys.Cycle()
					return err
				})
				if err != nil {
					return res, fmt.Errorf("replay: cycle: %w", err)
				}
				res.counts.Cycles++
				res.counts.Granted += int64(cr.Granted)
				res.counts.Deferred += int64(cr.Deferred)
				res.counts.GangsActivated += int64(cr.GangsActivated)
				if cr.Granted == 0 {
					break
				}
				for _, a := range cr.Mapping.Assigned {
					if err := sh.sys.EndTransmission(a.Req.Proc); err != nil && !errors.Is(err, system.ErrCircuitSevered) {
						return res, fmt.Errorf("replay: end transmission: %w", err)
					}
				}
			}
			for _, gid := range sortedKeys(sh.gangs) {
				if sh.sys.GangProvisioned(gid) {
					rg := sh.gangs[gid]
					delete(sh.gangs, gid)
					res.counts.Provisioned += int64(len(rg.procs))
					push(release{at: now + rg.spec.hold, shard: si, gang: gid, rg: rg, repair: -1})
				}
			}
			for _, id := range sortedKeys(sh.tasks) {
				if sh.sys.Remaining(id) == 0 {
					ts := sh.tasks[id]
					delete(sh.tasks, id)
					res.counts.Provisioned++
					push(release{at: now + ts.hold, shard: si, task: id, repair: -1})
				}
			}
		}
	}
	return res, nil
}

// phasesOf lowers a collective's ring allreduce. The benchmark draws
// fabricRanks distinct ranks, which always lower.
func phasesOf(rg *replayGang) []core.Phase {
	phases, _ := core.LowerCollective(core.RingAllReduce, len(rg.spec.procs))
	return phases
}

// nextPhase lowers a collective's next phase onto its ranks' processors.
func nextPhase(rg *replayGang) *replayGang {
	n := &replayGang{spec: rg.spec, phase: rg.phase + 1}
	for _, tr := range phasesOf(rg)[n.phase] {
		n.procs = append(n.procs, rg.spec.procs[tr.From])
	}
	return n
}

func busy(shards []*replayShard) bool {
	for _, sh := range shards {
		if len(sh.tasks) > 0 || len(sh.gangs) > 0 {
			return true
		}
	}
	return false
}

func sortedKeys[K ~int, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// replayConfigs mirrors the workload's shard configurations.
func replayConfigs(w *workload) []system.Config {
	nets := w.fabrics()
	switch w.name {
	case "fabric-mix":
		return []system.Config{{Net: nets[0]}, {Net: nets[1]}}
	case "front-door":
		return []system.Config{{Net: nets[0], Discipline: system.MinCost}}
	default:
		return []system.Config{{Net: nets[0], Discipline: system.Hetero, Types: stripedTypes(), Avoidance: system.AvoidanceBankers}}
	}
}
