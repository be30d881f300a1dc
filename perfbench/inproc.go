package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rsin/internal/core"
	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

type taskKind int

const (
	kindSingle     taskKind = iota // one task: Need 1, or a typed Needs vector
	kindGang                       // explicit gang, one unit per member
	kindCollective                 // ring allreduce over len(procs) ranks
)

// taskSpec is one generated request. The program receives only what the
// spec says; how it was drawn stays in the benchmark.
type taskSpec struct {
	kind  taskKind
	shard int
	procs []int       // the task's processor; a gang's members; a collective's ranks
	needs map[int]int // typed demand vector (typed-pool), nil for one unit
	tier  int
	hold  time.Duration
}

// chaosSpec fails one link and heals it down later.
type chaosSpec struct {
	shard, link int
	down        time.Duration
}

// innerLinks lists a fabric's box-to-box links. Chaos fails only these: a
// processor's or resource's own link would strand it, and the workloads
// are chosen so that no operation fails.
func innerLinks(net *topology.Network) []int {
	var out []int
	for _, l := range net.Links {
		if l.From.Kind == topology.KindBox && l.To.Kind == topology.KindBox {
			out = append(out, l.ID)
		}
	}
	return out
}

// inproc drives the in-process sched API: Submit, SubmitGang,
// RunCollective, EndService, EndGang and the link fault calls.
type inproc struct {
	s     *sched.Scheduler
	types []int // resource types (typed-pool); nil for untyped fabrics
	led   *ledger
	sp    *spanLog
	wg    sync.WaitGroup // every fired request's life cycle, and chaos
	ids   *atomic.Int64
}

func (in *inproc) fire(ctx context.Context, a arrival, due time.Time, t *tally) {
	if c := a.chaos; c != nil {
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			if err := in.s.FailLink(c.shard, c.link); err != nil {
				t.fail(fmt.Errorf("fail link %d: %w", c.link, err))
				return
			}
			time.Sleep(c.down)
			if err := in.s.RepairLink(c.shard, c.link); err != nil {
				t.fail(fmt.Errorf("repair link %d: %w", c.link, err))
			}
		}()
		return
	}
	id := in.ids.Add(1)
	switch a.task.kind {
	case kindSingle:
		in.single(ctx, a.task, id, due, t)
	case kindGang:
		in.gang(ctx, a.task, id, due, t)
	case kindCollective:
		in.collective(ctx, a.task, id, due, t)
	}
}

func (in *inproc) single(ctx context.Context, ts taskSpec, id int64, due time.Time, t *tally) {
	root := in.sp.newID()
	c0 := time.Now()
	h, err := in.s.SubmitCtx(ctx, ts.shard, system.Task{Proc: ts.procs[0], Needs: ts.needs, Tier: ts.tier})
	c1 := time.Now()
	in.sp.add("sched.submit", id, root, c0, c1)
	if err != nil {
		t.outstanding.Add(-1)
		t.fail(fmt.Errorf("submit: %w", err))
		return
	}
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		<-h.Done()
		g := time.Now()
		t.outstanding.Add(-1)
		in.sp.add("sched.wait_grant", id, root, c1, g)
		in.sp.record(root, "task.grant", id, 0, due, g)
		if err := h.Err(); err != nil {
			t.fail(fmt.Errorf("task %d: %w", id, err))
			return
		}
		res := h.Resources()
		held := true
		if err := in.checkSingle(ts, res); err != nil {
			t.violate(err)
		}
		if err := in.led.acquire(ts.shard, res, id); err != nil {
			t.violate(err)
			held = false
		}
		t.granted.Add(1)
		t.grant(due, g, ts.tier)
		time.Sleep(ts.hold)
		if held {
			if err := in.led.release(ts.shard, res, id); err != nil {
				t.violate(err)
			}
		}
		e0 := time.Now()
		err := in.s.EndService(h)
		in.sp.add("sched.end_service", id, root, e0, time.Now())
		if err != nil {
			t.fail(fmt.Errorf("end service %d: %w", id, err))
		}
	}()
}

func (in *inproc) checkSingle(ts taskSpec, res []int) error {
	if ts.needs != nil {
		return checkTyped(ts.needs, res, in.types)
	}
	if len(res) != 1 {
		return fmt.Errorf("single-unit task granted %d units", len(res))
	}
	return nil
}

func (in *inproc) gang(ctx context.Context, ts taskSpec, id int64, due time.Time, t *tally) {
	root := in.sp.newID()
	members := make([]system.Task, len(ts.procs))
	need := make([]int, len(ts.procs))
	for i, p := range ts.procs {
		members[i] = system.Task{Proc: p}
		need[i] = 1
	}
	c0 := time.Now()
	gh, err := in.s.SubmitGangCtx(ctx, ts.shard, sched.GangSpec{Members: members})
	c1 := time.Now()
	in.sp.add("sched.submit_gang", id, root, c0, c1)
	if err != nil {
		t.outstanding.Add(-1)
		t.fail(fmt.Errorf("submit gang: %w", err))
		return
	}
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		<-gh.Done()
		g := time.Now()
		t.outstanding.Add(-1)
		in.sp.add("sched.wait_gang_grant", id, root, c1, g)
		in.sp.record(root, "gang.grant", id, 0, due, g)
		if err := gh.Err(); err != nil {
			t.fail(fmt.Errorf("gang %d: %w", id, err))
			return
		}
		res := gh.Resources()
		if err := checkGang(need, res); err != nil {
			t.violate(err)
		}
		var units []int
		for _, r := range res {
			units = append(units, r...)
		}
		held := true
		if err := in.led.acquire(ts.shard, units, id); err != nil {
			t.violate(err)
			held = false
		}
		t.granted.Add(int64(len(members)))
		t.gang(due, g)
		time.Sleep(ts.hold)
		if held {
			if err := in.led.release(ts.shard, units, id); err != nil {
				t.violate(err)
			}
		}
		e0 := time.Now()
		err := in.s.EndGang(gh)
		in.sp.add("sched.end_gang", id, root, e0, time.Now())
		if err != nil {
			t.fail(fmt.Errorf("end gang %d: %w", id, err))
		}
	}()
}

// collective runs a ring allreduce. RunCollective hides its phase gangs'
// resources, so the unit ledger does not cover them: a unit granted both
// to a phase and to a singleton or gang on the same shard goes unseen.
// The phase count is checked instead.
func (in *inproc) collective(ctx context.Context, ts taskSpec, id int64, due time.Time, t *tally) {
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		c0 := time.Now()
		res, err := in.s.RunCollective(ctx, ts.shard, sched.CollectiveSpec{
			Pattern: core.RingAllReduce, Procs: ts.procs, PhaseHold: ts.hold,
		})
		in.sp.add("sched.run_collective", id, 0, c0, time.Now())
		t.outstanding.Add(-1)
		if err != nil {
			t.fail(fmt.Errorf("collective %d: %w", id, err))
			return
		}
		if err := checkPhases(res.Phases, 2*(len(ts.procs)-1)); err != nil {
			t.violate(err)
		}
		t.granted.Add(int64(res.Phases * len(ts.procs)))
	}()
}

func (in *inproc) wait() { in.wg.Wait() }
