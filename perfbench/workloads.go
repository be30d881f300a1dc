package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rsin/internal/obs"
	"rsin/internal/sched"
	"rsin/internal/server"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// Workload shapes. The rates, ladders and latency limits live in
// workloads.json; the shapes below are what each workload is for.
const (
	// fabric-mix: two MaxFlow Omega(64) shards. Shard 0 serves single-unit
	// singletons; shard 1 mixes singletons with explicit gangs and ring
	// allreduce collectives. Holds are short, so the fabric stays partly
	// occupied and the work is sched op handling and system bookkeeping.
	// Gangs and collectives arrive at fixed rates and singletons, split
	// evenly between the shards, make up the rest of the offered rate:
	// gang arrivals past a few hundred per second tip shard 1 into a
	// backlog that feeds on itself at a rate that varies from run to run,
	// so a ladder scaling them too would measure that tipping point's luck
	// rather than the shards' capacity.
	fabricN           = 64
	fabricGangRate    = 240 // explicit gangs of 2–3 members per second
	fabricCollectives = 60  // ring allreduce collectives per second
	fabricRanks       = 4   // ranks per collective
	fabricChaosEvery  = 20 * time.Millisecond
	fabricChaosDown   = 2 * time.Millisecond

	// front-door: POST /v1/tasks over h2c into one MinCost Omega(32)
	// shard, zero hold, tiers 0/1/2 at 20/30/50, each request carrying a
	// deadline. The fabric is nearly idle; decode, admission, encode and
	// HTTP are the work.
	doorN        = 32
	doorDeadline = 100 * time.Millisecond
	doorQueue    = 256 // admission MaxQueue
	doorInflight = 300 // admission MaxInflight, below the client's stream cap

	// typed-pool: the Hetero discipline on Omega(32), three types striped
	// r%3, banker's avoidance. Every epoch solves the dense LP.
	typedN          = 32
	typedTypes      = 3
	typedChaosEvery = 100 * time.Millisecond
	typedChaosDown  = 5 * time.Millisecond

	// severRetries is high enough that link chaos never exhausts a task's
	// budget: the workloads are chosen so that no operation fails.
	severRetries = 64
)

// workload is one benchmark traffic mix.
type workload struct {
	name string
	cfg  workloadConfig
	// arrivals draws one segment's requests, and its chaos, from rng.
	arrivals func(rng *rand.Rand, rate float64, d time.Duration) []arrival
	// fabrics builds the workload's fabrics; topology.build_ms times it.
	fabrics func() []*topology.Network
	// start builds a fresh instance. Nil reg and sp give the untraced
	// instance.
	start func(reg *obs.Registry, sp *spanLog) (*instance, error)
}

// instance is a running workload: the scheduler, and either the
// in-process client or the front door with its client.
type instance struct {
	s    *sched.Scheduler
	in   *inproc
	door *door
	ids  *atomic.Int64
}

func (x *instance) fire(ctx context.Context, a arrival, due time.Time, t *tally) {
	if x.door != nil {
		x.door.fire(ctx, a, due, t)
		return
	}
	x.in.fire(ctx, a, due, t)
}

// wait blocks until every fired request has finished its life cycle.
func (x *instance) wait() {
	if x.door != nil {
		x.door.wait()
	}
	if x.in != nil {
		x.in.wait()
	}
}

// close stops the instance and checks terminal accounting. Requests still
// running after stuckLimit are failed by closing the scheduler under them.
func (x *instance) close() error {
	done := make(chan struct{})
	go func() { x.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stuckLimit):
		_ = x.s.Close()
		<-done
		return fmt.Errorf("requests still running %v after the run", stuckLimit)
	}
	var doorErr error
	if x.door != nil {
		doorErr = x.door.close()
	}
	st := x.s.Stats()
	if err := x.s.Close(); err != nil {
		return fmt.Errorf("closing scheduler: %w", err)
	}
	return errors.Join(doorErr, checkIdentity(st))
}

func hold(rng *rand.Rand) time.Duration {
	return time.Duration(500+rng.Intn(1000)) * time.Microsecond
}

// stripedTypes gives typed-pool resource r the type r%typedTypes.
func stripedTypes() []int {
	types := make([]int, typedN)
	for r := range types {
		types[r] = r % typedTypes
	}
	return types
}

func typedNeeds(rng *rand.Rand) map[int]int {
	// Drawn the way cmd/rsinbench's multi section draws them.
	needs := map[int]int{}
	for ty := 0; ty < typedTypes; ty++ {
		if rng.Intn(2) == 0 {
			needs[ty] = 1 + rng.Intn(2)
		}
	}
	if len(needs) == 0 {
		needs[rng.Intn(typedTypes)] = 1
	}
	return needs
}

func newWorkload(name string, cfg benchConfig) (*workload, error) {
	wc, ok := cfg.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{name: name, cfg: wc}
	switch name {
	case "fabric-mix":
		w.fabrics = func() []*topology.Network {
			return []*topology.Network{topology.Omega(fabricN), topology.Omega(fabricN)}
		}
		links := [][]int{innerLinks(topology.Omega(fabricN)), innerLinks(topology.Omega(fabricN))}
		w.arrivals = func(rng *rand.Rand, rate float64, d time.Duration) []arrival {
			var as []arrival
			for _, due := range poisson(rng, rate-fabricGangRate-fabricCollectives, d) {
				as = append(as, arrival{due: due, task: taskSpec{kind: kindSingle, shard: rng.Intn(2),
					procs: []int{rng.Intn(fabricN)}, hold: hold(rng)}})
			}
			for _, due := range poisson(rng, fabricGangRate, d) {
				as = append(as, arrival{due: due, task: taskSpec{kind: kindGang, shard: 1,
					procs: rng.Perm(fabricN)[:2+rng.Intn(2)], hold: hold(rng)}})
			}
			for _, due := range poisson(rng, fabricCollectives, d) {
				as = append(as, arrival{due: due, task: taskSpec{kind: kindCollective, shard: 1,
					procs: rng.Perm(fabricN)[:fabricRanks], hold: hold(rng)}})
			}
			as = append(as, chaosTimeline(rng, 2, links, fabricChaosEvery, fabricChaosDown, d)...)
			sortArrivals(as)
			return as
		}
		w.start = func(reg *obs.Registry, sp *spanLog) (*instance, error) {
			nets := w.fabrics()
			s, err := sched.New(sched.Config{
				Shards:       []system.Config{{Net: nets[0]}, {Net: nets[1]}},
				SeverRetries: severRetries,
				Obs:          reg,
			})
			if err != nil {
				return nil, err
			}
			ids := new(atomic.Int64)
			return &instance{s: s, ids: ids,
				in: &inproc{s: s, led: newLedger(fabricN, fabricN), sp: sp, ids: ids}}, nil
		}
	case "front-door":
		w.fabrics = func() []*topology.Network { return []*topology.Network{topology.Omega(doorN)} }
		w.arrivals = func(rng *rand.Rand, rate float64, d time.Duration) []arrival {
			var as []arrival
			for _, due := range poisson(rng, rate, d) {
				tier := 2
				switch u := rng.Float64(); {
				case u < 0.2:
					tier = 0
				case u < 0.5:
					tier = 1
				}
				as = append(as, arrival{due: due, task: taskSpec{kind: kindSingle, procs: []int{rng.Intn(doorN)}, tier: tier}})
			}
			return as
		}
		w.start = func(reg *obs.Registry, sp *spanLog) (*instance, error) {
			s, err := sched.New(sched.Config{
				Shards: []system.Config{{Net: w.fabrics()[0], Discipline: system.MinCost}},
				Obs:    reg,
			})
			if err != nil {
				return nil, err
			}
			ids := new(atomic.Int64)
			d, err := openDoor(s, doorAdmission(), reg, nproc(), doorDeadline, sp, ids)
			if err != nil {
				s.Close()
				return nil, err
			}
			return &instance{s: s, door: d, ids: ids}, nil
		}
	case "typed-pool":
		w.fabrics = func() []*topology.Network { return []*topology.Network{topology.Omega(typedN)} }
		links := [][]int{innerLinks(topology.Omega(typedN))}
		types := stripedTypes()
		w.arrivals = func(rng *rand.Rand, rate float64, d time.Duration) []arrival {
			var as []arrival
			for _, due := range poisson(rng, rate, d) {
				as = append(as, arrival{due: due, task: taskSpec{kind: kindSingle,
					procs: []int{rng.Intn(typedN)}, needs: typedNeeds(rng), hold: hold(rng)}})
			}
			as = append(as, chaosTimeline(rng, 1, links, typedChaosEvery, typedChaosDown, d)...)
			sortArrivals(as)
			return as
		}
		w.start = func(reg *obs.Registry, sp *spanLog) (*instance, error) {
			s, err := sched.New(sched.Config{
				Shards: []system.Config{{Net: w.fabrics()[0], Discipline: system.Hetero,
					Types: types, Avoidance: system.AvoidanceBankers}},
				SeverRetries: severRetries,
				Obs:          reg,
			})
			if err != nil {
				return nil, err
			}
			ids := new(atomic.Int64)
			return &instance{s: s, ids: ids,
				in: &inproc{s: s, types: types, led: newLedger(typedN), sp: sp, ids: ids}}, nil
		}
	default:
		return nil, fmt.Errorf("workload %q has no shape", name)
	}
	return w, nil
}

func doorAdmission() server.AdmissionConfig {
	return server.AdmissionConfig{MaxInflight: doorInflight, MaxQueue: doorQueue, RetryAfter: 100 * time.Millisecond}
}

// buildFabrics times the topology layer: every fabric of the workload and
// its routing table.
func buildFabrics(w *workload) time.Duration {
	t0 := time.Now()
	for _, net := range w.fabrics() {
		_ = topology.NewRoutingTable(net)
	}
	return time.Since(t0)
}
