package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rsin/internal/core"
	"rsin/internal/multiflow"
	"rsin/internal/system"
	"rsin/internal/topology"
)

// The core trace drives a deterministic steady-state epoch trace —
// arrivals, releases and link fault/repair churn on the workload's fabric
// — through the workload's solver entry point, the way cmd/rsinbench's
// warm/cold trace does, and certifies every epoch: VerifyOptimal for
// MaxFlow, VerifyMinCost for MinCost, and for Hetero the recorded gap
// against the exact branch-and-bound oracle on a seeded sample.

type coreCounts struct {
	Solves     int `json:"solves"`
	Granted    int `json:"granted"`
	ArcScans   int `json:"arc_scans"`
	NodeVisits int `json:"node_visits"`
	// Augmentations counts augmenting paths, or network simplex pivots.
	Augmentations int `json:"augmentations"`
	FastPaths     int `json:"fast_paths"`
	Warm          int `json:"warm"`
	Certified     int `json:"certified"`
	Greedy        int `json:"greedy"`
	GapUnits      int `json:"gap_units"`
	Oracle        int `json:"oracle_checks"`
}

type coreResult struct {
	counts  coreCounts
	solveUS []float64
}

// oracleEvery spaces the hetero oracle checks; oracleNodes bounds each
// branch-and-bound search (a truncated search still lower-bounds the
// optimum, so the check stays sound).
const (
	oracleEvery = 8
	oracleNodes = 200
)

// engine is the discipline the workload's scheduler runs.
func engine(w *workload) system.Discipline {
	switch w.name {
	case "front-door":
		return system.MinCost
	case "typed-pool":
		return system.Hetero
	}
	return system.MaxFlow
}

// coreTrace runs steps epochs of discipline's engine on a fresh copy of
// the workload's first fabric, recording each solve as a span named span.
func coreTrace(w *workload, discipline system.Discipline, rng *rand.Rand, steps int, sp *spanLog, span string) (coreResult, error) {
	var res coreResult
	net := w.fabrics()[0]
	var types []int
	if discipline == system.Hetero {
		types = stripedTypes()
	}
	var planner core.Planner
	links := innerLinks(net)
	heldProc := map[int]bool{}
	heldRes := map[int]bool{}
	var circuits []topology.Circuit
	drop := func(i int) {
		c := circuits[i]
		delete(heldProc, c.Proc)
		delete(heldRes, c.Res)
		circuits = append(circuits[:i], circuits[i+1:]...)
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0:
			_ = net.FailLink(links[rng.Intn(len(links))])
			for i := len(circuits) - 1; i >= 0; i-- {
				for _, l := range circuits[i].Links {
					if !net.LinkUsable(l) {
						net.ForceRelease(circuits[i])
						drop(i)
						break
					}
				}
			}
		case 1, 2:
			_ = net.RepairLink(links[rng.Intn(len(links))])
		}
		for i := len(circuits) - 1; i >= 0; i-- {
			if rng.Intn(4) == 0 {
				if err := net.Release(circuits[i]); err != nil {
					return res, fmt.Errorf("core trace step %d: release: %w", step, err)
				}
				drop(i)
			}
		}
		var reqs []core.Request
		for p := 0; p < net.Procs; p++ {
			if !heldProc[p] && rng.Intn(3) == 0 {
				rq := core.Request{Proc: p}
				switch discipline {
				case system.MinCost:
					rq.Priority = system.TierWeight(rng.Intn(3))
				case system.Hetero:
					rq.Type = rng.Intn(typedTypes)
				}
				reqs = append(reqs, rq)
			}
		}
		var avail []core.Avail
		for r := 0; r < net.Ress; r++ {
			if !heldRes[r] && !net.ResourceFaulted(r) {
				a := core.Avail{Res: r}
				if types != nil {
					a.Type = types[r]
				}
				avail = append(avail, a)
			}
		}
		if len(reqs) == 0 || len(avail) == 0 {
			continue
		}
		t0 := time.Now()
		var m *core.Mapping
		var err error
		switch discipline {
		case system.MaxFlow:
			m, err = planner.ScheduleIncremental(net, reqs, avail)
		case system.MinCost:
			m, err = planner.ScheduleMinCostIncremental(net, reqs, avail)
		default:
			m, err = core.ScheduleHetero(net, reqs, avail, nil)
		}
		t1 := time.Now()
		if err != nil {
			return res, fmt.Errorf("core trace step %d: solve: %w", step, err)
		}
		res.solveUS = append(res.solveUS, float64(t1.Sub(t0))/1e3)
		sp.add(span, int64(step), 0, t0, t1)
		if err := certify(discipline, net, reqs, avail, m, res.counts.Solves, &res.counts); err != nil {
			return res, fmt.Errorf("core trace step %d: %w", step, err)
		}
		c := &res.counts
		c.Solves++
		c.Granted += m.Allocated()
		c.ArcScans += m.Ops.ArcScans
		c.NodeVisits += m.Ops.NodeVisits
		c.Augmentations += m.Ops.Augmentations
		c.FastPaths += m.Solve.FastPaths
		if m.Solve.Warm {
			c.Warm++
		}
		if m.Solve.MultiFastPath {
			c.Certified++
		}
		if m.Solve.MultiGreedy {
			c.Greedy++
		}
		c.GapUnits += m.Solve.MultiGap
		if err := m.Apply(net); err != nil {
			return res, fmt.Errorf("core trace step %d: apply: %w", step, err)
		}
		for _, a := range m.Assigned {
			circuits = append(circuits, a.Circuit)
			heldProc[a.Req.Proc] = true
			heldRes[a.Res] = true
		}
	}
	return res, nil
}

// certify checks one epoch's mapping before it is applied.
func certify(d system.Discipline, net *topology.Network, reqs []core.Request, avail []core.Avail, m *core.Mapping, solve int, c *coreCounts) error {
	switch d {
	case system.MaxFlow:
		return core.VerifyOptimal(net, reqs, avail, m)
	case system.MinCost:
		return core.VerifyMinCost(net, reqs, avail, m)
	}
	if solve%oracleEvery != 0 {
		return nil
	}
	g, comms := core.BuildMulticommodity(net, reqs, avail)
	o, err := multiflow.BranchAndBound(g, comms, nil, oracleNodes)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	c.Oracle++
	return checkHeteroBound(m.Allocated(), m.Solve.MultiGap, int(math.Round(o.Total)))
}
