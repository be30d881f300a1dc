package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rsin/internal/core"
	"rsin/internal/sched"
	"rsin/internal/system"
	"rsin/internal/topology"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestConfigMatchesBenchmarkFile pins workloads.json to BENCHMARK.json:
// every gated workload configured with the same reason, and the same
// per-layer metrics with the same units, each mapped onto workloads the
// command runs.
func TestConfigMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if wc, ok := cfg.Workloads[w.Name]; !ok || wc.Why != w.Why {
			t.Errorf("workload %s: workloads.json gives the reason %q, BENCHMARK.json %q", w.Name, wc.Why, w.Why)
		}
	}
	units := map[string]string{}
	for _, l := range cfg.Layers {
		units[l.Metric] = l.Unit
		for _, on := range l.On {
			if _, ok := cfg.Workloads[on]; !ok {
				t.Errorf("per-layer %s moves metrics on unknown workload %s", l.Metric, on)
			}
		}
	}
	for _, m := range bf.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s: workloads.json unit %q, BENCHMARK.json %q", m.Name, u, m.Unit)
		}
	}
	if len(units) != len(bf.PerLayer) {
		t.Errorf("workloads.json maps %d layer metrics, BENCHMARK.json lists %d", len(units), len(bf.PerLayer))
	}
}

// TestTinyRunPrintsEveryMetric runs each workload of the command (the
// gated ones and front-door) briefly, untraced and traced, and checks the
// last line names every metric of BENCHMARK.json with its unit, and that
// every end-to-end metric a per-layer metric should move is printed.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	if err := os.Chdir(".."); err != nil { // spans go under the repository root, as in a real run
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	printed := map[string]bool{}
	for _, name := range []string{"fabric-mix", "front-door", "typed-pool"} {
		for trace, want := range [][]struct{ Name, Unit string }{toPairs(bf.EndToEnd), toPairs(bf.PerLayer)} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			var detail struct{ Report report }
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
				t.Fatalf("%v: report line: %v", args, err)
			}
			for m := range res.Metrics {
				printed[m] = true
			}
			for m := range detail.Report.Extra {
				printed[m] = true
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d", args, res.Correct, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: printed %d metrics, BENCHMARK.json lists %d", args, len(res.Metrics), len(want))
			}
		}
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range cfg.Layers {
		for _, m := range l.Moves {
			if !printed[m] {
				t.Errorf("per-layer %s should move %s, which no run printed", l.Metric, m)
			}
		}
	}
}

func toPairs(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// TestReplayAndCoreTraceDeterministic: the offline layer measurements
// count the same for the same seed.
func TestReplayAndCoreTraceDeterministic(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fabric-mix", "front-door", "typed-pool"} {
		w, err := newWorkload(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{w: w, seed: 5}
		var counts []replayCounts
		var cores, simplexes []coreCounts
		for i := 0; i < 2; i++ {
			as := w.arrivals(r.rng(segNominal), w.cfg.Nominal, replayWindow[name]/4)
			rp, err := replay(replayConfigs(w), as, nil)
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			counts = append(counts, rp.counts)
			ct, err := coreTrace(w, engine(w), r.rng(segCore), coreSteps[name]/4, nil, "core.solve")
			if err != nil {
				t.Fatalf("%s: core trace: %v", name, err)
			}
			cores = append(cores, ct.counts)
			ns, err := coreTrace(w, system.MinCost, r.rng(segNetSimplex), netSimplexSteps/4, nil, "netsimplex.solve")
			if err != nil {
				t.Fatalf("%s: network simplex trace: %v", name, err)
			}
			simplexes = append(simplexes, ns.counts)
		}
		if counts[0] != counts[1] || counts[0].Cycles == 0 || counts[0].Provisioned == 0 {
			t.Errorf("%s: replay counts %+v then %+v", name, counts[0], counts[1])
		}
		if !reflect.DeepEqual(cores[0], cores[1]) || cores[0].Solves == 0 {
			t.Errorf("%s: core trace counts %+v then %+v", name, cores[0], cores[1])
		}
		if !reflect.DeepEqual(simplexes[0], simplexes[1]) || simplexes[0].Augmentations == 0 {
			t.Errorf("%s: network simplex trace counts %+v then %+v", name, simplexes[0], simplexes[1])
		}
	}
}

// TestPoissonConditionedOnCount: a segment offers exactly its rate, in
// order inside the segment, and one seed lays out the same instants.
func TestPoissonConditionedOnCount(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(3)), 250, 2*time.Second)
	b := poisson(rand.New(rand.NewSource(3)), 250, 2*time.Second)
	if len(a) != 500 || !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Errorf("250/s over 2s: %d arrivals from %v to %v", len(a), a[0], a[len(a)-1])
	}
	if !slices.Equal(a, b) {
		t.Error("the same seed laid out different arrivals")
	}
}

// TestChecksFire feeds every output check a synthetic violation.
func TestChecksFire(t *testing.T) {
	l := newLedger(4)
	if err := l.acquire(0, []int{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if l.acquire(0, []int{3, 2}, 8) == nil {
		t.Error("ledger accepted a unit handed to a second live holder")
	}
	if l.holder[0][3] != 0 {
		t.Error("a refused acquire left a unit recorded")
	}
	if l.release(0, []int{1}, 8) == nil {
		t.Error("ledger accepted a release by a task that does not hold the unit")
	}
	if l.acquire(0, []int{9}, 9) == nil {
		t.Error("ledger accepted a resource outside the fabric")
	}
	types := stripedTypes()
	if checkTyped(map[int]int{0: 1, 1: 1}, []int{0, 3}, types) == nil {
		t.Error("typed check accepted two type-0 units for a {0:1, 1:1} vector")
	}
	if checkTyped(map[int]int{0: 1}, []int{0, 1}, types) == nil {
		t.Error("typed check accepted an extra type")
	}
	if err := checkTyped(map[int]int{0: 1, 1: 1}, []int{0, 1}, types); err != nil {
		t.Errorf("typed check refused an exact grant: %v", err)
	}
	if checkGang([]int{1, 1}, [][]int{{4}, {}}) == nil {
		t.Error("gang check accepted a member with nothing held")
	}
	if checkGang([]int{1, 1}, [][]int{{4}}) == nil {
		t.Error("gang check accepted a missing member")
	}
	if checkPhases(5, 6) == nil {
		t.Error("phase check accepted a collective short of a phase")
	}
	if checkIdentity(sched.Stats{Submitted: 10, Serviced: 8, Failed: 1}) == nil {
		t.Error("identity check accepted a task with no terminal count")
	}
	if checkShed("") == nil || checkShed("1.5") == nil {
		t.Error("shed check accepted a 503 without a whole-second Retry-After")
	}
	if checkHeteroBound(3, 0, 4) == nil {
		t.Error("hetero bound accepted alloc+gap below the oracle")
	}

	// Epoch certificates: a mapping that drops a grant is not optimal,
	// and one that hands a resource twice is not valid.
	net := topology.Omega(8)
	reqs := []core.Request{{Proc: 0}, {Proc: 5}}
	avail := []core.Avail{{Res: 1}, {Res: 6}}
	m, err := core.ScheduleMaxFlow(net, reqs, avail)
	if err != nil || m.Allocated() != 2 {
		t.Fatalf("solve: %v, allocated %d", err, m.Allocated())
	}
	var c coreCounts
	short := &core.Mapping{Assigned: m.Assigned[:1]}
	if certify(system.MaxFlow, net, reqs, avail, short, 0, &c) == nil {
		t.Error("VerifyOptimal accepted a mapping one grant short")
	}
	twice := &core.Mapping{Assigned: []core.Assignment{m.Assigned[0], m.Assigned[0]}}
	if certify(system.MinCost, net, reqs, avail, twice, 0, &c) == nil {
		t.Error("VerifyMinCost accepted a processor allocated twice")
	}
	if err := certify(system.MaxFlow, net, reqs, avail, m, 0, &c); err != nil {
		t.Errorf("VerifyOptimal refused the optimum: %v", err)
	}
}
