package system

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rsin/internal/topology"
)

// TestScalarVectorEquivalence is the differential suite for the one demand
// model: a scalar task {Need: n, Type: t} and the one-type vector
// {Needs: {t′: n}} — t′ the type the lowering rule picks (t on a typed
// fabric, 0 on an untyped one) — must be indistinguishable. One seeded op
// stream (submit, gang submit, cycle, end-transmission, end-service,
// cancel, link and resource fail/repair) drives two systems, one fed the
// scalar spelling and one the vector spelling, and every step must match:
// Submit errors, cycle results with their proc→resource assignments,
// holdings, remaining counts and the deadlock detector. Covers every
// discipline, both avoidance modes, and typed and untyped fabrics.
func TestScalarVectorEquivalence(t *testing.T) {
	fabrics := []struct {
		name  string
		types []int
	}{
		{"untyped", nil},
		{"typed", []int{0, 0, 1, 1, 0, 0, 1, 1}},
	}
	disciplines := []Discipline{MaxFlow, MinCost, Hetero, TokenArch}
	steps := 300
	if testing.Short() {
		steps = 80
	}
	for _, fab := range fabrics {
		for _, disc := range disciplines {
			for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
				fab, disc, av := fab, disc, av
				t.Run(fmt.Sprintf("%s/disc=%d/avoid=%d", fab.name, disc, av), func(t *testing.T) {
					seed := int64(9100 + 10*int(disc) + int(av))
					if fab.types != nil {
						seed += 1000
					}
					runScalarVector(t, rand.New(rand.NewSource(seed)), fab.types, disc, av, steps)
				})
			}
		}
	}
}

// scalarVectorPair builds the two spellings of one random task needing at
// most maxNeed units. The scalar type ranges over 0..2: type 2 is unstocked
// on the typed fabric (both spellings must be rejected), and on the untyped
// fabric any type lowers to 0.
func scalarVectorPair(rng *rand.Rand, proc int, typed bool, maxNeed int) (Task, Task) {
	need := rng.Intn(maxNeed + 1) // 0 means 1
	ty := rng.Intn(3)
	base := Task{Proc: proc, Tier: rng.Intn(2), Priority: int64(rng.Intn(4))}
	scalar, vector := base, base
	scalar.Need, scalar.Type = need, ty
	vt := 0
	if typed {
		vt = ty
	}
	vector.Needs = map[int]int{vt: max(need, 1)}
	return scalar, vector
}

func runScalarVector(t *testing.T, rng *rand.Rand, types []int, disc Discipline, av Avoidance, steps int) {
	net := topology.Omega(8)
	mk := func() *System {
		s, err := New(Config{Net: net, Discipline: disc, Avoidance: av, Types: types})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk() // a: scalar spelling, b: vector spelling
	sameErr := func(step int, what string, ea, eb error) {
		t.Helper()
		if (ea == nil) != (eb == nil) {
			t.Fatalf("step %d: %s: scalar err %v, vector err %v", step, what, ea, eb)
		}
		for _, target := range []error{ErrUnsatisfiable, ErrBadTask, ErrCircuitSevered} {
			if errors.Is(ea, target) != errors.Is(eb, target) {
				t.Fatalf("step %d: %s: scalar err %v, vector err %v", step, what, ea, eb)
			}
		}
	}
	var ids []TaskID
	gangOf := map[TaskID]GangID{}
	typed := types != nil
	var failed []FaultOp
	granted, multi, gangs, severed := 0, 0, 0, 0 // trace coverage
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 3: // singleton submit
			ts, tv := scalarVectorPair(rng, rng.Intn(net.Procs), typed, 3)
			ia, ea := a.Submit(ts)
			ib, eb := b.Submit(tv)
			sameErr(step, "submit", ea, eb)
			if ia != ib {
				t.Fatalf("step %d: submit IDs %d vs %d", step, ia, ib)
			}
			if ea == nil {
				ids = append(ids, ia)
				if b.Remaining(ib) > 1 {
					multi++
				}
			}
		case op < 5: // gang submit
			k := 2 + rng.Intn(2)
			procs := rng.Perm(net.Procs)[:k]
			ma, mb := make([]Task, k), make([]Task, k)
			for i, p := range procs {
				ma[i], mb[i] = scalarVectorPair(rng, p, typed, 2)
			}
			ga, ida, ea := a.SubmitGang(ma)
			gb, idb, eb := b.SubmitGang(mb)
			sameErr(step, "submit gang", ea, eb)
			if ga != gb || !reflect.DeepEqual(ida, idb) {
				t.Fatalf("step %d: gang %d %v vs %d %v", step, ga, ida, gb, idb)
			}
			for _, id := range ida {
				ids = append(ids, id)
				gangOf[id] = ga
			}
			if ea == nil {
				gangs++
			}
		case op < 13: // cycle, then acknowledge most transmissions
			ra, ea := a.Cycle()
			rb, eb := b.Cycle()
			sameErr(step, "cycle", ea, eb)
			if ea != nil {
				t.Fatalf("step %d: cycle: %v", step, ea)
			}
			if ra.Granted != rb.Granted || ra.Deferred != rb.Deferred || ra.Broken != rb.Broken ||
				ra.GangsActivated != rb.GangsActivated || ra.Clocks != rb.Clocks {
				t.Fatalf("step %d: cycle results differ: scalar %+v, vector %+v", step, ra, rb)
			}
			if pa, pb := assignments(ra), assignments(rb); !reflect.DeepEqual(pa, pb) {
				t.Fatalf("step %d: assignments differ: scalar %v, vector %v", step, pa, pb)
			}
			granted += ra.Granted
			for p := 0; p < net.Procs; p++ {
				if rng.Intn(5) == 0 {
					continue
				}
				sameErr(step, "end transmission", a.EndTransmission(p), b.EndTransmission(p))
			}
		case op < 17: // end service, mostly of a provisioned task or gang
			var done []TaskID
			for _, id := range ids {
				if b.Remaining(id) == 0 {
					done = append(done, id)
				}
			}
			if len(done) == 0 || rng.Intn(8) == 0 {
				done = ids
			}
			if len(done) == 0 {
				continue
			}
			id := done[rng.Intn(len(done))]
			if gid, ok := gangOf[id]; ok {
				sameErr(step, "end gang service", a.EndGangService(gid), b.EndGangService(gid))
			} else {
				sameErr(step, "end service", a.EndService(id), b.EndService(id))
			}
		case op == 17: // cancel
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if gid, ok := gangOf[id]; ok {
				sameErr(step, "cancel gang", a.CancelGang(gid), b.CancelGang(gid))
			} else {
				sameErr(step, "cancel", a.Cancel(id), b.Cancel(id))
			}
		default: // link or resource failure or repair
			// At most two components down at once; repairs pick a failed one.
			fop := FaultOp{Target: FaultTargetLink, Index: rng.Intn(len(net.Links))}
			if rng.Intn(2) == 0 {
				fop.Target, fop.Index = FaultTargetResource, rng.Intn(net.Ress)
			}
			if len(failed) >= 2 || (len(failed) > 0 && rng.Intn(2) == 0) {
				fop = failed[0]
				failed = failed[1:]
				fop.Repair = true
			} else {
				failed = append(failed, fop)
			}
			aa, ea := a.ApplyFault(fop)
			ab, eb := b.ApplyFault(fop)
			sameErr(step, "fault", ea, eb)
			if !reflect.DeepEqual(aa, ab) {
				t.Fatalf("step %d: fault %+v affected %v vs %v", step, fop, aa, ab)
			}
			severed += len(aa)
		}
		live := ids[:0]
		for _, id := range ids {
			if a.Remaining(id) != -1 || b.Remaining(id) != -1 {
				live = append(live, id)
			}
		}
		ids = live
		for _, id := range ids {
			if ha, hb := a.Holding(id), b.Holding(id); !reflect.DeepEqual(ha, hb) {
				t.Fatalf("step %d: task %d holds %v (scalar) vs %v (vector)", step, id, ha, hb)
			}
			if ra, rb := a.Remaining(id), b.Remaining(id); ra != rb {
				t.Fatalf("step %d: task %d remaining %d (scalar) vs %d (vector)", step, id, ra, rb)
			}
		}
		if da, db := a.Deadlocked(), b.Deadlocked(); da != db {
			t.Fatalf("step %d: deadlocked %v (scalar) vs %v (vector)", step, da, db)
		}
	}
	t.Logf("coverage: %d grants, %d multi-unit tasks, %d gangs, %d severed", granted, multi, gangs, severed)
	if granted == 0 || multi == 0 || gangs == 0 {
		t.Fatalf("vacuous trace: %d grants, %d multi-unit tasks, %d gangs", granted, multi, gangs)
	}
}

// assignments lists a cycle's grants as sorted (proc, resource) pairs.
func assignments(r *CycleResult) [][2]int {
	var out [][2]int
	if r.Mapping != nil {
		for _, a := range r.Mapping.Assigned {
			out = append(out, [2]int{a.Req.Proc, a.Res})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestUntypedScalarTypeGranted pins the lowering rule on a fabric without
// Config.Types: every resource is type 0, so a scalar task naming another
// type is a type-0 demand and is granted under every discipline. Before
// the rule, Hetero admitted such a task and then never granted it, and it
// blocked its processor queue for good.
func TestUntypedScalarTypeGranted(t *testing.T) {
	for _, disc := range []Discipline{MaxFlow, MinCost, Hetero, TokenArch} {
		for _, av := range []Avoidance{AvoidanceNone, AvoidanceBankers} {
			s, err := New(Config{Net: topology.Omega(8), Discipline: disc, Avoidance: av})
			if err != nil {
				t.Fatal(err)
			}
			id := mustSubmit(t, s, Task{Proc: 0, Type: 2})
			if r := cycle(t, s); r.Granted != 1 {
				t.Fatalf("disc %d avoid %d: granted %d, want 1", disc, av, r.Granted)
			}
			if s.Remaining(id) != 0 {
				t.Fatalf("disc %d avoid %d: remaining %d after grant", disc, av, s.Remaining(id))
			}
			// The vector spelling of a type the fabric does not stock stays
			// unsatisfiable.
			if _, err := s.Submit(Task{Proc: 1, Needs: map[int]int{2: 1}}); !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("disc %d avoid %d: {2:1} on untyped fabric: err = %v, want ErrUnsatisfiable", disc, av, err)
			}
		}
	}
}

// TestLowerAndCheck pins the lowering function and the census check.
func TestLowerAndCheck(t *testing.T) {
	typed := []int{0, 1}
	cases := []struct {
		task  Task
		types []int
		want  Demand
	}{
		{Task{}, nil, Demand{{0, 1}}},
		{Task{Need: 3, Type: 2}, nil, Demand{{0, 3}}},
		{Task{Need: 3, Type: 1}, typed, Demand{{1, 3}}},
		{Task{Type: 1}, typed, Demand{{1, 1}}},
		{Task{Needs: map[int]int{2: 1, 0: 4, 1: 2}}, nil, Demand{{0, 4}, {1, 2}, {2, 1}}},
	}
	for _, c := range cases {
		if got := Lower(c.task, c.types); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Lower(%+v, %v) = %v, want %v", c.task, c.types, got, c.want)
		}
	}
	if got := (Demand{{0, 1}, {2, 2}}).Plus(Demand{{1, 1}, {2, 1}}); !reflect.DeepEqual(got, Demand{{0, 1}, {1, 1}, {2, 3}}) {
		t.Errorf("Plus = %v", got)
	}
	d := Demand{{0, 1}, {1, 2}}
	if err := d.Check(map[int]int{0: 10, 1: 2}); err != nil {
		t.Errorf("fitting demand: %v", err)
	}
	err := d.Check(map[int]int{0: 10, 1: 1})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("short type: err = %v, want ErrUnsatisfiable", err)
	}
	if want := "needs 2 resources of type 1, fabric has 1 usable"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("short type message %q, want prefix %q", err, want)
	}
}
