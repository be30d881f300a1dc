package main

import (
	"fmt"
	"strconv"
	"sync"

	"rsin/internal/sched"
)

// Output checks. Each returns an error describing the violation; the
// caller counts it as a failed operation and fails the run. They are
// small and pure so the self-tests can feed each one a synthetic
// violation.

// ledger tracks which live holder owns each unit of each shard, from the
// moment a handle reports its Resources until the benchmark releases it.
type ledger struct {
	mu     sync.Mutex
	holder [][]int64 // [shard][resource] → owner, 0 when free
}

func newLedger(ress ...int) *ledger {
	l := &ledger{holder: make([][]int64, len(ress))}
	for i, n := range ress {
		l.holder[i] = make([]int64, n)
	}
	return l
}

// acquire records owner as the holder of res; a unit already held by a
// live holder is a double grant.
func (l *ledger) acquire(shard int, res []int, owner int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.holder[shard]
	for i, r := range res {
		if r < 0 || r >= len(h) {
			return fmt.Errorf("shard %d: task %d granted resource %d outside the fabric", shard, owner, r)
		}
		if h[r] != 0 {
			for _, u := range res[:i] {
				h[u] = 0
			}
			return fmt.Errorf("shard %d: resource %d granted to task %d while task %d still holds it", shard, r, owner, h[r])
		}
		h[r] = owner
	}
	return nil
}

// release frees res; it must be called before the scheduler learns of
// the release, so a re-grant can never race the bookkeeping.
func (l *ledger) release(shard int, res []int, owner int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.holder[shard]
	for _, r := range res {
		if h[r] != owner {
			return fmt.Errorf("shard %d: task %d released resource %d held by %d", shard, owner, r, h[r])
		}
		h[r] = 0
	}
	return nil
}

// checkTyped demands that a typed grant match its Needs vector exactly,
// per type.
func checkTyped(needs map[int]int, res []int, types []int) error {
	got := map[int]int{}
	for _, r := range res {
		got[types[r]]++
	}
	if len(got) != len(needs) {
		return fmt.Errorf("typed grant %v covers types %v, want %v", res, got, needs)
	}
	for ty, n := range needs {
		if got[ty] != n {
			return fmt.Errorf("typed grant %v holds %d of type %d, want %d", res, got[ty], ty, n)
		}
	}
	return nil
}

// checkGang demands that a gang reported Done hold every member's full
// demand.
func checkGang(need []int, res [][]int) error {
	if len(res) != len(need) {
		return fmt.Errorf("gang of %d reported %d members provisioned", len(need), len(res))
	}
	for i, r := range res {
		if len(r) != need[i] {
			return fmt.Errorf("gang member %d holds %d units, want %d", i, len(r), need[i])
		}
	}
	return nil
}

// checkPhases demands that a collective ran every planned phase.
func checkPhases(got, want int) error {
	if got != want {
		return fmt.Errorf("collective completed %d of %d phases", got, want)
	}
	return nil
}

// checkIdentity is terminal accounting after drain: every submitted task
// was serviced, canceled or failed exactly once.
func checkIdentity(st sched.Stats) error {
	if st.Submitted != st.Serviced+st.Canceled+st.Failed {
		return fmt.Errorf("terminal accounting: submitted %d != serviced %d + canceled %d + failed %d",
			st.Submitted, st.Serviced, st.Canceled, st.Failed)
	}
	return nil
}

// checkShed demands that every 503 shed carry Retry-After, in whole
// seconds.
func checkShed(retryAfter string) error {
	if retryAfter == "" {
		return fmt.Errorf("503 shed without Retry-After")
	}
	if _, err := strconv.Atoi(retryAfter); err != nil {
		return fmt.Errorf("shed Retry-After %q is not whole seconds", retryAfter)
	}
	return nil
}

// checkHeteroBound demands that a multicommodity epoch's allocation plus
// its recorded gap bound the exact oracle's allocation.
func checkHeteroBound(alloc, gap, oracle int) error {
	if alloc+gap < oracle {
		return fmt.Errorf("hetero epoch allocated %d with recorded gap %d, oracle allocates %d", alloc, gap, oracle)
	}
	return nil
}
