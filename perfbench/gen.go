package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator. Arrivals are a seeded Poisson process laid out
// in advance as due instants; one pacing goroutine wakes, fires every
// arrival that is due, records how late it fired, and sleeps until the
// next due instant. It never sleeps per arrival — a sleep per arrival runs
// more than a millisecond late for a visible share of arrivals on a small
// box and turns an open loop into a closed one. Every latency the
// benchmark reports is timed from the arrival's due instant, so a stall in
// the generator or the process is charged to the requests it delayed.

// arrival is one scheduled event: a task (or gang, or collective) for the
// workload, or a chaos action (link fail→heal) when chaos is set.
type arrival struct {
	due   time.Duration // offset from the segment start
	task  taskSpec
	chaos *chaosSpec
}

// poisson lays out Poisson arrival instants at rate per second over d,
// conditioned on their count: round(rate·d) instants, each uniform on
// [0, d). Conditioned so, two seeds offer a segment the same load and
// differ only in when it arrives; a rung of a few hundred arrivals would
// otherwise offer a few percent more or less than its rate.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	slices.Sort(out)
	return out
}

// chaosTimeline lays out non-overlapping link fail→heal pairs per shard:
// exponential gaps of mean every, each outage lasting down.
func chaosTimeline(rng *rand.Rand, shards int, links [][]int, every, down, d time.Duration) []arrival {
	var out []arrival
	for sh := 0; sh < shards; sh++ {
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() * float64(every))
			if t+down >= d {
				break
			}
			out = append(out, arrival{due: t, chaos: &chaosSpec{shard: sh, link: links[sh][rng.Intn(len(links[sh]))], down: down}})
			t += down
		}
	}
	return out
}

func sortArrivals(as []arrival) {
	sort.SliceStable(as, func(i, j int) bool { return as[i].due < as[j].due })
}

// sample is one request's grant latency, from its due instant.
type sample struct {
	ms   float64
	tier int
}

// values lists the latencies of the samples keep accepts.
func values(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

func all(sample) bool { return true }

// tally counts one segment's outcomes and latencies. Safe for concurrent
// use by the per-request goroutines.
type tally struct {
	mu     sync.Mutex
	grants []sample // due → granted: tasks, or HTTP requests
	gangs  []sample // due → every member provisioned: explicit gangs

	attempted   atomic.Int64
	granted     atomic.Int64 // tasks (gang members counted each) granted
	failed      atomic.Int64 // errors, timeouts, transport errors, violations
	refused     atomic.Int64 // sheds carrying Retry-After
	timeouts    atomic.Int64 // admitted, then timed out (also in failed)
	admitted    atomic.Int64
	outstanding atomic.Int64
	violations  atomic.Int64
	firstErr    atomic.Value // string: first failure, for the report
	firstViol   atomic.Value // string: first violation, for the report
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.firstErr.CompareAndSwap(nil, err.Error())
}

// violate records a correctness violation: it fails the operation and
// the run.
func (t *tally) violate(err error) {
	t.violations.Add(1)
	t.firstViol.CompareAndSwap(nil, err.Error())
	t.fail(err)
}

// grant records a request granted at g that was due at due.
func (t *tally) grant(due, g time.Time, tier int) {
	t.mu.Lock()
	t.grants = append(t.grants, sample{ms: ms(g.Sub(due)), tier: tier})
	t.mu.Unlock()
}

func (t *tally) gang(due, g time.Time) {
	t.mu.Lock()
	t.gangs = append(t.gangs, sample{ms: ms(g.Sub(due))})
	t.mu.Unlock()
}

// pacing is what the generator itself observed during one segment.
type pacing struct {
	lateMS         []float64 // fire instant − due instant, per task arrival
	outstandingMax int64
	// backlogGrowth is the outstanding count at the end of the arrival
	// window minus the largest count seen in its first half: a backlog
	// that keeps growing shows as a large positive number.
	backlogGrowth int64
	// aborted marks a segment cut short because its backlog passed the
	// abort threshold: the rate is past capacity.
	aborted bool
}

// runOpenLoop fires every arrival at its due instant relative to start and
// returns once the last one has fired. fire must not block for long: it
// starts the request and hands its completion to a goroutine of its own.
// With abortAt > 0 it stops early once more than abortAt requests are
// outstanding, so a rate past capacity cannot build a backlog that takes
// longer to withdraw than the run may last.
func runOpenLoop(as []arrival, t *tally, abortAt int64, fire func(a arrival, due time.Time)) pacing {
	var p pacing
	start := time.Now()
	var window time.Duration
	if n := len(as); n > 0 {
		window = as[n-1].due
	}
	var firstHalfMax int64
	for i := 0; i < len(as); {
		now := time.Since(start)
		for i < len(as) && as[i].due <= now {
			a := as[i]
			i++
			if a.chaos == nil {
				t.attempted.Add(1)
				t.outstanding.Add(1)
				p.lateMS = append(p.lateMS, ms(time.Since(start)-a.due))
			}
			fire(a, start.Add(a.due))
		}
		o := t.outstanding.Load()
		if o > p.outstandingMax {
			p.outstandingMax = o
		}
		if now < window/2 && o > firstHalfMax {
			firstHalfMax = o
		}
		if abortAt > 0 && o > abortAt {
			p.aborted = true
			break
		}
		if i < len(as) {
			if d := as[i].due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
	}
	p.backlogGrowth = t.outstanding.Load() - firstHalfMax
	return p
}

// runBurst fires the task arrivals back to back, each due the instant it
// fires, while fewer than limit requests are outstanding: a closed loop
// that serves them as fast as the program can. Chaos arrivals are left
// out.
func runBurst(as []arrival, t *tally, limit int64, fire func(a arrival, due time.Time)) pacing {
	var p pacing
	for _, a := range as {
		if a.chaos != nil {
			continue
		}
		for t.outstanding.Load() >= limit {
			time.Sleep(100 * time.Microsecond)
		}
		t.attempted.Add(1)
		p.outstandingMax = max(p.outstandingMax, t.outstanding.Add(1))
		fire(a, time.Now())
	}
	return p
}

// burstLimit bounds a burst's outstanding requests. It keeps front-door's
// burst inside the admission window, and each request's wait well inside
// its deadline, so a warm-up burst neither sheds nor times out.
const burstLimit = 64

// drain waits until every fired request has completed, or until limit.
// It reports whether the backlog emptied.
func drain(t *tally, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for t.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
