package main

import (
	"fmt"
	"math"
	"time"
)

// rungResult is one measured ladder rung.
type rungResult struct {
	RatePerS  float64 `json:"rate_per_s"`
	Samples   int     `json:"samples"`
	LatencyMS float64 `json:"latency_ms"` // at the workload's SLO percentile
	FailShare float64 `json:"fail_share"` // (failed + refused) / attempted
	Backlog   int64   `json:"backlog_growth"`
	LateP99MS float64 `json:"late_p99_ms"`
	Pass      bool    `json:"pass"`
}

// endToEnd is the untraced run: set-up time, latency and CPU at the
// nominal rate, the ladder staircase for slo_rate_per_s and, for
// front-door, the fixed overload point.
//
// The nominal stream is served as Windows windows spread across the run,
// interleaved with the ladder trials, and each latency and CPU figure is
// the best window's. On a small box shared with other tenants,
// interference comes in bursts of ten seconds or more that double a
// millisecond-scale tail; the best of windows spread over the run is what
// the program does when the box leaves it alone, and a change that slows
// every window still shows. A percentile whose windows would hold fewer
// than minSamples is taken over the pooled windows instead.
func (r *runner) endToEnd() error {
	wc := r.w.cfg
	var x *instance
	for k := 0; k < setups; k++ {
		if x != nil {
			r.violation(x.close())
		}
		var err error
		if x, err = r.setUp(k, nil, nil); err != nil {
			return err
		}
	}
	defer func() { r.violation(x.close()) }()

	var win []windowResult
	pool := &tally{}
	cur := len(wc.Ladder) / 2 // the staircase starts mid-ladder
	slo, passes := 0.0, 0
	for i, as := range windows(r.w.arrivals(r.rng(segNominal), wc.Nominal, r.share(wc.NominalShare)), wc.Windows) {
		st0, c0 := x.s.Stats(), cpuTime()
		t, p, drained, err := r.segment(x, as)
		if err != nil {
			return err
		}
		c1, st1 := cpuTime(), x.s.Stats()
		if i == 0 {
			// Peak memory serving the nominal rate, before the ladder
			// strains the process.
			r.put("max_rss_mb", "MB", maxRSSMB(), 0)
		}
		r.account("nominal", t, p, drained, true)
		grants := values(t.grants, all)
		w := windowResult{Samples: len(grants), P50MS: quantile(grants, 0.50), P99MS: quantile(grants, 0.99),
			LateP99MS: quantile(p.lateMS, 0.99)}
		if tasks := st1.Serviced - st0.Serviced; tasks > 0 {
			w.CPUPerTask = float64(c1-c0) / 1e3 / float64(tasks)
		}
		win = append(win, w)
		pool.grants = append(pool.grants, t.grants...)
		pool.gangs = append(pool.gangs, t.gangs...)

		// Ladder: an up-down staircase over the fixed rungs, its trials
		// spread evenly between the windows. A trial that passes steps up
		// a rung, one that fails steps down, so the trials gather around
		// the knee, and slo_rate_per_s is the highest rate a trial
		// sustained. Interference fails rungs in bursts of several
		// trials, as it slows windows; a rung reached only by climbing
		// one pass at a time is what the program sustains when the box
		// leaves it alone.
		for k := i * wc.Trials / wc.Windows; k < (i+1)*wc.Trials/wc.Windows; k++ {
			rr, err := r.trial(cur, k)
			if err != nil {
				return err
			}
			if rr.Pass {
				passes++
				slo = max(slo, rr.RatePerS)
				cur = min(cur+1, len(wc.Ladder)-1)
			} else {
				cur = max(cur-1, 0)
			}
		}
	}
	r.rep.Windows = win
	r.extra("slo_rate_per_s", "1/s", slo, passes)
	// Every ladder trial set up a fresh instance too, so setup_s is the
	// median over all of the run's set-ups.
	r.rep.SetupsS = r.setups
	r.put("setup_s", "s", median(r.setups), len(r.setups))
	r.extra("setup_build_s", "s", median(r.builds), len(r.builds))

	best := func(f func(windowResult) float64) float64 {
		v := math.Inf(1)
		for _, w := range win {
			if w.Samples > 0 {
				v = math.Min(v, f(w))
			}
		}
		return v
	}
	grants := values(pool.grants, all)
	r.extra("grant_p50_ms", "ms", best(func(w windowResult) float64 { return w.P50MS }), len(grants))
	if len(grants)/len(win) >= minSamples {
		r.extra("grant_p99_ms", "ms", best(func(w windowResult) float64 { return w.P99MS }), len(grants))
	} else {
		r.extra("grant_p99_ms", "ms", quantile(grants, 0.99), len(grants))
	}
	if r.w.name == "front-door" {
		tier0 := values(pool.grants, func(s sample) bool { return s.tier == 0 })
		r.extra("tier0_grant_p99_ms", "ms", quantile(tier0, 0.99), len(tier0))
	}
	r.put("cpu_us_per_task", "us", best(func(w windowResult) float64 { return w.CPUPerTask }), len(win))
	if gangs := values(pool.gangs, all); len(gangs) > 0 {
		r.extra("gang_grant_p99_ms", "ms", quantile(gangs, 0.99), len(gangs))
	}

	if wc.Overload > 0 {
		d := r.share(wc.OverloadShare)
		t, p, drained, err := r.segment(x, r.w.arrivals(r.rng(segOverload), wc.Overload, d))
		if err != nil {
			return err
		}
		r.account("overload", t, p, drained, false)
		r.extra("overload_goodput_per_s", "1/s", float64(t.granted.Load())/d.Seconds(), int(t.granted.Load()))
		tier0 := values(t.grants, func(s sample) bool { return s.tier == 0 })
		r.extra("overload_tier0_p99_ms", "ms", quantile(tier0, 0.99), len(tier0))
	}
	return nil
}

// minSamples is the sample count a p99 needs: ten samples beyond it.
const minSamples = 1000

// windowResult is one window of the nominal stream.
type windowResult struct {
	Samples    int     `json:"samples"`
	P50MS      float64 `json:"grant_p50_ms"`
	P99MS      float64 `json:"grant_p99_ms"`
	CPUPerTask float64 `json:"cpu_us_per_task"`
	LateP99MS  float64 `json:"late_p99_ms"`
}

// windows splits a stream's arrivals into k consecutive windows of equal
// duration, each re-based to start at zero.
func windows(as []arrival, k int) [][]arrival {
	if k < 1 {
		k = 1
	}
	out := make([][]arrival, k)
	if len(as) == 0 {
		return out
	}
	span := as[len(as)-1].due/time.Duration(k) + 1
	for _, a := range as {
		i := int(a.due / span)
		a.due -= time.Duration(i) * span
		out[i] = append(out[i], a)
	}
	return out
}

// trial measures ladder rung i on a fresh, warmed-up instance, so every
// trial starts from the same state: a failed trial leaves its instance
// with whatever its backlog grew, and a staircase on one instance would
// measure its own history.
func (r *runner) trial(i, k int) (rungResult, error) {
	y, err := r.setUp(setups+k, nil, nil)
	if err != nil {
		return rungResult{}, err
	}
	rr, err := r.rung(y, i, k)
	r.violation(y.close())
	return rr, err
}

// rung measures ladder rate i on the run's trial-th ladder trial.
func (r *runner) rung(x *instance, i, trial int) (rungResult, error) {
	wc := r.w.cfg
	rate := wc.Ladder[i]
	// With first-come service, a backlog of n means its oldest n − rate·limit
	// requests have waited past the limit. Once those are more than the
	// percentile allows the rung, it has failed; stopping it there also
	// bounds how far a failing trial strains the process for the windows
	// after it, which rose by up to two fifths in per-task CPU when trials
	// ran on to five limits' worth of backlog.
	d := r.share(rungShare)
	abortAt := int64(rate*(wc.LimitMS/1e3+(1-wc.SLOPercentile)*d.Seconds())) + 1
	t, p, drained, err := r.segmentAbort(x, r.w.arrivals(r.rng(segRung+int64(trial)), rate, d), abortAt, rungDrainLimit)
	if err != nil {
		return rungResult{}, err
	}
	o := r.account(fmt.Sprintf("rung-%g", rate), t, p, drained, false)
	grants := values(t.grants, all)
	rr := rungResult{RatePerS: rate, Samples: len(grants), Backlog: p.backlogGrowth, LateP99MS: o.LateP99MS,
		LatencyMS: quantile(grants, wc.SLOPercentile)}
	if o.Attempted > 0 {
		rr.FailShare = float64(o.Failed+o.Refused) / float64(o.Attempted)
	}
	// A backlog that grew by more than the limit's worth of arrivals over
	// the second half of the rung cannot be served within the limit.
	maxGrowth := int64(rate*wc.LimitMS/1e3) + 1
	rr.Pass = drained && rr.Samples > 0 && rr.LatencyMS <= wc.LimitMS && rr.FailShare <= 0.01 && rr.Backlog <= maxGrowth
	r.rep.Ladder = append(r.rep.Ladder, rr)
	return rr, nil
}
