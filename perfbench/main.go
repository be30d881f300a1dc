// Command perfbench is the RSIN service benchmark. It drives one of three
// seeded open-loop workloads through the scheduling service from one
// process and prints, as the last line of standard output, one JSON object
// with the run's correctness verdict, the operations attempted and failed,
// and its metrics: the end-to-end metrics from an untraced run
// (--trace 0), or the per-layer metrics from a traced run (--trace 1).
//
//	perfbench --workload fabric-mix|front-door|typed-pool --seed N --seconds S --trace 0|1
//
// It exits non-zero, printing no result, on a usage or set-up error, and
// exits non-zero after printing the result when an output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"rsin/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail line printed before the result: sample counts,
// per-phase outcomes, the workload-specific metrics and the environment.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Samples  map[string]int     `json:"samples"`
	Extra    map[string]metric  `json:"workload_metrics,omitempty"`
	Phases   map[string]outcome `json:"phases"`
	Windows  []windowResult     `json:"nominal_windows,omitempty"`
	SetupsS  []float64          `json:"setups_s,omitempty"`
	Ladder   []rungResult       `json:"ladder,omitempty"`
	Spans    string             `json:"spans_file,omitempty"`
	Replay   *replayCounts      `json:"replay,omitempty"`
	Core     *coreCounts        `json:"core_trace,omitempty"`
	// NetSimplex is the MinCost trace of a workload whose engine is
	// another.
	NetSimplex *coreCounts `json:"netsimplex_trace,omitempty"`
	FirstErr   string      `json:"first_error,omitempty"`
	// Violation is the first output check that failed.
	Violation string `json:"first_violation,omitempty"`
}

// outcome is one phase's operation census.
type outcome struct {
	Attempted  int64   `json:"attempted"`
	Granted    int64   `json:"granted"`
	Failed     int64   `json:"failed"`
	Refused    int64   `json:"refused"`
	Timeouts   int64   `json:"timeouts,omitempty"`
	Violations int64   `json:"violations"`
	LateP99MS  float64 `json:"late_p99_ms"`
	Backlog    int64   `json:"backlog_growth"`
	Drained    bool    `json:"drained"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fabric-mix, front-door or typed-pool")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r := &runner{w: w, cfgLayers: cfg.Layers, doorRate: cfg.Workloads["front-door"].Nominal, seed: *seed, secs: float64(*seconds),
		rep: report{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Env: readEnvironment(), Samples: map[string]int{}, Phases: map[string]outcome{}},
		res: result{Correct: true, Metrics: map[string]metric{}}}
	if *trace == 0 {
		err = r.endToEnd()
	} else {
		err = r.traced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": r.rep}); err != nil {
		return 1
	}
	if err := enc.Encode(r.res); err != nil {
		return 1
	}
	if !r.res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed:", r.rep.Violation)
		return 1
	}
	return 0
}

// runner carries one run's state.
type runner struct {
	w         *workload
	cfgLayers []layerMetric
	doorRate  float64 // front-door's nominal rate, the door probe's ceiling
	seed      int64
	secs      float64
	rep       report
	res       result
	// setups and builds are the seconds of every set-up in the run, and
	// the build part of each.
	setups, builds []float64
}

// rng derives an independent stream per segment from the run's seed, so
// one seed fixes every input of the run.
func (r *runner) rng(segment int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + segment))
}

const (
	segNominal    = 1
	segOverload   = 2
	segProbe      = 3
	segCore       = 4
	segNetSimplex = 5
	segRung       = 10
	segWarmup     = 100
)

func (r *runner) share(f float64) time.Duration {
	return time.Duration(f * r.secs * float64(time.Second))
}

// segment runs one open-loop segment on x and waits for every request it
// fired to finish.
func (r *runner) segment(x *instance, as []arrival) (*tally, pacing, bool, error) {
	return r.segmentAbort(x, as, 0, drainLimit)
}

// segmentAbort is segment that gives up once more than abortAt requests
// are outstanding (0: never), and withdraws a backlog that has not
// drained within drainFor.
func (r *runner) segmentAbort(x *instance, as []arrival, abortAt int64, drainFor time.Duration) (*tally, pacing, bool, error) {
	return r.drive(x, drainFor, func(t *tally, fire func(arrival, time.Time)) pacing {
		return runOpenLoop(as, t, abortAt, fire)
	})
}

// drive runs loop, which fires requests on x, then waits for every
// request it fired to finish.
func (r *runner) drive(x *instance, drainFor time.Duration, loop func(t *tally, fire func(arrival, time.Time)) pacing) (*tally, pacing, bool, error) {
	t := &tally{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := loop(t, func(a arrival, due time.Time) { x.fire(ctx, a, due, t) })
	drained := !p.aborted && drain(t, drainFor)
	if !drained {
		// Withdraw the backlog, so an overloaded rung cannot spill into
		// the next segment; its stragglers fail as canceled.
		cancel()
	}
	done := make(chan struct{})
	go func() { x.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stuckLimit):
		return nil, p, false, fmt.Errorf("requests still running %v after their segment was withdrawn", stuckLimit)
	}
	return t, p, drained, nil
}

// drainLimit bounds how long a segment's backlog may take to empty once
// its arrivals stop: long enough to ride out a stall of a shared box's
// CPUs, after which the program catches up. A ladder trial that has not
// drained within rungDrainLimit has failed. stuckLimit bounds the wait
// for withdrawn requests. All keep a run inside its time limit.
const (
	drainLimit     = 15 * time.Second
	rungDrainLimit = 3 * time.Second
	stuckLimit     = 20 * time.Second
)

// account adds a phase's outcome to the report; counted phases also feed
// the result's attempted and failed operations. Violations always fail
// the run.
func (r *runner) account(phase string, t *tally, p pacing, drained bool, counted bool) outcome {
	o := outcome{
		Attempted: t.attempted.Load(), Granted: t.granted.Load(), Failed: t.failed.Load(),
		Refused: t.refused.Load(), Timeouts: t.timeouts.Load(), Violations: t.violations.Load(),
		LateP99MS: quantile(p.lateMS, 0.99), Backlog: p.backlogGrowth, Drained: drained,
	}
	if prev, ok := r.rep.Phases[phase]; ok {
		prev.Attempted += o.Attempted
		prev.Granted += o.Granted
		prev.Failed += o.Failed
		prev.Refused += o.Refused
		prev.Timeouts += o.Timeouts
		prev.Violations += o.Violations
		prev.Drained = prev.Drained && drained
		r.rep.Phases[phase] = prev
	} else {
		r.rep.Phases[phase] = o
	}
	if counted {
		r.res.Attempted += o.Attempted
		r.res.Failed += o.Failed
	} else {
		r.res.Failed += o.Violations
	}
	if o.Violations > 0 {
		r.res.Correct = false
	}
	if e, ok := t.firstErr.Load().(string); ok && r.rep.FirstErr == "" {
		r.rep.FirstErr = phase + ": " + e
	}
	if e, ok := t.firstViol.Load().(string); ok && r.rep.Violation == "" {
		r.rep.Violation = phase + ": " + e
	}
	return o
}

func (r *runner) violation(err error) {
	if err == nil {
		return
	}
	r.res.Correct = false
	r.res.Failed++
	if r.rep.Violation == "" {
		r.rep.Violation = err.Error()
	}
}

func (r *runner) put(name, unit string, v float64, samples int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		r.rep.Samples[name] = samples
	}
}

func (r *runner) extra(name, unit string, v float64, samples int) {
	if r.rep.Extra == nil {
		r.rep.Extra = map[string]metric{}
	}
	r.rep.Extra[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		r.rep.Samples[name] = samples
	}
}

// setUp builds a fresh instance and warms it up, and records the set-up
// time: the build (fabric, scheduler and, for front-door, the server) plus
// the warm-up. The warm-up serves warmup_arrivals of the nominal stream
// closed-loop, back to back with at most burstLimit outstanding, so its
// time is the program's work rather than the stream's pacing.
func (r *runner) setUp(k int, reg *obs.Registry, sp *spanLog) (*instance, error) {
	t0 := time.Now()
	x, err := r.w.start(reg, sp)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)
	wc := r.w.cfg
	warm := r.w.arrivals(r.rng(segWarmup+int64(k)), wc.Nominal, time.Duration(float64(wc.Warmup)/wc.Nominal*float64(time.Second)))
	t, p, drained, err := r.drive(x, drainLimit, func(t *tally, fire func(arrival, time.Time)) pacing {
		return runBurst(warm, t, burstLimit, fire)
	})
	if err != nil {
		return nil, err
	}
	total := time.Since(t0)
	r.account("warmup", t, p, drained, true)
	r.builds = append(r.builds, build.Seconds())
	r.setups = append(r.setups, total.Seconds())
	return x, nil
}
