// Package sched is the goroutine-safe batched scheduling service layered
// over internal/system. A system.System is deliberately single-threaded —
// it models the hardware monitor of §IV, which serializes every request.
// At production scale that serialization is the bottleneck: N concurrent
// clients would pay N lock round-trips and N max-flow solves.
//
// The service removes both costs:
//
//   - Batched epochs. Client operations (Submit, EndService) are buffered
//     per shard and flushed as one scheduling epoch when either BatchSize
//     operations have accumulated or the FlushEvery timer ticks. One epoch
//     runs the underlying System's Cycle — one flow solve covering every
//     request in the batch — repeating only while grants are still being
//     made (multi-resource tasks acquire one unit per cycle, §II).
//   - Sharding. The fabric is partitioned into disjoint sub-networks (one
//     Clos plane, one resource type, one tenant...), each owned by its own
//     shard goroutine with its own System, so independent shards schedule
//     in parallel with zero shared state. A worker-pool semaphore caps how
//     many shards solve simultaneously.
//   - Buffer reuse. Each shard's System carries a core.Planner whose
//     maxflow.Buffers recycle the residual arena between cycles, keeping
//     the per-epoch solve allocation-light.
//
// Transmission is modeled as completing within the epoch that grants it
// (the service calls EndTransmission on behalf of the client); the
// client-visible service time is the interval between Handle readiness and
// the client's EndService call.
//
// # Failure semantics
//
// A shard whose System fails internally (a solver error, an
// EndTransmission fault) is not poisoned: a supervisor fails every
// in-flight handle with an error matching ErrShardDown, rebuilds the
// shard's System from a fresh state and resumes accepting work.
// Stats.Restarts counts these recoveries. Resources granted before the
// fault belong to the lost generation — EndService on such a handle also
// reports ErrShardDown rather than corrupting the rebuilt state. Clients
// with a deadline use SubmitCtx: an expired context withdraws the task
// from its shard (releasing the queue slot and anything it holds) and
// fails the handle with ErrTaskCanceled.
//
// # Hardware faults
//
// Hardware failures are a separate axis: FailLink/FailBox/FailResource
// (and their Repair duals) mark physical components of a shard's fabric
// failed. The shard keeps scheduling on the surviving subgraph — the
// solve is still optimal for whatever capacity remains. Units in flight
// across a failed component are severed and re-queued automatically,
// bounded by Config.SeverRetries before the handle fails with an error
// matching system.ErrCircuitSevered; tasks whose demand no longer fits
// the degraded capacity fail with system.ErrUnsatisfiable (at Submit and
// retroactively for queued tasks). Stats.LinkFaults, Stats.Severed,
// Stats.Repairs count the events; Stats.Usable gauges surviving
// capacity.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rsin/internal/maxflow"
	"rsin/internal/obs"
	"rsin/internal/system"
)

// ErrClosed is reported by operations issued against a closed Scheduler
// and by handles abandoned when the Scheduler shut down before the task
// could be provisioned.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrShardDown is matched (errors.Is) by the error of every handle that
// was in flight when its shard's System failed, and by EndService calls
// whose grants were lost to the resulting restart. The shard itself
// recovers and keeps accepting work.
var ErrShardDown = errors.New("sched: shard down")

// ErrTaskCanceled is matched by the error of a handle withdrawn by
// SubmitCtx context cancellation before it was fully provisioned.
var ErrTaskCanceled = errors.New("sched: task canceled")

// Config parameterizes a Scheduler.
type Config struct {
	// Shards holds one system configuration per disjoint sub-network.
	// Shard i is addressed by the shard argument of Submit. At least one
	// shard is required.
	Shards []system.Config
	// BatchSize flushes a shard's epoch once this many operations are
	// buffered. Default 32.
	BatchSize int
	// FlushEvery bounds the latency of a partially-filled batch: a timer
	// flush fires at this period whenever work is pending. Default 500µs.
	FlushEvery time.Duration
	// Workers caps how many shards may run their solver concurrently
	// (the solver worker pool). Default: one worker per shard.
	Workers int
	// SeverRetries bounds how many times a task's units may be severed
	// by hardware faults (or preemption, with Preempt set) before its
	// handle is failed with an error matching system.ErrCircuitSevered
	// (the client may resubmit once capacity heals). Each retry rides the
	// ordinary epoch cadence — the re-queued unit is solved for on the
	// next cycle, a natural backoff of one batch period. Default 3.
	SeverRetries int
	// Preempt enables tier-based preemption: when an epoch reaches
	// quiescence with a queue-head task still acquiring, the shard may
	// revoke one unit from a still-acquiring holder of a strictly less
	// urgent tier (larger Task.Tier) and re-run the cycle loop so the
	// beneficiary can claim it. The exchange is made only when it
	// strictly improves total tier weight — system.TierWeight(benef) >
	// system.TierWeight(victim), i.e. strictly lower tier number — and a
	// free route to the unit exists, so equal-tier tasks never starve
	// each other. Victims are charged against the same SeverRetries
	// budget as hardware severs. Requires every shard to run the MinCost
	// discipline: only its weighted-value objective guarantees the freed
	// unit goes to the higher tier. Fully-provisioned tasks are never
	// preempted.
	Preempt bool
	// Obs, when non-nil, receives service metrics (the Stats counters as
	// Prometheus-style instruments), latency histograms (submit-to-grant,
	// grant-to-release, epoch solve wall time) and a ring-buffer trace of
	// scheduling decisions. It is also threaded into each shard's
	// system.Config (unless that config carries its own registry), so one
	// registry observes the whole stack. Nil — the default — disables
	// observability with zero additional allocations on the hot path.
	Obs *obs.Registry
}

// Stats is a snapshot of service counters, summed over shards.
//
// # Terminal accounting
//
// Every task accepted by Submit (counted in Submitted) is counted
// terminal exactly once: Serviced when EndService releases it, Canceled
// when SubmitCtx withdraws it, or Failed when the service terminates it
// with any other error (shard restart, sever-retry exhaustion, a capacity
// drop making its demand unsatisfiable, shutdown). Tasks provisioned but
// not yet handed to EndService are the only gap, so at quiescence
//
//	Submitted == Serviced + Canceled + Failed + <provisioned, un-ended>
//
// and after Close with every handle resolved and every successful task
// EndServiced, Submitted == Serviced + Canceled + Failed exactly. The
// stress suite and the lifecycle fuzzer assert this identity.
type Stats struct {
	Submitted int64 // tasks accepted into a shard system
	Granted   int64 // resources granted across all cycles
	Serviced  int64 // tasks completed by EndService
	Epochs    int64 // batches flushed
	Cycles    int64 // scheduling cycles run (>= Epochs when work pending)
	Deferred  int64 // requests withheld by deadlock avoidance
	Canceled  int64 // tasks withdrawn by SubmitCtx context cancellation
	Failed    int64 // tasks terminated by the service with a non-cancel error
	Restarts  int64 // shard recoveries from internal System failures

	// Hardware fault counters.
	LinkFaults int64 // component failures applied (links, boxes, resources)
	Severed    int64 // in-flight units lost to faults and re-queued
	Repairs    int64 // component repairs applied
	Preempts   int64 // units revoked from lower-tier holders (Config.Preempt)

	// Gang counters. Gangs also count member-wise in the terminal
	// counters above (a gang of k contributes k to Submitted and k to
	// exactly one of Serviced/Canceled/Failed), so the terminal identity
	// holds unchanged with gangs in the mix.
	GangsSubmitted int64 // gangs accepted into a shard system
	GangsActivated int64 // gangs admitted by the banker's activation gate
	GangsServiced  int64 // gangs released whole by EndGang
	GangsCanceled  int64 // gangs withdrawn by SubmitGangCtx cancellation
	GangsFailed    int64 // gangs terminated by the service with an error
	GangSevers     int64 // atomic gang sever events (one per gang per fault event)

	// Warm-start solver counters (MaxFlow discipline only; zero for the
	// others).
	WarmSolves  int64 // cycles served from the persistent warm-start arena
	ColdSolves  int64 // cycles that built the flow network from scratch
	ArcsTouched int64 // arena arcs toggled by warm delta syncs
	Retractions int64 // standing-circuit units walked back (releases, severs)
	FastPaths   int64 // grants resolved by the combinatorial routing fast path

	// Multicommodity epoch counters (Hetero discipline only; zero for the
	// others). MultiFastPath counts cycles whose LP relaxation was
	// certified integral and committed as provably optimal; MultiGreedy
	// counts cycles served by the sequential greedy decomposition, with
	// MultiRetries the extra commodity orderings it tried and
	// MultiGapUnits the integral allocations left versus the LP bound,
	// summed over those cycles (zero on every certified cycle).
	MultiFastPath int64
	MultiGreedy   int64
	MultiRetries  int64
	MultiGapUnits int64

	Free   int // free resources after each shard's latest epoch
	Usable int // degraded-capacity gauge: schedulable resources surviving faults
	// Ops accumulates the solver's primitive-operation counters across
	// every cycle — the §IV monitor cost model, summed service-wide.
	Ops maxflow.Counters
}

// Handle tracks one submitted task. Wait on Done(), then check Err() and
// read Resources(); pass the handle to EndService when the task finishes
// computing.
type Handle struct {
	shard  int
	id     system.TaskID
	gen    int           // shard restart generation the task was admitted under
	demand system.Demand // lowered demand vector (degraded-capacity rechecks)
	tier   int           // declared priority class, for the preemption policy
	proc   int           // submitting processor, for preemption route probes
	severs int           // units lost to faults or preemption; bounded by Config.SeverRetries
	done   chan struct{}
	res    []int // resources held; written by the shard goroutine before done closes
	err    error // terminal submission error; written before done closes

	// Observability bookkeeping, touched only when Config.Obs is set.
	submitNano int64 // Submit wall-clock, for the submit-to-grant histogram
	grantNano  int64 // provisioning wall-clock, for grant-to-release
	// finished marks the handle's terminal counter as recorded, so
	// repeated EndService calls against lost grants (shard restart, dead
	// shard) cannot double-count Failed. Written only by the shard
	// goroutine.
	finished bool
}

// Done is closed once the task is fully provisioned (or has failed —
// check Err).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Err reports the task's terminal error. Valid after Done is closed.
func (h *Handle) Err() error { return h.err }

// Resources lists the resources granted to the task. Valid after Done is
// closed and until EndService.
func (h *Handle) Resources() []int { return append([]int(nil), h.res...) }

// Shard reports the shard the task was routed to.
func (h *Handle) Shard() int { return h.shard }

type opKind int

const (
	opSubmit opKind = iota
	opEnd
	opCancel
	opFault
	opSubmitGang
	opEndGang
	opCancelGang
)

type op struct {
	kind    opKind
	task    system.Task
	h       *Handle
	reply   chan error       // opEnd/opEndGang/opFault: the outcome of the System call
	cause   error            // opCancel/opCancelGang: the context's Err at cancellation
	faults  []system.FaultOp // opFault: one correlated hardware event (one sever charge)
	gang    *GangHandle      // gang ops
	members []system.Task    // opSubmitGang: the validated member tasks
}

// shard owns one System. Only the shard's goroutine touches sys, tracked
// and dead; stats is the one structure shared with Stats() readers.
type shard struct {
	idx     int
	sys     *system.System
	sysCfg  system.Config // prepared config (obs threaded); supervisor rebuilds from it
	procs   int
	ress    int
	ops     chan op
	tracked map[system.TaskID]*Handle // provisioning not yet complete
	// Gang tracking: gangs by ID until their atomic grant completes, and
	// the member-task index the fault path uses to charge a gang's sever
	// budget once per event. Members never appear in tracked.
	gangs     map[system.GangID]*GangHandle
	gangTasks map[system.TaskID]*GangHandle
	gen       int    // bumped by every supervisor restart
	capEpoch  uint64 // fault epoch the usable census was computed at
	capOK     bool   // false forces a recompute (restart, first flush)

	// Observability bookkeeping, shard-goroutine only.
	cycleCount int64 // cumulative cycles, stamps trace events
	lastFree   int   // last Free published to the shared obs gauge
	lastUsable int   // last Usable published to the shared obs gauge

	mu    sync.Mutex
	stats Stats

	// Degraded-capacity census, recomputed by the shard goroutine on
	// each fault epoch and read by Submit's admission check (under mu).
	usableByType map[int]int

	// dead is the last resort: it is set only when a supervisor restart
	// itself fails (the shard config no longer builds a System); the
	// shard then rejects all work.
	dead error
}

// Scheduler is the concurrent batched scheduling service. All methods are
// safe for concurrent use.
type Scheduler struct {
	cfg    Config
	shards []*shard
	sem    chan struct{} // solver worker pool
	o      schedObs      // resolved instruments; zero value when Obs is nil

	mu     sync.RWMutex // guards closed vs. in-flight channel sends
	closed bool
	wg     sync.WaitGroup
}

// New validates the configuration, builds one System per shard and starts
// the shard goroutines.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("sched: at least one shard is required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 500 * time.Microsecond
	}
	if cfg.Workers <= 0 || cfg.Workers > len(cfg.Shards) {
		cfg.Workers = len(cfg.Shards)
	}
	if cfg.SeverRetries <= 0 {
		cfg.SeverRetries = 3
	}
	if cfg.Preempt {
		for i, sc := range cfg.Shards {
			if sc.Discipline != system.MinCost {
				return nil, fmt.Errorf("sched: shard %d: Preempt requires the MinCost discipline (got %d): "+
					"only its weighted-value objective routes a preempted unit to the higher tier", i, sc.Discipline)
			}
		}
	}
	s := &Scheduler{
		cfg: cfg,
		sem: make(chan struct{}, cfg.Workers),
		o:   newSchedObs(cfg.Obs),
	}
	for i, sc := range cfg.Shards {
		// Thread the service registry through the shard's system (unless
		// the caller gave that shard its own) and label its trace events.
		if sc.Obs == nil {
			sc.Obs = cfg.Obs
		}
		sc.ObsShard = i
		sys, err := system.New(sc)
		if err != nil {
			return nil, fmt.Errorf("sched: shard %d: %w", i, err)
		}
		sh := &shard{
			idx:       i,
			sys:       sys,
			sysCfg:    sc,
			procs:     sc.Net.Procs,
			ress:      sc.Net.Ress,
			ops:       make(chan op, 2*cfg.BatchSize),
			tracked:   make(map[system.TaskID]*Handle),
			gangs:     make(map[system.GangID]*GangHandle),
			gangTasks: make(map[system.TaskID]*GangHandle),
		}
		sh.stats.Free = sc.Net.Ress
		sh.usableByType = sh.sys.UsableResources()
		sh.stats.Usable = censusTotal(sh.usableByType)
		sh.capEpoch = sh.sys.FaultEpoch()
		sh.capOK = true
		sh.lastFree = sh.stats.Free
		sh.lastUsable = sh.stats.Usable
		s.o.free.Add(int64(sh.lastFree))
		s.o.usable.Add(int64(sh.lastUsable))
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.run(sh)
	}
	return s, nil
}

// NumShards reports the number of configured shards.
func (s *Scheduler) NumShards() int { return len(s.shards) }

// Submit queues a task on a shard and returns a handle immediately. The
// task joins the next scheduling epoch; wait on Handle.Done for its
// resources.
func (s *Scheduler) Submit(shard int, t system.Task) (*Handle, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("sched: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	if t.Proc < 0 || t.Proc >= sh.procs {
		return nil, fmt.Errorf("sched: shard %d: processor %d out of range [0,%d)", shard, t.Proc, sh.procs)
	}
	// Tier and preference-vector validation runs here, before shard
	// dispatch, so a malformed task never consumes a batch slot (the
	// System would reject it again, but only on the shard goroutine).
	if err := system.ValidateTask(t, sh.ress); err != nil {
		s.o.rejected.Inc()
		return nil, fmt.Errorf("sched: shard %d: %w", shard, err)
	}
	// Admission: the lowered demand must fit the shard's usable census
	// per type — resources lost to hardware faults, or stranded behind
	// failed switchboxes, cannot complete an acquisition until repaired,
	// and a type the fabric never stocked has a zero census entry.
	d := system.Lower(t, sh.sysCfg.Types)
	if err := s.checkCensus(sh, d); err != nil {
		return nil, fmt.Errorf("sched: shard %d: task %w", shard, err)
	}
	h := &Handle{shard: shard, demand: d, tier: t.Tier, proc: t.Proc, done: make(chan struct{})}
	if s.o.enabled {
		h.submitNano = nowNano()
	}
	if err := s.send(sh, op{kind: opSubmit, task: t, h: h}); err != nil {
		return nil, err
	}
	return h, nil
}

// SubmitCtx is Submit with a cancellation contract: if ctx ends before
// the task is fully provisioned, the task is withdrawn from its shard —
// the queue slot and any partially-acquired resources are released — and
// the handle fails with an error matching ErrTaskCanceled. Cancellation
// is best-effort against a racing grant: if Done closes with a nil Err,
// the client owns the resources and must still call EndService.
func (s *Scheduler) SubmitCtx(ctx context.Context, shard int, t system.Task) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: %w: %w", ErrTaskCanceled, err)
	}
	h, err := s.Submit(shard, t)
	if err != nil || ctx.Done() == nil {
		return h, err
	}
	go func() {
		select {
		case <-h.done:
		case <-ctx.Done():
			// The shard decides the race: the cancel op is a no-op if the
			// task completed (or was failed) before it drains. A closed
			// scheduler already fails the handle in shutdown.
			_ = s.send(s.shards[shard], op{kind: opCancel, h: h, cause: ctx.Err()})
		}
	}()
	return h, nil
}

// EndService releases every resource a finished task holds. It may only
// be called after the handle's Done channel closed with a nil Err; it
// blocks until the release epoch has run.
func (s *Scheduler) EndService(h *Handle) error {
	if h == nil {
		return fmt.Errorf("sched: nil handle")
	}
	select {
	case <-h.done:
	default:
		return fmt.Errorf("sched: task on shard %d is not fully provisioned", h.shard)
	}
	if h.err != nil {
		return fmt.Errorf("sched: task failed and holds nothing: %w", h.err)
	}
	reply := make(chan error, 1)
	if err := s.send(s.shards[h.shard], op{kind: opEnd, h: h, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// FailLink fails one physical link of a shard's fabric. The call blocks
// until the shard has applied the failure: in-flight circuits crossing
// the link are severed, their units revoked and re-queued, and the
// shard's degraded capacity recomputed, all before FailLink returns.
func (s *Scheduler) FailLink(shard, link int) error {
	return s.fault(shard, system.FaultOp{Target: system.FaultTargetLink, Index: link})
}

// RepairLink repairs a failed link; queued tasks reacquire on the healed
// fabric in the following epochs.
func (s *Scheduler) RepairLink(shard, link int) error {
	return s.fault(shard, system.FaultOp{Repair: true, Target: system.FaultTargetLink, Index: link})
}

// FailBox fails a switchbox (all links on its ports become unusable).
func (s *Scheduler) FailBox(shard, box int) error {
	return s.fault(shard, system.FaultOp{Target: system.FaultTargetBox, Index: box})
}

// RepairBox repairs a failed switchbox.
func (s *Scheduler) RepairBox(shard, box int) error {
	return s.fault(shard, system.FaultOp{Repair: true, Target: system.FaultTargetBox, Index: box})
}

// FailResource fails a resource: it leaves the schedulable pool, and a
// unit of it held by a still-acquiring task is revoked and re-queued.
func (s *Scheduler) FailResource(shard, res int) error {
	return s.fault(shard, system.FaultOp{Target: system.FaultTargetResource, Index: res})
}

// RepairResource repairs a failed resource.
func (s *Scheduler) RepairResource(shard, res int) error {
	return s.fault(shard, system.FaultOp{Repair: true, Target: system.FaultTargetResource, Index: res})
}

// fault routes one hardware event through a shard's op stream — fault
// application is serialized with scheduling exactly like every other
// state change — and waits for the applying epoch.
func (s *Scheduler) fault(shard int, fop system.FaultOp) error {
	return s.ApplyFaults(shard, []system.FaultOp{fop})
}

// ApplyFaults applies a batch of hardware operations to a shard as one
// correlated fault event — a switchbox dying with its attached resources,
// a power domain dropping several links at once. The whole batch charges
// each affected task's (or gang's) sever-retry budget exactly once:
// losing two units to one physical event is one retry, not two. The call
// blocks until the shard has applied every operation and recomputed its
// degraded capacity.
func (s *Scheduler) ApplyFaults(shard int, fops []system.FaultOp) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("sched: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	if len(fops) == 0 {
		return nil
	}
	reply := make(chan error, 1)
	if err := s.send(s.shards[shard], op{kind: opFault, faults: fops, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// send delivers an op to a shard unless the scheduler is closed. The read
// lock spans the channel send so Close cannot close the channel between
// the check and the send.
func (s *Scheduler) send(sh *shard, o op) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh.ops <- o
	return nil
}

// Stats sums the per-shard counters.
//
// # Snapshot semantics
//
// Each shard's contribution is a consistent snapshot: the shard publishes
// every counter of an event batch atomically (under its stats lock)
// before any client observes the operations' completion, so within one
// shard the invariants hold in every read — Granted never exceeds what
// Submitted can explain, Repairs never exceeds LinkFaults, and an
// operation whose call has returned (EndService, FailLink, ...) is
// already counted. Across shards the sum is not one global instant —
// shard snapshots are taken sequentially — but because every counter is
// monotone and each per-shard snapshot is internally consistent, summed
// totals are monotone across successive Stats calls and cross-shard sums
// preserve the per-shard invariants. TestStatsMonotonicUnderLoad pins
// this under 64-client -race load.
func (s *Scheduler) Stats() Stats {
	var tot Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.stats
		sh.mu.Unlock()
		tot.Submitted += st.Submitted
		tot.Granted += st.Granted
		tot.Serviced += st.Serviced
		tot.Epochs += st.Epochs
		tot.Cycles += st.Cycles
		tot.Deferred += st.Deferred
		tot.Canceled += st.Canceled
		tot.Failed += st.Failed
		tot.Restarts += st.Restarts
		tot.LinkFaults += st.LinkFaults
		tot.Severed += st.Severed
		tot.Repairs += st.Repairs
		tot.Preempts += st.Preempts
		tot.GangsSubmitted += st.GangsSubmitted
		tot.GangsActivated += st.GangsActivated
		tot.GangsServiced += st.GangsServiced
		tot.GangsCanceled += st.GangsCanceled
		tot.GangsFailed += st.GangsFailed
		tot.GangSevers += st.GangSevers
		tot.WarmSolves += st.WarmSolves
		tot.ColdSolves += st.ColdSolves
		tot.ArcsTouched += st.ArcsTouched
		tot.Retractions += st.Retractions
		tot.FastPaths += st.FastPaths
		tot.MultiFastPath += st.MultiFastPath
		tot.MultiGreedy += st.MultiGreedy
		tot.MultiRetries += st.MultiRetries
		tot.MultiGapUnits += st.MultiGapUnits
		tot.Free += st.Free
		tot.Usable += st.Usable
		tot.Ops.Add(st.Ops)
	}
	return tot
}

// Close stops accepting work, runs a final epoch per shard and waits for
// the shard goroutines to exit. Tasks still unprovisioned after the final
// epoch have their handles closed with ErrClosed. Close is idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		close(sh.ops)
	}
	s.wg.Wait()
	return nil
}

// run is the shard goroutine: buffer ops, flush epochs on batch size or
// timer tick, and keep re-scheduling while unprovisioned tasks remain.
func (s *Scheduler) run(sh *shard) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.FlushEvery)
	defer ticker.Stop()
	buf := make([]op, 0, s.cfg.BatchSize)
	for {
		select {
		case o, ok := <-sh.ops:
			if !ok {
				s.shutdown(sh, buf)
				return
			}
			buf = append(buf, o)
			// Drain whatever else is already queued, up to the batch size.
		drain:
			for len(buf) < s.cfg.BatchSize {
				select {
				case o, ok := <-sh.ops:
					if !ok {
						s.shutdown(sh, buf)
						return
					}
					buf = append(buf, o)
				default:
					break drain
				}
			}
			if len(buf) >= s.cfg.BatchSize {
				buf = s.flush(sh, buf)
				// The batch flush just ran an epoch; a timer flush due any
				// moment would re-solve an unchanged state.
				ticker.Reset(s.cfg.FlushEvery)
			}
		case <-ticker.C:
			// Flush only when buffered ops can change the shard state. A
			// blocked tracked task alone is no reason to re-solve: every
			// epoch already cycles to quiescence, and the System evolves
			// only through ops — re-running the solver on an unchanged
			// state is a hot polling loop that grants nothing.
			if len(buf) > 0 {
				buf = s.flush(sh, buf)
			}
		}
	}
}

// shutdown runs the final epoch for whatever is buffered, then fails any
// handle the service could not provision. Abandoned tasks are terminal:
// each counts once in Stats.Failed.
func (s *Scheduler) shutdown(sh *shard, buf []op) {
	if len(buf) > 0 || len(sh.tracked) > 0 || len(sh.gangs) > 0 {
		s.flush(sh, buf)
	}
	var closed Stats
	for id, h := range sh.tracked {
		h.err = ErrClosed
		h.finished = true
		close(h.done)
		delete(sh.tracked, id)
		closed.Failed++
		s.event(sh, evFailed, int64(id), 0, resClosed)
	}
	for gid, gh := range sh.gangs {
		gh.err = ErrClosed
		gh.finished = true
		close(gh.done)
		s.dropGang(sh, gh)
		closed.Failed += int64(len(gh.memberIDs))
		closed.GangsFailed++
		s.event(sh, evGangFailed, int64(gid), 0, resClosed)
	}
	if closed.Failed > 0 {
		s.publish(sh, &closed)
	}
}

// publish folds the epoch-local counter deltas into the shard's published
// stats as one locked batch and mirrors them into the obs instruments,
// then zeroes the deltas. flush calls it before every client-visible
// completion — a reply-channel send, a handle close, the end of the epoch
// — which is what makes Stats read-your-writes coherent: by the time
// EndService or FailLink has returned, or Handle.Done has fired, the
// corresponding counters are visible to Stats readers. Runs on the shard
// goroutine.
func (s *Scheduler) publish(sh *shard, epoch *Stats) {
	free := sh.sys.FreeResources()
	sh.mu.Lock()
	sh.stats.Submitted += epoch.Submitted
	sh.stats.Granted += epoch.Granted
	sh.stats.Serviced += epoch.Serviced
	sh.stats.Epochs += epoch.Epochs
	sh.stats.Cycles += epoch.Cycles
	sh.stats.Deferred += epoch.Deferred
	sh.stats.Canceled += epoch.Canceled
	sh.stats.Failed += epoch.Failed
	sh.stats.Restarts += epoch.Restarts
	sh.stats.LinkFaults += epoch.LinkFaults
	sh.stats.Severed += epoch.Severed
	sh.stats.Repairs += epoch.Repairs
	sh.stats.Preempts += epoch.Preempts
	sh.stats.GangsSubmitted += epoch.GangsSubmitted
	sh.stats.GangsActivated += epoch.GangsActivated
	sh.stats.GangsServiced += epoch.GangsServiced
	sh.stats.GangsCanceled += epoch.GangsCanceled
	sh.stats.GangsFailed += epoch.GangsFailed
	sh.stats.GangSevers += epoch.GangSevers
	sh.stats.WarmSolves += epoch.WarmSolves
	sh.stats.ColdSolves += epoch.ColdSolves
	sh.stats.ArcsTouched += epoch.ArcsTouched
	sh.stats.Retractions += epoch.Retractions
	sh.stats.FastPaths += epoch.FastPaths
	sh.stats.MultiFastPath += epoch.MultiFastPath
	sh.stats.MultiGreedy += epoch.MultiGreedy
	sh.stats.MultiRetries += epoch.MultiRetries
	sh.stats.MultiGapUnits += epoch.MultiGapUnits
	sh.stats.Free = free
	sh.stats.Ops.Add(epoch.Ops)
	sh.mu.Unlock()
	if s.o.enabled {
		s.o.submitted.Add(epoch.Submitted)
		s.o.granted.Add(epoch.Granted)
		s.o.serviced.Add(epoch.Serviced)
		s.o.epochs.Add(epoch.Epochs)
		s.o.cycles.Add(epoch.Cycles)
		s.o.deferred.Add(epoch.Deferred)
		s.o.canceled.Add(epoch.Canceled)
		s.o.failed.Add(epoch.Failed)
		s.o.restarts.Add(epoch.Restarts)
		s.o.faultOps.Add(epoch.LinkFaults)
		s.o.repairOps.Add(epoch.Repairs)
		s.o.severed.Add(epoch.Severed)
		s.o.preempts.Add(epoch.Preempts)
		s.o.gangsSubmitted.Add(epoch.GangsSubmitted)
		s.o.gangsActivated.Add(epoch.GangsActivated)
		s.o.gangsServiced.Add(epoch.GangsServiced)
		s.o.gangsCanceled.Add(epoch.GangsCanceled)
		s.o.gangsFailed.Add(epoch.GangsFailed)
		s.o.gangSevers.Add(epoch.GangSevers)
		s.o.augmentations.Add(int64(epoch.Ops.Augmentations))
		s.o.phases.Add(int64(epoch.Ops.Phases))
		s.o.arcScans.Add(int64(epoch.Ops.ArcScans))
		s.o.nodeVisits.Add(int64(epoch.Ops.NodeVisits))
		s.o.warmSolves.Add(epoch.WarmSolves)
		s.o.coldSolves.Add(epoch.ColdSolves)
		s.o.warmArcs.Add(epoch.ArcsTouched)
		s.o.retractions.Add(epoch.Retractions)
		s.o.fastPaths.Add(epoch.FastPaths)
		s.o.multiFastPath.Add(epoch.MultiFastPath)
		s.o.multiGreedy.Add(epoch.MultiGreedy)
		s.o.multiRetries.Add(epoch.MultiRetries)
		s.o.multiGap.Add(epoch.MultiGapUnits)
		s.o.free.Add(int64(free - sh.lastFree))
		sh.lastFree = free
	}
	*epoch = Stats{}
}

// flush is one scheduling epoch: apply releases and submissions, cycle the
// discipline while it makes progress, then publish completed handles. The
// worker-pool semaphore is held for the whole epoch (the solver-bound
// phase dominates it).
func (s *Scheduler) flush(sh *shard, buf []op) []op {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	epoch := Stats{Epochs: 1}
	// Releases and withdrawals first: resources freed by finished or
	// canceled tasks are available to this very epoch's solve. Buffer
	// order guarantees a task's submit precedes its cancel. Every reply
	// send and handle close below is preceded by a publish, so the caller
	// observes its own completion in Stats the moment the call returns.
	for _, o := range buf {
		switch o.kind {
		case opEnd:
			var err error
			switch {
			case sh.dead != nil:
				err = sh.dead
				if !o.h.finished {
					// The grants died with the shard; terminal for the task.
					o.h.finished = true
					epoch.Failed++
					s.event(sh, evFailed, int64(o.h.id), 0, resDead)
				}
			case o.h.gen != sh.gen:
				// The grants were made by a System discarded in a restart;
				// applying the release to the rebuilt one would free
				// resources it never granted.
				err = fmt.Errorf("sched: shard %d: grants lost to restart: %w", sh.idx, ErrShardDown)
				if !o.h.finished {
					o.h.finished = true
					epoch.Failed++
					s.event(sh, evFailed, int64(o.h.id), 0, resRestartLost)
				}
			default:
				err = sh.sys.EndService(o.h.id)
				if err == nil {
					o.h.finished = true
					epoch.Serviced++
					if s.o.enabled && o.h.grantNano != 0 {
						s.o.grantReleaseMS.Observe(float64(nowNano()-o.h.grantNano) / 1e6)
					}
					s.event(sh, evService, int64(o.h.id), int64(o.h.demand.Total()), "")
				}
			}
			s.publish(sh, &epoch)
			o.reply <- err
		case opSubmit:
			if sh.dead != nil {
				o.h.err = sh.dead
				close(o.h.done)
				continue
			}
			id, err := sh.sys.Submit(o.task)
			if err != nil {
				// Admission raced a capacity drop; the task never entered
				// the system, so it counts as rejected, not failed.
				s.o.rejected.Inc()
				o.h.err = err
				close(o.h.done)
				continue
			}
			o.h.id = id
			o.h.gen = sh.gen
			sh.tracked[id] = o.h
			epoch.Submitted++
			s.event(sh, evSubmit, int64(id), int64(o.h.demand.Total()), "")
		case opCancel:
			h := o.h
			if h.gen != sh.gen {
				continue // already failed by the restart that bumped gen
			}
			if _, ok := sh.tracked[h.id]; !ok {
				continue // provisioned or failed before the cancel drained
			}
			if err := sh.sys.Cancel(h.id); err != nil {
				// A tracked task the System cannot withdraw means the
				// shard state is suspect; let the supervisor rebuild it.
				s.failShard(sh, fmt.Errorf("canceling task %d: %w", h.id, err), &epoch)
				continue
			}
			delete(sh.tracked, h.id)
			h.err = fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrTaskCanceled, o.cause)
			h.finished = true
			epoch.Canceled++
			s.event(sh, evCancel, int64(h.id), 0, "")
			s.publish(sh, &epoch)
			close(h.done)
		case opFault:
			if sh.dead != nil {
				o.reply <- sh.dead
				continue
			}
			// The batch is one correlated hardware event. Severed counts
			// every unit lost, but the retry budget is charged on the
			// deduplicated task set: a task that lost several units to the
			// one event pays one retry — not one per unit, the over-charge
			// this path used to have. Gangs likewise: the member index maps
			// any number of severed members to one charge against their
			// gang.
			var all []system.TaskID
			var err error
			applied := 0
			for _, f := range o.faults {
				affected, ferr := sh.sys.ApplyFault(f)
				if ferr != nil {
					err = ferr
					break
				}
				applied++
				epoch.Severed += int64(len(affected))
				all = append(all, affected...)
				if f.Repair {
					epoch.Repairs++
					s.event(sh, evRepair, 0, int64(f.Index), "")
				} else {
					epoch.LinkFaults++
					s.event(sh, evFault, 0, int64(f.Index), "")
				}
			}
			if applied > 0 {
				var chargedGangs map[*GangHandle]bool
				for _, id := range system.DedupeTasks(all) {
					if gh := sh.gangTasks[id]; gh != nil {
						if chargedGangs[gh] {
							continue // exactly-once: the gang already paid for this event
						}
						if chargedGangs == nil {
							chargedGangs = map[*GangHandle]bool{}
						}
						chargedGangs[gh] = true
						if !s.chargeGangSever(sh, gh, &epoch) {
							break
						}
						continue
					}
					h := sh.tracked[id]
					if h == nil {
						continue // a multi-unit holder published in an earlier epoch
					}
					if !s.chargeSever(sh, id, h, &epoch) {
						break
					}
				}
				if sh.dead == nil {
					s.refreshCapacity(sh, &epoch)
				}
			}
			s.publish(sh, &epoch)
			o.reply <- err
		case opSubmitGang:
			gh := o.gang
			if sh.dead != nil {
				gh.err = sh.dead
				close(gh.done)
				continue
			}
			gid, ids, err := sh.sys.SubmitGang(o.members)
			if err != nil {
				// Admission raced a capacity drop; the gang never entered
				// the system, so it counts as rejected, not failed.
				s.o.rejected.Inc()
				gh.err = err
				close(gh.done)
				continue
			}
			gh.gid = gid
			gh.gen = sh.gen
			gh.memberIDs = ids
			sh.gangs[gid] = gh
			for _, id := range ids {
				sh.gangTasks[id] = gh
			}
			epoch.Submitted += int64(len(ids))
			epoch.GangsSubmitted++
			s.event(sh, evGangSubmit, int64(gid), int64(len(ids)), "")
		case opEndGang:
			gh := o.gang
			var err error
			switch {
			case sh.dead != nil:
				err = sh.dead
				if !gh.finished {
					gh.finished = true
					epoch.Failed += int64(len(gh.memberIDs))
					epoch.GangsFailed++
					s.event(sh, evGangFailed, int64(gh.gid), 0, resDead)
				}
			case gh.gen != sh.gen:
				err = fmt.Errorf("sched: shard %d: gang grants lost to restart: %w", sh.idx, ErrShardDown)
				if !gh.finished {
					gh.finished = true
					epoch.Failed += int64(len(gh.memberIDs))
					epoch.GangsFailed++
					s.event(sh, evGangFailed, int64(gh.gid), 0, resRestartLost)
				}
			default:
				err = sh.sys.EndGangService(gh.gid)
				if err == nil {
					gh.finished = true
					epoch.Serviced += int64(len(gh.memberIDs))
					epoch.GangsServiced++
					if s.o.enabled && gh.grantNano != 0 {
						s.o.grantReleaseMS.Observe(float64(nowNano()-gh.grantNano) / 1e6)
					}
					s.event(sh, evGangService, int64(gh.gid), int64(len(gh.memberIDs)), "")
				}
			}
			s.publish(sh, &epoch)
			o.reply <- err
		case opCancelGang:
			gh := o.gang
			if gh.gen != sh.gen {
				continue // already failed by the restart that bumped gen
			}
			if _, ok := sh.gangs[gh.gid]; !ok {
				continue // provisioned or failed before the cancel drained
			}
			if err := sh.sys.CancelGang(gh.gid); err != nil {
				s.failShard(sh, fmt.Errorf("canceling gang %d: %w", gh.gid, err), &epoch)
				continue
			}
			s.dropGang(sh, gh)
			gh.err = fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrTaskCanceled, o.cause)
			gh.finished = true
			epoch.Canceled += int64(len(gh.memberIDs))
			epoch.GangsCanceled++
			s.event(sh, evGangCancel, int64(gh.gid), 0, "")
			s.publish(sh, &epoch)
			close(gh.done)
		}
	}

	// Scheduling: one Cycle solves the whole batch; repeat only while
	// grants keep landing (multi-resource tasks and freshly unblocked
	// queue heads acquire on the follow-up cycles).
	var solveStart int64
	if s.o.enabled {
		solveStart = nowNano()
	}
	cycles := 0
	// Preemption-round bound: every round strictly increases the total
	// tier weight held (the beneficiary's unit outweighs the victim's), so
	// at most one round per tracked task can make progress; the explicit
	// cap also keeps a deferred beneficiary (deadlock avoidance) from
	// churning a victim's sever budget within one epoch.
	rounds := len(sh.tracked)
	for {
		for sh.dead == nil && (len(sh.tracked) > 0 || len(sh.gangs) > 0) {
			r, err := sh.sys.Cycle()
			if err != nil {
				s.failShard(sh, err, &epoch)
				break
			}
			cycles++
			sh.cycleCount++
			epoch.Cycles++
			epoch.Granted += int64(r.Granted)
			epoch.Deferred += int64(r.Deferred)
			epoch.GangsActivated += int64(r.GangsActivated)
			epoch.Ops.Add(maxflow.Counters{
				Augmentations: r.Mapping.Ops.Augmentations,
				Phases:        r.Mapping.Ops.Phases,
				ArcScans:      r.Mapping.Ops.ArcScans,
				NodeVisits:    r.Mapping.Ops.NodeVisits,
			})
			switch {
			case r.Mapping.Solve.Warm:
				epoch.WarmSolves++
			case r.Mapping.Solve.Cold:
				epoch.ColdSolves++
			}
			epoch.ArcsTouched += int64(r.Mapping.Solve.ArcsTouched)
			epoch.Retractions += int64(r.Mapping.Solve.Retractions)
			epoch.FastPaths += int64(r.Mapping.Solve.FastPaths)
			if r.Mapping.Solve.MultiFastPath {
				epoch.MultiFastPath++
			}
			if r.Mapping.Solve.MultiGreedy {
				epoch.MultiGreedy++
			}
			epoch.MultiRetries += int64(r.Mapping.Solve.MultiRetries)
			epoch.MultiGapUnits += int64(r.Mapping.Solve.MultiGap)
			if r.Granted == 0 {
				break
			}
			faulted := false
			for _, a := range r.Mapping.Assigned {
				if err := sh.sys.EndTransmission(a.Req.Proc); err != nil {
					if errors.Is(err, system.ErrCircuitSevered) {
						// Retryable: the System already revoked and re-queued
						// the unit; a follow-up cycle reacquires it.
						epoch.Severed++
						continue
					}
					s.failShard(sh, err, &epoch)
					faulted = true
					break
				}
			}
			if faulted {
				break
			}
		}
		// Quiescent: no further grants are possible on the current holding
		// pattern. With Preempt set, try one tier exchange and re-enter the
		// cycle loop so the beneficiary can claim the freed unit.
		if sh.dead != nil || !s.cfg.Preempt || rounds <= 0 || !s.preemptOnce(sh, &epoch) {
			break
		}
		rounds--
	}
	if s.o.enabled && cycles > 0 {
		s.o.epochSolveMS.Observe(float64(nowNano()-solveStart) / 1e6)
	}
	// A HardwareHook may have failed or repaired components mid-epoch;
	// republish the degraded-capacity census if the fault epoch moved.
	if sh.dead == nil {
		s.refreshCapacity(sh, &epoch)
	}
	// Make the epoch's grants and cycle counters visible before any
	// handle's Done fires below.
	s.publish(sh, &epoch)

	// Publish gangs whose atomic grant completed: every member fully
	// provisioned, resources recorded per member before Done fires — a
	// client can never observe a partially granted gang through the
	// handle. Provisioned gangs leave the tracking maps (like granted
	// singletons); the system layer keeps them immune to resets.
	for gid, gh := range sh.gangs {
		if !sh.sys.GangProvisioned(gid) {
			continue
		}
		res := make([][]int, len(gh.memberIDs))
		for i, id := range gh.memberIDs {
			res[i] = sh.sys.Holding(id)
		}
		gh.res = res
		if s.o.enabled {
			gh.grantNano = nowNano()
			s.o.gangsGranted.Inc()
			if gh.submitNano != 0 {
				s.o.gangSubmitGrantMS.Observe(float64(gh.grantNano-gh.submitNano) / 1e6)
			}
		}
		s.event(sh, evGangGrant, int64(gid), int64(len(gh.memberIDs)), "")
		close(gh.done)
		s.dropGang(sh, gh)
	}

	// Publish tasks that finished acquiring.
	for id, h := range sh.tracked {
		if sh.sys.Remaining(id) == 0 {
			h.res = sh.sys.Holding(id)
			if s.o.enabled {
				h.grantNano = nowNano()
				s.o.grantedTier[h.tier].Inc()
				if h.submitNano != 0 {
					ms := float64(h.grantNano-h.submitNano) / 1e6
					s.o.submitGrantMS.Observe(ms)
					s.o.submitGrantTierMS[h.tier].Observe(ms)
				}
			}
			s.event(sh, evGrant, int64(id), int64(len(h.res)), "")
			close(h.done)
			delete(sh.tracked, id)
		}
	}
	return buf[:0]
}

// chargeSever charges one lost unit (hardware sever or preemption)
// against a tracked handle's retry budget, withdrawing the task with an
// ErrCircuitSevered failure when the budget is exhausted — a task churned
// by a flapping component or repeated preemption should fail crisply
// rather than retry forever. Reports false when withdrawal escalated to a
// shard restart (the caller's tracked iteration is invalid). Runs on the
// shard goroutine.
func (s *Scheduler) chargeSever(sh *shard, id system.TaskID, h *Handle, epoch *Stats) bool {
	h.severs++
	if h.severs <= s.cfg.SeverRetries {
		return true
	}
	if cerr := sh.sys.Cancel(id); cerr != nil {
		// Same containment as opCancel: a tracked task the System cannot
		// withdraw means the state is suspect.
		s.failShard(sh, fmt.Errorf("withdrawing sever-exhausted task %d: %w", id, cerr), epoch)
		return false
	}
	delete(sh.tracked, id)
	h.err = fmt.Errorf("sched: shard %d: units severed %d times: %w",
		sh.idx, h.severs, system.ErrCircuitSevered)
	h.finished = true
	epoch.Failed++
	s.event(sh, evFailed, int64(id), int64(h.severs), resSeverBudget)
	close(h.done)
	return true
}

// preemptOnce is the tier-preemption policy: pick the most urgent
// queue-head task still acquiring (the beneficiary), then the least
// urgent still-acquiring holder of a strictly lower tier whose unit the
// beneficiary can reach, and revoke that one unit. The strict-tier
// requirement is the starvation guard — TierWeight is strictly monotone
// in tier, so the exchange strictly increases total held tier weight and
// equal-tier tasks can never preempt each other. Reports whether a unit
// was revoked (the caller then re-runs the cycle loop, where the MinCost
// solve routes the freed unit to the highest effective priority). Runs on
// the shard goroutine.
func (s *Scheduler) preemptOnce(sh *shard, epoch *Stats) bool {
	var benef *Handle
	for p := 0; p < sh.procs; p++ {
		id := sh.sys.QueueHead(p)
		if id < 0 {
			continue
		}
		h := sh.tracked[id]
		if h == nil || sh.sys.Remaining(id) == 0 {
			continue
		}
		if benef == nil || h.tier < benef.tier || (h.tier == benef.tier && id < benef.id) {
			benef = h
		}
	}
	if benef == nil {
		return false
	}
	// Cheapest viable victim: highest tier number first, lowest task ID to
	// stay deterministic. Fully-provisioned holders are immune (they are
	// computing on a complete resource set; revoking would waste finished
	// work for a unit the System cannot even take back).
	var victim *Handle
	res := -1
	for id, h := range sh.tracked {
		if h.tier <= benef.tier || id == benef.id || sh.sys.Remaining(id) == 0 {
			continue
		}
		r := -1
		for _, held := range sh.sys.Holding(id) {
			if sh.sys.CanRoute(benef.proc, held) {
				r = held
				break
			}
		}
		if r < 0 {
			continue
		}
		if victim == nil || h.tier > victim.tier || (h.tier == victim.tier && id < victim.id) {
			victim, res = h, r
		}
	}
	if victim == nil {
		return false
	}
	if err := sh.sys.Preempt(victim.id, res); err != nil {
		// Preempt's preconditions were just checked on this goroutine;
		// failure means the shard state is inconsistent.
		s.failShard(sh, fmt.Errorf("preempting resource %d from task %d: %w", res, victim.id, err), epoch)
		return false
	}
	epoch.Preempts++
	s.event(sh, evPreempt, int64(victim.id), int64(res), "")
	s.chargeSever(sh, victim.id, victim, epoch)
	return sh.dead == nil
}

// refreshCapacity republishes the shard's degraded-capacity census when
// the fabric's fault epoch has moved, and withdraws tracked tasks whose
// demand no longer fits the surviving capacity: they would otherwise
// wait forever on resources the fabric has lost. Runs on the shard
// goroutine.
func (s *Scheduler) refreshCapacity(sh *shard, epoch *Stats) {
	ep := sh.sys.FaultEpoch()
	if sh.capOK && ep == sh.capEpoch {
		return
	}
	usable := sh.sys.UsableResources()
	total := censusTotal(usable)
	sh.mu.Lock()
	sh.usableByType = usable
	sh.stats.Usable = total
	sh.mu.Unlock()
	if s.o.enabled {
		s.o.usable.Add(int64(total - sh.lastUsable))
		sh.lastUsable = total
	}
	sh.capEpoch, sh.capOK = ep, true
	for id, h := range sh.tracked {
		err := h.demand.Check(usable)
		if err == nil {
			continue
		}
		_ = sh.sys.Cancel(id)
		delete(sh.tracked, id)
		h.err = fmt.Errorf("sched: shard %d: task %w", sh.idx, err)
		h.finished = true
		epoch.Failed++
		s.event(sh, evFailed, int64(id), int64(h.demand.Total()), resUnsat)
		close(h.done)
	}
	// Gangs hold their units together, so the whole combined demand must
	// still fit — a gang that no longer does would wait forever at the
	// activation gate (or worse, churn resets against capacity it can
	// never reassemble).
	for gid, gh := range sh.gangs {
		err := gh.demand.Check(usable)
		if err == nil {
			continue
		}
		if cerr := sh.sys.CancelGang(gid); cerr != nil {
			s.failShard(sh, fmt.Errorf("withdrawing unsatisfiable gang %d: %w", gid, cerr), epoch)
			return
		}
		s.dropGang(sh, gh)
		gh.err = fmt.Errorf("sched: shard %d: gang %w", sh.idx, err)
		gh.finished = true
		epoch.Failed += int64(len(gh.memberIDs))
		epoch.GangsFailed++
		s.event(sh, evGangFailed, int64(gid), int64(gh.demand.Total()), resUnsat)
		close(gh.done)
	}
}

// checkCensus is the admission half of the census check, run on the
// caller's goroutine against the shard's published usable census. A
// rejection counts once in the rejected counter and records one reject
// trace event carrying the total demand.
func (s *Scheduler) checkCensus(sh *shard, d system.Demand) error {
	sh.mu.Lock()
	err := d.Check(sh.usableByType)
	sh.mu.Unlock()
	if err != nil {
		s.o.rejected.Inc()
		if s.o.trace != nil {
			s.o.trace.Record(obs.Event{Kind: evReject, Shard: sh.idx, Val: int64(d.Total()), Result: resUnsat})
		}
	}
	return err
}

// censusTotal sums a usable-by-type census (the Stats.Usable gauge).
func censusTotal(usable map[int]int) int {
	n := 0
	for _, c := range usable {
		n += c
	}
	return n
}

// failShard is the shard supervisor. The System reported an internal
// fault, so its state is no longer trustworthy: contain it by failing
// every in-flight handle with an ErrShardDown error, then rebuild the
// System from a fresh state under a new generation and resume accepting
// work. Releases of grants made by the lost generation are rejected by
// the gen check in flush rather than applied to the rebuilt state.
func (s *Scheduler) failShard(sh *shard, cause error, epoch *Stats) {
	down := fmt.Errorf("sched: shard %d: %w: %w", sh.idx, ErrShardDown, cause)
	for id, h := range sh.tracked {
		h.err = down
		h.finished = true
		epoch.Failed++
		s.event(sh, evFailed, int64(id), 0, resShardDown)
		close(h.done)
		delete(sh.tracked, id)
	}
	for gid, gh := range sh.gangs {
		gh.err = down
		gh.finished = true
		epoch.Failed += int64(len(gh.memberIDs))
		epoch.GangsFailed++
		s.event(sh, evGangFailed, int64(gid), 0, resShardDown)
		close(gh.done)
		s.dropGang(sh, gh)
	}
	sys, err := system.New(sh.sysCfg)
	if err != nil {
		// The config built a System at New; if it no longer does,
		// recovery is impossible and the shard stays down for good.
		sh.dead = fmt.Errorf("sched: shard %d: rebuilding after fault: %w (fault: %w)", sh.idx, err, cause)
		return
	}
	sh.sys = sys
	sh.gen++
	epoch.Restarts++
	s.event(sh, evRestart, 0, int64(sh.gen), "")
	// The rebuilt System starts from the pristine template: force the
	// degraded-capacity census to recompute (its fault epoch restarted).
	sh.capOK = false
	s.refreshCapacity(sh, epoch)
}
