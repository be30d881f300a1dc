package sched

import (
	"context"
	"fmt"

	"rsin/internal/system"
)

// Gang scheduling at the service layer. A GangSpec is submitted whole; the
// shard's System grants it all-or-nothing (banker's-safe activation, see
// internal/system's gang contract) and the GangHandle's Done fires only
// when every member holds its complete resource set — a client can never
// observe a partial grant. Hardware faults that cost any member a unit
// reset the whole gang atomically inside the System; the service charges
// that reset once per fault event against the gang's shared sever-retry
// budget (Config.SeverRetries, the same budget singleton tasks ride), and
// fails the gang with ErrCircuitSevered when the budget runs out.
//
// In the Stats counters a gang of k members contributes k to Submitted
// and k to exactly one of Serviced/Canceled/Failed, so the terminal
// accounting identity is unchanged; the Gangs* counters track gang-level
// events alongside.

// GangSpec describes one all-or-nothing gang: at least two member tasks
// on distinct processors of one shard. Label optionally names the gang in
// trace events and logs (a collective phase, a training step).
type GangSpec struct {
	Members []system.Task
	Label   string
}

// GangHandle tracks one submitted gang. Wait on Done(), then check Err()
// and read Resources(); pass the handle to EndGang when the gang finishes
// computing.
type GangHandle struct {
	shard     int
	gid       system.GangID
	gen       int           // shard restart generation the gang was admitted under
	tier      int           // most urgent member tier (trace + admission callers)
	demand    system.Demand // members' combined lowered demand
	memberIDs []system.TaskID
	severs    int // atomic gang sever events; bounded by Config.SeverRetries
	done      chan struct{}
	res       [][]int // per member, written by the shard goroutine before done closes
	err       error   // terminal error; written before done closes

	submitNano int64
	grantNano  int64
	// finished marks the gang's terminal counters as recorded (same
	// exactly-once discipline as Handle.finished).
	finished bool
}

// Done is closed once every member of the gang is fully provisioned (or
// the gang has failed — check Err). There is no intermediate state: before
// Done fires no grant is visible, after it either all members hold their
// complete sets or Err is non-nil.
func (h *GangHandle) Done() <-chan struct{} { return h.done }

// Err reports the gang's terminal error. Valid after Done is closed.
func (h *GangHandle) Err() error { return h.err }

// Resources lists the resources granted per member, in GangSpec.Members
// order. Valid after Done is closed with a nil Err, until EndGang.
func (h *GangHandle) Resources() [][]int {
	out := make([][]int, len(h.res))
	for i, r := range h.res {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// Shard reports the shard the gang was routed to.
func (h *GangHandle) Shard() int { return h.shard }

// Size reports the gang's member count.
func (h *GangHandle) Size() int { return len(h.memberIDs) }

// SubmitGang queues a gang on a shard and returns a handle immediately.
// The gang joins the next scheduling epoch; its members are granted
// all-or-nothing (wait on GangHandle.Done). Validation — member count,
// distinct processors, per-member task checks, combined demand against
// the shard's surviving capacity — runs here, before the gang consumes a
// batch slot.
func (s *Scheduler) SubmitGang(shard int, spec GangSpec) (*GangHandle, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("sched: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	if len(spec.Members) < 2 {
		return nil, fmt.Errorf("sched: shard %d: a gang needs at least 2 members, got %d", shard, len(spec.Members))
	}
	seenProc := make(map[int]bool, len(spec.Members))
	var demand system.Demand
	tier := system.MaxTier + 1
	for i, t := range spec.Members {
		if t.Proc < 0 || t.Proc >= sh.procs {
			s.o.rejected.Inc()
			return nil, fmt.Errorf("sched: shard %d: gang member %d: processor %d out of range [0,%d)",
				shard, i, t.Proc, sh.procs)
		}
		if err := system.ValidateTask(t, sh.ress); err != nil {
			s.o.rejected.Inc()
			return nil, fmt.Errorf("sched: shard %d: gang member %d: %w", shard, i, err)
		}
		if seenProc[t.Proc] {
			s.o.rejected.Inc()
			return nil, fmt.Errorf("sched: shard %d: gang members must use distinct processors (processor %d repeated)",
				shard, t.Proc)
		}
		seenProc[t.Proc] = true
		demand = demand.Plus(system.Lower(t, sh.sysCfg.Types))
		tier = min(tier, t.Tier)
	}
	// Degraded admission, gang-granular: members hold together, so the
	// combined demand must fit the surviving capacity simultaneously.
	if err := s.checkCensus(sh, demand); err != nil {
		return nil, fmt.Errorf("sched: shard %d: gang %w", shard, err)
	}
	gh := &GangHandle{shard: shard, tier: tier, demand: demand, done: make(chan struct{})}
	if s.o.enabled {
		gh.submitNano = nowNano()
	}
	// The shard goroutine reads the members later; the copy leaves the
	// caller free to reuse its slice.
	members := append([]system.Task(nil), spec.Members...)
	if err := s.send(sh, op{kind: opSubmitGang, gang: gh, members: members}); err != nil {
		return nil, err
	}
	return gh, nil
}

// SubmitGangCtx is SubmitGang with the SubmitCtx cancellation contract:
// if ctx ends before the gang is fully provisioned, the whole gang is
// withdrawn — there is no partial cancellation — and the handle fails
// with an error matching ErrTaskCanceled. Best-effort against a racing
// grant: if Done closes with a nil Err the client owns the resources and
// must still call EndGang.
func (s *Scheduler) SubmitGangCtx(ctx context.Context, shard int, spec GangSpec) (*GangHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: %w: %w", ErrTaskCanceled, err)
	}
	gh, err := s.SubmitGang(shard, spec)
	if err != nil || ctx.Done() == nil {
		return gh, err
	}
	go func() {
		select {
		case <-gh.done:
		case <-ctx.Done():
			_ = s.send(s.shards[shard], op{kind: opCancelGang, gang: gh, cause: ctx.Err()})
		}
	}()
	return gh, nil
}

// EndGang releases every resource a finished gang holds, atomically. It
// may only be called after the handle's Done channel closed with a nil
// Err; it blocks until the release epoch has run.
func (s *Scheduler) EndGang(gh *GangHandle) error {
	if gh == nil {
		return fmt.Errorf("sched: nil gang handle")
	}
	select {
	case <-gh.done:
	default:
		return fmt.Errorf("sched: gang on shard %d is not fully provisioned", gh.shard)
	}
	if gh.err != nil {
		return fmt.Errorf("sched: gang failed and holds nothing: %w", gh.err)
	}
	reply := make(chan error, 1)
	if err := s.send(s.shards[gh.shard], op{kind: opEndGang, gang: gh, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// dropGang removes a gang from the shard's tracking maps (grant, cancel,
// failure, shutdown — every terminal or published path). Runs on the
// shard goroutine.
func (s *Scheduler) dropGang(sh *shard, gh *GangHandle) {
	delete(sh.gangs, gh.gid)
	for _, id := range gh.memberIDs {
		delete(sh.gangTasks, id)
	}
}

// chargeGangSever charges one atomic gang sever event against the gang's
// shared retry budget. Below the budget the gang needs no help here: the
// System already reset it — members' units returned, the gang re-queued
// at the activation gate — so the charge is the only service-level
// action. Past the budget the gang is withdrawn whole and its handle
// fails with ErrCircuitSevered, exactly once. Reports false when
// withdrawal escalated to a shard restart. Runs on the shard goroutine.
func (s *Scheduler) chargeGangSever(sh *shard, gh *GangHandle, epoch *Stats) bool {
	gh.severs++
	epoch.GangSevers++
	s.event(sh, evGangSever, int64(gh.gid), int64(gh.severs), "")
	if gh.severs <= s.cfg.SeverRetries {
		return true
	}
	if cerr := sh.sys.CancelGang(gh.gid); cerr != nil {
		s.failShard(sh, fmt.Errorf("withdrawing sever-exhausted gang %d: %w", gh.gid, cerr), epoch)
		return false
	}
	s.dropGang(sh, gh)
	gh.err = fmt.Errorf("sched: shard %d: gang severed %d times: %w",
		sh.idx, gh.severs, system.ErrCircuitSevered)
	gh.finished = true
	epoch.Failed += int64(len(gh.memberIDs))
	epoch.GangsFailed++
	s.event(sh, evGangFailed, int64(gh.gid), int64(gh.severs), resSeverBudget)
	close(gh.done)
	return true
}
