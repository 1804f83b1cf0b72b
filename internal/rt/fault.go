// Fault tolerance: the runtime's failure model made explicit. Two
// mechanisms live here.
//
// The fault hook (Config.FaultHook) is the runtime's chaos-injection
// seam: when non-nil it is invoked at three classes of fault points —
// before every task body (inside the panic barrier, so a hook that panics
// is recovered exactly like a panicking body), at the top of every worker
// scheduling iteration, and before every steal probe. Whatever the hook
// does — sleep, panic, block on a channel — IS the injected fault; the
// runtime adds no interpretation of its own. Disabled (nil) the hook
// costs one pointer nil-check per site, the same discipline as disarmed
// tracing, and the zero-alloc fast-path gate covers it. internal/chaos
// builds deterministic, seedable injectors on top of this seam.
//
// The watchdog is a low-frequency monitor goroutine that turns "the pool
// is wedged" from a hoped-for never into an observed, counted, dumped
// condition. It samples per-worker progress heartbeats (a beat counter
// piggybacked on the cache-line-padded stat shards — see statShard) and
// the registry of running jobs; a worker whose beat is static and that
// never parks past the stall threshold is flagged (and unflagged
// when it recovers), an overdue job is counted, and a job past its
// submit-time deadline is cancelled with a deadline reason. Detections
// bump the Health counters, emit trace events when tracing is armed, and
// write one DumpState diagnostic to the configured output per incident.
package rt

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"cab/internal/obs"
)

// FaultPoint identifies the class of runtime location a fault hook fires
// at.
type FaultPoint uint8

const (
	// FaultExec fires immediately before a task body runs, inside the
	// panic barrier: a hook that panics here is recovered and recorded as
	// that job's TaskPanic; a hook that blocks wedges the worker mid-task
	// (which is what the watchdog's stall detection flags).
	FaultExec FaultPoint = iota
	// FaultPoll fires at the top of each worker scheduling iteration,
	// outside any task. A hook that blocks here freezes an idle worker
	// without holding a task frame.
	FaultPoll
	// FaultSteal fires before a steal probe (intra-squad, BL==0 random,
	// or inter-socket). A hook that sleeps here simulates slow steals —
	// the interference the paper's TRICI analysis worries about.
	FaultSteal
)

// String names a fault point.
func (p FaultPoint) String() string {
	switch p {
	case FaultExec:
		return "exec"
	case FaultPoll:
		return "poll"
	case FaultSteal:
		return "steal"
	}
	return "unknown"
}

// FaultInfo describes the runtime location a fault hook fires at. It is
// passed by value; hooks must not retain pointers into the runtime.
type FaultInfo struct {
	Point  FaultPoint
	Worker int
	Level  int   // DAG level (FaultExec only; -1 otherwise)
	Tier   uint8 // obs.TierIntra / obs.TierInter (FaultExec only)
	Job    int64 // job ID, 0 if not job-related
}

// FaultHook is a fault-injection callback (see Config.FaultHook). It runs
// on scheduler workers: a slow or blocking hook slows or blocks the
// worker, by design. The hook is nil in production; cablint's hookseam
// analyzer enforces that every call site is dominated by a nil check, so
// the disabled seam costs one predictable branch.
//
//cab:hook
type FaultHook func(FaultInfo)

// Watchdog defaults. The interval is deliberately low-frequency: the
// watchdog's steady-state cost is one pass over the worker shards and the
// job registry every interval, nothing on the task hot path.
const (
	defaultWatchdogInterval = 250 * time.Millisecond
	defaultStallAfter       = time.Second
)

// WatchdogConfig configures the runtime monitor. The zero value enables
// the watchdog with default thresholds.
type WatchdogConfig struct {
	// Disable turns the watchdog off entirely (no monitor goroutine, no
	// deadline enforcement backstop, Health still reports counters as 0).
	Disable bool
	// Interval is the check period; 0 selects the default (250ms).
	Interval time.Duration
	// StallAfter is how long a worker may sit inside a task body without
	// progress (and without parking) before it is flagged as stalled; 0
	// selects the default (1s).
	StallAfter time.Duration
	// OverrunAfter, when > 0, flags any job running longer than this as
	// overdue (counted once per job in Health.JobOverruns). 0 disables
	// overrun flagging; deadlines are enforced regardless.
	OverrunAfter time.Duration
	// Output, when non-nil, receives one DumpState diagnostic the first
	// time each incident (worker stall, job overrun) is detected.
	Output io.Writer
}

// withDefaults resolves zero fields.
func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Interval <= 0 {
		c.Interval = defaultWatchdogInterval
	}
	if c.StallAfter <= 0 {
		c.StallAfter = defaultStallAfter
	}
	return c
}

// Health is a snapshot of the watchdog's view of the runtime.
type Health struct {
	StalledWorkers  int   // workers currently flagged as stalled
	Stalls          int64 // cumulative stall detections
	StallsRecovered int64 // flagged workers that progressed again
	JobOverruns     int64 // jobs flagged past WatchdogConfig.OverrunAfter
	DeadlineCancels int64 // jobs the watchdog cancelled past their deadline
	RunningJobs     int   // admitted jobs not yet drained
	QueuedRoots     int   // roots waiting in the admission queue
	WatchdogTicks   int64 // monitor passes completed (0 = watchdog off)

	// Supervision counters (supervise.go): every death produced a
	// replacement worker pinned to the same squad.
	WorkerDeaths      int64 // workers declared dead and replaced
	QuarantinedSquads int   // squads currently quarantined (steal-only)
}

// healthCounters are the watchdog's shared counters (written by the
// monitor goroutine, read by Health and DumpState).
type healthCounters struct {
	stalledNow      atomic.Int64
	stalls          atomic.Int64
	recovered       atomic.Int64
	overruns        atomic.Int64
	deadlineCancels atomic.Int64
	ticks           atomic.Int64
	deaths          atomic.Int64
	quarantines     atomic.Int64
}

// Health reports the watchdog counters plus the current job load.
func (r *Runtime) Health() Health {
	r.jobsMu.Lock()
	running := len(r.running)
	r.jobsMu.Unlock()
	return Health{
		StalledWorkers:    int(r.health.stalledNow.Load()),
		Stalls:            r.health.stalls.Load(),
		StallsRecovered:   r.health.recovered.Load(),
		JobOverruns:       r.health.overruns.Load(),
		DeadlineCancels:   r.health.deadlineCancels.Load(),
		RunningJobs:       running,
		QueuedRoots:       len(r.roots),
		WatchdogTicks:     r.health.ticks.Load(),
		WorkerDeaths:      r.health.deaths.Load(),
		QuarantinedSquads: r.topo.Sockets - r.healthySquads(),
	}
}

// Heartbeat (statShard.exec): a monotonic beat counter, bumped every
// hbBatch-th task-body entry (counted in the worker-local ctx, so the
// amortized hot-path cost is one uncontended atomic add per 16 bodies on
// the worker's own padded cache line) and at every park transition. The
// watchdog reads it low-frequency: a worker whose beat is static and that
// never parked across StallAfter has made no progress of any kind — it is
// wedged inside a task body (or, equally wedged, inside the scheduler's
// own paths). Workers with nothing to do park, and parking both sets the
// parked flag and bumps the beat, so idle and blocked-at-join workers
// never read as stalled; batches shorter than hbBatch always end in a
// park or another body, so batching delays a beat, never loses one.
// The watchdog widens the progress signal beyond the beat alone: a change
// in the worker's curJob or curLevel marker also counts (those are stored
// whenever they differ from the previous body's, so workloads that move
// between levels or jobs show progress between beat bumps). The remaining
// blind spot is a saturated worker running a uniform stream of coarse
// same-level bodies: it can sit up to hbBatch bodies between beats, so
// StallAfter should comfortably exceed hbBatch times the typical body
// duration; a spurious flag there is counted and then recovered, never
// acted on.
const hbBatch = 16

// markParked brackets a lot wait in the worker's heartbeat: a parked
// worker (idle, or blocked at a join whose children run elsewhere) is
// waiting, not stalled, and each transition bumps the beat so the
// watchdog sees the state change as progress.
func (r *Runtime) markParked(w int, parked bool) {
	sh := &r.stats[w]
	if parked {
		sh.parked.Store(1)
	} else {
		sh.parked.Store(0)
	}
	sh.exec.Add(1)
}

// wdWorker is the monitor goroutine's private per-worker bookkeeping.
type wdWorker struct {
	word    uint64    // last sampled heartbeat beat
	job     int64     // last sampled curJob marker
	level   int64     // last sampled curLevel marker
	fsteals int64     // last sampled failed-steal count (idle spin progress)
	since   time.Time // when this signal tuple was first observed
}

// watchdog is the monitor loop: started by New unless disabled, stopped
// by Close after the workers have terminated.
func (r *Runtime) watchdog(cfg WatchdogConfig) {
	defer close(r.wdDone)
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	seen := make([]wdWorker, r.workers)
	now := time.Now()
	for i := range seen {
		seen[i].since = now
	}
	for {
		select {
		case <-r.wdStop:
			return
		case now = <-t.C:
		}
		r.health.ticks.Add(1)
		r.checkWorkers(cfg, seen, now)
		r.supervise(cfg, seen, now)
		r.checkJobs(cfg, now)
	}
}

// checkWorkers samples every worker's progress signals — the heartbeat
// beat, the curJob/curLevel markers, and the failed-steal counter (which
// advances continuously while a worker spin-scans for work without
// parking, so an idle-but-unparked worker never reads as wedged): a
// worker none of whose signals have changed and that has not parked for
// StallAfter is stalled; any progress or a park clears the flag.
func (r *Runtime) checkWorkers(cfg WatchdogConfig, seen []wdWorker, now time.Time) {
	for w := range seen {
		sh := &r.stats[w]
		s := &seen[w]
		v, job, level := sh.exec.Load(), sh.curJob.Load(), sh.curLevel.Load()
		fs := sh.failedSteals.Load()
		if v != s.word || job != s.job || level != s.level || fs != s.fsteals ||
			sh.parked.Load() == 1 {
			s.word, s.job, s.level, s.fsteals = v, job, level, fs
			s.since = now
			if sh.stalled.Load() == 1 {
				sh.stalled.Store(0)
				r.health.stalledNow.Add(-1)
				r.health.recovered.Add(1)
			}
			continue
		}
		if sh.stalled.Load() == 0 && now.Sub(s.since) >= cfg.StallAfter {
			sh.stalled.Store(1)
			if r.tr.Armed() {
				r.tr.Record(w, obs.EvStall, 0, int(sh.curLevel.Load()), sh.curJob.Load())
			}
			if cfg.Output != nil {
				fmt.Fprintf(cfg.Output, "rt watchdog: worker %d (squad %d) stalled for %v in job %d level %d\n",
					w, r.topo.SquadOf(w), now.Sub(s.since).Round(time.Millisecond),
					sh.curJob.Load(), sh.curLevel.Load())
				r.DumpState(cfg.Output)
			}
			// Counted after the diagnostic, so a waiter polling Health
			// finds it already written.
			r.health.stalledNow.Add(1)
			r.health.stalls.Add(1)
		}
	}
}

// checkJobs walks the running-job registry: jobs past their submit-time
// deadline are cancelled with a deadline reason (the backstop behind the
// jobs layer's context watch — it also covers roots still waiting in the
// admission queue and rt-level submitters that use no context at all);
// jobs running past OverrunAfter are flagged once.
func (r *Runtime) checkJobs(cfg WatchdogConfig, now time.Time) {
	r.jobsMu.Lock()
	jobs := make([]*Job, 0, len(r.running))
	for _, j := range r.running {
		jobs = append(jobs, j)
	}
	r.jobsMu.Unlock()
	for _, j := range jobs {
		if j.Finished() {
			continue // finished between the snapshot and this check
		}
		if !j.deadline.IsZero() && now.After(j.deadline) && !j.cancelled.Load() {
			j.cancelWith(cancelDeadline)
			r.health.deadlineCancels.Add(1)
			if r.tr.Armed() {
				r.tr.Record(-1, obs.EvDeadline, 0, 0, j.id)
			}
		}
		if cfg.OverrunAfter > 0 && now.Sub(j.start) >= cfg.OverrunAfter &&
			j.overdue.CompareAndSwap(false, true) {
			if r.tr.Armed() {
				r.tr.Record(-1, obs.EvOverrun, 0, 0, j.id)
			}
			if cfg.Output != nil {
				fmt.Fprintf(cfg.Output, "rt watchdog: job %d overdue: running %v (threshold %v)\n",
					j.id, now.Sub(j.start).Round(time.Millisecond), cfg.OverrunAfter)
				r.DumpState(cfg.Output)
			}
			r.health.overruns.Add(1) // after the diagnostic, as for stalls
		}
	}
}

// DumpState writes a human-readable diagnostic of the scheduler's current
// state to w: per-worker heartbeats and queue depths, per-squad busy
// flags and inter-pool depths, the admission queue, the running jobs and
// the watchdog counters. It is safe on a live (even wedged) runtime — it
// takes no scheduler locks beyond the job registry's and reads the same
// monitoring-grade atomics the stats APIs use.
func (r *Runtime) DumpState(w io.Writer) {
	fmt.Fprintf(w, "=== rt state: %d workers, %d squads, BL %d ===\n",
		r.workers, r.topo.Sockets, r.bl)
	fmt.Fprintf(w, "admission queue: %d/%d roots waiting\n", len(r.roots), cap(r.roots))
	for sq := 0; sq < r.topo.Sockets; sq++ {
		fmt.Fprintf(w, "squad %d: busy=%v inter-pool=%d deaths=%d quarantined=%v\n",
			sq, r.busy[sq].busy.Load(), r.inter[sq].Len(),
			r.busy[sq].deaths.Load(), r.busy[sq].quar.Load())
	}
	for i := 0; i < r.workers; i++ {
		sh := &r.stats[i]
		state := "active"
		switch {
		case sh.stalled.Load() == 1:
			state = "STALLED"
		case sh.parked.Load() == 1:
			state = "parked"
		}
		fmt.Fprintf(w, "worker %d (squad %d): %s beat=%d job=%d level=%d deque=%d\n",
			i, r.topo.SquadOf(i), state, sh.exec.Load(),
			sh.curJob.Load(), sh.curLevel.Load(), r.intra[i].Load().Len())
	}
	r.jobsMu.Lock()
	jobs := make([]*Job, 0, len(r.running))
	for _, j := range r.running {
		jobs = append(jobs, j)
	}
	r.jobsMu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	now := time.Now()
	for _, j := range jobs {
		dl := "none"
		if !j.deadline.IsZero() {
			dl = time.Until(j.deadline).Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "job %d: age=%v deadline=%s cancelled=%v spawns=%d\n",
			j.id, now.Sub(j.start).Round(time.Millisecond), dl,
			j.cancelled.Load(), j.spawns.Load())
	}
	h := r.Health()
	fmt.Fprintf(w, "health: stalled=%d stalls=%d recovered=%d overruns=%d deadline-cancels=%d ticks=%d deaths=%d quarantined=%d\n",
		h.StalledWorkers, h.Stalls, h.StallsRecovered, h.JobOverruns,
		h.DeadlineCancels, h.WatchdogTicks, h.WorkerDeaths, h.QuarantinedSquads)
}

// trackJob registers an admitted job with the watchdog until finishJob.
func (r *Runtime) trackJob(j *Job) {
	r.jobsMu.Lock()
	r.running[j.id] = j
	r.jobsMu.Unlock()
}

// trackJobs registers a batch of admitted jobs in one registry lock
// acquisition (SubmitBatch's analogue of trackJob).
func (r *Runtime) trackJobs(js []*Job) {
	r.jobsMu.Lock()
	for _, j := range js {
		r.running[j.id] = j
	}
	r.jobsMu.Unlock()
}

// untrackJob removes a drained job from the watchdog registry.
func (r *Runtime) untrackJob(j *Job) {
	r.jobsMu.Lock()
	delete(r.running, j.id)
	r.jobsMu.Unlock()
}
