// Worker supervision and replacement: the recovery half of the failure
// model (fault.go is the detection half). The supervisor rides the
// watchdog tick — it consumes the same per-worker signals checkWorkers
// samples — and turns "a worker is gone" from a permanently shrunken
// squad into a repaired one.
//
// A worker slot is declared dead in two ways:
//
//   - its goroutine exited abnormally (runtime.Goexit raised from a kill
//     hook — the chaos stand-in for an OS thread dying). The workerLoop
//     exit defer flags the slot with the incarnation's generation;
//   - it has been continuously stalled (watchdog stall flag set, no
//     progress signal) for ReplaceAfter — a grace period past StallAfter,
//     so transient stalls recover instead of churning replacements.
//
// Replacement reclaims the dead incarnation's queued frames and spawns a
// fresh worker goroutine pinned to the same slot — same squad, same
// head-ness — so BL>0 confinement and the busy_state discipline hold.
// The orphaned frames are drained thief-side (Chase-Lev Steal, legal from
// any goroutine) and pushed into the replacement's still-private deque
// before it is published, preserving the frames' job join counters and
// their tier: worker deques hold intra-tier frames only, so routing the
// orphans through the squad's *inter* pool — the obvious alternative —
// would let a head worker adopt an intra frame as the squad's one inter
// task and set a busy flag that nothing would ever clear.
//
// A declared-dead worker that is merely wedged (a thawed freeze, a
// pathologically slow body) is safe: it still owns its private wstate, so
// it finishes and self-drains whatever subtree it holds — join counters
// are shared atomics, so frames its replacement took complete normally —
// and exits at the generation fence. The cost of a false positive is one
// temporary extra runner, never a correctness loss.
//
// Repeated deaths in one squad quarantine it: the squad keeps stealing
// and draining in-flight work but adopts no new roots, shifting admission
// to healthy squads. The last non-quarantined squad is never quarantined
// (a runtime with no adopting squad could not drain its own admission
// queue). Quarantine is sticky for the runtime's lifetime and surfaces
// through Health and DumpState.
package rt

import (
	"fmt"
	"time"
)

// Supervision defaults: a worker is replaced after stalling continuously
// for replaceAfterFactor stall thresholds, and a squad is quarantined at
// defaultQuarantineAfter deaths.
const (
	replaceAfterFactor     = 3
	defaultQuarantineAfter = 3
)

// DeathInfo describes one worker death, passed to the death hook by
// value; hooks must not retain pointers into the runtime.
type DeathInfo struct {
	Worker    int
	Squad     int
	Gen       uint64 // generation of the incarnation that died
	Exited    bool   // goroutine exit (vs. a stall past ReplaceAfter)
	Reclaimed int    // orphaned frames transferred to the replacement
}

// DeathHook observes worker deaths (see SupervisorConfig.OnDeath and
// SetDeathHook). It runs on the watchdog goroutine between ticks: a slow
// hook delays monitoring, never the workers. The hook is published
// through an atomic.Pointer so it can be installed on a live runtime;
// cablint's hookseam analyzer enforces that every deref call site is
// dominated by a nil check, so the disabled seam costs one load.
//
//cab:hook
type DeathHook func(DeathInfo)

// SupervisorConfig configures worker supervision (the zero value enables
// it with defaults). Supervision consumes the watchdog's signals, so
// WatchdogConfig.Disable disables it as well.
type SupervisorConfig struct {
	// Disable turns supervision off: stalled workers stay flagged but are
	// never replaced, and abnormal worker exits permanently shrink the
	// pool (the pre-supervision behavior).
	Disable bool
	// ReplaceAfter is how long a worker may stay continuously stalled
	// before it is declared dead and replaced; 0 selects 3x the watchdog's
	// StallAfter. It is measured from the stall's first missed signal, so
	// it must exceed StallAfter to leave a recovery window.
	ReplaceAfter time.Duration
	// QuarantineAfter is the per-squad death count at which the squad is
	// quarantined (steal-only, no new root adoption); 0 selects the
	// default (3). Negative disables quarantining.
	QuarantineAfter int
	// OnDeath, when non-nil, observes every death/replacement (equivalent
	// to calling SetDeathHook after New, minus the startup race).
	OnDeath DeathHook
}

// withDefaults resolves zero fields against the (already resolved)
// watchdog config.
func (c SupervisorConfig) withDefaults(wd WatchdogConfig) SupervisorConfig {
	if c.ReplaceAfter <= 0 {
		c.ReplaceAfter = replaceAfterFactor * wd.StallAfter
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = defaultQuarantineAfter
	}
	return c
}

// SetDeathHook installs (or, with nil, removes) the death hook on a live
// runtime. The hook observes deaths detected after the call returns.
func (r *Runtime) SetDeathHook(h DeathHook) {
	if h == nil {
		r.deathHook.Store(nil)
		return
	}
	r.deathHook.Store(&h)
}

// supervise is the supervisor step of one watchdog tick, run after
// checkWorkers has refreshed the stall flags: declare deaths, replace the
// dead, quarantine repeat-offender squads.
func (r *Runtime) supervise(cfg WatchdogConfig, seen []wdWorker, now time.Time) {
	if r.super.Disable || r.stopping.Load() {
		return
	}
	for w := range r.slots {
		slot := &r.slots[w]
		gen := slot.gen.Load()
		exited := slot.exitedGen.Load() == gen
		if !exited {
			sh := &r.stats[w]
			if sh.stalled.Load() != 1 || now.Sub(seen[w].since) < r.super.ReplaceAfter {
				continue
			}
		}
		r.replaceWorker(cfg, w, gen, exited, seen, now)
	}
}

// replaceWorker retires slot w's current incarnation and spawns a fresh
// worker in its place: bump the slot generation (the fence a wedged
// predecessor exits at), drain the orphaned frames into the replacement's
// private deque, publish that deque to thieves, reset the slot's
// heartbeat bookkeeping, and account the death — including the squad's
// quarantine threshold.
func (r *Runtime) replaceWorker(cfg WatchdogConfig, w int, gen uint64, exited bool, seen []wdWorker, now time.Time) {
	newGen := gen + 1
	ws := r.newWorkerState(w, newGen)
	old := r.intra[w].Load()
	slot := &r.slots[w]
	slot.gen.Store(newGen) // fence first: a thawed zombie stops looping
	// Orphan reclamation: thief-side drain of the dead incarnation's deque
	// into the replacement's, which is still private (unpublished), so the
	// supervisor is its sole user and owner-side Push is legal. Steal may
	// fail spuriously against a concurrent thief (or a wedged-not-dead
	// owner that resumed), so spin a bounded number of empty rounds; frames
	// a live zombie keeps are its own to drain — never lost, because the
	// zombie pops its private deque ahead of every other work source.
	reclaimed := 0
	for misses := 0; misses < 128; {
		t := old.Steal()
		if t == nil {
			if old.Empty() {
				break
			}
			misses++
			continue
		}
		misses = 0
		ws.deq.Push(t)
		reclaimed++
	}
	r.intra[w].Store(ws.deq)
	// The slot's stall verdict belongs to the dead incarnation: clear it as
	// a replacement (not a recovery) and restart the signal window so the
	// fresh worker is not instantly re-flagged.
	sh := &r.stats[w]
	if sh.stalled.Load() == 1 {
		sh.stalled.Store(0)
		r.health.stalledNow.Add(-1)
	}
	seen[w] = wdWorker{
		word: sh.exec.Load(), job: sh.curJob.Load(),
		level: sh.curLevel.Load(), fsteals: sh.failedSteals.Load(),
		since: now,
	}
	sq := r.topo.SquadOf(w)
	if deaths := r.busy[sq].deaths.Add(1); r.super.QuarantineAfter > 0 &&
		deaths >= int64(r.super.QuarantineAfter) && !r.busy[sq].quar.Load() &&
		r.healthySquads() > 1 {
		r.busy[sq].quar.Store(true)
		r.health.quarantines.Add(1)
		if cfg.Output != nil {
			fmt.Fprintf(cfg.Output, "rt supervisor: squad %d quarantined after %d worker deaths\n", sq, deaths)
		}
	}
	if cfg.Output != nil {
		cause := "stalled past replace threshold"
		if exited {
			cause = "goroutine exited"
		}
		fmt.Fprintf(cfg.Output, "rt supervisor: worker %d (squad %d) dead (%s), gen %d -> %d, %d frames reclaimed\n",
			w, sq, cause, gen, newGen, reclaimed)
	}
	// The stopping check and wg.Add are atomic against Close: either the
	// replacement is registered before Close's wg.Wait begins, or it is
	// not spawned at all (the deque swap above is still safe — a stopping
	// runtime has already drained every job).
	r.superMu.Lock()
	if r.stopping.Load() {
		r.superMu.Unlock()
		r.health.deaths.Add(1)
		return
	}
	r.wg.Add(1)
	r.superMu.Unlock()
	go r.workerLoop(w, ws)
	r.lot.Wake() // the replacement and any parked peers must see the new state
	if h := r.deathHook.Load(); h != nil {
		(*h)(DeathInfo{Worker: w, Squad: sq, Gen: gen, Exited: exited, Reclaimed: reclaimed})
	}
	// Counted last: a waiter polling WorkerDeaths sees the hook's effects.
	r.health.deaths.Add(1)
}

// healthySquads counts squads not under quarantine.
func (r *Runtime) healthySquads() int {
	n := 0
	for sq := range r.busy {
		if !r.busy[sq].quar.Load() {
			n++
		}
	}
	return n
}

// Quarantined reports whether squad sq is quarantined (steal-only).
func (r *Runtime) Quarantined(sq int) bool {
	return sq >= 0 && sq < len(r.busy) && r.busy[sq].quar.Load()
}
