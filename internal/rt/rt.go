// Package rt is the real concurrent CAB runtime: a fork-join scheduler for
// Go programs that implements the paper's squad structure (Fig. 3) and
// stealing protocol (Algorithm I) with goroutine workers.
//
// Go's runtime owns OS threads, so "sockets" here are logical squads: the
// protocol (per-worker intra pools, per-squad inter pools, head workers,
// busy_state, level-based spawn tiers) is exactly the paper's, while actual
// core pinning is left to the operating system. Measurement experiments use
// the simulated machine (internal/simengine); this runtime exists so the
// library is usable for real parallel work and so the protocol is exercised
// under the race detector.
//
// One semantic deviation from MIT Cilk, forced by Go: spawned children are
// queued and joined by *helping* (a worker that reaches Sync executes
// pending tasks until its children finish) instead of child-first
// continuation stealing, which needs first-class continuations. The tier
// policies survive: intra-socket children go to the spawning worker's own
// deque and are executed LIFO (depth-first, the locality child-first
// buys), inter-socket children go parent-first to squad inter pools.
//
// The steady-state fast path is allocation-free and contention-free (see
// DESIGN.md, "Runtime fast path"): task frames are recycled through
// per-worker freelists with a shared overflow pool, the scheduler-event
// counters and squad busy flags live in cache-line-padded per-worker /
// per-squad shards, the inter pools are growable ring buffers, and idle
// workers park on an eventcount (internal/park) instead of spinning, so
// they cost no CPU and wake in microseconds when work is published.
//
// Unlike a Cilk program's single main, the runtime is multi-tenant: any
// goroutine may Submit a root task at any time (see job.go). Roots wait in
// a bounded admission queue until an idle eligible worker adopts them, so
// several independent jobs run interleaved on one worker pool, each with
// its own join accounting, panic isolation and cancellation.
package rt

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cab/internal/core"
	"cab/internal/deque"
	"cab/internal/hwc"
	"cab/internal/obs"
	"cab/internal/park"
	"cab/internal/topology"
	"cab/internal/work"
	"cab/internal/xrand"
)

// cacheLine is the padding granularity for per-worker shards: two 64-byte
// lines, so adjacent-line hardware prefetchers cannot re-couple neighbours.
const cacheLine = 128

// Frame-freelist tuning: a worker keeps at most frameCacheCap recycled
// frames; on overflow it dumps frameBatch of them into the shared overflow
// pool, and an empty worker refills by taking up to frameBatch at once.
// Batching keeps the shared pool's mutex off the per-spawn path even when
// stealing migrates frames between workers permanently (producers reclaim
// what consumers recycle).
const (
	frameCacheCap = 256
	frameBatch    = 128
)

// Idle workers probe this many rounds (spinning, then yielding) before
// parking on the runtime's lot.
const idleSpins = 32

// Distance-graded steal attempts, after blaze's num_tries scheme
// (SNIPPETS.md Snippet 1) and the localized-work-stealing analysis in
// PAPERS.md: a thief retries squad-mates — whose deques its L3 already
// covers — several times before giving up, but probes remote sockets only
// once per scan, because a remote steal is expensive whether it hits or
// misses. Each failed scan also consults a per-worker affinity hint (the
// last victim that fed this worker) before rolling new random victims.
const (
	triesIntra = 4 // probes against squad-mates' Chase-Lev deques per scan
	triesInter = 1 // probes against remote squads' inter pools per scan
)

// stealBatchMax caps how many frames one cross-socket steal may carry off:
// enough to keep a squad fed without re-crossing the socket, small enough
// to bound the victim pool's lock hold time and the per-worker scratch.
const stealBatchMax = 16

// Config configures a Runtime.
type Config struct {
	// Topo defines the squad structure (M squads of N workers). Leave a
	// zero value to derive a single-squad machine from GOMAXPROCS.
	Topo topology.Topology
	// BL is the boundary level; 0 schedules everything as one tier.
	BL int
	// Seed drives victim selection.
	Seed uint64
	// QueueDepth bounds the admission queue: at most this many submitted
	// roots may wait for adoption (running jobs do not count). 0 selects
	// the default (64); negative is an error.
	QueueDepth int
	// Trace arms event tracing from the start (see StartTrace/StopTrace
	// for runtime control). Disarmed tracing costs one atomic load per
	// instrumentation point and zero allocations.
	Trace bool
	// TraceDepth is the per-worker event ring capacity, rounded up to a
	// power of two; 0 selects obs.DefaultRingDepth (16384). Old events
	// are overwritten, so an armed window never grows.
	TraceDepth int
	// FaultHook, when non-nil, is invoked at the runtime's fault points
	// (task-body entry, scheduling-loop iterations, steal probes) — the
	// chaos-injection seam internal/chaos builds on. nil (the default)
	// costs one pointer nil-check per site; see fault.go.
	FaultHook FaultHook
	// Watchdog configures the stall/overrun/deadline monitor; the zero
	// value enables it with defaults (250ms interval, 1s stall threshold).
	Watchdog WatchdogConfig
	// Supervisor configures worker supervision and replacement (see
	// supervise.go); the zero value enables it with defaults whenever the
	// watchdog is enabled (supervision consumes the watchdog's signals, so
	// disabling the watchdog disables it too).
	Supervisor SupervisorConfig
	// Profile arms time-in-state accounting from the start (see
	// EnableProfiling/DisableProfiling for runtime control). Disarmed it
	// costs one atomic load per state transition and zero allocations,
	// same contract as disarmed tracing. The steal-flow matrix is the
	// runtime's steal ledger and always counts.
	Profile bool
	// HWC attaches hardware performance counters (cycles, instructions,
	// LLC loads/misses via perf_event_open) to each worker's OS thread,
	// pinning worker goroutines with LockOSThread. On platforms or hosts
	// where the counters cannot open, the runtime degrades silently to
	// the software-only profile (Profile().HWCAvailable reports which).
	HWC bool
}

// Stats counts scheduler events since the runtime started. The probe and
// steal fields are folds of the steal-flow matrix (see Profile.Flow): the
// diagonal is the intra-socket distance class, everything off it the
// inter-socket class.
type Stats struct {
	Spawns      int64
	InterSpawns int64
	// StealsIntra counts successful probes of squad-mates' deques; under
	// BL 0, where every deque is one tier, it counts every successful
	// probe, remote ones included.
	StealsIntra int64
	// StealsInter counts cross-socket steal *operations* (lock
	// acquisitions on a remote squad's inter pool that came back with
	// work); StealsInterTasks counts the frames those operations carried.
	// With steal-half batching one operation may move many frames, so
	// StealsInterTasks >= StealsInter, and the gap is the cross-socket
	// traffic batching saved.
	StealsInter      int64
	StealsInterTasks int64
	BatchSteals      int64 // inter steal operations that moved more than one frame
	FailedSteals     int64
	Helps            int64 // tasks executed inside someone's Sync
	// ProbesIntra and ProbesInter count individual steal attempts
	// (successful or not) against squad-mate deques and remote inter pools
	// — the raw distance-graded retry traffic. A healthy BL > 0 runtime
	// shows ProbesIntra well above ProbesInter: thieves retry locally and
	// give remote sockets only rare, batched visits.
	ProbesIntra int64
	ProbesInter int64
}

// task is a frame in the run DAG. The paper's cilk2c adds level, parent
// and inter_counter to each frame (§IV-B); pending is the join counter
// covering children of both tiers, and job tags the frame with the
// submission it belongs to (inherited from the parent at spawn). Frames
// are recycled through per-worker freelists: execute returns a frame to
// its worker's cache after the join completes, and spawn reuses it for the
// next child — steady-state spawning performs no heap allocation.
type task struct {
	fn      work.Fn
	parent  *task
	job     *Job // the submission this frame belongs to (parent == nil on its root)
	level   int
	tier    core.Tier
	hint    int
	pending atomic.Int32
	c       ctx // embedded so execute needs no per-task context allocation
}

// statShard is one worker's private event counters, padded so two workers
// never share a cache line. The counters are atomics only because Stats()
// may aggregate them concurrently; each is written by a single worker, so
// the RMWs are uncontended. Steal probes and hits are not here: the
// worker's steal-flow row in the profiler is their only record (see
// readBooks).
//
// The shard doubles as the worker's watchdog heartbeat (piggybacked here
// so monitoring adds no new per-worker cache lines): exec is a monotonic
// progress beat (bumped every hbBatch bodies and on park transitions);
// curJob/curLevel identify the most recently entered body (written only
// when they change, so steady state pays plain loads); parked marks lot
// waits; stalled is the watchdog's verdict (the one field not written by
// the owning worker).
//
//cab:padded
type statShard struct {
	spawns       atomic.Int64
	interSpawns  atomic.Int64
	batchSteals  atomic.Int64
	failedSteals atomic.Int64
	helps        atomic.Int64
	exec         atomic.Uint64 // heartbeat: monotonic progress beat
	curJob       atomic.Int64
	curLevel     atomic.Int64
	parked       atomic.Uint32
	stalled      atomic.Uint32
	_            [cacheLine - 72]byte
}

// squadFlag is a per-squad busy_state flag on its own cache line; the
// unpadded []atomic.Bool packed all squads into one line, so every
// busy-flag write invalidated every squad's cached copy (false sharing).
// atomic.Bool is a uint32 underneath (4 bytes, not 1): the original
// cacheLine-1 pad made the struct 132 bytes, so elements of []squadFlag
// drifted across line-group boundaries (found by cablint's padcheck).
//
// The supervisor's per-squad state rides on the same line: quar marks a
// quarantined squad (steal-only — its workers adopt no new roots), and
// deaths counts workers of this squad declared dead, the counter the
// quarantine threshold is applied to. Both are cold (written only on
// worker death), so sharing the busy flag's line costs nothing.
//
//cab:padded
type squadFlag struct {
	busy   atomic.Bool
	quar   atomic.Bool
	deaths atomic.Int64
	_      [cacheLine - 16]byte
}

// frameCache is a worker-private stack of recycled task frames, padded so
// neighbouring workers' freelist headers do not false-share.
//
//cab:padded
type frameCache struct {
	free []*task
	_    [cacheLine - 24]byte
}

// stealState is a worker's private stealing context: the last victims that
// actually fed it (probed first on the next scan, before any random
// victim — a worker that found work on a deque once tends to find the
// rest of that subtree there) and the scratch buffer batched cross-socket
// steals land in. All fields are owner-only (findTask and its callees run
// exclusively on the owning worker), so none need atomics; the padding
// keeps neighbouring workers' states off each other's cache lines.
//
//cab:padded
type stealState struct {
	lastIntra int32 // last successful intra-squad victim worker, -1 if none
	lastInter int32 // last remote squad whose inter pool yielded work, -1 if none
	batch     []*task
	_         [cacheLine - 32]byte
}

// wstate is the private state of one worker *incarnation*. Everything a
// worker owns exclusively — its Chase-Lev deque (owner-side Push/Pop),
// frame freelist, steal scratch and RNG — lives here rather than in
// slot-indexed runtime arrays, so a replacement worker spawned into a dead
// worker's slot shares nothing owner-only with its predecessor. A "dead"
// worker that turns out to be merely wedged (a thawed chaos freeze, a
// pathologically slow body) resumes on its own wstate, self-drains its
// remaining subtree, notices the slot's generation has moved past its own
// and exits — no locked handoff, no owner-side race with the replacement.
// Slot-shared state (the padded stat shard, the profiler cells, the
// published deque pointer thieves read) is all atomics, where concurrent
// zombie and replacement writers are benign.
type wstate struct {
	gen    uint64 // slot incarnation this state belongs to (slots[w].gen at spawn)
	deq    *deque.Deque[task]
	rng    *xrand.Source
	frames frameCache
	steal  stealState
	// normalExit marks shutdown and generation-fence returns; the worker
	// defer treats any other exit (runtime.Goexit from a kill hook) as a
	// death the supervisor must replace.
	normalExit bool
}

// superSlot is the supervisor's per-worker-slot bookkeeping. gen is the
// slot's current incarnation number (worker goroutines carry their own in
// wstate and exit when the two diverge); exitedGen records the generation
// of an incarnation that exited abnormally, which the supervisor compares
// against gen to detect a vanished worker. Written only at spawn/death, so
// the slice needs no padding — steady state is all shared read-only loads.
type superSlot struct {
	gen       atomic.Uint64
	exitedGen atomic.Uint64
}

// Runtime is a running CAB scheduler instance.
type Runtime struct {
	topo topology.Topology
	bl   int

	// intra[w] is the published deque of slot w's *current* incarnation:
	// thieves Load it and Steal (both sides of the pointer swap are
	// thief-safe); only the owning incarnation Push/Pops, always through
	// its private wstate, never through this slot. The supervisor swaps in
	// a fresh deque when it replaces a dead worker, after transferring the
	// orphaned frames (see replaceWorker).
	intra []atomic.Pointer[deque.Deque[task]]
	inter []*deque.Locked[task]
	busy  []squadFlag
	stats []statShard
	slots []superSlot

	// matchFor[sq] is the prebuilt affinity predicate head workers use
	// against other squads' inter pools (hoisted so steal probes do not
	// allocate a closure).
	matchFor []func(*task) bool

	// overflow is the shared frame pool: workers dump surplus recycled
	// frames here in batches and refill from it when their cache is empty.
	overflowMu sync.Mutex
	overflow   []*task

	lot *park.Lot

	// Observability: the tracer's armed flag gates every event record (one
	// atomic load when disarmed); the metrics histograms are always on but
	// touched only at job-level and idle-level events, never per spawn.
	// The profiler carries time-in-state accounting behind its own armed
	// flag, plus the always-on steal-flow matrix; hwcGroups holds each
	// worker's hardware-counter group (nil where attachment failed or was
	// not requested), published by the worker at startup and read by
	// Profile from any goroutine.
	tr        *obs.Tracer
	met       *obs.Metrics
	prof      *obs.Profiler
	hwcWant   bool
	hwcGroups []atomic.Pointer[hwc.Group]

	// Fault tolerance (fault.go): the injection hook (nil = disabled, one
	// nil-check per site), the watchdog's shared counters, its lifecycle
	// channels (nil when disabled), and the running-job registry it scans.
	// The supervisor (supervise.go) rides the watchdog tick; its death
	// hook is published through an atomic.Pointer so SetDeathHook works on
	// a live runtime, with the same nil-check-dominated call discipline as
	// the fault hook.
	fault     FaultHook
	super     SupervisorConfig
	deathHook atomic.Pointer[DeathHook]
	health    healthCounters
	wdStop    chan struct{}
	wdDone    chan struct{}

	jobsMu  sync.Mutex
	running map[int64]*Job

	workers int
	wg      sync.WaitGroup

	// Admission state. closed (guarded by submitMu) makes Submit fail
	// fast; live counts admitted-but-unfinished jobs, including ones still
	// blocked in a full-queue Submit, so Close can drain them before the
	// roots channel is closed; stopping tells workers that cannot observe
	// the channel close (ineligible ones under BL > 0) to exit; term is
	// closed when the worker pool has fully terminated.
	submitMu sync.Mutex
	closed   bool
	live     sync.WaitGroup
	stopping atomic.Bool
	// superMu serializes the stopping transition against replacement
	// spawns: a supervisor wg.Add must happen-before Close's wg.Wait, and
	// no replacement may start once stopping is set.
	superMu sync.Mutex
	term    chan struct{}
	roots   chan *task // bounded admission queue of submitted root frames
	nextJob atomic.Int64
	seed    uint64

	// Job futures are handed out of never-recycled slab blocks (guarded
	// by submitMu along with the rest of the admission state), so a
	// submission's allocation cost amortizes to 1/jobSlabSize of a block.
	jobSlab  []Job
	jobSlabN int
}

// TaskPanic describes a panic raised inside a task body. The runtime
// recovers it (so one bad task cannot wedge the worker pool), completes
// the join protocol as if the task returned, and records it on the task's
// Job — panics are isolated per job and surface from that job's Wait (and
// from Run), never from a concurrently running job.
type TaskPanic struct {
	Value interface{} // the value passed to panic
	Job   int64       // ID of the job whose task panicked
	Level int         // DAG level of the panicking task
	Stack string      // goroutine stack at recovery
}

// Error implements error.
func (p *TaskPanic) Error() string {
	return fmt.Sprintf("rt: task (job %d, level %d) panicked: %v", p.Job, p.Level, p.Value)
}

// New starts the worker pool: M*N goroutine workers, one per logical core,
// grouped into squads per the topology (Algorithm II step 1).
func New(cfg Config) (*Runtime, error) {
	topo := cfg.Topo
	if topo.Workers() == 0 {
		n := runtime.GOMAXPROCS(0)
		topo = topology.Topology{
			Sockets: 1, CoresPerSocket: n, LineBytes: 64,
			L3Bytes: 1 << 20, L3Assoc: 16,
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.BL < 0 {
		return nil, fmt.Errorf("rt: negative BL %d", cfg.BL)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("rt: negative QueueDepth %d", cfg.QueueDepth)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = defaultQueueDepth
	}
	r := &Runtime{
		topo:    topo,
		bl:      cfg.BL,
		workers: topo.Workers(),
		roots:   make(chan *task, depth),
		term:    make(chan struct{}),
		seed:    cfg.Seed,
		lot:     park.NewLot(),
		tr:      obs.NewTracer(topo.Workers(), cfg.TraceDepth),
		met:     &obs.Metrics{},
		prof:    obs.NewProfiler(topo.Workers(), topo.Sockets),
		hwcWant: cfg.HWC,
		fault:   cfg.FaultHook,
		running: make(map[int64]*Job),
	}
	if cfg.Trace {
		r.tr.Arm()
	}
	if cfg.Profile {
		r.prof.Arm()
	}
	r.hwcGroups = make([]atomic.Pointer[hwc.Group], topo.Workers())
	if topo.Sockets == 1 {
		r.bl = 0 // Algorithm II step 2: single socket degenerates to Cilk
	}
	r.intra = make([]atomic.Pointer[deque.Deque[task]], r.workers)
	r.inter = make([]*deque.Locked[task], topo.Sockets)
	for i := range r.inter {
		r.inter[i] = deque.NewLocked[task]()
	}
	r.busy = make([]squadFlag, topo.Sockets)
	r.stats = make([]statShard, r.workers)
	r.slots = make([]superSlot, r.workers)
	r.matchFor = make([]func(*task) bool, topo.Sockets)
	for sq := range r.matchFor {
		sq := sq
		r.matchFor[sq] = func(x *task) bool { return x.hint < 0 || x.hint == sq }
	}
	wd := cfg.Watchdog.withDefaults()
	r.super = cfg.Supervisor.withDefaults(wd)
	if h := cfg.Supervisor.OnDeath; h != nil {
		r.deathHook.Store(&h)
	}
	// Build every worker's state, publish every slot, then start the
	// workers: a worker's first idle scan may steal from any slot, so no
	// worker may run before the last deque is stored.
	wss := make([]*wstate, r.workers)
	for w := range wss {
		wss[w] = r.newWorkerState(w, 1)
	}
	for w, ws := range wss {
		r.slots[w].gen.Store(1)
		r.intra[w].Store(ws.deq)
	}
	for w, ws := range wss {
		r.wg.Add(1)
		go r.workerLoop(w, ws)
	}
	if !cfg.Watchdog.Disable {
		r.wdStop = make(chan struct{})
		r.wdDone = make(chan struct{})
		go r.watchdog(wd)
	}
	return r, nil
}

// newWorkerState builds the private state of one worker incarnation of
// slot w: a fresh deque, an empty freelist, reset steal affinity and an
// RNG seeded per slot and generation (so a replacement's victim sequence
// is deterministic under a fixed Config.Seed but distinct from its
// predecessor's).
func (r *Runtime) newWorkerState(w int, gen uint64) *wstate {
	ws := &wstate{
		gen: gen,
		deq: deque.NewDeque[task](),
		rng: xrand.New(r.seed + uint64(w)*0x9e3779b97f4a7c15 + gen),
	}
	ws.frames.free = make([]*task, 0, frameCacheCap)
	ws.steal.lastIntra = -1
	ws.steal.lastInter = -1
	ws.steal.batch = make([]*task, stealBatchMax)
	return ws
}

// BL returns the effective boundary level.
func (r *Runtime) BL() int { return r.bl }

// Topology returns the logical machine.
func (r *Runtime) Topology() topology.Topology { return r.topo }

// books is one pass over the per-worker ledgers: the profiler snapshot
// and every worker's Stats, with the probe and steal fields folded from
// the flow row that pass read. Stats, SquadStats and Profile fold one
// books value each, so within it the flow matrix and the steal counters
// balance by construction. It is not a linearizable cut across workers.
type books struct {
	prof    obs.ProfSnapshot
	workers []Stats
}

func (r *Runtime) readBooks() books {
	b := books{prof: r.prof.Snapshot(), workers: make([]Stats, r.workers)}
	for w := range b.workers {
		sh := &r.stats[w]
		s := &b.workers[w]
		s.Spawns = sh.spawns.Load()
		s.InterSpawns = sh.interSpawns.Load()
		s.BatchSteals = sh.batchSteals.Load()
		s.FailedSteals = sh.failedSteals.Load()
		s.Helps = sh.helps.Load()
		own := r.topo.SquadOf(w)
		for vs, c := range b.prof.Flow[w] {
			switch {
			case vs == own:
				s.ProbesIntra += c.Probes
				s.StealsIntra += c.Hits
			case r.bl == 0:
				// Single tier: every deque is one tier, so a remote
				// hit is still an intra steal (see Stats.StealsIntra).
				s.ProbesInter += c.Probes
				s.StealsIntra += c.Hits
			default:
				s.ProbesInter += c.Probes
				s.StealsInter += c.Hits
				s.StealsInterTasks += c.Frames
			}
		}
	}
	return b
}

// add accumulates o into s (machine and squad rollups).
func (s *Stats) add(o Stats) {
	s.Spawns += o.Spawns
	s.InterSpawns += o.InterSpawns
	s.StealsIntra += o.StealsIntra
	s.StealsInter += o.StealsInter
	s.StealsInterTasks += o.StealsInterTasks
	s.BatchSteals += o.BatchSteals
	s.FailedSteals += o.FailedSteals
	s.Helps += o.Helps
	s.ProbesIntra += o.ProbesIntra
	s.ProbesInter += o.ProbesInter
}

// total folds the books over the whole machine.
func (b books) total() Stats {
	var s Stats
	for _, ws := range b.workers {
		s.add(ws)
	}
	return s
}

// squads folds the books squad by squad.
func (b books) squads(topo topology.Topology) []Stats {
	out := make([]Stats, topo.Sockets)
	for w, ws := range b.workers {
		out[topo.SquadOf(w)].add(ws)
	}
	return out
}

// Stats folds one pass over the per-worker ledgers (see books).
func (r *Runtime) Stats() Stats { return r.readBooks().total() }

// SquadStats folds one pass over the per-worker ledgers squad by squad —
// the per-socket breakdown the serving surface exposes (the paper's §V
// argument is made per socket, not per machine).
func (r *Runtime) SquadStats() []Stats { return r.readBooks().squads(r.topo) }

// Metrics snapshots the always-on latency histograms: job queue wait, job
// run time and idle steal-scan duration.
func (r *Runtime) Metrics() obs.MetricsSnapshot { return r.met.Snapshot() }

// StartTrace arms event tracing: from now until StopTrace, workers record
// scheduler events into per-worker ring buffers. Arming an armed runtime
// extends the current window. Safe to call at any time.
func (r *Runtime) StartTrace() { r.tr.Arm() }

// StopTrace disarms tracing and returns the recorded window, sorted by
// time. The events stay valid until the next StartTrace.
func (r *Runtime) StopTrace() []obs.Event {
	r.tr.Disarm()
	return r.tr.Snapshot()
}

// TraceSnapshot returns the current window without disarming — events
// recorded while snapshotting are either included or cleanly dropped,
// never torn.
func (r *Runtime) TraceSnapshot() []obs.Event { return r.tr.Snapshot() }

// Tracing reports whether event tracing is armed.
func (r *Runtime) Tracing() bool { return r.tr.Armed() }

// WriteTrace renders a trace window as Chrome trace-viewer / Perfetto
// JSON, with workers as lanes grouped by squad.
func (r *Runtime) WriteTrace(w io.Writer, evs []obs.Event) error {
	return obs.WriteChrome(w, evs, r.workers, r.topo.SquadOf)
}

// obsTier maps a frame tier to the event encoding.
func obsTier(t core.Tier) uint8 {
	if t == core.TierInter {
		return obs.TierInter
	}
	return obs.TierIntra
}

// jid is the job tag events carry (0 = no job, never a real ID).
func jid(j *Job) int64 {
	if j == nil {
		return 0
	}
	return j.id
}

// newFrame hands out a task frame from the worker's freelist, refilling
// from the shared overflow pool in batches; only a fully drained runtime
// allocates. The appends and the terminal new below are that drained slow
// path, waived line by line so any new allocation in the fast path trips
// cablint.
func (r *Runtime) newFrame(ws *wstate) *task {
	fc := &ws.frames
	if n := len(fc.free); n > 0 {
		t := fc.free[n-1]
		fc.free[n-1] = nil
		fc.free = fc.free[:n-1]
		return t
	}
	r.overflowMu.Lock()
	if n := len(r.overflow); n > 0 {
		k := n - frameBatch
		if k < 0 {
			k = 0
		}
		take := r.overflow[k:n]
		//cab:allow hotpath refill batch: freelist capacity stabilizes at frameCacheCap
		fc.free = append(fc.free, take[:len(take)-1]...)
		t := take[len(take)-1]
		for i := range take {
			take[i] = nil
		}
		r.overflow = r.overflow[:k]
		r.overflowMu.Unlock()
		return t
	}
	r.overflowMu.Unlock()
	//cab:allow hotpath drained-pool slow path: the only steady-state frame allocation
	return new(task)
}

// freeFrame recycles a completed frame. Callers must guarantee no live
// references remain: execute calls it only after the frame's implicit sync
// completed, so every child has already decremented the join counter.
func (r *Runtime) freeFrame(ws *wstate, t *task) {
	t.fn = nil
	t.parent = nil
	t.job = nil
	fc := &ws.frames
	if len(fc.free) < frameCacheCap {
		//cab:allow hotpath amortized growth: capacity stabilizes at frameCacheCap
		fc.free = append(fc.free, t)
		return
	}
	// Cache full: keep the hot top half local, dump the rest to overflow.
	k := len(fc.free) - frameBatch
	r.overflowMu.Lock()
	//cab:allow hotpath overflow spill is the bounded slow path
	r.overflow = append(r.overflow, fc.free[k:]...)
	r.overflowMu.Unlock()
	for i := k; i < len(fc.free); i++ {
		fc.free[i] = nil
	}
	//cab:allow hotpath writes within capacity after the spill above
	fc.free = append(fc.free[:k], t)
}

// Run executes fn as the initial task (level 0) and blocks until it and
// every task it transitively spawned have finished. It is a thin shim over
// Submit + Wait, so — unlike the original single-main API — Run may be
// called concurrently from any number of goroutines; each call is one job.
// After Close has begun it fails fast with ErrClosed.
func (r *Runtime) Run(fn work.Fn) error {
	j, err := r.Submit(fn)
	if err != nil {
		return err
	}
	return j.Wait()
}

// Close shuts the runtime down gracefully: it first rejects new
// submissions (Submit and Run fail fast with ErrClosed), then drains —
// every job already admitted, including roots still waiting in the
// admission queue, runs to completion — and only then stops the workers.
// Concurrent and repeated Close calls all block until the pool has fully
// terminated.
func (r *Runtime) Close() {
	r.submitMu.Lock()
	if r.closed {
		r.submitMu.Unlock()
		<-r.term
		return
	}
	r.closed = true
	r.submitMu.Unlock()
	r.live.Wait() // drain: admitted jobs (queued or running) finish
	r.superMu.Lock()
	r.stopping.Store(true) // ineligible workers cannot see the channel close
	r.superMu.Unlock()     // no replacement spawns past this point
	close(r.roots)         // safe: live == 0 means no Submit holds a send
	r.lot.Wake()           // parked workers must observe the stop
	r.wg.Wait()
	if r.wdStop != nil {
		// The watchdog outlives the workers (it enforces deadlines during
		// the drain above) and stops only once the pool has terminated.
		close(r.wdStop)
		<-r.wdDone
	}
	close(r.term)
}

// ctx is the work.Proc a task body sees. It is embedded in the task frame,
// so binding it costs no allocation. ws is the executing incarnation's
// private state (deque, freelist, steal scratch, RNG): everything
// owner-only flows through it, so a frame helped across workers — or
// executed by a zombie incarnation after its slot was replaced — always
// spawns into and recycles through the state of whoever runs it.
type ctx struct {
	r      *Runtime
	worker int
	t      *task
	ws     *wstate
	// hbN counts this frame's body entries; every hbBatch-th bumps the
	// worker heartbeat. The counter is frame-local (frames recycle via a
	// per-worker LIFO freelist), so the amortized bump rate across a
	// worker's stream of bodies stays ~1/hbBatch without a dedicated
	// padded per-worker counter line.
	hbN uint32
}

var _ work.Proc = (*ctx)(nil)

func (c *ctx) Worker() int { return c.worker }
func (c *ctx) Level() int  { return c.t.level }
func (c *ctx) Squads() int { return c.r.topo.Sockets }

// Compute, Load, Store and Prefetch are annotations for the simulator; on
// the real runtime the actual Go computation is the cost.
func (c *ctx) Compute(int64)          {}
func (c *ctx) Load(uint64, int64)     {}
func (c *ctx) Store(uint64, int64)    {}
func (c *ctx) Prefetch(uint64, int64) {}

// Spawn queues fn as a child of the current task.
//
//cab:hotpath budget=2
func (c *ctx) Spawn(fn work.Fn) { c.spawn(fn, -1) }

// SpawnHint validates the squad hint explicitly: anything outside
// [0, Squads) — negative or too large — is clamped to "no preference", so
// the child is scheduled exactly like a plain Spawn (it lands in the
// spawner's squad pool but carries no affinity for matched stealing).
//
//cab:hotpath
func (c *ctx) SpawnHint(squad int, fn work.Fn) {
	if squad < 0 || squad >= c.r.topo.Sockets {
		squad = -1
	}
	c.spawn(fn, squad)
}

func (c *ctx) spawn(fn work.Fn, hint int) {
	r := c.r
	w := c.worker
	j := c.t.job
	if j != nil && j.cancelled.Load() {
		return // cancelled jobs stop spawning; the existing DAG drains
	}
	child := r.newFrame(c.ws)
	child.fn = fn
	child.parent = c.t
	child.job = j
	child.level = c.t.level + 1
	child.tier = core.ChildTier(c.t.level, r.bl)
	child.hint = hint
	c.t.pending.Add(1)
	sh := &r.stats[w]
	sh.spawns.Add(1)
	if j != nil {
		j.spawns.Add(1)
	}
	if r.tr.Armed() {
		k := obs.EvSpawn
		if child.tier == core.TierInter {
			k = obs.EvSpawnInter
		}
		r.tr.Record(w, k, obsTier(child.tier), child.level, jid(j))
	}
	if child.tier == core.TierInter {
		sh.interSpawns.Add(1)
		if j != nil {
			j.interSpawns.Add(1)
		}
		sq := r.topo.SquadOf(w)
		if hint >= 0 && hint < r.topo.Sockets {
			sq = hint
		}
		if r.inter[sq].Push(child) {
			r.lot.Publish() // pool went empty→nonempty: wake parked heads
		}
		return
	}
	d := c.ws.deq
	wasEmpty := d.Empty()
	d.Push(child)
	if wasEmpty {
		r.lot.Publish() // deque went empty→nonempty: wake parked thieves
	}
}

// Sync blocks until all of this task's children are done, helping by
// executing queued tasks meanwhile; when no help is findable it parks on
// the runtime's lot until new work or a join completion is published.
//
//cab:hotpath
func (c *ctx) Sync() {
	r := c.r
	t := c.t
	if t.pending.Load() == 0 {
		return
	}
	interSync := t.tier == core.TierInter && t.level < r.bl
	sq := r.topo.SquadOf(c.worker)
	if interSync {
		// The frame suspends at an inter-tier sync: the squad may take
		// another inter-socket task meanwhile (see simsched.CAB).
		r.clearBusy(sq)
	}
	idle := 0
	for t.pending.Load() > 0 {
		if tk := r.syncFind(c.worker, interSync, c.ws); tk != nil {
			r.help(c.worker, tk, c.ws)
			idle = 0
			continue
		}
		if idle < idleSpins {
			idle++
			if idle > 2 {
				runtime.Gosched()
			}
			continue
		}
		// Nothing to help with: park until a spawn, busy-flag clear or
		// join completion is published, re-probing once under Prepare.
		e := r.lot.Prepare()
		if t.pending.Load() == 0 {
			r.lot.Cancel()
			break
		}
		if tk := r.syncFind(c.worker, interSync, c.ws); tk != nil {
			r.lot.Cancel()
			r.help(c.worker, tk, c.ws)
			idle = 0
			continue
		}
		if r.tr.Armed() {
			r.tr.Record(c.worker, obs.EvPark, obsTier(t.tier), t.level, jid(t.job))
		}
		r.prof.SetState(c.worker, obs.StatePark)
		r.markParked(c.worker, true) // blocked join, not a stall
		r.lot.Park(e)
		r.markParked(c.worker, false)
		if r.tr.Armed() {
			r.tr.Record(c.worker, obs.EvUnpark, obsTier(t.tier), t.level, jid(t.job))
		}
		idle = 0
	}
	// The join resolved: the worker resumes the suspended body, so any
	// time since the last scan probe or park belongs to those states and
	// the worker is executing again.
	r.prof.SetState(c.worker, obs.StateExec)
	if interSync {
		r.busy[sq].busy.Store(true) // the frame resumes as the squad's inter task
	}
}

// help executes a task found while blocked at a Sync, attributing the help
// to the worker's shard and to the helped task's job. Helping never adopts
// queued roots: starting a whole new job under a blocked join would nest
// arbitrarily deep and delay the join by that job's entire runtime.
func (r *Runtime) help(w int, tk *task, ws *wstate) {
	r.stats[w].helps.Add(1)
	if j := tk.job; j != nil {
		j.helps.Add(1)
	}
	r.execute(w, tk, ws)
}

// syncFind selects the helping mode of a blocked Sync per Algorithm I.
func (r *Runtime) syncFind(w int, interSync bool, ws *wstate) *task {
	if interSync || r.bl == 0 {
		// Blocked at an inter-tier sync (or single-tier mode): the worker
		// is fully free.
		return r.findTask(w, ws)
	}
	// A leaf inter-socket or intra-socket task joining its intra children
	// helps only within its squad, preserving the one-inter-task-per-squad
	// discipline.
	return r.findIntra(w, ws)
}

// clearBusy releases a squad's busy_state and publishes the transition:
// the squad's head may be parked waiting for the pool to become claimable.
func (r *Runtime) clearBusy(sq int) {
	r.busy[sq].busy.Store(false)
	r.lot.Publish()
}

// execute runs one task frame and settles its completion. A panicking
// body is recovered and recorded on the frame's job (surfaced by that
// job's Wait); the frame still joins its children so the DAG's counters
// stay consistent. A frame whose job was cancelled skips its body but
// still runs the join protocol, so cancelled DAGs drain cleanly. The frame
// is recycled before the parent is notified — by then nothing references
// it.
//
//cab:hotpath
func (r *Runtime) execute(worker int, t *task, ws *wstate) {
	c := &t.c
	c.r, c.worker, c.t, c.ws = r, worker, t, ws
	// Time-in-state: whatever the worker was doing (scanning, parked,
	// admission-waiting) ends here. Disarmed this is one atomic load; armed
	// and already in exec (a worker draining its own deque) it is two.
	r.prof.SetState(worker, obs.StateExec)
	// The exec span covers body plus implicit sync; tasks helped while
	// blocked at the sync emit their own spans, nested inside this one.
	traced := r.tr.Armed()
	if traced {
		r.tr.Record(worker, obs.EvExecBegin, obsTier(t.tier), t.level, jid(t.job))
	}
	if j := t.job; j == nil || !j.cancelled.Load() {
		r.runBody(t, c)
	}
	// Implicit final sync: a frame is not done until its children are
	// (Cilk inserts one before every procedure return).
	if t.pending.Load() > 0 {
		c.Sync()
	}
	if traced {
		r.tr.Record(worker, obs.EvExecEnd, obsTier(t.tier), t.level, jid(t.job))
	}
	if t.tier == core.TierInter {
		// Algorithm II (c): a returning inter-socket task frees its squad.
		r.clearBusy(r.topo.SquadOf(worker))
	}
	parent, job := t.parent, t.job
	r.freeFrame(ws, t)
	if parent != nil {
		if parent.pending.Add(-1) == 0 {
			r.lot.Publish() // the joiner may be parked in Sync
		}
	} else if job != nil {
		r.finishJob(worker, job) // the root's join completed: the job is done
	}
}

// runBody invokes the task function under the panic barrier. The first
// panic of a job wins; later ones (other tasks of the same job) are
// dropped — each concurrent job keeps its own slot, so a panicking job
// never contaminates its neighbours.
//
// Entry advances the worker's heartbeat (a batched beat bump plus
// store-on-change job/level markers — see hbBatch; the steady-state cost
// is plain loads and one uncontended atomic add per hbBatch bodies), so
// the watchdog can tell a worker wedged inside a body from one making
// progress; parking covers the idle side. The fault hook fires here
// inside the barrier: a hook that panics is recovered exactly like a
// panicking body, and a hook that blocks registers as an in-body stall.
func (r *Runtime) runBody(t *task, c *ctx) {
	sh := &r.stats[c.worker]
	if j := jid(t.job); sh.curJob.Load() != j {
		sh.curJob.Store(j)
	}
	if lv := int64(t.level); sh.curLevel.Load() != lv {
		sh.curLevel.Store(lv)
	}
	if c.hbN++; c.hbN%hbBatch == 0 {
		sh.exec.Add(1)
	}
	defer func() {
		if v := recover(); v != nil {
			//cab:allow hotpath panic path: the job is already failing, allocation is irrelevant
			tp := &TaskPanic{
				//cab:allow hotpath panic path: capturing the stack requires a copy
				Value: v, Level: t.level, Stack: string(debug.Stack()),
			}
			if j := t.job; j != nil {
				tp.Job = j.id
				j.panicked.CompareAndSwap(nil, tp)
			}
		}
	}()
	if h := r.fault; h != nil {
		h(FaultInfo{
			Point: FaultExec, Worker: c.worker, Level: t.level,
			Tier: obsTier(t.tier), Job: jid(t.job),
		})
	}
	t.fn(c)
}

// workerLoop is Algorithm I driven forever: probe, adopt a queued root
// when otherwise idle, then park. ws is this incarnation's private state;
// the loop exits when the runtime stops or when the slot's generation
// moves past ws.gen (this incarnation was declared dead and replaced — it
// finishes whatever subtree it still owns, then yields the slot).
//
//cab:workerloop
func (r *Runtime) workerLoop(w int, ws *wstate) {
	defer r.wg.Done()
	defer func() {
		// Shutdown and generation-fence exits are normal. Anything else —
		// runtime.Goexit raised from a kill hook, the chaos stand-in for an
		// OS thread dying — is a death the supervisor must observe and
		// repair, flagged by generation so a replacement's later exit is
		// never confused with its predecessor's.
		if !ws.normalExit && !r.stopping.Load() {
			r.slots[w].exitedGen.Store(ws.gen)
		}
	}()
	if r.hwcWant {
		// Hardware counters attach to the calling OS thread, so the worker
		// pins itself first and stays pinned for the group's lifetime. On
		// any rung of the hwc fallback ladder (non-Linux, no perms, no
		// PMU) the pin is released and the worker runs unpinned as before.
		runtime.LockOSThread()
		if g, err := hwc.Open(); err == nil {
			r.hwcGroups[w].Store(g)
			defer func() {
				// CAS, not Store: a replacement may have published its own
				// group in this slot; a zombie tearing down must not null it.
				r.hwcGroups[w].CompareAndSwap(g, nil)
				g.Close()
			}()
		} else {
			runtime.UnlockOSThread()
		}
	}
	idle := 0
	// scanStart times the idle steal scan: set at the first failed probe,
	// settled into the StealScan histogram when work is found or the
	// worker gives up and parks (parked time is not scanning).
	var scanStart time.Time
	endScan := func() {
		if !scanStart.IsZero() {
			r.met.StealScan.Record(int64(time.Since(scanStart)))
			scanStart = time.Time{}
		}
	}
	for {
		if r.slots[w].gen.Load() != ws.gen {
			// Declared dead and replaced. Own subtrees are fully drained
			// (execute only returns after its implicit sync), so the private
			// deque is empty; the slot now belongs to the replacement.
			ws.normalExit = true
			return
		}
		if h := r.fault; h != nil {
			h(FaultInfo{Point: FaultPoll, Worker: w, Level: -1})
		}
		if t := r.findTask(w, ws); t != nil {
			endScan()
			r.execute(w, t, ws)
			idle = 0
			continue
		}
		if scanStart.IsZero() {
			scanStart = time.Now()
		}
		root, stop := r.pollRoot(w)
		if stop {
			ws.normalExit = true
			return
		}
		if root != nil {
			endScan()
			r.runRoot(w, root, ws)
			idle = 0
			continue
		}
		if idle < idleSpins {
			// The post-scan spin waiting for admissible roots or published
			// work is the admission-wait state; the next steal probe or
			// execute flips it back.
			r.prof.SetState(w, obs.StateAdmitWait)
			idle++
			if idle > 2 {
				runtime.Gosched()
			}
			continue
		}
		// Idle: announce, re-probe every source once, then park.
		e := r.lot.Prepare()
		if t := r.findTask(w, ws); t != nil {
			r.lot.Cancel()
			endScan()
			r.execute(w, t, ws)
			idle = 0
			continue
		}
		root, stop = r.pollRoot(w)
		if stop {
			r.lot.Cancel()
			ws.normalExit = true
			return
		}
		if root != nil {
			r.lot.Cancel()
			endScan()
			r.runRoot(w, root, ws)
			idle = 0
			continue
		}
		endScan()
		if r.tr.Armed() {
			r.tr.Record(w, obs.EvPark, obs.TierIntra, 0, 0)
		}
		// The parked segment is settled into the park state by whichever
		// transition follows the wake-up (a steal probe or an execute), so
		// no post-park stamp is needed.
		r.prof.SetState(w, obs.StatePark)
		r.markParked(w, true)
		r.lot.Park(e)
		r.markParked(w, false)
		if r.tr.Armed() {
			r.tr.Record(w, obs.EvUnpark, obs.TierIntra, 0, 0)
		}
		idle = 0
	}
}

// pollRoot tries to adopt a queued root task — Algorithm II step 3,
// generalized from "worker 0 accepts new roots" to every eligible worker
// so independent jobs run concurrently. Under BL > 0 roots are
// inter-socket tasks, so only a head worker whose squad is not busy may
// adopt one (the busy_state discipline caps concurrency at one inter-tier
// job root per squad); under BL == 0 every worker is eligible. stop
// reports that the runtime has shut down and the worker should exit.
func (r *Runtime) pollRoot(w int) (root *task, stop bool) {
	sq := r.topo.SquadOf(w)
	if r.busy[sq].quar.Load() {
		// Quarantined squads are steal-only: they keep helping with work
		// already in flight but adopt no new roots (see supervise.go).
		return nil, r.stopping.Load()
	}
	if r.bl > 0 {
		if !r.topo.IsHead(w) || r.busy[sq].busy.Load() {
			// Ineligible workers never observe the channel close; the
			// stopping flag (set just before it) tells them to exit.
			return nil, r.stopping.Load()
		}
	}
	select {
	case t, ok := <-r.roots:
		if !ok {
			return nil, true
		}
		return t, false
	default:
	}
	return nil, r.stopping.Load()
}

// runRoot executes an adopted root frame on worker w. An inter-tier root
// occupies the adopting worker's squad, exactly like an inter-socket task
// obtained from a squad pool. Adoption is where the job's queue wait ends
// and its run time begins, so both are settled here.
func (r *Runtime) runRoot(w int, root *task, ws *wstate) {
	if j := root.job; j != nil {
		wait := int64(time.Since(j.start))
		j.queueWait.Store(wait)
		r.met.QueueWait.Record(wait)
		if r.tr.Armed() {
			r.tr.Record(w, obs.EvJobStart, obsTier(root.tier), 0, j.id)
		}
	}
	if root.tier == core.TierInter {
		r.busy[r.topo.SquadOf(w)].busy.Store(true)
	}
	r.execute(w, root, ws)
}

// findTask implements Algorithm I: own intra pool; within-squad intra
// steal while the squad is busy; head worker obtains/steals inter tasks
// when it is not. Cross-socket steals are batched (steal-half) and
// distance-graded: a remote squad's pool is probed at most triesInter
// times per scan, against triesIntra retries for squad-mates, and a
// successful victim is remembered and probed first next time.
//
//cab:hotpath
func (r *Runtime) findTask(w int, ws *wstate) *task {
	if t := ws.deq.Pop(); t != nil {
		return t
	}
	if r.bl == 0 {
		return r.stealAny(w, ws)
	}
	sq := r.topo.SquadOf(w)
	if r.busy[sq].busy.Load() {
		return r.stealIntraFrom(w, sq, ws)
	}
	if !r.topo.IsHead(w) {
		return nil
	}
	if t := r.inter[sq].Pop(); t != nil {
		r.busy[sq].busy.Store(true)
		return t
	}
	m := r.topo.Sockets
	if m == 1 {
		return nil
	}
	if h := r.fault; h != nil {
		h(FaultInfo{Point: FaultSteal, Worker: w, Level: -1})
	}
	st := &ws.steal
	sh := &r.stats[w]
	// Affinity first: the squad whose pool fed this head last time.
	if v := int(st.lastInter); v >= 0 && v != sq && v < m {
		if t := r.stealInterFrom(w, sq, v, ws); t != nil {
			return t
		}
		st.lastInter = -1
	}
	for i := 0; i < triesInter; i++ {
		victim := ws.rng.Intn(m - 1)
		if victim >= sq {
			victim++
		}
		if t := r.stealInterFrom(w, sq, victim, ws); t != nil {
			st.lastInter = int32(victim)
			return t
		}
	}
	sh.failedSteals.Add(1)
	return nil
}

// stealInterFrom probes one remote squad's inter pool with a batched
// steal-half grab: up to half the matching frames (capped at
// stealBatchMax) move in one lock acquisition. The head executes the
// oldest and requeues the rest into its own squad's pool, so the squad's
// next inter tasks are a local Pop instead of another socket crossing.
//
//cab:hotpath
func (r *Runtime) stealInterFrom(w, sq, victim int, ws *wstate) *task {
	r.prof.SetState(w, obs.StateScanInter)
	st := &ws.steal
	k := r.inter[victim].StealHalfInto(st.batch, r.matchFor[sq])
	if k == 0 {
		// Nothing hinted at us: fall back to an unconditional grab, the
		// same starvation escape the single-task StealMatch path had.
		k = r.inter[victim].StealHalfInto(st.batch, nil)
	}
	// The steal ledger: one probe of the victim squad, k frames moved
	// (0 = miss). victim is already the squad index on this path.
	r.prof.FlowProbe(w, victim, int64(k))
	if k == 0 {
		return nil
	}
	t := st.batch[0]
	st.batch[0] = nil
	traced := r.tr.Armed()
	if k > 1 {
		r.stats[w].batchSteals.Add(1)
		if traced {
			// Level carries the batch size: one record per operation, not
			// per frame, keeps tracing cost off the batched path.
			r.tr.Record(w, obs.EvStealBatch, obsTier(t.tier), k, jid(t.job))
		}
	}
	for i := 1; i < k; i++ {
		if j := st.batch[i].job; j != nil {
			j.migrations.Add(1) // the requeued frames crossed squads too
		}
	}
	if j := t.job; j != nil {
		j.migrations.Add(1)
	}
	if traced {
		r.tr.Record(w, obs.EvStealInter, obsTier(t.tier), t.level, jid(t.job))
		r.tr.Record(w, obs.EvMigrate, obsTier(t.tier), t.level, jid(t.job))
	}
	if k > 1 {
		if r.inter[sq].PushBatch(st.batch[1:k]) {
			r.lot.Publish() // own pool went empty→nonempty: other heads may take over
		}
		for i := 1; i < k; i++ {
			st.batch[i] = nil
		}
	}
	r.busy[sq].busy.Store(true)
	return t
}

// findIntra is the restricted helping mode of a leaf inter-socket task:
// own pool, then squad mates.
//
//cab:hotpath
func (r *Runtime) findIntra(w int, ws *wstate) *task {
	if t := ws.deq.Pop(); t != nil {
		return t
	}
	return r.stealIntraFrom(w, r.topo.SquadOf(w), ws)
}

// stealIntraFrom probes squad-mates' deques with graded retries: the
// last successful victim first, then up to triesIntra random squad-mates.
// Retrying an intra-squad victim is cheap (the deque lives in the shared
// L3) and often wins a Chase-Lev race lost a moment earlier.
//
//cab:hotpath
func (r *Runtime) stealIntraFrom(w, sq int, ws *wstate) *task {
	n := r.topo.CoresPerSocket
	if n == 1 {
		return nil
	}
	if h := r.fault; h != nil {
		h(FaultInfo{Point: FaultSteal, Worker: w, Level: -1})
	}
	r.prof.SetState(w, obs.StateScanIntra)
	st := &ws.steal
	base := r.topo.HeadWorker(sq)
	if v := int(st.lastIntra); v >= base && v < base+n && v != w {
		if t := r.stealAnyProbe(w, sq, v); t != nil {
			return t
		}
		st.lastIntra = -1
	}
	for i := 0; i < triesIntra; i++ {
		victim := base + ws.rng.Intn(n-1)
		if victim >= w {
			victim++
		}
		if t := r.stealAnyProbe(w, sq, victim); t != nil {
			st.lastIntra = int32(victim)
			return t
		}
	}
	r.stats[w].failedSteals.Add(1)
	return nil
}

// stealAny is the BL == 0 degenerate mode: random victims over all
// workers, but still distance-graded — squad-mates get triesIntra probes
// (after the affinity hint) before remote workers get triesInter, so even
// single-tier scheduling prefers L3-local steals, per the localized
// work-stealing results in PAPERS.md.
//
//cab:hotpath
func (r *Runtime) stealAny(w int, ws *wstate) *task {
	n := r.workers
	if n == 1 {
		return nil
	}
	if h := r.fault; h != nil {
		h(FaultInfo{Point: FaultSteal, Worker: w, Level: -1})
	}
	st := &ws.steal
	sq := r.topo.SquadOf(w)
	per := r.topo.CoresPerSocket
	base := r.topo.HeadWorker(sq)
	r.prof.SetState(w, obs.StateScanIntra)
	if v := int(st.lastIntra); v >= 0 && v < n && v != w {
		if t := r.stealAnyProbe(w, sq, v); t != nil {
			return t
		}
		st.lastIntra = -1
	}
	if per > 1 {
		for i := 0; i < triesIntra; i++ {
			victim := base + ws.rng.Intn(per-1)
			if victim >= w {
				victim++
			}
			if t := r.stealAnyProbe(w, sq, victim); t != nil {
				st.lastIntra = int32(victim)
				return t
			}
		}
	}
	if remote := n - per; remote > 0 {
		r.prof.SetState(w, obs.StateScanInter)
		for i := 0; i < triesInter; i++ {
			victim := ws.rng.Intn(remote)
			if victim >= base {
				victim += per // skip own squad's contiguous worker range
			}
			if t := r.stealAnyProbe(w, sq, victim); t != nil {
				st.lastIntra = int32(victim)
				return t
			}
		}
	}
	r.stats[w].failedSteals.Add(1)
	return nil
}

// stealAnyProbe is one attempt against one worker's Chase-Lev deque — a
// squad-mate's under BL > 0, any worker's under BL == 0 — recorded in the
// steal ledger against the victim's squad and attributing cross-squad
// hits as migrations. A deque steal moves at most one frame.
//
//cab:hotpath
func (r *Runtime) stealAnyProbe(w, sq, victim int) *task {
	vs := r.topo.SquadOf(victim)
	crossed := vs != sq
	t := r.intra[victim].Load().Steal()
	if t == nil {
		r.prof.FlowProbe(w, vs, 0)
		return nil
	}
	r.prof.FlowProbe(w, vs, 1)
	if j := t.job; j != nil {
		j.steals.Add(1)
		if crossed {
			j.migrations.Add(1)
		}
	}
	if r.tr.Armed() {
		r.tr.Record(w, obs.EvStealIntra, obsTier(t.tier), t.level, jid(t.job))
		if crossed {
			r.tr.Record(w, obs.EvMigrate, obsTier(t.tier), t.level, jid(t.job))
		}
	}
	return t
}
