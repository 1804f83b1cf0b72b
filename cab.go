// Package cab implements CAB, the Cache Aware Bi-tier task-stealing
// scheduler of Chen, Huang, Guo and Zhou (ICPP 2011), as a fork-join
// runtime for Go.
//
// CAB targets multi-socket multi-core (MSMC) machines, where random
// work-stealing scatters data-sharing tasks across sockets and inflates
// shared-cache misses (the paper's TRICI syndrome). CAB splits the
// execution DAG at an automatically computed boundary level BL: tasks
// above it (the inter-socket tier) are distributed across per-socket
// squads of workers, tasks below it (the intra-socket tier) stay inside
// the squad that ran their leaf inter-socket ancestor, so tasks that share
// data also share a cache.
//
// Basic use:
//
//	sched, err := cab.New(cab.Config{
//	    Machine:  cab.DetectMachine(),
//	    DataSize: int64(len(data)) * 8, // Sd for Eq. 4
//	    Branch:   2,                    // B: recursive fan-out
//	})
//	defer sched.Close()
//	err = sched.Run(func(t cab.Task) {
//	    t.Spawn(leftHalf)
//	    t.Spawn(rightHalf)
//	    t.Sync()
//	})
//
// A Scheduler is multi-tenant: beyond the single blocking Run above, any
// number of goroutines may Submit independent jobs concurrently and wait
// on the returned futures (see jobs.go — per-job stats, context
// cancellation, bounded admission with backpressure).
//
// The measurement side of the paper (cache misses, simulated MSMC
// machines) lives in the companion package cab/sim.
package cab

import (
	"context"
	"fmt"
	"io"

	"cab/internal/core"
	"cab/internal/jobs"
	"cab/internal/par"
	"cab/internal/rt"
	"cab/internal/topology"
	"cab/internal/work"
)

// Task is the execution context visible to a task body: Spawn/Sync for
// fork-join parallelism, SpawnHint for data-placement hints (the paper's
// inter_spawn), and Compute/Load/Store annotations that feed the cache
// model when the same code runs on the simulated machine (cab/sim).
//
// SpawnHint's squad argument is validated, not trusted: any value outside
// [0, Squads()) — negative or too large — is clamped to "no preference",
// making the call equivalent to a plain Spawn (the child lands in the
// spawner's squad pool and carries no affinity for hint-matched stealing).
// Use Squads() to compute in-range hints portably across machines.
type Task = work.Proc

// TaskFunc is the type of a task body.
type TaskFunc = work.Fn

// Machine describes the MSMC structure CAB schedules against: M sockets
// of N cores sharing one last-level cache per socket.
type Machine struct {
	Sockets        int   // M
	CoresPerSocket int   // N
	SharedCache    int64 // Sc, bytes of shared cache per socket
}

// DetectMachine inspects /proc/cpuinfo (as the paper's runtime does) and
// falls back to a single-socket machine sized by GOMAXPROCS.
func DetectMachine() Machine {
	top := topology.Detect(topology.Opteron8380())
	return Machine{
		Sockets:        top.Sockets,
		CoresPerSocket: top.CoresPerSocket,
		SharedCache:    top.SharedCacheBytes(),
	}
}

// Opteron8380 returns the paper's evaluation machine: 4 sockets x 4 cores,
// 6 MB shared L3 per socket.
func Opteron8380() Machine {
	return Machine{Sockets: 4, CoresPerSocket: 4, SharedCache: 6 << 20}
}

func (m Machine) topology() topology.Topology {
	return topology.Topology{
		Sockets:        m.Sockets,
		CoresPerSocket: m.CoresPerSocket,
		LineBytes:      64,
		L3Bytes:        m.SharedCache,
		L3Assoc:        48,
	}
}

// Config configures a Scheduler.
type Config struct {
	// Machine is the squad structure. The zero value means DetectMachine.
	Machine Machine
	// DataSize is Sd, the input size in bytes of the program's recursive
	// procedure, used by the automatic partitioning (Eq. 4).
	DataSize int64
	// Branch is B, the recursive branching degree (Eq. 4); 0 means 2.
	Branch int
	// BoundaryLevel overrides the automatic BL when >= 0 (the paper's
	// manual adjustment knob); -1 or unset selects Eq. 4.
	BoundaryLevel int
	// Seed drives victim selection; runs with equal seeds make the same
	// random choices.
	Seed uint64
	// QueueDepth bounds the job admission queue (see Submit): at most
	// this many submitted jobs may wait for a worker. 0 means the
	// default (64).
	QueueDepth int
	// OnFull selects Submit's full-queue behaviour: BlockWhenFull
	// (default; backpressure) or RejectWhenFull (fail fast with
	// ErrQueueFull).
	OnFull SubmitPolicy
	// Trace arms scheduler event tracing from the start (see StartTrace /
	// StopTrace). Disarmed tracing costs one atomic load per
	// instrumentation point; the latency histograms behind JobStats and
	// ServiceStats are always on regardless.
	Trace bool
	// TraceDepth is the per-worker trace ring capacity in events, rounded
	// up to a power of two; 0 selects the default (16384). Old events are
	// overwritten, so tracing may stay armed indefinitely.
	TraceDepth int
	// FaultHook, when non-nil, is invoked at the runtime's fault-injection
	// points (see robust.go and internal/chaos). nil — the default — costs
	// one pointer nil-check per site.
	FaultHook FaultHook
	// Watchdog configures the stall/overrun/deadline monitor; the zero
	// value enables it with defaults (250ms interval, 1s stall threshold).
	Watchdog WatchdogConfig
	// Supervisor configures worker supervision — dead workers (wedged past
	// a grace, or their goroutine gone) are replaced in place, repeated
	// deaths quarantine a squad. The zero value enables it with defaults;
	// it rides the watchdog, so disabling the watchdog disables it too.
	Supervisor SupervisorConfig
	// Retry re-admits jobs that failed with a task panic, with exponential
	// backoff (see RetryPolicy). The zero value disables retries.
	Retry RetryPolicy
	// RetryBudget bounds concurrently outstanding retries (the backstop
	// against retry storms); 0 selects the default (32), negative removes
	// the bound. Only meaningful with Retry set.
	RetryBudget int
	// Profile arms time-in-state accounting from the start (see
	// StartProfile/StopProfile and Profile). Disarmed it costs one atomic
	// load per state transition, like disarmed tracing. The steal-flow
	// matrix needs no arming: it is the steal ledger Stats is read from.
	Profile bool
	// HWC attaches hardware performance counters (cycles, instructions,
	// LLC loads and misses via Linux perf_event_open) to each worker's OS
	// thread, pinning workers with LockOSThread. Hosts without perf access
	// — or non-Linux builds — degrade silently to the software-only
	// profile; Profile().HWCAvailable reports which mode is live.
	HWC bool
}

// Scheduler is a running CAB worker pool. It is multi-tenant: Run and
// Submit may be called concurrently from any number of goroutines, and
// every submission is an independently accounted, independently
// cancellable job on the shared squad-structured pool.
type Scheduler struct {
	rt   *rt.Runtime
	eng  *jobs.Engine
	pool *par.Pool // loop/span descriptor recycling for ParallelFor
	bl   int
}

// New launches M*N workers grouped into per-socket squads and computes the
// boundary level per Eq. 4 (Algorithm II steps 1-2).
func New(cfg Config) (*Scheduler, error) {
	m := cfg.Machine
	if m.Sockets == 0 {
		m = DetectMachine()
	}
	bl := cfg.BoundaryLevel
	if bl == 0 && cfg.DataSize == 0 && cfg.Branch == 0 {
		bl = 0 // fully unconfigured: single-tier
	} else if bl <= 0 {
		branch := cfg.Branch
		if branch == 0 {
			branch = 2
		}
		var err error
		bl, err = core.BoundaryLevel(core.Params{
			Branch:      branch,
			Sockets:     m.Sockets,
			InputBytes:  cfg.DataSize,
			SharedCache: m.SharedCache,
		})
		if err != nil {
			return nil, fmt.Errorf("cab: %w", err)
		}
	}
	r, err := rt.New(rt.Config{
		Topo: m.topology(), BL: bl, Seed: cfg.Seed, QueueDepth: cfg.QueueDepth,
		Trace: cfg.Trace, TraceDepth: cfg.TraceDepth,
		FaultHook: cfg.FaultHook, Watchdog: cfg.Watchdog, Supervisor: cfg.Supervisor,
		Profile: cfg.Profile, HWC: cfg.HWC,
	})
	if err != nil {
		return nil, fmt.Errorf("cab: %w", err)
	}
	policy := jobs.Block
	if cfg.OnFull == RejectWhenFull {
		policy = jobs.Reject
	}
	eng := jobs.New(r, jobs.Config{Policy: policy, Retry: cfg.Retry, RetryBudget: cfg.RetryBudget})
	return &Scheduler{rt: r, eng: eng, pool: par.NewPool(r.Topology()), bl: r.BL()}, nil
}

// BoundaryLevel returns the BL in effect (0 means single-tier scheduling,
// the configuration the paper uses for CPU-bound programs).
func (s *Scheduler) BoundaryLevel() int { return s.bl }

// Run executes fn as the initial task and returns when it and every task
// it transitively spawned have finished. Run is Submit + Wait with a
// background context: it may be called repeatedly and concurrently — each
// call is one job. After Close it fails fast with ErrClosed.
func (s *Scheduler) Run(fn TaskFunc) error {
	j, err := s.eng.Submit(context.Background(), fn)
	if err != nil {
		return err
	}
	return j.Wait()
}

// Stats reports scheduler event counters since New. The runtime keeps the
// counts in cache-line-padded per-worker shards and steal-flow rows (so
// the spawn/steal hot path never touches a shared contended line) and
// folds them here in one pass; the probe and steal fields are the flow
// matrix's totals (see Profile.Flow). The snapshot is monitoring-grade,
// not a single linearizable cut.
func (s *Scheduler) Stats() Stats { return Stats(s.rt.Stats()) }

// SquadStats reports the per-squad (per-socket) breakdown of the event
// counters — the lens the paper's §V argument uses: a healthy BL > 0 run
// shows intra-socket steals inside every squad and few inter-socket ones.
func (s *Scheduler) SquadStats() []Stats {
	per := s.rt.SquadStats()
	out := make([]Stats, len(per))
	for i, st := range per {
		out[i] = Stats(st)
	}
	return out
}

// StartTrace arms scheduler event tracing: workers record spawns, steals,
// migrations, parks, job lifecycle transitions and task execution spans
// into per-worker ring buffers until StopTrace. Arming while armed extends
// the current window. Safe on a live scheduler; the disarmed cost it
// removes is one atomic load per event site.
func (s *Scheduler) StartTrace() { s.rt.StartTrace() }

// StopTrace disarms tracing and writes the recorded window to w as Chrome
// trace-viewer / Perfetto JSON: workers appear as lanes grouped by socket,
// so at BL > 0 intra-socket tasks visibly stay inside one squad's lane
// group while cross-socket migrations jump between groups. Load the output
// in chrome://tracing or https://ui.perfetto.dev.
func (s *Scheduler) StopTrace(w io.Writer) error {
	return s.rt.WriteTrace(w, s.rt.StopTrace())
}

// Tracing reports whether event tracing is armed.
func (s *Scheduler) Tracing() bool { return s.rt.Tracing() }

// Close shuts the scheduler down gracefully: new submissions fail fast
// with ErrClosed, every job already admitted (queued or running) drains to
// completion, and only then do the workers stop. Idempotent; concurrent
// calls all block until termination.
func (s *Scheduler) Close() {
	s.eng.Close()
	s.rt.Close()
}

// Stats are cumulative scheduler event counters. The fields mirror the
// runtime's own Stats one for one (Scheduler.Stats converts directly).
type Stats struct {
	Spawns      int64 // tasks created
	InterSpawns int64 // tasks created into the inter-socket tier
	// StealsIntra counts successful intra-socket steals; at boundary
	// level 0, where every deque is one tier, it counts every steal.
	StealsIntra int64
	// StealsInter counts cross-socket steal operations; StealsInterTasks
	// counts the tasks those operations carried. Steal-half batching makes
	// the second exceed the first — the gap is socket crossings saved —
	// and BatchSteals counts the operations that moved more than one task.
	StealsInter      int64
	StealsInterTasks int64
	BatchSteals      int64
	FailedSteals     int64 // scans that found nothing anywhere
	Helps            int64 // tasks executed while a worker waited at a Sync
	// ProbesIntra and ProbesInter count individual steal attempts by
	// victim distance; distance-graded retries keep ProbesIntra well above
	// ProbesInter on starved squads (local retries are nearly free, socket
	// crossings are not).
	ProbesIntra int64
	ProbesInter int64
}

// BoundaryLevel computes the paper's Eq. 4 directly: the smallest DAG
// level whose tasks both number at least M (one leaf inter-socket task per
// squad, Eq. 1) and carry data small enough for a socket's shared cache
// (Eq. 2). It returns 0 for single-socket machines.
func BoundaryLevel(m Machine, branch int, dataSize int64) (int, error) {
	return core.BoundaryLevel(core.Params{
		Branch:      branch,
		Sockets:     m.Sockets,
		InputBytes:  dataSize,
		SharedCache: m.SharedCache,
	})
}

// Serial runs a task body on the calling goroutine with children executed
// depth-first at their spawn point — useful for reference results in tests.
func Serial(fn TaskFunc) { work.Serial(fn) }
