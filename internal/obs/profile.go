package obs

import (
	"sync/atomic"
	"time"
)

// WorkerState is the coarse scheduler state a worker occupies at any
// instant, for time-in-state accounting. The machine mirrors the real
// worker loop: a worker executes tasks (Exec), scans its own squad's
// deques when its sources run dry (ScanIntra), escalates to remote squad
// pools (ScanInter), spins at the admission seam waiting for root work
// (AdmitWait), and finally parks on the eventcount (Park).
type WorkerState uint32

const (
	StateExec WorkerState = iota
	StateScanIntra
	StateScanInter
	StatePark
	StateAdmitWait
	NumStates
)

// StateName returns the stable label used in metrics and JSON exports.
func StateName(s WorkerState) string {
	switch s {
	case StateExec:
		return "exec"
	case StateScanIntra:
		return "scan_intra"
	case StateScanInter:
		return "scan_inter"
	case StatePark:
		return "park"
	case StateAdmitWait:
		return "admit_wait"
	}
	return "unknown"
}

// profShard is one worker's time-in-state accounting, padded so each
// worker owns its line group exclusively: state transitions are
// owner-written atomics with no cross-worker contention, same discipline
// as the runtime's stat shards. 8 (since) + 5*8 (ns) + 4 (state) = 52
// bytes of fields.
//
//cab:padded
type profShard struct {
	since atomic.Int64            // transition stamp, ns since Profiler start
	ns    [NumStates]atomic.Int64 // accumulated ns per state
	state atomic.Uint32           // current WorkerState
	_     [cacheLinePad - 52]byte // isolate neighbouring workers
}

// flowCell is one (thief worker, victim squad) entry of the steal-flow
// matrix: probes issued, probes that found work, and task frames moved.
// Cells are owner-written by the thief worker only; rows are rounded up
// to a whole number of line groups (see flowStride) so two workers never
// share one. The matrix always counts: it is the runtime's only record of
// steal probes and hits.
type flowCell struct {
	probes atomic.Int64
	hits   atomic.Int64
	frames atomic.Int64
}

// flowCellBytes is sizeof(flowCell); flowCellsPerGroup cells fill
// exactly three 128-byte line groups (lcm(24,128)/24 = 16), the rounding
// unit for per-worker rows.
const (
	flowCellBytes     = 24
	flowCellsPerGroup = 16
)

// Profiler is the second-generation observability layer's accounting
// core: per-worker time-in-state stamps, armable at runtime, plus an
// always-on worker×squad steal-flow matrix. Disarmed, a state transition
// costs one atomic load and zero allocations (the tracing contract);
// armed, it is a handful of stores on the worker's own padded line group.
// A flow record is one to three atomic adds on the thief's own row,
// armed or not. Hardware counters live in internal/hwc; the Profiler is
// the software half of Scheduler.Profile().
type Profiler struct {
	armed  atomic.Bool
	_      [cacheLinePad - 4]byte // keep the hot armed flag off cold fields' lines
	start  time.Time
	squads int
	stride int // flowCells per worker row, squads rounded up to flowCellsPerGroup
	shards []profShard
	flow   []flowCell // worker-major, stride cells per worker
}

// NewProfiler sizes the accounting for a fixed worker and squad count.
func NewProfiler(workers, squads int) *Profiler {
	stride := (squads + flowCellsPerGroup - 1) &^ (flowCellsPerGroup - 1)
	return &Profiler{
		start:  time.Now(),
		squads: squads,
		stride: stride,
		shards: make([]profShard, workers),
		flow:   make([]flowCell, workers*stride),
	}
}

// now is the profiler's monotonic clock: ns since construction.
func (p *Profiler) now() int64 { return int64(time.Since(p.start)) }

// Armed reports whether time-in-state accounting is live. One atomic
// load.
//
//cab:hotpath
func (p *Profiler) Armed() bool { return p.armed.Load() }

// Arm starts time-in-state accounting. Each worker's in-progress state
// segment begins at the moment of arming (stale time from before is not
// credited).
func (p *Profiler) Arm() {
	now := p.now()
	for i := range p.shards {
		p.shards[i].since.Store(now)
	}
	p.armed.Store(true)
}

// Disarm stops time-in-state accounting, settling each worker's
// in-progress segment into its current state so no armed time is lost.
// Settling races benignly with owner transitions (monitoring grade;
// negative deltas are dropped).
func (p *Profiler) Disarm() {
	p.armed.Store(false)
	now := p.now()
	for i := range p.shards {
		sh := &p.shards[i]
		if d := now - sh.since.Load(); d > 0 {
			sh.ns[sh.state.Load()%uint32(NumStates)].Add(d)
		}
		sh.since.Store(now)
	}
}

// SetState records worker w's transition into state s. Owner-called only
// (each worker stamps its own shard). Disarmed: one atomic load. Armed
// and already in s (the common case on the exec fast path): two loads.
// A real transition reads the clock once and issues three stores on the
// worker's own line group.
//
//cab:hotpath
func (p *Profiler) SetState(w int, s WorkerState) {
	if !p.armed.Load() {
		return
	}
	sh := &p.shards[w]
	old := WorkerState(sh.state.Load())
	if old == s {
		return
	}
	now := p.now()
	if d := now - sh.since.Load(); d > 0 {
		sh.ns[old%NumStates].Add(d)
	}
	sh.since.Store(now)
	sh.state.Store(uint32(s))
}

// FlowProbe records worker w probing victim squad vs: one probe, and on
// success the number of task frames it moved (frames 0 on a miss).
// Owner-called by the thief only, on its own row; never gated on the
// armed flag, since the matrix is a ledger, not a sample.
//
//cab:hotpath
func (p *Profiler) FlowProbe(w, vs int, frames int64) {
	c := &p.flow[w*p.stride+vs]
	c.probes.Add(1)
	if frames > 0 {
		c.hits.Add(1)
		c.frames.Add(frames)
	}
}

// FlowCell is a snapshot entry of the steal-flow matrix.
type FlowCell struct {
	Probes int64 `json:"probes"`
	Hits   int64 `json:"hits"`
	Frames int64 `json:"frames"`
}

// WorkerTimes is one worker's accumulated nanoseconds per state,
// indexed by WorkerState.
type WorkerTimes [NumStates]int64

// Total sums all states.
func (t WorkerTimes) Total() int64 {
	var s int64
	for _, v := range t {
		s += v
	}
	return s
}

// Add accumulates o into t (squad/socket rollups).
func (t *WorkerTimes) Add(o WorkerTimes) {
	for i, v := range o {
		t[i] += v
	}
}

// ProfSnapshot is a point-in-time copy of the software profile:
// per-worker state times (the in-progress segment of an armed profiler
// is credited to the current state) and the per-worker steal-flow rows,
// each cell read exactly once.
// Like every obs snapshot it is monitoring grade, not a linearizable
// cut.
type ProfSnapshot struct {
	Armed   bool
	Workers []WorkerTimes
	States  []WorkerState // current state per worker
	Flow    [][]FlowCell  // [worker][victim squad]
}

// Snapshot copies the accounting.
func (p *Profiler) Snapshot() ProfSnapshot {
	s := ProfSnapshot{
		Armed:   p.armed.Load(),
		Workers: make([]WorkerTimes, len(p.shards)),
		States:  make([]WorkerState, len(p.shards)),
		Flow:    make([][]FlowCell, len(p.shards)),
	}
	now := p.now()
	for w := range p.shards {
		sh := &p.shards[w]
		cur := WorkerState(sh.state.Load()) % NumStates
		s.States[w] = cur
		for i := range sh.ns {
			s.Workers[w][i] = sh.ns[i].Load()
		}
		if s.Armed {
			if d := now - sh.since.Load(); d > 0 {
				s.Workers[w][cur] += d
			}
		}
		row := make([]FlowCell, p.squads)
		for vs := 0; vs < p.squads; vs++ {
			c := &p.flow[w*p.stride+vs]
			row[vs] = FlowCell{
				Probes: c.probes.Load(),
				Hits:   c.hits.Load(),
				Frames: c.frames.Load(),
			}
		}
		s.Flow[w] = row
	}
	return s
}

// SquadFlow rolls the per-worker rows up into the squad×squad matrix
// using squadOf to map thief workers onto their squads. Entry [i][j] is
// squad i's workers probing squad j; the diagonal is the intra-socket
// distance class, everything off it the inter-socket class.
func (s ProfSnapshot) SquadFlow(squads int, squadOf func(int) int) [][]FlowCell {
	m := make([][]FlowCell, squads)
	for i := range m {
		m[i] = make([]FlowCell, squads)
	}
	for w, row := range s.Flow {
		i := squadOf(w)
		for j, c := range row {
			m[i][j].Probes += c.Probes
			m[i][j].Hits += c.Hits
			m[i][j].Frames += c.Frames
		}
	}
	return m
}
