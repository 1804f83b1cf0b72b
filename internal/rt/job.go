// Job submission: the multi-tenant side of the runtime. The original
// runtime mirrored a Cilk program — one main goroutine feeding one root at
// a time through a 1-slot channel. The submission layer here turns it into
// a job service: any goroutine may Submit a root concurrently, receiving a
// *Job future; roots queue in a bounded admission queue and are adopted by
// idle eligible workers (Algorithm II step 3 generalized from worker 0 to
// every head worker — or every worker when BL == 0). Each frame of a job's
// DAG is tagged with its Job, giving per-job event accounting, per-job
// panic isolation and cooperative cancellation (a cancelled job stops
// spawning, so its DAG drains cleanly).
package rt

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cab/internal/core"
	"cab/internal/obs"
	"cab/internal/work"
)

// defaultQueueDepth bounds the admission queue when Config.QueueDepth is 0.
const defaultQueueDepth = 64

// jobSlabSize is how many Job futures one slab block holds. Blocks are
// handed out pointer by pointer and never recycled — a *Job stays valid
// for as long as the caller keeps it, and the GC frees a block once every
// job in it is unreachable — so the per-submit allocation amortizes to
// 1/jobSlabSize of a block instead of one Job plus one done channel each.
const jobSlabSize = 256

// submitChunk bounds how many jobs SubmitBatch stages per admission
// critical section; the scratch arrays live on the submitter's stack.
const submitChunk = 32

// Job.state after running (zero, what fresh slab memory reads):
// jobDrained once the DAG has drained, jobDone once waiters are released.
const (
	jobDrained uint32 = 1
	jobDone    uint32 = 2
)

// closedChan is the shared pre-closed channel Done returns for finished
// jobs that never lazily created one.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Sentinel errors of the submission API.
var (
	// ErrClosed is returned by Submit (and Run) once Close has begun: the
	// runtime rejects new jobs while draining the ones already admitted.
	ErrClosed = errors.New("rt: runtime is closed")
	// ErrQueueFull is returned by TrySubmit, and by SubmitWith under
	// NoWait, when the admission queue is at capacity.
	ErrQueueFull = errors.New("rt: admission queue is full")
	// ErrSubmitCancelled is returned by SubmitWith when its Cancel channel
	// fires while the submission is blocked on a full admission queue.
	ErrSubmitCancelled = errors.New("rt: submission cancelled while queued")
)

// Job is the future for one submitted root task and the DAG it spawns.
// Every frame of that DAG carries a pointer back to its Job, which is what
// the runtime uses for join/completion accounting, panic isolation and
// cancellation across concurrently running jobs.
type Job struct {
	id    int64
	start time.Time

	// deadline is the absolute submit-time deadline (zero = none); the
	// watchdog enforces it as a backstop even when no goroutine watches a
	// context — including while the root still waits in the admission
	// queue. overdue latches the watchdog's one-shot overrun flag.
	deadline time.Time
	overdue  atomic.Bool

	cancelled atomic.Bool
	reason    atomic.Int32 // first cancel cause wins (cancelExplicit/cancelDeadline)
	panicked  atomic.Pointer[TaskPanic]

	// Per-job event counters. Unlike the global per-worker stat shards
	// these are shared by every worker touching the job's frames; the
	// contention is confined to one job's cache lines and only occurs
	// while several workers run the same job at once.
	spawns      atomic.Int64
	interSpawns atomic.Int64
	steals      atomic.Int64
	migrations  atomic.Int64
	helps       atomic.Int64

	wall      atomic.Int64 // ns from Submit to completion, written before the latch trips
	queueWait atomic.Int64 // ns from Submit to adoption, written by the adopting worker
	onDone    func(error)

	// Completion latch. The old per-job done channel cost one allocation
	// per submit whether or not anybody ever selected on it; the latch is
	// an atomic state word plus a condition variable embedded in the Job
	// itself, with a channel created lazily only when Done() is actually
	// called. state is the lock-free fast path; mu guards doneCh creation
	// and cv waits; finishJob trips all three.
	state  atomic.Uint32 // 0 = running, then jobDrained, then jobDone
	mu     sync.Mutex
	cv     sync.Cond     // cv.L = &mu, set when the slab hands the Job out
	doneCh chan struct{} // lazily created by Done(), closed by finishJob
}

// JobStats is a point-in-time snapshot of one job's accounting.
type JobStats struct {
	ID          int64
	Spawns      int64 // tasks created by this job's frames
	InterSpawns int64 // spawns into the inter-socket tier
	Steals      int64 // frames of this job taken by intra-squad thieves
	Migrations  int64 // frames of this job that crossed squads
	Helps       int64 // frames of this job executed inside someone's Sync
	Wall        time.Duration
	QueueWait   time.Duration // Submit to adoption; while queued, Submit to now
	RunTime     time.Duration // adoption to drain; 0 until adopted
	Done        bool
	Cancelled   bool
	// DeadlineExceeded reports that the cancellation's first cause was the
	// job's deadline (CancelDeadline or the watchdog), not a plain Cancel.
	DeadlineExceeded bool
}

// Cancellation causes, first-cause-wins (Job.reason).
const (
	cancelNone int32 = iota
	cancelExplicit
	cancelDeadline
)

// SubmitOpts modifies SubmitWith.
type SubmitOpts struct {
	// NoWait fails with ErrQueueFull instead of blocking when the
	// admission queue is at capacity.
	NoWait bool
	// Cancel, when non-nil, aborts a blocked admission wait with
	// ErrSubmitCancelled as soon as the channel is closed.
	Cancel <-chan struct{}
	// OnDone, when non-nil, runs on the completing worker right before
	// the job's done latch releases, so whatever it publishes is visible
	// to every waiter. err is what Wait will return (the job's first task
	// panic, or nil); the hook must not Wait on the job itself. It must be
	// fast and must not block (it holds up a scheduler worker).
	OnDone func(err error)
	// Deadline, when non-zero, is the job's absolute deadline: the
	// runtime's watchdog cancels the job (deadline reason) once it passes,
	// whether the root is running or still queued. Enforcement granularity
	// is the watchdog interval; layers that need tighter latency also
	// watch a context (internal/jobs does both).
	Deadline time.Time
}

// Submit enqueues fn as a new root task (level 0) and returns its Job
// future without waiting for execution. It may be called concurrently from
// any number of goroutines; it blocks while the admission queue is full
// (backpressure) and fails fast with ErrClosed once Close has begun.
func (r *Runtime) Submit(fn work.Fn) (*Job, error) {
	return r.SubmitWith(fn, SubmitOpts{})
}

// TrySubmit is Submit with ErrQueueFull instead of blocking admission.
func (r *Runtime) TrySubmit(fn work.Fn) (*Job, error) {
	return r.SubmitWith(fn, SubmitOpts{NoWait: true})
}

// newJobLocked hands out the next Job future from the current slab block,
// starting a fresh block when the old one is exhausted. Caller holds
// submitMu (the slab cursor is admission state). Slab memory is zeroed,
// which is exactly a Job's initial state; only the cond's lock pointer
// needs wiring.
func (r *Runtime) newJobLocked() *Job {
	if r.jobSlabN == len(r.jobSlab) {
		r.jobSlab = make([]Job, jobSlabSize)
		r.jobSlabN = 0
	}
	j := &r.jobSlab[r.jobSlabN]
	r.jobSlabN++
	j.cv.L = &j.mu
	j.id = r.nextJob.Add(1)
	return j
}

// submitFrame hands out a root frame on the submit path. Submitters have
// no worker identity, so they draw from the shared overflow pool that
// worker freelists spill into; in steady state completed frames recycle
// faster than roots are admitted and submission allocates nothing.
//
//cab:hotpath budget=1
func (r *Runtime) submitFrame() *task {
	r.overflowMu.Lock()
	if n := len(r.overflow); n > 0 {
		t := r.overflow[n-1]
		r.overflow[n-1] = nil
		r.overflow = r.overflow[:n-1]
		r.overflowMu.Unlock()
		return t
	}
	r.overflowMu.Unlock()
	//cab:allow hotpath drained-pool slow path, mirrors newFrame
	return new(task)
}

// submitFrames fills dst with root frames in one overflow-pool lock
// acquisition (the batch analogue of submitFrame).
func (r *Runtime) submitFrames(dst []*task) {
	r.overflowMu.Lock()
	k := len(r.overflow)
	if k > len(dst) {
		k = len(dst)
	}
	base := len(r.overflow) - k
	for i := 0; i < k; i++ {
		dst[i] = r.overflow[base+i]
		r.overflow[base+i] = nil
	}
	r.overflow = r.overflow[:base]
	r.overflowMu.Unlock()
	for i := k; i < len(dst); i++ {
		dst[i] = new(task)
	}
}

// freeSubmitFrame returns an unadmitted root frame to the shared pool
// (failed admissions only — admitted frames recycle through freeFrame on
// the worker that completes them).
func (r *Runtime) freeSubmitFrame(t *task) {
	t.fn = nil
	t.parent = nil
	t.job = nil
	r.overflowMu.Lock()
	r.overflow = append(r.overflow, t)
	r.overflowMu.Unlock()
}

// SubmitWith is Submit with explicit admission options.
func (r *Runtime) SubmitWith(fn work.Fn, opts SubmitOpts) (*Job, error) {
	rootTier := core.TierIntra
	if r.bl > 0 {
		rootTier = core.TierInter
	}
	r.submitMu.Lock()
	if r.closed {
		r.submitMu.Unlock()
		return nil, ErrClosed
	}
	// Holding a live count pins the roots channel open: Close closes it
	// only after live drains to zero, so the sends below can never hit a
	// closed channel.
	r.live.Add(1)
	j := r.newJobLocked()
	r.submitMu.Unlock()
	j.start = time.Now()
	j.deadline = opts.Deadline
	j.onDone = opts.OnDone
	root := r.submitFrame()
	root.fn, root.level, root.tier, root.hint, root.job = fn, 0, rootTier, -1, j
	// Track before the send so the watchdog sees the job from admission
	// and finishJob's untrack can never race ahead of the track.
	r.trackJob(j)
	if opts.NoWait {
		select {
		case r.roots <- root:
		default:
			r.untrackJob(j)
			r.freeSubmitFrame(root)
			r.live.Done()
			return nil, ErrQueueFull
		}
	} else {
		// A nil Cancel channel blocks forever, reducing this to a plain
		// send; workers keep draining the queue until Close, so a blocked
		// submission waits for capacity, not forever.
		select {
		case r.roots <- root:
		case <-opts.Cancel:
			r.untrackJob(j)
			r.freeSubmitFrame(root)
			r.live.Done()
			return nil, ErrSubmitCancelled
		}
	}
	if r.tr.Armed() {
		r.tr.Record(-1, obs.EvJobAdmit, obsTier(rootTier), 0, j.id)
	}
	r.lot.Publish() // a root is adoptable: wake parked workers
	return j, nil
}

// SubmitBatch admits every fn as its own level-0 job and returns their
// futures in order. It is the bulk front door: jobs are staged in chunks
// of submitChunk, and each chunk pays one admission critical section, one
// watchdog-registry lock and one frame-pool lock instead of one of each
// per job. Admission order matches slice order.
//
// On a full queue under NoWait (or a Cancel fired while blocked), the
// already-admitted prefix is returned alongside ErrQueueFull or
// ErrSubmitCancelled: those jobs run; the rest were never admitted.
func (r *Runtime) SubmitBatch(fns []work.Fn, opts SubmitOpts) ([]*Job, error) {
	if len(fns) == 0 {
		return nil, nil
	}
	rootTier := core.TierIntra
	if r.bl > 0 {
		rootTier = core.TierInter
	}
	out := make([]*Job, 0, len(fns))
	var frames [submitChunk]*task
	var jobs [submitChunk]*Job
	for base := 0; base < len(fns); base += submitChunk {
		chunk := fns[base:]
		if len(chunk) > submitChunk {
			chunk = chunk[:submitChunk]
		}
		n := len(chunk)
		r.submitMu.Lock()
		if r.closed {
			r.submitMu.Unlock()
			return out, ErrClosed
		}
		r.live.Add(n)
		for i := 0; i < n; i++ {
			jobs[i] = r.newJobLocked()
		}
		r.submitMu.Unlock()
		now := time.Now()
		r.submitFrames(frames[:n])
		for i := 0; i < n; i++ {
			j := jobs[i]
			j.start, j.deadline, j.onDone = now, opts.Deadline, opts.OnDone
			t := frames[i]
			t.fn, t.level, t.tier, t.hint, t.job = chunk[i], 0, rootTier, -1, j
		}
		r.trackJobs(jobs[:n])
		admitted := 0
		var err error
		for i := 0; i < n && err == nil; i++ {
			if opts.NoWait {
				select {
				case r.roots <- frames[i]:
					admitted++
				default:
					err = ErrQueueFull
				}
			} else {
				select {
				case r.roots <- frames[i]:
					admitted++
				case <-opts.Cancel:
					err = ErrSubmitCancelled
				}
			}
			if err == nil {
				// Publish per send, not per chunk: with every worker parked
				// a bounded queue could otherwise fill and wedge the
				// blocking sends before anybody wakes to drain it.
				r.lot.Publish()
			}
		}
		if r.tr.Armed() {
			for i := 0; i < admitted; i++ {
				r.tr.Record(-1, obs.EvJobAdmit, obsTier(rootTier), 0, jobs[i].id)
			}
		}
		out = append(out, jobs[:admitted]...)
		if err != nil {
			// Unwind the unadmitted tail: frames back to the pool, watchdog
			// entries out, live counts down.
			for i := admitted; i < n; i++ {
				r.untrackJob(jobs[i])
				r.freeSubmitFrame(frames[i])
				r.live.Done()
			}
			return out, err
		}
	}
	return out, nil
}

// finishJob settles a job whose root frame just completed its join on
// worker w: the wall clock stops, the run-time histogram gets its sample
// (wall minus queue wait), the job is marked drained (its Stats are
// final), the completion hook runs, and only then does the latch trip —
// state for lock-free polls, the cond for Wait blockers, the lazy channel
// for selectors — so every waiter sees the hook's side effects.
func (r *Runtime) finishJob(w int, j *Job) {
	r.untrackJob(j)
	wall := int64(time.Since(j.start))
	j.wall.Store(wall)
	r.met.Run.Record(wall - j.queueWait.Load())
	if r.tr.Armed() {
		r.tr.Record(w, obs.EvJobDone, 0, 0, j.id)
	}
	j.state.Store(jobDrained)
	if j.onDone != nil {
		j.onDone(j.err())
	}
	j.mu.Lock()
	j.state.Store(jobDone)
	if j.doneCh != nil {
		close(j.doneCh)
	}
	j.cv.Broadcast()
	j.mu.Unlock()
	r.live.Done()
}

// ID returns the job's runtime-unique ID (frames are tagged with it).
func (j *Job) ID() int64 { return j.id }

// Finished reports whether the job's entire DAG has drained. This is the
// allocation-free poll the watchdog and Stats use. It turns true just
// before the completion hook runs, so Wait may still block briefly.
func (j *Job) Finished() bool { return j.state.Load() >= jobDrained }

// Done returns a channel closed when the job's entire DAG has finished.
// The channel is created lazily on first call (a finished job gets a
// shared pre-closed one), so jobs nobody selects on never pay for it.
func (j *Job) Done() <-chan struct{} {
	if j.state.Load() == jobDone {
		return closedChan
	}
	j.mu.Lock()
	if j.state.Load() == jobDone {
		j.mu.Unlock()
		return closedChan
	}
	if j.doneCh == nil {
		j.doneCh = make(chan struct{})
	}
	ch := j.doneCh
	j.mu.Unlock()
	return ch
}

// Cancel asks the job to stop: its frames stop spawning children and
// not-yet-started frames skip their bodies, so the DAG drains cleanly.
// Already-running task bodies are not interrupted. Idempotent.
func (j *Job) Cancel() { j.cancelWith(cancelExplicit) }

// CancelDeadline cancels the job recording the deadline as the cause, so
// DeadlineExceeded distinguishes it from a plain Cancel. The runtime's
// watchdog uses it for SubmitOpts.Deadline; internal/jobs uses it when a
// context dies of context.DeadlineExceeded.
func (j *Job) CancelDeadline() { j.cancelWith(cancelDeadline) }

// cancelWith records the first cancellation cause, then sets the flag the
// spawn path checks. Order matters: a reader that observes cancelled must
// also observe the settled reason.
func (j *Job) cancelWith(reason int32) {
	j.reason.CompareAndSwap(cancelNone, reason)
	j.cancelled.Store(true)
}

// Cancelled reports whether Cancel has been called.
func (j *Job) Cancelled() bool { return j.cancelled.Load() }

// DeadlineExceeded reports that the job was cancelled because its deadline
// passed (and not by an earlier explicit Cancel).
func (j *Job) DeadlineExceeded() bool {
	return j.reason.Load() == cancelDeadline
}

// Wait blocks until the job's DAG has fully drained and returns nil or the
// first panic raised by one of the job's tasks. Cancellation is not an
// error at this layer (internal/jobs maps it to the context's error).
func (j *Job) Wait() error {
	if j.state.Load() != jobDone {
		j.mu.Lock()
		for j.state.Load() != jobDone {
			j.cv.Wait()
		}
		j.mu.Unlock()
	}
	return j.err()
}

// err is the job's outcome as Wait reports it: its first task panic, or
// nil.
func (j *Job) err() error {
	if p := j.panicked.Load(); p != nil {
		return p
	}
	return nil
}

// Stats snapshots the job's accounting. Wall is the elapsed time since
// Submit while the job runs and the final submit-to-completion time once
// Done is set.
func (j *Job) Stats() JobStats {
	s := JobStats{
		ID:          j.id,
		Spawns:      j.spawns.Load(),
		InterSpawns: j.interSpawns.Load(),
		Steals:      j.steals.Load(),
		Migrations:  j.migrations.Load(),
		Helps:       j.helps.Load(),
		Cancelled:   j.cancelled.Load(),
	}
	s.DeadlineExceeded = j.DeadlineExceeded()
	qw := time.Duration(j.queueWait.Load())
	if j.Finished() {
		s.Done = true
		s.Wall = time.Duration(j.wall.Load())
		s.QueueWait = qw
		s.RunTime = s.Wall - qw
	} else {
		s.Wall = time.Since(j.start)
		if qw > 0 { // adopted and running
			s.QueueWait = qw
			s.RunTime = s.Wall - qw
		} else { // still waiting for a worker
			s.QueueWait = s.Wall
		}
	}
	return s
}
