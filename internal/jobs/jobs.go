// Package jobs is the multi-job submission engine of the CAB runtime: it
// turns internal/rt's raw Submit (bounded admission queue, Job futures,
// cooperative cancellation) into a context-aware job service.
//
// The engine adds what a Go caller expects on top of the scheduler
// protocol:
//
//   - context.Context integration — a job whose context is cancelled or
//     times out stops spawning, drains its DAG cleanly, and reports the
//     context's error from Wait; a context cancelled while a Block-policy
//     submission waits for queue space aborts the admission too.
//   - admission policy — Block (backpressure: Submit waits for queue
//     space) or Reject (fail fast with ErrQueueFull), chosen per engine.
//   - service accounting — submitted / completed / rejected / cancelled
//     totals for monitoring, alongside the per-job rt.JobStats.
//   - graceful drain — Close stops admitting and waits for every admitted
//     job to finish; post-Close submissions fail fast with ErrClosed.
//
// One engine serves any number of concurrent submitters; the underlying
// runtime multiplexes all their DAGs onto one squad-structured worker
// pool, so the paper's cache-aware placement applies across jobs, not just
// within one.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cab/internal/obs"
	"cab/internal/rt"
	"cab/internal/work"
	"cab/internal/xrand"
)

// Policy selects what Submit does when the admission queue is full.
type Policy int

const (
	// Block waits for queue space; backpressure propagates to the
	// submitter. The wait still aborts if the job's context is cancelled.
	Block Policy = iota
	// Reject fails fast with ErrQueueFull.
	Reject
)

// Sentinel errors of the engine API.
var (
	// ErrClosed is returned by Submit once Close has begun.
	ErrClosed = errors.New("jobs: engine is closed")
	// ErrQueueFull is returned under the Reject policy when the admission
	// queue is at capacity.
	ErrQueueFull = errors.New("jobs: admission queue is full")
	// ErrCancelled is returned by Wait when a job was cancelled directly
	// (via Job.Cancel) rather than through its context.
	ErrCancelled = errors.New("jobs: job cancelled")
	// ErrDeadlineExceeded is returned by Wait when the job was cancelled
	// because its deadline passed — whether the context noticed first or
	// the runtime's watchdog did. It wraps context.DeadlineExceeded, so
	// errors.Is matches either sentinel.
	ErrDeadlineExceeded = fmt.Errorf("jobs: job deadline exceeded: %w", context.DeadlineExceeded)
)

// RetryPolicy makes the engine re-admit failed jobs. A policy applies to
// every job the engine admits; the zero value disables retries.
//
// Retries target *task failures* — panics isolated by the runtime
// (rt.TaskPanic, which injected flakes also produce). Shed submissions
// (ErrQueueFull) are never retried internally: shedding is the service
// saying "less load, please", and an internal retry storm would say the
// opposite. Cancelled and deadline-exceeded jobs are likewise final.
type RetryPolicy struct {
	// Max is the number of re-admissions per job after its first attempt
	// fails; 0 disables retries entirely.
	Max int
	// Backoff is the base delay before the first retry; attempt k waits
	// Backoff << (k-1) (exponential). 0 selects 1ms.
	Backoff time.Duration
	// Jitter draws each delay uniformly from [0, full backoff) — "full
	// jitter", which decorrelates retry waves after a mass failure.
	Jitter bool
	// Classify reports whether an error is worth retrying. nil selects the
	// default: retry only task panics (*rt.TaskPanic). Cancellation and
	// deadline outcomes are never offered to Classify.
	Classify func(error) bool
}

// defaultRetryBudget caps concurrently outstanding retries per engine.
const defaultRetryBudget = 32

// Config configures an Engine.
type Config struct {
	// Policy is the full-queue behaviour; the zero value is Block.
	Policy Policy
	// Retry re-admits failed jobs per RetryPolicy (zero value: disabled).
	Retry RetryPolicy
	// RetryBudget bounds how many retries may be outstanding (scheduled or
	// re-running) at once — the backstop against retry storms amplifying
	// an overload. A job denied by the budget fails with its original
	// error and counts as exhausted. 0 selects the default (32); negative
	// removes the bound.
	RetryBudget int
}

// Stats are cumulative service-level counters.
type Stats struct {
	Submitted int64 // jobs admitted
	Completed int64 // jobs whose DAG fully drained
	Rejected  int64 // submissions refused with ErrQueueFull
	Cancelled int64 // jobs cancelled (context or Job.Cancel)
	// DeadlineExceeded counts jobs cancelled by a passed deadline
	// (disjoint from Cancelled: a job lands in exactly one).
	DeadlineExceeded int64
	// Retries counts re-admissions performed under the engine's
	// RetryPolicy; RetriesExhausted counts jobs that settled with a
	// retryable error anyway (attempts spent, budget denied, or the
	// re-admission itself was shed).
	Retries          int64
	RetriesExhausted int64
}

// jobSlabSize is how many Job futures one engine slab block holds; blocks
// are never recycled (a handed-out *Job stays valid forever), so the
// per-submit allocation amortizes to 1/jobSlabSize of a block.
const jobSlabSize = 256

// Engine is a concurrent job-submission front end over one rt.Runtime.
// All methods are safe for concurrent use.
type Engine struct {
	r      *rt.Runtime
	policy Policy
	onDone func(error) // hoisted completion hook: one closure per engine, not per submit

	mu     sync.Mutex
	closed bool
	live   sync.WaitGroup // one count per admitted, unfinished job
	slab   []Job          // current handout block, guarded by mu
	slabN  int

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
	deadline  atomic.Int64

	// Retry machinery (inert unless retry.Max > 0).
	retry       RetryPolicy
	retryBudget int64
	classify    func(error) bool
	jmu         sync.Mutex // guards jrng
	jrng        *xrand.Source
	retryOut    atomic.Int64 // retries outstanding (timer pending or re-running)
	retries     atomic.Int64
	retryExh    atomic.Int64
}

// New returns an engine submitting into r. The engine does not own r:
// Close drains the engine's jobs but leaves the runtime running.
func New(r *rt.Runtime, cfg Config) *Engine {
	e := &Engine{r: r, policy: cfg.Policy, retry: cfg.Retry}
	e.onDone = func(error) { e.completed.Add(1); e.live.Done() }
	if e.retry.Max > 0 {
		if e.retry.Backoff <= 0 {
			e.retry.Backoff = time.Millisecond
		}
		switch {
		case cfg.RetryBudget > 0:
			e.retryBudget = int64(cfg.RetryBudget)
		case cfg.RetryBudget == 0:
			e.retryBudget = defaultRetryBudget
		default:
			e.retryBudget = int64(^uint64(0) >> 1) // unbounded
		}
		e.classify = e.retry.Classify
		if e.classify == nil {
			e.classify = func(err error) bool {
				var tp *rt.TaskPanic
				return errors.As(err, &tp)
			}
		}
		// Full jitter draws from a fixed-seed source: the delays are still
		// decorrelated across jobs, and a test run's schedule depends only
		// on the interleaving, like internal/chaos.
		e.jrng = xrand.New(0x9e3779b97f4a7c15)
	}
	return e
}

// retryArmed reports whether this engine re-admits failed jobs.
func (e *Engine) retryArmed() bool { return e.retry.Max > 0 }

// newJobLocked hands out the next Job future from the engine's slab.
// Caller holds e.mu. Slab memory is zeroed, which is a Job's valid
// initial state; the caller fills eng/rj/ctx once admission succeeds.
func (e *Engine) newJobLocked() *Job {
	if e.slabN == len(e.slab) {
		e.slab = make([]Job, jobSlabSize)
		e.slabN = 0
	}
	j := &e.slab[e.slabN]
	e.slabN++
	return j
}

// Runtime returns the underlying scheduler runtime.
func (e *Engine) Runtime() *rt.Runtime { return e.r }

// Job is the future for one submitted root task. Under a RetryPolicy one
// Job may span several runtime jobs (one per attempt); rj always points at
// the current attempt's.
type Job struct {
	eng *Engine
	ctx context.Context
	rj  atomic.Pointer[rt.Job] // current attempt's runtime job

	cancelOnce sync.Once
	settleOnce sync.Once
	err        error

	// Retry state; zero unless the engine is retry-armed.
	fn        work.Fn       // retained root, re-admitted on retry
	attempts  atomic.Int32  // admissions performed for this job
	final     chan struct{} // closed at final settlement (retry jobs only)
	settled   atomic.Bool
	cancelReq atomic.Bool // Cancel/ctx fired: no further retries
}

// Submit enqueues fn as a new job governed by ctx and returns its future.
// It is safe to call from any number of goroutines. A nil ctx means
// context.Background(). Errors: ErrClosed after Close, ErrQueueFull under
// the Reject policy, ctx.Err() if the context is already dead or fires
// while a Block-policy admission waits for queue space.
//
// Do not call Submit-and-Wait from inside a task body running on the same
// runtime: a blocked admission or wait would hold a scheduler worker.
// Spawn children instead, or hand the submission to a plain goroutine.
func (e *Engine) Submit(ctx context.Context, fn work.Fn) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.live.Add(1)
	j := e.newJobLocked()
	e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		e.live.Done()
		return nil, err
	}
	if e.retryArmed() {
		j.eng, j.ctx, j.fn = e, ctx, fn
		j.final = make(chan struct{})
		if _, err := e.submitAttempt(j, 1); err != nil {
			e.live.Done()
			return nil, e.mapSubmitErr(err, ctx)
		}
		e.submitted.Add(1)
		return j, nil
	}
	opts := rt.SubmitOpts{
		NoWait: e.policy == Reject,
		Cancel: ctx.Done(),
		OnDone: e.onDone,
	}
	// A context deadline becomes a runtime-enforced one: the watchdog
	// cancels the job even if this process never schedules the watch
	// goroutine again (and even while the root sits in the admission
	// queue). The watch below is the low-latency path; the watchdog is the
	// backstop.
	if dl, ok := ctx.Deadline(); ok {
		opts.Deadline = dl
	}
	rj, err := e.r.SubmitWith(fn, opts)
	if err != nil {
		e.live.Done()
		return nil, e.mapSubmitErr(err, ctx)
	}
	e.submitted.Add(1)
	j.eng, j.ctx = e, ctx
	j.rj.Store(rj)
	if ctx.Done() != nil {
		go j.watch(rj)
	}
	return j, nil
}

// mapSubmitErr translates a runtime admission error to the engine's
// sentinel space, bumping the rejection counter for sheds.
func (e *Engine) mapSubmitErr(err error, ctx context.Context) error {
	switch {
	case errors.Is(err, rt.ErrQueueFull):
		e.rejected.Add(1)
		return ErrQueueFull
	case errors.Is(err, rt.ErrClosed):
		return ErrClosed
	case errors.Is(err, rt.ErrSubmitCancelled):
		return ctx.Err()
	}
	return err
}

// submitAttempt performs one admission for a retry-managed job and wires
// the attempt's completion callback. The callback needs the attempt's own
// *rt.Job, which only exists once SubmitWith returns — the ready channel
// bridges that gap (a root that drains before the submitter publishes the
// pointer blocks its completing worker for those two statements, no more).
func (e *Engine) submitAttempt(j *Job, attempt int) (*rt.Job, error) {
	opts := rt.SubmitOpts{
		NoWait: e.policy == Reject,
		Cancel: j.ctx.Done(),
	}
	if dl, ok := j.ctx.Deadline(); ok {
		opts.Deadline = dl
	}
	ready := make(chan struct{})
	var arj *rt.Job
	opts.OnDone = func(err error) {
		<-ready
		e.attemptDone(j, arj, attempt, err)
	}
	rj, err := e.r.SubmitWith(j.fn, opts)
	if err != nil {
		return nil, err
	}
	arj = rj
	j.rj.Store(rj)
	j.attempts.Add(1)
	close(ready)
	if j.ctx.Done() != nil {
		go j.watch(rj)
	}
	return rj, nil
}

// attemptDone settles one drained attempt of a retry-managed job: final
// outcomes (success, cancellation, non-retryable error, attempts or budget
// spent) settle the job; a retryable failure schedules the next attempt
// after an exponential —  optionally jittered — backoff. Runs on the
// completing worker before the attempt's latch releases, with the
// attempt's error; it never blocks.
func (e *Engine) attemptDone(j *Job, rj *rt.Job, attempt int, err error) {
	if attempt > 1 {
		e.retryOut.Add(-1)
	}
	if err == nil || rj.Cancelled() || j.cancelReq.Load() || !e.classify(err) {
		j.finalize(rj, err)
		return
	}
	if attempt > e.retry.Max {
		e.retryExh.Add(1)
		j.finalize(rj, err)
		return
	}
	if e.retryOut.Add(1) > e.retryBudget {
		e.retryOut.Add(-1)
		e.retryExh.Add(1)
		j.finalize(rj, err)
		return
	}
	time.AfterFunc(e.backoff(attempt), func() { e.resubmit(j, rj, attempt, err) })
}

// resubmit re-admits a retry-managed job after its backoff delay. prev is
// the failed attempt and prevErr its error: if the retry cannot happen
// (engine closed, job cancelled during the wait, or the re-admission
// itself is shed — a retry must never amplify overload), the job settles
// with prev's outcome.
func (e *Engine) resubmit(j *Job, prev *rt.Job, attempt int, prevErr error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed || j.cancelReq.Load() {
		e.retryOut.Add(-1)
		j.finalize(prev, prevErr)
		return
	}
	if _, err := e.submitAttempt(j, attempt+1); err != nil {
		e.retryOut.Add(-1)
		e.retryExh.Add(1)
		j.finalize(prev, prevErr)
		return
	}
	e.retries.Add(1)
}

// backoff computes attempt's retry delay: Backoff << (attempt-1), drawn
// down to a uniform [0, delay) sample under full jitter.
func (e *Engine) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16 // past here the shed/deadline machinery owns the problem
	}
	d := e.retry.Backoff << shift
	if e.retry.Jitter && d > 0 {
		e.jmu.Lock()
		d = time.Duration(e.jrng.Float64() * float64(d))
		e.jmu.Unlock()
	}
	return d
}

// finalize settles a retry-managed job exactly once: records the outcome,
// trips the job's completion latch and releases its engine accounting.
func (j *Job) finalize(rj *rt.Job, err error) {
	if !j.settled.CompareAndSwap(false, true) {
		return
	}
	j.err = j.outcome(rj, err)
	j.eng.completed.Add(1) // before the latch, so waiters see it counted
	close(j.final)
	j.eng.live.Done()
}

// SubmitBatch admits every fn as its own job governed by ctx and returns
// their futures in order. The whole batch shares one engine critical
// section, one runtime admission pass (rt.SubmitBatch's chunked single
// lock acquisitions) and — when ctx is cancellable — one watch goroutine,
// instead of one of each per job.
//
// Errors mirror Submit, with partial-admission semantics: on a full queue
// under Reject (or a context fired while a Block admission waits), the
// already-admitted jobs are returned alongside the error — those run; the
// rest were never admitted.
func (e *Engine) SubmitBatch(ctx context.Context, fns []work.Fn) ([]*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(fns) == 0 {
		return nil, nil
	}
	if e.retryArmed() {
		// Retry-managed jobs need per-job completion callbacks, so the batch
		// routes through the per-job admission path. Partial-admission
		// semantics are identical: on the first error the admitted prefix is
		// returned alongside it.
		out := make([]*Job, 0, len(fns))
		for _, fn := range fns {
			j, err := e.Submit(ctx, fn)
			if err != nil {
				return out, err
			}
			out = append(out, j)
		}
		return out, nil
	}
	n := len(fns)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.live.Add(n)
	out := make([]*Job, n)
	for i := range out {
		out[i] = e.newJobLocked()
	}
	e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		e.live.Add(-n)
		return nil, err
	}
	opts := rt.SubmitOpts{
		NoWait: e.policy == Reject,
		Cancel: ctx.Done(),
		OnDone: e.onDone,
	}
	if dl, ok := ctx.Deadline(); ok {
		opts.Deadline = dl
	}
	var remaining atomic.Int64
	var batchDone chan struct{}
	if ctx.Done() != nil {
		// One watcher serves the whole batch: completions decrement
		// remaining (seeded with n, trued up after partial admission) and
		// the last one releases the watcher.
		remaining.Store(int64(n))
		batchDone = make(chan struct{})
		inner := opts.OnDone
		opts.OnDone = func(err error) {
			inner(err)
			if remaining.Add(-1) == 0 {
				close(batchDone)
			}
		}
	}
	rjs, err := e.r.SubmitBatch(fns, opts)
	admitted := len(rjs)
	for i := admitted; i < n; i++ {
		e.live.Done()
	}
	e.submitted.Add(int64(admitted))
	for i, rj := range rjs {
		out[i].eng, out[i].ctx = e, ctx
		out[i].rj.Store(rj)
	}
	out = out[:admitted]
	if batchDone != nil {
		if short := int64(n - admitted); short > 0 && remaining.Add(-short) == 0 {
			close(batchDone)
		}
		if admitted > 0 {
			go watchBatch(ctx, out, batchDone)
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, rt.ErrQueueFull):
			e.rejected.Add(int64(n - admitted))
			return out, ErrQueueFull
		case errors.Is(err, rt.ErrClosed):
			return out, ErrClosed
		case errors.Is(err, rt.ErrSubmitCancelled):
			return out, ctx.Err()
		}
		return out, err
	}
	return out, nil
}

// watchBatch is the batch analogue of watch: one goroutine propagates a
// context cancellation to every still-running job of the batch, and exits
// as soon as the whole batch drains.
func watchBatch(ctx context.Context, js []*Job, batchDone chan struct{}) {
	select {
	case <-ctx.Done():
		deadline := errors.Is(ctx.Err(), context.DeadlineExceeded)
		for _, j := range js {
			if j.rj.Load().Finished() {
				continue
			}
			if deadline {
				j.cancelDeadline()
			} else {
				j.cancel()
			}
		}
	case <-batchDone:
	}
}

// watch propagates a context cancellation to one attempt's runtime job,
// preserving the cause (deadline vs plain cancel). It exits as soon as
// that attempt completes, whichever comes first; a retried job starts a
// fresh watch per attempt.
func (j *Job) watch(rj *rt.Job) {
	select {
	case <-j.ctx.Done():
		if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
			j.cancelDeadline()
		} else {
			j.cancel()
		}
	case <-rj.Done():
	}
}

func (j *Job) cancel() {
	j.cancelReq.Store(true) // a pending retry must not resurrect the job
	j.cancelOnce.Do(func() {
		j.rj.Load().Cancel()
		j.eng.cancelled.Add(1)
	})
}

func (j *Job) cancelDeadline() {
	j.cancelReq.Store(true)
	j.cancelOnce.Do(func() {
		j.rj.Load().CancelDeadline()
		j.eng.deadline.Add(1)
	})
}

// Cancel asks the job to stop spawning and drain. Idempotent; safe
// concurrently with Wait. The job's Wait reports ErrCancelled (or the
// context's error if that fired first).
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job has fully settled: its DAG
// drained and, under a RetryPolicy, no further attempt pending.
func (j *Job) Done() <-chan struct{} {
	if j.final != nil {
		return j.final
	}
	return j.rj.Load().Done()
}

// ID returns the runtime-assigned job ID (of the current attempt, when
// the engine retries).
func (j *Job) ID() int64 { return j.rj.Load().ID() }

// Stats snapshots the job's runtime accounting (of the current attempt,
// when the engine retries).
func (j *Job) Stats() rt.JobStats { return j.rj.Load().Stats() }

// Attempts reports how many times the job has been admitted to the
// runtime: 1 without retries, 1+retries with.
func (j *Job) Attempts() int {
	if n := j.attempts.Load(); n > 0 {
		return int(n)
	}
	return 1
}

// Wait blocks until the job has fully settled — even a cancelled job is
// waited to a clean stop, and a retry-managed job waits out its retries —
// and returns the job's outcome: nil on success, the job's first
// *rt.TaskPanic if a task panicked (after retries, the last attempt's),
// the context's error (wrapped, errors.Is-transparent) if the context
// cancelled it, or ErrCancelled for a direct Cancel. Wait may be called
// repeatedly and concurrently; every call returns the same result.
func (j *Job) Wait() error {
	if j.final != nil {
		<-j.final // j.err is published before the close
		return j.err
	}
	rj := j.rj.Load()
	rj.Wait() // blocks on the runtime latch; the outcome is read in settle
	j.settleOnce.Do(j.settle)
	return j.err
}

func (j *Job) settle() {
	rj := j.rj.Load()
	j.err = j.outcome(rj, rj.Wait())
}

// outcome derives the user-facing error of one drained runtime job whose
// Wait returned err.
func (j *Job) outcome(rj *rt.Job, err error) error {
	if err != nil {
		return err // a panic is more diagnostic than the cancellation
	}
	switch {
	case rj.DeadlineExceeded():
		// Whether the context watch or the runtime watchdog noticed first,
		// the outcome is the same error; cancelDeadline is a once, so the
		// engine counter stays exact when the watchdog got there alone.
		j.cancelDeadline()
		return fmt.Errorf("jobs: job %d: %w", rj.ID(), ErrDeadlineExceeded)
	case rj.Cancelled():
		if cerr := j.ctx.Err(); cerr != nil {
			return fmt.Errorf("jobs: job %d cancelled: %w", rj.ID(), cerr)
		}
		return ErrCancelled
	}
	return nil
}

// Stats reports the engine's cumulative service counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:        e.submitted.Load(),
		Completed:        e.completed.Load(),
		Rejected:         e.rejected.Load(),
		Cancelled:        e.cancelled.Load(),
		DeadlineExceeded: e.deadline.Load(),
		Retries:          e.retries.Load(),
		RetriesExhausted: e.retryExh.Load(),
	}
}

// Metrics snapshots the runtime's always-on latency histograms (job queue
// wait, job run time, idle steal-scan duration) — the data behind the
// service's p50/p95/p99 figures.
func (e *Engine) Metrics() obs.MetricsSnapshot { return e.r.Metrics() }

// Close stops admitting jobs (Submit fails fast with ErrClosed) and waits
// for every already-admitted job to finish — the graceful drain. It does
// not stop the underlying runtime. Idempotent; concurrent calls all block
// until the drain completes.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.live.Wait()
}
