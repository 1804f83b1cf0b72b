package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"cab"
	"cab/internal/obs"
)

// program is an in-process workload: one op runs root through the
// scheduler; prepare resets the inputs before an op and check verifies its
// output after. Neither is timed.
type program interface {
	setReference()
	prepare()
	root() cab.TaskFunc
	check() error
}

func newProgram(workload string, seed uint64) (program, cab.Config, error) {
	switch workload {
	case "forkjoin":
		p, cfg := newForkjoin(seed)
		return p, cfg, nil
	case "stencil":
		p, cfg := newStencil(seed)
		return p, cfg, nil
	}
	return nil, cab.Config{}, fmt.Errorf("no in-process workload %q", workload)
}

// traceBlock is how long a traced round alternates between a plain block
// and a traced one, so both see the same host conditions.
const traceBlock = 200 * time.Millisecond

// runInproc is one round of an in-process workload: set up, announce
// readiness, then run ops back to back until the deadline.
func runInproc(a childArgs) (*roundResult, error) {
	prog, cfg, err := newProgram(a.workload, a.seed)
	if err != nil {
		return nil, err
	}
	sched, err := startOneP(func() (*cab.Scheduler, error) { return cab.New(cfg) })
	if err != nil {
		return nil, err
	}
	defer sched.Close()
	signalReady()

	prog.setReference()
	res := &roundResult{BL: sched.BoundaryLevel()}
	op := func() (float64, error) {
		prog.prepare()
		t0 := time.Now()
		err := sched.Run(prog.root())
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return ms, err
		}
		if err := prog.check(); err != nil {
			return ms, errWrong{err}
		}
		return ms, nil
	}
	// One untimed op lets frame caches and lazily grown deques settle; it
	// is still checked.
	if _, err := op(); err != nil {
		res.count(err)
	}
	if a.trace {
		tracedInproc(a.seconds, sched, prog, op, res)
	} else {
		for deadline := time.Now().Add(a.seconds); time.Now().Before(deadline); {
			ms, err := op()
			res.record(ms, err)
			res.Seconds += ms / 1e3
		}
	}
	res.PeakRSSMB, err = peakRSS(os.Getpid())
	return res, err
}

// tracedInproc alternates plain and traced blocks. Traced blocks arm the
// scheduler profile and bracket themselves with counter snapshots; the
// per-layer figures come from the traced blocks only, and the difference
// between the two kinds of block is the tracing overhead.
func tracedInproc(d time.Duration, sched *cab.Scheduler, prog program, op func() (float64, error), res *roundResult) {
	var plain, traced []float64
	var counts rtCounts
	var qw obs.HistSnapshot
	var allocs uint64
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		on := i%2 == 1
		var before layerSnap
		if on {
			sched.StartProfile()
			before = snapInproc(sched)
		}
		end := time.Now().Add(traceBlock)
		for time.Now().Before(end) {
			ms, err := op()
			res.record(ms, err)
			switch {
			case err != nil:
			case on:
				traced = append(traced, ms)
			default:
				plain = append(plain, ms)
			}
		}
		if on {
			after := snapInproc(sched)
			sched.StopProfile()
			counts = counts.add(after.counts.sub(before.counts))
			qw = addHist(qw, after.queueWait.Delta(before.queueWait))
			allocs += after.totalAlloc - before.totalAlloc
		}
	}
	// Profile time accrues only while armed, so the totals are the traced
	// blocks' own.
	var times cab.StateTimes
	for _, sq := range sched.Profile().Squads {
		times = addTimes(times, sq.Times)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// The serial baseline: the same op on the calling goroutine.
	var serial []float64
	for i := 0; i < 5; i++ {
		prog.prepare()
		t0 := time.Now()
		cab.Serial(prog.root())
		serial = append(serial, float64(time.Since(t0).Nanoseconds())/1e6)
		if err := prog.check(); err != nil {
			res.count(errWrong{fmt.Errorf("serial op: %w", err)})
		}
	}
	plainMed, serialMed := median(plain), median(serial)
	res.Layer = map[string]float64{
		"work.serial_ms":        serialMed,
		"speedup":               serialMed / plainMed,
		"trace.overhead_pct":    (median(traced)/plainMed - 1) * 100,
		"go.alloc_bytes_per_op": float64(allocs) / float64(len(traced)),
		"go.gc_cpu_frac":        ms.GCCPUFraction,
	}
	addRTLayer(res.Layer, counts, float64(len(traced)), times)
	res.QueueWait = &qw
}

// layerSnap is what a traced block reads at its edges.
type layerSnap struct {
	counts     rtCounts
	times      cab.StateTimes // serve only: in-process profiles accrue only while armed
	queueWait  obs.HistSnapshot
	totalAlloc uint64
	gcCPU      float64 // serve only
}

func snapInproc(sched *cab.Scheduler) layerSnap {
	var buf bytes.Buffer
	sched.WritePrometheus(&buf)
	qw, err := parsePromHistogram(buf.String(), queueWaitSeries)
	if err != nil {
		panic(err) // the scheduler's own exposition always has the series
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return layerSnap{counts: countsOf(sched.Stats()), queueWait: qw, totalAlloc: ms.TotalAlloc}
}

// queueWaitSeries is the job queue-wait histogram in the scheduler's
// Prometheus exposition.
const queueWaitSeries = "cab_job_queue_wait_seconds"
