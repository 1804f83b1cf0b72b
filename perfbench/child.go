package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cab"
	"cab/internal/obs"
)

// childArgs configure one round, run in a process of its own so that a
// crash costs that round only and is seen by the parent.
type childArgs struct {
	workload string // a workload name, or "layers" for the layer suite
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// cabserveBin is where run.py builds cabserve, relative to the checkout.
const cabserveBin = ".bench_build/bin/cabserve"

// roundResult is what a round reports to the parent as its last line.
type roundResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong"`  // ops whose output was incorrect
	Errors    []string `json:"errors"` // the first few failure messages
	// OpMs are the latencies of the successful ops; Seconds is the time
	// they were measured over.
	OpMs    []float64 `json:"op_ms"`
	Seconds float64   `json:"seconds"`
	// SetupS is set by rounds that time their own set-up; otherwise the
	// parent times the round from exec to its ready line.
	SetupS    float64 `json:"setup_s,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	BL        int     `json:"bl"`
	// Traced rounds only: scalar figures the parent takes the median of
	// over rounds, and samples and histograms it pools first.
	Layer     map[string]float64   `json:"layer,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	QueueWait *obs.HistSnapshot    `json:"queue_wait,omitempty"`
}

const maxErrors = 5

// errWrong marks an op that completed with an incorrect output, as opposed
// to one that failed to complete.
type errWrong struct{ error }

// record accounts one op and keeps its latency if it succeeded.
func (r *roundResult) record(ms float64, err error) {
	r.count(err)
	if err == nil {
		r.OpMs = append(r.OpMs, ms)
	}
}

// count accounts one op.
func (r *roundResult) count(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if _, ok := err.(errWrong); ok {
		r.Wrong++
	}
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, trimErr(err.Error()))
	}
}

// readyLine is what a round prints once set-up is done.
const readyLine = "ready"

func signalReady() { fmt.Println(readyLine) }

func runChild(a childArgs) error {
	var res *roundResult
	var err error
	switch a.workload {
	case "forkjoin", "stencil":
		res, err = runInproc(a)
	case "serve":
		res, err = runServe(a)
	case "layers":
		res, err = runLayers(a)
	case "start":
		return startOnce(a.seed)
	default:
		err = fmt.Errorf("unknown workload %q", a.workload)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// startOneP runs a runtime constructor with a single P, so that no worker
// goroutine runs before the constructor returns. rt.New starts each worker
// before it stores the deques of the workers after it, and a worker that
// steals in that window dereferences a nil deque and kills the process,
// about once in 400 starts of a flat two-worker runtime. Rounds start this
// way so that their figures and failure counts measure the workload; the
// traced run counts the race itself (see startProbe).
func startOneP[T any](newFn func() (T, error)) (T, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return newFn()
}

// startOnce starts the forkjoin workload's scheduler unguarded, with every
// P, runs one empty job on it and closes it: one sample of the start race.
func startOnce(seed uint64) error {
	_, cfg := newForkjoin(seed)
	sched, err := cab.New(cfg)
	if err != nil {
		return err
	}
	defer sched.Close()
	return sched.Run(func(cab.Task) {})
}

// peakRSS reads a process's peak resident set size in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// rtCounts are the runtime event counters the per-layer figures use.
type rtCounts struct {
	Spawns, Steals, StealsInter, InterTasks, Probes, FailedScans, Helps float64
}

func countsOf(s cab.Stats) rtCounts {
	return rtCounts{
		Spawns:      float64(s.Spawns),
		Steals:      float64(s.StealsIntra + s.StealsInter),
		StealsInter: float64(s.StealsInter),
		InterTasks:  float64(s.StealsInterTasks),
		Probes:      float64(s.ProbesIntra + s.ProbesInter),
		FailedScans: float64(s.FailedSteals),
		Helps:       float64(s.Helps),
	}
}

func (c rtCounts) add(o rtCounts) rtCounts {
	return rtCounts{c.Spawns + o.Spawns, c.Steals + o.Steals, c.StealsInter + o.StealsInter,
		c.InterTasks + o.InterTasks, c.Probes + o.Probes, c.FailedScans + o.FailedScans, c.Helps + o.Helps}
}

func (c rtCounts) sub(o rtCounts) rtCounts {
	return c.add(rtCounts{-o.Spawns, -o.Steals, -o.StealsInter, -o.InterTasks, -o.Probes, -o.FailedScans, -o.Helps})
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func addTimes(a, b cab.StateTimes) cab.StateTimes {
	return cab.StateTimes{
		Exec: a.Exec + b.Exec, ScanIntra: a.ScanIntra + b.ScanIntra, ScanInter: a.ScanInter + b.ScanInter,
		Park: a.Park + b.Park, AdmitWait: a.AdmitWait + b.AdmitWait,
	}
}

func subTimes(a, b cab.StateTimes) cab.StateTimes {
	return addTimes(a, cab.StateTimes{
		Exec: -b.Exec, ScanIntra: -b.ScanIntra, ScanInter: -b.ScanInter, Park: -b.Park, AdmitWait: -b.AdmitWait,
	})
}

// addRTLayer adds the rt figures: event counts per op and per steal, and
// the workers' time split between running tasks, scanning and parking.
func addRTLayer(m map[string]float64, c rtCounts, ops float64, t cab.StateTimes) {
	total := float64(t.Total())
	m["rt.spawns_per_op"] = ratio(c.Spawns, ops)
	m["rt.steals_per_op"] = ratio(c.Steals, ops)
	m["rt.inter_tasks_per_steal"] = ratio(c.InterTasks, c.StealsInter)
	m["rt.probes_per_steal"] = ratio(c.Probes, c.Steals)
	m["rt.failed_scans_per_op"] = ratio(c.FailedScans, ops)
	m["rt.helps_per_op"] = ratio(c.Helps, ops)
	m["rt.exec_frac"] = ratio(float64(t.Exec), total)
	m["rt.scan_frac"] = ratio(float64(t.ScanIntra+t.ScanInter), total)
	m["rt.park_frac"] = ratio(float64(t.Park), total)
}

// addHist merges two histogram snapshots.
func addHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// trimErr shortens an error message for the round log.
func trimErr(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
