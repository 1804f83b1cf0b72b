package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cab"
	"cab/internal/deque"
	"cab/internal/jobs"
	"cab/internal/park"
	"cab/internal/rt"
	"cab/internal/topology"
	"cab/internal/work"
)

// The layer suite times each layer from outside, through its public
// functions, in the order a request climbs them: deque ops, park→wake,
// rt spawn/sync, then the same trivial job submitted at each rung of the
// ladder rt → jobs → cab → HTTP.
const (
	dequeOps      = 1 << 20 // owner push+pop pairs per repetition
	dequeStealN   = 1 << 16 // tasks a thief takes per repetition
	lockedOps     = 1 << 16 // PushBatch+steal-half drains per repetition
	lockedBatch   = 16
	parkSamples   = 300
	spawnDepth    = 12 // the spawn/sync tree: 2^13-2 spawns per run
	spawnReps     = 15
	ladderReps    = 300
	ladderRate    = 300 // HTTP rung requests per second
	ladderSeconds = 2 * time.Second
	layerReps     = 5 // repetitions of each deque measurement
)

func runLayers(a childArgs) (*roundResult, error) {
	res := &roundResult{Layer: map[string]float64{}, Samples: map[string][]float64{}}
	signalReady()
	m := res.Layer
	m["deque.push_pop_ns"] = medianOf(layerReps, dequePushPop)
	m["deque.steal_ns"] = medianOf(layerReps, dequeSteal)
	m["deque.locked_steal_half_ns"] = medianOf(layerReps, lockedStealHalf)
	res.Samples["park_wake_us"] = parkWake(parkSamples)
	w1, w2, err := spawnSync()
	if err != nil {
		return nil, err
	}
	m["rt.spawn_sync_ns.w1"], m["rt.spawn_sync_ns.w2"] = w1, w2
	rungs, err := ladderRungs(a, res)
	if err != nil {
		return nil, err
	}
	self := ladder(rungs)
	for i, name := range []string{"ladder.rt_us", "ladder.jobs_us", "ladder.cab_us", "ladder.http_us"} {
		m[name] = self[i]
	}
	return res, nil
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// dequePushPop is the owner's uncontended Push+Pop pair, in ns.
func dequePushPop() float64 {
	d := deque.NewDeque[int]()
	x := new(int)
	t0 := time.Now()
	for i := 0; i < dequeOps; i++ {
		d.Push(x)
		if d.Pop() == nil {
			panic("deque: pop after push returned nil")
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / dequeOps
}

// dequeSteal is the time per task a single thief takes while the owner
// keeps pushing, in ns.
func dequeSteal() float64 {
	d := deque.NewDeque[int]()
	x := new(int)
	var wg sync.WaitGroup
	var start atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !start.Load() {
		}
		for i := 0; i < dequeStealN; i++ {
			d.Push(x)
		}
	}()
	t0 := time.Now()
	start.Store(true)
	for got := 0; got < dequeStealN; {
		if d.Steal() != nil {
			got++
		}
	}
	el := time.Since(t0)
	wg.Wait()
	return float64(el.Nanoseconds()) / dequeStealN
}

// lockedStealHalf is one inter-pool round trip, in ns: PushBatch of
// lockedBatch tasks, then StealHalfInto until the pool is empty.
func lockedStealHalf() float64 {
	l := deque.NewLocked[int]()
	batch := make([]*int, lockedBatch)
	for i := range batch {
		batch[i] = new(int)
	}
	dst := make([]*int, lockedBatch)
	t0 := time.Now()
	for i := 0; i < lockedOps; i++ {
		l.PushBatch(batch)
		for l.StealHalfInto(dst, nil) > 0 {
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / lockedOps
}

// parkWake measures the time from Publish to the parked worker running
// again, in µs. The waker publishes only after the parker has announced
// itself and had time to block.
func parkWake(n int) []float64 {
	lot := park.NewLot()
	base := time.Now()
	var published atomic.Int64
	woke := make(chan float64)
	go func() {
		for i := 0; i < n; i++ {
			lot.Park(lot.Prepare())
			woke <- float64(time.Since(base).Nanoseconds()-published.Load()) / 1e3
		}
	}()
	out := make([]float64, n)
	for i := range out {
		for lot.Waiters() == 0 {
			runtime.Gosched()
		}
		time.Sleep(100 * time.Microsecond)
		published.Store(time.Since(base).Nanoseconds())
		lot.Publish()
		out[i] = <-woke
	}
	return out
}

func topo(workers int) topology.Topology {
	t := topology.Detect(topology.Opteron8380())
	t.Sockets, t.CoresPerSocket = 1, workers
	return t
}

// spawnTree is a complete binary spawn/sync tree with empty leaves.
func spawnTree(depth int) work.Fn {
	return func(p work.Proc) {
		if depth == 0 {
			return
		}
		p.Spawn(spawnTree(depth - 1))
		p.Spawn(spawnTree(depth - 1))
		p.Sync()
	}
}

// spawnSync runs the same tree on one and on all workers, alternating so
// both see the same host conditions, and returns ns per spawn for each.
func spawnSync() (w1, w2 float64, err error) {
	const spawns = 1<<(spawnDepth+1) - 2
	var rts [2]*rt.Runtime
	for i, w := range []int{1, runtime.GOMAXPROCS(0)} {
		if rts[i], err = startOneP(func() (*rt.Runtime, error) { return rt.New(rt.Config{Topo: topo(w)}) }); err != nil {
			return 0, 0, err
		}
		defer rts[i].Close()
	}
	var ns [2][]float64
	tree := spawnTree(spawnDepth)
	for rep := -1; rep < spawnReps; rep++ {
		for i, r := range rts {
			t0 := time.Now()
			if err := r.Run(tree); err != nil {
				return 0, 0, err
			}
			if rep >= 0 { // the first run of each only warms up
				ns[i] = append(ns[i], float64(time.Since(t0).Nanoseconds())/spawns)
			}
		}
	}
	return median(ns[0]), median(ns[1]), nil
}

// ladderRungs times a trivial job at each rung and returns the median
// latency of each, bottom-up, in µs. The in-process rungs take turns, one
// job each, so every rung's workers have parked again before its next job;
// the HTTP rung is the open-loop generator against cabserve sending
// /fib?n=1, which runs serially inside one job.
func ladderRungs(a childArgs, res *roundResult) ([]float64, error) {
	trivial := func(work.Proc) {}
	cores := topo(runtime.GOMAXPROCS(0)) // read before startOneP lowers it
	newRT := func() (*rt.Runtime, error) { return rt.New(rt.Config{Topo: cores}) }
	r, err := startOneP(newRT)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	jr, err := startOneP(newRT)
	if err != nil {
		return nil, err
	}
	defer jr.Close()
	eng := jobs.New(jr, jobs.Config{})
	defer eng.Close()
	cfg := cab.Config{Machine: cab.DetectMachine()}
	sched, err := startOneP(func() (*cab.Scheduler, error) { return cab.New(cfg) })
	if err != nil {
		return nil, err
	}
	defer sched.Close()
	ctx := context.Background()
	rungs := []func() error{
		func() error {
			j, err := r.Submit(trivial)
			if err != nil {
				return err
			}
			return j.Wait()
		},
		func() error {
			j, err := eng.Submit(ctx, trivial)
			if err != nil {
				return err
			}
			return j.Wait()
		},
		func() error {
			j, err := sched.Submit(ctx, trivial)
			if err != nil {
				return err
			}
			return j.Wait()
		},
	}
	lat := make([][]float64, len(rungs)+1)
	for rep := 0; rep < ladderReps; rep++ {
		for i, f := range rungs {
			t0 := time.Now()
			err := f()
			res.count(err)
			if err == nil {
				lat[i] = append(lat[i], float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}

	srv, _, err := startServer()
	if err != nil {
		return nil, err
	}
	due := poissonSchedule(a.seed, ladderRate, ladderSeconds)
	reqs := make([]request, len(due))
	for i := range reqs {
		reqs[i] = request{"fib", 1, 1}
	}
	for _, rep := range loadgen(srv.base, due, reqs, runtime.NumCPU()) {
		res.count(rep.err)
		res.Samples["late_ms"] = append(res.Samples["late_ms"], rep.late)
		if rep.err == nil {
			lat[3] = append(lat[3], rep.self*1e3)
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	out := make([]float64, len(lat))
	for i, xs := range lat {
		if len(xs) == 0 {
			return nil, fmt.Errorf("ladder rung %d: no successful jobs", i)
		}
		out[i] = median(xs)
	}
	return out, nil
}
