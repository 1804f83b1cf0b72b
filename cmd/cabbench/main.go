// Command cabbench regenerates the paper's tables and figures on the
// simulated Opteron 8380 testbed.
//
// Usage:
//
//	cabbench [-exp id[,id...]] [-scale f] [-seed n] [-verify] [-list] [-rtbench] [-par] [-chaos] [-profile]
//
// With no -exp it runs every experiment in presentation order. Experiment
// IDs follow the paper: tab3, fig4, tab4, fig5, fig6, fig7, fig8, plus
// tier, flat, share, bounds and abl for the claims outside numbered
// artifacts.
//
// -rtbench instead runs the real-runtime fast-path microbenchmarks
// (spawn/sync, steal throughput, inter-socket pool, job throughput; see
// internal/rtbench) and exits — the numbers EXPERIMENTS.md's "Runtime fast
// path" section and scripts/bench.sh track.
//
// -loadgen runs the multi-job load generator: -submitters goroutines each
// Submit -jobs fork-join jobs of -width leaves through one shared
// Scheduler and wait on the futures; it reports jobs/sec and the service
// counters, the end-to-end figure for the jobs subsystem.
//
// -par runs the data-parallel subsystem smoke: against one live Scheduler
// at BL 1 it executes a cab.ParallelFor saxpy, a cab.Reduce sum checked
// against the closed form, the data-parallel sample sort and the
// squad-affine hash join (both verified against serial references), and
// prints timings plus scheduler counters as JSON, exiting 1 on any
// mismatch — the CI smoke for internal/par and the data-parallel
// workloads.
//
// -chaos runs the fault-tolerance smoke: against one live Scheduler with a
// fast watchdog it freezes a worker mid-task (asserting the watchdog flags
// it, DumpState names it, and the job drains after thaw), forces a panic
// in an inter-socket-tier task (asserting it surfaces from Wait and the
// squad stays adoptable), and submits a deadline-doomed job (asserting
// ErrDeadlineExceeded). It prints the resulting health counters as JSON to
// stdout and exits 1 if any scenario misbehaves — the CI smoke for the
// robustness layer.
//
// -profile runs the scheduler X-ray smoke: one fib job on a live 2x2
// squad machine at BL 1 with time-in-state accounting (and hardware
// counters where the host permits) armed from construction. It prints
// the profile roll-up as JSON and exits 1 unless the books balance:
// non-zero exec time, the flow matrix's hits and frames equal to the
// scheduler's steal counters, and the matrix's deque hits and
// cross-squad frames equal to the job's own Steals and Migrations — the
// CI gate for the profiling layer.
//
// -trace out.json runs fib(-tracefib) on the real runtime with event
// tracing armed on a 2-socket squad machine (BL 2) and writes the window
// as Chrome trace-viewer JSON — load it in chrome://tracing or
// https://ui.perfetto.dev to see workers as lanes grouped by socket. It
// composes with -rtbench: the traced run happens first, then the
// microbenchmarks.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cab"
	"cab/internal/chaos"
	"cab/internal/exp"
	"cab/internal/rtbench"
	"cab/internal/workloads"
)

func main() {
	var (
		ids    = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale  = flag.Float64("scale", 1.0, "input scale; 1.0 = the paper's sizes")
		seed   = flag.Uint64("seed", 42, "simulation seed")
		verify = flag.Bool("verify", false, "verify workload results against serial references")
		list   = flag.Bool("list", false, "list experiments and exit")
		rtb    = flag.Bool("rtbench", false, "run the real-runtime fast-path microbenchmarks and exit")

		loadgen    = flag.Bool("loadgen", false, "run the multi-job throughput load generator and exit")
		submitters = flag.Int("submitters", 64, "loadgen: concurrent submitter goroutines")
		jobs       = flag.Int("jobs", 200, "loadgen: jobs per submitter")
		width      = flag.Int("width", 8, "loadgen: leaves spawned per job")
		queue      = flag.Int("queue", 256, "loadgen: admission queue depth")

		trace    = flag.String("trace", "", "write a Chrome trace of a traced fib run to this file")
		tracefib = flag.Int("tracefib", 30, "trace: the fib argument of the traced run")

		chaosSmoke = flag.Bool("chaos", false, "run the fault-injection smoke scenarios and exit")
		parSmoke   = flag.Bool("par", false, "run the data-parallel subsystem smoke (ParallelFor/Reduce/samplesort/hash join) and exit")
		profSmoke  = flag.Bool("profile", false, "run the scheduler X-ray smoke (time-in-state, steal flow, hwc) and exit")

		soak        = flag.Bool("soak", false, "run the randomized chaos-soak harness and exit")
		soakSeconds = flag.Int("seconds", 30, "soak: wall-clock duration in seconds")
	)
	flag.Parse()

	if *soak {
		runSoak(*soakSeconds, *seed)
		return
	}

	if *profSmoke {
		runProfile()
		return
	}

	if *parSmoke {
		runPar()
		return
	}

	if *chaosSmoke {
		runChaos()
		return
	}

	if *trace != "" {
		runTrace(*trace, *tracefib)
	}
	if *rtb {
		runRTBench()
		return
	}
	if *trace != "" {
		return
	}
	if *loadgen {
		runLoadgen(*submitters, *jobs, *width, *queue)
		return
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-6s %s\n       paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var selected []exp.Experiment
	if *ids == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "cabbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	params := exp.Params{Scale: *scale, Seed: *seed, Verify: *verify}
	for _, e := range selected {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		fmt.Printf("   paper: %s\n", e.Paper)
		start := time.Now()
		res, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cabbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range res.Tables {
			fmt.Println()
			fmt.Print(t.String())
		}
		fmt.Printf("\n   key values:\n")
		for _, name := range res.SortedValueNames() {
			fmt.Printf("     %-28s %.4g\n", name, res.Values[name])
		}
		fmt.Printf("   (%s, scale %.2g)\n\n", time.Since(start).Round(time.Millisecond), *scale)
	}
}

// runTrace runs fib(n) with event tracing armed on a 2-socket squad
// machine at BL 2 — deep enough that the top of the tree distributes
// across squads while the sub-trees stay cache-confined — and writes the
// trace window to path as Chrome trace-viewer JSON.
func runTrace(path string, n int) {
	sched, err := cab.New(cab.Config{
		Machine:       cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		BoundaryLevel: 2,
		Trace:         true,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cabbench: %v\n", err)
		os.Exit(1)
	}
	defer sched.Close()
	var fib func(n int) cab.TaskFunc
	fib = func(n int) cab.TaskFunc {
		return func(t cab.Task) {
			if n < 16 {
				serialFib(n)
				return
			}
			t.Spawn(fib(n - 1))
			t.Spawn(fib(n - 2))
			t.Sync()
		}
	}
	start := time.Now()
	if err := sched.Run(fib(n)); err != nil {
		fmt.Fprintf(os.Stderr, "cabbench: trace run: %v\n", err)
		os.Exit(1)
	}
	el := time.Since(start)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cabbench: %v\n", err)
		os.Exit(1)
	}
	if err := sched.StopTrace(f); err != nil {
		fmt.Fprintf(os.Stderr, "cabbench: writing trace: %v\n", err)
		os.Exit(1)
	}
	info, _ := f.Stat()
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cabbench: %v\n", err)
		os.Exit(1)
	}
	st := sched.Stats()
	fmt.Printf("== trace: fib(%d) on 2x2 squads, BL %d, %s\n", n, sched.BoundaryLevel(), el.Round(time.Millisecond))
	fmt.Printf("   %s: %d bytes (load in chrome://tracing or ui.perfetto.dev)\n", path, info.Size())
	fmt.Printf("   spawns %d, steals intra %d / inter %d, helps %d\n",
		st.Spawns, st.StealsIntra, st.StealsInter, st.Helps)
}

// serialFib is the sequential cutoff of the traced fib run.
func serialFib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	a, b := int64(0), int64(1)
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// runRTBench executes the internal/rtbench bodies through testing.Benchmark
// so cabbench reports the same numbers as `go test -bench` without needing
// the test binary.
func runRTBench() {
	fmt.Println("== rt: real-runtime fast-path microbenchmarks")
	for _, mb := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"SpawnSync", rtbench.SpawnSync},
		{"SpawnSyncTraced", rtbench.SpawnSyncTraced},
		{"SpawnSyncFaultHook", rtbench.SpawnSyncFaultHook},
		{"SpawnSyncSupervised", rtbench.SpawnSyncSupervised},
		{"StealThroughput", rtbench.StealThroughput},
		{"StealBatchTiered", rtbench.StealBatchTiered},
		{"InterPool", rtbench.InterPool},
		{"JobThroughput", rtbench.JobThroughput},
		{"JobSubmit", rtbench.JobSubmit},
		{"SubmitBatchLatency", rtbench.SubmitBatchLatency},
		{"ParallelFor", rtbench.ParallelFor},
		{"ParallelForFine", rtbench.ParallelForFine},
		{"ParallelForCoarse", rtbench.ParallelForCoarse},
		{"Samplesort", rtbench.Samplesort},
		{"HashJoin", rtbench.HashJoin},
	} {
		res := testing.Benchmark(mb.fn)
		fmt.Printf("   %-16s %10d iters %12.1f ns/op %8d B/op %6d allocs/op",
			mb.name, res.N, float64(res.T.Nanoseconds())/float64(res.N),
			res.AllocedBytesPerOp(), res.AllocsPerOp())
		for _, unit := range []string{"steals/op", "tasks/op", "jobs/sec",
			"intersteals/op", "tasks/steal", "jobs/op",
			"ns/elem", "speedup_vs_sortslice", "keys/sec", "tuples/sec"} {
			if v, ok := res.Extra[unit]; ok {
				fmt.Printf(" %10.1f %s", v, unit)
			}
		}
		fmt.Println()
	}
}

// parFail prints a data-parallel smoke failure and exits non-zero.
func parFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cabbench: par: "+format+"\n", args...)
	os.Exit(1)
}

// runPar is the data-parallel subsystem smoke: against one Scheduler on a
// 2x2 squad machine at BL 1 it runs a cab.ParallelFor saxpy, a cab.Reduce
// sum (checked against the closed form), the sample sort and the
// squad-affine hash join (both self-verifying), then prints the timings
// and scheduler counters as JSON — the CI gate for the subsystem.
func runPar() {
	sched, err := cab.New(cab.Config{
		Machine:       cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		BoundaryLevel: 1,
	})
	if err != nil {
		parFail("%v", err)
	}
	defer sched.Close()
	ctx := context.Background()

	const n = 1 << 20
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	t0 := time.Now()
	if err := sched.ParallelFor(ctx, 0, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = 2*data[i] + 1
		}
	}, cab.WithElemBytes(8)); err != nil {
		parFail("ParallelFor: %v", err)
	}
	forMS := float64(time.Since(t0).Microseconds()) / 1000

	t0 = time.Now()
	sum, err := cab.Reduce(sched, ctx, 0, n,
		func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			return s
		},
		func(a, b float64) float64 { return a + b },
		cab.WithElemBytes(8))
	if err != nil {
		parFail("Reduce: %v", err)
	}
	reduceMS := float64(time.Since(t0).Microseconds()) / 1000
	// data[i] = 2i+1, so the sum is n^2 exactly (float64-exact at this n).
	if want := float64(n) * float64(n); sum != want {
		parFail("Reduce sum = %v, want %v", sum, want)
	}

	const sortN = 200_000
	s := workloads.NewSamplesort(sortN)
	t0 = time.Now()
	if err := sched.Run(s.Root()); err != nil {
		parFail("samplesort: %v", err)
	}
	sortMS := float64(time.Since(t0).Microseconds()) / 1000
	if err := s.Verify(); err != nil {
		parFail("samplesort: %v", err)
	}

	h := workloads.NewHashJoin(100_000, 200_000, 32, workloads.JoinAffine)
	t0 = time.Now()
	if err := sched.Run(h.Root()); err != nil {
		parFail("hash join: %v", err)
	}
	joinMS := float64(time.Since(t0).Microseconds()) / 1000
	if err := h.Verify(); err != nil {
		parFail("hash join: %v", err)
	}

	st := sched.Stats()
	out := struct {
		ForN        int     `json:"parallel_for_n"`
		ForMS       float64 `json:"parallel_for_ms"`
		ReduceMS    float64 `json:"reduce_ms"`
		ReduceSum   float64 `json:"reduce_sum"`
		SortN       int     `json:"sort_n"`
		SortMS      float64 `json:"sort_ms"`
		JoinProbes  int     `json:"join_probes"`
		JoinMS      float64 `json:"join_ms"`
		JoinResult  int64   `json:"join_result"`
		Spawns      int64   `json:"spawns"`
		StealsIntra int64   `json:"steals_intra"`
		StealsInter int64   `json:"steals_inter"`
		OK          bool    `json:"ok"`
	}{n, forMS, reduceMS, sum, sortN, sortMS, h.NProbe, joinMS, h.Result(), st.Spawns, st.StealsIntra, st.StealsInter, true}
	if out.Spawns == 0 || out.JoinResult <= 0 {
		parFail("suspicious counters: %+v", out)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		parFail("%v", err)
	}
}

// profFail prints a profile smoke failure and exits non-zero.
func profFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cabbench: profile: "+format+"\n", args...)
	os.Exit(1)
}

// runProfile is the scheduler X-ray smoke (see the -profile doc above).
// Once the only job is done no frame is left to steal, so hits and frames
// stop moving and can be compared across reads; idle workers keep
// probing, so probes cannot. Emits the roll-up as JSON on stdout; any
// imbalance exits 1.
func runProfile() {
	sched, err := cab.New(cab.Config{
		Machine:       cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		BoundaryLevel: 1,
		Profile:       true,
		HWC:           true,
	})
	if err != nil {
		profFail("%v", err)
	}
	defer sched.Close()

	// Fork-join fib with yielding leaves: the yields give thieves a
	// chance even when GOMAXPROCS or the core count is small, so the flow
	// matrix is populated on any host.
	var fib func(n int) cab.TaskFunc
	fib = func(n int) cab.TaskFunc {
		return func(t cab.Task) {
			if n < 2 {
				runtime.Gosched()
				return
			}
			t.Spawn(fib(n - 1))
			t.Spawn(fib(n - 2))
			t.Sync()
		}
	}
	start := time.Now()
	job, err := sched.Submit(context.Background(), fib(22))
	if err != nil {
		profFail("fib submit: %v", err)
	}
	if err := job.Wait(); err != nil {
		profFail("fib run: %v", err)
	}
	wallMS := float64(time.Since(start).Microseconds()) / 1000
	js := job.Stats()

	p := sched.Profile()
	st := sched.Stats()
	if !p.Enabled {
		profFail("profiling not armed despite Config.Profile")
	}

	var times cab.StateTimes
	squadExecMS := make([]float64, len(p.Squads))
	for i, sq := range p.Squads {
		times.Exec += sq.Times.Exec
		times.ScanIntra += sq.Times.ScanIntra
		times.ScanInter += sq.Times.ScanInter
		times.Park += sq.Times.Park
		times.AdmitWait += sq.Times.AdmitWait
		squadExecMS[i] = float64(sq.Times.Exec.Microseconds()) / 1000
	}
	var probes, hits, frames, diagHits, offFrames int64
	for i, row := range p.Flow {
		for j, c := range row {
			probes += c.Probes
			hits += c.Hits
			frames += c.Frames
			if i == j {
				diagHits += c.Hits
			} else {
				offFrames += c.Frames
			}
		}
	}

	out := struct {
		FibN        int       `json:"fib_n"`
		WallMS      float64   `json:"wall_ms"`
		ExecMS      float64   `json:"exec_ms"`
		ScanIntraMS float64   `json:"scan_intra_ms"`
		ScanInterMS float64   `json:"scan_inter_ms"`
		ParkMS      float64   `json:"park_ms"`
		SquadExecMS []float64 `json:"squad_exec_ms"`
		FlowProbes  int64     `json:"flow_probes"`
		FlowHits    int64     `json:"flow_hits"`
		FlowFrames  int64     `json:"flow_frames"`
		StealsIntra int64     `json:"steals_intra"`
		StealsInter int64     `json:"steals_inter"`
		JobSteals   int64     `json:"job_steals"`
		JobMigrate  int64     `json:"job_migrations"`
		HWC         bool      `json:"hwc_available"`
		OK          bool      `json:"ok"`
	}{
		22, wallMS,
		float64(times.Exec.Microseconds()) / 1000,
		float64(times.ScanIntra.Microseconds()) / 1000,
		float64(times.ScanInter.Microseconds()) / 1000,
		float64(times.Park.Microseconds()) / 1000,
		squadExecMS, probes, hits, frames,
		st.StealsIntra, st.StealsInter, js.Steals, js.Migrations,
		p.HWCAvailable, true,
	}
	if times.Exec <= 0 {
		profFail("no exec time accounted over a fib run: %+v", out)
	}
	if times.Total() <= 0 {
		profFail("total state time is zero: %+v", out)
	}
	if hits != st.StealsIntra+st.StealsInter {
		profFail("flow hits %d != StealsIntra %d + StealsInter %d",
			hits, st.StealsIntra, st.StealsInter)
	}
	if frames != st.StealsIntra+st.StealsInterTasks {
		profFail("flow frames %d != StealsIntra %d + StealsInterTasks %d",
			frames, st.StealsIntra, st.StealsInterTasks)
	}
	if js.Steals != diagHits || js.Migrations != offFrames {
		profFail("job steals %d / migrations %d != flow diagonal hits %d / off-diagonal frames %d",
			js.Steals, js.Migrations, diagHits, offFrames)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		profFail("%v", err)
	}
}

// chaosFail prints a smoke failure and exits non-zero.
func chaosFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cabbench: chaos: "+format+"\n", args...)
	os.Exit(1)
}

// runChaos is the fault-tolerance smoke test: frozen worker, forced
// inter-tier panic, and a doomed deadline, all against one Scheduler with
// a fast watchdog. It emits the final health counters as JSON on stdout
// and exits 1 on any deviation.
func runChaos() {
	inj := chaos.New(42)
	sched, err := cab.New(cab.Config{
		Machine:       cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		BoundaryLevel: 1,
		FaultHook:     inj.Hook,
		Watchdog: cab.WatchdogConfig{
			Interval: 5 * time.Millisecond, StallAfter: 25 * time.Millisecond,
			Output: os.Stderr,
		},
	})
	if err != nil {
		chaosFail("%v", err)
	}
	defer sched.Close()
	defer inj.UnfreezeAll() // never leave a frozen worker for Close to wait on

	// Scenario 1: freeze worker 1 mid-task-body. The root streams leaves
	// until the freeze is entered (a fixed fanout could drain on the other
	// workers), the watchdog must flag the stall, DumpState must name the
	// worker, and after the thaw the job drains cleanly.
	const frozenWorker = 1
	entered := inj.FreezeWorker(frozenWorker, cab.FaultExec)
	// Two-level stream: at BL 1 the level-1 branches are inter-tier (head
	// workers only), but their level-2 leaves are intra-tier and stealable
	// by every worker — including the one under the freeze gate.
	branch := func(p cab.Task) {
		for k := 0; k < 4; k++ {
			p.Spawn(func(cab.Task) { time.Sleep(20 * time.Microsecond) })
		}
		p.Sync()
	}
	j, err := sched.Submit(context.Background(), func(p cab.Task) {
		for i := 0; ; i++ {
			select {
			case <-entered:
				p.Sync()
				return
			default:
			}
			p.Spawn(branch)
			if i%8 == 7 {
				p.Sync()
			}
		}
	})
	if err != nil {
		chaosFail("freeze job submit: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		chaosFail("worker %d never hit the freeze gate", frozenWorker)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sched.Health().StalledWorkers == 0 {
		if time.Now().After(deadline) {
			chaosFail("watchdog never flagged the frozen worker")
		}
		time.Sleep(time.Millisecond)
	}
	var dump bytes.Buffer
	sched.DumpState(&dump)
	if want := fmt.Sprintf("worker %d", frozenWorker); !strings.Contains(dump.String(), want+" (") ||
		!strings.Contains(dump.String(), "STALLED") {
		chaosFail("DumpState does not name the frozen worker:\n%s", dump.String())
	}
	inj.Unfreeze(frozenWorker)
	if err := j.Wait(); err != nil {
		chaosFail("frozen job after thaw: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for sched.Health().StalledWorkers != 0 {
		if time.Now().After(deadline) {
			chaosFail("stall never recovered after thaw")
		}
		time.Sleep(time.Millisecond)
	}

	// Scenario 2: one-shot forced panic in an inter-socket-tier task
	// (level 1 at BL 1). It must surface from Wait as the injected value,
	// and the next job must run clean — the squad's busy state came back.
	inj.PanicNext(chaos.Match{Worker: chaos.Any, Level: 1, Tier: 1})
	j, err = sched.Submit(context.Background(), func(p cab.Task) {
		for i := 0; i < 8; i++ {
			p.Spawn(func(cab.Task) {})
		}
		p.Sync()
	})
	if err != nil {
		chaosFail("panic job submit: %v", err)
	}
	werr := j.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "chaos: injected panic") {
		chaosFail("panic job Wait = %v, want the injected panic", werr)
	}
	if err := sched.Run(func(p cab.Task) {
		for i := 0; i < 8; i++ {
			p.Spawn(func(cab.Task) {})
		}
		p.Sync()
	}); err != nil {
		chaosFail("job after injected panic: %v", err)
	}

	// Scenario 3: a 20ms deadline on an unbounded DAG must come back as
	// ErrDeadlineExceeded, promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var spin func(p cab.Task)
	spin = func(p cab.Task) {
		p.Spawn(spin)
		p.Sync()
	}
	j, err = sched.Submit(ctx, spin)
	if err != nil {
		chaosFail("deadline job submit: %v", err)
	}
	if werr := j.Wait(); !errors.Is(werr, cab.ErrDeadlineExceeded) {
		chaosFail("deadline job Wait = %v, want ErrDeadlineExceeded", werr)
	}

	h := sched.Health()
	st := inj.Stats()
	out := struct {
		Stalls          int64 `json:"watchdog_stalls"`
		StallsRecovered int64 `json:"watchdog_stalls_recovered"`
		DeadlineCancels int64 `json:"watchdog_deadline_cancels"`
		Freezes         int64 `json:"injected_freezes"`
		Panics          int64 `json:"injected_panics"`
		OK              bool  `json:"ok"`
	}{h.Stalls, h.StallsRecovered, h.DeadlineCancels, st.Freezes, st.Panics, true}
	if out.Stalls < 1 || out.StallsRecovered < 1 || out.Freezes < 1 || out.Panics != 1 {
		chaosFail("watchdog/injector counters not exercised: %+v", out)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		chaosFail("%v", err)
	}
}

// runLoadgen drives the jobs subsystem end to end through the public API:
// `submitters` goroutines each submit `jobs` fork-join jobs of `width`
// leaves and wait on the futures, all against one shared Scheduler.
func runLoadgen(submitters, jobs, width, queue int) {
	sched, err := cab.New(cab.Config{QueueDepth: queue})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cabbench: %v\n", err)
		os.Exit(1)
	}
	defer sched.Close()
	total := submitters * jobs
	fmt.Printf("== loadgen: %d submitters x %d jobs x %d leaves (queue %d, BL %d)\n",
		submitters, jobs, width, queue, sched.BoundaryLevel())
	body := func(p cab.Task) {
		for i := 0; i < width; i++ {
			p.Spawn(func(cab.Task) {})
		}
		p.Sync()
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				j, err := sched.Submit(context.Background(), body)
				if err != nil {
					errs <- err
					return
				}
				if err := j.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintf(os.Stderr, "cabbench: loadgen: %v\n", err)
		os.Exit(1)
	}
	el := time.Since(start)
	st := sched.ServiceStats()
	fmt.Printf("   %d jobs in %s: %.1f jobs/sec\n", total, el.Round(time.Millisecond), float64(total)/el.Seconds())
	fmt.Printf("   service: submitted %d, completed %d, rejected %d, cancelled %d\n",
		st.Submitted, st.Completed, st.Rejected, st.Cancelled)
}

// soakFail prints a soak failure and exits non-zero.
func soakFail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cabbench: soak: "+format+"\n", args...)
	os.Exit(1)
}

// soakLedger tracks one logical job through its retries: rootRuns counts
// actual root-body executions (the idempotency ledger), job is the future.
type soakLedger struct {
	rootRuns atomic.Int64
	job      *cab.Job
}

// runSoak is the randomized chaos-soak harness: a sustained mixed
// workload under a seed-deterministic chaos schedule — alternating waves
// freeze a worker past the supervisor's ReplaceAfter (stall-death,
// replacement, zombie thaw) or hard-kill one at its idle poll (exit-death)
// while every task body flakes with small probability into the retry
// layer. Between waves it asserts the self-healing invariants:
//
//   - no job lost: every future resolves within a generous timeout;
//   - no job double-completed: a successful job ran its root at least
//     once and never more often than its admitted attempts;
//   - Health converges back to zero stalled workers after each wave;
//   - quarantine never eats the last healthy squad.
//
// At drain it additionally requires every worker parked and, for runs of
// >= 30 seconds, the acceptance floors: >= 8 kill/freeze events and
// >= 100 injected task panics. Emits a JSON summary and exits 1 on any
// violation. Fully deterministic chaos schedule for a fixed -seed (the
// interleaving itself is real concurrency).
func runSoak(seconds int, seed uint64) {
	inj := chaos.New(seed)
	const flakeProb = 0.002
	inj.FlakeTasks(chaos.MatchAll, flakeProb)
	sched, err := cab.New(cab.Config{
		Machine:       cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		BoundaryLevel: 1,
		QueueDepth:    512,
		FaultHook:     inj.Hook,
		Watchdog: cab.WatchdogConfig{
			Interval: 5 * time.Millisecond, StallAfter: 25 * time.Millisecond,
			Output: os.Stderr,
		},
		Supervisor:  cab.SupervisorConfig{ReplaceAfter: 60 * time.Millisecond},
		Retry:       cab.RetryPolicy{Max: 3, Backoff: 2 * time.Millisecond, Jitter: true},
		RetryBudget: -1,
	})
	if err != nil {
		soakFail("%v", err)
	}
	defer sched.Close()
	defer inj.UnfreezeAll() // never leave a gate armed for Close to wait on

	const (
		workers     = 4
		jobsPerWave = 16
		branches    = 8
		leavesPer   = 8
		freezeHold  = 250 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(int64(seed)))
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)

	var (
		waves, freezes, kills int
		submitted             int
		succeeded, failed     int
	)

	submitWave := func() []*soakLedger {
		ledgers := make([]*soakLedger, 0, jobsPerWave)
		for i := 0; i < jobsPerWave; i++ {
			led := &soakLedger{}
			j, err := sched.Submit(context.Background(), func(p cab.Task) {
				led.rootRuns.Add(1)
				for b := 0; b < branches; b++ {
					p.Spawn(func(p cab.Task) {
						for l := 0; l < leavesPer; l++ {
							p.Spawn(func(cab.Task) { time.Sleep(10 * time.Microsecond) })
						}
						p.Sync()
					})
				}
				p.Sync()
			})
			if err != nil {
				soakFail("wave %d submit: %v", waves, err)
			}
			led.job = j
			ledgers = append(ledgers, led)
			submitted++
		}
		return ledgers
	}

	// checkLedgers is the lost/duplicated-job invariant: every future must
	// resolve (a timeout is a lost job), a success must have run its root,
	// and no job may have run its root more often than it was admitted.
	checkLedgers := func(ledgers []*soakLedger) {
		for i, led := range ledgers {
			select {
			case <-led.job.Done():
			case <-time.After(30 * time.Second):
				soakFail("wave %d job %d never resolved: lost", waves, i)
			}
			err := led.job.Wait()
			runs := led.rootRuns.Load()
			attempts := int64(led.job.Stats().Attempts)
			if runs > attempts {
				soakFail("wave %d job %d root ran %d times over %d attempts: duplicated",
					waves, i, runs, attempts)
			}
			if err == nil {
				if runs < 1 {
					soakFail("wave %d job %d succeeded without running: lost body", waves, i)
				}
				succeeded++
				continue
			}
			var tp *cab.TaskPanic
			if !errors.As(err, &tp) {
				soakFail("wave %d job %d settled with unexpected error: %v", waves, i, err)
			}
			failed++ // flaked through all attempts: settled, not lost
		}
	}

	waitHealthy := func(what string) {
		dl := time.Now().Add(10 * time.Second)
		for {
			h := sched.Health()
			if h.StalledWorkers == 0 {
				return
			}
			if time.Now().After(dl) {
				soakFail("wave %d: health never converged after %s: %d still stalled",
					waves, what, h.StalledWorkers)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for time.Now().Before(deadline) {
		waves++
		victim := rng.Intn(workers)
		if waves%2 == 0 {
			// Freeze wave: wedge the victim mid-task past ReplaceAfter. The
			// supervisor stall-replaces it; the thaw turns the old
			// incarnation into a zombie that drains its frame and exits.
			entered := inj.FreezeWorker(victim, cab.FaultExec)
			ledgers := submitWave()
			select {
			case <-entered:
				freezes++
				time.Sleep(freezeHold)
			case <-time.After(2 * time.Second):
				// Never took a task (e.g. everything drained elsewhere):
				// release the gate and move on, uncounted.
			}
			inj.Unfreeze(victim)
			checkLedgers(ledgers)
		} else {
			// Kill wave: hard-exit the victim at its next idle poll; the
			// supervisor exit-replaces it.
			killed := inj.KillWorker(victim)
			ledgers := submitWave()
			select {
			case <-killed:
				kills++
			case <-time.After(2 * time.Second):
				// Stays armed; a later poll may still fire it. Uncounted.
			}
			checkLedgers(ledgers)
		}
		waitHealthy("wave")
		if q := sched.ServiceStats().QuarantinedSquads; q > 1 {
			soakFail("wave %d: %d squads quarantined, last healthy squad must survive", waves, q)
		}
	}

	// Drain: every future already resolved, so the pool must go fully
	// idle — all workers parked (replacements included; a thawed zombie
	// exits rather than parks).
	parkedDL := time.Now().Add(10 * time.Second)
	for {
		var dump bytes.Buffer
		sched.DumpState(&dump)
		if strings.Count(dump.String(), ": parked beat=") == workers {
			break
		}
		if time.Now().After(parkedDL) {
			soakFail("workers never all parked at drain:\n%s", dump.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	es := sched.ServiceStats()
	ist := inj.Stats()
	if es.Completed != int64(submitted) {
		soakFail("service completed %d of %d submitted: jobs lost or double-counted",
			es.Completed, submitted)
	}
	out := struct {
		Seed        uint64  `json:"seed"`
		Seconds     float64 `json:"wall_seconds"`
		Waves       int     `json:"waves"`
		Jobs        int     `json:"jobs_submitted"`
		Succeeded   int     `json:"jobs_succeeded"`
		Exhausted   int     `json:"jobs_retry_exhausted"`
		Freezes     int     `json:"freeze_events"`
		Kills       int     `json:"kill_events"`
		TaskPanics  int64   `json:"injected_task_panics"`
		Retries     int64   `json:"retries"`
		RetriesExh  int64   `json:"retries_exhausted"`
		Deaths      int64   `json:"worker_deaths"`
		Quarantined int     `json:"quarantined_squads"`
		OK          bool    `json:"ok"`
	}{
		seed, time.Since(start).Seconds(), waves, submitted, succeeded, failed,
		freezes, kills, ist.Panics, es.Retries, es.RetriesExhausted,
		es.WorkerDeaths, es.QuarantinedSquads, true,
	}
	if succeeded+failed != submitted {
		soakFail("ledger mismatch: %d succeeded + %d failed != %d submitted",
			succeeded, failed, submitted)
	}
	if seconds >= 30 {
		if freezes+kills < 8 {
			soakFail("only %d kill/freeze events over %ds, want >= 8 (%+v)", freezes+kills, seconds, out)
		}
		if ist.Panics < 100 {
			soakFail("only %d injected task panics over %ds, want >= 100 (%+v)", ist.Panics, seconds, out)
		}
	} else if freezes+kills == 0 && seconds >= 5 {
		soakFail("no chaos events fired over %ds (%+v)", seconds, out)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		soakFail("%v", err)
	}
}
