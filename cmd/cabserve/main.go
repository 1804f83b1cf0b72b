// Command cabserve demonstrates the multi-job subsystem as a service: one
// shared cab.Scheduler behind an HTTP front end, with every request
// submitted as an independent job. Concurrent requests interleave on the
// squad-structured worker pool; a client that disconnects cancels its job
// (the request context is the job context); a full admission queue maps to
// 503 Service Unavailable; SIGINT drains in-flight jobs before exit.
//
// Under overload the server degrades gracefully instead of queueing
// without bound: a background shedder watches the windowed p95 job
// queue-wait (see shed.go) and, past the -shed-target, refuses new work
// submissions with 503 + Retry-After before they enter the queue.
//
// Usage:
//
//	cabserve [-addr :8080] [-queue 64] [-reject]
//	         [-shed-target 100ms] [-shed-interval 250ms]
//	         [-profile=true] [-hwc=true] [-sockets M] [-cores N]
//
// Endpoints:
//
//	GET /fib?n=30       parallel Fibonacci (fork-join tree, serial cutoff)
//	GET /matmul?n=128   parallel n x n matrix multiply, returns a checksum
//	GET /nqueens?n=10   parallel N-queens solution count
//	GET /sort?n=100000  data-parallel sample sort of n keys, returns a checksum
//	GET /join?n=100000  partitioned hash join (n probes vs n/2 build tuples),
//	                    returns the matched payload sum
//	GET /statz          scheduler + job-service counters (JSON)
//	GET /flowz          the scheduler X-ray profile (JSON): per-worker and
//	                    per-squad time-in-state, the squad x squad
//	                    steal-flow matrix, hardware counters when attached;
//	                    cabtop polls this
//	GET /healthz        liveness: 200 unless the watchdog sees wedged workers
//	GET /readyz         readiness: 200 unless draining or shedding load
//	GET /dumpz          the scheduler's DumpState diagnostic (plain text)
//	GET /metricz        Prometheus text exposition: counters, per-squad
//	                    breakdowns, p50/p95/p99 job latency histograms
//	GET /tracez?ms=500  arm event tracing for a window and stream the
//	                    recorded Chrome trace-viewer JSON back
//	GET /debug/pprof/   standard net/http/pprof profiles
//
// Work endpoints return JSON: the job ID, the result, wall-clock time and
// the job's scheduler events (spawns, steals, migrations) — the per-job
// accounting the runtime keeps for each submission.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cab"
	"cab/internal/workloads"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		queue        = flag.Int("queue", 64, "job admission queue depth")
		reject       = flag.Bool("reject", false, "reject submissions when the queue is full (default: block)")
		shedTarget   = flag.Duration("shed-target", 100*time.Millisecond, "shed new work when windowed p95 queue wait exceeds this (0 disables)")
		shedInterval = flag.Duration("shed-interval", 250*time.Millisecond, "shedding decision window")
		profile      = flag.Bool("profile", true, "arm time-in-state accounting for /flowz (a few ns per state transition; the steal-flow matrix always counts)")
		hwcFlag      = flag.Bool("hwc", true, "attach per-thread hardware perf counters where the host allows")
		sockets      = flag.Int("sockets", 0, "override the machine model's socket count (0 = detect)")
		cores        = flag.Int("cores", 0, "override cores per socket (0 = detect)")
	)
	flag.Parse()

	policy := cab.BlockWhenFull
	if *reject {
		policy = cab.RejectWhenFull
	}
	var machine cab.Machine // zero value = DetectMachine
	if *sockets > 0 || *cores > 0 {
		machine = cab.DetectMachine()
		if *sockets > 0 {
			machine.Sockets = *sockets
		}
		if *cores > 0 {
			machine.CoresPerSocket = *cores
		}
	}
	sched, err := cab.New(cab.Config{
		Machine:    machine,
		QueueDepth: *queue, OnFull: policy,
		Profile: *profile, HWC: *hwcFlag,
		// Watchdog diagnostics (stalled workers, overdue jobs) go to the
		// server log; thresholds are the defaults (250ms / 1s).
		Watchdog: cab.WatchdogConfig{Output: os.Stderr},
	})
	if err != nil {
		log.Fatalf("cabserve: %v", err)
	}
	sv := newServer(sched, *shedTarget, *shedInterval)

	srv := &http.Server{
		Addr:    *addr,
		Handler: sv.routes(),
		// A slowloris client must not hold a connection (and its worker
		// goroutine) forever: bound every phase of the exchange. The write
		// timeout still leaves room for the longest work endpoints and a
		// full /tracez window.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("cabserve: shutting down (draining in-flight jobs)")
		sv.draining.Store(true) // /readyz flips before the listener closes
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // stop accepting, finish open requests
		sv.shed.close()
		sched.Close() // drain admitted jobs, stop workers
	}()

	log.Printf("cabserve: listening on %s (BL %d, queue %d, reject=%v, shed-target %v)",
		*addr, sched.BoundaryLevel(), *queue, *reject, *shedTarget)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("cabserve: %v", err)
	}
	<-done
}

// maxTraceWindow caps how long a single /tracez request may keep tracing
// armed; longer windows just overwrite the ring buffers anyway.
const maxTraceWindow = 10 * time.Second

// server bundles the shared scheduler with the service-level state the
// handlers consult: the overload shedder and the draining flag /readyz
// reports during shutdown.
type server struct {
	sched    *cab.Scheduler
	shed     *shedder // nil when shedding is disabled
	draining atomic.Bool
}

// newServer wires the scheduler to a shedder (target <= 0 disables it).
func newServer(sched *cab.Scheduler, shedTarget, shedInterval time.Duration) *server {
	return &server{sched: sched, shed: newShedder(sched, shedTarget, shedInterval)}
}

// routes builds the full routing table. Factored out of main so tests can
// drive the exact production handlers through httptest without binding a
// socket.
func (sv *server) routes() *http.ServeMux {
	sched := sv.sched
	mux := http.NewServeMux()
	mux.HandleFunc("/fib", sv.handler(1, 45, fibJob))
	mux.HandleFunc("/matmul", sv.handler(1, 1024, matmulJob))
	mux.HandleFunc("/nqueens", sv.handler(1, 14, nqueensJob))
	mux.HandleFunc("/sort", sv.handler(256, 1<<21, sortJob))
	mux.HandleFunc("/join", sv.handler(256, 1<<21, joinJob))
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"scheduler": sched.Stats(),
			"squads":    sched.SquadStats(),
			"service":   sched.ServiceStats(),
			"health":    sched.Health(),
		})
	})
	mux.HandleFunc("/flowz", func(w http.ResponseWriter, r *http.Request) {
		// The full X-ray snapshot. Cumulative since start: pollers (cabtop)
		// diff consecutive snapshots to window an interval.
		writeJSON(w, http.StatusOK, sched.Profile())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process serves and the worker pool is intact — no
		// wedged workers the supervisor has not yet replaced, no squads
		// quarantined after repeated deaths. Overload does NOT fail
		// liveness — a shedding server is degraded, not dead (that is
		// /readyz's distinction).
		h := sched.Health()
		switch {
		case h.StalledWorkers > 0:
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "stalled", "stalled_workers": h.StalledWorkers,
			})
		case h.QuarantinedSquads > 0:
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "degraded", "quarantined_squads": h.QuarantinedSquads,
				"worker_deaths": h.WorkerDeaths,
			})
		default:
			writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
		}
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: route new traffic here only if the server is neither
		// draining for shutdown nor shedding under overload, and the pool
		// is at full strength. A stalled or quarantined pool keeps serving
		// admitted work but should stop attracting new traffic until the
		// supervisor heals it.
		h := sched.Health()
		switch {
		case sv.draining.Load():
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		case sv.shed.shedding():
			w.Header().Set("Retry-After", strconv.FormatInt(sv.shed.retryAfterSeconds(), 10))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "shedding", "queue_wait_p95_ns": sv.shed.lastP95.Load(),
			})
		case h.StalledWorkers > 0 || h.QuarantinedSquads > 0:
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "degraded", "stalled_workers": h.StalledWorkers,
				"quarantined_squads": h.QuarantinedSquads,
			})
		default:
			writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		}
	})
	mux.HandleFunc("/dumpz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		sched.DumpState(w)
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sched.WritePrometheus(w)
		if sv.shed != nil {
			fmt.Fprintf(w, "# HELP cab_shed_total Requests refused by overload shedding.\n# TYPE cab_shed_total counter\ncab_shed_total %d\n",
				sv.shed.shedTotal.Load())
			shedding := 0
			if sv.shed.shedding() {
				shedding = 1
			}
			fmt.Fprintf(w, "# HELP cab_shedding Whether overload shedding is active.\n# TYPE cab_shedding gauge\ncab_shedding %d\n", shedding)
		}
	})

	// One trace window at a time: a concurrent /tracez would disarm the
	// first requester's window mid-collection.
	var traceMu sync.Mutex
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		window := 500 * time.Millisecond
		if q := r.URL.Query().Get("ms"); q != "" {
			ms, err := strconv.Atoi(q)
			if err != nil || ms < 1 {
				writeJSON(w, http.StatusBadRequest, map[string]any{
					"error": "want ms as a positive integer",
				})
				return
			}
			window = time.Duration(ms) * time.Millisecond
			if window > maxTraceWindow {
				window = maxTraceWindow
			}
		}
		if !traceMu.TryLock() {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": "a trace window is already in progress",
			})
			return
		}
		defer traceMu.Unlock()
		sched.StartTrace()
		select {
		case <-time.After(window):
		case <-r.Context().Done():
			// Client gone: still StopTrace below so tracing disarms.
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="cab-trace.json"`)
		if err := sched.StopTrace(w); err != nil {
			log.Printf("cabserve: /tracez: %v", err)
		}
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// jobFunc builds the task body for one request and returns where to read
// the result once the job has drained.
type jobFunc func(n int) (cab.TaskFunc, *atomic.Int64)

// handler submits one job per request, bounded to [min, max], governed by
// the request context so client disconnects cancel the job. When the
// shedder reports overload the request is refused before it touches the
// admission queue — 503 with Retry-After — so queued jobs keep draining.
func (sv *server) handler(min, max int, mk jobFunc) http.HandlerFunc {
	sched := sv.sched
	return func(w http.ResponseWriter, r *http.Request) {
		if sv.shed.shedding() {
			sv.shed.shedTotal.Add(1)
			w.Header().Set("Retry-After", strconv.FormatInt(sv.shed.retryAfterSeconds(), 10))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": "overloaded: queue wait above target, try again later",
			})
			return
		}
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil || n < min || n > max {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("want n in [%d, %d]", min, max),
			})
			return
		}
		fn, result := mk(n)
		job, err := sched.Submit(r.Context(), fn)
		if err != nil {
			writeJSON(w, submitStatus(err), map[string]any{"error": err.Error()})
			return
		}
		if err := job.Wait(); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"job": job.ID(), "error": err.Error(),
			})
			return
		}
		st := job.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"job":     st.ID,
			"n":       n,
			"result":  result.Load(),
			"wall_ms": float64(st.Wall.Microseconds()) / 1000,
			"stats": map[string]int64{
				"spawns":     st.Spawns,
				"steals":     st.Steals,
				"migrations": st.Migrations,
				"helps":      st.Helps,
			},
		})
	}
}

// submitStatus maps Submit errors to HTTP: overload and shutdown are 503
// (retryable elsewhere), a dead request context is the client's 499-alike.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, cab.ErrQueueFull), errors.Is(err, cab.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// fibJob computes fib(n) as a fork-join tree with a serial cutoff — the
// classic work-stealing benchmark shape.
func fibJob(n int) (cab.TaskFunc, *atomic.Int64) {
	var out atomic.Int64
	var fib func(n int, dst *atomic.Int64) cab.TaskFunc
	fib = func(n int, dst *atomic.Int64) cab.TaskFunc {
		return func(t cab.Task) {
			if n < 16 {
				dst.Add(serialFib(n))
				return
			}
			t.Spawn(fib(n-1, dst))
			t.Spawn(fib(n-2, dst))
			t.Sync()
		}
	}
	return fib(n, &out), &out
}

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

// matmulJob multiplies two deterministic n x n matrices, one spawned task
// per row band, and reports a checksum of the product.
func matmulJob(n int) (cab.TaskFunc, *atomic.Int64) {
	var out atomic.Int64
	root := func(t cab.Task) {
		a := make([]int64, n*n)
		b := make([]int64, n*n)
		c := make([]int64, n*n)
		for i := range a {
			a[i] = int64(i%7) - 3
			b[i] = int64(i%5) - 2
		}
		const band = 16
		for lo := 0; lo < n; lo += band {
			lo := lo
			hi := lo + band
			if hi > n {
				hi = n
			}
			t.Spawn(func(cab.Task) {
				for i := lo; i < hi; i++ {
					for k := 0; k < n; k++ {
						aik := a[i*n+k]
						for j := 0; j < n; j++ {
							c[i*n+j] += aik * b[k*n+j]
						}
					}
				}
			})
		}
		t.Sync()
		var sum int64
		for _, v := range c {
			sum += v
		}
		out.Store(sum)
	}
	return root, &out
}

// sortJob runs the data-parallel sample sort (internal/workloads, built
// on cab.ParallelFor's underlying loop machinery) over n deterministic
// keys and reports the checksum of the sorted output. A verification
// failure panics, surfacing from Wait as the job's error.
func sortJob(n int) (cab.TaskFunc, *atomic.Int64) {
	var out atomic.Int64
	s := workloads.NewSamplesort(n)
	sorter := s.Root()
	root := func(t cab.Task) {
		sorter(t)
		if err := s.Verify(); err != nil {
			panic(err)
		}
		var sum int64
		for _, v := range s.Sorted() {
			sum += v
		}
		out.Store(sum)
	}
	return root, &out
}

// joinJob runs the partitioned hash join with squad-affine placement:
// n probe tuples against n/2 build tuples over 32 partitions, reporting
// the matched payload sum.
func joinJob(n int) (cab.TaskFunc, *atomic.Int64) {
	var out atomic.Int64
	h := workloads.NewHashJoin(n/2, n, 32, workloads.JoinAffine)
	joiner := h.Root()
	root := func(t cab.Task) {
		joiner(t)
		if err := h.Verify(); err != nil {
			panic(err)
		}
		out.Store(h.Result())
	}
	return root, &out
}

// nqueensJob counts N-queens solutions, fanning out one task per
// first-row placement and solving serially below.
func nqueensJob(n int) (cab.TaskFunc, *atomic.Int64) {
	var out atomic.Int64
	root := func(t cab.Task) {
		for col := 0; col < n; col++ {
			col := col
			bit := uint32(1) << col
			t.Spawn(func(cab.Task) {
				out.Add(countQueens(n, 1, bit, bit<<1, bit>>1))
			})
		}
		t.Sync()
	}
	return root, &out
}

// countQueens solves rows [row, n) given the occupied columns and the
// left/right diagonal masks, bit-twiddling style.
func countQueens(n, row int, cols, left, right uint32) int64 {
	if row == n {
		return 1
	}
	var count int64
	full := uint32(1)<<n - 1
	for avail := full &^ (cols | left | right); avail != 0; {
		bit := avail & -avail
		avail &^= bit
		count += countQueens(n, row+1, cols|bit, (left|bit)<<1, (right|bit)>>1)
	}
	return count
}
