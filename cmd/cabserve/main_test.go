// httptest coverage for the production mux: the work endpoints plus the
// observability surface (/metricz Prometheus exposition, /tracez Chrome
// JSON streaming, pprof wiring).
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cab"
	"cab/internal/chaos"
)

func testServer(t *testing.T) (*cab.Scheduler, *httptest.Server) {
	sched, sv, srv := testServerFull(t, 0)
	_ = sv
	return sched, srv
}

// testServerFull exposes the server struct so shed/readyz tests can drive
// the admission state machine directly. shedTarget <= 0 disables shedding;
// a positive target starts the shedder with an hour-long decision window,
// so only explicit observe calls change its state.
func testServerFull(t *testing.T, shedTarget time.Duration) (*cab.Scheduler, *server, *httptest.Server) {
	t.Helper()
	sched, err := cab.New(cab.Config{
		Machine: cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(sched, shedTarget, time.Hour)
	srv := httptest.NewServer(sv.routes())
	t.Cleanup(func() { srv.Close(); sv.shed.close(); sched.Close() })
	return sched, sv, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestFibEndpoint(t *testing.T) {
	_, srv := testServer(t)
	code, body := get(t, srv.URL+"/fib?n=20")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Result int64 `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Result != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", out.Result)
	}
}

func TestSortEndpoint(t *testing.T) {
	_, srv := testServer(t)
	code, body := get(t, srv.URL+"/sort?n=20000")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		N      int   `json:"n"`
		Result int64 `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	// The checksum is deterministic per n; the job verifies sortedness
	// itself (a failure would have surfaced as a 500), so assert the
	// endpoint round-trips the parameters and a non-trivial result.
	if out.N != 20000 || out.Result == 0 {
		t.Fatalf("sort response %+v", out)
	}
	if code, body := get(t, srv.URL+"/sort?n=1"); code != http.StatusBadRequest {
		t.Fatalf("undersized n: status %d: %s", code, body)
	}
}

func TestJoinEndpoint(t *testing.T) {
	_, srv := testServer(t)
	code, body := get(t, srv.URL+"/join?n=20000")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Result int64 `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	// The join verifies against its map-based reference inside the job;
	// a mismatch panics into a 500. ~half the probes match, so the
	// payload sum is positive.
	if out.Result <= 0 {
		t.Fatalf("join result = %d, want > 0", out.Result)
	}
	if code, body := get(t, srv.URL+"/join?n=0"); code != http.StatusBadRequest {
		t.Fatalf("undersized n: status %d: %s", code, body)
	}
}

func TestMetricz(t *testing.T) {
	_, srv := testServer(t)
	// Run a job first so the counters and histograms are non-zero.
	if code, body := get(t, srv.URL+"/fib?n=25"); code != http.StatusOK {
		t.Fatalf("warm-up job failed: %d %s", code, body)
	}
	code, body := get(t, srv.URL+"/metricz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE cab_spawns_total counter",
		`cab_squad_spawns_total{squad="0"}`,
		`cab_squad_spawns_total{squad="1"}`,
		"cab_jobs_submitted_total 1",
		"cab_jobs_completed_total 1",
		"# TYPE cab_job_queue_wait_seconds histogram",
		`cab_job_run_seconds_bucket{le="+Inf"} 1`,
		`cab_job_run_quantile_seconds{q="0.99"}`,
		"cab_boundary_level 0",
		"cab_tracing_armed 0",
		"cab_profiling_armed 1",
		"cab_hwc_available",
		`cab_squad_state_seconds_total{squad="0",state="exec"}`,
		`cab_steal_flow_probes_total{src="0",dst="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricz missing %q\n--- body ---\n%s", want, body)
		}
	}
}

func TestStatz(t *testing.T) {
	_, srv := testServer(t)
	if code, body := get(t, srv.URL+"/fib?n=25"); code != http.StatusOK {
		t.Fatalf("warm-up job failed: %d %s", code, body)
	}
	code, body := get(t, srv.URL+"/statz")
	if code != http.StatusOK {
		t.Fatalf("/statz status %d", code)
	}
	var out struct {
		Scheduler struct {
			Spawns int64 `json:"Spawns"`
		} `json:"scheduler"`
		Squads  []map[string]any `json:"squads"`
		Service struct {
			Submitted int64 `json:"Submitted"`
			Completed int64 `json:"Completed"`
		} `json:"service"`
		Health *struct {
			StalledWorkers int `json:"StalledWorkers"`
		} `json:"health"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/statz is not valid JSON: %v\n%s", err, body)
	}
	if out.Scheduler.Spawns == 0 {
		t.Error("/statz scheduler.Spawns is zero after a fib(25) job")
	}
	if len(out.Squads) != 2 {
		t.Errorf("/statz squads: %d entries, want 2", len(out.Squads))
	}
	if out.Service.Submitted != 1 || out.Service.Completed != 1 {
		t.Errorf("/statz service counters %+v, want one submitted+completed", out.Service)
	}
	if out.Health == nil {
		t.Error("/statz missing health section")
	} else if out.Health.StalledWorkers != 0 {
		t.Errorf("/statz health reports %d stalled workers on a healthy server", out.Health.StalledWorkers)
	}
}

func TestFlowz(t *testing.T) {
	_, srv := testServer(t)
	if code, body := get(t, srv.URL+"/fib?n=28"); code != http.StatusOK {
		t.Fatalf("warm-up job failed: %d %s", code, body)
	}
	code, body := get(t, srv.URL+"/flowz")
	if code != http.StatusOK {
		t.Fatalf("/flowz status %d", code)
	}
	var p cab.Profile
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/flowz is not valid JSON: %v\n%s", err, body)
	}
	if !p.Enabled {
		t.Fatal("/flowz reports profiling disabled on a -profile server")
	}
	if len(p.Workers) != 4 || len(p.Squads) != 2 {
		t.Fatalf("/flowz shape: %d workers / %d squads, want 4 / 2", len(p.Workers), len(p.Squads))
	}
	if len(p.Flow) != 2 || len(p.Flow[0]) != 2 {
		t.Fatalf("/flowz flow matrix is not 2x2: %v", p.Flow)
	}
	var exec time.Duration
	for _, sq := range p.Squads {
		exec += sq.Times.Exec
	}
	if exec == 0 {
		t.Error("/flowz shows zero exec time after a fib(28) job")
	}
}

func TestTracez(t *testing.T) {
	sched, srv := testServer(t)
	// Keep jobs running back to back for the whole trace window so it
	// records spans: a single request can finish before the window opens.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/fib?n=30")
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
		}
	}()
	code, body := get(t, srv.URL+"/tracez?ms=100")
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if sched.Tracing() {
		t.Fatal("/tracez left tracing armed")
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans int
	for _, e := range evs {
		if e["ph"] == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace window over a running job recorded no spans")
	}
}

func TestTracezBadWindow(t *testing.T) {
	_, srv := testServer(t)
	for _, q := range []string{"ms=abc", "ms=0", "ms=-5"} {
		if code, _ := get(t, srv.URL+"/tracez?"+q); code != http.StatusBadRequest {
			t.Errorf("/tracez?%s: status %d, want 400", q, code)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, srv := testServer(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	if !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz body %q", body)
	}
}

func TestReadyz(t *testing.T) {
	_, sv, srv := testServerFull(t, time.Millisecond)

	if code, body := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz status %d: %s", code, body)
	}

	// Overload: a window whose queue-wait p95 is far past the 1ms target
	// flips the shedder; /readyz must report not-ready with Retry-After.
	sv.shed.observe(cab.LatencyWindow{
		QueueWait: cab.Latency{Count: 100, P95: 50 * time.Millisecond},
	})
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while shedding: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz while shedding: no Retry-After header")
	}

	// Recovery: an idle window exits shedding (hysteresis path).
	sv.shed.observe(cab.LatencyWindow{})
	if code, _ := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: status %d, want 200", code)
	}

	// Draining beats everything.
	sv.draining.Store(true)
	code, body := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while draining: status %d body %q", code, body)
	}
}

func TestShedRefusesWork(t *testing.T) {
	_, sv, srv := testServerFull(t, time.Millisecond)
	sv.shed.observe(cab.LatencyWindow{
		QueueWait: cab.Latency{Count: 100, P95: 10 * time.Millisecond},
	})
	resp, err := http.Get(srv.URL + "/fib?n=20")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed work request: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response has no Retry-After")
	}
	if n := sv.shed.shedTotal.Load(); n != 1 {
		t.Fatalf("shedTotal = %d, want 1", n)
	}
	// Metrics must reflect the refusal and the active state.
	if _, body := get(t, srv.URL+"/metricz"); !strings.Contains(body, "cab_shed_total 1") ||
		!strings.Contains(body, "cab_shedding 1") {
		t.Fatalf("/metricz missing shed metrics:\n%s", body)
	}
	// After recovery the same endpoint serves again.
	sv.shed.observe(cab.LatencyWindow{})
	if code, body := get(t, srv.URL+"/fib?n=20"); code != http.StatusOK {
		t.Fatalf("post-recovery fib: status %d: %s", code, body)
	}
}

func TestShedObserveHysteresis(t *testing.T) {
	s := &shedder{target: 10 * time.Millisecond}

	// Too few samples: one slow job must not flip the state.
	s.observe(cab.LatencyWindow{QueueWait: cab.Latency{Count: 1, P95: time.Second}})
	if s.shedding() {
		t.Fatal("shedding after a 1-sample window")
	}
	// Enough samples over target: shed, with Retry-After scaled up.
	s.observe(cab.LatencyWindow{QueueWait: cab.Latency{Count: 50, P95: 100 * time.Millisecond}})
	if !s.shedding() {
		t.Fatal("not shedding with p95 10x target")
	}
	if ra := s.retryAfterSeconds(); ra != 10 {
		t.Fatalf("Retry-After = %d, want 10 (overload ratio)", ra)
	}
	// p95 under target but above target/2: hysteresis keeps shedding.
	s.observe(cab.LatencyWindow{QueueWait: cab.Latency{Count: 50, P95: 8 * time.Millisecond}})
	if !s.shedding() {
		t.Fatal("exited shedding above the hysteresis floor")
	}
	// Under half the target: recover.
	s.observe(cab.LatencyWindow{QueueWait: cab.Latency{Count: 50, P95: 4 * time.Millisecond}})
	if s.shedding() {
		t.Fatal("still shedding under target/2")
	}
}

func TestDumpz(t *testing.T) {
	_, srv := testServer(t)
	if code, body := get(t, srv.URL+"/fib?n=20"); code != http.StatusOK {
		t.Fatalf("warm-up job failed: %d %s", code, body)
	}
	code, body := get(t, srv.URL+"/dumpz")
	if code != http.StatusOK {
		t.Fatalf("/dumpz status %d", code)
	}
	for _, want := range []string{"=== rt state", "squad 0", "worker 0", "health:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/dumpz missing %q\n--- body ---\n%s", want, body)
		}
	}
}

func TestPprofIndex(t *testing.T) {
	_, srv := testServer(t)
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

// TestHealthzReadyzStalledWorker drives a real wedge through the live
// handlers: a frozen worker must flip both /healthz (stalled) and
// /readyz (degraded) to 503, and recovery must flip them back to 200.
// Supervision is disabled so the stall stays visible while we poll.
func TestHealthzReadyzStalledWorker(t *testing.T) {
	in := chaos.New(1)
	entered := in.FreezeWorker(2, cab.FaultExec)
	sched, err := cab.New(cab.Config{
		Machine:   cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		FaultHook: in.Hook,
		Watchdog: cab.WatchdogConfig{
			Interval: 2 * time.Millisecond, StallAfter: 10 * time.Millisecond,
		},
		Supervisor: cab.SupervisorConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(sched, 0, time.Hour)
	srv := httptest.NewServer(sv.routes())
	t.Cleanup(func() { srv.Close(); sv.shed.close(); sched.Close() })
	t.Cleanup(in.UnfreezeAll) // LIFO: thaw before sched.Close drains

	// Stream tasks until worker 2 actually takes one into the freeze; a
	// fixed fanout could drain entirely on the other workers.
	job, err := sched.Submit(nil, func(tk cab.Task) {
		for i := 0; ; i++ {
			select {
			case <-entered:
				tk.Sync()
				return
			default:
				tk.Spawn(func(cab.Task) { time.Sleep(50 * time.Microsecond) })
				if i%64 == 63 {
					tk.Sync()
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	waitStatus := func(path string, want int, what string) string {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			code, body := get(t, srv.URL+path)
			if code == want {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s %d (%s); last: %d %s", path, want, what, code, body)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if body := waitStatus("/healthz", http.StatusServiceUnavailable, "stall detection"); !strings.Contains(body, `"stalled"`) {
		t.Fatalf("/healthz 503 body %q, want status stalled", body)
	}
	if body := waitStatus("/readyz", http.StatusServiceUnavailable, "stall detection"); !strings.Contains(body, `"degraded"`) {
		t.Fatalf("/readyz 503 body %q, want status degraded", body)
	}

	in.UnfreezeAll()
	waitStatus("/healthz", http.StatusOK, "stall recovery")
	waitStatus("/readyz", http.StatusOK, "stall recovery")
	if err := job.Wait(); err != nil {
		t.Fatalf("job after thaw: %v", err)
	}
}

// TestHealthzReadyzQuarantine kills a worker under QuarantineAfter: 1 —
// one death quarantines its squad — and checks both probes report the
// degraded pool with 503 while work still completes.
func TestHealthzReadyzQuarantine(t *testing.T) {
	in := chaos.New(1)
	killed := in.KillWorker(0)
	sched, err := cab.New(cab.Config{
		Machine:   cab.Machine{Sockets: 2, CoresPerSocket: 2, SharedCache: 1 << 20},
		FaultHook: in.Hook,
		Watchdog: cab.WatchdogConfig{
			Interval: 2 * time.Millisecond, StallAfter: 10 * time.Millisecond,
		},
		Supervisor: cab.SupervisorConfig{QuarantineAfter: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sv := newServer(sched, 0, time.Hour)
	srv := httptest.NewServer(sv.routes())
	t.Cleanup(func() { srv.Close(); sv.shed.close(); sched.Close() })

	// Kills fire at the victim's idle poll; keep trivial jobs flowing so
	// parked workers iterate.
	trivial := func(tk cab.Task) {
		for i := 0; i < 8; i++ {
			tk.Spawn(func(cab.Task) {})
		}
		tk.Sync()
	}
	deadline := time.After(5 * time.Second)
poke:
	for {
		select {
		case <-killed:
			break poke
		case <-deadline:
			t.Fatal("timed out waiting for the kill to fire")
		default:
			if j, err := sched.Submit(nil, trivial); err == nil {
				j.Wait()
			}
		}
	}

	wait := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, srv.URL+"/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, `"quarantined_squads": 1`) {
				t.Fatalf("/healthz 503 body %q, want quarantined_squads 1", body)
			}
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("timed out waiting for /healthz quarantine 503; last: %d %s", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, body := get(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("/readyz = %d %q, want 503 degraded", code, body)
	}
	// Degraded, not dead: the healthy squad still serves work.
	j, err := sched.Submit(nil, trivial)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}
