package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cab"
	"cab/internal/obs"
	"cab/internal/xrand"
)

// serveRate is the serve workload's offered load in requests per second:
// fixed, and far below saturation (two CPUs keep up with 1500/s), so
// workers park between requests and latency reflects scheduling and
// wake-up rather than backlog.
const serveRate = 300

// probeClient fetches the server's status and counter endpoints.
var probeClient = &http.Client{Timeout: 10 * time.Second}

// server is a cabserve process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string
	done    chan struct{} // closed once the process has exited
	err     error         // its exit status, valid after done
	stderr  *tailBuffer
	stopped bool
}

// startServer runs the cabserve binary as shipped and waits until /readyz
// answers 200, returning the time from exec to that answer.
func startServer() (*server, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, done: make(chan struct{}), stderr: &tailBuffer{}}
	s.cmd = exec.Command(cabserveBin, "-addr", addr)
	s.cmd.Stderr = s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.err = s.cmd.Wait(); close(s.done) }()
	for deadline := t0.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("cabserve exited before ready (%v): %s", s.err, s.stderr.tail())
		default:
		}
		if resp, err := probeClient.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("cabserve not ready within 60s")
}

// stop interrupts the server, which drains and exits, and waits for it;
// it reports an error if the server had already died.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	select {
	case <-s.done:
		return fmt.Errorf("cabserve died (%v): %s", s.err, s.stderr.tail())
	default:
	}
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	return nil
}

// get fetches a path and returns the body of a 200 response.
func (s *server) get(path string) ([]byte, error) {
	resp, err := probeClient.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// tailBuffer keeps the last few KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 4096 {
		t.buf = append(t.buf[:0], t.buf[n-4096:]...)
	}
	return len(p), nil
}

// tail returns the start of the last panic written, or else the last
// few lines.
func (t *tailBuffer) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := string(t.buf)
	if i := strings.LastIndex(s, "panic: "); i >= 0 {
		return trimErr(s[i:])
	}
	return trimErr(s[max(0, len(s)-200):])
}

// request is one generated request, /<kind>?n=<n>, and the result it must
// return.
type request struct {
	kind string
	n    int
	want int64
}

func (r request) path() string { return fmt.Sprintf("/%s?n=%d", r.kind, r.n) }

// serveMix draws the serve workload's requests: light /fib and /nqueens
// jobs, so scheduling rather than request CPU dominates.
func serveMix(seed uint64, n int) []request {
	rng := xrand.New(seed ^ 0x5eed)
	reqs := make([]request, n)
	for i := range reqs {
		if rng.Intn(2) == 0 {
			k := 12 + rng.Intn(9)
			reqs[i] = request{"fib", k, fibValue(k)}
		} else {
			k := 4 + rng.Intn(5)
			reqs[i] = request{"nqueens", k, queensCount[k]}
		}
	}
	return reqs
}

func fibValue(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// queensCount[n] is the number of n-queens solutions (OEIS A000170).
var queensCount = []int64{1, 1, 0, 0, 2, 10, 4, 40, 92}

// reply is the outcome of one request. Latency runs from the moment the
// request was due, so a stalled generator or server delays later requests'
// figures too; late is how far behind schedule the request was sent.
type reply struct {
	lat, late, self float64 // ms
	due             int64   // ns offset in the schedule
	err             error
}

// loadgen sends reqs at the offsets in due (open loop), from at most conns
// goroutines, each with at most one request in flight.
func loadgen(base string, due []int64, reqs []request, conns int) []reply {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	out := make([]reply, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(time.Duration(due[i]))
				waitUntil(at)
				sent := time.Now()
				err := fetch(client, base+reqs[i].path(), reqs[i].want)
				end := time.Now()
				out[i] = reply{
					lat:  float64(end.Sub(at).Nanoseconds()) / 1e6,
					late: float64(sent.Sub(at).Nanoseconds()) / 1e6,
					self: float64(end.Sub(sent).Nanoseconds()) / 1e6,
					due:  due[i],
					err:  err,
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func fetch(c *http.Client, url string, want int64) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Result *int64 `json:"result"`
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	if body.Result == nil || *body.Result != want {
		return errWrong{fmt.Errorf("%s: result %v, want %d", url, body.Result, want)}
	}
	return nil
}

// runServe is one round of the serve workload: start cabserve, drive it
// with the open-loop generator, read its peak RSS and stop it.
func runServe(a childArgs) (*roundResult, error) {
	due := poissonSchedule(a.seed, serveRate, a.seconds)
	reqs := serveMix(a.seed, len(due))
	srv, setup, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	res := &roundResult{SetupS: setup}
	var tr *serveTrace
	if a.trace {
		tr = traceServe(srv, a.seconds)
	}
	t0 := time.Now()
	replies := loadgen(srv.base, due, reqs, runtime.NumCPU())
	res.Seconds = time.Since(t0).Seconds()
	for _, r := range replies {
		res.record(r.lat, r.err)
	}
	if tr != nil {
		if err := tr.finish(res, reqs, replies); err != nil {
			return nil, err
		}
	}
	if res.PeakRSSMB, err = peakRSS(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return res, srv.stop()
}

// serveTrace takes the server's counter snapshots at the edges of the
// traced blocks (every other traceBlock of the schedule) while the
// generator runs.
type serveTrace struct {
	wg    sync.WaitGroup
	snaps []layerSnap // before, after, before, after, ...
	err   error
}

func traceServe(srv *server, d time.Duration) *serveTrace {
	t := &serveTrace{}
	start := time.Now()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for edge := traceBlock; edge+traceBlock <= d; edge += 2 * traceBlock {
			for _, at := range []time.Duration{edge, edge + traceBlock} {
				time.Sleep(time.Until(start.Add(at)))
				s, err := snapServe(srv)
				if err != nil {
					t.err = err
					return
				}
				t.snaps = append(t.snaps, s)
			}
		}
	}()
	return t
}

// inTracedBlock reports whether a schedule offset falls in a traced block.
func inTracedBlock(due int64) bool { return (due/int64(traceBlock))%2 == 1 }

func (t *serveTrace) finish(res *roundResult, reqs []request, replies []reply) error {
	t.wg.Wait()
	if t.err != nil {
		return t.err
	}
	if len(t.snaps) < 2 {
		return errors.New("round too short for a traced block")
	}
	var counts rtCounts
	var times cab.StateTimes
	var qw obs.HistSnapshot
	var allocs uint64
	for i := 0; i+1 < len(t.snaps); i += 2 {
		b, a := t.snaps[i], t.snaps[i+1]
		counts = counts.add(a.counts.sub(b.counts))
		times = addTimes(times, subTimes(a.times, b.times))
		qw = addHist(qw, a.queueWait.Delta(b.queueWait))
		allocs += a.totalAlloc - b.totalAlloc
	}
	var plain, traced, late []float64
	for _, r := range replies {
		late = append(late, r.late)
		switch {
		case r.err != nil:
		case inTracedBlock(r.due):
			traced = append(traced, r.lat)
		default:
			plain = append(plain, r.lat)
		}
	}
	// The serial baseline: the same requests' jobs run on one goroutine
	// with cab.Serial, without the server.
	var serial []float64
	for _, req := range reqs[:min(len(reqs), serialSamples)] {
		var got atomic.Int64
		fn := requestTask(req, &got)
		t0 := time.Now()
		cab.Serial(fn)
		serial = append(serial, float64(time.Since(t0).Nanoseconds())/1e6)
		if got.Load() != req.want {
			res.count(errWrong{fmt.Errorf("serial %s = %d, want %d", req.path(), got.Load(), req.want)})
		}
	}
	last := t.snaps[len(t.snaps)-1]
	plainMed := median(plain)
	res.Layer = map[string]float64{
		"work.serial_ms":        median(serial),
		"speedup":               median(serial) / plainMed,
		"trace.overhead_pct":    (median(traced)/plainMed - 1) * 100,
		"go.alloc_bytes_per_op": float64(allocs) / float64(len(traced)),
		"go.gc_cpu_frac":        last.gcCPU,
	}
	addRTLayer(res.Layer, counts, float64(len(traced)), times)
	res.QueueWait = &qw
	res.Samples = map[string][]float64{"late_ms": late}
	return nil
}

// snapServe reads the server's public counters: /statz event counts,
// /flowz time in state, the /metricz queue-wait histogram and the Go
// runtime's allocation and GC figures from /debug/pprof.
func snapServe(srv *server) (layerSnap, error) {
	var s layerSnap
	b, err := srv.get("/statz")
	if err != nil {
		return s, err
	}
	var statz struct{ Scheduler cab.Stats }
	if err := json.Unmarshal(b, &statz); err != nil {
		return s, fmt.Errorf("/statz: %w", err)
	}
	s.counts = countsOf(statz.Scheduler)
	if b, err = srv.get("/flowz"); err != nil {
		return s, err
	}
	var prof cab.Profile
	if err := json.Unmarshal(b, &prof); err != nil {
		return s, fmt.Errorf("/flowz: %w", err)
	}
	for _, sq := range prof.Squads {
		s.times = addTimes(s.times, sq.Times)
	}
	if b, err = srv.get("/metricz"); err != nil {
		return s, err
	}
	if s.queueWait, err = parsePromHistogram(string(b), queueWaitSeries); err != nil {
		return s, fmt.Errorf("/metricz: %w", err)
	}
	if b, err = srv.get("/debug/pprof/allocs?debug=1"); err != nil {
		return s, err
	}
	mem, err := parseMemStats(string(b))
	if err != nil {
		return s, err
	}
	s.totalAlloc, s.gcCPU = uint64(mem["TotalAlloc"]), mem["GCCPUFraction"]
	return s, nil
}

// parseMemStats reads the "# Name = value" runtime.MemStats lines at the end
// of a debug=1 heap profile.
func parseMemStats(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || strings.ContainsAny(name, " []") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	for _, k := range []string{"TotalAlloc", "GCCPUFraction"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("heap profile has no %s line", k)
		}
	}
	return out, sc.Err()
}

// serialSamples is how many of a round's requests the serial baseline runs.
const serialSamples = 200

// requestTask is the benchmark's own copy of the job cabserve runs for a
// request: fib spawns down to n = 16, nqueens one task per first-row
// column. Used for the serial baseline.
func requestTask(r request, out *atomic.Int64) cab.TaskFunc {
	if r.kind == "fib" {
		var fib func(n int) cab.TaskFunc
		fib = func(n int) cab.TaskFunc {
			return func(t cab.Task) {
				if n < 16 {
					out.Add(fibValue(n))
					return
				}
				t.Spawn(fib(n - 1))
				t.Spawn(fib(n - 2))
				t.Sync()
			}
		}
		return fib(r.n)
	}
	n := r.n
	return func(t cab.Task) {
		for col := 0; col < n; col++ {
			bit := uint32(1) << col
			t.Spawn(func(cab.Task) { out.Add(queens(n, 1, bit, bit<<1, bit>>1)) })
		}
		t.Sync()
	}
}

// queens counts completions of rows [row, n) given the occupied columns
// and diagonals.
func queens(n, row int, cols, left, right uint32) int64 {
	if row == n {
		return 1
	}
	var c int64
	for avail := (uint32(1)<<n - 1) &^ (cols | left | right); avail != 0; avail &= avail - 1 {
		bit := avail & -avail
		c += queens(n, row+1, cols|bit, (left|bit)<<1, (right|bit)>>1)
	}
	return c
}

// timerSlack is how late a Go timer may fire on Linux, where the runtime
// waits for timers in whole milliseconds.
const timerSlack = 1500 * time.Microsecond

// waitUntil returns at the instant at: a Go timer gets it to within
// timerSlack, and nanosleep, which blocks the thread without spinning,
// covers the rest, so the schedule is not shifted by timer granularity.
func waitUntil(at time.Time) {
	if d := time.Until(at) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(at); d > 0; d = time.Until(at) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // an interrupted sleep is simply retried
	}
}
