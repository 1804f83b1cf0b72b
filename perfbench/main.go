// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output, and prints one JSON object as its
// last line of standard output: the end-to-end metrics, or with --trace 1
// the per-layer metrics.
//
//	perfbench --workload forkjoin|stencil|serve --seed N --seconds S --trace 0|1
//	perfbench noise --workload W [--runs K] [--first-seed N] [--trace 0|1]
//
// A run is split into rounds, each in a fresh child process, so that a
// crash is recorded as a failed round (with its exit status or signal)
// instead of ending the run, and so that per-process effects average out.
// Build and run it through run.py, which compiles this package and
// cabserve from the checkout first.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cab/internal/obs"
)

// rounds is how many child processes share one run's measuring time, and
// so how many set-ups the set-up time is the median of.
const rounds = 10

// layerRounds is how many layer-suite rounds a traced run adds.
const layerRounds = 2

// workloads are the runnable workloads. BENCHMARK.json gates forkjoin and
// stencil only: serve's p90 is sub-millisecond and made of thread wake-ups,
// and on a shared 2-vCPU host it ranged from 0.8 to 6.7 ms between 30 s
// runs of the same code, beyond any bound a regression gate can use.
var workloads = []string{"forkjoin", "stencil", "serve"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "noise" {
		if err := noise(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench noise:", err)
			os.Exit(1)
		}
		return
	}
	fl := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 30, "measuring time")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	child := fl.Bool("child", false, "run one round (internal)")
	fl.Parse(os.Args[1:])
	if fl.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		fl.Usage()
		os.Exit(2)
	}
	a := childArgs{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1}
	var err error
	if *child {
		err = runChild(a)
	} else {
		err = runParent(a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// host ties a result to the machine and code it was measured on.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"run_seconds"`
	Trace      bool    `json:"trace"`
}

func hostInfo(a childArgs) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: a.seed, Workload: a.workload, Seconds: a.seconds.Seconds(), Trace: a.trace}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of its Go sources.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// round is one child process's outcome as the parent saw it.
type round struct {
	res    *roundResult
	setupS float64
	err    error // the process died or reported no result
}

// runRound runs one round in a child process. The set-up time runs from
// exec to the child's ready line, unless the child timed it itself.
func runRound(a childArgs) round {
	self, err := os.Executable()
	if err != nil {
		return round{err: err}
	}
	cmd := exec.Command(self, "--child", "--workload", a.workload,
		"--seed", strconv.FormatUint(a.seed, 10), "--seconds", strconv.FormatFloat(a.seconds.Seconds(), 'f', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[a.trace])
	stderr := &tailBuffer{}
	cmd.Stderr = io.MultiWriter(os.Stderr, stderr)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return round{err: err}
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return round{err: err}
	}
	var r round
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	for sc.Scan() {
		if line := sc.Text(); line == readyLine && r.setupS == 0 {
			r.setupS = time.Since(t0).Seconds()
		} else {
			last = line
		}
	}
	waitErr := cmd.Wait()
	switch {
	case waitErr != nil:
		r.err = fmt.Errorf("%v: %s", waitErr, stderr.tail())
	case sc.Err() != nil:
		r.err = sc.Err()
	default:
		r.res = &roundResult{}
		if err := json.Unmarshal([]byte(last), r.res); err != nil {
			r.err = fmt.Errorf("round result: %w", err)
			r.res = nil
		} else if r.res.SetupS > 0 {
			r.setupS = r.res.SetupS
		}
	}
	return r
}

// output is the benchmark's last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(a childArgs) error {
	known := false
	for _, w := range workloads {
		known = known || w == a.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", a.workload, strings.Join(workloads, ", "))
	}
	if _, err := os.Stat(cabserveBin); err != nil {
		return fmt.Errorf("cabserve binary: %w", err)
	}
	hj, _ := json.Marshal(map[string]host{"host": hostInfo(a)})
	fmt.Println(string(hj))

	per := a
	per.seconds = a.seconds / rounds
	plan := make([]childArgs, rounds)
	for i := range plan {
		plan[i] = per
	}
	if a.trace {
		lay := a
		lay.workload = "layers"
		for i := 0; i < layerRounds; i++ {
			plan = append(plan, lay)
		}
	}
	var rs []round
	out := output{Correct: true}
	for i, p := range plan {
		r := runRound(p)
		line := map[string]any{"round": i + 1, "workload": p.workload}
		if r.err != nil {
			// A dead round is one failed attempt; it is not rerun.
			out.Attempted++
			out.Failed++
			line["status"] = "crashed"
			line["error"] = trimErr(r.err.Error())
		} else {
			out.Attempted += r.res.Attempted
			out.Failed += r.res.Failed
			out.Correct = out.Correct && r.res.Wrong == 0
			line["status"] = "ok"
			line["attempted"], line["failed"], line["setup_s"], line["bl"] = r.res.Attempted, r.res.Failed, r.setupS, r.res.BL
			if n := len(r.res.OpMs); n > 0 && !a.trace {
				p50, _ := percentile(append([]float64(nil), r.res.OpMs...), 0.5)
				line["op_ms.p50"], line["ops_per_s"] = p50, float64(n)/r.res.Seconds
			}
			if len(r.res.Errors) > 0 {
				line["errors"] = r.res.Errors
			}
			rs = append(rs, r)
		}
		lj, _ := json.Marshal(line)
		fmt.Println(string(lj))
	}
	var err error
	if a.trace {
		var pct float64
		if pct, err = startProbe(a); err != nil {
			return err
		}
		if out.Metrics, err = layerMetrics(rs); err == nil {
			out.Metrics["rt.start_crash_pct"] = metric{pct, "%"}
		}
	} else {
		out.Metrics, err = endToEnd(rs)
	}
	if err != nil {
		return err
	}
	oj, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(oj))
	return nil
}

// probeStarts is how many unguarded scheduler starts a traced run makes.
const probeStarts = 1000

// startProbe measures the start race that rounds avoid with startOneP: it
// starts the forkjoin scheduler probeStarts times, each in a child process
// of its own and with every P, and returns the share of starts that killed
// their process, in percent. Those deaths are what the probe counts, not
// failed workload attempts; it logs the first one.
func startProbe(a childArgs) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	died, first := 0, ""
	for i := 0; i < probeStarts; i++ {
		cmd := exec.Command(self, "--child", "--workload", "start", "--seed", strconv.FormatUint(a.seed, 10))
		stderr := &tailBuffer{}
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			if died++; first == "" {
				first = fmt.Sprintf("%v: %s", err, stderr.tail())
			}
		}
	}
	line := map[string]any{"probe": "start", "starts": probeStarts, "died": died}
	if first != "" {
		line["first"] = trimErr(first)
	}
	lj, _ := json.Marshal(line)
	fmt.Println(string(lj))
	return 100 * float64(died) / probeStarts, nil
}

// endToEnd aggregates the workload rounds: latency percentiles over every
// op of every round, throughput over their summed measuring time, and the
// median set-up time and peak RSS of the rounds.
func endToEnd(rs []round) (map[string]metric, error) {
	var lat, setup, rss []float64
	var secs float64
	for _, r := range rs {
		lat = append(lat, r.res.OpMs...)
		secs += r.res.Seconds
		setup = append(setup, r.setupS)
		rss = append(rss, r.res.PeakRSSMB)
	}
	if len(rs) == 0 {
		return nil, errors.New("every round failed")
	}
	p50, _ := percentile(lat, 0.5)
	p90, ok := percentile(lat, 0.9)
	if !ok {
		return nil, fmt.Errorf("op_ms.p90: fewer than %d of %d ops beyond it", minBeyond, len(lat))
	}
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"op_ms.p50":   {p50, "ms"},
		"op_ms.p90":   {p90, "ms"},
		"ops_per_s":   {float64(len(lat)) / secs, "1/s"},
		"peak_rss_mb": {median(rss), "MiB"},
	}, nil
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"deque.push_pop_ns":          "ns",
	"deque.steal_ns":             "ns",
	"deque.locked_steal_half_ns": "ns",
	"park.wake_us.p50":           "us",
	"park.wake_us.p90":           "us",
	"rt.spawn_sync_ns.w1":        "ns",
	"rt.spawn_sync_ns.w2":        "ns",
	"rt.spawns_per_op":           "count",
	"rt.steals_per_op":           "count",
	"rt.inter_tasks_per_steal":   "count",
	"rt.probes_per_steal":        "count",
	"rt.failed_scans_per_op":     "count",
	"rt.helps_per_op":            "count",
	"rt.exec_frac":               "ratio",
	"rt.scan_frac":               "ratio",
	"rt.park_frac":               "ratio",
	"ladder.rt_us":               "us",
	"ladder.jobs_us":             "us",
	"ladder.cab_us":              "us",
	"ladder.http_us":             "us",
	"jobs.queue_wait_us.p50":     "us",
	"jobs.queue_wait_us.p90":     "us",
	"work.serial_ms":             "ms",
	"speedup":                    "ratio",
	"go.alloc_bytes_per_op":      "bytes",
	"go.gc_cpu_frac":             "ratio",
	"loadgen.late_ms.p50":        "ms",
	"loadgen.late_ms.p99":        "ms",
	"trace.overhead_pct":         "%",
}

// layerMetrics aggregates the traced rounds: the median over rounds of each
// scalar figure, and percentiles of the pooled samples and histograms.
func layerMetrics(rs []round) (map[string]metric, error) {
	scalars := map[string][]float64{}
	samples := map[string][]float64{}
	var qw obs.HistSnapshot
	for _, r := range rs {
		for k, v := range r.res.Layer {
			scalars[k] = append(scalars[k], v)
		}
		for k, v := range r.res.Samples {
			samples[k] = append(samples[k], v...)
		}
		if h := r.res.QueueWait; h != nil {
			qw = addHist(qw, *h)
		}
	}
	out := map[string]metric{}
	for k, v := range scalars {
		out[k] = metric{median(v), layerUnits[k]}
	}
	for _, p := range []struct {
		name, sample string
		q            float64
	}{
		{"park.wake_us.p50", "park_wake_us", 0.5},
		{"park.wake_us.p90", "park_wake_us", 0.9},
		{"loadgen.late_ms.p50", "late_ms", 0.5},
		{"loadgen.late_ms.p99", "late_ms", 0.99},
	} {
		if v, ok := percentile(samples[p.sample], p.q); ok {
			out[p.name] = metric{v, layerUnits[p.name]}
		}
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"jobs.queue_wait_us.p50", 0.5}, {"jobs.queue_wait_us.p90", 0.9}} {
		if ns, ok := histPercentile(qw, p.q); ok {
			out[p.name] = metric{ns / 1e3, layerUnits[p.name]}
		}
	}
	var missing []string
	for k := range layerUnits {
		if _, ok := out[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("no value for %s (rounds failed, or too few samples)", strings.Join(missing, ", "))
	}
	return out, nil
}
