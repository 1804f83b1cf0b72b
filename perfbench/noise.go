package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// noise runs one workload k times, each with its own seed, and prints each
// metric's median and quartile spread (as a share of the median) next to
// the bound BENCHMARK.json gives it. A spread within a third of its bound
// is marked steady.
func noise(args []string) error {
	fl := flag.NewFlagSet("noise", flag.ExitOnError)
	workload := fl.String("workload", "", "workload to run")
	runs := fl.Int("runs", 10, "runs, with seeds first..first+runs-1")
	first := fl.Uint64("first-seed", 1, "seed of the first run")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics")
	fl.Parse(args)

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed, attempted := 0, 0
	for i := 0; i < *runs; i++ {
		seed := *first + uint64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if i == 0 {
			fmt.Println(lines[0]) // the host line
		}
		var out output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !out.Correct {
			return fmt.Errorf("run with seed %d: incorrect output", seed)
		}
		attempted += out.Attempted
		failed += out.Failed
		for k, m := range out.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Printf("seed %d: %s\n", seed, lines[len(lines)-1])
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s: %d runs of %ds, %d of %d ops failed\n", *workload, *runs, spec.RunSeconds, failed, attempted)
	fmt.Fprintf(&buf, "%-28s %14s %-6s %8s %7s  %s\n", "metric", "median", "unit", "spread", "bound", "")
	for _, k := range names {
		med, spread := quartileSpread(values[k])
		verdict, bound := "", ""
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case k == "setup_s":
				verdict = "(spread not gated)"
			case spread <= b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
		}
		fmt.Fprintf(&buf, "%-28s %14.6g %-6s %8.4f %7s  %s\n", k, med, units[k], spread, bound, verdict)
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}

// spec is the part of BENCHMARK.json the noise report reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
