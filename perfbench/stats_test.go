package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"cab/internal/obs"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // rank 90, ten beyond
		{99, 0.9, 90, false}, // rank 90, nine beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{3, 0.5, 2, false},
		{21, 0.5, 11, true},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestHistPercentileNeedsTenBeyond(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 100; i++ {
		h.Record(int64(1000 + i))
	}
	s := h.Snapshot()
	if v, ok := histPercentile(s, 0.9); !ok || v != float64(s.Quantile(0.9)) {
		t.Errorf("p90 of 100 samples = %v, %v; want %v, true", v, ok, s.Quantile(0.9))
	}
	if _, ok := histPercentile(s, 0.95); ok {
		t.Error("p95 of 100 samples reported ok with 5 beyond")
	}
	if _, ok := histPercentile(obs.HistSnapshot{}, 0.5); ok {
		t.Error("empty histogram reported ok")
	}
}

// The expected spreads are Python's
// (q[2]-q[0])/median(xs) for q = statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, spread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 1.0},
		{[]float64{10, 20, 30, 40}, 25, 1.0},
		{[]float64{3.1, 2.9, 3.3, 3.0, 3.6, 2.8, 3.2}, 3.1, 0.1290322580645161},
		{[]float64{100, 101, 99, 120}, 100.5, 0.15920398009950248},
	} {
		med, spread := quartileSpread(append([]float64(nil), c.xs...))
		if med != c.med || math.Abs(spread-c.spread) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, %v; want %v, %v", c.xs, med, spread, c.med, c.spread)
		}
	}
}

func TestLadderSubtractsTheRungBelow(t *testing.T) {
	got := ladder([]float64{5, 6, 6.5, 600})
	want := []float64{5, 1, 0.5, 593.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcabserve\nVmPeak:\t  812345 kB\nVmHWM:\t   11264 kB\nVmRSS:\t    9000 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 11 {
		t.Errorf("parseVmHWM = %v, %v; want 11 MiB", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\nVmRSS:\t 9000 kB\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseVmHWM("VmHWM:\t 12x kB\n"); err == nil {
		t.Error("malformed VmHWM parsed")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, d = 300.0, 20 * time.Second
	a, b := poissonSchedule(7, rate, d), poissonSchedule(7, rate, d)
	if len(a) != int(rate*d.Seconds()) {
		t.Fatalf("%d arrivals, want %v", len(a), rate*d.Seconds())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different schedules")
		}
	}
	if c := poissonSchedule(8, rate, d); c[0] == a[0] && c[1] == a[1] {
		t.Error("different seeds gave the same schedule")
	}
	// Inter-arrival gaps of a Poisson process are exponential: mean 1/rate
	// and a coefficient of variation of 1.
	var sum, sq float64
	prev := int64(0)
	for i, x := range a {
		if x < prev || x >= int64(d) {
			t.Fatalf("arrival %d at %d: not sorted within [0, %d)", i, x, d)
		}
		g := float64(x-prev) / 1e9
		sum += g
		sq += g * g
		prev = x
	}
	n := float64(len(a))
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if math.Abs(mean*rate-1) > 0.02 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gap mean %v s (want %v), cv %v (want 1)", mean, 1/rate, cv)
	}
}

func TestParsePromHistogramRoundTrip(t *testing.T) {
	var h obs.Histogram
	// Includes values whose bucket bounds round up when printed with six
	// significant digits (2^20-1 ns prints as 0.00104858 s).
	for _, v := range []int64{0, 1, 3, 900, 70_000, 1_000_000, 1_048_000, 1_500_000, 2e9, 2e9, 5e12} {
		h.Record(v)
	}
	want := h.Snapshot()
	var buf bytes.Buffer
	obs.PromHistogram(&buf, "cab_job_queue_wait", "help", want)
	obs.PromHistogram(&buf, "cab_job_run", "other series", obs.HistSnapshot{})
	got, err := parsePromHistogram(buf.String(), queueWaitSeries)
	if err != nil {
		t.Fatal(err)
	}
	if got.Buckets != want.Buckets || got.Count != want.Count {
		t.Fatalf("parsed buckets %v (count %d), want %v (count %d)", got.Buckets, got.Count, want.Buckets, want.Count)
	}
	for _, q := range []float64{0.5, 0.9} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Errorf("q%v = %d, want %d", q, got.Quantile(q), want.Quantile(q))
		}
	}
	if _, err := parsePromHistogram("cab_other_bucket{le=\"1\"} 3\n", queueWaitSeries); err == nil {
		t.Error("missing series parsed")
	}
}

func TestParseMemStats(t *testing.T) {
	text := strings.Join([]string{
		"heap profile: 1: 2 [3: 4] @ heap/1048576",
		"# runtime.MemStats",
		"# Alloc = 123",
		"# TotalAlloc = 456789",
		"# BySize = [{0 0 0} {8 1 2}]",
		"# GCCPUFraction = 0.0125",
		"",
	}, "\n")
	m, err := parseMemStats(text)
	if err != nil || m["TotalAlloc"] != 456789 || m["GCCPUFraction"] != 0.0125 {
		t.Errorf("parseMemStats = %v, %v", m, err)
	}
	if _, err := parseMemStats("# Alloc = 1\n"); err == nil {
		t.Error("profile without TotalAlloc parsed")
	}
}
