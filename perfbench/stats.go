package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"cab/internal/obs"
	"cab/internal/xrand"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer samples does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// reports whether at least minBeyond samples lie beyond its rank. xs is
// sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs)-rank >= minBeyond
}

// histPercentile is percentile for a runtime histogram: the runtime's
// in-bucket estimate of the q-quantile, and whether at least minBeyond
// samples lie beyond its rank.
func histPercentile(h obs.HistSnapshot, q float64) (float64, bool) {
	rank := int64(math.Ceil(q * float64(h.Count)))
	return float64(h.Quantile(q)), h.Count > 0 && h.Count-rank >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartileSpread returns the median of xs and the distance between its
// first and third quartiles as a share of the median, using the same
// exclusive-method quartiles as Python's statistics.quantiles(xs, n=4).
func quartileSpread(xs []float64) (med, spread float64) {
	med = median(xs)
	n := len(xs)
	if n < 2 {
		return med, 0
	}
	q := func(j int) float64 { // j-th of three cut points, 1-based
		m := float64(j*(n+1)) / 4
		i := int(m)
		frac := m - float64(i)
		switch {
		case i < 1:
			return xs[0]
		case i >= n:
			return xs[n-1]
		}
		return xs[i-1] + (xs[i]-xs[i-1])*frac
	}
	return med, (q(3) - q(1)) / math.Abs(med)
}

// ladder turns the median latency of a trivial job at each rung, listed
// bottom-up, into each rung's self time: its latency minus the rung below.
// The bottom rung keeps its whole latency.
func ladder(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	for i, v := range rungs {
		self[i] = v
		if i > 0 {
			self[i] -= rungs[i-1]
		}
	}
	return self
}

// parseVmHWM extracts the peak resident set size, in MiB, from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// poissonSchedule returns the arrival offsets, in nanoseconds from the
// start of a run, of a Poisson process with the given mean rate per second
// over d, conditioned on its expected count: that many uniformly random
// instants in [0, d), sorted. Fixing the count keeps the offered load the
// same for every seed. The same seed gives the same schedule.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []int64 {
	rng := xrand.New(seed)
	due := make([]int64, int(math.Round(rate*d.Seconds())))
	for i := range due {
		due[i] = int64(rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// parsePromHistogram rebuilds the power-of-two histogram named base (the
// `<base>_bucket` series of a Prometheus text exposition, as the runtime
// writes it) so its quantiles can be taken with the runtime's own rule.
func parsePromHistogram(text, base string) (obs.HistSnapshot, error) {
	var s obs.HistSnapshot
	prefix := base + `_bucket{le="`
	var prevCum int64
	found := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		found = true
		le, rest, ok := strings.Cut(line[len(prefix):], `"} `)
		if !ok {
			return s, fmt.Errorf("malformed bucket line %q", line)
		}
		cum, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return s, fmt.Errorf("bucket count in %q: %w", line, err)
		}
		if le == "+Inf" {
			s.Count = cum
			continue
		}
		secs, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return s, fmt.Errorf("bucket bound in %q: %w", line, err)
		}
		// Bucket i's bound is 2^i-1 ns, printed with six significant
		// digits, so the nearest power of two recovers i.
		i := 0
		if ns := secs * 1e9; ns >= 0.5 {
			i = int(math.Round(math.Log2(ns + 1)))
		}
		if i >= len(s.Buckets) {
			return s, fmt.Errorf("bucket bound %s out of range", le)
		}
		s.Buckets[i] += cum - prevCum
		prevCum = cum
	}
	if !found {
		return s, fmt.Errorf("no %s_bucket series", base)
	}
	return s, sc.Err()
}

// splitmix is one step of the splitmix64 mixer, for seeded values that
// must be recomputed from a key rather than drawn in sequence.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
