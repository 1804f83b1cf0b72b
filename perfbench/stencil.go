package main

import (
	"fmt"
	"math"

	"cab"
)

// The stencil workload is the paper's Fig. 1 heat kernel: stencilSteps
// five-point Jacobi sweeps over a stencilN x stencilN grid, each sweep
// halving the row range recursively down to stencilLeaf rows and hinting
// each half to the squad owning its rows. It runs on a two-squad machine
// model so the inter tier (inter pools, busy_state, hinted placement) is
// in play, at the boundary level Eq. 4 picks for the grid size.
const (
	stencilN     = 1024
	stencilSteps = 10
	stencilLeaf  = 32
)

type stencil struct {
	init, a, b []float64 // seeded start grid and the two sweep buffers
	want       []float64 // serial result
}

func newStencil(seed uint64) (*stencil, cab.Config) {
	n := stencilN * stencilN
	w := &stencil{init: make([]float64, n), a: make([]float64, n), b: make([]float64, n)}
	for i := range w.init {
		w.init[i] = float64(splitmix(seed^uint64(i))>>11) / (1 << 53) * 100
	}
	copy(w.b, w.init) // boundary rows and columns are never written
	m := cab.DetectMachine()
	m.Sockets, m.CoresPerSocket = 2, 1
	return w, cab.Config{Machine: m, DataSize: int64(n) * 8, Branch: 2, BoundaryLevel: -1}
}

// sweepRows computes rows [lo, hi) of dst from src.
func sweepRows(src, dst []float64, lo, hi int) {
	const n = stencilN
	for r := lo; r < hi; r++ {
		row, up, down := r*n, (r-1)*n, (r+1)*n
		for c := 1; c < n-1; c++ {
			dst[row+c] = 0.25 * (src[up+c] + src[down+c] + src[row+c-1] + src[row+c+1])
		}
	}
}

// sweep returns the task updating rows [lo, hi) of dst, splitting in half
// until stencilLeaf rows remain.
func sweep(src, dst []float64, lo, hi int) cab.TaskFunc {
	return func(t cab.Task) {
		if hi-lo <= stencilLeaf {
			sweepRows(src, dst, lo, hi)
			return
		}
		mid := (lo + hi) / 2
		hint := func(l, h int) int { return (l + h) / 2 * t.Squads() / stencilN }
		t.SpawnHint(hint(lo, mid), sweep(src, dst, lo, mid))
		t.SpawnHint(hint(mid, hi), sweep(src, dst, mid, hi))
		t.Sync()
	}
}

// steps runs the sweeps with one fork-join barrier per step.
func (w *stencil) steps(t cab.Task) {
	src, dst := w.a, w.b
	for s := 0; s < stencilSteps; s++ {
		t.Spawn(sweep(src, dst, 1, stencilN-1))
		t.Sync()
		src, dst = dst, src
	}
}

// result is the buffer holding the grid after the last step.
func (w *stencil) result() []float64 {
	if stencilSteps%2 == 0 {
		return w.a
	}
	return w.b
}

// setReference computes the expected grid with plain loops in the same
// per-point order, so the parallel result must match bit for bit.
func (w *stencil) setReference() {
	w.prepare()
	src, dst := w.a, w.b
	for s := 0; s < stencilSteps; s++ {
		sweepRows(src, dst, 1, stencilN-1)
		src, dst = dst, src
	}
	w.want = append([]float64(nil), w.result()...)
}

func (w *stencil) prepare() { copy(w.a, w.init) }

func (w *stencil) root() cab.TaskFunc { return w.steps }

func (w *stencil) check() error {
	got := w.result()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(w.want[i]) {
			return fmt.Errorf("stencil grid differs at (%d,%d): %v, want %v",
				i/stencilN, i%stencilN, got[i], w.want[i])
		}
	}
	return nil
}
