// Tests for the runtime profile: time-in-state accounting, the
// steal-flow matrix as the steal ledger Stats is folded from, the hwc
// fallback ladder, and the zero-alloc contracts for both the disarmed
// and the armed accounting paths.
package rt

import (
	"runtime"
	"testing"
	"time"

	"cab/internal/obs"
	"cab/internal/topology"
	"cab/internal/work"
)

// profiledRT builds a runtime with time-in-state accounting armed from
// the start.
func profiledRT(t *testing.T, topo topology.Topology, bl int) *Runtime {
	t.Helper()
	r, err := New(Config{Topo: topo, BL: bl, Seed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// fibTree spawns a fib(n)-shaped DAG — enough imbalance to force real
// stealing on a multi-squad machine. Leaves yield the processor so that
// on few-CPU hosts other workers get scheduled while queues are
// non-empty and steals actually happen (same trick as rtbench's steal
// tree).
func fibTree(n int) work.Fn {
	var fib func(n int) work.Fn
	fib = func(n int) work.Fn {
		return func(p work.Proc) {
			if n < 2 {
				runtime.Gosched()
				return
			}
			p.Spawn(fib(n - 1))
			p.Spawn(fib(n - 2))
			p.Sync()
		}
	}
	return fib(n)
}

func TestProfileStateTimes(t *testing.T) {
	r := profiledRT(t, quadTopo(), 1)
	if !r.Profiling() {
		t.Fatal("Config.Profile did not arm accounting")
	}
	if err := r.Run(fibTree(16)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let idle workers accrue park time
	p := r.Profile()
	if !p.Enabled {
		t.Fatal("Profile().Enabled false on an armed runtime")
	}
	var total obs.WorkerTimes
	for _, wp := range p.Workers {
		if wp.Times.Total() == 0 {
			t.Errorf("worker %d accumulated no state time at all", wp.Worker)
		}
		total.Add(wp.Times)
	}
	if total[obs.StateExec] == 0 {
		t.Fatal("no exec time accounted across a whole fib run")
	}
	if total[obs.StatePark] == 0 {
		t.Fatal("no park time accounted on an idle runtime")
	}
	// Squad rollups must sum the worker rows exactly.
	var fromSquads, fromWorkers obs.WorkerTimes
	for _, sp := range p.Squads {
		fromSquads.Add(sp.Times)
	}
	for _, wp := range p.Workers {
		fromWorkers.Add(wp.Times)
	}
	if fromSquads != fromWorkers {
		t.Fatalf("squad rollup %v != worker sum %v", fromSquads, fromWorkers)
	}
}

// flowSums totals a squad×squad flow matrix, splitting out the
// diagonal's hits and the off-diagonal frames.
func flowSums(m [][]obs.FlowCell) (probes, hits, frames, diagHits, offFrames int64) {
	for i, row := range m {
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
	return
}

// TestProfileFlowConsistency checks the steal ledger on one snapshot,
// with profiling disarmed (the matrix always counts). Stats and the
// squad flow matrix are folds of the same books value, so they balance
// exactly. The matrix's hits and frames must also match the job's own
// Steals and Migrations, which the steal paths count separately; those
// settle once the job is done, since no frame of it is left to steal.
func TestProfileFlowConsistency(t *testing.T) {
	for _, bl := range []int{0, 1} {
		r := newRT(t, quadTopo(), bl)
		j, err := r.Submit(fibTree(18))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		js := j.Stats()
		b := r.readBooks()
		st := b.total()
		probes, hits, frames, diagHits, offFrames := flowSums(b.prof.SquadFlow(r.topo.Sockets, r.topo.SquadOf))
		if want := st.ProbesIntra + st.ProbesInter; probes != want {
			t.Errorf("BL=%d: flow probes %d != ProbesIntra+ProbesInter %d", bl, probes, want)
		}
		if want := st.StealsIntra + st.StealsInter; hits != want {
			t.Errorf("BL=%d: flow hits %d != StealsIntra+StealsInter %d", bl, hits, want)
		}
		if want := st.StealsIntra + st.StealsInterTasks; frames != want {
			t.Errorf("BL=%d: flow frames %d != StealsIntra+StealsInterTasks %d", bl, frames, want)
		}
		// A job's Steals are its deque steals: under BL 0 every hit,
		// under BL 1 the diagonal's. Migrations are frames that crossed
		// squads, which only off-diagonal hits move.
		wantSteals := diagHits
		if bl == 0 {
			wantSteals = hits
		}
		if js.Steals != wantSteals {
			t.Errorf("BL=%d: job Steals %d != ledger deque hits %d", bl, js.Steals, wantSteals)
		}
		if js.Migrations != offFrames {
			t.Errorf("BL=%d: job Migrations %d != ledger off-diagonal frames %d", bl, js.Migrations, offFrames)
		}
		if hits == 0 {
			t.Errorf("BL=%d: fib(18) on a 2x2 machine produced no steals at all", bl)
		}
	}
}

func TestProfileDisarmedFrozen(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	if r.Profiling() {
		t.Fatal("runtime without Config.Profile must start disarmed")
	}
	if err := r.Run(fibTree(14)); err != nil {
		t.Fatal(err)
	}
	p := r.Profile()
	if p.Enabled {
		t.Fatal("Profile().Enabled true on a disarmed runtime")
	}
	for _, wp := range p.Workers {
		if wp.Times.Total() != 0 {
			t.Fatalf("disarmed runtime accumulated state time: %+v", wp)
		}
	}

	// Enable mid-flight, run again: accounting picks up from here.
	r.EnableProfiling()
	if err := r.Run(fibTree(14)); err != nil {
		t.Fatal(err)
	}
	if p := r.Profile(); !p.Enabled {
		t.Fatal("EnableProfiling did not arm")
	}
	r.DisableProfiling()
	frozen := r.Profile()
	if err := r.Run(fibTree(14)); err != nil {
		t.Fatal(err)
	}
	after := r.Profile()
	var a, b int64
	for _, wp := range frozen.Workers {
		a += wp.Times.Total()
	}
	for _, wp := range after.Workers {
		b += wp.Times.Total()
	}
	if a == 0 {
		t.Fatal("armed window accumulated nothing")
	}
	if b != a {
		t.Fatalf("disabled profiler kept accumulating: %d -> %d", a, b)
	}
}

// TestProfilingZeroAlloc: the armed accounting path must stay
// allocation-free on the spawn/sync fast path, exactly like armed
// tracing — AllocsPerRun is the gate the acceptance criteria name.
func TestProfilingZeroAlloc(t *testing.T) {
	top := topology.Topology{
		Sockets: 1, CoresPerSocket: 1, LineBytes: 64,
		L3Bytes: 1 << 20, L3Assoc: 16,
	}
	r, err := New(Config{Topo: top, Seed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	var allocs float64
	if err := r.Run(func(p work.Proc) {
		for i := 0; i < 1024; i++ { // warm freelist and deque
			p.Spawn(noopFn)
			if i&255 == 255 {
				p.Sync()
			}
		}
		p.Sync()
		allocs = testing.AllocsPerRun(100, func() {
			for i := 0; i < 64; i++ {
				p.Spawn(noopFn)
			}
			p.Sync()
		})
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("armed profiling costs %.2f allocs per 64-task batch, want 0", allocs)
	}
}

// TestProfileHWCFallback: requesting hardware counters on any host must
// be safe — either groups attach (HWCAvailable true and cycles counting)
// or the runtime degrades to the software profile with HWCAvailable
// false, never an error or a panic. This exercises whichever rung of
// the hwc fallback ladder the test host sits on.
func TestProfileHWCFallback(t *testing.T) {
	r, err := New(Config{Topo: quadTopo(), BL: 1, Seed: 7, Profile: true, HWC: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.Run(fibTree(16)); err != nil {
		t.Fatal(err)
	}
	p := r.Profile()
	if !p.HWCAvailable {
		t.Log("hwc unavailable on this host: software-only degradation path exercised")
		for _, wp := range p.Workers {
			if wp.HWOk {
				t.Fatal("HWCAvailable false but a worker reports an attached group")
			}
		}
		return
	}
	var cycles uint64
	for _, sp := range p.Squads {
		cycles += sp.HW.Cycles
	}
	if cycles == 0 {
		t.Fatal("hwc attached but counted no cycles across a fib run")
	}
}
