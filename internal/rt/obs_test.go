// Tests for the runtime's observability layer: disarmed-tracing overhead
// (the 0 allocs/op regression gate), armed-tracing event capture and
// export, latency histograms and per-squad stats.
package rt

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"cab/internal/obs"
	"cab/internal/topology"
	"cab/internal/work"
)

// TestDisarmedTracingZeroAlloc is the satellite regression gate: with the
// tracer present but disarmed, the spawn/sync fast path must stay at zero
// allocations — instrumenting the runtime may not cost the freelist win
// back.
func TestDisarmedTracingZeroAlloc(t *testing.T) {
	top := topology.Topology{
		Sockets: 1, CoresPerSocket: 1, LineBytes: 64,
		L3Bytes: 1 << 20, L3Assoc: 16,
	}
	r := newRT(t, top, 0)
	if r.Tracing() {
		t.Fatal("runtime without Config.Trace must start disarmed")
	}
	var allocs float64
	err := r.Run(func(p work.Proc) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("disarmed tracing costs %.2f allocs per 64-task batch, want 0", allocs)
	}
}

// TestStopTraceRestoresZeroAlloc arms, runs, stops, and asserts the fast
// path is allocation-free again — StartTrace/StopTrace must be free to
// cycle on a live service.
func TestStopTraceRestoresZeroAlloc(t *testing.T) {
	top := topology.Topology{
		Sockets: 1, CoresPerSocket: 1, LineBytes: 64,
		L3Bytes: 1 << 20, L3Assoc: 16,
	}
	r := newRT(t, top, 0)
	r.StartTrace()
	if err := r.Run(func(p work.Proc) {
		for i := 0; i < 64; i++ {
			p.Spawn(noopFn)
		}
		p.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	if evs := r.StopTrace(); len(evs) == 0 {
		t.Fatal("armed run recorded no events")
	}
	var allocs float64
	err := r.Run(func(p work.Proc) {
		for i := 0; i < 1024; i++ {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("post-StopTrace fast path costs %.2f allocs, want 0", allocs)
	}
}

// TestTraceCapturesRun arms tracing over a fork-join run on a 2x2 machine
// and checks the window holds the event kinds the protocol must emit, with
// consistent exec nesting per worker.
func TestTraceCapturesRun(t *testing.T) {
	r, err := New(Config{Topo: quadTopo(), BL: 0, Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Tracing() {
		t.Fatal("Config.Trace must arm the tracer")
	}
	var tree func(d int) work.Fn
	tree = func(d int) work.Fn {
		return func(p work.Proc) {
			if d == 0 {
				return
			}
			p.Spawn(tree(d - 1))
			p.Spawn(tree(d - 1))
			p.Sync()
		}
	}
	if err := r.Run(tree(8)); err != nil {
		t.Fatal(err)
	}
	evs := r.StopTrace()
	kinds := map[obs.Kind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.EvSpawn, obs.EvExecBegin, obs.EvExecEnd, obs.EvJobAdmit, obs.EvJobStart, obs.EvJobDone} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in a traced run (kinds: %v)", k, kinds)
		}
	}
	if kinds[obs.EvExecBegin] < kinds[obs.EvExecEnd] {
		t.Errorf("more exec-ends (%d) than begins (%d)", kinds[obs.EvExecEnd], kinds[obs.EvExecBegin])
	}
	// The window must export as valid Chrome JSON with squad-grouped lanes.
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty trace JSON")
	}
}

// TestTraceSquadConfinement is the acceptance check at BL > 0: every
// intra-tier exec event must occur on a worker of the squad that owns the
// job's leaf inter-socket ancestor — spans stay inside one squad lane
// group. With one job on a 2x2 machine at BL 1, all intra execs of one
// sub-tree must share the executing squad.
func TestTraceSquadConfinement(t *testing.T) {
	r, err := New(Config{Topo: quadTopo(), BL: 1, Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	topo := r.Topology()
	var tree func(d int) work.Fn
	tree = func(d int) work.Fn {
		return func(p work.Proc) {
			if d == 0 {
				return
			}
			p.Spawn(tree(d - 1))
			p.Spawn(tree(d - 1))
			p.Sync()
		}
	}
	if err := r.Run(tree(9)); err != nil {
		t.Fatal(err)
	}
	evs := r.StopTrace()
	// Intra-tier steals must never cross squads: the thief and the squad
	// it stole within are the same by construction, so it suffices that
	// no intra-tier event carries a migrate companion.
	for _, e := range evs {
		if e.Kind == obs.EvMigrate && e.Tier == obs.TierIntra {
			t.Fatalf("intra-tier task migrated across squads: %+v", e)
		}
	}
	// And intra exec events exist on both squads (both sub-trees ran).
	seen := map[int]bool{}
	for _, e := range evs {
		if e.Kind == obs.EvExecBegin && e.Tier == obs.TierIntra && e.Worker >= 0 {
			seen[topo.SquadOf(e.Worker)] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no intra-tier exec events recorded")
	}
}

// TestLatencyHistograms checks that the always-on histograms fill from the
// job lifecycle: a submitted job must leave one queue-wait and one run
// sample, and JobStats must decompose Wall into QueueWait + RunTime.
func TestLatencyHistograms(t *testing.T) {
	r := newRT(t, quadTopo(), 0)
	before := r.Metrics()
	j, err := r.Submit(func(p work.Proc) {
		time.Sleep(2 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	after := r.Metrics()
	if got := after.QueueWait.Count - before.QueueWait.Count; got != 1 {
		t.Fatalf("queue-wait samples: %d, want 1", got)
	}
	if got := after.Run.Count - before.Run.Count; got != 1 {
		t.Fatalf("run samples: %d, want 1", got)
	}
	if after.Run.P99() < int64(time.Millisecond) {
		t.Fatalf("run p99 %v below the 2ms the body slept", time.Duration(after.Run.P99()))
	}
	st := j.Stats()
	if !st.Done {
		t.Fatal("job not done after Wait")
	}
	if st.RunTime < 2*time.Millisecond {
		t.Fatalf("RunTime %v below the 2ms sleep", st.RunTime)
	}
	if st.QueueWait+st.RunTime != st.Wall {
		t.Fatalf("QueueWait %v + RunTime %v != Wall %v", st.QueueWait, st.RunTime, st.Wall)
	}
}

// TestSquadStats checks, on one snapshot, that the per-squad rollup sums
// to the global view and that each squad's steals are its row of the
// flow matrix.
func TestSquadStats(t *testing.T) {
	for _, bl := range []int{0, 1} {
		r := newRT(t, quadTopo(), bl)
		j, err := r.Submit(fibTree(16))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		b := r.readBooks()
		per := b.squads(r.topo)
		if len(per) != 2 {
			t.Fatalf("got %d squads, want 2", len(per))
		}
		var sum Stats
		for _, s := range per {
			sum.add(s)
		}
		if got := b.total(); got != sum {
			t.Fatalf("BL=%d: squad stats sum %+v != global %+v", bl, sum, got)
		}
		if sum.Spawns != j.Stats().Spawns {
			t.Fatalf("BL=%d: Spawns %d != the only job's %d", bl, sum.Spawns, j.Stats().Spawns)
		}
		flow := b.prof.SquadFlow(r.topo.Sockets, r.topo.SquadOf)
		for i, row := range flow {
			var probes, hits int64
			for _, c := range row {
				probes += c.Probes
				hits += c.Hits
			}
			s := per[i]
			if probes != s.ProbesIntra+s.ProbesInter || hits != s.StealsIntra+s.StealsInter {
				t.Fatalf("BL=%d: squad %d flow row (probes %d, hits %d) != its stats %+v", bl, i, probes, hits, s)
			}
		}
	}
}

// TestStealScanHistogram forces idle scanning (a lone root spawning from
// one worker on a 4-worker machine) and expects at least one sample.
func TestStealScanHistogram(t *testing.T) {
	r := newRT(t, quadTopo(), 0)
	var tree func(d int) work.Fn
	tree = func(d int) work.Fn {
		return func(p work.Proc) {
			if d == 0 {
				return
			}
			p.Spawn(tree(d - 1))
			p.Spawn(tree(d - 1))
			p.Sync()
		}
	}
	if err := r.Run(tree(10)); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().StealScan.Count; got == 0 {
		t.Fatal("no steal-scan samples after a stealing workload")
	}
}
