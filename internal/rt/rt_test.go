package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cab/internal/topology"
	"cab/internal/work"
	"cab/internal/workloads"
)

func quadTopo() topology.Topology {
	return topology.Topology{
		Sockets: 2, CoresPerSocket: 2, LineBytes: 64,
		L3Bytes: 1 << 20, L3Assoc: 16,
	}
}

func newRT(t *testing.T, topo topology.Topology, bl int) *Runtime {
	t.Helper()
	r, err := New(Config{Topo: topo, BL: bl, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRunSimpleTask(t *testing.T) {
	r := newRT(t, quadTopo(), 0)
	ran := false
	if err := r.Run(func(p work.Proc) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("root did not run")
	}
}

func TestSpawnJoinCount(t *testing.T) {
	r := newRT(t, quadTopo(), 0)
	var count atomic.Int64
	err := r.Run(func(p work.Proc) {
		for i := 0; i < 100; i++ {
			p.Spawn(func(q work.Proc) { count.Add(1) })
		}
		p.Sync()
		if got := count.Load(); got != 100 {
			t.Errorf("after Sync: count = %d, want 100", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("count = %d, want 100", count.Load())
	}
}

func TestImplicitFinalSync(t *testing.T) {
	// A task that spawns but never calls Sync must still be joined before
	// Run returns (Cilk's implicit sync at procedure return).
	r := newRT(t, quadTopo(), 0)
	var count atomic.Int64
	err := r.Run(func(p work.Proc) {
		for i := 0; i < 32; i++ {
			p.Spawn(func(q work.Proc) { count.Add(1) })
		}
		// no Sync
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 32 {
		t.Fatalf("count = %d, want 32", count.Load())
	}
}

func TestNestedRecursion(t *testing.T) {
	r := newRT(t, quadTopo(), 2)
	var leaves atomic.Int64
	var rec func(d int) work.Fn
	rec = func(d int) work.Fn {
		return func(p work.Proc) {
			if d == 0 {
				leaves.Add(1)
				return
			}
			p.Spawn(rec(d - 1))
			p.Spawn(rec(d - 1))
			p.Sync()
		}
	}
	if err := r.Run(rec(8)); err != nil {
		t.Fatal(err)
	}
	if leaves.Load() != 256 {
		t.Fatalf("leaves = %d, want 256", leaves.Load())
	}
	st := r.Stats()
	if st.Spawns != 2*256-2 {
		t.Errorf("Spawns = %d, want %d", st.Spawns, 2*256-2)
	}
	if st.InterSpawns == 0 {
		t.Error("expected inter-tier spawns at BL=2")
	}
}

func TestRuntimeReusable(t *testing.T) {
	r := newRT(t, quadTopo(), 0)
	for i := 0; i < 5; i++ {
		var n atomic.Int64
		if err := r.Run(func(p work.Proc) {
			p.Spawn(func(q work.Proc) { n.Add(1) })
			p.Sync()
		}); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 1 {
			t.Fatalf("iteration %d: n = %d", i, n.Load())
		}
	}
}

func TestRunAfterCloseFails(t *testing.T) {
	r, err := New(Config{Topo: quadTopo(), BL: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := r.Run(func(work.Proc) {}); err == nil {
		t.Fatal("Run after Close should fail")
	}
	r.Close() // idempotent
}

func TestDefaultTopologyFromGOMAXPROCS(t *testing.T) {
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Topology().Workers() < 1 {
		t.Fatal("no workers")
	}
	if r.BL() != 0 {
		t.Fatalf("single-socket BL = %d, want 0", r.BL())
	}
	if err := r.Run(func(p work.Proc) {}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSocketForcesBLZero(t *testing.T) {
	top := quadTopo()
	top.Sockets = 1
	r := newRT(t, top, 5)
	if r.BL() != 0 {
		t.Fatalf("BL = %d on 1 socket, want 0 (Algorithm II step 2)", r.BL())
	}
}

func TestLevelsVisible(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	var rootLevel, childLevel int64
	err := r.Run(func(p work.Proc) {
		atomic.StoreInt64(&rootLevel, int64(p.Level()))
		p.Spawn(func(q work.Proc) {
			atomic.StoreInt64(&childLevel, int64(q.Level()))
		})
		p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&rootLevel) != 0 || atomic.LoadInt64(&childLevel) != 1 {
		t.Fatalf("levels = %d/%d, want 0/1",
			atomic.LoadInt64(&rootLevel), atomic.LoadInt64(&childLevel))
	}
}

func TestSquadsReported(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	var squads int64
	_ = r.Run(func(p work.Proc) { atomic.StoreInt64(&squads, int64(p.Squads())) })
	if atomic.LoadInt64(&squads) != 2 {
		t.Fatalf("Squads() = %d, want 2", atomic.LoadInt64(&squads))
	}
}

func TestWorkloadsVerifyOnRuntime(t *testing.T) {
	specs := []workloads.Spec{
		workloads.HeatSpec(96, 64, 2),
		workloads.SORSpec(96, 64, 2),
		workloads.GESpec(80),
		workloads.MergesortSpec(10_000),
		workloads.QueensSpec(7),
		workloads.FFTSpec(1 << 10),
		workloads.CkSpec(4),
		workloads.CholeskySpec(80),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, bl := range []int{0, 2} {
				r := newRT(t, quadTopo(), bl)
				inst := spec.Make()
				if err := r.Run(inst.Root); err != nil {
					t.Fatal(err)
				}
				if err := inst.Verify(); err != nil {
					t.Fatalf("BL=%d: %v", bl, err)
				}
				r.Close()
			}
		})
	}
}

func TestStressManySmallTasks(t *testing.T) {
	r := newRT(t, quadTopo(), 2)
	var n atomic.Int64
	var rec func(d int) work.Fn
	rec = func(d int) work.Fn {
		return func(p work.Proc) {
			n.Add(1)
			if d == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				p.Spawn(rec(d - 1))
			}
			p.Sync()
		}
	}
	if err := r.Run(rec(7)); err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	pow := int64(1)
	for i := 0; i <= 7; i++ {
		want += pow
		pow *= 3
	}
	if n.Load() != want {
		t.Fatalf("executed %d tasks, want %d", n.Load(), want)
	}
}

func TestHintsRouteToSquadPools(t *testing.T) {
	// With hints and a 2-squad machine, both squads should see work; the
	// assertion is conservative (steals may move tasks) — the run must
	// complete and inter spawns must be recorded.
	r := newRT(t, quadTopo(), 1)
	var onSquad [2]atomic.Int64
	err := r.Run(func(p work.Proc) {
		for i := 0; i < 8; i++ {
			hint := i % 2
			p.SpawnHint(hint, func(q work.Proc) {
				onSquad[r.Topology().SquadOf(q.Worker())].Add(1)
			})
		}
		p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := onSquad[0].Load() + onSquad[1].Load(); got != 8 {
		t.Fatalf("ran %d tasks, want 8", got)
	}
	if r.Stats().InterSpawns != 8 {
		t.Fatalf("InterSpawns = %d, want 8", r.Stats().InterSpawns)
	}
}

func TestPanicPropagation(t *testing.T) {
	r := newRT(t, quadTopo(), 0)
	err := r.Run(func(p work.Proc) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("Run should surface the panic")
	}
	tp, ok := err.(*TaskPanic)
	if !ok {
		t.Fatalf("error type %T, want *TaskPanic", err)
	}
	if tp.Value != "boom" || tp.Level != 0 || tp.Stack == "" {
		t.Fatalf("panic details wrong: %+v", tp)
	}
	// The runtime must remain usable after a panic.
	if err := r.Run(func(p work.Proc) {}); err != nil {
		t.Fatalf("runtime wedged after panic: %v", err)
	}
}

func TestPanicInChildStillJoins(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	var survivors atomic.Int64
	err := r.Run(func(p work.Proc) {
		for i := 0; i < 8; i++ {
			i := i
			p.Spawn(func(q work.Proc) {
				if i == 3 {
					panic(i)
				}
				survivors.Add(1)
			})
		}
		p.Sync()
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
	if survivors.Load() != 7 {
		t.Fatalf("survivors = %d, want 7 (other children unaffected)", survivors.Load())
	}
	if err.(*TaskPanic).Level != 1 {
		t.Errorf("panic level = %d, want 1", err.(*TaskPanic).Level)
	}
}

func TestPanicErrorString(t *testing.T) {
	p := &TaskPanic{Value: "x", Level: 2}
	if p.Error() == "" {
		t.Fatal("empty error string")
	}
}

var noopFn work.Fn = func(work.Proc) {}

// TestNewPublishesBeforeStart guards New's startup order: every slot's
// deque must be stored before any worker runs, because a worker's first
// idle scan may steal from any slot. Each cycle gives an early worker one
// chance to load an unpublished (nil) deque; with the order reversed, a
// 2000-cycle loop crashed in about half the runs on a 2-CPU host.
func TestNewPublishesBeforeStart(t *testing.T) {
	flat := topology.Topology{
		Sockets: 1, CoresPerSocket: 2, LineBytes: 64,
		L3Bytes: 1 << 20, L3Assoc: 16,
	}
	for i := 0; i < 5000; i++ {
		r, err := New(Config{Topo: flat, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
}

// TestSpawnSyncZeroAlloc is the fast-path regression test of the frame
// freelist: steady-state spawn/sync on a warm runtime must perform zero
// heap allocations per task frame. A 1x1 machine makes the measurement
// deterministic (no concurrent thieves migrating frames mid-count); the
// freelist's overflow pool covers the multi-worker case.
func TestSpawnSyncZeroAlloc(t *testing.T) {
	top := topology.Topology{
		Sockets: 1, CoresPerSocket: 1, LineBytes: 64,
		L3Bytes: 1 << 20, L3Assoc: 16,
	}
	r := newRT(t, top, 0)
	var allocs float64
	err := r.Run(func(p work.Proc) {
		// Warm: populate the freelist and grow the deque ring.
		for i := 0; i < 1024; i++ {
			p.Spawn(noopFn)
			if i&255 == 255 {
				p.Sync()
			}
		}
		p.Sync()
		body := func() {
			for i := 0; i < 64; i++ {
				p.Spawn(noopFn)
			}
			p.Sync()
		}
		allocs = testing.AllocsPerRun(100, body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state spawn/sync allocated %.2f objects per 64-task batch, want 0", allocs)
	}
}

// TestRunCloseRace is the regression test for the Run/Close race: Run used
// to check stopped and then send on the roots channel unguarded, so a
// concurrent Close could panic the send on a closed channel. Run must now
// either execute the task or return the "closed" error — never panic.
func TestRunCloseRace(t *testing.T) {
	for i := 0; i < 100; i++ {
		r, err := New(Config{Topo: quadTopo(), BL: 0, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-start
			for {
				if err := r.Run(func(work.Proc) {}); err != nil {
					return // runtime closed underneath us: the legal outcome
				}
			}
		}()
		close(start)
		if i%2 == 0 {
			runtime.Gosched()
		}
		r.Close()
		<-done
		if err := r.Run(func(work.Proc) {}); err == nil {
			t.Fatal("Run after Close must fail")
		}
	}
}

// TestSpawnHintClamped: out-of-range squad hints (negative or >= Sockets)
// are explicitly clamped to "no preference" instead of silently falling
// through — the task still runs, lands in the spawner's squad pool, and
// carries no affinity.
func TestSpawnHintClamped(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	var ran atomic.Int64
	err := r.Run(func(p work.Proc) {
		for _, hint := range []int{-1, -99, 2, 3, 1 << 30} {
			p.SpawnHint(hint, func(q work.Proc) { ran.Add(1) })
		}
		p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran %d hinted tasks, want 5", ran.Load())
	}
	if got := r.Stats().InterSpawns; got != 5 {
		t.Fatalf("InterSpawns = %d, want 5 (clamped hints still spawn inter-tier)", got)
	}
}

// TestPanicDoesNotLeakAcrossRuns: a panic surfaced by Run N must not
// resurface from Run N+1 on the same runtime.
func TestPanicDoesNotLeakAcrossRuns(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	for round := 0; round < 4; round++ {
		err := r.Run(func(p work.Proc) {
			for i := 0; i < 4; i++ {
				i := i
				p.Spawn(func(q work.Proc) {
					if i == 2 {
						panic(fmt.Sprintf("round %d", round))
					}
				})
			}
			p.Sync()
		})
		if err == nil {
			t.Fatalf("round %d: expected panic error", round)
		}
		if want := fmt.Sprintf("round %d", round); err.(*TaskPanic).Value != want {
			t.Fatalf("round %d: got stale panic %v, want %q", round, err.(*TaskPanic).Value, want)
		}
		// The intervening clean run must report no error at all.
		if err := r.Run(func(p work.Proc) {
			p.Spawn(noopFn)
			p.Sync()
		}); err != nil {
			t.Fatalf("round %d: clean run inherited panic: %v", round, err)
		}
	}
}

// TestPanicInInterTaskReleasesBusy: when an inter-tier task panics, its
// squad's busy_state must still be released (execute's recover runs before
// the busy clear), so the squad can accept inter-socket work afterwards.
func TestPanicInInterTaskReleasesBusy(t *testing.T) {
	r := newRT(t, quadTopo(), 1)
	err := r.Run(func(p work.Proc) {
		for i := 0; i < 4; i++ {
			p.Spawn(func(q work.Proc) { panic("inter boom") }) // level 1 == BL: leaf inter tasks
		}
		p.Sync()
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
	if lvl := err.(*TaskPanic).Level; lvl != 1 {
		t.Fatalf("panic level = %d, want 1 (inter tier)", lvl)
	}
	for sq := range r.busy {
		if r.busy[sq].busy.Load() {
			t.Fatalf("squad %d busy flag leaked after inter-task panic", sq)
		}
	}
	// The squads must still process inter-tier work.
	var ran atomic.Int64
	if err := r.Run(func(p work.Proc) {
		for i := 0; i < 8; i++ {
			p.SpawnHint(i%2, func(q work.Proc) { ran.Add(1) })
		}
		p.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d inter tasks after panic, want 8", ran.Load())
	}
}

// TestFrameRecyclingAcrossRuns: spawning far more tasks than the freelist
// capacity across repeated runs must neither wedge nor miscount — frames
// cycle through worker caches and the shared overflow pool.
func TestFrameRecyclingAcrossRuns(t *testing.T) {
	r := newRT(t, quadTopo(), 2)
	for round := 0; round < 3; round++ {
		var n atomic.Int64
		if err := r.Run(func(p work.Proc) {
			for i := 0; i < 4096; i++ {
				p.Spawn(func(q work.Proc) { n.Add(1) })
				if i&127 == 127 {
					p.Sync()
				}
			}
			p.Sync()
		}); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 4096 {
			t.Fatalf("round %d: ran %d tasks, want 4096", round, n.Load())
		}
	}
}

func BenchmarkSpawnSyncThroughput(b *testing.B) {
	r, err := New(Config{Topo: quadTopo(), BL: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	_ = r.Run(func(p work.Proc) {
		for i := 0; i < b.N; i++ {
			p.Spawn(func(q work.Proc) {})
			if i%256 == 255 {
				p.Sync()
			}
		}
		p.Sync()
	})
}

func BenchmarkFibOnRuntime(b *testing.B) {
	r, err := New(Config{Topo: quadTopo(), BL: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var fib func(n int, out *int64) work.Fn
	fib = func(n int, out *int64) work.Fn {
		return func(p work.Proc) {
			if n < 12 {
				*out = serialFib(n)
				return
			}
			var a, c int64
			p.Spawn(fib(n-1, &a))
			p.Spawn(fib(n-2, &c))
			p.Sync()
			*out = a + c
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int64
		_ = r.Run(fib(20, &out))
		if out != 6765 {
			b.Fatalf("fib(20) = %d", out)
		}
	}
}

func serialFib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return serialFib(n-1) + serialFib(n-2)
}

// The CAB confinement invariant on the real runtime: every intra-socket
// task executes on a worker of the squad that ran its leaf inter-socket
// ancestor, and inter-socket tasks execute only on head workers.
func TestRuntimeSquadConfinement(t *testing.T) {
	top := quadTopo()
	r := newRT(t, top, 2)
	type obs struct {
		level  int
		worker int
		leaf   int // leaf-inter ancestor id, -1 above the boundary
	}
	var mu sync.Mutex
	var seen []obs
	record := func(p work.Proc, leaf int) {
		mu.Lock()
		seen = append(seen, obs{level: p.Level(), worker: p.Worker(), leaf: leaf})
		mu.Unlock()
	}
	var tree func(d, path, leaf int) work.Fn
	tree = func(d, path, leaf int) work.Fn {
		return func(p work.Proc) {
			if p.Level() == 2 { // leaf inter task (BL = 2)
				leaf = path
			}
			record(p, leaf)
			if d == 0 {
				busywork()
				return
			}
			p.Spawn(tree(d-1, path*2, leaf))
			p.Spawn(tree(d-1, path*2+1, leaf))
			p.Sync()
		}
	}
	if err := r.Run(func(p work.Proc) {
		p.Spawn(tree(5, 0, -1))
		p.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	squadOfLeaf := map[int]int{}
	for _, o := range seen {
		if o.level <= 2 {
			// Inter-socket task: must be on a head worker.
			if !top.IsHead(o.worker) {
				t.Fatalf("inter task (level %d) ran on non-head worker %d", o.level, o.worker)
			}
			continue
		}
		sq := top.SquadOf(o.worker)
		if prev, ok := squadOfLeaf[o.leaf]; ok && prev != sq {
			t.Fatalf("leaf %d's subtree ran in squads %d and %d", o.leaf, prev, sq)
		}
		squadOfLeaf[o.leaf] = sq
	}
	if len(squadOfLeaf) != 4 { // 2^(BL-1) = 2 leaf-inter per... level2 has 4 tasks
		t.Logf("observed %d leaf subtrees", len(squadOfLeaf))
	}
}

// busywork burns a little real CPU so steals actually happen.
func busywork() {
	x := 1.0
	for i := 0; i < 2000; i++ {
		x = x*1.0000001 + 0.5
	}
	_ = x
}

func TestRuntimeWorkloadStress(t *testing.T) {
	// Run two memory-bound workloads back to back on one runtime with a
	// bi-tier configuration, verifying results each time.
	r := newRT(t, quadTopo(), 2)
	for i := 0; i < 3; i++ {
		inst := workloads.HeatSpec(128, 64, 2).Make()
		if err := r.Run(inst.Root); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}
