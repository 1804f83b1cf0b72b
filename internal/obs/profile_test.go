package obs

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestProfilerDisarmedIsInert(t *testing.T) {
	p := NewProfiler(4, 2)
	p.SetState(0, StateScanIntra)
	s := p.Snapshot()
	if s.Armed {
		t.Fatal("new profiler reports armed")
	}
	for w, wt := range s.Workers {
		if wt.Total() != 0 {
			t.Fatalf("worker %d accumulated %dns while disarmed", w, wt.Total())
		}
	}
}

func TestProfilerStateAccounting(t *testing.T) {
	p := NewProfiler(2, 1)
	p.Arm()
	p.SetState(0, StateScanIntra)
	time.Sleep(2 * time.Millisecond)
	p.SetState(0, StateExec)
	time.Sleep(time.Millisecond)
	s := p.Snapshot()
	if got := s.Workers[0][StateScanIntra]; got < int64(time.Millisecond) {
		t.Fatalf("scan_intra accumulated %v, slept 2ms in it", time.Duration(got))
	}
	// The in-progress exec segment must be credited in the snapshot.
	if got := s.Workers[0][StateExec]; got < int64(500*time.Microsecond) {
		t.Fatalf("in-progress exec segment %v, slept 1ms in it", time.Duration(got))
	}
	if s.States[0] != StateExec {
		t.Fatalf("current state %v, want exec", StateName(s.States[0]))
	}
	// Worker 1 never transitioned: all its time sits in its initial state.
	if s.Workers[1][StateExec] == 0 {
		t.Fatal("idle worker's initial-state time not accounted")
	}

	p.Disarm()
	settled := p.Snapshot()
	time.Sleep(2 * time.Millisecond)
	after := p.Snapshot()
	if after.Workers[0] != settled.Workers[0] {
		t.Fatalf("disarmed profiler kept accumulating: %v -> %v", settled.Workers[0], after.Workers[0])
	}
}

func TestProfilerRearmDropsGap(t *testing.T) {
	p := NewProfiler(1, 1)
	p.Arm()
	p.SetState(0, StatePark)
	p.Disarm()
	before := p.Snapshot().Workers[0].Total()
	time.Sleep(3 * time.Millisecond) // disarmed gap: must not be credited
	p.Arm()
	p.SetState(0, StateExec) // transition settles the pre-gap segment
	got := p.Snapshot().Workers[0][StatePark]
	if gap := got - before; gap > int64(2*time.Millisecond) {
		t.Fatalf("re-arm credited %v of the disarmed gap to park", time.Duration(gap))
	}
}

// TestProfilerFlowMatrix leaves the profiler disarmed: the flow matrix is
// a ledger and counts regardless.
func TestProfilerFlowMatrix(t *testing.T) {
	p := NewProfiler(4, 2)
	p.FlowProbe(0, 0, 1) // intra hit, 1 frame
	p.FlowProbe(0, 1, 0) // inter miss
	p.FlowProbe(0, 1, 8) // inter hit, 8 frames
	p.FlowProbe(3, 0, 2) // worker 3 (squad 1) hits squad 0
	s := p.Snapshot()
	if c := s.Flow[0][1]; c.Probes != 2 || c.Hits != 1 || c.Frames != 8 {
		t.Fatalf("worker 0 -> squad 1 cell = %+v", c)
	}
	squadOf := func(w int) int { return w / 2 }
	m := s.SquadFlow(2, squadOf)
	if c := m[0][0]; c.Probes != 1 || c.Hits != 1 || c.Frames != 1 {
		t.Fatalf("squad 0 diagonal = %+v", c)
	}
	if c := m[1][0]; c.Probes != 1 || c.Hits != 1 || c.Frames != 2 {
		t.Fatalf("squad 1 -> squad 0 = %+v", c)
	}
	// Row sums across the worker rows equal the per-cell totals.
	var probes int64
	for _, row := range m {
		for _, c := range row {
			probes += c.Probes
		}
	}
	if probes != 4 {
		t.Fatalf("total probes %d, want 4", probes)
	}
}

// TestProfilerConcurrent hammers owner-style writers against snapshot
// readers; under -race this is the data-race proof.
func TestProfilerConcurrent(t *testing.T) {
	p := NewProfiler(4, 2)
	p.Arm()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.SetState(w, WorkerState(i%int(NumStates)))
				p.FlowProbe(w, i%2, int64(i%3))
			}
		}(w)
	}
	deadline := time.After(20 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			s := p.Snapshot()
			for w, wt := range s.Workers {
				for _, v := range wt {
					if v < 0 {
						t.Errorf("worker %d negative state time %d", w, v)
					}
				}
			}
		}
	}
	p.Disarm()
	close(stop)
	wg.Wait()
}

// The shard layout claim in the struct comment, pinned: one worker per
// 128-byte line group, and flow rows rounded to whole groups.
func TestProfilerShardLayout(t *testing.T) {
	if sz := unsafe.Sizeof(profShard{}); sz%cacheLinePad != 0 {
		t.Fatalf("profShard is %d bytes, not a multiple of %d", sz, cacheLinePad)
	}
	if sz := unsafe.Sizeof(flowCell{}); sz != flowCellBytes {
		t.Fatalf("flowCell is %d bytes, const says %d", sz, flowCellBytes)
	}
	p := NewProfiler(2, 3)
	if rowBytes := p.stride * flowCellBytes; rowBytes%cacheLinePad != 0 {
		t.Fatalf("flow row is %d bytes, not a multiple of %d", rowBytes, cacheLinePad)
	}
}

func TestProfilerZeroAllocPaths(t *testing.T) {
	p := NewProfiler(1, 2)
	for _, armed := range []bool{false, true} {
		if armed {
			p.Arm()
		}
		allocs := testing.AllocsPerRun(100, func() {
			p.SetState(0, StateExec)
			p.SetState(0, StateScanInter)
			p.FlowProbe(0, 1, 4)
		})
		if allocs != 0 {
			t.Fatalf("armed=%v record path allocates %.1f/op", armed, allocs)
		}
	}
}
