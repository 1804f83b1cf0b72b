package rt

import (
	"cab/internal/hwc"
	"cab/internal/obs"
)

// WorkerProfile is one worker's slice of the runtime profile: where its
// time went (per-state nanoseconds, see obs.WorkerState), what state it
// is in right now, and its hardware-counter reading when a group is
// attached.
type WorkerProfile struct {
	Worker int
	Squad  int
	State  string // current state name ("exec", "scan_intra", ...)
	Times  obs.WorkerTimes
	HW     hwc.Counters
	HWOk   bool // a hardware-counter group is attached to this worker
}

// SquadProfile rolls the worker profiles up per squad (= per socket in
// the paper's model): summed state times and summed hardware counters.
type SquadProfile struct {
	Squad int
	Times obs.WorkerTimes
	HW    hwc.Counters
	HWOk  bool // at least one worker in the squad has counters attached
}

// Profile is a point-in-time snapshot of the second-generation
// observability layer: time-in-state accounting, the squad×squad
// steal-flow matrix, and hardware counters. Like Stats it is monitoring
// grade, not a linearizable cut.
type Profile struct {
	// Enabled reports whether time-in-state accounting is armed; with it
	// off, state times stay frozen. The flow matrix and hardware counters
	// count regardless.
	Enabled bool
	// HWCAvailable reports whether any worker attached hardware counters;
	// false is the explicit hwc_available=0 degradation signal.
	HWCAvailable bool
	Workers      []WorkerProfile
	Squads       []SquadProfile
	// Flow[i][j] is squad i's workers probing squad j for work: probes
	// issued, hits, task frames moved. The diagonal is the intra-socket
	// distance class, everything off it the inter-socket class. It is the
	// steal ledger Stats is folded from: summing Hits over row i equals
	// that squad's StealsIntra+StealsInter in the same snapshot.
	Flow [][]obs.FlowCell
}

// EnableProfiling arms time-in-state accounting. Arming an armed
// runtime restarts the in-progress state segments.
func (r *Runtime) EnableProfiling() { r.prof.Arm() }

// DisableProfiling disarms time-in-state accounting, settling
// in-progress state segments. State times freeze but remain readable.
func (r *Runtime) DisableProfiling() { r.prof.Disarm() }

// Profiling reports whether time-in-state accounting is armed.
func (r *Runtime) Profiling() bool { return r.prof.Armed() }

// Profile snapshots the runtime profile from one pass over the ledgers
// (see books). Reading hardware counters costs one counter-read syscall
// per attached event; the software side is plain atomic loads.
func (r *Runtime) Profile() Profile {
	snap := r.readBooks().prof
	p := Profile{
		Enabled: snap.Armed,
		Workers: make([]WorkerProfile, r.workers),
		Squads:  make([]SquadProfile, r.topo.Sockets),
		Flow:    snap.SquadFlow(r.topo.Sockets, r.topo.SquadOf),
	}
	for sq := range p.Squads {
		p.Squads[sq].Squad = sq
	}
	for w := 0; w < r.workers; w++ {
		wp := &p.Workers[w]
		wp.Worker = w
		wp.Squad = r.topo.SquadOf(w)
		wp.State = obs.StateName(snap.States[w])
		wp.Times = snap.Workers[w]
		if g := r.hwcGroups[w].Load(); g != nil {
			wp.HW = g.Read()
			wp.HWOk = true
			p.HWCAvailable = true
		}
		s := &p.Squads[wp.Squad]
		s.Times.Add(wp.Times)
		if wp.HWOk {
			s.HW.Add(wp.HW)
			s.HWOk = true
		}
	}
	return p
}
