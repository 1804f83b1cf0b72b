package cab

import (
	"time"

	"cab/internal/hwc"
	"cab/internal/obs"
)

// StateTimes is a worker's (or squad's) accumulated wall time per
// scheduler state — the time-in-state half of the profile. The five
// states partition a worker's life: executing task bodies, scanning
// squad-mates' deques, scanning remote squads' pools, waiting at the
// admission seam for root work, and parked on the eventcount.
type StateTimes struct {
	Exec      time.Duration `json:"exec"`
	ScanIntra time.Duration `json:"scan_intra"`
	ScanInter time.Duration `json:"scan_inter"`
	Park      time.Duration `json:"park"`
	AdmitWait time.Duration `json:"admit_wait"`
}

// Total sums all states.
func (t StateTimes) Total() time.Duration {
	return t.Exec + t.ScanIntra + t.ScanInter + t.Park + t.AdmitWait
}

func stateTimes(w obs.WorkerTimes) StateTimes {
	return StateTimes{
		Exec:      time.Duration(w[obs.StateExec]),
		ScanIntra: time.Duration(w[obs.StateScanIntra]),
		ScanInter: time.Duration(w[obs.StateScanInter]),
		Park:      time.Duration(w[obs.StatePark]),
		AdmitWait: time.Duration(w[obs.StateAdmitWait]),
	}
}

// FlowCell is one entry of the squad×squad steal-flow matrix: probes the
// thief squad issued against the victim squad, probes that found work,
// and task frames moved.
type FlowCell struct {
	Probes int64 `json:"probes"`
	Hits   int64 `json:"hits"`
	Frames int64 `json:"frames"`
}

// HWCounters is a hardware-counter reading (cumulative since worker
// start). Valid reports whether a perf group is attached at all; the
// per-counter Has* flags mark events that failed to open individually
// (e.g. LLC events under a VM's limited PMU) — those counters read 0 and
// should be displayed as absent, not zero.
type HWCounters struct {
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	LLCLoads     uint64 `json:"llc_loads"`
	LLCMisses    uint64 `json:"llc_misses"`

	Valid           bool `json:"valid"`
	HasCycles       bool `json:"has_cycles"`
	HasInstructions bool `json:"has_instructions"`
	HasLLCLoads     bool `json:"has_llc_loads"`
	HasLLCMisses    bool `json:"has_llc_misses"`
}

// WorkerProfile is one worker's slice of the profile.
type WorkerProfile struct {
	Worker int        `json:"worker"`
	Squad  int        `json:"squad"`
	State  string     `json:"state"` // current state: "exec", "scan_intra", ...
	Times  StateTimes `json:"times"`
	HW     HWCounters `json:"hw"`
}

// SquadProfile rolls the worker profiles up per squad (= per socket).
type SquadProfile struct {
	Squad int        `json:"squad"`
	Times StateTimes `json:"times"`
	HW    HWCounters `json:"hw"`
}

// Profile is the scheduler X-ray: per-worker and per-squad time-in-state
// accounting, the squad×squad steal-flow matrix, and hardware counters
// where the host grants them. Snapshots are cumulative; diff two to
// window a load interval (cabtop renders exactly that delta).
type Profile struct {
	// Enabled reports whether time-in-state accounting is armed.
	// Disarmed, state times stay frozen at their last values; the flow
	// matrix counts regardless.
	Enabled bool `json:"enabled"`
	// HWCAvailable is the explicit degradation signal: false means no
	// worker could attach perf counters (non-Linux, no permissions, no
	// PMU) and the profile is software-only — exported on /metricz as
	// cab_hwc_available 0.
	HWCAvailable bool            `json:"hwc_available"`
	Workers      []WorkerProfile `json:"workers"`
	Squads       []SquadProfile  `json:"squads"`
	// Flow[i][j]: squad i stealing from squad j. The diagonal is the
	// intra-socket distance class, off-diagonal the inter-socket class.
	// It is the steal ledger, always counting since New: Stats and
	// SquadStats fold their probe and steal fields from the same cells,
	// so row i's Hits sum equals squad i's StealsIntra+StealsInter when
	// both are read at once (hits stop moving once no job is running).
	Flow [][]FlowCell `json:"flow"`
}

func hwCounters(c hwc.Counters, valid bool) HWCounters {
	return HWCounters{
		Cycles: c.Cycles, Instructions: c.Instructions,
		LLCLoads: c.LLCLoads, LLCMisses: c.LLCMisses,
		Valid:     valid,
		HasCycles: c.HasCycles, HasInstructions: c.HasInstructions,
		HasLLCLoads: c.HasLLCLoads, HasLLCMisses: c.HasLLCMisses,
	}
}

// Profile snapshots the profiling state — see the Profile type. Cheap
// enough to poll: atomic loads plus one read syscall per attached
// hardware counter.
func (s *Scheduler) Profile() Profile {
	rp := s.rt.Profile()
	p := Profile{
		Enabled:      rp.Enabled,
		HWCAvailable: rp.HWCAvailable,
		Workers:      make([]WorkerProfile, len(rp.Workers)),
		Squads:       make([]SquadProfile, len(rp.Squads)),
		Flow:         make([][]FlowCell, len(rp.Flow)),
	}
	for i, wp := range rp.Workers {
		p.Workers[i] = WorkerProfile{
			Worker: wp.Worker, Squad: wp.Squad, State: wp.State,
			Times: stateTimes(wp.Times), HW: hwCounters(wp.HW, wp.HWOk),
		}
	}
	for i, sp := range rp.Squads {
		p.Squads[i] = SquadProfile{
			Squad: sp.Squad, Times: stateTimes(sp.Times),
			HW: hwCounters(sp.HW, sp.HWOk),
		}
	}
	for i, row := range rp.Flow {
		cells := make([]FlowCell, len(row))
		for j, c := range row {
			cells[j] = FlowCell(c)
		}
		p.Flow[i] = cells
	}
	return p
}

// StartProfile arms time-in-state accounting on a live scheduler.
// In-progress state segments begin at the moment of arming.
func (s *Scheduler) StartProfile() { s.rt.EnableProfiling() }

// StopProfile disarms time-in-state accounting, settling in-progress
// segments. The frozen state times remain readable via Profile.
func (s *Scheduler) StopProfile() { s.rt.DisableProfiling() }

// Profiling reports whether time-in-state accounting is armed.
func (s *Scheduler) Profiling() bool { return s.rt.Profiling() }
