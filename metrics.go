// Prometheus text exposition of the scheduler's observability data: the
// cache-line-sharded event counters (global and per squad), the job
// service counters, and the always-on latency histograms. cmd/cabserve
// serves this from /metricz; keeping the rendering here makes the format
// testable without an HTTP server and available to other front ends.
package cab

import (
	"io"
	"strconv"
	"time"

	"cab/internal/obs"
)

// WritePrometheus writes every scheduler metric to w in Prometheus text
// exposition format (version 0.0.4):
//
//   - cab_<event>_total counters — the Stats() view;
//   - cab_squad_<event>_total{squad="N"} — the SquadStats() breakdown, the
//     lens that shows whether intra-socket steals stay inside squads;
//   - cab_jobs_<state>_total — the job-service counters;
//   - cab_job_queue_wait_seconds, cab_job_run_seconds and
//     cab_steal_scan_seconds histograms with companion
//     *_quantile_seconds{q="0.5|0.95|0.99"} gauges.
//
// Collection is allocation-light and safe on a live scheduler: counters
// come from per-worker shards, histogram snapshots from atomic loads.
func (s *Scheduler) WritePrometheus(w io.Writer) {
	st := s.rt.Stats()
	obs.PromCounter(w, "cab_spawns_total", "Tasks created.", st.Spawns)
	obs.PromCounter(w, "cab_inter_spawns_total", "Tasks created into the inter-socket tier.", st.InterSpawns)
	obs.PromCounter(w, "cab_steals_intra_total", "Successful intra-socket steals.", st.StealsIntra)
	obs.PromCounter(w, "cab_steals_inter_total", "Successful inter-socket steals.", st.StealsInter)
	obs.PromCounter(w, "cab_failed_steals_total", "Empty or lost steal probes.", st.FailedSteals)
	obs.PromCounter(w, "cab_helps_total", "Tasks executed while a worker waited at a Sync.", st.Helps)

	per := s.rt.SquadStats()
	order := make([]string, len(per))
	families := []struct {
		name, help string
		get        func(i int) int64
	}{
		{"cab_squad_spawns_total", "Tasks created, by spawning worker's squad.", func(i int) int64 { return per[i].Spawns }},
		{"cab_squad_steals_intra_total", "Successful intra-socket steals, by thief's squad.", func(i int) int64 { return per[i].StealsIntra }},
		{"cab_squad_steals_inter_total", "Successful inter-socket steals, by thief's squad.", func(i int) int64 { return per[i].StealsInter }},
		{"cab_squad_failed_steals_total", "Empty or lost steal probes, by prober's squad.", func(i int) int64 { return per[i].FailedSteals }},
		{"cab_squad_helps_total", "Sync-helping executions, by helper's squad.", func(i int) int64 { return per[i].Helps }},
	}
	for i := range per {
		order[i] = strconv.Itoa(i)
	}
	for _, f := range families {
		vals := make(map[string]int64, len(per))
		for i := range per {
			vals[order[i]] = f.get(i)
		}
		obs.PromCounterVec(w, f.name, f.help, "squad", vals, order)
	}

	es := s.eng.Stats()
	obs.PromCounter(w, "cab_jobs_submitted_total", "Jobs admitted.", es.Submitted)
	obs.PromCounter(w, "cab_jobs_completed_total", "Jobs whose DAG fully drained.", es.Completed)
	obs.PromCounter(w, "cab_jobs_rejected_total", "Submissions refused with a full queue.", es.Rejected)
	obs.PromCounter(w, "cab_jobs_cancelled_total", "Jobs cancelled via context or Cancel.", es.Cancelled)
	obs.PromCounter(w, "cab_jobs_deadline_total", "Jobs cancelled by a passed deadline.", es.DeadlineExceeded)
	obs.PromCounter(w, "cab_jobs_retries_total", "Job re-admissions performed under the retry policy.", es.Retries)
	obs.PromCounter(w, "cab_jobs_retries_exhausted_total", "Jobs that settled with a retryable error anyway.", es.RetriesExhausted)

	h := s.rt.Health()
	obs.PromGauge(w, "cab_watchdog_stalled_workers", "Workers currently flagged as wedged by the watchdog.", float64(h.StalledWorkers))
	obs.PromCounter(w, "cab_watchdog_stalls_total", "Cumulative worker stall detections.", h.Stalls)
	obs.PromCounter(w, "cab_watchdog_stalls_recovered_total", "Stalled workers that progressed again.", h.StallsRecovered)
	obs.PromCounter(w, "cab_watchdog_job_overruns_total", "Jobs flagged past the overrun threshold.", h.JobOverruns)
	obs.PromCounter(w, "cab_watchdog_deadline_cancels_total", "Deadline cancellations enforced by the watchdog.", h.DeadlineCancels)
	obs.PromCounter(w, "cab_worker_deaths_total", "Workers declared dead and replaced by the supervisor.", h.WorkerDeaths)
	obs.PromGauge(w, "cab_quarantined_squads", "Squads currently quarantined (steal-only, no new root adoption).", float64(h.QuarantinedSquads))
	obs.PromGauge(w, "cab_jobs_running", "Admitted jobs not yet drained.", float64(h.RunningJobs))
	obs.PromGauge(w, "cab_jobs_queued", "Roots waiting in the admission queue.", float64(h.QueuedRoots))

	obs.PromGauge(w, "cab_boundary_level", "Boundary level BL in effect (0 = single-tier).", float64(s.bl))
	tracing := 0.0
	if s.rt.Tracing() {
		tracing = 1
	}
	obs.PromGauge(w, "cab_tracing_armed", "Whether event tracing is currently armed.", tracing)

	s.writeProfileMetrics(w)

	m := s.rt.Metrics()
	obs.PromHistogram(w, "cab_job_queue_wait", "Job submit-to-adoption latency.", m.QueueWait)
	obs.PromHistogram(w, "cab_job_run", "Job adoption-to-drain latency.", m.Run)
	obs.PromHistogram(w, "cab_steal_scan", "Idle steal-scan duration (first failed probe to work or park).", m.StealScan)
}

// writeProfileMetrics renders the scheduler X-ray series: profiling/hwc
// availability gauges, per-squad time-in-state counters, the squad×squad
// steal-flow matrix, and — when the host grants perf access — per-socket
// hardware counters. Hardware series are omitted entirely (not emitted
// as zeros) when unavailable; cab_hwc_available 0 is the explicit
// degradation signal the acceptance contract names.
func (s *Scheduler) writeProfileMetrics(w io.Writer) {
	p := s.Profile()
	armed := 0.0
	if p.Enabled {
		armed = 1
	}
	obs.PromGauge(w, "cab_profiling_armed", "Whether time-in-state accounting is armed (the steal-flow series always count).", armed)
	avail := 0.0
	if p.HWCAvailable {
		avail = 1
	}
	obs.PromGauge(w, "cab_hwc_available", "Whether hardware perf counters are attached (0 = software-only profile).", avail)

	states := make([]obs.Vec2Sample, 0, len(p.Squads)*5)
	for _, sp := range p.Squads {
		sq := strconv.Itoa(sp.Squad)
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"exec", sp.Times.Exec}, {"scan_intra", sp.Times.ScanIntra},
			{"scan_inter", sp.Times.ScanInter}, {"park", sp.Times.Park},
			{"admit_wait", sp.Times.AdmitWait},
		} {
			states = append(states, obs.Vec2Sample{V1: sq, V2: st.name, Val: st.d.Seconds()})
		}
	}
	obs.PromVec2(w, "cab_squad_state_seconds_total", "Accumulated worker wall time per scheduler state, by squad.",
		"counter", "squad", "state", states)

	n := len(p.Flow)
	probes := make([]obs.Vec2Sample, 0, n*n)
	hits := make([]obs.Vec2Sample, 0, n*n)
	frames := make([]obs.Vec2Sample, 0, n*n)
	for i, row := range p.Flow {
		src := strconv.Itoa(i)
		for j, c := range row {
			dst := strconv.Itoa(j)
			probes = append(probes, obs.Vec2Sample{V1: src, V2: dst, Val: float64(c.Probes)})
			hits = append(hits, obs.Vec2Sample{V1: src, V2: dst, Val: float64(c.Hits)})
			frames = append(frames, obs.Vec2Sample{V1: src, V2: dst, Val: float64(c.Frames)})
		}
	}
	obs.PromVec2(w, "cab_steal_flow_probes_total", "Steal probes issued by squad src against squad dst (diagonal = intra-socket).",
		"counter", "src", "dst", probes)
	obs.PromVec2(w, "cab_steal_flow_hits_total", "Steal probes by squad src that found work on squad dst.",
		"counter", "src", "dst", hits)
	obs.PromVec2(w, "cab_steal_flow_frames_total", "Task frames moved from squad dst to squad src by stealing.",
		"counter", "src", "dst", frames)

	if !p.HWCAvailable {
		return
	}
	hw := []struct {
		name, help string
		get        func(HWCounters) (uint64, bool)
	}{
		{"cab_socket_cycles_total", "CPU cycles counted on the squad's worker threads (user space).",
			func(c HWCounters) (uint64, bool) { return c.Cycles, c.HasCycles }},
		{"cab_socket_instructions_total", "Instructions retired on the squad's worker threads.",
			func(c HWCounters) (uint64, bool) { return c.Instructions, c.HasInstructions }},
		{"cab_socket_llc_loads_total", "Last-level-cache read accesses by the squad's worker threads.",
			func(c HWCounters) (uint64, bool) { return c.LLCLoads, c.HasLLCLoads }},
		{"cab_socket_llc_misses_total", "Last-level-cache read misses by the squad's worker threads.",
			func(c HWCounters) (uint64, bool) { return c.LLCMisses, c.HasLLCMisses }},
	}
	for _, fam := range hw {
		vals := make(map[string]int64, len(p.Squads))
		order := make([]string, 0, len(p.Squads))
		for _, sp := range p.Squads {
			if v, ok := fam.get(sp.HW); ok {
				sq := strconv.Itoa(sp.Squad)
				order = append(order, sq)
				vals[sq] = int64(v)
			}
		}
		if len(order) > 0 {
			obs.PromCounterVec(w, fam.name, fam.help, "socket", vals, order)
		}
	}
}
