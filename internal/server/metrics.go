package server

import (
	"justintime/internal/core"
	"justintime/internal/fault"
	"justintime/internal/obs"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

// registerMetrics adds the Server's families to its registry (served on
// /metrics) beside the session manager's own: admission and degraded-mode
// counters, planner and plan-cache counters, buffer-pool counters,
// replication state, trace-collector totals, and the per-route, per-question
// and page-fault latency histograms.
func (s *Server) registerMetrics() {
	r := s.reg
	s.createsRejected = r.Counter("jitd_creates_rejected_total", "Session creations refused with 429 (admission queue full).")
	r.GaugeFunc("jitd_degraded_mode", "1 while the server is in read-only degraded mode (data dir not writable).",
		func() int64 { return boolInt(s.degraded.Load()) })
	s.degradedRejects = r.Counter("jitd_degraded_rejected_total", "Mutations refused with 503 while in degraded mode.")
	// The injectors, planner and plan cache count process-wide.
	r.CounterFunc("jitd_fault_disk_injected_total", "Injected disk faults fired (chaos harness).", fault.DiskInjected)
	r.CounterFunc("jitd_fault_net_injected_total", "Injected network faults fired (chaos harness).", fault.NetInjected)
	r.VecFunc("jitd_plan_shapes_total", "Query plans chosen, by access-path/join shape.", "counter", "shape",
		func() map[string]int64 { return int64s(sqldb.PlanCounters()) })
	r.VecFunc("jitd_plan_cache_total", "Plan-cache events, by kind.", "counter", "event",
		func() map[string]int64 { return int64s(sqldb.PlanCacheCounters()) })

	poolStats, faults := func() pager.Stats { return pager.Stats{} }, new(obs.Histogram)
	if s.pool != nil {
		poolStats, faults = s.pool.Stats, s.pool.FaultLatency()
	}
	r.CounterFunc("jitd_pool_hits_total", "Buffer-pool page requests served from a resident frame.", func() int64 { return poolStats().Hits })
	r.CounterFunc("jitd_pool_misses_total", "Buffer-pool page requests that faulted a page in from disk.", func() int64 { return poolStats().Misses })
	r.CounterFunc("jitd_pool_evictions_total", "Buffer-pool frames evicted to make room.", func() int64 { return poolStats().Evictions })
	r.CounterFunc("jitd_pool_dirty_writebacks_total", "Dirty buffer-pool frames written back on eviction.", func() int64 { return poolStats().DirtyWritebacks })
	r.GaugeFunc("jitd_pool_pinned", "Buffer-pool frames currently pinned by queries.", func() int64 { return poolStats().Pinned })
	r.GaugeFunc("jitd_pool_resident_pages", "Buffer-pool frames currently mapped to a page.", func() int64 { return poolStats().Resident })
	r.Histogram("jitd_pool_fault_duration_seconds", "Buffer-pool page-fault read latency.", faults)

	if sh := s.shipper; sh != nil {
		r.GaugeFunc("jitd_replication_connected", "Primary-side replication feed is connected (1 = yes).", func() int64 { return boolInt(sh.Stats().Connected) })
		r.GaugeFunc("jitd_replication_lag_records", "Replication events queued or shipped but unacknowledged.", func() int64 { return sh.Stats().LagRecords })
		r.CounterFunc("jitd_replication_shipped_records_total", "Replication frames shipped to the standby.", func() int64 { return sh.Stats().ShippedRecords })
		r.CounterFunc("jitd_replication_shipped_bytes_total", "Replication payload bytes shipped to the standby.", func() int64 { return sh.Stats().ShippedBytes })
		r.CounterFunc("jitd_replication_syncs_total", "Session file sets shipped (create, handshake diff).", func() int64 { return sh.Stats().Syncs })
		r.CounterFunc("jitd_replication_deletes_total", "Session deletions shipped to the standby.", func() int64 { return sh.Stats().Deletes })
		r.CounterFunc("jitd_replication_reconnects_total", "Times the replication feed (re)connected.", func() int64 { return sh.Stats().Reconnects })
		r.CounterFunc("jitd_replication_overflows_total", "Times the ship queue overflowed and forced a re-handshake.", func() int64 { return sh.Stats().Overflows })
	}

	r.CounterFunc("jitd_traces_finished_total", "Requests whose trace completed (sampled or not).",
		func() int64 { n, _, _ := s.collector.Stats(); return int64(n) })
	r.CounterFunc("jitd_traces_kept_total", "Fast-request traces kept by 1-in-N sampling.",
		func() int64 { _, n, _ := s.collector.Stats(); return int64(n) })
	r.CounterFunc("jitd_traces_kept_slow_total", "Slow-request traces kept unconditionally.",
		func() int64 { _, _, n := s.collector.Stats(); return int64(n) })

	// Routes are labelled by their registered pattern, never the raw URL,
	// and question kinds are a closed set, so both label sets are fixed.
	s.routes = r.HistogramVec("jitd_http_request_duration_seconds", "HTTP request latency by route.", "route")
	questions := r.HistogramVec("jitd_question_duration_seconds", "Canned-question latency by question kind.", "kind")
	s.questions = make(map[core.QuestionKind]*obs.Histogram)
	for _, k := range []core.QuestionKind{
		core.QNoModification, core.QMinimalFeatures, core.QDominantFeature,
		core.QMinimalOverall, core.QMaximalConfidence, core.QTurningPoint,
	} {
		s.questions[k] = questions.With(k.String())
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func int64s(m map[string]uint64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = int64(v)
	}
	return out
}
