package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/obs"
)

// shardMetrics is the per-shard slice of the router's series.
type shardMetrics struct {
	forwarded   *obs.Counter // requests forwarded (a response came back)
	retries     *obs.Counter // idempotent reads retried after a transport error
	errors      *obs.Counter // forwards that failed after any retry
	unavailable *obs.Counter // requests answered 503 locally (shard down / no address)
	latency     *obs.Histogram

	// okCount/okSumUs track successful forwards only — the shard's actual
	// service time, excluding failed forwards whose duration measures our
	// own dial/response timeouts. This is the series the derived Retry-After
	// hint reads; the full histogram above keeps recording everything.
	okCount atomic.Int64
	okSumUs atomic.Int64
}

// observeOK records one successful forward's duration.
func (sm *shardMetrics) observeOK(d time.Duration) {
	sm.okCount.Add(1)
	sm.okSumUs.Add(d.Microseconds())
}

// meanOKUs returns the mean successful-forward latency in microseconds
// (0 with no successful forwards yet).
func (sm *shardMetrics) meanOKUs() int64 {
	n := sm.okCount.Load()
	if n == 0 {
		return 0
	}
	return sm.okSumUs.Load() / n
}

// routerMetrics is the router's registry (served on /metrics) plus a cache
// of each shard's series in it.
type routerMetrics struct {
	reg                                     *obs.Registry
	forwarded, retries, errors, unavailable obs.Vec[obs.Counter]
	latency                                 obs.Vec[obs.Histogram]

	mu     sync.Mutex
	shards map[string]*shardMetrics
}

// newRouterMetrics builds the registry; health reports shard name ->
// currently healthy for the gauge family.
func newRouterMetrics(health func() map[string]bool) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg:         r,
		forwarded:   r.CounterVec("jitrouter_forwarded_total", "Requests forwarded to a shard that returned a response.", "shard"),
		retries:     r.CounterVec("jitrouter_retries_total", "Idempotent reads retried once after a transport error.", "shard"),
		errors:      r.CounterVec("jitrouter_forward_errors_total", "Forwards that failed after any retry (answered 503).", "shard"),
		unavailable: r.CounterVec("jitrouter_unavailable_total", "Requests answered 503 locally because the shard was marked down.", "shard"),
		latency:     r.HistogramVec("jitrouter_forward_duration_seconds", "Forward latency by shard (router-side, includes the shard's own service time).", "shard"),
		shards:      make(map[string]*shardMetrics),
	}
	r.VecFunc("jitrouter_shard_healthy", "Shard health as seen by the router's prober (1 = up).", "gauge", "shard", func() map[string]int64 {
		out := make(map[string]int64)
		for name, up := range health() {
			out[name] = 0
			if up {
				out[name] = 1
			}
		}
		return out
	})
	return m
}

// shard returns (creating on first use) the series for a shard name.
func (m *routerMetrics) shard(name string) *shardMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm, ok := m.shards[name]
	if !ok {
		sm = &shardMetrics{
			forwarded:   m.forwarded.With(name),
			retries:     m.retries.With(name),
			errors:      m.errors.With(name),
			unavailable: m.unavailable.With(name),
			latency:     m.latency.With(name),
		}
		m.shards[name] = sm
	}
	return sm
}
