package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/fault"
)

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Map is the initial shard map (required).
	Map *Map
	// ConfigPath, when set, is re-read by POST /admin/reload.
	ConfigPath string
	// ProbeInterval is how often each shard is health-probed. <= 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe. <= 0 selects 2s.
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one forwarded request end to end (connect,
	// response headers and body). A shard that accepts connections but never
	// answers turns into a 503 after this long instead of a hung client
	// connection. <= 0 selects 30s.
	ForwardTimeout time.Duration
	// DownAfter is the consecutive failures (probe or forward) that mark a
	// shard down. <= 0 selects 2. A down shard is probed on a jittered
	// capped-exponential backoff (base ProbeInterval, cap 10x) rather than
	// the fixed interval, so a long-dead shard is not hammered while a
	// freshly-promoted standby is still noticed quickly.
	DownAfter int
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	return c
}

// shardState is the router's live view of one shard: its address, a
// dedicated connection pool, and prober-maintained health. The transport is
// per shard by design — a dead or stalled shard can exhaust only its own
// pool, never another shard's (regression-locked by test).
type shardState struct {
	name    string
	addr    string
	client  *http.Client
	tr      *http.Transport
	healthy atomic.Bool
	fails   atomic.Int32 // consecutive failures, fed by prober and forwards
	stop    chan struct{}
}

// Router forwards the jitd JSON API across a shard cluster: session-scoped
// requests go to the shard owning the session ID (rendezvous hashing over
// shard names), session creation and the read-only catalog endpoints
// round-robin over healthy shards, and a down shard answers an immediate
// 503 with Retry-After instead of a hung connection.
type Router struct {
	cfg RouterConfig

	mu     sync.RWMutex
	m      *Map
	order  []*shardState // map order, for round-robin
	byName map[string]*shardState

	rr      atomic.Uint64
	metrics *routerMetrics
	mux     *http.ServeMux
	closed  atomic.Bool
}

// NewRouter builds a Router over cfg.Map and starts its health probers.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Map == nil || len(cfg.Map.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs a non-empty shard map")
	}
	rt := &Router{
		cfg:    cfg,
		byName: make(map[string]*shardState),
	}
	rt.metrics = newRouterMetrics(rt.health)
	rt.apply(cfg.Map)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", rt.metrics.reg)
	mux.HandleFunc("POST /admin/reload", rt.handleReload)
	mux.HandleFunc("GET /admin/map", rt.handleMap)
	mux.HandleFunc("GET /admin/owner", rt.handleOwner)
	mux.HandleFunc("/", rt.forward)
	rt.mux = mux
	return rt, nil
}

// newShardState builds the per-shard connection pool and starts its prober.
func (rt *Router) newShardState(name, addr string) *shardState {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	s := &shardState{
		name: name,
		addr: addr,
		tr:   tr,
		// The client timeout is the whole-exchange bound: connect, headers,
		// and body copy. It is what turns a stalled shard into a 503.
		client: &http.Client{Transport: tr, Timeout: rt.cfg.ForwardTimeout},
		stop:   make(chan struct{}),
	}
	s.healthy.Store(true) // optimistic until the prober learns otherwise
	go rt.probeLoop(s)
	return s
}

// apply swaps the live shard map in. States are kept (pool, health and all)
// for shards whose name+addr are unchanged; an address change — the
// failover case, where a reload re-points a shard name at its promoted
// standby — gets a fresh pool and fresh optimistic health. Ownership is a
// function of names only, so sessions never move under a reload.
func (rt *Router) apply(m *Map) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.byName
	rt.byName = make(map[string]*shardState, len(m.Shards))
	rt.order = make([]*shardState, 0, len(m.Shards))
	for _, sh := range m.Shards {
		if prev, ok := old[sh.Name]; ok && prev.addr == sh.Addr {
			rt.byName[sh.Name] = prev
			rt.order = append(rt.order, prev)
			delete(old, sh.Name)
			continue
		}
		s := rt.newShardState(sh.Name, sh.Addr)
		rt.byName[sh.Name] = s
		rt.order = append(rt.order, s)
	}
	for _, prev := range old { // removed or re-addressed: retire the pool
		close(prev.stop)
		prev.tr.CloseIdleConnections()
	}
	rt.m = m
}

// Reload installs a new shard map.
func (rt *Router) Reload(m *Map) { rt.apply(m) }

// Close stops the probers and releases every pool.
func (rt *Router) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, s := range rt.order {
		close(s.stop)
		s.tr.CloseIdleConnections()
	}
	rt.order = nil
	rt.byName = map[string]*shardState{}
}

// probeLoop health-checks one shard until its state is retired. The probe
// target is the static catalog endpoint — cheap, allocation-light on the
// shard, and (deliberately) gated on the shard actually serving the API: a
// standby answers it 503 until promoted, so the router never routes to an
// unpromoted standby even if a reload points at one early.
//
// The loop is a circuit breaker: a healthy shard is probed at the fixed
// ProbeInterval, but once marked down its probes back off exponentially
// (jittered, capped at 10x ProbeInterval) — a dead shard costs a trickle of
// probes instead of a steady hammer, while the cap keeps a promoted standby
// from waiting long to be noticed. Any probe success snaps the schedule back
// to the base interval.
func (rt *Router) probeLoop(s *shardState) {
	retry := fault.Backoff{Base: rt.cfg.ProbeInterval, Max: 10 * rt.cfg.ProbeInterval}
	for {
		wait := rt.cfg.ProbeInterval
		if !s.healthy.Load() {
			wait = retry.Next()
		}
		t := time.NewTimer(wait)
		select {
		case <-s.stop:
			t.Stop()
			return
		case <-t.C:
			if rt.probeOnce(s) {
				retry.Reset()
			}
		}
	}
}

func (rt *Router) probeOnce(s *shardState) bool {
	// A dedicated tiny client: probes must not compete with (or be stalled
	// by) forwarded traffic's pool, and must carry their own short timeout.
	req, err := http.NewRequest(http.MethodGet, "http://"+s.addr+"/api/questions", nil)
	if err != nil {
		return false
	}
	cl := &http.Client{Transport: s.tr, Timeout: rt.cfg.ProbeTimeout}
	resp, err := cl.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}
	if ok {
		s.fails.Store(0)
		s.healthy.Store(true)
		return true
	}
	rt.noteFailure(s)
	return false
}

// noteFailure records one failed exchange with a shard (probe or forward)
// and opens the breaker once the consecutive-failure threshold is crossed.
func (rt *Router) noteFailure(s *shardState) {
	if s.fails.Add(1) >= int32(rt.cfg.DownAfter) {
		s.healthy.Store(false)
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// pick resolves the target shard for a request path, or returns a
// description of why it cannot.
func (rt *Router) pick(r *http.Request) (*shardState, error) {
	path := r.URL.Path
	if !strings.HasPrefix(path, "/api/") {
		return nil, errNotRoutable
	}
	if id, ok := sessionIDFromPath(path); ok {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		s := rt.byName[rt.m.Owner(id)]
		if s == nil {
			return nil, fmt.Errorf("no shard owns session %q", id)
		}
		return s, nil
	}
	// Session creation and the catalog endpoints are shard-agnostic:
	// creation because every shard mints only IDs it owns (so the response's
	// ID routes back to wherever the session landed), the catalog because
	// every shard serves the same trained system.
	return rt.pickHealthyRR()
}

var errNotRoutable = fmt.Errorf("not an API path")

// sessionIDFromPath extracts the {id} of /api/sessions/{id}[/...].
func sessionIDFromPath(path string) (string, bool) {
	const prefix = "/api/sessions/"
	if !strings.HasPrefix(path, prefix) {
		return "", false
	}
	rest := path[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// pickHealthyRR round-robins over healthy shards.
func (rt *Router) pickHealthyRR() (*shardState, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	n := len(rt.order)
	if n == 0 {
		return nil, fmt.Errorf("shard map is empty")
	}
	start := int(rt.rr.Add(1))
	for i := 0; i < n; i++ {
		s := rt.order[(start+i)%n]
		if s.healthy.Load() {
			return s, nil
		}
	}
	return nil, fmt.Errorf("no healthy shard")
}

// forward proxies one API request to its shard.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request) {
	s, err := rt.pick(r)
	if err != nil {
		if err == errNotRoutable {
			http.NotFound(w, r)
			return
		}
		rt.unavailable(w, "any", err)
		return
	}
	sm := rt.metrics.shard(s.name)
	if !s.healthy.Load() {
		// Down shards fail fast: an immediate 503 with a retry hint beats a
		// connection that hangs until some deep timeout. The prober flips
		// the shard back the moment it answers again (or its promoted
		// standby does, after a reload re-points the address).
		sm.unavailable.Inc()
		rt.unavailable(w, s.name, fmt.Errorf("shard %s is down", s.name))
		return
	}

	outURL := *r.URL
	outURL.Scheme = "http"
	outURL.Host = s.addr
	out, err := http.NewRequestWithContext(r.Context(), r.Method, outURL.String(), r.Body)
	if err != nil {
		rt.unavailable(w, s.name, err)
		return
	}
	out.Header = r.Header.Clone()

	start := time.Now()
	resp, err := s.client.Do(out)
	if err != nil && idempotent(r.Method) && r.Context().Err() == nil {
		// One retry for idempotent reads on a fresh attempt: a read that
		// died to a stale keep-alive connection or a mid-restart shard is
		// safe to replay (it has no body and no side effects).
		sm.retries.Inc()
		out2, rerr := http.NewRequestWithContext(r.Context(), r.Method, outURL.String(), nil)
		if rerr == nil {
			out2.Header = r.Header.Clone()
			resp, err = s.client.Do(out2)
		}
	}
	if err != nil {
		sm.errors.Inc()
		sm.latency.Observe(time.Since(start))
		// Forward failures feed the same breaker the prober does: a shard
		// that just refused traffic should fail fast for the next request
		// instead of waiting for the prober to notice.
		rt.noteFailure(s)
		rt.unavailable(w, s.name, fmt.Errorf("forward to shard %s failed: %w", s.name, err))
		return
	}
	defer resp.Body.Close()
	sm.forwarded.Inc()
	s.fails.Store(0)

	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	d := time.Since(start)
	sm.latency.Observe(d)
	sm.observeOK(d)
}

// idempotent reports whether a method is safe to replay blind.
func idempotent(method string) bool {
	return method == http.MethodGet || method == http.MethodHead
}

// unavailable answers 503 + Retry-After — the router's contract for any
// shard it cannot reach right now. The retry hint is derived from the
// shard's observed forward latency rather than a constant: a client of a
// shard that answers in microseconds can retry in a second, while one whose
// requests already took seconds should wait proportionally longer.
func (rt *Router) unavailable(w http.ResponseWriter, shard string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterSecs(shard)))
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf("shard unavailable: %v", err),
		"shard": shard,
	})
}

// retryAfterSecs turns a shard's observed mean forward latency into a
// Retry-After hint: four mean service times (successful forwards only, so
// timeout-bound failures don't inflate the hint), floored at 1s and capped
// at 30s. A shard with no successful forwards yet (or the synthetic "any"
// shard) gets the 1s floor.
func (rt *Router) retryAfterSecs(shard string) int {
	meanUs := rt.metrics.shard(shard).meanOKUs()
	secs := int((4*meanUs + 999999) / 1000000)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// health snapshots shard name -> healthy.
func (rt *Router) health() map[string]bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]bool, len(rt.order))
	for _, s := range rt.order {
		out[s.name] = s.healthy.Load()
	}
	return out
}

// handleReload re-reads the shard map file and applies it. Shards whose
// name+addr are unchanged keep their pools and health; the rest are
// rebuilt. This is the failover lever: rewrite the file so the dead shard's
// addr points at its promoted standby, then POST here.
func (rt *Router) handleReload(w http.ResponseWriter, _ *http.Request) {
	if rt.cfg.ConfigPath == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "router was started without a -cluster-config file"})
		return
	}
	m, err := LoadMap(rt.cfg.ConfigPath)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rt.apply(m)
	writeJSON(w, http.StatusOK, map[string]interface{}{"reloaded": true, "shards": m.Shards})
}

// handleMap reports the live shard map with health.
func (rt *Router) handleMap(w http.ResponseWriter, _ *http.Request) {
	rt.mu.RLock()
	m := rt.m
	rt.mu.RUnlock()
	health := rt.health()
	type row struct {
		Name    string `json:"name"`
		Addr    string `json:"addr"`
		Standby string `json:"standby,omitempty"`
		Healthy bool   `json:"healthy"`
	}
	rows := make([]row, len(m.Shards))
	for i, sh := range m.Shards {
		rows[i] = row{Name: sh.Name, Addr: sh.Addr, Standby: sh.Standby, Healthy: health[sh.Name]}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"shards": rows})
}

// handleOwner answers which shard owns a session ID (?id=...): the
// debugging/ops view of the hash function.
func (rt *Router) handleOwner(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ?id="})
		return
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	name := rt.m.Owner(id)
	sh := rt.m.ByName(name)
	writeJSON(w, http.StatusOK, map[string]string{"shard": name, "addr": sh.Addr})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
