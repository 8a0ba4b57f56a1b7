package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"justintime/internal/obs"
	"justintime/internal/obs/obstest"
)

// quietLogger keeps the access log (Info for slow requests — and with a 1ns
// threshold everything is slow) out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// slowTraces fetches and decodes /debug/requests/slow.
func slowTraces(t *testing.T, srv *httptest.Server) []obs.TraceSnapshot {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/requests/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests/slow: %d", resp.StatusCode)
	}
	var out struct {
		ThresholdUS int64               `json:"threshold_us"`
		Traces      []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

// findTrace returns the newest slow trace matching method+route, or nil.
func findTrace(traces []obs.TraceSnapshot, method, route string) *obs.TraceSnapshot {
	for i := range traces {
		if traces[i].Method == method && traces[i].Route == route {
			return &traces[i]
		}
	}
	return nil
}

// TestSlowRequestTraceTree is the PR's acceptance flow: with durability and
// paged storage on and a 1ns slow threshold, a request against an evicted
// session must land in /debug/requests/slow carrying the full span tree —
// server route → session.get → session.rehydrate, the SQL layer's sql.query
// with plan shape / cache / row attrs and rendered plan text, and the
// pager's fault attribution.
func TestSlowRequestTraceTree(t *testing.T) {
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{
		DataDir:          t.TempDir(),
		BufferPoolPages:  16,
		MaxSessions:      1,
		SlowRequest:      time.Nanosecond, // everything is slow: the test seam
		TraceSampleEvery: 1,
		Logger:           quietLogger(),
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	idA := createSession(t, srv, nil)
	_ = createSession(t, srv, nil) // cap of 1: evicts A

	// First touch after eviction: rehydrates from disk, then a full scan
	// that must fault its pages back in through the pool.
	// SELECT * cannot be answered from a covering index, so the executor
	// must walk the paged store itself (a tracked full scan).
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+idA+"/sql",
		map[string]string{"query": "SELECT * FROM candidates"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction sql: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response is missing the X-Request-Id header")
	}
	// An indexed question on the now-resident session: the plan event must
	// carry the planner's shape and cache attributes.
	if code, _ := askText(t, srv, idA, "no-modification"); code != http.StatusOK {
		t.Fatalf("ask after rehydration: %d", code)
	}

	traces := slowTraces(t, srv)

	// The rehydrating SQL request's tree.
	tr := findTrace(traces, "POST", "/api/sessions/{id}/sql")
	if tr == nil {
		t.Fatal("no slow trace recorded for the SQL request")
	}
	get := tr.Root.Find("session.get")
	if get == nil {
		t.Fatal("session.get span missing from the SQL trace")
	}
	if got := get.AttrVal("result"); got != "rehydrate" {
		t.Fatalf("session.get result = %q, want rehydrate", got)
	}
	if get.Find("session.rehydrate") == nil {
		t.Fatal("session.rehydrate span missing under session.get")
	}
	if get.AttrVal("lock_wait_us") == "" {
		t.Fatal("session.get is missing the lock_wait_us attr")
	}
	if tr.Root.Find("sql.parse") == nil {
		t.Fatal("sql.parse event missing from the SQL trace")
	}
	q := tr.Root.Find("sql.query")
	if q == nil {
		t.Fatal("sql.query span missing from the SQL trace")
	}
	if !strings.Contains(q.AttrVal("stmt"), "SELECT * FROM candidates") {
		t.Fatalf("sql.query stmt attr = %q", q.AttrVal("stmt"))
	}
	if n, _ := strconv.Atoi(q.AttrVal("rows")); n < 1 {
		t.Fatalf("sql.query rows attr = %q, want >= 1", q.AttrVal("rows"))
	}
	plan := q.Find("plan")
	if plan == nil {
		t.Fatal("plan event missing from sql.query")
	}
	if got := plan.AttrVal("plan_shape"); got != "full_scan" {
		t.Fatalf("plan_shape = %q, want full_scan", got)
	}
	if q.AttrVal("plan_text") == "" {
		t.Fatal("slow sql.query is missing the rendered plan_text")
	}
	faults := q.Find("pager.faults")
	if faults == nil {
		t.Fatal("pager.faults event missing: the post-rehydration scan must fault pages in")
	}
	if n, _ := strconv.Atoi(faults.AttrVal("faults")); n < 1 {
		t.Fatalf("pager.faults faults attr = %q, want >= 1", faults.AttrVal("faults"))
	}

	// The ask request's tree: planner attrs on the canned question's query.
	ask := findTrace(traces, "POST", "/api/sessions/{id}/ask")
	if ask == nil {
		t.Fatal("no slow trace recorded for the ask request")
	}
	// A resident hit annotates the request's root span directly instead of
	// opening a session.get child.
	if got := ask.Root.AttrVal("session_result"); got != "hit" {
		t.Fatalf("ask session_result = %q, want hit (already resident)", got)
	}
	aq := ask.Root.Find("sql.query")
	if aq == nil {
		t.Fatal("sql.query span missing from the ask trace")
	}
	// The plan decision is a "plan" event on a cache miss, or plain attrs on
	// the sql.query span on a cache hit; either way the shape and the cache
	// verdict must be recorded.
	ap := aq.Find("plan")
	if ap == nil {
		ap = aq
	}
	if ap.AttrVal("plan_shape") == "" {
		t.Fatal("ask trace has no plan_shape attr (neither plan event nor span attr)")
	}
	if got := ap.AttrVal("plan_cached"); got != "true" && got != "false" {
		t.Fatalf("plan_cached = %q, want true or false", got)
	}
}

// TestRecentRingSampling checks the fast-request path end to end over HTTP:
// with a high slow threshold and 1-in-1 sampling every request lands in the
// recent ring, and /debug/requests serves it newest first.
func TestRecentRingSampling(t *testing.T) {
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{SlowRequest: time.Hour, TraceSampleEvery: 1, Logger: quietLogger()})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	for i := 0; i < 3; i++ {
		if resp, _ := getJSON(t, srv.URL+"/api/questions"); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /api/questions: %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Finished uint64              `json:"finished"`
		Kept     uint64              `json:"kept"`
		Traces   []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Finished != 3 || out.Kept != 3 {
		t.Fatalf("finished=%d kept=%d, want 3/3 at 1-in-1 sampling", out.Finished, out.Kept)
	}
	if len(out.Traces) != 3 {
		t.Fatalf("recent ring holds %d traces, want 3", len(out.Traces))
	}
	for _, snap := range out.Traces {
		if snap.Route != "/api/questions" || snap.Status != http.StatusOK {
			t.Fatalf("unexpected trace in recent ring: %+v", snap)
		}
	}
}

// scrape serves GET /metrics from h and parses it, failing t on any
// exposition-format violation (obstest checks the histogram invariants).
func scrape(t *testing.T, h http.Handler) *obstest.Exposition {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	e, err := obstest.Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	return e
}

// scrapeMetric returns one sample's value from h's /metrics, failing t when
// the sample is absent.
func scrapeMetric(t *testing.T, h http.Handler, sample string) float64 {
	t.Helper()
	v, ok := scrape(t, h).Values[sample]
	if !ok {
		t.Fatalf("/metrics has no sample %s", sample)
	}
	return v
}

// TestMetricsExposition scrapes /metrics after real traffic: the text must
// satisfy the exposition invariants, the ask must land in its route and
// question histograms, and the families the dashboards depend on must be
// present.
func TestMetricsExposition(t *testing.T) {
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{Logger: quietLogger()})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	id := createSession(t, srv, nil)
	if code, _ := askText(t, srv, id, "no-modification"); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics over HTTP: %d", resp.StatusCode)
	}
	e := scrape(t, h)
	for _, sample := range []string{
		`jitd_http_request_duration_seconds_count{route="/api/sessions/{id}/ask"}`,
		`jitd_question_duration_seconds_count{kind="no-modification"}`,
	} {
		if e.Values[sample] < 1 {
			t.Errorf("%s = %v, want >= 1 after an ask", sample, e.Values[sample])
		}
	}
	for _, want := range []string{
		"jitd_sessions_live", "jitd_traces_finished_total", "jitd_plan_shapes_total",
		"jitd_plan_cache_total", "jitd_pool_fault_duration_seconds",
	} {
		if _, ok := e.Types[want]; !ok {
			t.Errorf("/metrics is missing %s", want)
		}
	}
	body := strings.Join(e.Families(), "\n")
	// Sessions are written once at creation: no WAL or checkpoint family.
	for _, gone := range []string{"jitd_wal_", "jitd_checkpoint"} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics still exports a %s* family", gone)
		}
	}
}
