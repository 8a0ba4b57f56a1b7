package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"justintime/internal/sqldb/persist"
)

// orderedCandidatesSQL gives a deterministic total order for row-for-row
// comparison (feature columns break any (time, diff, gap, p) ties).
const orderedCandidatesSQL = "SELECT * FROM candidates ORDER BY time, diff, gap, p"

func fetchCandidates(t *testing.T, srv *httptest.Server, id string) []string {
	t.Helper()
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+id+"/sql",
		map[string]string{"query": orderedCandidatesSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql: %d %v", resp.StatusCode, out)
	}
	rows, _ := out["rows"].([]interface{})
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(enc) // order-independent row-for-row comparison
	return enc
}

func askText(t *testing.T, srv *httptest.Server, id, kind string) (int, string) {
	t.Helper()
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+id+"/ask",
		map[string]interface{}{"kind": kind, "feature": "income", "alpha": 0.7})
	text, _ := out["text"].(string)
	return resp.StatusCode, text
}

var allKinds = []string{
	"no-modification", "minimal-features-set", "dominant-feature",
	"minimal-overall-modification", "maximal-confidence", "turning-point",
}

// TestRestartRecoversSession is the PR's acceptance test: stop a server the
// way jitd's SIGTERM path does (drain, close stores), start a
// fresh one over the same data dir, and the old session ID must answer every
// canned question from disk — no regeneration, and a candidates database
// identical row for row.
func TestRestartRecoversSession(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	cfg := Config{DataDir: dataDir}

	h1 := NewWithConfig(sys, cfg)
	srv1 := httptest.NewServer(h1)
	id := createSession(t, srv1, []string{"income <= old(income) * 1.5"})

	preRows := fetchCandidates(t, srv1, id)
	if len(preRows) == 0 {
		t.Fatal("no candidates generated")
	}
	preAnswers := make(map[string]string, len(allKinds))
	for _, kind := range allKinds {
		code, text := askText(t, srv1, id, kind)
		if code != http.StatusOK {
			t.Fatalf("pre-restart ask %s: %d", kind, code)
		}
		preAnswers[kind] = text
	}

	// The jitd shutdown sequence: drain requests, then close every store.
	if n := h1.Close(); n != 1 {
		t.Fatalf("closed %d sessions on shutdown, want 1", n)
	}
	srv1.Close()

	// "Relaunch" over the same data dir.
	h2 := NewWithConfig(sys, cfg)
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	defer h2.Close()

	for _, kind := range allKinds {
		code, text := askText(t, srv2, id, kind)
		if code != http.StatusOK {
			t.Fatalf("post-restart ask %s: %d", kind, code)
		}
		if text != preAnswers[kind] {
			t.Errorf("post-restart %s answer drifted:\n  pre:  %s\n  post: %s", kind, preAnswers[kind], text)
		}
	}
	if postRows := fetchCandidates(t, srv2, id); !reflect.DeepEqual(preRows, postRows) {
		t.Fatal("recovered candidates database is not row-for-row identical")
	}
	if got := h2.sessions.rehydrations.Value(); got != 1 {
		t.Fatalf("rehydrations = %d, want 1 (one disk load, no regeneration)", got)
	}
}

// sessionFiles reads every file of a session directory, keyed by name.
func sessionFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestEvictionRehydrates drives the TTL and LRU paths: an evicted session
// leaves memory (and bumps the right counter) but comes back from disk on
// the next request instead of 404ing. Sessions are written once: no
// eviction, rehydration or shutdown changes a byte of their files.
func TestEvictionRehydrates(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{DataDir: dataDir, MaxSessions: 1, SessionTTL: time.Minute})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	// The test owns every eviction (explicit sweepAll / cap pressure); the
	// background sweeper would race it for TTL claims once the clock jumps.
	h.sessions.stopBackgroundSweeps()
	advance := installFakeClock(h.sessions, time.Unix(1000, 0))

	idA := createSession(t, srv, nil)
	rowsA := fetchCandidates(t, srv, idA)
	dirA := filepath.Join(dataDir, "sessions", idA)
	filesA := sessionFiles(t, dirA)

	// LRU: a second session under a cap of 1 evicts the first to disk. The
	// clock moves between creates so A is unambiguously the older entry
	// (eviction breaks lastUsed ties arbitrarily).
	advance(time.Second)
	idB := createSession(t, srv, nil)
	if got := h.sessions.evictionsLRU.Value(); got != 1 {
		t.Fatalf("LRU evictions = %d, want 1", got)
	}
	if h.sessions.count() != 1 {
		t.Fatalf("resident sessions = %d, want 1", h.sessions.count())
	}
	// The evicted session rehydrates on demand (evicting B in turn — the
	// clock advances so B is strictly the LRU entry at that point).
	advance(time.Second)
	if got := fetchCandidates(t, srv, idA); !reflect.DeepEqual(rowsA, got) {
		t.Fatal("rehydrated session differs from original")
	}
	if got := h.sessions.rehydrations.Value(); got != 1 {
		t.Fatalf("rehydrations = %d, want 1", got)
	}

	// TTL: idle past the TTL evicts, then the session rehydrates on access.
	// The sweep is driven explicitly (in production the background eviction
	// loop or any shard access past the throttle does this).
	advance(2 * time.Minute)
	h.sessions.sweepAll()
	if _, ok := h.sessions.get("s-00000000000000000000000000000000"); ok {
		t.Fatal("unknown id resolved")
	}
	if got := h.sessions.evictionsTTL.Value(); got != 1 {
		t.Fatalf("TTL evictions = %d, want 1 (only A was resident)", got)
	}
	if code, _ := askText(t, srv, idB, "no-modification"); code != http.StatusOK {
		t.Fatalf("TTL-evicted session should rehydrate, got %d", code)
	}

	h.Close()
	if got := sessionFiles(t, dirA); !reflect.DeepEqual(got, filesA) {
		t.Fatal("eviction, rehydration or shutdown rewrote the session's files")
	}
}

// TestDeleteRemovesOnDiskFiles covers the DELETE endpoint fix: deleting a
// session must remove its directory, whether it is memory-resident or only
// on disk, and the id must stop resolving afterwards.
func TestDeleteRemovesOnDiskFiles(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{DataDir: dataDir})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	sessionDir := func(id string) string { return filepath.Join(dataDir, "sessions", id) }

	// Resident session: files exist, DELETE removes them.
	id := createSession(t, srv, nil)
	if _, err := os.Stat(filepath.Join(sessionDir(id), persist.SnapshotFile)); err != nil {
		t.Fatalf("session has no on-disk snapshot: %v", err)
	}
	if code := del(id); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(sessionDir(id)); !os.IsNotExist(err) {
		t.Fatal("session directory survived DELETE")
	}
	if code, _ := askText(t, srv, id, "no-modification"); code != http.StatusNotFound {
		t.Fatalf("deleted session must not rehydrate, got %d", code)
	}
	if code := del(id); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}

	// Disk-only session (evicted from memory via shutdown): DELETE still
	// removes the files.
	id2 := createSession(t, srv, nil)
	h.Close()
	if h.sessions.count() != 0 {
		t.Fatal("shutdown left sessions resident")
	}
	if code := del(id2); code != http.StatusNoContent {
		t.Fatalf("delete of disk-only session: %d", code)
	}
	if _, err := os.Stat(sessionDir(id2)); !os.IsNotExist(err) {
		t.Fatal("disk-only session directory survived DELETE")
	}

	// A traversal-shaped id must not touch the filesystem.
	if code := del("..%2F..%2Fetc"); code != http.StatusNotFound {
		t.Fatalf("traversal id: %d, want 404", code)
	}
}

// TestOrphanSweepOnStartup simulates create-then-crash debris: a session
// directory whose snapshot never committed (only meta + a temp file) must be
// cleaned up by the next server's startup sweep, while healthy directories
// survive.
func TestOrphanSweepOnStartup(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{DataDir: dataDir})
	srv := httptest.NewServer(h)
	id := createSession(t, srv, nil)
	h.Close()
	srv.Close()

	root := filepath.Join(dataDir, "sessions")
	// A crashed create: directory with metadata and a half-written snapshot
	// temp, but no committed snapshot.
	orphan := filepath.Join(root, "s-deadbeefdeadbeefdeadbeefdeadbeef")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta.json", persist.SnapshotFile + ".tmp"} {
		if err := os.WriteFile(filepath.Join(orphan, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file at the root.
	if err := os.WriteFile(filepath.Join(root, "junk.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := NewWithConfig(sys, Config{DataDir: dataDir})
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	defer h2.Close()

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned session directory survived the startup sweep")
	}
	if _, err := os.Stat(filepath.Join(root, "junk.tmp")); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived the startup sweep")
	}
	if code, _ := askText(t, srv2, id, "no-modification"); code != http.StatusOK {
		t.Fatalf("healthy session lost by the sweep: %d", code)
	}
}

// TestMetricsEndpoint asserts /metrics carries the jitd lifecycle
// counters, the per-question latency histograms and the per-shard gauge.
func TestMetricsEndpoint(t *testing.T) {
	h := NewWithConfig(demoSystem(t), Config{Shards: 4})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })
	// Drive one question through so its latency histogram has a sample.
	id := createSession(t, srv, nil)
	if code, _ := askText(t, srv, id, "no-modification"); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}

	e := scrape(t, h)
	for _, name := range []string{
		"jitd_sessions_live", "jitd_evictions_ttl_total", "jitd_evictions_lru_total",
		"jitd_rehydrations_total", "jitd_rehydrations_coalesced_total", "jitd_creates_rejected_total",
		"jitd_question_duration_seconds", "jitd_shard_sessions",
	} {
		if _, ok := e.Types[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	// The histogram is keyed by question kind and cumulative: the answered
	// question must have count >= 1 (scrape already checked +Inf == count).
	if count := e.Values[`jitd_question_duration_seconds_count{kind="no-modification"}`]; count < 1 {
		t.Errorf("no-modification histogram count = %v, want >= 1", count)
	}
	// Per-shard gauge: one series per shard, summing to the resident session.
	sum := 0.0
	for i := 0; i < 4; i++ {
		v, ok := e.Values[`jitd_shard_sessions{shard="`+strconv.Itoa(i)+`"}`]
		if !ok {
			t.Errorf("jitd_shard_sessions has no series for shard %d", i)
		}
		sum += v
	}
	if sum != 1 {
		t.Errorf("jitd_shard_sessions sums to %v, want 1 resident", sum)
	}
}
