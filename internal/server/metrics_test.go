package server

import (
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"justintime/internal/sqldb/persist"
)

// jitdFamilies is the /metrics shape every Server exports: family name,
// type and label keys.
var jitdFamilies = []string{
	"jitd_creates_rejected_total counter ",
	"jitd_degraded_mode gauge ",
	"jitd_degraded_rejected_total counter ",
	"jitd_evictions_lru_total counter ",
	"jitd_evictions_ttl_total counter ",
	"jitd_fault_disk_injected_total counter ",
	"jitd_fault_net_injected_total counter ",
	"jitd_http_request_duration_seconds histogram le,route",
	"jitd_plan_cache_total counter event",
	"jitd_plan_shapes_total counter shape",
	"jitd_pool_dirty_writebacks_total counter ",
	"jitd_pool_evictions_total counter ",
	"jitd_pool_fault_duration_seconds histogram le",
	"jitd_pool_hits_total counter ",
	"jitd_pool_misses_total counter ",
	"jitd_pool_pinned gauge ",
	"jitd_pool_resident_pages gauge ",
	"jitd_question_duration_seconds histogram kind,le",
	"jitd_rehydrations_coalesced_total counter ",
	"jitd_rehydrations_total counter ",
	"jitd_sessions_live gauge ",
	"jitd_sessions_quarantined_total counter ",
	"jitd_shard_sessions gauge shard",
	"jitd_traces_finished_total counter ",
	"jitd_traces_kept_slow_total counter ",
	"jitd_traces_kept_total counter ",
}

// replicationFamilies are added by a Server with Config.ReplicateTo.
var replicationFamilies = []string{
	"jitd_replication_connected gauge ",
	"jitd_replication_deletes_total counter ",
	"jitd_replication_lag_records gauge ",
	"jitd_replication_overflows_total counter ",
	"jitd_replication_reconnects_total counter ",
	"jitd_replication_shipped_bytes_total counter ",
	"jitd_replication_shipped_records_total counter ",
	"jitd_replication_syncs_total counter ",
}

// startReplica runs a warm-standby replica on an ephemeral port and returns
// its address.
func startReplica(t *testing.T) string {
	t.Helper()
	r, err := persist.NewReplica(filepath.Join(t.TempDir(), "sessions"), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	return ln.Addr().String()
}

// waitMetric polls h's /metrics until sample reads want.
func waitMetric(t *testing.T, h http.Handler, sample string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for scrape(t, h).Values[sample] != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v", sample, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsFamiliesPinned pins the exposition shape dashboards and
// scripts read: a plain Server exports exactly jitdFamilies, and one with
// ReplicateTo adds exactly replicationFamilies.
func TestMetricsFamiliesPinned(t *testing.T) {
	sys := demoSystem(t)
	plain := NewWithConfig(sys, Config{Logger: quietLogger()})
	t.Cleanup(func() { plain.Close() })
	if got := scrape(t, plain).Families(); !reflect.DeepEqual(got, jitdFamilies) {
		t.Errorf("plain server families:\n got  %q\n want %q", got, jitdFamilies)
	}

	repl := NewWithConfig(sys, Config{Logger: quietLogger(), DataDir: t.TempDir(), BufferPoolPages: 16, ReplicateTo: startReplica(t)})
	t.Cleanup(func() { repl.Close() })
	want := append(append([]string(nil), jitdFamilies...), replicationFamilies...)
	got := scrape(t, repl).Families()
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replicating server families:\n got  %q\n want %q", got, want)
	}
}

// TestReplicationDeletesExported: a primary that deletes a session ships the
// delete and counts it in jitd_replication_deletes_total.
func TestReplicationDeletesExported(t *testing.T) {
	h := NewWithConfig(demoSystem(t), Config{Logger: quietLogger(), DataDir: t.TempDir(), ReplicateTo: startReplica(t)})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })
	waitMetric(t, h, "jitd_replication_connected", 1)

	id := createSession(t, srv, nil)
	waitMetric(t, h, "jitd_replication_syncs_total", 1)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	waitMetric(t, h, "jitd_replication_deletes_total", 1)
	waitMetric(t, h, "jitd_replication_lag_records", 0)
}

// TestServersKeepIndependentMetrics runs two Servers in one process: each
// one's /metrics counts only its own sessions and evictions.
func TestServersKeepIndependentMetrics(t *testing.T) {
	sys := demoSystem(t)
	a := NewWithConfig(sys, Config{Logger: quietLogger(), MaxSessions: 1})
	b := NewWithConfig(sys, Config{Logger: quietLogger()})
	srvA, srvB := httptest.NewServer(a), httptest.NewServer(b)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	t.Cleanup(func() { a.Close(); b.Close() })

	createSession(t, srvA, nil)
	createSession(t, srvA, nil) // evicts the first under A's cap of 1
	createSession(t, srvB, nil)
	createSession(t, srvB, nil)
	for _, c := range []struct {
		name        string
		h           http.Handler
		live, evict float64
	}{{"A", a, 1, 1}, {"B", b, 2, 0}} {
		e := scrape(t, c.h)
		if got := e.Values["jitd_sessions_live"]; got != c.live {
			t.Errorf("server %s jitd_sessions_live = %v, want %v", c.name, got, c.live)
		}
		if got := e.Values["jitd_evictions_lru_total"]; got != c.evict {
			t.Errorf("server %s jitd_evictions_lru_total = %v, want %v", c.name, got, c.evict)
		}
	}
}
