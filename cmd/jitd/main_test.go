package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"justintime"
	"justintime/internal/obs/obstest"
	"justintime/internal/server"
	"justintime/internal/sqldb/persist"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestStandbyMetrics: an unpromoted standby serves its ingest counters on
// /metrics while every API path still answers 503; once promoted, /metrics
// is the new primary's and the stopped replica's counters are gone.
func TestStandbyMetrics(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	dataDir := t.TempDir()
	replica, err := persist.NewReplica(filepath.Join(dataDir, "sessions"), logger)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *server.Server {
		cfg := justintime.DefaultLoanDemoConfig()
		cfg.Eras, cfg.RowsPerEra, cfg.T, cfg.K = 4, 200, 1, 3
		demo, err := justintime.NewLoanDemo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return server.NewWithConfig(demo.System, server.Config{DataDir: dataDir, Logger: logger})
	}
	n := newStandbyNode(replica, build, logger)
	t.Cleanup(func() { n.Close() })

	rec := get(t, n, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("standby /metrics: %d", rec.Code)
	}
	e, err := obstest.Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("standby exposition invalid: %v", err)
	}
	want := []string{
		"jitd_replica_applied_bytes_total counter ",
		"jitd_replica_connected gauge ",
		"jitd_replica_deletes_total counter ",
		"jitd_replica_syncs_total counter ",
	}
	if got := e.Families(); !reflect.DeepEqual(got, want) {
		t.Errorf("standby families:\n got  %q\n want %q", got, want)
	}
	if v, ok := e.Values["jitd_replica_connected"]; !ok || v != 0 {
		t.Errorf("jitd_replica_connected = %v (present %v), want 0 with no primary", v, ok)
	}
	for _, path := range []string{"/api/questions", "/api/schema", "/debug/requests"} {
		if rec := get(t, n, path); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("standby %s: %d, want 503 with Retry-After", path, rec.Code)
		}
	}
	if rec := get(t, n, "/admin/standby"); rec.Code != http.StatusOK {
		t.Errorf("standby /admin/standby: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/promote", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body)
	}
	rec = get(t, n, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("promoted /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if strings.Contains(body, "jitd_replica_") || !strings.Contains(body, "jitd_sessions_live") {
		t.Errorf("promoted /metrics should be the primary's, without jitd_replica_*:\n%s", body)
	}
	if rec := get(t, n, "/api/questions"); rec.Code != http.StatusOK {
		t.Errorf("promoted /api/questions: %d", rec.Code)
	}
}
