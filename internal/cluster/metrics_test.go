package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"justintime/internal/obs/obstest"
)

// TestRouterMetrics routes a known number of requests to each shard and
// checks the router's /metrics: per-shard forward counts and histogram
// counts, the health gauge, the histogram invariants, and the pinned set of
// families.
func TestRouterMetrics(t *testing.T) {
	tc := newTestCluster(t)
	for i, name := range tc.names {
		id := idOwnedBy(t, name, tc.names)
		for n := 0; n <= i; n++ {
			// An unknown id still forwards: the owning shard answers 404.
			if resp, body := doReq(t, "GET", tc.router.URL+"/api/sessions/"+id+"/inputs", nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("routed read of unknown id: %d %s", resp.StatusCode, body)
			}
		}
	}

	rec := httptest.NewRecorder()
	tc.rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	e, err := obstest.Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("router exposition invalid: %v\n%s", err, rec.Body.String())
	}
	for i, name := range tc.names {
		for sample, want := range map[string]float64{
			`jitrouter_forwarded_total{shard="%s"}`:                float64(i + 1),
			`jitrouter_forward_duration_seconds_count{shard="%s"}`: float64(i + 1),
			`jitrouter_retries_total{shard="%s"}`:                  0,
			`jitrouter_forward_errors_total{shard="%s"}`:           0,
			`jitrouter_unavailable_total{shard="%s"}`:              0,
			`jitrouter_shard_healthy{shard="%s"}`:                  1,
		} {
			key := fmt.Sprintf(sample, name)
			if got, ok := e.Values[key]; !ok || got != want {
				t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
			}
		}
	}
	want := []string{
		"jitrouter_forward_duration_seconds histogram le,shard",
		"jitrouter_forward_errors_total counter shard",
		"jitrouter_forwarded_total counter shard",
		"jitrouter_retries_total counter shard",
		"jitrouter_shard_healthy gauge shard",
		"jitrouter_unavailable_total counter shard",
	}
	if got := e.Families(); !reflect.DeepEqual(got, want) {
		t.Errorf("router families:\n got  %q\n want %q", got, want)
	}
}
