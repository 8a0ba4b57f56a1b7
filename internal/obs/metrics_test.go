package obs

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"justintime/internal/obs/obstest"
)

func scrape(t *testing.T, r *Registry) *obstest.Exposition {
	t.Helper()
	e, err := obstest.Parse(string(r.render()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, r.render())
	}
	return e
}

// TestExpositionInvariants renders every kind of family and checks the
// text against the exposition rules: HELP/TYPE once per family, increasing
// le, non-decreasing cumulative buckets and _count == +Inf.
func TestExpositionInvariants(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_events_total", "Events.")
	g := r.Gauge("t_live", "Live things.")
	pool := new(Histogram)
	r.Histogram("t_fault_seconds", "Faults.", pool)
	byShard := r.CounterVec("t_forwarded_total", "Forwards.", "shard")
	lat := r.HistogramVec("t_duration_seconds", "Latency.", "route")
	r.CounterFunc("t_ext_total", "External.", func() int64 { return 7 })
	r.GaugeFunc("t_ext_live", "External gauge.", func() int64 { return -2 })
	r.VecFunc("t_shapes_total", "Shapes.", "counter", "shape", func() map[string]int64 {
		return map[string]int64{"scan": 3, `we"ird\`: 1}
	})

	c.Inc()
	c.Inc()
	g.Add(5)
	g.Add(-1)
	byShard.With("b").Inc()
	byShard.With("a").Inc()
	byShard.With("a").Inc()
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 51 * time.Microsecond, 3 * time.Millisecond, 6 * time.Second} {
		lat.With("/x").Observe(d)
	}
	pool.Observe(time.Millisecond)

	e := scrape(t, r)
	want := map[string]float64{
		"t_events_total":                    2,
		"t_live":                            4,
		`t_forwarded_total{shard="a"}`:      2,
		`t_forwarded_total{shard="b"}`:      1,
		"t_ext_total":                       7,
		"t_ext_live":                        -2,
		`t_shapes_total{shape="scan"}`:      3,
		`t_shapes_total{shape="we\"ird\\"}`: 1,
		`t_duration_seconds_bucket{route="/x",le="5e-05"}`:  2, // le is inclusive
		`t_duration_seconds_bucket{route="/x",le="0.0001"}`: 3,
		`t_duration_seconds_bucket{route="/x",le="0.005"}`:  4,
		`t_duration_seconds_bucket{route="/x",le="5"}`:      4,
		`t_duration_seconds_bucket{route="/x",le="+Inf"}`:   5,
		`t_duration_seconds_count{route="/x"}`:              5,
		`t_fault_seconds_bucket{le="0.001"}`:                1,
		"t_fault_seconds_sum":                               0.001,
		"t_fault_seconds_count":                             1,
	}
	for k, v := range want {
		if got, ok := e.Values[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if got := e.Values[`t_duration_seconds_sum{route="/x"}`]; got != 6.003101 {
		t.Errorf("duration sum = %v, want 6.003101", got)
	}
	fams := []string{
		"t_duration_seconds histogram le,route",
		"t_events_total counter ",
		"t_ext_live gauge ",
		"t_ext_total counter ",
		"t_fault_seconds histogram le",
		"t_forwarded_total counter shard",
		"t_live gauge ",
		"t_shapes_total counter shape",
	}
	if got := e.Families(); !reflect.DeepEqual(got, fams) {
		t.Errorf("families = %q\nwant %q", got, fams)
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestHistogramBucketsCoverUnion pins the bound list: every le either of the
// two earlier histogram types exported still exists.
func TestHistogramBucketsCoverUnion(t *testing.T) {
	want := []string{"5e-05", "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005",
		"0.01", "0.025", "0.05", "0.1", "0.25", "1", "5"}
	if got := boundLabels[:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("le bounds = %q, want %q", got, want)
	}
}

// TestRegistryIsPerInstance checks that two registries with the same names
// keep separate counts, and that one registry refuses a duplicate name.
func TestRegistryIsPerInstance(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x_total", "X.").Inc()
	b.Counter("x_total", "X.")
	if got := scrape(t, a).Values["x_total"]; got != 1 {
		t.Errorf("a x_total = %v, want 1", got)
	}
	if got := scrape(t, b).Values["x_total"]; got != 0 {
		t.Errorf("b x_total = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("registering x_total twice did not panic")
		}
	}()
	a.GaugeFunc("x_total", "X again.", func() int64 { return 0 })
}

// TestConcurrentObserveRender renders while writers observe and add new
// label values: every scrape must parse and keep _count == +Inf, and once
// the writers finish every observation is counted. Run it under -race.
func TestConcurrentObserveRender(t *testing.T) {
	const writers, perWriter = 4, 2000
	r := NewRegistry()
	lat := r.HistogramVec("c_duration_seconds", "Latency.", "shard")
	n := r.CounterVec("c_total", "Count.", "shard")
	shards := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := shards[(i+w)%len(shards)]
				lat.With(s).Observe(time.Duration(i) * time.Microsecond)
				n.With(s).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			scrape(t, r)
		}
	}
	e := scrape(t, r)
	var count, total float64
	for _, s := range shards {
		count += e.Values[`c_duration_seconds_count{shard="`+s+`"}`]
		total += e.Values[`c_total{shard="`+s+`"}`]
	}
	if count != writers*perWriter || total != writers*perWriter {
		t.Fatalf("observations %v, increments %v, want %d each", count, total, writers*perWriter)
	}
}
