package obs

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the metrics half of the package: a small per-instance
// registry of counters, gauges and latency histograms with one renderer, the
// Prometheus text exposition format 0.0.4. Each serving component (a jitd
// Server, a jitrouter Router, a warm standby) owns one Registry and serves it
// on /metrics, so two instances in one process never blend their counts.
// Values owned elsewhere — a buffer pool's frame counts, a shipper's stats,
// process-wide planner counters — enter as func-backed series read at
// scrape time.

// bounds are the upper bounds of every Histogram's buckets, roughly
// logarithmic from an index hit to a struggling shard.
var bounds = [...]time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond,
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	time.Second, 5 * time.Second,
}

// boundLabels are bounds rendered as le label values, in seconds.
var boundLabels = func() (out [len(bounds)]string) {
	for i, b := range bounds {
		out[i] = formatSeconds(int64(b))
	}
	return out
}()

func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram with lock-free recording.
// Its zero value is ready to use.
type Histogram struct {
	counts [len(bounds) + 1]atomic.Int64 // one per bound, plus +Inf
	sumNs  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(bounds) && d > bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
}

// write renders one series: cumulative _bucket lines, then _sum and _count.
// _count is derived from the same bucket loads as the +Inf bucket, so the two
// agree even when a scrape races an Observe.
func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := range bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, boundLabels[i], cum)
	}
	cum += h.counts[len(bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	writeSample(b, name+"_sum", labels, formatSeconds(h.sumNs.Load()))
	writeSample(b, name+"_count", labels, strconv.FormatInt(cum, 10))
}

func writeSample(b *bytes.Buffer, name, labels, val string) {
	if labels == "" {
		fmt.Fprintf(b, "%s %s\n", name, val)
	} else {
		fmt.Fprintf(b, "%s{%s} %s\n", name, labels, val)
	}
}

// family is one metric name: its metadata plus either owned series (keyed
// by label value, "" when unlabelled) or a func read at scrape time.
type family struct {
	name, help, typ, label string

	mu     sync.Mutex
	series map[string]any // *Counter, *Gauge or *Histogram
	fn     func() map[string]int64
}

func (f *family) write(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	var series map[string]any
	if f.fn != nil {
		vals := f.fn()
		series = make(map[string]any, len(vals))
		for k, v := range vals {
			series[k] = v
		}
	} else {
		f.mu.Lock()
		series = maps.Clone(f.series)
		f.mu.Unlock()
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, lv := range keys {
		labels := ""
		if f.label != "" {
			labels = f.label + `="` + labelEscaper.Replace(lv) + `"`
		}
		switch m := series[lv].(type) {
		case int64:
			writeSample(b, f.name, labels, strconv.FormatInt(m, 10))
		case *Counter:
			writeSample(b, f.name, labels, strconv.FormatInt(m.Value(), 10))
		case *Gauge:
			writeSample(b, f.name, labels, strconv.FormatInt(m.Value(), 10))
		case *Histogram:
			m.write(b, f.name, labels)
		}
	}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Registry is one instance's set of metric families, rendered sorted by
// name. Registering a name twice panics.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.families {
		if g.name == f.name {
			panic("obs: metric " + f.name + " registered twice")
		}
	}
	r.families = append(r.families, f)
	return f
}

func (r *Registry) owned(name, help, typ, label string, series map[string]any) *family {
	return r.add(&family{name: name, help: help, typ: typ, label: label, series: series})
}

// Counter registers and returns a new unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.owned(name, help, "counter", "", map[string]any{"": c})
	return c
}

// Gauge registers and returns a new unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.owned(name, help, "gauge", "", map[string]any{"": g})
	return g
}

// Histogram registers h, a histogram owned elsewhere, as an unlabelled
// family.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.owned(name, help, "histogram", "", map[string]any{"": h})
}

// Vec is a family of counters or histograms keyed by one label's value.
type Vec[M Counter | Histogram] struct{ f *family }

// With returns the series for one label value, creating it on first use.
func (v Vec[M]) With(value string) *M {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	m, ok := v.f.series[value].(*M)
	if !ok {
		m = new(M)
		v.f.series[value] = m
	}
	return m
}

// CounterVec registers a counter family labelled by label.
func (r *Registry) CounterVec(name, help, label string) Vec[Counter] {
	return Vec[Counter]{r.owned(name, help, "counter", label, map[string]any{})}
}

// HistogramVec registers a histogram family labelled by label.
func (r *Registry) HistogramVec(name, help, label string) Vec[Histogram] {
	return Vec[Histogram]{r.owned(name, help, "histogram", label, map[string]any{})}
}

// CounterFunc registers a counter whose value fn reads at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.VecFunc(name, help, "counter", "", func() map[string]int64 { return map[string]int64{"": fn()} })
}

// GaugeFunc registers a gauge whose value fn reads at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.VecFunc(name, help, "gauge", "", func() map[string]int64 { return map[string]int64{"": fn()} })
}

// VecFunc registers a family of type typ ("counter" or "gauge") whose
// series fn returns at scrape time, keyed by label's value.
func (r *Registry) VecFunc(name, help, typ, label string, fn func() map[string]int64) {
	r.add(&family{name: name, help: help, typ: typ, label: label, fn: fn})
}

// ServeHTTP renders every family in the Prometheus text format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(r.render())
}

func (r *Registry) render() []byte {
	r.mu.Lock()
	fams := slices.Clone(r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b bytes.Buffer
	for _, f := range fams {
		f.write(&b)
	}
	return b.Bytes()
}
