package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"justintime"
	"justintime/internal/candgen"
	"justintime/internal/cluster"
	"justintime/internal/constraints"
	"justintime/internal/core"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/fault"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
	"justintime/internal/server"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
	"justintime/internal/sqldb/persist"
)

// The traced run replays a sample of the workload's generated inputs one at
// a time, in-process, through the layers' public functions. It records its
// own spans around those calls (the program itself is not instrumented for
// this) and reads the layers' public counters before and after each step.

// span is one timed call. Parent is -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory. Spans nest by call order: the replay
// runs one call chain at a time, so the innermost open span is the parent.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	trace int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Trace: tr.trace, ID: id, Parent: parent, Start: now})
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) end(id int) {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = now
	tr.open = tr.open[:len(tr.open)-1]
}

func (tr *tracer) newTrace() {
	tr.mu.Lock()
	tr.trace++
	tr.mu.Unlock()
}

// durMs is a span's duration in milliseconds.
func (tr *tracer) durMs(id int) float64 {
	s := tr.spans[id]
	return float64(s.End-s.Start) / 1e6
}

// childMs sums, per span, the durations of its direct children.
func (tr *tracer) childMs() []float64 {
	out := make([]float64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			out[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// named returns the durations of every span called name.
func (tr *tracer) named(name string) []float64 {
	var out []float64
	for i, s := range tr.spans {
		if s.Name == name {
			out = append(out, tr.durMs(i))
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modelStats counts rows and calls through the timing wrappers.
type modelStats struct{ rows, calls atomic.Int64 }

// timedModel records a span around every call into the wrapped model. It
// exposes exactly the optional interfaces the wrapped model has (see
// wrapModel), because candgen picks its move heuristics by type assertion.
type timedModel struct {
	inner mlmodel.Model
	tr    *tracer
	st    *modelStats
}

func (m *timedModel) Predict(x []float64) float64 {
	id := m.tr.begin("mlmodel.predict")
	p := m.inner.Predict(x)
	m.tr.end(id)
	m.st.rows.Add(1)
	m.st.calls.Add(1)
	return p
}

func (m *timedModel) PredictBatch(X [][]float64) []float64 {
	id := m.tr.begin("mlmodel.predict_batch")
	out := mlmodel.PredictBatch(m.inner, X)
	m.tr.end(id)
	m.st.rows.Add(int64(len(X)))
	m.st.calls.Add(1)
	return out
}

func (m *timedModel) Name() string { return m.inner.Name() }

type (
	thresholder interface{ Thresholds() map[int][]float64 }
	gradienter  interface{ Gradient(x []float64) []float64 }
)

func (m *timedModel) thresholds() map[int][]float64 {
	id := m.tr.begin("mlmodel.thresholds")
	defer m.tr.end(id)
	return m.inner.(thresholder).Thresholds()
}

func (m *timedModel) gradient(x []float64) []float64 {
	id := m.tr.begin("mlmodel.gradient")
	defer m.tr.end(id)
	return m.inner.(gradienter).Gradient(x)
}

type (
	timedThr  struct{ *timedModel }
	timedGrad struct{ *timedModel }
	timedBoth struct{ *timedModel }
)

func (m timedThr) Thresholds() map[int][]float64   { return m.thresholds() }
func (m timedGrad) Gradient(x []float64) []float64 { return m.gradient(x) }
func (m timedBoth) Thresholds() map[int][]float64  { return m.thresholds() }
func (m timedBoth) Gradient(x []float64) []float64 { return m.gradient(x) }

// wrapModel returns a timing wrapper with the same optional methods as m.
func wrapModel(m mlmodel.Model, tr *tracer, st *modelStats) mlmodel.Model {
	tm := &timedModel{inner: m, tr: tr, st: st}
	_, thr := m.(thresholder)
	_, grad := m.(gradienter)
	switch {
	case thr && grad:
		return timedBoth{tm}
	case thr:
		return timedThr{tm}
	case grad:
		return timedGrad{tm}
	}
	return tm
}

// timedGen wraps a drift.Generator so every model it returns is a timing
// wrapper.
type timedGen struct {
	inner drift.Generator
	tr    *tracer
	st    *modelStats
}

func (g timedGen) Name() string { return g.inner.Name() }

func (g timedGen) Generate(history []drift.Era, horizon int) ([]drift.TimedModel, error) {
	models, err := g.inner.Generate(history, horizon)
	if err != nil {
		return nil, err
	}
	out := make([]drift.TimedModel, len(models))
	for i, m := range models {
		out[i] = drift.TimedModel{Model: wrapModel(m.Model, g.tr, g.st), Threshold: m.Threshold}
	}
	return out, nil
}

// fixedGen hands out already trained models, so a second System over the
// same models costs no training.
type fixedGen struct {
	name   string
	models []drift.TimedModel
}

func (g fixedGen) Name() string { return g.name }
func (g fixedGen) Generate([]drift.Era, int) ([]drift.TimedModel, error) {
	return append([]drift.TimedModel(nil), g.models...), nil
}

// countFS counts bytes and fsyncs through the persistence layer's I/O plane.
type countFS struct {
	fault.FS
	written, read, syncs atomic.Int64
}

type countFile struct {
	fault.File
	fs *countFS
}

func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (c *countFS) Open(path string) (fault.File, error) {
	f, err := c.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (f countFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f countFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f countFile) Read(b []byte) (int, error) {
	n, err := f.File.Read(b)
	f.fs.read.Add(int64(n))
	return n, err
}

func (f countFile) ReadAt(b []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(b, off)
	f.fs.read.Add(int64(n))
	return n, err
}

func (f countFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// layerCounters is a snapshot of the public counters the reads move.
type layerCounters struct {
	fullScans, cacheHits, cacheMisses uint64
	pool                              pager.Stats
}

func readCounters(pool *pager.Pool) layerCounters {
	c := layerCounters{
		fullScans:   sqldb.PlanCounters()["full_scan"],
		cacheHits:   sqldb.PlanCacheCounters()["hits"],
		cacheMisses: sqldb.PlanCacheCounters()["misses"],
	}
	if pool != nil {
		c.pool = pool.Stats()
	}
	return c
}

// traceRun holds the replay's state and tallies.
type traceRun struct {
	cfg    runConfig
	w      workload
	tr     *tracer
	ms     modelStats
	fs     *countFS
	pool   *pager.Pool
	ctx    context.Context
	failed int64
	ops    int64
	errs   []string

	stmts map[string]*sqldb.Stmt

	// Tallies.
	evals, poolSize, kept, searches int64
	rows, calls                     int64 // model rows and calls of the replayed searches
	allocs                          uint64
	plainCreateMs, timedCreateMs    float64
	coreSelf, attributed            []float64
	reads                           int64
	delta                           layerCounters
	bytesWritten, fsyncs, bRead     int64
	persisted                       int64
}

func (r *traceRun) failf(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// parsedApplicant is an applicant decoded for in-process calls.
type parsedApplicant struct {
	x     []float64
	prefs *constraints.Set
	app   *applicant
}

func parseApplicant(a *applicant, schema *feature.Schema) (parsedApplicant, error) {
	var body struct {
		Profile     map[string]float64 `json:"profile"`
		Constraints []string           `json:"constraints"`
	}
	if err := json.Unmarshal(a.createBody, &body); err != nil {
		return parsedApplicant{}, err
	}
	p := parsedApplicant{prefs: constraints.NewSet(), app: a}
	for _, name := range schema.Names() {
		p.x = append(p.x, body.Profile[name])
	}
	for _, src := range body.Constraints {
		c, err := constraints.Parse(src)
		if err != nil {
			return p, err
		}
		p.prefs.Add(c)
	}
	return p, nil
}

// sampleApps is the order in which the workload first uses its applicants.
func sampleApps(w workload, in inputs) []int {
	if w.journey {
		out := make([]int, len(in.apps))
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{}
	var out []int
	for _, a := range in.sessionApp {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func runTrace(cfg runConfig, w workload) (result, error) {
	in := genInputs(w, cfg.seed, cfg.seconds)
	r := &traceRun{cfg: cfg, w: w, tr: newTracer(), fs: &countFS{FS: fault.OS}, ctx: context.Background(), stmts: map[string]*sqldb.Stmt{}}
	if w.cold {
		r.pool = pager.NewPool(8)
	}

	// The serving configuration exactly as jitd builds it.
	dcfg := justintime.DefaultLoanDemoConfig()
	dcfg.Method = w.method
	demo, err := justintime.NewLoanDemo(dcfg)
	if err != nil {
		return result{}, err
	}
	// Set-up layers, timed on their own: the synthetic history (with the
	// parameters NewLoanDemo uses) and the future-model generation.
	id := r.tr.begin("dataset.generate")
	_, err = dataset.Generate(dataset.Config{Seed: dcfg.Seed, Eras: dcfg.Eras, RowsPerEra: dcfg.RowsPerEra, LabelNoise: 0.04, DriftScale: 1})
	r.tr.end(id)
	if err != nil {
		return result{}, err
	}
	gen, err := justintime.GeneratorByName(dcfg.Method, dcfg.Seed)
	if err != nil {
		return result{}, err
	}
	id = r.tr.begin("drift.generate")
	_, err = gen.Generate(demo.History, dcfg.T)
	r.tr.end(id)
	if err != nil {
		return result{}, err
	}

	// Two single-worker systems over the same trained models: one plain,
	// one whose models are timing wrappers.
	sc := demo.System.Config()
	sc.Workers = 1
	sc.Generator = fixedGen{name: gen.Name(), models: demo.System.Models()}
	plain, err := core.NewSystem(sc, demo.History)
	if err != nil {
		return result{}, err
	}
	sc.Generator = timedGen{inner: sc.Generator, tr: r.tr, st: &r.ms}
	timed, err := core.NewSystem(sc, demo.History)
	if err != nil {
		return result{}, err
	}

	// Replay applicants one at a time until the run's time is used, at
	// least three and at most the whole generated sample.
	order := sampleApps(w, in)
	deadline := time.Now().Add(time.Duration(cfg.seconds * 0.6 * float64(time.Second)))
	var sample []parsedApplicant
	var fresh []*core.Session
	for _, ai := range order {
		if len(sample) >= 3 && time.Now().After(deadline) {
			break
		}
		pa, err := parseApplicant(&in.apps[ai], sc.Schema)
		if err != nil {
			return result{}, err
		}
		sess, err := r.replayCreate(plain, timed, pa, len(sample))
		if err != nil {
			return result{}, err
		}
		sample = append(sample, pa)
		fresh = append(fresh, sess)
	}
	srv, err := r.replayServer(demo.System, sample, fresh)
	if err != nil {
		return result{}, err
	}
	hop, err := r.replayCluster(demo.System, sample, fresh)
	if err != nil {
		return result{}, err
	}
	if err := r.tr.write(filepath.Join(cfg.traceOut, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))); err != nil {
		return result{}, err
	}

	m := r.metrics(sample, srv, hop)
	note("traced applicants: %d, spans: %d", len(sample), len(r.tr.spans))
	for _, e := range r.errs {
		note("failure: %s", e)
	}
	return result{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: m}, nil
}

// replayCreate creates one applicant's session through every create layer
// and, depending on the workload, reads it fresh or after a cold reopen.
func (r *traceRun) replayCreate(plain, timed *core.System, pa parsedApplicant, i int) (*core.Session, error) {
	r.tr.newTrace()
	t := time.Now()
	sessP, err := plain.NewSessionContext(r.ctx, pa.x, pa.prefs)
	r.plainCreateMs += float64(time.Since(t).Nanoseconds()) / 1e6
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("core.new_session")
	sessT, err := timed.NewSessionContext(r.ctx, pa.x, pa.prefs)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	newSessionMs := r.tr.durMs(id)
	r.timedCreateMs += newSessionMs
	r.ops += 2
	stats := sessT.GenStats()
	if fmt.Sprint(stats) != fmt.Sprint(sessP.GenStats()) {
		r.failf("applicant %d: candgen stats differ with the timing wrappers: %v vs %v", i, stats, sessP.GenStats())
	}

	// Each time point's search again, directly: timed for the span
	// breakdown, plain for allocations.
	sc := timed.Config()
	merged := constraints.Merge(sc.Domain, pa.prefs)
	var genSum, cgSelf, ml float64
	child := func(parent int) float64 {
		var s float64
		for _, sp := range r.tr.spans[parent+1:] {
			if sp.Parent == parent {
				s += float64(sp.End-sp.Start) / 1e6
			}
		}
		return s
	}
	for tp := 0; tp <= sc.T; tp++ {
		cg := sc.CandGen
		cg.Seed = cg.Seed*31 + int64(tp) // as core seeds each time point
		prob := candgen.Problem{
			Schema: sc.Schema, Model: timed.Models()[tp].Model, Threshold: timed.Models()[tp].Threshold,
			Input: sessT.TemporalInput(tp), Constraints: merged, Time: tp,
		}
		rows0, calls0 := r.ms.rows.Load(), r.ms.calls.Load()
		id := r.tr.begin("candgen.generate")
		cands, st, err := candgen.GenerateContext(r.ctx, prob, cg)
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		r.rows += r.ms.rows.Load() - rows0
		r.calls += r.ms.calls.Load() - calls0
		if st != stats[tp] {
			r.failf("applicant %d t=%d: replayed search differs from the session's: %+v vs %+v", i, tp, st, stats[tp])
		}
		g, mlt := r.tr.durMs(id), child(id)
		genSum += g
		cgSelf += g - mlt
		ml += mlt
		r.evals += int64(st.Evaluations)
		r.poolSize += int64(st.PoolSize)
		r.kept += int64(len(cands))
		r.searches++

		prob.Model = plain.Models()[tp].Model
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err := candgen.GenerateContext(r.ctx, prob, cg); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		r.allocs += m1.Mallocs - m0.Mallocs
		r.ops += 2
	}
	// core's own work is what the session took beyond its searches; the
	// replayed searches' share of the session is the consistency check.
	r.coreSelf = append(r.coreSelf, newSessionMs-genSum)
	r.attributed = append(r.attributed, 100*(cgSelf+ml)/newSessionMs)

	if !r.w.cold {
		r.replayReads(sessP, pa)
	}

	// Persist the timed session's database, then reopen it as a
	// rehydration does.
	dir := filepath.Join(r.cfg.work, "trace", strconv.Itoa(i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := sessT.DB()
	opts := persist.Options{FS: r.fs, Pool: r.pool}
	w0, s0 := r.fs.written.Load(), r.fs.syncs.Load()
	if r.pool != nil {
		if err := db.PageTableFS(r.fs, core.CandidatesTable, r.pool, filepath.Join(dir, persist.SpillFileName(core.CandidatesTable))); err != nil {
			return nil, err
		}
	}
	id = r.tr.begin("persist.create")
	st, err := persist.Create(dir, db, opts)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	r.bytesWritten += r.fs.written.Load() - w0
	r.fsyncs += r.fs.syncs.Load() - s0
	rd0 := r.fs.read.Load()
	id = r.tr.begin("persist.open")
	db2, st2, err := persist.Open(dir, opts)
	var sessR *core.Session
	if err == nil {
		sessR, err = plain.RestoreSession(db2, pa.x)
	}
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.ops += 2
	if r.w.cold {
		r.replayReads(sessR, pa)
	}
	if err := st2.Close(); err != nil {
		return nil, err
	}
	r.bRead += r.fs.read.Load() - rd0
	r.persisted++
	return sessP, nil
}

// direct runs read rq of an applicant against a session without HTTP.
func (r *traceRun) direct(sess *core.Session, rq readReq) error {
	switch rq.path {
	case "/plan":
		_, err := sess.Plan()
		return err
	case "/sql":
		var q struct{ Query string }
		if err := json.Unmarshal(rq.body, &q); err != nil {
			return err
		}
		st, err := r.stmt(q.Query)
		if err != nil {
			return err
		}
		_, err = st.QueryCtx(r.ctx, sess.DB())
		return err
	default:
		q, err := question(rq)
		if err != nil {
			return err
		}
		_, err = sess.AskCtx(r.ctx, q)
		return err
	}
}

func question(rq readReq) (core.Question, error) {
	var body struct {
		Kind    string  `json:"kind"`
		Feature string  `json:"feature"`
		Alpha   float64 `json:"alpha"`
	}
	if err := json.Unmarshal(rq.body, &body); err != nil {
		return core.Question{}, err
	}
	kind, err := core.ParseQuestionKind(body.Kind)
	return core.Question{Kind: kind, Feature: body.Feature, Alpha: body.Alpha}, err
}

func (r *traceRun) stmt(sql string) (*sqldb.Stmt, error) {
	if st, ok := r.stmts[sql]; ok {
		return st, nil
	}
	st, err := sqldb.Prepare(sql)
	if err == nil {
		r.stmts[sql] = st
	}
	return st, err
}

// replayReads sends the applicant's eight reads to the session: a span per
// read at the core layer (the expert SELECT goes straight to sqldb, as the
// server sends it), then each question's SQL once more straight through
// sqldb for the query-layer span.
func (r *traceRun) replayReads(sess *core.Session, pa parsedApplicant) {
	for _, rq := range pa.app.reads {
		c0 := readCounters(r.pool)
		name := "core.ask." + rq.name
		switch rq.path {
		case "/plan":
			name = "core.plan"
		case "/sql":
			name = "sqldb.query.expert"
		}
		id := r.tr.begin(name)
		err := r.direct(sess, rq)
		r.tr.end(id)
		c1 := readCounters(r.pool)
		r.delta.fullScans += c1.fullScans - c0.fullScans
		r.delta.cacheHits += c1.cacheHits - c0.cacheHits
		r.delta.cacheMisses += c1.cacheMisses - c0.cacheMisses
		r.delta.pool.Hits += c1.pool.Hits - c0.pool.Hits
		r.delta.pool.Misses += c1.pool.Misses - c0.pool.Misses
		r.delta.pool.Evictions += c1.pool.Evictions - c0.pool.Evictions
		r.reads++
		r.ops++
		if err != nil {
			r.failf("%s: %v", rq.name, err)
			continue
		}
		if rq.path != "/ask" {
			continue
		}
		q, _ := question(rq)
		ins, err := sess.AskCtx(r.ctx, q)
		if err != nil {
			r.failf("%s: %v", rq.name, err)
			continue
		}
		var args []sqldb.Value
		if q.Kind == core.QTurningPoint {
			args = []sqldb.Value{sqldb.Float(q.Alpha), sqldb.Float(q.Alpha)}
		}
		st, err := r.stmt(ins.SQL)
		if err != nil {
			r.failf("%s: %v", rq.name, err)
			continue
		}
		id = r.tr.begin("sqldb.query." + rq.name)
		res, err := st.QueryCtx(r.ctx, sess.DB(), args...)
		r.tr.end(id)
		r.ops++
		if err != nil || fmt.Sprint(res.Rows) != fmt.Sprint(ins.Result.Rows) {
			r.failf("%s: direct query differs from the ask: %v", rq.name, err)
		}
	}
}

// serve runs one request through an in-process handler.
func serve(h http.Handler, method, path string, body []byte) (int, []byte, float64) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, rd)
	t := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), float64(time.Since(t).Nanoseconds()) / 1e6
}

// promCounters parses the samples of a Prometheus text exposition.
func promCounters(b []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// serverTally is what the in-process server replay measures.
type serverTally struct {
	overhead                          []float64
	rehydrations, evictions, rejected float64
	reads                             int
}

// replayServer runs the sample's reads through an in-process server
// configured like the workload's jitd, pairing each with the same read
// made directly on the applicant's session.
func (r *traceRun) replayServer(sys *core.System, sample []parsedApplicant, fresh []*core.Session) (serverTally, error) {
	var t serverTally
	scfg := server.Config{Logger: discardLogger}
	if !r.w.routed {
		scfg.DataDir = filepath.Join(r.cfg.work, "trace-server")
	}
	if r.w.cold {
		scfg.MaxSessions, scfg.BufferPoolPages = 16, 8
	}
	srv := server.NewWithConfig(sys, scfg)
	_, b, _ := serve(srv, "GET", "/metrics", nil)
	m0 := promCounters(b)
	ids := make([]string, len(sample))
	for i, pa := range sample {
		code, b, _ := serve(srv, "POST", "/api/sessions", pa.app.createBody)
		r.ops++
		var out struct{ ID string }
		if code != http.StatusCreated || json.Unmarshal(b, &out) != nil {
			r.failf("server create: %d %.200s", code, b)
			continue
		}
		ids[i] = out.ID
	}
	_, b, _ = serve(srv, "GET", "/metrics", nil)
	m1 := promCounters(b)
	t.rejected = m1["jitd_creates_rejected_total"] - m0["jitd_creates_rejected_total"]
	if r.w.cold {
		srv.Close()
		srv = server.NewWithConfig(sys, scfg)
	}
	defer srv.Close()
	for i, pa := range sample {
		for _, rq := range pa.app.reads {
			code, b, ms := serve(srv, rq.method, "/api/sessions/"+ids[i]+rq.path, rq.body)
			r.ops++
			if code != http.StatusOK {
				r.failf("server %s: %d %.200s", rq.name, code, b)
				continue
			}
			start := time.Now()
			if err := r.direct(fresh[i], rq); err != nil {
				r.failf("direct %s: %v", rq.name, err)
				continue
			}
			t.overhead = append(t.overhead, ms-float64(time.Since(start).Nanoseconds())/1e6)
			t.reads++
		}
	}
	_, b, _ = serve(srv, "GET", "/metrics", nil)
	m2 := promCounters(b)
	d := func(k string) float64 { return m2[k] - m1[k] }
	t.rehydrations = d("jitd_rehydrations_total")
	t.evictions = d("jitd_evictions_lru_total") + d("jitd_evictions_ttl_total")
	return t, nil
}

// hopTally is what the in-process router replay measures.
type hopTally struct {
	hop      []float64
	maxShare float64
	retries  float64
}

// replayCluster creates the sample's sessions through an in-process router
// over two in-process shards, then pairs each read through the router with
// the same read sent straight to the owning shard's handler.
func (r *traceRun) replayCluster(sys *core.System, sample []parsedApplicant, fresh []*core.Session) (hopTally, error) {
	var t hopTally
	names := shardNames
	shards := map[string]*server.Server{}
	var entries []string
	for _, name := range names {
		srv := server.NewWithConfig(sys, server.Config{Logger: discardLogger,
			KeepSessionID: func(id string) bool { return cluster.OwnedBy(id, name, names) }})
		hs := httptest.NewServer(srv)
		defer srv.Close()
		defer hs.Close()
		shards[name] = srv
		entries = append(entries, fmt.Sprintf(`{"name":%q,"addr":%q}`, name, hs.Listener.Addr().String()))
	}
	m, err := cluster.ParseMap([]byte(`{"shards":[` + strings.Join(entries, ",") + `]}`))
	if err != nil {
		return t, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Map: m})
	if err != nil {
		return t, err
	}
	defer rt.Close()
	ids := make([]string, len(sample))
	for i, pa := range sample {
		code, b, _ := serve(rt, "POST", "/api/sessions", pa.app.createBody)
		r.ops++
		var out struct{ ID string }
		if code != http.StatusCreated || json.Unmarshal(b, &out) != nil {
			r.failf("routed create: %d %.200s", code, b)
			continue
		}
		ids[i] = out.ID
	}
	// Visit order: each session once, or Zipf-skewed like the workload.
	visits := make([]int, len(sample))
	for i := range visits {
		visits[i] = i
	}
	if r.w.zipf > 1 {
		pw := r.w
		pw.sessions = len(sample)
		pick := visitPicker(pw, r.cfg.seed, 0)
		visits = visits[:0]
		for i := 0; i < 2*len(sample); i++ {
			visits = append(visits, pick())
		}
	}
	_, b, _ := serve(rt, "GET", "/metrics", nil)
	c0 := promCounters(b)
	for _, i := range visits {
		owner := shards[cluster.Owner(ids[i], names)]
		for _, rq := range sample[i].app.reads {
			path := "/api/sessions/" + ids[i] + rq.path
			code, b, routed := serve(rt, rq.method, path, rq.body)
			code2, b2, direct := serve(owner, rq.method, path, rq.body)
			r.ops += 2
			if code != http.StatusOK || code2 != http.StatusOK || !bytes.Equal(b, b2) {
				r.failf("routed %s: %d vs direct %d", rq.name, code, code2)
				continue
			}
			t.hop = append(t.hop, routed-direct)
		}
	}
	_, b, _ = serve(rt, "GET", "/metrics", nil)
	c1 := promCounters(b)
	var total, most float64
	for _, name := range names {
		k := fmt.Sprintf("jitrouter_forwarded_total{shard=%q}", name)
		d := c1[k] - c0[k]
		total += d
		most = math.Max(most, d)
		k = fmt.Sprintf("jitrouter_retries_total{shard=%q}", name)
		t.retries += c1[k] - c0[k]
	}
	if total > 0 {
		t.maxShare = 100 * most / total
	}
	return t, nil
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / math.Max(1, float64(len(v)))
}

// metrics turns the replay's spans and tallies into the per-layer metrics.
func (r *traceRun) metrics(sample []parsedApplicant, srv serverTally, hop hopTally) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, b float64) float64 { return a / math.Max(1, b) }
	child := r.tr.childMs()
	var gen, self, score []float64
	var predictNs float64
	for i, s := range r.tr.spans {
		switch s.Name {
		case "candgen.generate":
			gen = append(gen, r.tr.durMs(i))
			self = append(self, r.tr.durMs(i)-child[i])
			score = append(score, child[i])
		case "mlmodel.predict", "mlmodel.predict_batch":
			if s.Parent >= 0 && r.tr.spans[s.Parent].Name == "candgen.generate" {
				predictNs += float64(s.End - s.Start)
			}
		}
	}
	searches := float64(r.searches)
	put("candgen.generate_ms", "ms", median(gen))
	put("candgen.self_ms", "ms", median(self))
	put("candgen.evaluations", "count", ratio(float64(r.evals), searches))
	put("candgen.pool_size", "count", ratio(float64(r.poolSize), searches))
	put("candgen.allocs", "count", ratio(float64(r.allocs), searches))
	put("candgen.kept_per_kilo_eval", "count", 1000*ratio(float64(r.kept), float64(r.evals)))

	rows := float64(r.rows)
	put("mlmodel.score_ms", "ms", median(score))
	put("mlmodel.rows_scored", "count", ratio(rows, searches))
	put("mlmodel.ns_per_row", "ns", ratio(predictNs, rows))
	put("mlmodel.rows_per_batch", "count", ratio(rows, float64(r.calls)))

	newSession := r.tr.named("core.new_session")
	put("core.new_session_ms", "ms", median(newSession))
	put("core.self_ms", "ms", median(r.coreSelf))
	put("core.attributed_pct", "%", median(r.attributed))
	put("core.plan_ms", "ms", median(r.tr.named("core.plan")))
	for _, q := range questionKinds {
		k := q.Kind.String()
		put("core.ask_ms."+k, "ms", median(r.tr.named("core.ask."+k)))
		put("sqldb.query_ms."+k, "ms", median(r.tr.named("sqldb.query."+k)))
	}
	put("sqldb.query_ms.expert", "ms", median(r.tr.named("sqldb.query.expert")))
	reads := float64(r.reads)
	d := r.delta
	put("sqldb.plan_cache_hit_pct", "%", 100*ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)))
	put("sqldb.full_scans_per_read", "count", ratio(float64(d.fullScans), reads))

	n := float64(r.persisted)
	put("persist.create_ms", "ms", median(r.tr.named("persist.create")))
	put("persist.open_ms", "ms", median(r.tr.named("persist.open")))
	put("persist.bytes_written", "B", ratio(float64(r.bytesWritten), n))
	put("persist.fsyncs", "count", ratio(float64(r.fsyncs), n))
	put("persist.bytes_read", "B", ratio(float64(r.bRead), n))

	pins := float64(d.pool.Hits + d.pool.Misses)
	put("pager.pins_per_read", "count", ratio(pins, reads))
	put("pager.miss_pct", "%", 100*ratio(float64(d.pool.Misses), pins))
	put("pager.evictions_per_read", "count", ratio(float64(d.pool.Evictions), reads))

	put("server.overhead_ms", "ms", median(srv.overhead))
	put("server.rehydrations_per_read", "count", ratio(srv.rehydrations, float64(srv.reads)))
	put("server.evictions_per_read", "count", ratio(srv.evictions, float64(srv.reads)))
	put("server.create_rejected", "count", srv.rejected)

	put("cluster.hop_ms", "ms", median(hop.hop))
	put("cluster.max_shard_share_pct", "%", hop.maxShare)
	put("cluster.retries", "count", hop.retries)

	put("drift.generate_s", "s", median(r.tr.named("drift.generate"))/1000)
	put("dataset.generate_s", "s", median(r.tr.named("dataset.generate"))/1000)
	put("trace.overhead_pct", "%", 100*(r.timedCreateMs-r.plainCreateMs)/r.plainCreateMs)
	return m
}
