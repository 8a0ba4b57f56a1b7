package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// loadgen is the one load-generator process's HTTP side: at most conns
// connections, each request checked for status and answer.
type loadgen struct {
	base   string // http://host:port of the serving front
	client *http.Client

	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string // first few failures, for the report
	// answers[app][read] is the first answer seen for that applicant's
	// read; later answers must hash the same, and the first is compared
	// with the in-process reference after the run.
	answers   map[int][][]byte
	hashes    map[int][]uint64
	candCount map[int]int // "candidates" of each applicant's create answer
	mismatch  int64
}

// newLoadgen returns a load generator; set base before sending.
func newLoadgen(conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{
		client:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		answers:   map[int][][]byte{},
		hashes:    map[int][]uint64{},
		candCount: map[int]int{},
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// do sends one request and returns the body when the status is the wanted
// one; anything else counts as a failed request.
func (g *loadgen) do(method, path string, body []byte, want int) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		g.fail(err.Error())
		return nil, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	g.mu.Lock()
	g.attempted++
	g.mu.Unlock()
	if err != nil {
		g.fail(err.Error())
		return nil, false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.fail(err.Error())
		return nil, false
	}
	if resp.StatusCode != want {
		g.fail(fmt.Sprintf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b))
		return nil, false
	}
	return b, true
}

func (g *loadgen) fail(msg string) {
	g.mu.Lock()
	g.failed++
	if len(g.errs) < 5 {
		g.errs = append(g.errs, msg)
	}
	g.mu.Unlock()
}

// create opens a session for applicant app and returns its id.
func (g *loadgen) create(app int, a *applicant) (string, bool) {
	b, ok := g.do("POST", "/api/sessions", a.createBody, http.StatusCreated)
	if !ok {
		return "", false
	}
	var out struct {
		ID         string `json:"id"`
		Candidates int    `json:"candidates"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
		g.fail(fmt.Sprintf("create answer %.200s", b))
		return "", false
	}
	g.mu.Lock()
	if n, seen := g.candCount[app]; seen && n != out.Candidates {
		g.mismatch++
	}
	g.candCount[app] = out.Candidates
	g.mu.Unlock()
	return out.ID, true
}

// read sends read r of applicant app's session and records its answer.
func (g *loadgen) read(app int, a *applicant, id string, r int) bool {
	rq := a.reads[r]
	b, ok := g.do(rq.method, "/api/sessions/"+id+rq.path, rq.body, http.StatusOK)
	if !ok {
		return false
	}
	h := fnv.New64a()
	h.Write(b)
	sum := h.Sum64()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.answers[app] == nil {
		g.answers[app] = make([][]byte, len(a.reads))
		g.hashes[app] = make([]uint64, len(a.reads))
	}
	switch {
	case g.answers[app][r] == nil:
		g.answers[app][r], g.hashes[app][r] = b, sum
	case g.hashes[app][r] != sum:
		g.mismatch++
	}
	return true
}

// samples collects latencies in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d.Nanoseconds())/1e6)
	s.mu.Unlock()
}

func (s *samples) n() int { return len(s.v) }

// pct returns the nearest-rank p-th percentile.
func (s *samples) pct(p float64) float64 { return percentile(s.v, p) }

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// beyond reports how many samples lie strictly above the p-th percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

// phase is the latency record of one measured phase.
type phase struct {
	creates, reads, journeys samples
	start, end               time.Time
	mu                       sync.Mutex
}

func (ph *phase) finish(t time.Time) {
	ph.mu.Lock()
	if t.After(ph.end) {
		ph.end = t
	}
	ph.mu.Unlock()
}

// journey runs one applicant's journey: create, plan, six asks, one expert
// SELECT, delete. Latencies count from due, the applicant's scheduled
// arrival, so time spent waiting for a connection is included.
func (g *loadgen) journey(ph *phase, app int, a *applicant, due time.Time) {
	id, ok := g.create(app, a)
	if !ok {
		return
	}
	ph.creates.add(time.Since(due))
	for r := range a.reads {
		t := time.Now()
		if !g.read(app, a, id, r) {
			return
		}
		ph.reads.add(time.Since(t))
	}
	end := time.Now()
	ph.journeys.add(end.Sub(due))
	ph.finish(end)
	g.do("DELETE", "/api/sessions/"+id, nil, http.StatusNoContent)
}

// visit is a returning applicant's journey over an existing session: plan,
// six asks, one expert SELECT.
func (g *loadgen) visit(ph *phase, app int, a *applicant, id string) {
	start := time.Now()
	for r := range a.reads {
		t := time.Now()
		if !g.read(app, a, id, r) {
			return
		}
		ph.reads.add(time.Since(t))
	}
	end := time.Now()
	ph.journeys.add(end.Sub(start))
	ph.finish(end)
}

// openLoop calls run for each arrival at its offset (seconds from the
// start), one arrival at a time, and returns when all have finished. The
// dispatcher never blocks (the queue holds every arrival), so an arrival
// that finds the previous one still running waits in the queue, and run,
// timing from due, counts that wait. lateness records how far behind
// schedule the dispatcher itself woke up.
func openLoop(offsets []float64, lateness *samples, run func(i int, due time.Time)) time.Time {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, len(offsets))
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := range jobs {
			run(j.i, j.due)
		}
	}()
	for i, off := range offsets {
		due := start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(due))
		lateness.add(time.Since(due))
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	<-done
	return start
}

// closedLoop runs conns clients back to back until the deadline; each calls
// next(client) for its next unit of work.
func closedLoop(ph *phase, conns int, d time.Duration, next func(client int)) {
	ph.start = time.Now()
	deadline := ph.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				next(c)
			}
		}(c)
	}
	wg.Wait()
	ph.finish(time.Now())
}

func (ph *phase) seconds() float64 { return ph.end.Sub(ph.start).Seconds() }

// runLoad is the end-to-end run of one workload.
func runLoad(cfg runConfig, w workload) (result, error) {
	in := genInputs(w, cfg.seed, cfg.seconds)
	dataDir := filepath.Join(cfg.work, "data")
	var setups []float64
	var cl *serving
	var err error
	var pop phase // creates of the read workloads' sessions
	var ids []string
	g := newLoadgen(cfg.nproc)
	defer g.close()
	populateOn := func(cl *serving) error {
		g.base = "http://" + cl.front
		ids = populate(g, &pop, in)
		if g.failed > 0 {
			return fmt.Errorf("populating sessions: %d failed: %v", g.failed, g.errs)
		}
		return nil
	}
	if w.cold {
		// Populate through a first launch, then restart so every session
		// starts on disk; set-up time is that of the relaunch.
		if cl, _, err = startServing(cfg, w, dataDir); err != nil {
			return result{}, err
		}
		err = populateOn(cl)
		cl.stop()
		if err != nil {
			return result{}, err
		}
	}
	// Set up several times and keep the last launch for the measured phase.
	for i := 0; i < 9; i++ {
		if cl != nil {
			cl.stop()
		}
		var s float64
		if cl, s, err = startServing(cfg, w, dataDir); err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	defer cl.stop()
	if !w.journey && !w.cold {
		if err := populateOn(cl); err != nil {
			return result{}, err
		}
	}

	g.base = "http://" + cl.front
	warmup(g, w, in, ids)

	cpu0, err := cl.cpuMs()
	if err != nil {
		return result{}, err
	}
	steal0, total0 := hostCPU()
	var open, closed phase
	var lateness samples
	var journeysDone int
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if w.journey {
		// The open loop (one connection) and the closed loop (the other
		// connections) run side by side for the whole measured time, so
		// arrivals always meet the same background load instead of an
		// idle server; on this shared host that made the arrival-timed
		// latencies far steadier from run to run.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			open.start = openLoop(in.arrivals, &lateness, func(i int, due time.Time) {
				g.journey(&open, i, &in.apps[i], due)
			})
		}()
		var mu sync.Mutex
		count := 0
		closedLoop(&closed, max(1, cfg.nproc-1), measure, func(c int) {
			mu.Lock()
			app := count % len(in.apps)
			count++
			mu.Unlock()
			g.journey(&closed, app, &in.apps[app], time.Now())
		})
		wg.Wait()
		journeysDone = open.journeys.n() + closed.journeys.n()
	} else {
		pickers := make([]func() int, cfg.nproc)
		for c := range pickers {
			pickers[c] = visitPicker(w, cfg.seed, c)
		}
		closedLoop(&closed, cfg.nproc, measure, func(c int) {
			s := pickers[c]()
			app := in.sessionApp[s]
			g.visit(&closed, app, &in.apps[app], ids[s])
		})
	}
	cpu1, err := cl.cpuMs()
	if err != nil {
		return result{}, err
	}
	steal1, total1 := hostCPU()
	rss, err := cl.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	cl.stop()

	ref, err := checkAnswers(cfg, w, in, g)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	m["setup_s"] = metric{percentile(setups, 50), "s"}
	var creates, reads *samples
	if w.journey {
		// Creates and journeys of both loops: the open loop's ~40-60
		// arrival-timed samples alone swung 25-35% between runs on a
		// shared host, the closed loop adds a few hundred timed from send.
		creates = &samples{v: append(append([]float64(nil), open.creates.v...), closed.creates.v...)}
		reads = &samples{v: append(append([]float64(nil), open.reads.v...), closed.reads.v...)}
		journeys := &samples{v: append(append([]float64(nil), open.journeys.v...), closed.journeys.v...)}
		ms("journey_p50_ms", journeys.pct(50))
		m["cpu_ms_per_op"] = metric{(cpu1 - cpu0) / float64(journeysDone), "ms"}
	} else {
		creates = &pop.creates
		reads = &closed.reads
		ms("journey_p50_ms", closed.journeys.pct(50))
		m["cpu_ms_per_op"] = metric{(cpu1 - cpu0) / float64(closed.reads.n()), "ms"}
	}
	ms("create_p50_ms", creates.pct(50))
	ms("create_p75_ms", creates.pct(75))
	ms("read_p50_ms", reads.pct(50))
	ms("read_p95_ms", reads.pct(95))
	m["journeys_per_s"] = metric{float64(closed.journeys.n()) / closed.seconds(), "1/s"}
	m["reads_per_s"] = metric{float64(closed.reads.n()) / closed.seconds(), "1/s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["min_diff_mean"] = metric{ref.minDiffMean, "l2"}
	m["cand_fill_pct"] = metric{ref.fillPct, "%"}

	attempted := g.attempted
	failed := g.failed + g.mismatch + ref.mismatches
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{{"create_p75_ms", creates.n(), 75}, {"read_p95_ms", reads.n(), 95}} {
		if b := beyond(c.n, c.p); b < 10 {
			note("warning: %s has %d samples beyond it (%d total), fewer than 10", c.name, b, c.n)
		}
	}
	if w.journey && open.journeys.n() > 0 {
		note("open loop alone (timed from arrival): create_p50=%.3f ms create_p75=%.3f ms journey_p50=%.3f ms", open.creates.pct(50), open.creates.pct(75), open.journeys.pct(50))
	}
	note("samples: creates=%d reads=%d journeys=%d closed_journeys=%d", creates.n(), reads.n(), open.journeys.n()+closed.journeys.n(), closed.journeys.n())
	note("setup_s runs: %v", setups)
	if lateness.n() > 0 {
		note("generator lateness: p50=%.3f ms p99=%.3f ms max=%.3f ms", lateness.pct(50), lateness.pct(99), lateness.pct(100))
	}
	if total1 > total0 {
		note("host steal: %.2f%%", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	note("error_pct: %.4f %% (%d of %d requests failed or mismatched)", 100*float64(failed)/math.Max(1, float64(attempted)), failed, attempted)
	for _, e := range g.errs {
		note("failure: %s", e)
	}
	for _, e := range ref.problems {
		note("mismatch: %s", e)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// populate creates every session of a read workload, one at a time: a
// create already spreads its searches over every core, so overlapping
// creates would only slow each other down.
func populate(g *loadgen, ph *phase, in inputs) []string {
	ids := make([]string, len(in.sessionApp))
	ph.start = time.Now()
	for i, app := range in.sessionApp {
		t := time.Now()
		if id, ok := g.create(app, &in.apps[app]); ok {
			ph.creates.add(time.Since(t))
			ids[i] = id
		}
	}
	ph.finish(time.Now())
	return ids
}

// warmup runs a little unmeasured traffic so connections are open and lazy
// per-process state (statement caches, pools) is built before timing.
func warmup(g *loadgen, w workload, in inputs, ids []string) {
	var ph phase
	if w.journey {
		for i := 0; i < 2; i++ {
			g.journey(&ph, i, &in.apps[i], time.Now())
		}
		return
	}
	for i := 0; i < 2; i++ {
		app := in.sessionApp[i]
		g.visit(&ph, app, &in.apps[app], ids[i])
	}
}
