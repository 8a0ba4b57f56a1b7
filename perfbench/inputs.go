package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"

	"justintime/internal/core"
	"justintime/internal/dataset"
)

// workload fixes how the serving processes run and which traffic they get.
type workload struct {
	method string // future-model generator jitd trains
	// Journey workloads: open-loop applicants arriving at rate per second
	// on one connection, beside closed-loop back-to-back journeys on the
	// other connections.
	journey bool
	rate    float64
	// Read workloads: sessions created up front, then closed-loop visits.
	sessions int     // sessions created before the measured phase
	distinct int     // distinct applicants among them
	zipf     float64 // > 1: Zipf skew over sessions; 0: uniform
	cold     bool    // restart over the data dir so every session starts on disk
	routed   bool    // two jitd shards behind jitrouter
	jitdArgs []string
}

// The four workloads. The mix of applicants and reads is fixed; the seed
// varies the profiles' perturbations, the arrival order and gaps, and the
// visit streams.
var workloads = map[string]workload{
	// Creates through jitd with logistic (KI) models: candgen bookkeeping,
	// not model scoring, is the create cost.
	"journey-ki": {method: "ki", journey: true, rate: 3},
	// The same journey with forest (EDD) models: model scoring dominates
	// search and EDD training dominates set-up.
	"journey-edd": {method: "edd", journey: true, rate: 2},
	// Ten times more sessions than the resident cap, all on disk after a
	// restart: rehydration, page faults and eviction do the work.
	"returning-cold": {method: "ki", sessions: 160, distinct: 40, cold: true,
		jitdArgs: []string{"-max-sessions", "16", "-buffer-pool-pages", "8"}},
	// Hot reads through the router hop, Zipf-skewed over resident sessions.
	"hot-routed": {method: "ki", sessions: 40, distinct: 40, zipf: 1.2, routed: true},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// applicant is one generated user: a profile, constraints, and the
// parameters of the questions they ask.
type applicant struct {
	createBody []byte
	reads      []readReq // plan, six asks, one expert SELECT
}

// readReq is one per-session read; path is relative to /api/sessions/{id}.
type readReq struct {
	name   string // plan, a question kind, or expert
	method string
	path   string
	body   []byte
}

// constraintSets are the preferences applicants state. Every run uses each
// set with each demo applicant equally often, so seeds differ in the
// perturbations, question parameters and order, not in the mix.
var constraintSets = [][]string{
	nil,
	{"income <= old(income) * 1.3"},
	{"income <= old(income) * 1.15 AND gap <= 2"},
	{"amount >= old(amount) * 0.7"},
	{"debt >= old(debt) * 0.5"},
	{"household = old(household)"},
	{"gap <= 3"},
	{"income <= old(income) * 1.3", "amount >= old(amount) * 0.7"},
}

var (
	dominantMenu = []string{"income", "debt", "amount", "household"}
	alphaMenu    = []float64{0.6, 0.7, 0.8}
	expertMenu   = []string{
		"SELECT * FROM candidates",
		"SELECT * FROM candidates ORDER BY time, p DESC",
	}
	questionKinds = core.Questions("", 0)
)

// genApplicants returns n applicants. Each profile is a seeded perturbation
// of one of the five demo applicants; applicant i pairs demo applicant
// i mod 5 with constraint set i/5 mod 8, so 40 applicants cover every pair
// once, and takes its question parameters in turn from their menus. The
// mix of work is then the same for every seed.
func genApplicants(rng *rand.Rand, n int) []applicant {
	demo := dataset.RejectedProfiles()
	names := dataset.LoanSchema().Names()
	out := make([]applicant, n)
	for i := range out {
		base := demo[i%len(demo)]
		// Small perturbations of the money amounts only: the search's cost
		// depends strongly on where a profile sits against the models'
		// thresholds, and the run-to-run spread must stay small.
		x := []float64{
			base[0], // age
			base[1], // household
			math.Round(base[2]*(0.97+0.06*rng.Float64())/100) * 100, // income
			math.Round(base[3]*(0.95+0.1*rng.Float64())/10) * 10,    // debt
			base[4], // seniority
			math.Round(base[5]*(0.97+0.06*rng.Float64())/100) * 100, // amount
		}
		profile := make(map[string]float64, len(names))
		for j, name := range names {
			profile[name] = x[j]
		}
		cons := constraintSets[(i/len(demo))%len(constraintSets)]
		body, err := json.Marshal(map[string]any{"profile": profile, "constraints": cons})
		if err != nil {
			panic(err) // maps of floats and strings always encode
		}
		feature := dominantMenu[i%len(dominantMenu)]
		alpha := alphaMenu[i%len(alphaMenu)]
		expert := expertMenu[i%len(expertMenu)]
		reads := []readReq{{name: "plan", method: "GET", path: "/plan"}}
		for _, question := range questionKinds {
			kind := question.Kind.String()
			q := map[string]any{"kind": kind}
			switch question.Kind {
			case core.QDominantFeature:
				q["feature"] = feature
			case core.QTurningPoint:
				q["alpha"] = alpha
			}
			b, _ := json.Marshal(q)
			reads = append(reads, readReq{name: kind, method: "POST", path: "/ask", body: b})
		}
		sql, _ := json.Marshal(map[string]string{"query": expert})
		reads = append(reads, readReq{name: "expert", method: "POST", path: "/sql", body: sql})
		out[i] = applicant{createBody: body, reads: reads}
	}
	return out
}

// inputs is everything one run sends, derived from the seed alone.
type inputs struct {
	apps []applicant
	// Journey workloads: arrival offsets in seconds, one per applicant.
	arrivals []float64
	// Read workloads: sessionApp[i] is the applicant behind session i.
	sessionApp []int
}

// genInputs derives a run's inputs from the seed; a journey workload's
// arrivals fill the measured seconds at the workload's rate.
func genInputs(w workload, seed int64, seconds float64) inputs {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	if w.journey {
		// Poisson arrivals with stratified gaps: gap k is drawn from the
		// k-th of n equal-probability slices of the exponential
		// distribution, and the gaps are shuffled. Every seed then sees the
		// same spread of gaps, so how often creates overlap does not vary
		// from run to run.
		in.apps = genApplicants(rng, max(1, int(math.Round(w.rate*seconds))))
		n := len(in.apps)
		rng.Shuffle(n, func(a, b int) { in.apps[a], in.apps[b] = in.apps[b], in.apps[a] })
		gaps := make([]float64, n)
		for k := range gaps {
			u := (float64(k) + rng.Float64()) / float64(n)
			gaps[k] = -math.Log(1-u) / w.rate
		}
		rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
		at := 0.0
		for _, g := range gaps {
			at += g
			in.arrivals = append(in.arrivals, at)
		}
		return in
	}
	// Session i belongs to applicant i mod distinct, in generation order, so
	// a Zipf rank always lands on the same kind of applicant.
	in.apps = genApplicants(rng, w.distinct)
	for i := 0; i < w.sessions; i++ {
		in.sessionApp = append(in.sessionApp, i%w.distinct)
	}
	return in
}

// visitPicker draws the session of each closed-loop visit: uniform, or
// Zipf-skewed. Each client has its own seeded stream.
func visitPicker(w workload, seed int64, client int) func() int {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	if w.zipf > 1 {
		z := rand.NewZipf(rng, w.zipf, 1, uint64(w.sessions-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(w.sessions) }
}
