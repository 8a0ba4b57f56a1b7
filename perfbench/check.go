package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"justintime"
	"justintime/internal/core"
	"justintime/internal/server"
)

// reference is an in-process server built from the same configuration jitd
// uses; its answers are the expected ones.
type reference struct {
	sys *core.System
	srv *server.Server
}

// newReference trains the models exactly as jitd does for this method.
func newReference(method string) (*reference, error) {
	cfg := justintime.DefaultLoanDemoConfig()
	cfg.Method = method
	demo, err := justintime.NewLoanDemo(cfg)
	if err != nil {
		return nil, err
	}
	return &reference{sys: demo.System, srv: server.NewWithConfig(demo.System, server.Config{Logger: discardLogger})}, nil
}

// serve runs one request through the in-process server.
func (r *reference) serve(method, path string, body []byte) (int, []byte) {
	code, b, _ := serve(r.srv, method, path, body)
	return code, b
}

// refAnswers is the reference journey of one applicant.
type refAnswers struct {
	candidates int
	reads      [][]byte
	minDiff    *float64 // nil when the applicant has no candidate at all
	problems   []string // candidate rows breaking a model or pinning rule
}

func (r *reference) journey(a *applicant) (refAnswers, error) {
	var out refAnswers
	code, b := r.serve("POST", "/api/sessions", a.createBody)
	if code != http.StatusCreated {
		return out, fmt.Errorf("reference create: %d %s", code, b)
	}
	var created struct {
		ID         string `json:"id"`
		Candidates int    `json:"candidates"`
	}
	if err := json.Unmarshal(b, &created); err != nil {
		return out, err
	}
	out.candidates = created.Candidates
	base := "/api/sessions/" + created.ID
	defer r.serve("DELETE", base, nil)
	for _, rq := range a.reads {
		code, b := r.serve(rq.method, base+rq.path, rq.body)
		if code != http.StatusOK {
			return out, fmt.Errorf("reference %s: %d %s", rq.name, code, b)
		}
		out.reads = append(out.reads, b)
		if rq.name == core.QMinimalOverall.String() {
			var ask struct {
				Result struct {
					Rows [][]*float64 `json:"rows"`
				} `json:"result"`
			}
			if err := json.Unmarshal(b, &ask); err != nil {
				return out, err
			}
			if len(ask.Result.Rows) > 0 && len(ask.Result.Rows[0]) > 0 {
				out.minDiff = ask.Result.Rows[0][0]
			}
		}
	}
	code, b = r.serve("GET", base+"/inputs", nil)
	if code != http.StatusOK {
		return out, fmt.Errorf("reference inputs: %d %s", code, b)
	}
	out.problems = r.checkCandidates(out.reads[len(out.reads)-1], b)
	return out, nil
}

// sqlResult is the JSON shape of a SQL answer.
type sqlResult struct {
	Columns []string    `json:"columns"`
	Rows    [][]float64 `json:"rows"`
}

// checkCandidates verifies every stored candidate row of an expert
// "SELECT * FROM candidates" answer: its score under the time point's model
// is above the threshold and equals the stored p, and immutable features
// keep the time point's input values.
func (r *reference) checkCandidates(selectBody, inputsBody []byte) []string {
	var cands, ins sqlResult
	if err := json.Unmarshal(selectBody, &cands); err != nil {
		return []string{"candidates answer: " + err.Error()}
	}
	if err := json.Unmarshal(inputsBody, &ins); err != nil {
		return []string{"inputs answer: " + err.Error()}
	}
	schema := r.sys.Schema()
	models := r.sys.Models()
	d := schema.Dim()
	var problems []string
	for _, row := range cands.Rows {
		if len(row) != d+4 {
			return append(problems, fmt.Sprintf("candidate row has %d columns", len(row)))
		}
		t := int(row[0])
		if t < 0 || t >= len(models) || t >= len(ins.Rows) {
			return append(problems, fmt.Sprintf("candidate at time %d", t))
		}
		x := row[1 : 1+d]
		p := models[t].Model.Predict(x)
		if !(p > models[t].Threshold) || p != row[d+3] {
			problems = append(problems, fmt.Sprintf("t=%d: score %v (stored %v) vs threshold %v", t, p, row[d+3], models[t].Threshold))
		}
		for i := 0; i < d; i++ {
			if schema.Field(i).Immutable && x[i] != ins.Rows[t][1+i] {
				problems = append(problems, fmt.Sprintf("t=%d: immutable %s changed", t, schema.Field(i).Name))
			}
		}
	}
	return problems
}

// checkResult sums up the correctness check of one run.
type checkResult struct {
	mismatches  int64
	problems    []string
	minDiffMean float64
	fillPct     float64
}

// checkAnswers compares every distinct answer the load generator saw with
// the reference journey of the same applicant, and computes the two
// answer-quality metrics over the run's applicants.
func checkAnswers(cfg runConfig, w workload, in inputs, g *loadgen) (checkResult, error) {
	ref, err := newReference(w.method)
	if err != nil {
		return checkResult{}, err
	}
	refs := make([]refAnswers, len(in.apps))
	errs := make([]error, len(in.apps))
	var wg sync.WaitGroup
	next := make(chan int, len(in.apps))
	for i := range in.apps {
		next <- i
	}
	close(next)
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = ref.journey(&in.apps[i])
			}
		}()
	}
	wg.Wait()

	var res checkResult
	bad := func(format string, args ...any) {
		res.mismatches++
		if len(res.problems) < 5 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}
	var diffSum, fillSum float64
	var diffN int
	k := justintime.DefaultLoanDemoConfig().K
	slots := float64(k * (ref.sys.Horizon() + 1))
	for i := range in.apps {
		if errs[i] != nil {
			return res, errs[i]
		}
		rf := refs[i]
		for _, p := range rf.problems {
			bad("applicant %d: %s", i, p)
		}
		if n, ok := g.candCount[i]; ok && n != rf.candidates {
			bad("applicant %d: %d candidates, reference %d", i, n, rf.candidates)
		}
		for r, got := range g.answers[i] {
			if got != nil && !bytes.Equal(got, rf.reads[r]) {
				bad("applicant %d %s: answer differs from reference:\n  got  %.300s\n  want %.300s", i, in.apps[i].reads[r].name, got, rf.reads[r])
			}
		}
		if rf.minDiff != nil {
			diffSum += *rf.minDiff
			diffN++
		}
		fillSum += float64(rf.candidates) / slots
	}
	if diffN > 0 {
		res.minDiffMean = diffSum / float64(diffN)
	}
	res.fillPct = 100 * fillSum / float64(len(in.apps))
	return res, nil
}
