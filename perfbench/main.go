// Command perfbench is the repository's end-to-end benchmark: it launches
// jitd (and jitrouter) from freshly built binaries, drives them over HTTP
// with seeded applicant journeys, checks every answer against an in-process
// reference, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin <dir with jitd, jitrouter> -work <scratch dir> \
//	    --workload journey-ki --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of the workload;
// with --trace 1 it instead replays a sample of the same generated inputs
// in-process, one at a time, through the layers' public functions and
// reports per-layer metrics from its own spans (see trace.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	bin      string // directory holding jitd and jitrouter
	work     string // per-run scratch directory, removed at exit
	traceOut string // directory the traced run writes its spans to
	nproc    int    // load-generator connections
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traceRun := flag.Int("trace", 0, "1: in-process traced run reporting per-layer metrics")
	bin := flag.String("bin", "", "directory with the jitd and jitrouter binaries")
	work := flag.String("work", "", "scratch directory for data dirs and logs")
	flag.Parse()

	spec, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1, -bin and -work\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		bin:      *bin,
		work:     filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		traceOut: filepath.Join(*work, "traces"),
		nproc:    runtime.NumCPU(),
	}
	workDir = cfg.work
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatalf("%v", err)
	}

	// Serving processes die with the benchmark (Pdeathsig) and are stopped
	// explicitly on every exit path, a signal included.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fatalf("interrupted")
	}()

	var res result
	var err error
	if *traceRun == 1 {
		res, err = runTrace(cfg, spec)
	} else {
		res, err = runLoad(cfg, spec)
	}
	stopAll()
	os.RemoveAll(workDir)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult prints each metric on its own line, then the JSON result as
// the last line of standard output.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

// note prints an informational line (host noise, sample counts) that is not
// part of the result.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// workDir is the run's scratch directory, removed on every exit path.
var workDir string

func fatalf(format string, args ...any) {
	stopAll()
	if workDir != "" {
		os.RemoveAll(workDir)
	}
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
