// Command perfbench is the repository's benchmark.  It runs one named
// workload for a fixed time, checks the outputs, and prints one JSON
// result line: the end-to-end metrics from an untraced run, or with
// --trace 1 the per-layer metrics from a traced run.  See README.md.
//
//	perfbench --workload lt-nn-delayed --seed 7 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runEnv carries one run's settings and its running tallies.
type runEnv struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	models   string
	traceDir string

	nproc int
	epoch time.Time

	attempted, failed int64
	failures          []string
	notes             map[string]float64
}

// fail records a failed output check; the run then reports correct=false.
func (e *runEnv) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Printf("CHECK FAILED: %s", msg)
	e.failures = append(e.failures, msg)
}

// note records a figure for the info line (sample counts and the like).
func (e *runEnv) note(name string, v float64) { e.notes[name] = v }

// errCheckFailed is returned after the result line when an output check
// failed.
var errCheckFailed = errors.New("output check failed")

// expected is one workload's recorded acceptance intervals: the Wilson
// score interval (z = 4) of the reference rate at the timed campaign size.
type expected struct {
	Episodes  int        `json:"episodes"`
	SafeRate  [2]float64 `json:"safe_rate"`
	ReachRate [2]float64 `json:"reach_rate"`
}

//go:embed expected.json
var expectedJSON []byte

var expectedRates map[string]expected

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		workload  = flag.String("workload", "", "workload name: lt-nn-delayed, lt-expert-delayed, platoon4-delayed or serve-open")
		seed      = flag.Int64("seed", 1, "base seed of the workload's inputs")
		seconds   = flag.Int("seconds", 10, "measured time [s]")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		models    = flag.String("models", "models", "directory of the committed NN models")
		traceDir  = flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
		calibrate = flag.Bool("calibrate", false, "print expected.json from reference campaigns instead of benchmarking")
	)
	flag.Parse()
	if err := json.Unmarshal(expectedJSON, &expectedRates); err != nil {
		log.Fatalf("expected.json: %v", err)
	}
	if *calibrate {
		if err := runCalibrate(os.Stdout, *models); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("--seconds must be at least 1 and --trace 0 or 1")
	}
	env := &runEnv{
		workload: *workload, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, models: *models, traceDir: *traceDir,
		nproc: runtime.NumCPU(), epoch: time.Now(), notes: map[string]float64{},
	}
	if err := run(os.Stdout, env); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run measures the workload and prints the info and result lines.
func run(out io.Writer, env *runEnv) error {
	if _, err := os.Stat(env.models); err != nil {
		return fmt.Errorf("models: %w", err)
	}
	var m map[string]float64
	var spans []*spanBuf
	var err error
	switch {
	case env.workload == "serve-open" && env.trace:
		m, spans, err = traceServe(env)
	case env.workload == "serve-open":
		m, err = measureServe(env)
	default:
		var wl campaignWorkload
		if wl, err = lookupCampaign(env.workload); err != nil {
			break
		}
		if env.trace {
			m, spans, err = traceCampaign(&wl, env, 0.8)
		} else {
			m, err = measureCampaign(&wl, env)
		}
	}
	if err != nil {
		return err
	}
	if env.trace && env.attempted > 0 {
		m["fail_frac"] = float64(env.failed) / float64(env.attempted)
	}
	if spans != nil {
		path := filepath.Join(env.traceDir, fmt.Sprintf("%s-seed%d.csv", env.workload, env.seed))
		if err := writeSpans(path, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		log.Printf("spans written to %s", path)
	}
	info := map[string]any{
		"workload": env.workload, "seed": env.seed, "trace": env.trace,
		"nproc": env.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"notes": env.notes, "check_failures": env.failures,
	}
	line, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	correct := len(env.failures) == 0 && env.failed == 0
	if err := emit(out, env.trace, max(env.attempted, 1), env.failed, correct, m); err != nil {
		return err
	}
	if !correct {
		return errCheckFailed
	}
	return nil
}
