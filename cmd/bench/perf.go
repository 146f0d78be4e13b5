package main

import (
	"encoding/json"
	"log"
	"os"
	"runtime"
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/experiments"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
)

// perfReport is the file layout of BENCH_perf.json: the allocation and
// latency matrix behind the zero-allocation stepping work.  Every row
// measures one scenario's episode runner twice — without a scratch arena
// (the legacy allocate-per-episode path) and with one (the campaign
// engine's pooled path) — so the before/after columns document exactly
// what the arena buys and regressions show up as a shrinking factor.
type perfReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	BaseSeed    int64  `json:"base_seed"`

	Rows []perfRow `json:"rows"`
}

// perfSample is one measured configuration (scratch off or on).  An "op"
// is one full episode.
type perfSample struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerStep   float64 `json:"ns_per_step"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// perfRow is one scenario of the matrix with its before/after samples and
// the reduction factors (before ÷ after; higher is better).
type perfRow struct {
	Name   string     `json:"name"`
	Before perfSample `json:"before"` // no scratch: legacy allocate-per-episode
	After  perfSample `json:"after"`  // reused scratch arena (campaign path)

	AllocReduction float64 `json:"alloc_reduction"`
	BytesReduction float64 `json:"bytes_reduction"`
}

// perfSeedCycle rotates episode seeds inside a measurement so the numbers
// average over episode shapes instead of timing one seed's trajectory.
const perfSeedCycle = 16

// runPerfMatrix measures the four episode runners with and without a
// scratch arena and writes the comparison to out.
func runPerfMatrix(seed int64, out string) {
	report := perfReport{
		GeneratedBy: "cmd/bench -perf",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		BaseSeed:    seed,
	}
	for _, w := range perfWorkloads() {
		row := perfRow{Name: w.name}
		row.Before = measureEpisodes(w.run, nil, seed)
		row.After = measureEpisodes(w.run, sim.NewScratch(), seed)
		if row.After.AllocsPerOp > 0 {
			row.AllocReduction = float64(row.Before.AllocsPerOp) / float64(row.After.AllocsPerOp)
		}
		if row.After.BytesPerOp > 0 {
			row.BytesReduction = float64(row.Before.BytesPerOp) / float64(row.After.BytesPerOp)
		}
		report.Rows = append(report.Rows, row)
		log.Printf("%-24s before %7d allocs/op %9d B/op   after %5d allocs/op %7d B/op   (%.0fx / %.0fx)",
			w.name, row.Before.AllocsPerOp, row.Before.BytesPerOp,
			row.After.AllocsPerOp, row.After.BytesPerOp,
			row.AllocReduction, row.BytesReduction)
	}

	raw, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if out == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := campaign.WriteFileAtomic(out, raw); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d rows)", out, len(report.Rows))
}

// perfWorkload is one scenario of the perf matrix.
type perfWorkload struct {
	name string
	run  func(opts sim.Options) (sim.Result, error)
}

// perfWorkloads builds the matrix: one episode runner per scenario, all
// under the delayed-comms setting with the information filter on (the
// heaviest steady-state stack: Kalman replay, fusion, compound monitor).
func perfWorkloads() []perfWorkload {
	ltCfg := sim.DefaultConfig()
	ltCfg.Comms = comms.Delayed(0.25, 0.5)
	ltCfg.InfoFilter = true
	ltAgent := core.NewUltimate(ltCfg.Scenario, experiments.ExpertPlanners(ltCfg.Scenario).Cons)

	multiCfg := sim.DefaultMultiConfig()
	multiCfg.Comms = comms.Delayed(0.25, 0.5)
	multiCfg.InfoFilter = true
	multiAgent := core.NewMultiUltimate(multiCfg.Scenario, experiments.ExpertPlanners(multiCfg.Scenario).Cons)

	cfCfg := carfollow.DefaultSimConfig()
	cfCfg.Comms = comms.Delayed(0.25, 0.5)
	cfCfg.InfoFilter = true
	cfAgent := carfollow.NewUltimate(cfCfg.Scenario, carfollow.AggressiveExpert(cfCfg.Scenario))

	plCfg := platoon.DefaultSimConfig()
	plCfg.Comms = comms.Delayed(0.25, 0.5)
	plCfg.InfoFilter = true
	plAgent := carfollow.NewUltimate(plCfg.Scenario, carfollow.AggressiveExpert(plCfg.Scenario))

	return []perfWorkload{
		{"left-turn", func(opts sim.Options) (sim.Result, error) { return sim.Run(ltCfg, ltAgent, opts) }},
		{"multi-vehicle", func(opts sim.Options) (sim.Result, error) { return sim.RunMulti(multiCfg, multiAgent, opts) }},
		{"car-follow", func(opts sim.Options) (sim.Result, error) { return carfollow.RunEpisode(cfCfg, cfAgent, opts) }},
		{"platoon-4", func(opts sim.Options) (sim.Result, error) { return platoon.RunEpisode(plCfg, plAgent, opts) }},
	}
}

// measureEpisodes benchmarks one episode runner with the given (possibly
// nil) scratch arena.  The arena is reused across iterations, exactly as a
// campaign shard reuses it across its episodes.
func measureEpisodes(run func(sim.Options) (sim.Result, error), sh *sim.Scratch, seed int64) perfSample {
	var steps int64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		steps = 0
		for i := 0; i < b.N; i++ {
			r, err := run(sim.Options{Seed: seed + int64(i%perfSeedCycle), Scratch: sh})
			if err != nil {
				b.Fatal(err)
			}
			steps += int64(r.Steps)
		}
	})
	s := perfSample{
		Iterations:  res.N,
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if steps > 0 {
		s.NsPerStep = float64(res.T.Nanoseconds()) / float64(steps)
	}
	return s
}
