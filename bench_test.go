package safeplan

// Benchmark harness: one benchmark per paper artifact (Tables I–II,
// Figures 5a–5f, 6a–6b, the §V-C RMSE study) plus the DESIGN.md §6
// ablations and micro-benchmarks of the hot paths.  Each table/figure
// benchmark runs a reduced episode count per iteration (benchEpisodes)
// so `go test -bench=.` finishes in minutes; the cmd/tables and
// cmd/figures binaries regenerate the artifacts at any scale.

import (
	"math/rand"
	"sync"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/dynamics"
	"safeplan/internal/experiments"
	"safeplan/internal/fusion"
	"safeplan/internal/kalman"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/reach"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

const (
	benchEpisodes  = 60 // episodes per table cell / sweep point, per iteration
	benchSweepN    = 20 // episodes per sweep point (20 points per figure)
	benchTrajsRMSE = 20
	benchSeed      = 42
)

var (
	benchPlannersOnce sync.Once
	benchPlanners     experiments.Planners
)

// planners returns the expert κ_n pair (construction is free; the trained
// NN pair is exercised by BenchmarkImitationTraining separately).
func planners() experiments.Planners {
	benchPlannersOnce.Do(func() {
		benchPlanners = experiments.ExpertPlanners(leftturn.DefaultConfig())
	})
	return benchPlanners
}

// --- Tables ---------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	pl := planners()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table(experiments.Conservative, pl, benchEpisodes, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	pl := planners()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table(experiments.Aggressive, pl, benchEpisodes, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5 sweeps (a/b share a sweep; c/d and e/f likewise — the two
// sub-figures are two projections of the same campaign, so each benchmark
// regenerates both of its pair) -------------------------------------------

func BenchmarkFig5aReachVsTransmission(b *testing.B) {
	benchSweep(b, experiments.SweepTransmission)
}

func BenchmarkFig5bEmergencyVsTransmission(b *testing.B) {
	benchSweep(b, experiments.SweepTransmission)
}

func BenchmarkFig5cReachVsDrop(b *testing.B) {
	benchSweep(b, experiments.SweepDrop)
}

func BenchmarkFig5dEmergencyVsDrop(b *testing.B) {
	benchSweep(b, experiments.SweepDrop)
}

func BenchmarkFig5eReachVsSensor(b *testing.B) {
	benchSweep(b, experiments.SweepSensor)
}

func BenchmarkFig5fEmergencyVsSensor(b *testing.B) {
	benchSweep(b, experiments.SweepSensor)
}

func benchSweep(b *testing.B, sweep func(experiments.Planners, int, int64) ([]experiments.SweepPoint, error)) {
	b.Helper()
	pl := planners()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(pl, benchSweepN, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6 traces and the RMSE study -----------------------------------

func BenchmarkFig6aFilterTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FilterTrace(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bWindowTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WindowTrace(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FilterRMSE(benchTrajsRMSE, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

func BenchmarkAblationFilter(b *testing.B)       { benchAblation(b) }
func BenchmarkAblationAggressive(b *testing.B)   { benchAblation(b) }
func BenchmarkAblationReplay(b *testing.B)       { benchAblation(b) }
func BenchmarkAblationSoundMonitor(b *testing.B) { benchAblation(b) }

// benchAblation runs the full six-variant ablation campaign (all four
// named ablations are columns of the same run).
func benchAblation(b *testing.B) {
	b.Helper()
	pl := planners()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(pl, benchEpisodes, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Training --------------------------------------------------------------

func BenchmarkImitationTraining(b *testing.B) {
	sc := DefaultScenario()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainPlanner(sc, NewConservativeExpert(sc), "bench",
			TrainOptions{Samples: 4000, Epochs: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the per-step hot path ------------------------------

func BenchmarkEpisode(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := BuildUltimate(cfg.Scenario, planners().Cons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, agent, sim.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpisodeNopCollector is BenchmarkEpisode with telemetry off
// (nil collector) — it must track BenchmarkEpisode within noise, since a
// detached collector costs exactly one nil check per probe site.
// BenchmarkEpisodeTelemetry attaches a live Metrics collector so the two
// together bound the cost of the instrumentation itself.
func BenchmarkEpisodeNopCollector(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := BuildUltimate(cfg.Scenario, planners().Cons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, agent, sim.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpisodeTelemetry(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := BuildUltimate(cfg.Scenario, planners().Cons)
	m := NewMetrics()
	agent.SetCollector(m)
	defer agent.SetCollector(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, agent, sim.Options{Seed: int64(i), Collector: m}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKalmanUpdate(b *testing.B) {
	f := kalman.New(kalman.Config{DeltaP: 1, DeltaV: 1, DeltaA: 1})
	f.InitExact(0, 0, 8, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Update(float64(i+1)*0.1, float64(i), 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachabilityAt(b *testing.B) {
	lim := dynamics.Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3}
	snap := reach.Snapshot{T: 0, S: dynamics.State{P: -35, V: 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reach.At(snap, float64(i%100)*0.05, lim)
	}
}

func BenchmarkConservativeWindow(b *testing.B) {
	cfg := leftturn.DefaultConfig()
	est := leftturn.ExactEstimate(dynamics.State{P: -35, V: 8}, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cfg.ConservativeWindow(est)
	}
}

func BenchmarkAggressiveWindow(b *testing.B) {
	cfg := leftturn.DefaultConfig()
	est := leftturn.ExactEstimate(dynamics.State{P: -35, V: 8}, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cfg.AggressiveWindow(est)
	}
}

func BenchmarkMonitorAssess(b *testing.B) {
	cfg := leftturn.DefaultConfig()
	m := monitor.New(cfg)
	est := leftturn.ExactEstimate(dynamics.State{P: -20, V: 10}, 0.5)
	w := cfg.ConservativeWindow(est)
	ego := dynamics.State{P: -12, V: 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Assess(ego, w)
	}
}

func BenchmarkFusionEstimate(b *testing.B) {
	f, err := fusion.New(fusion.Config{
		Limits:    dynamics.Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3},
		Sensor:    sensor.Uniform(1),
		UseKalman: true,
		Replay:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	f.InitExact(0, dynamics.State{P: -35, V: 8}, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 50; i++ {
		f.OnReading(sensor.Reading{
			T: float64(i) * 0.1,
			P: -35 + 8*float64(i)*0.1 + rng.Float64(),
			V: 8 + rng.Float64(),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.EstimateAt(5 + float64(i%10)*0.05)
	}
}

func BenchmarkNNPlannerInference(b *testing.B) {
	sc := DefaultScenario()
	nnp, _, err := TrainPlanner(sc, NewConservativeExpert(sc), "bench",
		TrainOptions{Samples: 2000, Epochs: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	est := leftturn.ExactEstimate(dynamics.State{P: -35, V: 8}, 0)
	w := sc.ConservativeWindow(est)
	ego := dynamics.State{P: -20, V: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nnp.Accel(float64(i)*0.05, ego, w)
	}
}

// BenchmarkStreamTable exercises the multi-vehicle extension study.
func BenchmarkStreamTable(b *testing.B) {
	pl := planners()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StreamTable(pl, benchSweepN, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiEpisode measures one three-vehicle closed-loop episode.
func BenchmarkMultiEpisode(b *testing.B) {
	cfg := sim.DefaultMultiConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := BuildMultiUltimate(cfg.Scenario, planners().Cons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMulti(cfg, agent, sim.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCarFollowTable exercises the second case study's table.
func BenchmarkCarFollowTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CarFollowTable(benchSweepN, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedCampaign measures the campaign engine end to end: 1000
// delayed-comms episodes through the sharded runner with the standard
// invariant checkers attached (the per-step checking overhead is part of
// what this benchmark tracks).
func BenchmarkShardedCampaign(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	sc := cfg.Scenario
	agent := BuildUltimate(sc, planners().Cons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunShardedCampaign(CampaignSpec{
			Name:       "bench",
			Episodes:   1000,
			BaseSeed:   benchSeed,
			Invariants: StandardInvariants(sc),
		}, LeftTurnCampaign(cfg, agent)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCarFollowEpisode measures one car-following episode.
func BenchmarkCarFollowEpisode(b *testing.B) {
	cfg := carfollow.DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := carfollow.NewUltimate(cfg.Scenario, carfollow.AggressiveExpert(cfg.Scenario))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := carfollow.RunEpisode(cfg, agent, sim.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
