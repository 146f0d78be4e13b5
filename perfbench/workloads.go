package main

import (
	"fmt"
	"path/filepath"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/experiments"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
	"safeplan/internal/workloads"
)

// engine is the resumable episode engine of both scenarios
// (*sim.Stepper and *platoon.Stepper).
type engine interface {
	Step(sim.StepInput) (sim.StepOutcome, error)
	Finish() (sim.Result, error)
}

// starter builds one episode's engine around a worker's private agent.
type starter func(opts sim.Options) (engine, error)

// campaignWorkload is one campaign-engine workload.  A timed repetition is
// a campaign.Run over the fixed episode range [seed, seed+episodes); the
// traced run uses the first traceEpisodes of that range, so its counts
// repeat exactly for a given seed.
type campaignWorkload struct {
	name          string
	episodes      int
	traceEpisodes int
	invariants    []sim.Invariant
	replay        replayConfig
	// prepare loads what every worker shares (the committed models) and
	// returns the per-worker starter constructor.  With a non-nil span
	// buffer the starter's κ_c and κ_n are wrapped to record spans into it.
	prepare func(models string) (func(b *spanBuf) starter, error)
}

// delayedLeftTurn is the registered "delayed/ultimate-conservative"
// configuration: the paper's messages-delayed setting (Δt_d = 0.25 s,
// p_d = 0.5) with the information filter on.
func delayedLeftTurn() (sim.Config, error) {
	w, err := workloads.Lookup("delayed/ultimate-conservative")
	if err != nil {
		return sim.Config{}, err
	}
	return w.Cfg, nil
}

// leftTurnStarter wraps κ_n from newPlanner in the ultimate compound κ_c.
func leftTurnStarter(cfg sim.Config, newPlanner func() planner.Planner) func(b *spanBuf) starter {
	return func(b *spanBuf) starter {
		kn := newPlanner()
		if b != nil {
			kn = &tracedPlanner{inner: kn, b: b}
		}
		var agent core.Agent = core.NewUltimate(cfg.Scenario, kn)
		if b != nil {
			agent = &tracedAgent{inner: agent, b: b}
		}
		return func(opts sim.Options) (engine, error) {
			st, err := sim.NewStepper(cfg, agent, opts)
			if err != nil {
				return nil, err
			}
			return st, nil
		}
	}
}

func leftTurnReplay(cfg sim.Config) replayConfig {
	return replayConfig{
		comms: cfg.Comms, sensor: cfg.Sensor, limits: cfg.Scenario.Oncoming,
		dtM: cfg.DtM, dtS: cfg.DtS, kalman: cfg.InfoFilter && !cfg.NoReplay,
	}
}

// clonePlanner copies an NN planner with its own network, so its forward
// caches and feature scratch are private to one worker.
func clonePlanner(p *planner.NNPlanner) *planner.NNPlanner {
	return &planner.NNPlanner{Label: p.Label, Net: p.Net.Clone(), Norm: p.Norm, Limits: p.Limits}
}

func ltNNDelayed() (campaignWorkload, error) {
	cfg, err := delayedLeftTurn()
	if err != nil {
		return campaignWorkload{}, err
	}
	return campaignWorkload{
		name:          "lt-nn-delayed",
		episodes:      1024,
		traceEpisodes: 256,
		invariants:    workloads.InvariantSet(cfg),
		replay:        leftTurnReplay(cfg),
		prepare: func(models string) (func(b *spanBuf) starter, error) {
			nn, err := planner.LoadNNPlanner(filepath.Join(models, experiments.ConsModelFile), "nn-cons", cfg.Scenario.Ego)
			if err != nil {
				return nil, fmt.Errorf("load NN planner: %w", err)
			}
			return leftTurnStarter(cfg, func() planner.Planner { return clonePlanner(nn) }), nil
		},
	}, nil
}

func ltExpertDelayed() (campaignWorkload, error) {
	cfg, err := delayedLeftTurn()
	if err != nil {
		return campaignWorkload{}, err
	}
	return campaignWorkload{
		name:          "lt-expert-delayed",
		episodes:      2048,
		traceEpisodes: 256,
		invariants:    workloads.InvariantSet(cfg),
		replay:        leftTurnReplay(cfg),
		prepare: func(string) (func(b *spanBuf) starter, error) {
			return leftTurnStarter(cfg, func() planner.Planner { return experiments.ExpertPlanners(cfg.Scenario).Cons }), nil
		},
	}, nil
}

// platoonConfig is the platoon-4 configuration of the repository's perf
// matrix: four vehicles, delayed comms on all three links, information
// filter on.
func platoonConfig() platoon.SimConfig {
	cfg := platoon.DefaultSimConfig()
	cfg.Comms = comms.Delayed(experiments.DelayedDelay, experiments.DelayedDropProb)
	cfg.InfoFilter = true
	return cfg
}

func platoon4Delayed() (campaignWorkload, error) {
	cfg := platoonConfig()
	sc := cfg.LinkScenario()
	return campaignWorkload{
		name:          "platoon4-delayed",
		episodes:      256,
		traceEpisodes: 32,
		invariants: []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			carfollow.TrueSlack{Cfg: sc},
			platoon.StringStability{},
		},
		replay: replayConfig{
			comms: cfg.Comms, sensor: cfg.Sensor, limits: sc.Lead,
			dtM: cfg.DtM, dtS: cfg.DtS, kalman: cfg.InfoFilter,
		},
		prepare: func(string) (func(b *spanBuf) starter, error) {
			return func(b *spanBuf) starter {
				var kn carfollow.Planner = carfollow.AggressiveExpert(sc)
				if b != nil {
					kn = &tracedCFPlanner{inner: kn, b: b}
				}
				var agent carfollow.Agent = carfollow.NewUltimate(sc, kn)
				if b != nil {
					agent = &tracedCFAgent{inner: agent, b: b}
				}
				return func(opts sim.Options) (engine, error) {
					st, err := platoon.NewStepper(cfg, agent, opts)
					if err != nil {
						return nil, err
					}
					return st, nil
				}
			}, nil
		},
	}, nil
}

// serveTwin is the offline twin of a serve-open session: the engine
// buildEngine constructs for a default left-turn open (ultimate design,
// conservative expert, undisturbed comms), as a campaign workload.  The
// serve workload checks every session against it and traces its engine
// layers through it.
func serveTwin() (campaignWorkload, error) {
	cfg := sim.DefaultConfig()
	cfg.InfoFilter = true
	return campaignWorkload{
		name:          "serve-twin",
		traceEpisodes: 256,
		invariants:    workloads.InvariantSet(cfg),
		replay:        leftTurnReplay(cfg),
		prepare: func(string) (func(b *spanBuf) starter, error) {
			return leftTurnStarter(cfg, func() planner.Planner { return planner.ConservativeExpert(cfg.Scenario) }), nil
		},
	}, nil
}

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"lt-nn-delayed", "lt-expert-delayed", "platoon4-delayed", "serve-open"}

// lookupCampaign resolves a campaign workload of workloadNames.
func lookupCampaign(name string) (campaignWorkload, error) {
	switch name {
	case "lt-nn-delayed":
		return ltNNDelayed()
	case "lt-expert-delayed":
		return ltExpertDelayed()
	case "platoon4-delayed":
		return platoon4Delayed()
	}
	return campaignWorkload{}, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}
