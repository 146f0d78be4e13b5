package carfollow_test

import (
	"encoding/json"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
)

func cfJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStepperRunParity pins the car-following engine contract (the
// platoon engine at two vehicles): an externally driven Stepper — fresh
// and with a reused arena (the pooled ExtEngine path) — must reproduce
// the closed-loop episode byte for byte under every disturbance shape the
// package exercises.
func TestStepperRunParity(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*carfollow.SimConfig)
	}{
		{"perfect", func(*carfollow.SimConfig) {}},
		{"delayed", func(c *carfollow.SimConfig) { c.Comms = comms.Delayed(0.25, 0.5) }},
		{"lost", func(c *carfollow.SimConfig) { c.Comms = comms.Lost() }},
	}
	reused := sim.NewScratch()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simCfg()
			cfg.InfoFilter = true
			tc.mod(&cfg)
			agent := carfollow.NewUltimate(cfg.Scenario, carfollow.AggressiveExpert(cfg.Scenario))
			for seed := int64(0); seed < 8; seed++ {
				want, err := runEpisode(cfg, agent, sim.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				ref := cfJSON(t, want)
				for name, opts := range map[string]sim.Options{
					"fresh":  {Seed: seed},
					"pooled": {Seed: seed, Scratch: reused},
				} {
					st, err := platoon.NewStepper(twoVehicle(cfg), agent, opts)
					if err != nil {
						t.Fatal(err)
					}
					for !st.Done() {
						if _, err := st.Step(sim.StepInput{}); err != nil {
							t.Fatal(err)
						}
					}
					res, err := st.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if got := cfJSON(t, res); got != ref {
						t.Fatalf("seed %d (%s): stepper-driven episode diverged from RunEpisode\nrun:     %s\nstepper: %s", seed, name, ref, got)
					}
				}
			}
		})
	}
}

// TestStepperFinishIdempotent pins Finish/past-the-end semantics on the
// car-following engine (the sim-side contract test covers the leftturn
// one).
func TestStepperFinishIdempotent(t *testing.T) {
	cfg := simCfg()
	st, err := platoon.NewStepper(twoVehicle(cfg), carfollow.NewUltimate(cfg.Scenario, carfollow.ConservativeExpert(cfg.Scenario)), sim.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Step(sim.StepInput{}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := st.Step(sim.StepInput{}); err != nil || !out.Done {
		t.Fatalf("past-the-end step: out=%+v err=%v", out, err)
	}
	second, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cfJSON(t, first) != cfJSON(t, second) {
		t.Fatalf("Finish is not idempotent\nfirst:  %s\nsecond: %s", cfJSON(t, first), cfJSON(t, second))
	}
}
