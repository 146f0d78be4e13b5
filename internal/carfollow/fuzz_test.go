package carfollow_test

import (
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sim"
)

// ffReader decodes fuzz bytes into bounded parameters (the car-following
// twin of the decoder in internal/sim; each package keeps its own copy so
// the fuzz targets stay self-contained).
type ffReader struct {
	data []byte
	i    int
}

func (r *ffReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

func (r *ffReader) unit() float64 { return float64(r.next()) / 255 }

func (r *ffReader) rng(lo, hi float64) float64 { return lo + r.unit()*(hi-lo) }

func ffModel(r *ffReader) disturb.Model {
	switch r.next() % 5 {
	case 0:
		return nil
	case 1:
		return disturb.IID{DropProb: r.unit(), Delay: r.rng(0, 0.5)}
	case 2:
		return disturb.GilbertElliott{
			PGoodBad: r.unit(),
			PBadGood: r.rng(0.02, 1),
			DropBad:  r.unit(),
			Delay:    r.rng(0, 0.3),
		}
	case 3:
		return disturb.Jitter{
			Base:     r.rng(0, 0.2),
			Spread:   r.rng(0, 0.8),
			TailProb: r.unit(),
			TailMean: r.rng(0, 1),
			DropProb: r.unit(),
		}
	default:
		s1 := r.rng(0, 10)
		return disturb.Schedule{Phases: []disturb.Phase{
			{Start: s1, Model: disturb.Blackout{}},
			{Start: s1 + r.rng(0.5, 5), Model: disturb.IID{DropProb: r.unit()}},
		}}
	}
}

// FuzzCarFollowSafety decodes arbitrary bytes into a channel disturbance,
// a sensing disturbance, and a scripted lead behaviour, and asserts the
// framework's guarantees in the car-following scenario via the shared
// invariant checkers threaded through the step loop (sim.Invariant).  The
// episodes run on the platoon engine at two vehicles, the engine that
// executes car following everywhere in this repository.
func FuzzCarFollowSafety(f *testing.F) {
	// Seed corpus: the three Table-style settings plus a hard-brake lead.
	f.Add([]byte{}, int64(1))                        // perfect comms, stock lead
	f.Add([]byte{1, 127, 127, 0}, int64(42))         // ≈ "messages delayed"
	f.Add([]byte{1, 255, 0, 0}, int64(7))            // ≈ "messages lost"
	f.Add([]byte{4, 60, 90, 128, 2, 0, 0}, int64(9)) // blackout then flaky
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, int64(3))  // lead slams the brakes (script of aMin)

	sc := carfollow.DefaultConfig()
	agents := []carfollow.Agent{
		carfollow.NewBasic(sc, carfollow.ConservativeExpert(sc)),
		carfollow.NewBasic(sc, carfollow.AggressiveExpert(sc)),
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		r := &ffReader{data: data}
		cfg := carfollow.DefaultSimConfig()
		if m := ffModel(r); m != nil {
			cfg.Comms = comms.Disturbed(m)
		}
		switch r.next() % 3 {
		case 1:
			cfg.SensorDisturb = disturb.BiasDrift{Rate: r.unit(), Max: r.unit()}
		case 2:
			cfg.SensorDisturb = disturb.SensorDropout{
				PGoodBad: r.rng(0, 0.3),
				PBadGood: r.rng(0.05, 1),
				DropBad:  r.unit(),
			}
		}
		agent := agents[int(r.next())%len(agents)]
		// Script the lead from the remaining bytes (one control step per
		// byte, clamped into the lead's physical envelope).
		if n := len(r.data) - r.i; n > 0 {
			if n > 400 {
				n = 400
			}
			script := make([]float64, n)
			for i := range script {
				script[i] = r.rng(cfg.Scenario.Lead.AMin, cfg.Scenario.Lead.AMax)
			}
			cfg.LeadScript = script
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoder produced invalid config: %v", err)
		}
		// Shared invariant checkers, enforced online at every step: no gap
		// violation, sound estimates contain the true lead state, and — the
		// Eq. 4 emergency invariant — the true-state stopping-distance slack
		// stays nonnegative, so maximal braking from any visited state
		// preserves the gap against every admissible lead behaviour.
		_, err := runEpisode(cfg, agent, sim.Options{Seed: seed, Invariants: []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			carfollow.TrueSlack{Cfg: cfg.Scenario},
		}})
		if err != nil {
			t.Fatalf("invariant violated under %+v: %v", cfg.Comms, err)
		}
	})
}
