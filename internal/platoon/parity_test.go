package platoon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

func pJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pDump renders a full Result, trace included, for exact comparison.
// Traces hold NaN placeholders (MeasP before the first reading), which
// JSON cannot carry and which compare unequal under ==; the formatted
// rendering is exact for every other value and stable for NaN.
func pDump(v any) string { return fmt.Sprintf("%+v", v) }

// carFollowGoldenPath holds the car-following episodes a two-vehicle
// platoon must reproduce byte for byte.  The file was blessed from the
// retired stand-alone car-following engine, so it pins that engine's
// behaviour: re-bless with -update only for an intentional change.
var carFollowGoldenPath = filepath.Join("testdata", "golden_carfollow.json")

// carFollowGolden is one blessed (case, seed) episode.
type carFollowGolden struct {
	Case string `json:"case"`
	Seed int64  `json:"seed"`
	// Result is json.Marshal of the untraced Result; it also pins that a
	// two-vehicle platoon emits no Links block.
	Result string `json:"result"`
	// TraceSHA256 is the SHA-256 of pDump of the traced Result.
	TraceSHA256 string `json:"trace_sha256"`
}

// twoVehicleCase is one golden configuration of the car-following study.
type twoVehicleCase struct {
	name  string
	cfg   carfollow.SimConfig
	seed0 int64 // seeds seed0 … seed0+5
	invs  []sim.Invariant
}

// twoVehicleCases are the disturbance shapes the golden covers — every
// channel family, adversarial bursts, sensing faults — plus a delayed
// case with the safety invariants attached, pinning that the invariant
// plumbing (step payloads, episode checks) does not perturb the episode.
func twoVehicleCases(t *testing.T) []twoVehicleCase {
	t.Helper()
	burst, err := disturb.Preset("burst")
	if err != nil {
		t.Fatal(err)
	}
	var cases []twoVehicleCase
	for _, m := range []struct {
		name string
		mod  func(*carfollow.SimConfig)
	}{
		{"perfect", func(*carfollow.SimConfig) {}},
		{"delayed", func(c *carfollow.SimConfig) { c.Comms = comms.Delayed(0.25, 0.5); c.InfoFilter = true }},
		{"lost", func(c *carfollow.SimConfig) { c.Comms = comms.Lost(); c.Sensor = sensor.Uniform(2) }},
		{"burst", func(c *carfollow.SimConfig) { c.Comms = comms.Disturbed(burst); c.InfoFilter = true }},
		{"sensor-fault", func(c *carfollow.SimConfig) {
			c.Comms = comms.Lost()
			c.SensorDisturb = disturb.BiasDrift{Max: 1, Period: 12}
		}},
	} {
		cfg := carfollow.DefaultSimConfig()
		m.mod(&cfg)
		cases = append(cases, twoVehicleCase{name: m.name, cfg: cfg})
	}
	inv := carfollow.DefaultSimConfig()
	inv.Comms = comms.Delayed(0.25, 0.5)
	inv.InfoFilter = true
	return append(cases, twoVehicleCase{
		name: "invariants", cfg: inv, seed0: 20,
		invs: []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			carfollow.TrueSlack{Cfg: inv.Scenario},
			StringStability{},
		},
	})
}

// twoVehicleEntry runs one (case, seed) episode on a two-vehicle platoon,
// traced and untraced, through the given arena (nil for fresh state).
func twoVehicleEntry(t *testing.T, tc twoVehicleCase, seed int64, sh *sim.Scratch) carFollowGolden {
	t.Helper()
	agent := carfollow.NewUltimate(tc.cfg.Scenario, carfollow.AggressiveExpert(tc.cfg.Scenario))
	pcfg := SimConfig{SimConfig: tc.cfg, Vehicles: 2}
	traced, err := RunEpisode(pcfg, agent, sim.Options{Seed: seed, Trace: true, Invariants: tc.invs, Scratch: sh})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunEpisode(pcfg, agent, sim.Options{Seed: seed, Invariants: tc.invs, Scratch: sh})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(pDump(traced)))
	return carFollowGolden{Case: tc.name, Seed: seed, Result: pJSON(t, plain), TraceSHA256: hex.EncodeToString(sum[:])}
}

// loadCarFollowGolden reads the blessed file, or with -update re-blesses
// it from fresh runs of every case first.
func loadCarFollowGolden(t *testing.T) map[string]carFollowGolden {
	t.Helper()
	if *update {
		var all []carFollowGolden
		for _, tc := range twoVehicleCases(t) {
			for seed := tc.seed0; seed < tc.seed0+6; seed++ {
				all = append(all, twoVehicleEntry(t, tc, seed, nil))
			}
		}
		out, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(carFollowGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(carFollowGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/platoon -run TestTwoVehicle -update` to bless)", err)
	}
	var all []carFollowGolden
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&all); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]carFollowGolden, len(all))
	for _, g := range all {
		byKey[fmt.Sprintf("%s/%d", g.Case, g.Seed)] = g
	}
	return byKey
}

// checkTwoVehicleCase compares one case, fresh and pooled, against the
// blessed car-following episodes.
func checkTwoVehicleCase(t *testing.T, tc twoVehicleCase, golden map[string]carFollowGolden, reused *sim.Scratch) {
	t.Helper()
	for seed := tc.seed0; seed < tc.seed0+6; seed++ {
		want, ok := golden[fmt.Sprintf("%s/%d", tc.name, seed)]
		if !ok {
			t.Fatalf("seed %d: no blessed episode in %s", seed, carFollowGoldenPath)
		}
		for name, sh := range map[string]*sim.Scratch{"fresh": nil, "pooled": reused} {
			got := twoVehicleEntry(t, tc, seed, sh)
			if got.Result != want.Result {
				t.Fatalf("seed %d (%s): untraced result diverged from car following\nblessed:  %s\nplatoon:  %s",
					seed, name, want.Result, got.Result)
			}
			if got.TraceSHA256 != want.TraceSHA256 {
				t.Fatalf("seed %d (%s): traced result diverged from car following", seed, name)
			}
		}
	}
}

// TestTwoVehicleByteParity is the car-following byte-identity gate: a
// two-vehicle platoon must reproduce the blessed car-following episodes
// byte for byte — untraced JSON and full traced Result — under every
// disturbance shape, on both the fresh and the pooled-arena paths.
func TestTwoVehicleByteParity(t *testing.T) {
	golden := loadCarFollowGolden(t)
	reused := sim.NewScratch()
	for _, tc := range twoVehicleCases(t) {
		if tc.invs != nil {
			continue // TestTwoVehicleParityWithInvariants
		}
		t.Run(tc.name, func(t *testing.T) { checkTwoVehicleCase(t, tc, golden, reused) })
	}
}

// TestTwoVehicleParityWithInvariants repeats the gate with the safety
// invariants attached.
func TestTwoVehicleParityWithInvariants(t *testing.T) {
	golden := loadCarFollowGolden(t)
	for _, tc := range twoVehicleCases(t) {
		if tc.invs != nil {
			checkTwoVehicleCase(t, tc, golden, sim.NewScratch())
		}
	}
}

// TestStepperFinishIdempotent pins Finish/past-the-end semantics on the
// platoon engine.
func TestStepperFinishIdempotent(t *testing.T) {
	cfg := DefaultSimConfig()
	agent := carfollow.NewUltimate(cfg.Scenario, carfollow.ConservativeExpert(cfg.Scenario))
	st, err := NewStepper(cfg, agent, sim.Options{Seed: 2})
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
	if pDump(first) != pDump(second) {
		t.Fatalf("Finish is not idempotent\nfirst:  %s\nsecond: %s", pDump(first), pDump(second))
	}
}

// TestStepperRunParity pins the externally driven engine against the
// closed RunEpisode loop on a four-vehicle chain, fresh and pooled.
func TestStepperRunParity(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := carfollow.NewUltimate(cfg.Scenario, carfollow.AggressiveExpert(cfg.Scenario))
	reused := sim.NewScratch()
	for seed := int64(0); seed < 6; seed++ {
		want, err := RunEpisode(cfg, agent, sim.Options{Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		ref := pDump(want)
		for name, opts := range map[string]sim.Options{
			"fresh":  {Seed: seed, Trace: true},
			"pooled": {Seed: seed, Trace: true, Scratch: reused},
		} {
			st, err := NewStepper(cfg, agent, opts)
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
			if got := pDump(res); got != ref {
				t.Fatalf("seed %d (%s): stepper-driven episode diverged from RunEpisode", seed, name)
			}
		}
	}
}
