package carfollow

import (
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/sim"
)

// episodeAllocBudget is the allocation budget of internal/sim/alloc_test.go:
// a small constant rather than zero, because the runtime occasionally
// charges a stray allocation (timer bookkeeping, stack growth) to the
// measured function.  A warm car-following episode allocates nothing.
const episodeAllocBudget = 2

// TestCarFollowEpisodeAllocs is the car-following allocation gate: with a
// warmed scratch arena, an episode under delayed comms with the
// information filter on must stay within the zero-alloc budget.
func TestCarFollowEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	sh := sim.NewScratch()
	// Warm the arena: the first episode grows every pool to steady state.
	if _, err := RunEpisode(cfg, agent, sim.Options{Seed: 1, Scratch: sh}); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := RunEpisode(cfg, agent, sim.Options{Seed: seed, Scratch: sh}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > episodeAllocBudget {
		t.Errorf("car-following episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}
