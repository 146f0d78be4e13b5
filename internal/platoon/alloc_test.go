package platoon

import (
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/sim"
)

// episodeAllocBudget is the allocation budget of internal/sim/alloc_test.go.
// A warm platoon episode with more than one link allocates exactly once:
// Finish makes Result.Links fresh for every episode, because the caller
// owns the Result — serve keeps a session's result after its shard has
// recycled the arena — so Links must not alias arena storage.  That one
// caller-owned allocation is the expected floor (DESIGN.md §12); the
// budget's slack above it absorbs the runtime's stray allocations.
const episodeAllocBudget = 2

// TestPlatoonEpisodeAllocs is the platoon allocation gate: with a warmed
// scratch arena, a four-vehicle chain under delayed comms with the
// information filter on must stay within the zero-alloc budget.
func TestPlatoonEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := ultimate(cfg)
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
		t.Errorf("platoon episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}
