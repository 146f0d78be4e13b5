package safeplan_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"safeplan"
)

// TestRunShardedCampaignFacade exercises the public campaign entry point
// end to end: deterministic stats across worker counts, the standard
// invariant set in fail mode, and checkpoint/resume through the facade.
func TestRunShardedCampaignFacade(t *testing.T) {
	cfg := safeplan.DefaultSimConfig()
	cfg.Comms = safeplan.DelayedComms(0.25, 0.5)
	cfg.InfoFilter = true
	sc := cfg.Scenario
	agent := safeplan.BuildUltimate(sc, safeplan.NewAggressiveExpert(sc))

	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	run := func(workers int, path string) *safeplan.CampaignReport {
		rep, err := safeplan.RunShardedCampaign(safeplan.CampaignSpec{
			Name:           "facade",
			Episodes:       600,
			BaseSeed:       1,
			Workers:        workers,
			Invariants:     safeplan.StandardInvariants(sc),
			CheckpointPath: path,
		}, safeplan.LeftTurnCampaign(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	a := run(1, "")
	b := run(4, ckpt)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats differ across worker counts:\n1: %+v\n4: %+v", a.Stats, b.Stats)
	}
	if a.Stats.Collided != 0 {
		t.Fatalf("guaranteed design collided %d times", a.Stats.Collided)
	}
	if a.Stats.EmergencyEpisodes == 0 {
		t.Fatal("fixture never exercised the emergency planner; invariants ran vacuously")
	}

	// Resume from the complete checkpoint: identical stats, zero re-runs.
	c := run(4, ckpt)
	if !reflect.DeepEqual(b.Stats, c.Stats) {
		t.Fatal("resumed stats differ from the original run")
	}
	if c.Perf.ResumedShards != c.Perf.Shards {
		t.Fatalf("resumed %d of %d shards", c.Perf.ResumedShards, c.Perf.Shards)
	}
}
