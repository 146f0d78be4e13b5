package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"runtime"
	"time"

	"safeplan/internal/campaign"
)

// Reference campaigns behind expected.json: refScale times the timed
// campaign size, from a seed range no benchmark run uses by default.
const (
	refScale = 16
	refSeed  = 1 << 40
	// refZ is the normal quantile of the recorded intervals; at z = 4 a
	// correct program falls outside about once in 16 000 runs.
	refZ = 4.0
)

// runCalibrate measures each campaign workload's reference safe and reach
// rates and prints the intervals a timed campaign must fall in.
func runCalibrate(out io.Writer, models string) error {
	env := &runEnv{models: models, seed: refSeed, nproc: runtime.NumCPU(), epoch: time.Now(), notes: map[string]float64{}}
	exp := map[string]expected{}
	for _, name := range workloadNames {
		if name == "serve-open" {
			continue
		}
		wl, err := lookupCampaign(name)
		if err != nil {
			return err
		}
		newStarter, err := wl.prepare(models)
		if err != nil {
			return err
		}
		p := newPool(env.nproc, false, newStarter, env.epoch)
		run, err := runCampaign(&wl, p, refScale*wl.episodes, refSeed, env.nproc, env.epoch)
		if err != nil {
			return err
		}
		st := run.report.Stats
		at := func(r campaign.Rate) [2]float64 {
			k := int64(math.Round(r.Rate * float64(wl.episodes)))
			lo, hi := campaign.Wilson(k, int64(wl.episodes), refZ)
			return [2]float64{lo, hi}
		}
		exp[name] = expected{Episodes: wl.episodes, SafeRate: at(st.SafeRate), ReachRate: at(st.ReachRate)}
		log.Printf("%s: %d reference episodes, safe %.4f, reach %.4f", name, st.Episodes, st.SafeRate.Rate, st.ReachRate.Rate)
	}
	raw, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}
