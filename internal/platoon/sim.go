package platoon

import (
	"safeplan/internal/carfollow"
	"safeplan/internal/sim"
)

// RunEpisode simulates one platoon episode under the shared episode
// options (trace recording, telemetry collector).  Like sim.Run it is a
// thin closed loop over the resumable Stepper engine; a two-vehicle
// chain is the car-following episode.
func RunEpisode(cfg SimConfig, agent carfollow.Agent, opts sim.Options) (sim.Result, error) {
	st, err := NewStepper(cfg, agent, opts)
	if err != nil {
		return sim.Result{}, err
	}
	for {
		out, err := st.Step(sim.StepInput{})
		if err != nil || out.Done {
			return st.Finish()
		}
	}
}
