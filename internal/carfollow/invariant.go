package carfollow

import (
	"fmt"

	"safeplan/internal/sim"
)

// TrueSlack implements sim.Invariant for the car-following scenario: the
// Eq. 4 emergency invariant on *true* states.  At every visited step the
// stopping-distance slack against the exactly-known lead must stay
// nonnegative, so maximal braking from any visited state preserves the
// gap against every admissible lead behaviour — the emergency planner
// always has a safe move available.
//
// As an Invariant it runs online — inside the platoon fuzz target,
// campaigns and unit tests — without recording a trace.
type TrueSlack struct {
	sim.StepOnly
	Cfg Config
}

// Name implements sim.Invariant.
func (TrueSlack) Name() string { return "true-slack" }

// CheckStep implements sim.Invariant.
func (c TrueSlack) CheckStep(s sim.StepInfo) error {
	if slack := c.Cfg.Slack(s.Ego, ExactLead(s.Other, s.OtherA)); slack < 0 {
		return &sim.ViolationError{
			Invariant: c.Name(),
			T:         s.T,
			Detail: fmt.Sprintf("true-state slack %v < 0 (ego p=%.3f v=%.3f, lead p=%.3f v=%.3f)",
				slack, s.Ego.P, s.Ego.V, s.Other.P, s.Other.V),
		}
	}
	return nil
}
