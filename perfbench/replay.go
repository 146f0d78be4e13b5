package main

import (
	"math/rand"
	"sort"
	"time"

	"safeplan/internal/comms"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// replayConfig is the observing stack of one V2V link: the channel, the
// onboard sensor and the information filter, with their periods.
type replayConfig struct {
	comms    comms.Config
	sensor   sensor.Config
	limits   dynamics.Limits
	dtM, dtS float64
	kalman   bool
}

// replayOp indexes the timed calls of the filter replay.
type replayOp int

const (
	opSend replayOp = iota
	opPoll
	opMeasure
	opOnMessage
	opOnReading
	opEstimate
	numReplayOps
)

// replayStats accumulates per-call times of the replay.
type replayStats struct {
	calls           [numReplayOps]int64
	ns              [numReplayOps]int64
	sent, delivered int64
}

// meanNs is the mean time of one call net of the clock read that timed it.
func (r *replayStats) meanNs(op replayOp, clockNs float64) float64 {
	if r.calls[op] == 0 {
		return 0
	}
	return max(0, float64(r.ns[op])/float64(r.calls[op])-clockNs)
}

// clockCost measures the cost of the time.Now pair that brackets each
// timed call, as the median of many back-to-back pairs.
func clockCost() float64 {
	const n = 4001
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	sort.Float64s(xs)
	return xs[n/2]
}

// replayFilter drives comms.NewChannel, sensor.New and fusion.New with the
// observed vehicle's trajectory from traced episodes — the calls the
// episode engine makes each control step — and times every call.  The
// layers sit inside the engine, so this is how the benchmark reaches them
// from outside.  Passes repeat until the deadline, each with fresh
// channel and sensor streams.
func replayFilter(rc replayConfig, trajs [][]sim.Sample, seed int64, deadline time.Time) (replayStats, error) {
	var st replayStats
	var buf []comms.Message
	for pass := int64(0); pass == 0 || time.Now().Before(deadline); pass++ {
		for k, tr := range trajs {
			if len(tr) == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(seed + pass*int64(len(trajs)) + int64(k)))
			ch, err := comms.NewChannel(rc.comms, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return st, err
			}
			sens, err := sensor.New(rc.sensor, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return st, err
			}
			f, err := fusion.New(fusion.Config{Limits: rc.limits, Sensor: rc.sensor, UseKalman: rc.kalman, Replay: rc.kalman})
			if err != nil {
				return st, err
			}
			f.InitExact(0, dynamics.State{P: tr[0].OncP, V: tr[0].OncV}, tr[0].OncA)
			msgTick, sensTick := comms.MakeTicker(rc.dtM), comms.MakeTicker(rc.dtS)
			msgTick.Due(0)
			sensTick.Due(0)
			for _, s := range tr {
				t := s.T
				state := dynamics.State{P: s.OncP, V: s.OncV}
				if at, ok := msgTick.Due(t); ok {
					t0 := time.Now()
					ch.Send(comms.Message{Sender: 1, T: at, P: s.OncP, V: s.OncV, A: s.OncA})
					st.add(opSend, t0)
				}
				t0 := time.Now()
				buf = ch.PollAppend(t, buf[:0])
				st.add(opPoll, t0)
				for _, m := range buf {
					t0 := time.Now()
					f.OnMessage(m)
					st.add(opOnMessage, t0)
				}
				if at, ok := sensTick.Due(t); ok {
					t0 := time.Now()
					r := sens.Measure(1, at, state, s.OncA)
					st.add(opMeasure, t0)
					t0 = time.Now()
					f.OnReading(r)
					st.add(opOnReading, t0)
				}
				t0 = time.Now()
				f.EstimateAt(t)
				st.add(opEstimate, t0)
			}
			sent, _, delivered := ch.Stats()
			st.sent += int64(sent)
			st.delivered += int64(delivered)
		}
	}
	return st, nil
}

func (r *replayStats) add(op replayOp, t0 time.Time) {
	r.ns[op] += int64(time.Since(t0))
	r.calls[op]++
}
