package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"runtime"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/sim"
)

// epRecord is one episode as timed around its EpisodeFunc call.
type epRecord struct {
	start, end int64 // ns since the run's epoch
	steps      int
	failed     bool
}

// worker is one campaign worker's private agent stack.  Workers circulate
// through a channel, so an agent never runs two episodes at once: the NN
// planner keeps per-call scratch and sharing one across goroutines races.
type worker struct {
	start starter
	buf   *spanBuf // nil when untraced
	epoch time.Time
	eps   []epRecord
}

// run is one episode: NewStepper, Step until done, Finish — the loop of
// sim.Run and platoon.RunEpisode, with each call a span when traced.
func (w *worker) run(opts sim.Options) (sim.Result, error) {
	b := w.buf
	t0 := int64(time.Since(w.epoch))
	if b != nil {
		b.id = opts.Seed
		b.begin(spanEpisode)
		b.begin(spanSetup)
	}
	st, err := w.start(opts)
	if b != nil {
		b.end()
	}
	var r sim.Result
	if err == nil {
		for {
			if b != nil {
				b.begin(spanStep)
			}
			out, serr := st.Step(sim.StepInput{})
			if b != nil {
				b.end()
			}
			if serr != nil || out.Done {
				break
			}
		}
		if b != nil {
			b.begin(spanFinish)
		}
		r, err = st.Finish()
		if b != nil {
			b.end()
		}
	}
	if b != nil {
		b.end()
	}
	w.eps = append(w.eps, epRecord{
		start: t0, end: int64(time.Since(w.epoch)), steps: r.Steps,
		failed: err != nil || r.Collided || r.SoundViolations > 0,
	})
	return r, err
}

// pool hands workers to campaign goroutines.
type pool struct {
	all  []*worker
	free chan *worker
}

func newPool(n int, traced bool, newStarter func(b *spanBuf) starter, epoch time.Time) *pool {
	p := &pool{free: make(chan *worker, n)}
	for i := 0; i < n; i++ {
		w := &worker{epoch: epoch}
		if traced {
			w.buf = newSpanBuf(epoch)
		}
		w.start = newStarter(w.buf)
		p.all = append(p.all, w)
		p.free <- w
	}
	return p
}

func (p *pool) episode() campaign.EpisodeFunc {
	return func(opts sim.Options) (sim.Result, error) {
		w := <-p.free
		defer func() { p.free <- w }()
		return w.run(opts)
	}
}

// records drains every worker's episode records.
func (p *pool) records() []epRecord {
	var out []epRecord
	for _, w := range p.all {
		out = append(out, w.eps...)
		w.eps = w.eps[:0]
	}
	return out
}

// campaignRun is one campaign.Run with its wall-clock bounds.
type campaignRun struct {
	report     *campaign.Report
	start, end int64
}

func runCampaign(wl *campaignWorkload, p *pool, n int, seed int64, workers int, epoch time.Time) (campaignRun, error) {
	spec := campaign.Spec{
		Name: wl.name, Episodes: n, BaseSeed: seed, Workers: workers,
		Invariants: wl.invariants, CountViolations: true,
	}
	t0 := int64(time.Since(epoch))
	rep, err := campaign.Run(spec, p.episode())
	t1 := int64(time.Since(epoch))
	if err != nil {
		return campaignRun{}, fmt.Errorf("campaign %s: %w", wl.name, err)
	}
	return campaignRun{report: rep, start: t0, end: t1}, nil
}

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median.  The first two or three set-ups of a process run up to twice
// as slow as the rest (fresh heap, cold caches), so a median of nine
// measures the set-up work itself.
const setupRepeats = 9

// rig is a set-up campaign workload: the untraced worker pool, and the
// traced one for a traced run.
type rig struct {
	plain, traced *pool
}

// setupCampaign loads the models, builds one agent (with its cloned
// planner) per worker and warms the pools up with one short campaign.
func setupCampaign(wl *campaignWorkload, env *runEnv, withTrace bool) (*rig, error) {
	newStarter, err := wl.prepare(env.models)
	if err != nil {
		return nil, err
	}
	r := &rig{}
	r.plain = newPool(env.nproc, false, newStarter, env.epoch)
	warm := wl.traceEpisodes
	if _, err := runCampaign(wl, r.plain, warm, env.seed, env.nproc, env.epoch); err != nil {
		return nil, err
	}
	r.plain.records()
	if withTrace {
		r.traced = newPool(env.nproc, true, newStarter, env.epoch)
		if _, err := runCampaign(wl, r.traced, warm, env.seed, env.nproc, env.epoch); err != nil {
			return nil, err
		}
		r.traced.records()
		for _, w := range r.traced.all {
			w.buf.reset()
		}
	}
	return r, nil
}

// setupRepeated sets the workload up setupRepeats times and keeps the
// last rig; it returns the median set-up time.
func setupRepeated(wl *campaignWorkload, env *runEnv, withTrace bool) (*rig, float64, error) {
	var times []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from the same heap state
		t0 := time.Now()
		var err error
		r, err = setupCampaign(wl, env, withTrace)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, median(times), nil
}

// statsChecker compares campaign statistics byte for byte against the
// first repetition and checks the output contract.
type statsChecker struct {
	wl     *campaignWorkload
	env    *runEnv
	rates  bool // check the rates against expected.json
	first  []byte
	failed int64
}

func (c *statsChecker) observe(label string, st campaign.Stats) error {
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if c.first == nil {
		c.first = raw
		if c.rates {
			c.checkRates(st)
		}
	} else if !bytes.Equal(raw, c.first) {
		c.env.fail("%s: campaign.Stats differ from the first repetition", label)
	}
	var bad int64
	for name, v := range st.InvariantViolations {
		if v != 0 {
			c.env.fail("%s: invariant %s violated %d times", label, name, v)
			bad += v
		}
	}
	if st.Collided != 0 || st.SoundViolations != 0 {
		c.env.fail("%s: %d collisions, %d sound-estimate violations", label, st.Collided, st.SoundViolations)
	}
	c.failed += bad
	return nil
}

// checkRates checks the safe and reach rates against the intervals
// recorded in expected.json for this campaign size.
func (c *statsChecker) checkRates(st campaign.Stats) {
	exp, ok := expectedRates[c.wl.name]
	if !ok {
		c.env.fail("%s: no expected rates recorded", c.wl.name)
		return
	}
	if exp.Episodes != int(st.Episodes) {
		c.env.fail("%s: expected rates recorded for %d episodes, campaign ran %d", c.wl.name, exp.Episodes, st.Episodes)
		return
	}
	for _, r := range []struct {
		name string
		rate float64
		iv   [2]float64
	}{
		{"safe rate", st.SafeRate.Rate, exp.SafeRate},
		{"reach rate", st.ReachRate.Rate, exp.ReachRate},
	} {
		if r.rate < r.iv[0] || r.rate > r.iv[1] {
			c.env.fail("%s: %s %.4f outside the recorded Wilson interval [%.4f, %.4f]", c.wl.name, r.name, r.rate, r.iv[0], r.iv[1])
		}
	}
}

// measureCampaign is the untraced run: repeated campaigns over the fixed
// episode range until the time is up, then the worker-count check.
//
// The shared host runs in spells of seconds to minutes, some about 1.5
// times slower than the rest, and their share changes from run to run.  A median
// over a run lands in whichever spell holds the majority and jumps between
// them; a mean moves only in proportion to the share.  So the rates are
// totals over the whole run, and the episode time is the mean over the
// repetitions of each repetition's median, which still discounts a few
// slow episodes inside one repetition.
func measureCampaign(wl *campaignWorkload, env *runEnv) (map[string]float64, error) {
	r, setupS, err := setupRepeated(wl, env, false)
	if err != nil {
		return nil, err
	}
	chk := &statsChecker{wl: wl, env: env, rates: true}
	var repP50Ms []float64
	var wallS float64
	var steps int64
	deadline := time.Now().Add(env.measure)
	for len(repP50Ms) == 0 || time.Now().Before(deadline) {
		run, err := runCampaign(wl, r.plain, wl.episodes, env.seed, env.nproc, env.epoch)
		if err != nil {
			return nil, err
		}
		wallS += float64(run.end-run.start) / 1e9
		steps += run.report.Stats.Steps
		if err := chk.observe(fmt.Sprintf("repetition %d", len(repP50Ms)+1), run.report.Stats); err != nil {
			return nil, err
		}
		recs := r.plain.records()
		epMs := make([]float64, len(recs))
		for i, e := range recs {
			epMs[i] = float64(e.end-e.start) / 1e6
			if e.failed {
				env.failed++
			}
		}
		env.attempted += int64(len(recs))
		repP50Ms = append(repP50Ms, median(epMs))
	}
	env.failed += chk.failed
	reps := len(repP50Ms)

	// Worker-count invariance: the same range at one worker must give
	// byte-identical statistics.
	one, err := runCampaign(wl, r.plain, wl.episodes, env.seed, 1, env.epoch)
	if err != nil {
		return nil, err
	}
	r.plain.records()
	if err := chk.observe("1-worker check", one.report.Stats); err != nil {
		return nil, err
	}
	env.note("repetitions", float64(reps))
	env.note("episodes_timed", float64(reps*wl.episodes))
	log.Printf("%s: %d repetitions of %d episodes", wl.name, reps, wl.episodes)
	return map[string]float64{
		"eps_per_s":      float64(reps*wl.episodes) / wallS,
		"episode_p50_ms": mean(repP50Ms),
		"max_rate_rps":   float64(steps) / wallS,
		"setup_s":        setupS,
		"mem_peak_mb":    peakRSSMB(),
	}, nil
}

// traceCampaign is the traced run: untraced and traced campaigns over the
// first traceEpisodes of the range alternate until the time share is up,
// then the filter replay runs on trajectories of the same episodes.
func traceCampaign(wl *campaignWorkload, env *runEnv, share float64) (map[string]float64, []*spanBuf, error) {
	r, _, err := setupRepeated(wl, env, true)
	if err != nil {
		return nil, nil, err
	}
	n := wl.traceEpisodes
	chk := &statsChecker{wl: wl, env: env}
	var totals spanTotals
	var rt runtimeDelta
	var plainEpNs, tracedEpNs, edgeNs, busyNs, wallNs float64
	var plainEps, tracedEps int
	var epMs, stepUs []float64
	var steps, emergency, episodes int64
	deadline := time.Now().Add(time.Duration(float64(env.measure) * share))
	reps := 0
	for ; reps == 0 || time.Now().Before(deadline); reps++ {
		before := readRuntime()
		run, err := runCampaign(wl, r.plain, n, env.seed, env.nproc, env.epoch)
		if err != nil {
			return nil, nil, err
		}
		rt.add(before, readRuntime())
		recs := r.plain.records()
		first, last := recs[0].start, recs[0].end
		for _, e := range recs {
			d := float64(e.end - e.start)
			plainEpNs += d
			busyNs += d
			epMs = append(epMs, d/1e6)
			if e.steps > 0 {
				stepUs = append(stepUs, d/1e3/float64(e.steps))
			}
			first, last = min(first, e.start), max(last, e.end)
			if e.failed {
				env.failed++
			}
		}
		plainEps += len(recs)
		env.attempted += int64(len(recs))
		edgeNs += float64(first-run.start) + float64(run.end-last)
		wallNs += float64(run.end - run.start)
		if err := chk.observe("untraced", run.report.Stats); err != nil {
			return nil, nil, err
		}
		if reps == 0 {
			st := run.report.Stats
			steps, emergency, episodes = st.Steps, st.EmergencySteps, st.Episodes
		}

		for _, w := range r.traced.all {
			w.buf.reset()
		}
		trun, err := runCampaign(wl, r.traced, n, env.seed, env.nproc, env.epoch)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range r.traced.records() {
			tracedEpNs += float64(e.end - e.start)
			tracedEps++
		}
		for _, w := range r.traced.all {
			totals.add(w.buf)
		}
		if err := chk.observe("traced", trun.report.Stats); err != nil {
			return nil, nil, err
		}
	}
	env.failed += chk.failed

	// Allocations of the episode engine alone: the same episodes on one
	// goroutine with one scratch arena, as a campaign shard runs them,
	// without the campaign's own per-run allocations.
	// A first pass fills the arena's pools; the second is counted.
	w := r.plain.all[0]
	scratch := sim.NewScratch()
	var engine runtimeDelta
	for pass := 0; pass < 2; pass++ {
		before := readRuntime()
		for k := 0; k < n; k++ {
			if _, err := w.run(sim.Options{Seed: env.seed + int64(k), Scratch: scratch, Invariants: wl.invariants}); err != nil {
				return nil, nil, err
			}
		}
		if pass == 1 {
			engine.add(before, readRuntime())
		}
		w.eps = w.eps[:0]
	}

	// Trajectories of the first episodes for the filter replay.
	var trajs [][]sim.Sample
	for k := 0; k < 16 && k < n; k++ {
		res, err := w.run(sim.Options{Seed: env.seed + int64(k), Trace: true})
		if err != nil {
			return nil, nil, err
		}
		trajs = append(trajs, res.Trace)
	}
	w.eps = w.eps[:0]
	rs, err := replayFilter(wl.replay, trajs, env.seed, time.Now().Add(time.Duration(float64(env.measure)*share/4)))
	if err != nil {
		return nil, nil, err
	}
	clk := clockCost()
	env.note("clock_pair_ns", clk)

	epMean := totals.meanNs(spanEpisode, false)
	stepsPerEp := float64(steps) / float64(episodes)
	accounted := 0.0
	if epMean > 0 {
		accounted = (totals.meanNs(spanSetup, false) + totals.meanNs(spanStep, false)*float64(totals.count[spanStep])/float64(totals.count[spanEpisode]) +
			totals.meanNs(spanFinish, false)) / epMean
	}
	if accounted < 0.9 || accounted > 1.1 {
		env.fail("%s: setup + steps + finish cover %.3f of the traced episode time, want within 10%%", wl.name, accounted)
	}
	m := map[string]float64{
		"sim.setup_us":           totals.meanNs(spanSetup, false) / 1e3,
		"sim.step_ns":            totals.meanNs(spanStep, false),
		"sim.engine_self_ns":     totals.meanNs(spanStep, true),
		"sim.finish_us":          totals.meanNs(spanFinish, false) / 1e3,
		"sim.steps_per_episode":  stepsPerEp,
		"sim.allocs_per_episode": engine.allocObjects / float64(n),
		"sim.bytes_per_episode":  engine.allocBytes / float64(n),
		"sim.accounted_frac":     accounted,

		"core.agent_ns":            totals.meanNs(spanAgent, false),
		"core.self_ns":             totals.meanNs(spanAgent, true),
		"core.emergency_step_frac": float64(emergency) / float64(steps),

		"planner.kn_ns":             totals.meanNs(spanPlanner, false),
		"planner.kn_calls_per_step": float64(totals.count[spanPlanner]) / float64(reps) / float64(steps),

		"comms.send_ns":        rs.meanNs(opSend, clk),
		"comms.poll_ns":        rs.meanNs(opPoll, clk),
		"sensor.measure_ns":    rs.meanNs(opMeasure, clk),
		"fusion.on_message_ns": rs.meanNs(opOnMessage, clk),
		"fusion.on_reading_ns": rs.meanNs(opOnReading, clk),
		"fusion.estimate_ns":   rs.meanNs(opEstimate, clk),

		"campaign.step_p50_us":    quantile(stepUs, 0.50),
		"campaign.step_p99_us":    quantile(stepUs, 0.99),
		"campaign.busy_frac":      busyNs / (wallNs * float64(env.nproc)),
		"campaign.edge_ms":        edgeNs / float64(reps) / 1e6,
		"campaign.episode_p99_ms": quantile(epMs, 0.99),

		"go.gc_cpu_frac":    rt.gcFrac(),
		"go.alloc_mb_per_s": rt.allocBytes / 1e6 / (wallNs / 1e9),

		"trace.overhead_frac": (tracedEpNs/float64(tracedEps))/(plainEpNs/float64(plainEps)) - 1,
	}
	if rs.sent > 0 {
		m["comms.delivered_frac"] = float64(rs.delivered) / float64(rs.sent)
	}
	var bufs []*spanBuf
	for _, w := range r.traced.all {
		bufs = append(bufs, w.buf)
	}
	log.Printf("%s: %d traced repetitions of %d episodes", wl.name, reps, n)
	return m, bufs, nil
}
