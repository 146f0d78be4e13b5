package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"safeplan/internal/carfollow"
	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/planner"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spanEpisode   spanName = iota // campaign.EpisodeFunc call
	spanSetup                     // sim.NewStepper / platoon.NewStepper
	spanStep                      // Stepper.Step
	spanFinish                    // Stepper.Finish
	spanAgent                     // core.Agent / carfollow.Agent Accel (κ_c)
	spanPlanner                   // planner.Planner / carfollow.Planner Accel (κ_n)
	spanOpen                      // serve OpOpen request, due → response
	spanServeStep                 // serve OpStep request, due → response
	spanClose                     // serve OpClose request, due → response
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"campaign.episode", "sim.setup", "sim.step", "sim.finish",
	"core.agent", "planner.kn", "serve.open", "serve.step", "serve.close",
}

// span is one recorded interval.  Times are nanoseconds since the
// recorder's epoch; parent indexes the same buffer (-1 for a root).
type span struct {
	start, end int64
	id         int64 // episode seed or request sequence number
	parent     int32
	name       spanName
}

// spanBuf records the spans of one goroutine.  Spans nest through a stack,
// so a buffer must never be shared by two goroutines at once: campaign
// workers each own one, handed out with their agent.
type spanBuf struct {
	epoch time.Time
	spans []span
	stack []int32
	id    int64
}

func newSpanBuf(epoch time.Time) *spanBuf { return &spanBuf{epoch: epoch} }

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

func (b *spanBuf) begin(n spanName) {
	parent := int32(-1)
	if k := len(b.stack); k > 0 {
		parent = b.stack[k-1]
	}
	b.spans = append(b.spans, span{start: b.now(), id: b.id, parent: parent, name: n})
	b.stack = append(b.stack, int32(len(b.spans)-1))
}

func (b *spanBuf) end() {
	k := len(b.stack) - 1
	b.spans[b.stack[k]].end = b.now()
	b.stack = b.stack[:k]
}

// record appends a finished root span (serve requests, whose interval is
// known only once the response arrives).
func (b *spanBuf) record(n spanName, id, start, end int64) {
	b.spans = append(b.spans, span{start: start, end: end, id: id, parent: -1, name: n})
}

func (b *spanBuf) reset() {
	b.spans = b.spans[:0]
	b.stack = b.stack[:0]
}

// spanTotals accumulates, per span name, the call count, the summed
// duration and the summed self time (duration minus the time covered by
// child spans).
type spanTotals struct {
	count [numSpanNames]int64
	dur   [numSpanNames]int64
	self  [numSpanNames]int64
}

// add folds one buffer.  Children of a span run on the same goroutine
// inside its interval and never overlap each other, so the covered time is
// the plain sum of their durations.
func (t *spanTotals) add(b *spanBuf) {
	child := make([]int64, len(b.spans))
	for _, s := range b.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range b.spans {
		d := s.end - s.start
		t.count[s.name]++
		t.dur[s.name] += d
		t.self[s.name] += d - child[i]
	}
}

// meanNs returns the mean duration (self time when self is set) of a span
// name, or 0 when none was recorded.
func (t *spanTotals) meanNs(n spanName, self bool) float64 {
	if t.count[n] == 0 {
		return 0
	}
	if self {
		return float64(t.self[n]) / float64(t.count[n])
	}
	return float64(t.dur[n]) / float64(t.count[n])
}

// writeSpans dumps the buffers as one CSV file.  A row's parent is the
// index of another row of the same buffer, so each row carries its buffer
// and index.
func writeSpans(path string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buffer,index,name,start_ns,end_ns,parent,id")
	for bi, b := range bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", bi, i, spanNames[s.name], s.start, s.end, s.parent, s.id)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAgent wraps the left-turn compound κ_c.
type tracedAgent struct {
	inner core.Agent
	b     *spanBuf
}

func (a *tracedAgent) Name() string { return a.inner.Name() }

func (a *tracedAgent) Accel(t float64, ego dynamics.State, k core.Knowledge) (float64, bool) {
	a.b.begin(spanAgent)
	acc, em := a.inner.Accel(t, ego, k)
	a.b.end()
	return acc, em
}

// tracedPlanner wraps the left-turn κ_n.
type tracedPlanner struct {
	inner planner.Planner
	b     *spanBuf
}

func (p *tracedPlanner) Name() string { return p.inner.Name() }

func (p *tracedPlanner) Accel(t float64, ego dynamics.State, w interval.Interval) float64 {
	p.b.begin(spanPlanner)
	a := p.inner.Accel(t, ego, w)
	p.b.end()
	return a
}

// tracedCFAgent wraps the car-following compound of the platoon's NN
// vehicle.
type tracedCFAgent struct {
	inner carfollow.Agent
	b     *spanBuf
}

func (a *tracedCFAgent) Name() string { return a.inner.Name() }

func (a *tracedCFAgent) Accel(t float64, ego dynamics.State, k carfollow.Knowledge) (float64, bool) {
	a.b.begin(spanAgent)
	acc, em := a.inner.Accel(t, ego, k)
	a.b.end()
	return acc, em
}

// tracedCFPlanner wraps the car-following κ_n.
type tracedCFPlanner struct {
	inner carfollow.Planner
	b     *spanBuf
}

func (p *tracedCFPlanner) Name() string { return p.inner.Name() }

func (p *tracedCFPlanner) Accel(t float64, ego dynamics.State, lead carfollow.LeadEstimate, assumedBrake float64) float64 {
	p.b.begin(spanPlanner)
	a := p.inner.Accel(t, ego, lead, assumedBrake)
	p.b.end()
	return a
}
