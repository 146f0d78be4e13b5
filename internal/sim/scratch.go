package sim

import (
	"math/rand"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/fusion"
	"safeplan/internal/interval"
	"safeplan/internal/sensor"
	"safeplan/internal/traffic"
	"safeplan/internal/xrand"
)

// Scratch is an episode-scoped arena: it owns the per-episode objects the
// step loops would otherwise allocate fresh every episode (derived random
// streams, the channel, sensor model, drivers, fusion filter, and the Poll
// message buffer), and hands them back reset.  Reusing a Scratch across
// episodes makes steady-state episodes allocation-free while staying
// bit-identical to the allocate-fresh path: every component's Reset draws
// from the parent rng in exactly the order its constructor does, and every
// derived rand.Rand is reseeded rather than recreated (reseeding a
// math/rand source reproduces the exact stream of a fresh one).
//
// A Scratch serves one episode at a time and is not safe for concurrent
// use.  Campaign workers draw one from a pool per shard, never sharing it
// between goroutines; per-episode determinism is untouched because nothing
// in the arena carries state across Begin calls.
//
// All acquisition methods tolerate a nil receiver by allocating fresh
// objects, so runner code is identical with and without a Scratch.
type Scratch struct {
	rngs []*rand.Rand
	nRng int

	// Paired xrand sources and the rand.Rands wrapping them, for an
	// episode's derived streams, seeded together in one xrand.SeedMany
	// pass (see XRands).  Reseeded in place every episode, so no per-use
	// counter is needed.
	xsrcs  []*xrand.Source
	xrands []*rand.Rand

	channels []*comms.Channel
	nChan    int

	sensors []*sensor.Model
	nSens   int

	drivers []*traffic.Driver
	nDrv    int

	stopgos []*traffic.StopAndGo
	nStop   int

	filters []*fusion.Filter
	nFilt   int

	msgBuf []comms.Message

	// RunMulti per-track working storage.
	tracks []oncomingTrack
	knows  []core.Knowledge
	ests   []fusion.Estimate

	// Per-track passing-window storage for the multi-vehicle telemetry
	// probe (collector-attached runs only).
	cons []interval.Interval
	aggr []interval.Interval

	// Pooled resumable engines.  A Stepper carries its own hot-path
	// closures (built once, capturing only the stepper pointer), so
	// reusing the object keeps repeat episodes allocation-free; the arena
	// discipline is unchanged — one episode at a time per Scratch.
	pooledStepper      *Stepper
	pooledMultiStepper *MultiStepper
	// extEngine is the same slot for the platoon engine
	// (internal/platoon, which also runs car following), which sim
	// cannot name without an import cycle.
	extEngine any
}

// NewScratch returns an empty arena; components are created lazily on first
// use and reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// Begin readies the arena for a new episode, releasing every component
// acquired by the previous one back into the reuse pools.  Episode runners
// call it once on entry; it is a no-op on a nil receiver.
func (s *Scratch) Begin() {
	if s == nil {
		return
	}
	s.nRng, s.nChan, s.nSens, s.nDrv, s.nStop, s.nFilt = 0, 0, 0, 0, 0, 0
}

// RNG returns a rand.Rand seeded with seed — a pooled instance reseeded in
// place when available, a fresh one otherwise.  Both produce the identical
// stream.
func (s *Scratch) RNG(seed int64) *rand.Rand {
	if s == nil {
		return rand.New(rand.NewSource(seed))
	}
	if s.nRng < len(s.rngs) {
		r := s.rngs[s.nRng]
		s.nRng++
		r.Seed(seed)
		return r
	}
	r := rand.New(rand.NewSource(seed))
	s.rngs = append(s.rngs, r)
	s.nRng++
	return r
}

// XRands returns n paired xrand sources and the rand.Rands wrapping them,
// growing the pool as needed.  Callers reseed the sources (typically one
// xrand.SeedMany over all of them) before drawing from the wrappers; a
// reseeded xrand.Source reproduces the exact stream of a freshly seeded
// math/rand source, so the pooled and allocate-fresh paths stay
// bit-identical.  Nil receivers allocate fresh pairs.
func (s *Scratch) XRands(n int) ([]*xrand.Source, []*rand.Rand) {
	if s == nil {
		srcs := make([]*xrand.Source, n)
		rngs := make([]*rand.Rand, n)
		for i := range srcs {
			srcs[i] = &xrand.Source{}
			rngs[i] = rand.New(srcs[i])
		}
		return srcs, rngs
	}
	for len(s.xsrcs) < n {
		src := &xrand.Source{}
		s.xsrcs = append(s.xsrcs, src)
		s.xrands = append(s.xrands, rand.New(src))
	}
	return s.xsrcs[:n], s.xrands[:n]
}

// Channel returns a channel configured like comms.NewChannel(cfg, rng),
// reusing a pooled instance when available.
func (s *Scratch) Channel(cfg comms.Config, rng *rand.Rand) (*comms.Channel, error) {
	if s == nil {
		return comms.NewChannel(cfg, rng)
	}
	if s.nChan < len(s.channels) {
		c := s.channels[s.nChan]
		if err := c.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nChan++
		return c, nil
	}
	c, err := comms.NewChannel(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.channels = append(s.channels, c)
	s.nChan++
	return c, nil
}

// Sensor returns a sensor model configured like sensor.New(cfg, rng).
func (s *Scratch) Sensor(cfg sensor.Config, rng *rand.Rand) (*sensor.Model, error) {
	if s == nil {
		return sensor.New(cfg, rng)
	}
	if s.nSens < len(s.sensors) {
		m := s.sensors[s.nSens]
		if err := m.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nSens++
		return m, nil
	}
	m, err := sensor.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.sensors = append(s.sensors, m)
	s.nSens++
	return m, nil
}

// Driver returns a random driver configured like traffic.NewDriver(cfg, rng).
func (s *Scratch) Driver(cfg traffic.DriverConfig, rng *rand.Rand) (*traffic.Driver, error) {
	if s == nil {
		return traffic.NewDriver(cfg, rng)
	}
	if s.nDrv < len(s.drivers) {
		d := s.drivers[s.nDrv]
		if err := d.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nDrv++
		return d, nil
	}
	d, err := traffic.NewDriver(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.drivers = append(s.drivers, d)
	s.nDrv++
	return d, nil
}

// StopAndGo returns a stop-and-go lead driver configured like
// traffic.NewStopAndGo(cfg, rng).
func (s *Scratch) StopAndGo(cfg traffic.StopAndGoConfig, rng *rand.Rand) (*traffic.StopAndGo, error) {
	if s == nil {
		return traffic.NewStopAndGo(cfg, rng)
	}
	if s.nStop < len(s.stopgos) {
		d := s.stopgos[s.nStop]
		if err := d.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nStop++
		return d, nil
	}
	d, err := traffic.NewStopAndGo(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.stopgos = append(s.stopgos, d)
	s.nStop++
	return d, nil
}

// Fusion returns a fusion filter configured like fusion.New(cfg), reusing a
// pooled instance (and its Kalman history buffer) when available.
func (s *Scratch) Fusion(cfg fusion.Config) (*fusion.Filter, error) {
	if s == nil {
		return fusion.New(cfg)
	}
	if s.nFilt < len(s.filters) {
		f := s.filters[s.nFilt]
		if err := f.ResetConfig(cfg); err != nil {
			return nil, err
		}
		s.nFilt++
		return f, nil
	}
	f, err := fusion.New(cfg)
	if err != nil {
		return nil, err
	}
	s.filters = append(s.filters, f)
	s.nFilt++
	return f, nil
}

// msgBufCap sizes the reusable Poll buffer; a burst delivering more
// messages in one control step than this simply grows a transient slice.
const msgBufCap = 64

// MsgBuf returns the reusable message scratch buffer, emptied, for use with
// comms.Channel.PollAppend.  Nil receivers return nil (append allocates as
// before).
func (s *Scratch) MsgBuf() []comms.Message {
	if s == nil {
		return nil
	}
	if s.msgBuf == nil {
		s.msgBuf = make([]comms.Message, 0, msgBufCap)
	}
	return s.msgBuf[:0]
}

// stepper returns the arena's pooled single-vehicle Stepper (allocated on
// first use), or a fresh one on a nil receiver.  The caller resets it; the
// previous episode's engine is invalidated, matching the one-episode-at-a-
// time arena contract.
func (s *Scratch) stepper() *Stepper {
	if s == nil {
		return &Stepper{}
	}
	if s.pooledStepper == nil {
		s.pooledStepper = &Stepper{}
	}
	return s.pooledStepper
}

// multiStepper is the multi-vehicle twin of stepper.
func (s *Scratch) multiStepper() *MultiStepper {
	if s == nil {
		return &MultiStepper{}
	}
	if s.pooledMultiStepper == nil {
		s.pooledMultiStepper = &MultiStepper{}
	}
	return s.pooledMultiStepper
}

// ExtEngine returns the opaque pooled-engine slot for the platoon engine
// (nil on a nil receiver or before the first SetExtEngine).
func (s *Scratch) ExtEngine() any {
	if s == nil {
		return nil
	}
	return s.extEngine
}

// SetExtEngine stores the platoon package's pooled engine; a no-op on a
// nil receiver.
func (s *Scratch) SetExtEngine(v any) {
	if s != nil {
		s.extEngine = v
	}
}

// trackSlice returns a zeroed slice of n oncoming tracks for RunMulti.
func (s *Scratch) trackSlice(n int) []oncomingTrack {
	if s == nil {
		return make([]oncomingTrack, n)
	}
	if cap(s.tracks) < n {
		s.tracks = make([]oncomingTrack, n)
	}
	s.tracks = s.tracks[:n]
	for i := range s.tracks {
		s.tracks[i] = oncomingTrack{}
	}
	return s.tracks
}

// windowSlices returns two zeroed per-track window slices for the
// multi-vehicle telemetry probe.  Acquired once per episode (only when a
// collector is attached), so even the nil-receiver path allocates per
// episode rather than per step.
func (s *Scratch) windowSlices(n int) (cons, aggr []interval.Interval) {
	if s == nil {
		return make([]interval.Interval, n), make([]interval.Interval, n)
	}
	if cap(s.cons) < n {
		s.cons = make([]interval.Interval, n)
		s.aggr = make([]interval.Interval, n)
	}
	s.cons, s.aggr = s.cons[:n], s.aggr[:n]
	for i := range s.cons {
		s.cons[i] = interval.Interval{}
		s.aggr[i] = interval.Interval{}
	}
	return s.cons, s.aggr
}

// knowledgeSlices returns zeroed per-track knowledge and estimate slices
// for RunMulti.
func (s *Scratch) knowledgeSlices(n int) ([]core.Knowledge, []fusion.Estimate) {
	if s == nil {
		return make([]core.Knowledge, n), make([]fusion.Estimate, n)
	}
	if cap(s.knows) < n {
		s.knows = make([]core.Knowledge, n)
		s.ests = make([]fusion.Estimate, n)
	}
	s.knows, s.ests = s.knows[:n], s.ests[:n]
	for i := range s.knows {
		s.knows[i] = core.Knowledge{}
		s.ests[i] = fusion.Estimate{}
	}
	return s.knows, s.ests
}
