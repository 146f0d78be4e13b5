package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeplan/internal/serve"
	"safeplan/internal/sim"
)

// The serve-open workload drives an in-process serve.Server over loopback
// open loop: requests are due on a fixed schedule whether or not earlier
// ones were answered, and each is timed from when it was due.
const (
	// servePopulation is the number of live left-turn sessions.  Each has
	// at most one request outstanding, so it also caps the backlog the
	// generator can build before it has to wait.
	servePopulation = 128
	// serveFixedRate is the offered rate of the latency windows [1/s], well
	// below the server's capacity, so serve.lat_p50_us and serve.lat_p99_us
	// measure service, not overload.
	serveFixedRate = 6000
	// serveP99Limit is the latency limit a ladder rung must meet.  The
	// host stalls this process for milliseconds at a time, in busy spells
	// for tens of them, so a lower limit fails rungs at random; at this
	// one a rung fails when requests queue up.
	serveP99Limit = 50 * time.Millisecond
	// serveGenLateLimit marks a run invalid: when the generator's own
	// lateness (time from due, or from the session becoming free if later,
	// to the write) has a p99 above it in the window the p99 latency is
	// reported from, that window's schedule was not offered.  Host stalls
	// alone stay below it there; a generator that cannot keep the rate
	// falls further behind with every request.
	serveGenLateLimit = 10 * time.Millisecond
	// The fixed rate is offered in windows of windowRequests requests, so
	// each window's p99 has ten samples beyond it; a traced run offers
	// windowsPerSecond windows per second of --seconds, at most
	// maxWindows.  The host stalls this process for about 1% of the time,
	// in bursts of milliseconds, which decides a p99; the windows let the
	// generator check look at the least disturbed one.
	windowRequests   = 1000
	windowsPerSecond = 1.8
	maxWindows       = 45
	// checkWindows is how many windows the untraced run offers: it reports
	// the latencies only in its info line, and needs the windows for the
	// generator check and the memory reading.
	checkWindows = 16
	// The warm-up offers warmRequests at a rate no server meets, so it runs
	// as fast as the population's requests are answered.
	warmRequests = 32 * servePopulation
	warmRate     = 1e7
	// rungAttempts is how often a ladder rung is offered before it counts
	// as missing the limit.
	rungAttempts = 3
	// A saturated window sends satRequests requests as fast as the
	// population's requests are answered: one to three seconds at the
	// server's capacity on a shared 2-CPU host.
	satRequests = 1 << 17
	// serveProcs is the GOMAXPROCS the server and its load run at.  On a
	// shared 2-vCPU host a wake-up across vCPUs waits on the hypervisor:
	// at 2 Ps, six 15-second runs' saturated throughput spread by 19%
	// (first and third quartile over the median) and the fixed-rate p50
	// ranged from 67 to 1177 us; on one P, in the same spell, by 9%, and
	// from 68 to 607 us, at the same median throughput.  The offline
	// checks and the traced twin run at nproc.
	serveProcs = 1
)

// The rate ladder of the traced run is fixed: coarse rungs
// ladderBase·coarseStep^i climb until one misses the limit; fine rungs
// top·fineStep^k then climb from the highest passing coarse rung top until
// one misses it or the next coarse rung is reached.  The host's speed
// swings the limit between about 40k and over 200k requests/s, and the two
// steps span that in a dozen rungs while resolving it to 5%.
const (
	ladderBase = 25000
	coarseStep = 1.5
	fineStep   = 1.05
	ladderTop  = 2e6
)

// withProcs sets GOMAXPROCS to n and returns the function that restores
// it.
func withProcs(n int) (restore func()) {
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// session is one client-side session.  It is handed between the reader
// of its connection and the generator through harness.ready, and each
// touches it only under its connection's mutex.
type session struct {
	sid  string
	seed int64
	conn int
	next string // op of the next request

	due, seq int64 // of the outstanding request
	readyAt  int64 // when its last response arrived
	openFrom int64 // when this episode's open could go out

	terminal *serve.ResultSummary
}

// reqRecord is one answered request.  Records hold no pointers, so the
// garbage collector never scans them.
type reqRecord struct {
	due, lat int64
	op       spanName
	ok       bool
}

// finished is one session episode that ran open to close.
type finished struct {
	seed   int64
	result serve.ResultSummary
}

// clientConn is one client connection with its reader's records.
type clientConn struct {
	conn  net.Conn
	out   []byte
	bySID map[string]*session // reader-owned after start

	mu        sync.Mutex
	recs      []reqRecord
	lifetimes []int64 // of the session episodes opened this phase [ns]
	done      []finished
	failed    int64
	firstErr  string
	spans     *spanBuf
}

// harness is a set-up serve workload: the server, its client connections
// and the session population.
type harness struct {
	env      *runEnv
	srv      *serve.Server
	served   chan error
	conns    []*clientConn
	ready    chan *session
	readers  sync.WaitGroup
	pacer    *pacer
	nextSeed atomic.Int64
	answered atomic.Int64
	sent     int64
	seq      int64
	// phaseStart is when the current phase began; readers read it under
	// their connection's mutex.
	phaseStart int64

	// The generator's per-request lateness [ns] and outstanding-request
	// samples of the current phase; batch holds, for each request queued
	// since the last write, when it could have gone out.
	late    []int64
	batch   []int64
	backlog []int64
}

func (h *harness) now() int64 { return int64(time.Since(h.env.epoch)) }

// startServe starts the server, dials the connections, opens the session
// population and warms it up.
func startServe(env *runEnv, traced bool) (*harness, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p, err := newPacer()
	if err != nil {
		srv.Close()
		ln.Close()
		return nil, err
	}
	h := &harness{
		env: env, srv: srv, served: make(chan error, 1), pacer: p,
		ready: make(chan *session, servePopulation),
		batch: make([]int64, 0, servePopulation),
	}
	go func() { h.served <- srv.Serve(ln) }()
	for i := 0; i < env.nproc; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			h.stop()
			return nil, err
		}
		cc := &clientConn{conn: c, bySID: make(map[string]*session), out: make([]byte, 0, 64<<10)}
		if traced {
			cc.spans = newSpanBuf(env.epoch)
		}
		h.conns = append(h.conns, cc)
	}
	h.nextSeed.Store(env.seed)
	for i := 0; i < servePopulation; i++ {
		s := &session{conn: i % len(h.conns), next: serve.OpOpen}
		h.assign(s)
		h.ready <- s
	}
	for _, c := range h.conns {
		h.readers.Add(1)
		go c.read(h)
	}
	// Warm-up: as fast as the sessions are answered, each opens and takes
	// a few steps.
	if _, err := h.offer(warmRate, time.Duration(float64(warmRequests)/warmRate*float64(time.Second))); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

// assign gives a session its next episode's seed and SID.
func (h *harness) assign(s *session) {
	s.seed = h.nextSeed.Add(1) - 1
	s.sid = "s" + strconv.FormatInt(s.seed, 10)
	h.conns[s.conn].bySID[s.sid] = s
}

// stop closes the server and the connections and waits for every
// goroutine the harness started.
func (h *harness) stop() {
	h.srv.Close()
	for _, c := range h.conns {
		c.conn.Close()
	}
	h.readers.Wait()
	<-h.served
	h.pacer.close()
}

// read takes responses until the connection closes.  It handles each
// response under c.mu, which send also holds while it reads the session,
// so the two never touch a session at the same time.
func (c *clientConn) read(h *harness) {
	defer h.readers.Done()
	dec := json.NewDecoder(bufio.NewReaderSize(c.conn, 64<<10))
	for {
		var resp serve.Response
		if err := dec.Decode(&resp); err != nil {
			return
		}
		now := h.now()
		c.mu.Lock()
		s := c.handle(h, &resp, now)
		c.mu.Unlock()
		h.answered.Add(1)
		if s != nil {
			h.ready <- s
		}
	}
}

// handle books one response and moves its session on; it returns the
// session, free for its next request.
func (c *clientConn) handle(h *harness, resp *serve.Response, now int64) *session {
	s := c.bySID[resp.SID]
	if s == nil {
		c.failLocked(fmt.Sprintf("response for unknown sid %q: %s %s", resp.SID, resp.Reason, resp.Error))
		return nil
	}
	op := opSpan(resp.Op)
	c.recs = append(c.recs, reqRecord{due: s.due, lat: now - s.due, op: op, ok: resp.OK})
	if c.spans != nil {
		c.spans.record(op, s.seq, s.due, now)
	}
	if !resp.OK {
		c.failLocked(fmt.Sprintf("%s %s rejected: %s %s", resp.Op, resp.SID, resp.Reason, resp.Error))
	}
	switch resp.Op {
	case serve.OpOpen:
		if resp.OK {
			s.next = serve.OpStep
		}
	case serve.OpStep:
		if resp.Done {
			s.terminal = resp.Result
			s.next = serve.OpClose
		}
	case serve.OpClose:
		if resp.OK {
			c.closed(h, s, resp.Result, now)
		}
	}
	s.readyAt = now
	return s
}

// closed records a finished session episode and reopens the session under
// a new seed.
func (c *clientConn) closed(h *harness, s *session, res *serve.ResultSummary, now int64) {
	switch {
	case res == nil || s.terminal == nil:
		c.failLocked(fmt.Sprintf("session %s closed without a terminal result", s.sid))
	case *res != *s.terminal:
		c.failLocked(fmt.Sprintf("session %s: close result %+v differs from terminal step result %+v", s.sid, *res, *s.terminal))
	default:
		c.done = append(c.done, finished{seed: s.seed, result: *res})
		if s.openFrom >= h.phaseStart {
			c.lifetimes = append(c.lifetimes, now-s.openFrom)
		}
	}
	delete(c.bySID, s.sid)
	h.assign(s)
	s.next, s.terminal = serve.OpOpen, nil
}

func (c *clientConn) failLocked(msg string) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

func opSpan(op string) spanName {
	switch op {
	case serve.OpOpen:
		return spanOpen
	case serve.OpClose:
		return spanClose
	}
	return spanServeStep
}

// offer offers rate requests per second for d, then waits until every
// request is answered.
func (h *harness) offer(rate float64, d time.Duration) (window, error) {
	h.newPhase(int(rate*d.Seconds()) + 1)
	w, err := h.generate(rate, d)
	if err != nil {
		return w, err
	}
	return w, h.drain(5 * time.Second)
}

// newPhase drops the previous phase's records and makes room for n
// requests, so that neither the generator nor the readers allocate for
// them: an allocating goroutine is drafted into garbage-collection work,
// which would delay the schedule.  Every phase is drained before the next
// starts, so no response can land in the wrong phase.
func (h *harness) newPhase(n int) {
	h.late = slices.Grow(h.late[:0], n)
	h.backlog = slices.Grow(h.backlog[:0], n)
	start := h.now()
	for _, c := range h.conns {
		c.mu.Lock()
		h.phaseStart = start
		c.lifetimes = c.lifetimes[:0]
		c.recs = slices.Grow(c.recs[:0], n/len(h.conns)+servePopulation)
		if c.spans != nil {
			c.spans.spans = slices.Grow(c.spans.spans, n/len(h.conns)+servePopulation)
		}
		c.mu.Unlock()
	}
}

// window is the due-time range of one phase; lag is how long after its
// end the generator sent the last request due in it.
type window struct{ start, end, lag int64 }

// generate runs the open-loop schedule.
func (h *harness) generate(rate float64, d time.Duration) (window, error) {
	start := h.now() + int64(100*time.Microsecond)
	w := window{start: start, end: start + int64(d)}
	interval := 1e9 / rate
	for i := 0; ; {
		due := start + int64(float64(i)*interval)
		if due >= w.end {
			break
		}
		if now := h.now(); due > now {
			if err := h.flush(); err != nil {
				return w, err
			}
			if err := h.pacer.sleep(time.Duration(due - now)); err != nil {
				return w, err
			}
			continue
		}
		var s *session
		select {
		case s = <-h.ready:
		default:
			// Every session has a request outstanding: the server is
			// behind.  The request stays due at its slot, so the wait
			// shows in its latency.
			if err := h.flush(); err != nil {
				return w, err
			}
			select {
			case s = <-h.ready:
			case <-time.After(5 * time.Second):
				return w, fmt.Errorf("serve: no session answered for 5 s")
			}
		}
		h.send(s, due)
		i++
	}
	err := h.flush()
	w.lag = max(0, h.now()-w.end)
	return w, err
}

// send queues the session's next request on its connection.
func (h *harness) send(s *session, due int64) {
	c := h.conns[s.conn]
	c.mu.Lock()
	s.due, s.seq = due, h.seq
	c.out = append(c.out, `{"op":"`...)
	c.out = append(c.out, s.next...)
	c.out = append(c.out, `","sid":"`...)
	c.out = append(c.out, s.sid...)
	c.out = append(c.out, '"')
	if s.next == serve.OpOpen {
		s.openFrom = max(due, s.readyAt)
		c.out = append(c.out, `,"seed":`...)
		c.out = strconv.AppendInt(c.out, s.seed, 10)
	}
	c.out = append(c.out, "}\n"...)
	h.batch = append(h.batch, max(due, s.readyAt))
	c.mu.Unlock()
	h.seq++
	h.sent++
}

// flush writes the queued requests and records how late each went out.
func (h *harness) flush() error {
	if len(h.batch) == 0 {
		return nil
	}
	for _, c := range h.conns {
		if len(c.out) == 0 {
			continue
		}
		if _, err := c.conn.Write(c.out); err != nil {
			return fmt.Errorf("serve: write: %w", err)
		}
		c.out = c.out[:0]
	}
	now := h.now()
	for _, from := range h.batch {
		h.late = append(h.late, now-from)
	}
	h.batch = h.batch[:0]
	h.backlog = append(h.backlog, h.sent-h.answered.Load())
	return nil
}

// drain waits until every sent request is answered.
func (h *harness) drain(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for h.answered.Load() < h.sent {
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %d requests unanswered after %s", h.sent-h.answered.Load(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// records returns the answered requests of the current phase.
func (h *harness) records() []reqRecord {
	var out []reqRecord
	for _, c := range h.conns {
		c.mu.Lock()
		out = append(out, c.recs...)
		c.mu.Unlock()
	}
	return out
}

func (h *harness) sessionsDone() []finished {
	var out []finished
	for _, c := range h.conns {
		c.mu.Lock()
		out = append(out, c.done...)
		c.mu.Unlock()
	}
	return out
}

// lateness returns the generator's lateness samples [µs] of the current
// phase.
func (h *harness) lateness() []float64 {
	var out []float64
	for _, late := range h.late {
		out = append(out, float64(late)/1e3)
	}
	return out
}

// backlogMax is the most requests outstanding at once in the current
// phase, sampled at every write.
func (h *harness) backlogMax() int64 {
	return slices.Max(append(h.backlog, 0))
}

// anyOp selects every request in latencies.
const anyOp = numSpanNames

// latencies returns the latencies [µs] of the records of one op (or of
// anyOp).
func latencies(recs []reqRecord, op spanName) []float64 {
	var out []float64
	for _, r := range recs {
		if op == anyOp || r.op == op {
			out = append(out, float64(r.lat)/1e3)
		}
	}
	return out
}

// setupServe starts the harness setupRepeats times, keeping the last; it
// returns the median set-up time.
func setupServe(env *runEnv, traced bool) (*harness, float64, error) {
	var times []float64
	var h *harness
	for i := 0; i < setupRepeats; i++ {
		if h != nil {
			h.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		h, err = startServe(env, traced)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return h, median(times), nil
}

// latencyWindow is one fixed-rate window with its latencies [µs].
type latencyWindow struct {
	recs              []reqRecord
	p50, p99, lateP99 float64
	backlog           int64
}

// numWindows is the number of fixed-rate windows a run offers.
func numWindows(env *runEnv) int {
	return min(maxWindows, max(4, int(windowsPerSecond*env.measure.Seconds())))
}

// fixedWindow offers windowRequests requests at the fixed rate.
func (h *harness) fixedWindow() (latencyWindow, error) {
	if _, err := h.offer(serveFixedRate, windowRequests*time.Second/serveFixedRate); err != nil {
		return latencyWindow{}, err
	}
	lw := latencyWindow{recs: h.records(), backlog: h.backlogMax()}
	lat := latencies(lw.recs, anyOp)
	lw.p50, lw.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	lw.lateP99 = quantile(h.lateness(), 0.99)
	return lw, nil
}

// fixedSummary pools the windows' latencies into their p50 and p99 and
// checks that the generator kept its schedule in the least disturbed
// window, the one with the lowest p99: a host stall delays the generator
// as much as the server, so only there does its lateness show whether it
// could offer the rate.
func fixedSummary(env *runEnv, ws []latencyWindow) (p50, p99, lateP99 float64) {
	best := math.Inf(1)
	var lat []float64
	for _, w := range ws {
		lat = append(lat, latencies(w.recs, anyOp)...)
		if w.p99 < best {
			best, lateP99 = w.p99, w.lateP99
		}
	}
	env.note("serve_windows", float64(len(ws)))
	env.note("serve_best_window_p99_us", best)
	if lateP99 > float64(serveGenLateLimit)/1e3 {
		env.fail("serve-open: invalid run, generator p99 lateness %.0f us exceeds %s", lateP99, serveGenLateLimit)
	}
	return quantile(lat, 0.50), quantile(lat, 0.99), lateP99
}

// measureServe is the untraced serve-open run: a few latency windows at
// the fixed rate, then saturated windows until the time is up.  Memory is
// read before the saturated windows, whose queues would make it depend on
// how long they run.
//
// The shared host runs in spells of seconds to minutes, some 1.5 to 2
// times slower than the rest, and their share changes from run to run.  A
// search for the highest rate that meets a latency limit finds the limit
// of whichever spell it meets: over five 30-second runs its top rung
// ranged from 44k to 83k requests/s.  The saturated throughput, summed
// over the run, moves only in proportion to the share of slow time.
func measureServe(env *runEnv) (map[string]float64, error) {
	defer withProcs(serveProcs)()
	env.note("serve_gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	h, setupS, err := setupServe(env, false)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	start := time.Now()
	sent0 := h.sent

	var windows []latencyWindow
	for len(windows) < min(numWindows(env), checkWindows) {
		lw, err := h.fixedWindow()
		if err != nil {
			return nil, err
		}
		windows = append(windows, lw)
	}
	p50, p99, _ := fixedSummary(env, windows)
	env.note("serve_lat_p50_us", p50)
	env.note("serve_lat_p99_us", p99)
	memMB := peakRSSMB()

	var lives []float64
	var wallS, answered float64
	for len(lives) == 0 || time.Since(start) < env.measure {
		n, wall, life, err := h.saturate()
		if err != nil {
			return nil, err
		}
		answered += float64(n)
		wallS += wall
		lives = append(lives, life)
	}
	env.note("serve_saturated_windows", float64(len(lives)))
	env.attempted += h.sent - sent0
	reqsPerEpisode, err := checkServe(h, env)
	if err != nil {
		return nil, err
	}
	if reqsPerEpisode == 0 {
		return nil, fmt.Errorf("serve-open: no session ran to its end")
	}
	rate := answered / wallS
	return map[string]float64{
		"eps_per_s":      rate / reqsPerEpisode,
		"episode_p50_ms": mean(lives),
		"max_rate_rps":   rate,
		"setup_s":        setupS,
		"mem_peak_mb":    memMB,
	}, nil
}

// saturate sends satRequests requests as fast as the population's requests
// are answered, every session keeping one in flight.  It returns the
// requests answered, the wall time from the first send to the last answer
// [s], and the median lifetime [ms] of the session episodes that opened
// and closed in the window, from their open going out to their close being
// answered.
func (h *harness) saturate() (answered int, wallS, lifeMs float64, err error) {
	w, err := h.offer(warmRate, time.Duration(float64(satRequests)/warmRate*float64(time.Second)))
	if err != nil {
		return 0, 0, 0, err
	}
	recs := h.records()
	last := w.start
	for _, r := range recs {
		last = max(last, r.due+r.lat)
	}
	var life []float64
	for _, c := range h.conns {
		c.mu.Lock()
		for _, l := range c.lifetimes {
			life = append(life, float64(l)/1e6)
		}
		c.mu.Unlock()
	}
	if len(life) == 0 {
		return 0, 0, 0, fmt.Errorf("serve-open: no session episode ran to its end in a saturated window")
	}
	return len(recs), float64(last-w.start) / 1e9, median(life), nil
}

// ladder climbs the rate ladder with rungs of d and returns the throughput
// achieved on the highest rung that meets the limit.
func (h *harness) ladder(d time.Duration) (float64, error) {
	top, best, err := h.climb(ladderBase, coarseStep, ladderTop, d)
	if err != nil {
		return 0, err
	}
	if top == 0 {
		return 0, fmt.Errorf("serve-open: no ladder rung met the limit")
	}
	if fine, achieved, err := h.climb(top*fineStep, fineStep, top*coarseStep/fineStep, d); err != nil {
		return 0, err
	} else if fine > 0 {
		best = achieved
	}
	return best, nil
}

// climb offers rate, rate·step, … up to limit, one rung of d each, until a
// rung misses the limit; it returns the highest passing rate and the
// throughput achieved on it, or 0 when the first rung fails.  A rung fails
// only when all its attempts miss the limit: one host stall can sink an
// attempt.
func (h *harness) climb(rate, step, limit float64, d time.Duration) (top, best float64, err error) {
	for ; rate <= limit; rate *= step {
		achieved, ok := 0.0, false
		for try := 0; !ok && try < rungAttempts; try++ {
			if achieved, ok, err = h.rung(rate, d); err != nil {
				return 0, 0, err
			}
		}
		if !ok {
			break
		}
		top, best = rate, achieved
	}
	return top, best, nil
}

// rung offers one rate of the ladder and reports the throughput achieved
// and whether the rung met the limit: every request answered without
// rejection, p99 latency within serveP99Limit, and a generator no further
// behind its schedule than that at the end — a growing backlog leaves it
// behind, since it sends a request only when a session is free.
func (h *harness) rung(rate float64, d time.Duration) (achieved float64, ok bool, err error) {
	w, err := h.offer(rate, d)
	if err != nil {
		return 0, false, err
	}
	recs := h.records()
	ok = len(recs) > 0
	last := w.start
	for _, r := range recs {
		ok = ok && r.ok
		last = max(last, r.due+r.lat)
	}
	p99 := quantile(latencies(recs, anyOp), 0.99)
	ok = ok && p99 <= float64(serveP99Limit)/1e3 && w.lag <= int64(serveP99Limit)
	achieved = float64(len(recs)) / (float64(last-w.start) / 1e9)
	log.Printf("serve-open: rung %6.0f/s achieved %6.0f/s p99 %6.0f us lag %5.1f ms ok=%v",
		rate, achieved, p99, float64(w.lag)/1e6, ok)
	return achieved, ok, nil
}

// checkServe counts client-side failures and compares every finished
// session's result with an offline run of the same seed.  It returns the
// mean number of requests per session episode (open, steps, close), or 0
// when no session finished.
func checkServe(h *harness, env *runEnv) (float64, error) {
	defer withProcs(env.nproc)()
	for _, c := range h.conns {
		c.mu.Lock()
		if c.failed > 0 {
			env.failed += c.failed
			env.fail("serve-open: %d failed requests, first: %s", c.failed, c.firstErr)
		}
		c.mu.Unlock()
	}
	if rej := h.srv.Stats().Rejections; len(rej) > 0 {
		env.fail("serve-open: server rejected requests: %v", rej)
	}
	done := h.sessionsDone()
	if len(done) == 0 {
		return 0, nil
	}
	twin, err := serveTwin()
	if err != nil {
		return 0, err
	}
	newStarter, err := twin.prepare(env.models)
	if err != nil {
		return 0, err
	}
	p := newPool(env.nproc, false, newStarter, env.epoch)
	bad := make([]bool, len(done))
	sim.ParallelForWorkersScoped(env.nproc, len(done), func(wk, i int) {
		r, err := p.all[wk].run(sim.Options{Seed: done[i].seed})
		bad[i] = err != nil || summary(r) != done[i].result
	})
	var mismatches int64
	for i, b := range bad {
		if b {
			if mismatches == 0 {
				env.fail("serve-open: session seed %d result differs from the offline run", done[i].seed)
			}
			mismatches++
		}
	}
	env.failed += mismatches
	env.note("serve_sessions_checked", float64(len(done)))
	return requestsPerEpisode(done), nil
}

// requestsPerEpisode is the mean number of requests of the finished
// session episodes (open, steps, close), or 0 when none finished.
func requestsPerEpisode(done []finished) float64 {
	if len(done) == 0 {
		return 0
	}
	var reqs int
	for _, f := range done {
		reqs += f.result.Steps + 2
	}
	return float64(reqs) / float64(len(done))
}

// summary is the wire summary serve reports for a finished episode.
func summary(r sim.Result) serve.ResultSummary {
	return serve.ResultSummary{
		Reached: r.Reached, ReachTime: r.ReachTime, Collided: r.Collided, Eta: r.Eta,
		Steps: r.Steps, EmergencySteps: r.EmergencySteps,
		FusedIntervalMisses: r.FusedIntervalMisses, SoundViolations: r.SoundViolations,
	}
}

// traceServe is the traced serve-open run: the fixed-rate windows with
// request spans for the serve layer, then the offline twin traced through
// the campaign path for the engine layers.
func traceServe(env *runEnv) (map[string]float64, []*spanBuf, error) {
	defer withProcs(serveProcs)()
	env.note("serve_gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	h, _, err := setupServe(env, true)
	if err != nil {
		return nil, nil, err
	}
	defer h.stop()
	sent0 := h.sent
	before := readRuntime()
	t0 := time.Now()
	var windows []latencyWindow
	var recs []reqRecord
	var backlog int64
	for len(windows) < numWindows(env) {
		lw, err := h.fixedWindow()
		if err != nil {
			return nil, nil, err
		}
		windows = append(windows, lw)
		recs = append(recs, lw.recs...)
		backlog = max(backlog, lw.backlog)
	}
	var rt runtimeDelta
	rt.add(before, readRuntime())
	wall := time.Since(t0).Seconds()
	p50, p99, lateP99 := fixedSummary(env, windows)
	top, err := h.ladder(max(100*time.Millisecond, time.Duration(float64(env.measure)*0.02)))
	if err != nil {
		return nil, nil, err
	}
	env.attempted += h.sent - sent0
	if _, err := checkServe(h, env); err != nil {
		return nil, nil, err
	}
	st := h.srv.Stats()
	engP50 := st.StepLatencyNs.Quantile(0.5)

	twin, err := serveTwin()
	if err != nil {
		return nil, nil, err
	}
	restore := withProcs(env.nproc)
	m, bufs, err := traceCampaign(&twin, env, 0.4)
	restore()
	if err != nil {
		return nil, nil, err
	}
	for name := range m {
		if strings.HasPrefix(name, "campaign.") {
			delete(m, name)
		}
	}
	m["serve.lat_p50_us"] = p50
	m["serve.lat_p99_us"] = p99
	m["serve.open_us"] = median(latencies(recs, spanOpen))
	m["serve.close_us"] = median(latencies(recs, spanClose))
	m["serve.engine_step_p50_ns"] = engP50
	m["serve.engine_step_p99_ns"] = st.StepLatencyNs.Quantile(0.99)
	m["serve.protocol_us"] = median(latencies(recs, spanServeStep)) - engP50/1e3
	m["serve.backlog_max"] = float64(backlog)
	m["serve.ladder_top_rps"] = top
	m["serve.gen_late_p99_us"] = lateP99
	var rejected int64
	for reason, n := range st.Rejections {
		m["serve.rejected."+reason] = float64(n)
		rejected += n
	}
	m["serve.rejected"] = float64(rejected)
	m["go.gc_cpu_frac"] = rt.gcFrac()
	m["go.alloc_mb_per_s"] = rt.allocBytes / 1e6 / wall
	for _, c := range h.conns {
		bufs = append(bufs, c.spans)
	}
	return m, bufs, nil
}
