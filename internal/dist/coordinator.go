package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"safeplan/internal/campaign"
)

// Default coordinator timing.
const (
	// DefaultLeaseTTL bounds how long a silent worker holds a shard
	// before it is reassigned.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultRetryAfter is the wait hint handed to workers when every
	// shard is leased or done.
	DefaultRetryAfter = 250 * time.Millisecond
)

// Config configures a Coordinator.
type Config struct {
	// Spec is the campaign to distribute.  Spec.Workers is a worker-local
	// concern and ignored here; the coordinator owns only the shard plan
	// and the fold.  When Spec.CheckpointPath is set the coordinator
	// checkpoints accepted shard results there (campaign checkpoint
	// format, so a partial distributed campaign can be finished by
	// single-process Run and vice versa) and resumes from it on
	// construction.
	Spec campaign.Spec

	// Workload names the episode function in the internal/workloads
	// registry.  The coordinator never runs episodes itself; it ships
	// this name to workers, which must resolve it identically.
	Workload string

	// LeaseTTL bounds worker silence per shard; 0 selects
	// DefaultLeaseTTL.  RetryAfter is the backpressure hint when no
	// shard is grantable; 0 selects DefaultRetryAfter.
	LeaseTTL   time.Duration
	RetryAfter time.Duration

	// Clock injects time for lease bookkeeping; nil selects RealClock.
	Clock Clock
}

// shard lease states.
const (
	shardPending = iota
	shardLeased
	shardDone
)

type shardState struct {
	state  int
	owner  string
	expiry time.Time
	// granted counts how many times the shard was leased; grants beyond
	// the first are reassignments (expiry or worker churn).
	granted int
}

// Counters is a snapshot of the coordinator's fault-tolerance telemetry,
// the payload behind the /metrics surface.  Everything here is
// observability only: no counter value ever feeds the statistics fold.
type Counters struct {
	WorkersSeen       int64 `json:"workers_seen"`
	LeasesGranted     int64 `json:"leases_granted"`
	LeasesRenewed     int64 `json:"leases_renewed"`
	LeasesExpired     int64 `json:"leases_expired"`
	Reassignments     int64 `json:"reassignments"`
	ResultsAccepted   int64 `json:"results_accepted"`
	ResultsLate       int64 `json:"results_late"`
	ResultsDuplicate  int64 `json:"results_duplicate"`
	ResultsMismatched int64 `json:"results_mismatched"`
	ResultsBadSum     int64 `json:"results_bad_sum"`
	WorkerRetries     int64 `json:"worker_retries"`
	ShardsDone        int64 `json:"shards_done"`
	ShardsTotal       int64 `json:"shards_total"`
	ResumedShards     int64 `json:"resumed_shards"`
	EpisodesDone      int64 `json:"episodes_done"`
	Draining          bool  `json:"draining"`
	Complete          bool  `json:"complete"`
}

// Coordinator owns a campaign's shard plan and drives it to completion
// through any number of (possibly crashing) workers.  It is a passive
// state machine: every transition happens inside a worker request or an
// explicit ExpireLeases call, so tests drive it deterministically with a
// FakeClock and the server wraps it with a real sweeper goroutine.
type Coordinator struct {
	cfg   Config
	clock Clock
	fp    campaign.Fingerprint
	info  CampaignInfo

	mu       sync.Mutex
	shards   []shardState
	done     map[int]*campaign.ShardStats
	sums     map[int]string
	workers  map[string]int64 // worker ID → last reported retry count
	ctr      Counters
	draining bool
	failed   error
	// finished closes exactly once, when every shard is done, the
	// campaign is poisoned, or a drain has quiesced (no lease in
	// flight); closed guards the single close.
	finished chan struct{}
	closed   bool
	// sinceSave counts accepted shards since the last checkpoint write.
	sinceSave int
}

// NewCoordinator validates the campaign, resumes from the spec's
// checkpoint if one exists, and returns a coordinator ready to serve.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Workload == "" {
		return nil, fmt.Errorf("dist: empty workload name")
	}
	spec := cfg.Spec
	n := spec.NumShards()
	if n <= 0 {
		return nil, fmt.Errorf("dist: campaign %q has no shards (episodes %d)", spec.Name, spec.Episodes)
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	c := &Coordinator{
		cfg:   cfg,
		clock: cfg.Clock,
		fp:    spec.Fingerprint(),
		info: CampaignInfo{
			Name:            spec.Name,
			Workload:        cfg.Workload,
			Episodes:        spec.Episodes,
			BaseSeed:        spec.BaseSeed,
			Shards:          n,
			CountViolations: spec.CountViolations,
			Fingerprint:     spec.Fingerprint(),
		},
		shards:   make([]shardState, n),
		done:     make(map[int]*campaign.ShardStats, n),
		sums:     make(map[int]string, n),
		workers:  make(map[string]int64),
		finished: make(chan struct{}),
	}
	c.ctr.ShardsTotal = int64(n)
	if spec.CheckpointPath != "" {
		loaded, err := campaign.LoadShardCheckpoint(spec.CheckpointPath, c.fp)
		if err != nil {
			return nil, err
		}
		for i, agg := range loaded {
			if i >= n {
				continue
			}
			c.shards[i].state = shardDone
			c.done[i] = agg
			c.sums[i] = ShardSum(agg)
			c.ctr.ResumedShards++
			c.ctr.ShardsDone++
			c.ctr.EpisodesDone += agg.Episodes
		}
	}
	if len(c.done) == n {
		c.ctr.Complete = true
		c.closeFinishedLocked()
	}
	return c, nil
}

// closeFinishedLocked closes the completion channel exactly once.
// Caller holds c.mu (or owns c exclusively during construction).
func (c *Coordinator) closeFinishedLocked() {
	if !c.closed {
		c.closed = true
		close(c.finished)
	}
}

// maybeQuiesceLocked finishes a drain once no lease is in flight: with
// admissions stopped and nothing outstanding, no further result can
// arrive, so waiting any longer is pointless.  Caller holds c.mu.
func (c *Coordinator) maybeQuiesceLocked() {
	if !c.draining || c.closed {
		return
	}
	for i := range c.shards {
		if c.shards[i].state == shardLeased {
			return
		}
	}
	c.closeFinishedLocked()
}

// Info returns the campaign descriptor handed to joining workers.
func (c *Coordinator) Info() CampaignInfo { return c.info }

// Done returns a channel closed when the campaign completes or fails.
func (c *Coordinator) Done() <-chan struct{} { return c.finished }

// Result folds the completed shards into final campaign statistics —
// byte-identical to single-process Run — or reports the poisoning error.
// It fails if the campaign has not finished.
func (c *Coordinator) Result() (campaign.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return campaign.Stats{}, c.failed
	}
	if int(c.ctr.ShardsDone) != len(c.shards) {
		return campaign.Stats{}, fmt.Errorf("dist: campaign %q incomplete: %d/%d shards done",
			c.cfg.Spec.Name, c.ctr.ShardsDone, len(c.shards))
	}
	return campaign.FoldShards(c.cfg.Spec, c.done)
}

// Counters snapshots the fault-tolerance telemetry.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.ctr
	ctr.Draining = c.draining
	return ctr
}

// Drain stops granting leases: subsequent lease requests get Done, so
// workers finish their in-flight shards (whose results are still
// accepted) and exit.  Once the last in-flight lease resolves — result
// submitted or lease expired — Done() closes.  Used for graceful SIGTERM
// shutdown; checkpointed shards survive for a later resume.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	c.maybeQuiesceLocked()
}

// ExpireLeases releases every lease whose deadline has passed, returning
// the shards to pending.  The server calls this on a timer; tests call it
// directly after advancing a FakeClock.
func (c *Coordinator) ExpireLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expireLocked(c.clock.Now())
}

func (c *Coordinator) expireLocked(now time.Time) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		if s.state == shardLeased && now.After(s.expiry) {
			s.state = shardPending
			s.owner = ""
			c.ctr.LeasesExpired++
			n++
		}
	}
	if n > 0 {
		c.maybeQuiesceLocked()
	}
	return n
}

// Dispatch routes one worker request to its handler.  It is the single
// protocol entry point shared by the TCP server and the in-process tests.
func (c *Coordinator) Dispatch(req Request) Response {
	switch req.Op {
	case OpHello:
		return c.Hello(req)
	case OpLease:
		return c.Lease(req)
	case OpRenew:
		return c.Renew(req)
	case OpResult:
		return c.SubmitResult(req)
	case OpBye:
		return Response{Op: OpBye, OK: true}
	default:
		return Response{Op: req.Op, OK: false, Reason: ReasonBadRequest,
			Error: fmt.Sprintf("dist: unknown op %q", req.Op)}
	}
}

// note records worker sighting and retry telemetry.  Caller holds c.mu.
func (c *Coordinator) noteLocked(req Request) {
	if req.Worker == "" {
		return
	}
	prev, seen := c.workers[req.Worker]
	if !seen {
		c.ctr.WorkersSeen++
	}
	if req.Retries > prev {
		c.ctr.WorkerRetries += req.Retries - prev
	}
	c.workers[req.Worker] = req.Retries
}

// checkFingerprint guards shard-touching ops.  Caller holds c.mu.
func (c *Coordinator) checkFingerprint(op string, req Request) (Response, bool) {
	if req.Fingerprint == nil || *req.Fingerprint != c.fp {
		return Response{Op: op, OK: false, Reason: ReasonFingerprint,
			Error: fmt.Sprintf("dist: request fingerprint %+v does not match campaign %+v", req.Fingerprint, c.fp)}, false
	}
	return Response{}, true
}

// Hello admits a worker and returns the campaign descriptor.
func (c *Coordinator) Hello(req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Worker == "" {
		return Response{Op: OpHello, OK: false, Reason: ReasonBadRequest, Error: "dist: hello without worker ID"}
	}
	c.noteLocked(req)
	info := c.info
	return Response{Op: OpHello, OK: true, Campaign: &info}
}

// Lease grants a pending shard under a fresh lease.  Preference order:
// the worker's requested shard (it holds a checkpoint for it), else the
// lowest pending shard — lowest-first keeps smoke runs predictable but is
// not load-bearing; ANY assignment order folds identically.
func (c *Coordinator) Lease(req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteLocked(req)
	if resp, ok := c.checkFingerprint(OpLease, req); !ok {
		return resp
	}
	if c.failed != nil {
		return Response{Op: OpLease, OK: false, Reason: ReasonStatsMismatch, Error: c.failed.Error(), Done: true}
	}
	now := c.clock.Now()
	c.expireLocked(now)
	if c.draining || int(c.ctr.ShardsDone) == len(c.shards) {
		return Response{Op: OpLease, OK: true, Done: true}
	}
	pick := -1
	if req.Prefer != nil {
		if i := *req.Prefer; i >= 0 && i < len(c.shards) && c.shards[i].state == shardPending {
			pick = i
		}
	}
	if pick < 0 {
		for i := range c.shards {
			if c.shards[i].state == shardPending {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		// Everything is leased or done: back off and ask again (a lease
		// may expire, finishing may need this worker yet).
		return Response{Op: OpLease, OK: true, Wait: true, RetryMS: c.cfg.RetryAfter.Milliseconds()}
	}
	s := &c.shards[pick]
	s.state = shardLeased
	s.owner = req.Worker
	s.expiry = now.Add(c.cfg.LeaseTTL)
	s.granted++
	c.ctr.LeasesGranted++
	if s.granted > 1 {
		c.ctr.Reassignments++
	}
	lo, hi := c.cfg.Spec.ShardRange(pick)
	return Response{Op: OpLease, OK: true, Assign: &Assignment{
		Shard: pick, Lo: lo, Hi: hi, LeaseMS: c.cfg.LeaseTTL.Milliseconds(),
	}}
}

// Renew extends a held lease.  A renewal for a lease the worker no longer
// holds — expired and reassigned, or completed by someone else — returns
// ReasonLeaseLost so the worker abandons the shard instead of wasting
// episodes it cannot submit first.
func (c *Coordinator) Renew(req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteLocked(req)
	if resp, ok := c.checkFingerprint(OpRenew, req); !ok {
		return resp
	}
	now := c.clock.Now()
	c.expireLocked(now)
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		return Response{Op: OpRenew, OK: false, Reason: ReasonBadRequest,
			Error: fmt.Sprintf("dist: renew shard %d outside [0, %d)", req.Shard, len(c.shards))}
	}
	s := &c.shards[req.Shard]
	if s.state != shardLeased || s.owner != req.Worker {
		return Response{Op: OpRenew, OK: false, Reason: ReasonLeaseLost,
			Error: fmt.Sprintf("dist: worker %s no longer holds shard %d", req.Worker, req.Shard)}
	}
	s.expiry = now.Add(c.cfg.LeaseTTL)
	c.ctr.LeasesRenewed++
	return Response{Op: OpRenew, OK: true, LeaseMS: c.cfg.LeaseTTL.Milliseconds()}
}

// SubmitResult folds one completed shard aggregate, exactly once.
//
// Admission is deliberately more generous than leasing: a result is
// accepted even if the submitter's lease expired (a late result from a
// slow-but-alive worker is still the correct bytes — determinism means
// the shard's content does not depend on who computes it), and a result
// for an already-done shard is acknowledged as a benign duplicate when
// its sum matches the accepted one.  A duplicate with a DIFFERENT sum is
// a determinism violation and poisons the whole campaign: folding either
// copy could silently publish wrong statistics, so nothing is folded and
// every subsequent request fails loudly.
func (c *Coordinator) SubmitResult(req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteLocked(req)
	if resp, ok := c.checkFingerprint(OpResult, req); !ok {
		return resp
	}
	if c.failed != nil {
		return Response{Op: OpResult, OK: false, Reason: ReasonStatsMismatch, Error: c.failed.Error(), Done: true}
	}
	if req.Shard < 0 || req.Shard >= len(c.shards) || req.Stats == nil {
		return Response{Op: OpResult, OK: false, Reason: ReasonBadRequest,
			Error: fmt.Sprintf("dist: result for shard %d missing stats or out of range", req.Shard)}
	}
	// Transport-integrity check: the aggregate must hash to the sum the
	// worker computed before sending.
	sum := ShardSum(req.Stats)
	if req.Sum != sum {
		c.ctr.ResultsBadSum++
		return Response{Op: OpResult, OK: false, Reason: ReasonBadSum,
			Error: fmt.Sprintf("dist: shard %d result sum %.12s… does not match payload %.12s…", req.Shard, req.Sum, sum)}
	}
	// Shape check: the aggregate must cover exactly the shard's episode
	// range.  A worker submitting a partial shard is a protocol bug.
	lo, hi := c.cfg.Spec.ShardRange(req.Shard)
	if req.Stats.Episodes != int64(hi-lo) {
		return Response{Op: OpResult, OK: false, Reason: ReasonBadRequest,
			Error: fmt.Sprintf("dist: shard %d aggregate covers %d episodes, want %d", req.Shard, req.Stats.Episodes, hi-lo)}
	}
	s := &c.shards[req.Shard]
	if s.state == shardDone {
		if c.sums[req.Shard] == sum {
			c.ctr.ResultsDuplicate++
			return Response{Op: OpResult, OK: true, Duplicate: true}
		}
		c.ctr.ResultsMismatched++
		c.failed = fmt.Errorf("dist: campaign %q poisoned: shard %d result from %s (sum %.12s…) contradicts accepted result (sum %.12s…): same shard, different bytes — determinism violation",
			c.cfg.Spec.Name, req.Shard, req.Worker, sum, c.sums[req.Shard])
		c.closeFinishedLocked()
		return Response{Op: OpResult, OK: false, Reason: ReasonStatsMismatch, Error: c.failed.Error()}
	}
	if s.state == shardLeased && s.owner != req.Worker {
		// Late result from a worker whose lease expired and whose shard
		// was reassigned: the bytes are still correct, accept them.  The
		// reassigned worker's eventual submission becomes a duplicate.
		c.ctr.ResultsLate++
	}
	s.state = shardDone
	s.owner = ""
	c.done[req.Shard] = req.Stats
	c.sums[req.Shard] = sum
	c.ctr.ResultsAccepted++
	c.ctr.ShardsDone++
	c.ctr.EpisodesDone += req.Stats.Episodes
	complete := int(c.ctr.ShardsDone) == len(c.shards)
	if err := c.maybeCheckpointLocked(complete); err != nil {
		c.failed = fmt.Errorf("dist: campaign %q: checkpoint: %w", c.cfg.Spec.Name, err)
		c.closeFinishedLocked()
		return Response{Op: OpResult, OK: false, Reason: ReasonBadRequest, Error: c.failed.Error()}
	}
	if complete {
		c.ctr.Complete = true
		c.closeFinishedLocked()
	} else {
		c.maybeQuiesceLocked()
	}
	return Response{Op: OpResult, OK: true, Done: complete}
}

// maybeCheckpointLocked persists accepted shards per the spec's
// checkpoint cadence.  Caller holds c.mu.
func (c *Coordinator) maybeCheckpointLocked(force bool) error {
	if c.cfg.Spec.CheckpointPath == "" {
		return nil
	}
	c.sinceSave++
	every := c.cfg.Spec.CheckpointEvery
	if every == 0 {
		every = 1
	}
	if !force && c.sinceSave < every {
		return nil
	}
	c.sinceSave = 0
	return campaign.SaveShardCheckpoint(c.cfg.Spec.CheckpointPath, c.fp, c.done)
}

// Failed reports whether the campaign has been poisoned, and by what.
func (c *Coordinator) Failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// ErrDraining is returned by WaitResult when the coordinator drained
// before the campaign completed.
var ErrDraining = errors.New("dist: coordinator drained before campaign completed")

// WaitResult blocks until the campaign finishes and returns the folded
// statistics.  If the coordinator was drained first, it returns
// ErrDraining (checkpointed shards remain on disk for a later resume).
func (c *Coordinator) WaitResult() (campaign.Stats, error) {
	<-c.finished
	c.mu.Lock()
	failed, incomplete, draining := c.failed, int(c.ctr.ShardsDone) != len(c.shards), c.draining
	c.mu.Unlock()
	if failed == nil && incomplete && draining {
		return campaign.Stats{}, ErrDraining
	}
	return c.Result()
}
