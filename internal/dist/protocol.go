// Package dist is the fault-tolerant distributed campaign tier: a
// coordinator/worker work-distribution protocol that extends the campaign
// engine's determinism contract — byte-identical Stats at any topology —
// across process and machine boundaries, with failure as a first-class
// input.
//
// The coordinator owns a campaign.Spec and its fixed shard plan.  Workers
// connect over line-delimited JSON (the internal/serve transport style),
// acquire shards under time-bounded leases, heartbeat while they run
// episodes, and submit per-shard aggregates.  The coordinator folds
// results with the ordered Chan/Welford merge (campaign.FoldShards), so
// the final Stats are byte-for-byte what a single process computes — for
// any worker count, and through every failure the protocol tolerates:
//
//   - a worker crash or hang: its lease expires and the shard is
//     reassigned to the next worker that asks;
//   - a lost, delayed, or duplicated protocol message: workers retry with
//     jittered exponential backoff, and the coordinator admits duplicate
//     or late shard results exactly once, verifying every copy against
//     the first accepted result's fingerprint — two workers computing the
//     same shard MUST produce identical bytes, and a mismatch aborts the
//     campaign loudly rather than folding corrupt statistics;
//   - a worker restart: fingerprinted mid-shard checkpoints
//     (campaign.WriteFileAtomic durability, campaign.ErrCorruptCheckpoint
//     discard semantics) let a rejoining worker resume at the exact
//     episode it left off, byte-identically, instead of recomputing;
//   - a corrupt checkpoint on disk: detected, discarded, recomputed.
//
// Wall-clock time — lease TTLs, heartbeats, backoff — flows exclusively
// through the Clock seam in clock.go; nothing clock-derived ever touches
// the statistics fold.  See DESIGN.md §15 for the full failure model and
// the exactly-once argument.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"safeplan/internal/campaign"
)

// Protocol operations.  A worker speaks line-delimited JSON over a plain
// TCP connection: one Request per line in, one Response per line out, in
// order (the worker protocol is strictly request/response, so no
// correlation IDs are needed; retries are new requests).
const (
	// OpHello introduces a worker and fetches the campaign descriptor.
	OpHello = "hello"
	// OpLease asks for a shard under a time-bounded lease.
	OpLease = "lease"
	// OpRenew heartbeats an in-flight lease, reporting progress.
	OpRenew = "renew"
	// OpResult submits a completed shard aggregate.
	OpResult = "result"
	// OpBye announces a clean departure (telemetry only; crashed workers
	// never send it and cost nothing but a lease timeout).
	OpBye = "bye"
)

// Rejection reasons carried in Response.Reason when OK is false.
const (
	// ReasonBadRequest: malformed JSON, unknown op, or missing fields.
	ReasonBadRequest = "bad-request"
	// ReasonUnknownWorkload: the coordinator's workload name is not in
	// this worker's registry — a version or deployment skew.  Terminal
	// for the worker.
	ReasonUnknownWorkload = "unknown-workload"
	// ReasonLeaseLost: the renewing or submitting worker no longer holds
	// the shard's lease (it expired and was reassigned, or the shard was
	// completed by another worker).  The worker abandons the shard.
	ReasonLeaseLost = "lease-lost"
	// ReasonBadSum: the submitted aggregate does not hash to the
	// accompanying sum — the message was corrupted in flight.  Retryable:
	// the worker resubmits.
	ReasonBadSum = "bad-sum"
	// ReasonStatsMismatch: a duplicate result for a completed shard
	// hashed differently from the accepted one.  This is a determinism
	// violation — two executions of the same shard disagreed — and it
	// poisons the campaign: the coordinator fails loudly rather than
	// guess which bytes to trust.
	ReasonStatsMismatch = "stats-mismatch"
	// ReasonFingerprint: the worker's campaign fingerprint does not match
	// the coordinator's — it is talking to the wrong campaign.  Terminal.
	ReasonFingerprint = "fingerprint-mismatch"
)

// Request is one line of worker input.
type Request struct {
	Op     string `json:"op"`
	Worker string `json:"worker"`

	// Fingerprint guards every shard-touching op: the worker echoes the
	// campaign fingerprint from hello, and the coordinator refuses work
	// and results that fingerprint differently.
	Fingerprint *campaign.Fingerprint `json:"fingerprint,omitempty"`

	// Lease parameters.  Prefer, when non-nil, names a shard the worker
	// holds a mid-shard checkpoint for; the coordinator grants it if the
	// shard is still pending, letting the worker resume instead of
	// recomputing.
	Prefer *int `json:"prefer,omitempty"`

	// Renew/result parameters.
	Shard int `json:"shard,omitempty"`
	// EpisodesDone reports shard progress on renewals (telemetry only —
	// it never affects the fold).
	EpisodesDone int64 `json:"episodes_done,omitempty"`
	// Stats is the completed shard aggregate; Sum is its canonical hash
	// (ShardSum), the exactly-once fold fingerprint.
	Stats *campaign.ShardStats `json:"stats,omitempty"`
	Sum   string               `json:"sum,omitempty"`

	// Retries is the worker's cumulative transport-retry count, surfaced
	// on the coordinator's /metrics (telemetry only).
	Retries int64 `json:"retries,omitempty"`
}

// CampaignInfo describes the campaign to joining workers: everything a
// worker needs to reconstruct the spec's deterministic skeleton.  The
// configuration and agent are NOT shipped — the Workload name resolves
// them through the worker's registry (internal/workloads), because only
// identical construction on both sides keeps remote episodes
// byte-identical to local ones.
type CampaignInfo struct {
	Name            string               `json:"name"`
	Workload        string               `json:"workload"`
	Episodes        int                  `json:"episodes"`
	BaseSeed        int64                `json:"base_seed"`
	Shards          int                  `json:"shards"`
	CountViolations bool                 `json:"count_violations"`
	Fingerprint     campaign.Fingerprint `json:"fingerprint"`
}

// Assignment is one granted lease.
type Assignment struct {
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// LeaseMS is the lease TTL; the worker must renew within it or the
	// shard is reassigned.
	LeaseMS int64 `json:"lease_ms"`
}

// Response is one line of coordinator output.
type Response struct {
	Op string `json:"op"`
	OK bool   `json:"ok"`

	// Error is human-readable; Reason is the machine-readable rejection
	// class.  Both empty when OK.
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`

	// Campaign is attached to hello responses.
	Campaign *CampaignInfo `json:"campaign,omitempty"`

	// Lease outcome: exactly one of Assign, Wait, or Done.
	Assign *Assignment `json:"assign,omitempty"`
	// Wait: every shard is done or leased; retry after RetryMS.
	Wait    bool  `json:"wait,omitempty"`
	RetryMS int64 `json:"retry_ms,omitempty"`
	// Done: no work will ever be granted again (campaign complete or
	// coordinator draining) — the worker should exit.
	Done bool `json:"done,omitempty"`

	// Renewed lease TTL (renew responses).
	LeaseMS int64 `json:"lease_ms,omitempty"`

	// Duplicate marks a result for an already-completed shard whose sum
	// matched the accepted one: a benign replay, acknowledged so the
	// worker stops resubmitting.
	Duplicate bool `json:"duplicate,omitempty"`
}

// ShardSum is the exactly-once fold fingerprint: the SHA-256 of the
// aggregate's canonical JSON encoding.  encoding/json is deterministic
// here (struct fields in declaration order, map keys sorted, shortest
// round-tripping floats), so equal aggregates — and only equal
// aggregates — share a sum.
func ShardSum(s *campaign.ShardStats) string {
	raw, err := json.Marshal(s)
	if err != nil {
		// ShardStats is a closed struct of marshalable fields; this is
		// unreachable short of memory corruption.
		panic(err)
	}
	return sumBytes(raw)
}

// sumBytes is the hex SHA-256 shared by the result fingerprint and the
// worker-checkpoint checksum.
func sumBytes(raw []byte) string {
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:])
}
