package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"safeplan/internal/core"
)

// CampaignOptions selects campaign-level behaviour shared by every
// scenario's campaign runner (RunEpisodes).  It embeds the per-episode
// Options, which the runners replicate for every episode: the Collector
// and Invariants fields apply to each episode (shared across workers, so
// both must be concurrency-safe/stateless — which telemetry.Metrics and
// every shipped Invariant are), while the embedded Seed, Trace, and
// Scratch fields are ignored — the campaign seeds episode i with
// BaseSeed+i, never records traces, and manages one arena per worker
// itself.
type CampaignOptions struct {
	Options

	// BaseSeed seeds episode i with BaseSeed+i.
	BaseSeed int64
	// Workers bounds the number of concurrent episode goroutines; 0
	// selects GOMAXPROCS.  Negative counts are rejected.
	Workers int
}

func (o CampaignOptions) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("sim: worker count %d must be >= 1 (0 selects GOMAXPROCS)", o.Workers)
	}
	return nil
}

// episodeOptions derives episode i's Options from the embedded episode
// options: per-campaign seed pairing and per-worker arenas override the
// corresponding embedded fields, and Trace stays off (a campaign's worth
// of traces would defeat the allocation-free hot path; run a single
// traced episode instead).
func (o CampaignOptions) episodeOptions(i int, scratch *Scratch) Options {
	epo := o.Options
	epo.Seed = o.BaseSeed + int64(i)
	epo.Trace = false
	epo.Scratch = scratch
	return epo
}

// RunCampaign simulates n episodes of agent under cfg with master seeds
// BaseSeed, BaseSeed+1, …, BaseSeed+n−1, fanning the work across
// o.Workers goroutines.  Results are returned in seed order so campaigns
// of different agents over the same seeds are pairwise comparable (same
// C1 behaviour, same channel and sensor noise).
//
// The agent must be stateless across episodes (every agent in this
// repository is); per-episode state (filters, channels, drivers) is
// created inside Run.
func RunCampaign(cfg Config, agent core.Agent, n int, o CampaignOptions) ([]Result, error) {
	return RunEpisodes(n, o, cfg.Validate, func(opts Options) (Result, error) { return Run(cfg, agent, opts) })
}

// RunEpisodes is the campaign fan-out every scenario shares: it checks
// the worker and episode counts, runs validate once, then runs episode i
// with o.episodeOptions(i, ·) on one arena per worker, reporting progress
// to o.Collector.  Results are in seed order; the first failing episode's
// error is returned.
func RunEpisodes(n int, o CampaignOptions, validate func() error, run func(Options) (Result, error)) ([]Result, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: non-positive episode count %d", n)
	}
	if err := validate(); err != nil {
		return nil, err
	}
	results := make([]Result, n)
	errs := make([]error, n)
	var done atomic.Int64
	scratches := NewWorkerScratches(o.Workers, n)
	ParallelForWorkersScoped(o.Workers, n, func(w, i int) {
		results[i], errs[i] = run(o.episodeOptions(i, scratches[w]))
		if o.Collector != nil {
			o.Collector.OnProgress(done.Add(1), int64(n))
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: episode %d: %w", i, err)
		}
	}
	return results, nil
}

// ParallelForWorkers runs f(0) … f(n−1) across the given number of
// goroutines (0 selects GOMAXPROCS) and waits for completion.  f must
// only write to index-disjoint state.
func ParallelForWorkers(workers, n int, f func(i int)) {
	ParallelForWorkersScoped(workers, n, func(_, i int) { f(i) })
}

// ResolveWorkers applies the shared worker-count convention: 0 selects
// GOMAXPROCS, and the count never exceeds the task count.
func ResolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// NewWorkerScratches builds one episode arena per effective worker under
// the ResolveWorkers convention, for campaign runners that index them by
// the worker argument of ParallelForWorkersScoped.  Reusing an arena
// across a worker's episodes cannot perturb results — episodes are
// seed-deterministic with or without a scratch (the parity tests assert
// bit identity).
func NewWorkerScratches(workers, n int) []*Scratch {
	out := make([]*Scratch, ResolveWorkers(workers, n))
	for i := range out {
		out[i] = NewScratch()
	}
	return out
}

// ParallelForWorkersScoped is ParallelForWorkers with the worker index
// (0 … effective workers−1) passed alongside the task index, so callers
// can keep per-worker scratch state without locking.
func ParallelForWorkersScoped(workers, n int, f func(worker, i int)) {
	workers = ResolveWorkers(workers, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				f(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
