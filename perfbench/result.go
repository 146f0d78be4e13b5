package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and perLayerUnits fix every metric's unit.  End-to-end
// metrics are printed by untraced runs, per-layer metrics by traced runs;
// each run prints all of its kind, with 0 for a layer the workload does not
// pass through.
var endToEndUnits = map[string]string{
	"eps_per_s":      "1/s",
	"episode_p50_ms": "ms",
	"max_rate_rps":   "1/s",
	"setup_s":        "s",
	"mem_peak_mb":    "MB",
}

var perLayerUnits = map[string]string{
	"sim.setup_us":           "us",
	"sim.step_ns":            "ns",
	"sim.engine_self_ns":     "ns",
	"sim.finish_us":          "us",
	"sim.steps_per_episode":  "count",
	"sim.allocs_per_episode": "count",
	"sim.bytes_per_episode":  "B",
	"sim.accounted_frac":     "ratio",

	"core.agent_ns":            "ns",
	"core.self_ns":             "ns",
	"core.emergency_step_frac": "ratio",

	"planner.kn_ns":             "ns",
	"planner.kn_calls_per_step": "ratio",

	"comms.send_ns":        "ns",
	"comms.poll_ns":        "ns",
	"comms.delivered_frac": "ratio",
	"sensor.measure_ns":    "ns",
	"fusion.on_message_ns": "ns",
	"fusion.on_reading_ns": "ns",
	"fusion.estimate_ns":   "ns",

	"campaign.step_p50_us":    "us",
	"campaign.step_p99_us":    "us",
	"campaign.busy_frac":      "ratio",
	"campaign.edge_ms":        "ms",
	"campaign.episode_p99_ms": "ms",

	"serve.lat_p50_us":                 "us",
	"serve.lat_p99_us":                 "us",
	"serve.open_us":                    "us",
	"serve.close_us":                   "us",
	"serve.engine_step_p50_ns":         "ns",
	"serve.engine_step_p99_ns":         "ns",
	"serve.protocol_us":                "us",
	"serve.backlog_max":                "count",
	"serve.ladder_top_rps":             "1/s",
	"serve.gen_late_p99_us":            "us",
	"serve.rejected":                   "count",
	"serve.rejected.saturated":         "count",
	"serve.rejected.backpressure":      "count",
	"serve.rejected.unknown-session":   "count",
	"serve.rejected.duplicate-session": "count",
	"serve.rejected.session-closed":    "count",
	"serve.rejected.bad-request":       "count",
	"serve.rejected.draining":          "count",

	"go.gc_cpu_frac":    "ratio",
	"go.alloc_mb_per_s": "MB/s",

	"trace.overhead_frac": "ratio",
	"fail_frac":           "ratio",
}

// emit fills every metric of the run's kind from values (absent ones read
// 0) and writes the result line.
func emit(w io.Writer, trace bool, attempted, failed int64, correct bool, values map[string]float64) error {
	units := endToEndUnits
	if trace {
		units = perLayerUnits
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %q is not declared", name)
		}
	}
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(units))}
	for name, unit := range units {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", name, v)
		}
		r.Metrics[name] = metric{Value: v, Unit: unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the Go runtime counters the per-layer run reports.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), allocObjects: val(1), gcCPU: val(2), totalCPU: val(3)}
}

// runtimeDelta accumulates runtime counter differences over measured
// windows.
type runtimeDelta struct{ runtimeSample }

func (d *runtimeDelta) add(before, after runtimeSample) {
	d.allocBytes += after.allocBytes - before.allocBytes
	d.allocObjects += after.allocObjects - before.allocObjects
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

func (d *runtimeDelta) gcFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}
