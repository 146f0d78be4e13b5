package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload for one second, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// declares, with valid names and their declared units, and that every
// output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(expectedJSON, &expectedRates); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			declared := bf.EndToEnd
			if trace {
				declared = bf.PerLayer
			}
			for _, m := range declared {
				want[m.Name] = m.Unit
			}
			env := &runEnv{
				workload: name, seed: 11, measure: time.Second, trace: trace,
				models: "../models", traceDir: t.TempDir(),
				nproc: runtime.NumCPU(), epoch: time.Now(), notes: map[string]float64{},
			}
			var out bytes.Buffer
			if err := run(&out, env); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for m, v := range res.Metrics {
				if !nameRE.MatchString(m) || !unitRE.MatchString(v.Unit) {
					t.Errorf("%s trace=%v: invalid metric %q unit %q", name, trace, m, v.Unit)
				}
				if u, ok := want[m]; !ok || u != v.Unit {
					t.Errorf("%s trace=%v: metric %q in %q, BENCHMARK.json says %q", name, trace, m, v.Unit, u)
				}
			}
		}
	}
}
