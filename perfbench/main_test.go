package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric sets this
// program prints in step: same names, same order, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&pass{setup: []float64{1}, restart: []float64{1}, latency: []float64{1}, opsRate: []float64{1}, queryRate: []float64{1}})
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): runner prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), runner %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestAttribute charges pprof -traces samples to package and runtime
// buckets.
func TestAttribute(t *testing.T) {
	const traces = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   internal/runtime/maps.ctrlGroup.matchH2 (inline)
             runtime.mapaccess2
             repro/internal/core.(*Cache).Lookup
             main.main
-----------+-------------------------------------------------------
      10ms   encoding/json.(*encodeState).marshal
             repro/internal/serve.writeJSON
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	shares, _, err := attribute(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.core": 0.6, "cpu.http": 0.2, "cpu.other": 0.2, "cpu.rt.map": 0.6, "cpu.rt.gc": 0.2}
	for name, v := range shares {
		if d := v - want[name]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %g, want %g", name, v, want[name])
		}
	}
}

// TestHistQuantile keeps the histogram's quantiles within 1% of the exact
// nearest-rank ones.
func TestHistQuantile(t *testing.T) {
	var h hist
	var xs []float64
	for i := 1; i <= 10000; i++ {
		x := 0.001 * float64(i*i%7919+1) // 1 µs to about 8 ms, unordered
		xs = append(xs, x)
		h.add(x)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := quantile(xs, q)
		if got := h.quantile(q); math.Abs(got/want-1) > 0.01 {
			t.Errorf("quantile(%g) = %g, exact %g", q, got, want)
		}
	}
	if !math.IsNaN(new(hist).quantile(0.5)) {
		t.Error("empty histogram has a quantile")
	}
}
