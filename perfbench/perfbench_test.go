package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// keyRecorder is a workload.Tx that records the keys a body touches.
type keyRecorder struct{ keys []string }

func (k *keyRecorder) Read(key string) ([]byte, error) {
	k.keys = append(k.keys, "r:"+key)
	return make([]byte, 64), nil
}

func (k *keyRecorder) Write(key string, _ []byte) { k.keys = append(k.keys, "w:"+key) }

// keySets draws the first n transactions of s's stream for seed and
// returns each one's keys.
func keySets(s spec, seed int64, n int) [][]string {
	f := newFeed(s.gen(), seed, time.Now())
	out := make([][]string, n)
	for i := range out {
		fn, _ := f.draw()
		var rec keyRecorder
		if err := fn.Body(&rec); err != nil {
			panic(err)
		}
		out[i] = rec.keys
	}
	return out
}

func TestSeedReproducesInputs(t *testing.T) {
	const n = 200
	for _, s := range specs {
		a, b, c := keySets(s, 7, n), keySets(s, 7, n), keySets(s, 8, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew different key sets on two runs", s.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew identical key sets", s.name)
		}
		if len(a[0]) == 0 {
			t.Errorf("%s: first transaction touched no keys", s.name)
		}
	}
	due := func(seed int64) []time.Duration {
		return arrivals(rand.New(rand.NewSource(seed)), 0, time.Second, 50)
	}
	if !reflect.DeepEqual(due(7), due(7)) || reflect.DeepEqual(due(7), due(8)) {
		t.Error("open-loop arrival schedule is not a function of the seed")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric tables in
// this package identical.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, s := range specs {
		if !s.ungated {
			gated = append(gated, s)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark gates %d", len(bf.Workloads), len(gated))
	}
	for i, w := range bf.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, gated[i].name)
		}
	}
	check := func(kind string, got [][3]string, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != [3]string{d.name, d.unit, d.better} {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the benchmark %v", kind, i, got[i], d)
			}
		}
	}
	var e2e, layers [][3]string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, [3]string{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, [3]string{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// layerSpans names, per layer, the tracer spans a traced run must hold.
var layerSpans = map[string][]string{
	"client":     {"client.read", "client.prepare"},
	"replica":    {"replica.dispatch_wait"},
	"cryptoutil": {"replica.verify"},
	"store":      {"replica.check"},
	"transport":  {"net.queue"},          // TCP workloads only
	"wal":        {"replica.wal_append"}, // durable workloads only
}

// TestSelfTest runs every workload briefly, untraced and traced, and
// checks that each run passes its own correctness checks, emits every
// metric with its unit and a finite value, and that the traced run holds
// spans for every layer.
func TestSelfTest(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg := runConfig{
				spec: s, seed: 3, measure: 2 * time.Second, setups: 2, dataDir: t.TempDir(),
			}
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.res.Correct {
					t.Fatalf("traced=%v: run failed its checks: %v", traced, rep.violations)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rep.res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, want %d", traced, len(rep.res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v, want a finite value in %s", traced, d.name, m, d.unit)
					}
				}
				if !traced {
					continue
				}
				for layer, names := range layerSpans {
					if (layer == "transport" && !s.tcp) || (layer == "wal" && !s.durable) {
						continue
					}
					for _, name := range names {
						if len(rep.last.spans.byName[name]) == 0 {
							t.Errorf("layer %s: no %s spans in the traced run", layer, name)
						}
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
