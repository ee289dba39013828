// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process Basil cluster through the public API
// and prints one JSON result as the last line of its output: with
// -trace 0 the end-to-end metrics of an untraced run, with -trace 1 the
// per-layer metrics of a traced run. Every run checks its own outputs
// (serializability oracle, accounting identity, final read audit, and
// for the open loop the generator's lag) and reports correct=false on
// any violation.
//
//	perfbench -workload rwu-mem -seed 1 -seconds 10 -trace 0
//	perfbench -suite -repeats 5 -seconds 10
//
// -suite runs every workload, untraced and traced, repeats times each
// in child processes, and prints each metric's median and quartiles.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

const (
	// warmup precedes every measure window: sessions connect, the first
	// checkpoint cycles run and the heap reaches its working size.
	warmup = 2 * time.Second
	// setupRepeats clusters are built and timed per run; setup_s is
	// their median.
	setupRepeats = 7
	// lagLimit bounds the open-loop generator's p99 lateness: beyond it
	// the run did not offer the Poisson load it claims.
	lagLimit = 100 * time.Millisecond
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measure window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		dataDir = flag.String("data", ".bench_build/data", "parent directory for durable replicas' logs")
		suite   = flag.Bool("suite", false, "run every workload, untraced and traced, and summarize")
		repeats = flag.Int("repeats", 3, "runs per workload and mode with -suite")
	)
	flag.Parse()
	if *suite {
		if err := runSuite(*seed, *seconds, *repeats); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{
		spec: s, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		setups: setupRepeats, dataDir: *dataDir,
	}
	rep, err := runWorkload(cfg, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.violations {
		fmt.Fprintln(os.Stderr, "perfbench: violation:", p)
	}
	printJSON(rep.detail)
	printJSON(rep.res)
}

// report is one run's outcome: the result line, the provenance and
// detail line, and the measured phase behind them.
type report struct {
	res        result
	detail     map[string]any
	violations []string
	last       *phase
}

// runWorkload makes one run. Traced, it first measures an untraced
// cluster for a quarter of the window, for the tracing overhead.
func runWorkload(cfg runConfig, traced bool) (*report, error) {
	var (
		phases []*phase
		values map[string]float64
		defs   = endToEnd
	)
	if traced {
		defs = perLayer
		plain := cfg
		plain.setups, plain.measure = 1, cfg.measure/4
		u, err := measurePhase(plain, false)
		if err != nil {
			return nil, err
		}
		uw := u.window()
		cfg.setups = 1
		p, err := measurePhase(cfg, true)
		if err != nil {
			return nil, err
		}
		values = p.perLayerMetrics(p.window(), float64(uw.commits)/uw.secs)
		phases = []*phase{u, p}
	} else {
		p, err := measurePhase(cfg, false)
		if err != nil {
			return nil, err
		}
		values = p.endToEndMetrics(p.window())
		phases = []*phase{p}
	}
	last := phases[len(phases)-1]
	w := last.window()
	res := result{Correct: true, Attempted: w.offered, Failed: w.failed, Metrics: map[string]metricValue{}}
	violations := []string{}
	for _, p := range phases {
		violations = append(violations, p.problems...)
	}
	if len(violations) > 0 || values == nil {
		res.Correct = false
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return &report{res, provenance(cfg, traced, last, w, violations), violations, last}, nil
}

// provenance describes the run: host, toolchain, revision, seed and
// every workload parameter, plus the window's sample counts.
func provenance(cfg runConfig, traced bool, p *phase, w window, violations []string) map[string]any {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	s := cfg.spec
	return map[string]any{
		"provenance": map[string]any{
			"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "git_rev": rev, "git_dirty": dirty,
		},
		"workload": map[string]any{
			"name": s.name, "seed": cfg.seed, "traced": traced,
			"transport": map[bool]string{true: "tcp-loopback", false: "local"}[s.tcp],
			"durable":   s.durable, "batch_size": s.batch, "open_loop_rate_txs": s.rate,
			"records": records, "sessions": sessions, "f": 1, "shards": 1,
			"checkpoint_every_ms": checkpointEvery.Milliseconds(), "delta_ms": deltaMicros / 1000,
			"warmup_s": warmup.Seconds(), "measure_s": cfg.measure.Seconds(), "setup_repeats": cfg.setups,
		},
		"window": map[string]any{
			"seconds": w.secs, "commits": w.commits, "latency_samples": len(w.lat),
			"lat_p99_ms": w.tailLatency(), "lag_ms_p99": ms(p.lagP99()), "host_steal_pct": p.b.stealPct(p.a),
			"attempts": w.attempts, "aborts": w.aborts, "offered": w.offered, "failed": w.failed,
			"oracle_transactions": p.checked, "setup_s_each": seconds(p.setup),
		},
		"violations": violations,
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are printed
	}
	fmt.Println(string(b))
}

// runSuite runs every workload untraced and traced, repeats times each
// with seeds seed, seed+1, ..., each run in its own process as the
// single-run command would be, and prints per-metric medians and
// quartiles with units, plus each per-layer metric's interaction map.
func runSuite(seed int64, seconds, repeats int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("# perfbench suite: %d repeats, %ds windows, seeds %d..%d\n", repeats, seconds, seed, seed+int64(repeats)-1)
	var prov any
	for _, s := range specs {
		for _, traced := range []int{0, 1} {
			values := map[string][]float64{}
			for r := 0; r < repeats; r++ {
				cmd := exec.Command(self, "-workload", s.name, "-seed", fmt.Sprint(seed+int64(r)),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s trace=%d seed=%d: %w", s.name, traced, seed+int64(r), err)
				}
				lines := nonEmptyLines(out)
				if len(lines) < 2 {
					return fmt.Errorf("%s: no result printed", s.name)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s trace=%d seed=%d: run failed its correctness check", s.name, traced, seed+int64(r))
				}
				var detail struct {
					Provenance any
					Window     struct {
						P99 *float64 `json:"lat_p99_ms"`
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
					return fmt.Errorf("%s: detail line: %w", s.name, err)
				}
				if prov == nil {
					prov = detail.Provenance
					printJSON(map[string]any{"provenance": prov})
				}
				for k, v := range res.Metrics {
					values[k] = append(values[k], v.Value)
				}
				if detail.Window.P99 != nil && traced == 0 {
					values["lat_p99_ms"] = append(values["lat_p99_ms"], *detail.Window.P99)
				}
			}
			defs := append(append([]metricDef(nil), endToEnd...), metricDef{name: "lat_p99_ms", unit: "ms", moves: "(reported, no bound)"})
			if traced == 1 {
				defs = perLayer
			}
			fmt.Printf("\n## %s (%s), n=%d\n", s.name, map[int]string{0: "end-to-end, untraced", 1: "per-layer, traced"}[traced], repeats)
			fmt.Printf("%-34s %-7s %12s %12s %12s  %s\n", "metric", "unit", "median", "q1", "q3", "moves")
			for _, d := range defs {
				if len(values[d.name]) == 0 {
					fmt.Printf("%-34s %-7s %12s %12s %12s  %s\n", d.name, d.unit, "n/a", "", "", d.moves)
					continue
				}
				q1, med, q3 := quartiles(values[d.name])
				fmt.Printf("%-34s %-7s %12.4f %12.4f %12.4f  %s\n", d.name, d.unit, med, q1, q3, d.moves)
			}
		}
	}
	return nil
}

func nonEmptyLines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of a
// non-empty sample by the "exclusive" method (Python's
// statistics.quantiles default); a single value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m-j*4) / 4
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}
