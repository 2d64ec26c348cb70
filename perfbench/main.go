// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed time and
// prints, as the last line of standard output, a JSON object with the
// operations attempted and failed and the metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A
// human-readable report goes to standard error. See README.md.
//
//	perfbench --workload fig17-cold --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = []struct {
	name string
	run  func(r *run) error
}{
	{"fig17-cold", runFig17Cold},
	{"attack-channels", runAttackChannels},
	{"daemon-warm", runDaemonWarm},
	{"characterize", runCharacterize},
}

// workers is the simulation pool size and characterization parallelism.
// One worker halves the round-to-round spread of two on a two-vCPU
// virtual machine whose speed varies with its neighbours' load.
const workers = 1

// run is one workload execution: its options, its operation counts
// and the metrics it reports.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory, removed when the run ends

	tr  *tracer // nil on untraced runs
	rng *rand.Rand

	attempted, failed int64
	inconsistent      []string // failures no single operation owns

	walls, allocs []float64 // per timed round
	metrics       map[string]float64

	setupTimes []float64    // every timed set-up; setup_s is their median
	setupAgain func() error // times set-ups between rounds; nil when none
}

// check counts one operation, failed unless ok; a failure is described
// on standard error and does not stop the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// inconsistency records a check no single operation owns (outputs that
// differ between rounds); it makes the run's result incorrect.
func (r *run) inconsistency(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.inconsistent = append(r.inconsistent, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: inconsistent: %s\n", r.workload, msg)
}

// timed runs one round's timed phase: the heap is collected first, then
// f's wall time and heap allocation are recorded.
func (r *run) timed(f func() error) (time.Duration, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	r.walls = append(r.walls, wall.Seconds())
	r.allocs = append(r.allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return wall, err
}

// rounds calls round with 0, 1, 2, ... for at least min rounds and
// then until the run length has passed, so every run attempts whole
// rounds of the same operations. The set-ups timed between rounds
// follow each round.
func (r *run) rounds(min int, round func(i int) error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < r.seconds; i++ {
		if err := round(i); err != nil {
			return err
		}
		if r.setupAgain != nil {
			if err := r.setupAgain(); err != nil {
				return err
			}
		}
	}
	return nil
}

// setups times set-up n times before the rounds and, when between > 0,
// between times more after every round; setup_s is the median of them
// all, so it samples the host's speed over the whole run and not only
// its first second. Every set-up but the last is discarded by undo, so
// set-ups repeated between rounds must leave equivalent state. A traced
// run, which does not report setup_s, sets up once.
func (r *run) setups(n, between int, setup func() error, undo func()) error {
	if r.traced {
		n, between = 1, 0
	}
	timeOne := func() error {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
		r.metrics["setup_s"] = median(r.setupTimes)
		return nil
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			undo()
		}
		if err := timeOne(); err != nil {
			return err
		}
	}
	if between > 0 {
		r.setupAgain = func() error {
			for i := 0; i < between; i++ {
				undo()
				if err := timeOne(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return nil
}

// randFrom returns a generator seeded with seed alone.
func randFrom(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// derive returns a value drawn from the workload seed for one named
// input, so each input depends on the seed alone.
func (r *run) derive(label uint64) uint64 {
	return rand.New(rand.NewPCG(r.seed, label)).Uint64()
}

// freshDir returns a new empty directory under the run's scratch
// directory.
func (r *run) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(r.dir, prefix)
}

// wallMetrics sets wall_s and alloc_mb from the timed rounds.
func (r *run) wallMetrics() {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds, wall_s %.3f\n", r.workload, len(r.walls), r.walls)
	r.metrics["wall_s"] = median(r.walls)
	r.metrics["alloc_mb"] = median(r.allocs)
}

// latencyMetrics sets the latency metrics from per-operation samples
// (seconds), one slice per round: the median and the workload's tail
// percentile. When every round leaves ten samples beyond the tail, both
// are taken in each round and reported as their medians over the
// rounds, so a slow spell of the host during one round cannot fill the
// tail; otherwise they are taken over the rounds' samples pooled.
func (r *run) latencyMetrics(rounds [][]float64, tailPct float64) error {
	var p50s, tails, pooled []float64
	perRound := len(rounds) > 0
	for _, s := range rounds {
		pooled = append(pooled, s...)
		tail, err := percentile(s, tailPct)
		if err != nil {
			perRound = false
			continue
		}
		p50s, tails = append(p50s, median(s)), append(tails, tail)
	}
	how := "median of per-round figures"
	if !perRound {
		tail, err := percentile(pooled, tailPct)
		if err != nil {
			return fmt.Errorf("latency tail: %w", err)
		}
		p50s, tails, how = []float64{median(pooled)}, []float64{tail}, "pooled over rounds"
	}
	r.metrics["latency_p50_ms"] = median(p50s) * 1e3
	r.metrics["latency_tail_ms"] = median(tails) * 1e3
	fmt.Fprintf(os.Stderr, "perfbench: %s: latency over %d operations in %d rounds, tail = p%g, %s\n",
		r.workload, len(pooled), len(rounds), tailPct, how)
	return nil
}

// output is the result line's shape.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the output from the run's metrics, which must be
// exactly the declared set for the run's mode.
func (r *run) result() (output, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := output{Correct: len(r.inconsistent) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !r.traced {
				return output{}, fmt.Errorf("metric %s was not measured", d.name)
			}
			v = 0 // a layer this workload does not exercise
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.metrics {
		if !declared(name) {
			return output{}, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if out.Attempted < 1 {
		return output{}, fmt.Errorf("no operations attempted")
	}
	return out, nil
}

// report prints the result for people, one metric a line.
func report(workload string, traced bool, out output) {
	defs := endToEnd
	mode := "untraced"
	if traced {
		defs, mode = perLayer, "traced"
	}
	fmt.Fprintf(os.Stderr, "== %s (%s): attempted %d, failed %d, correct %v\n",
		workload, mode, out.Attempted, out.Failed, out.Correct)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
}

// execute runs one workload in one mode in a scratch directory under
// root.
func execute(name string, drive func(*run) error, seed uint64, seconds time.Duration, traced bool, root string) (output, error) {
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: name, seed: seed, seconds: seconds, traced: traced, dir: dir,
		rng:     randFrom(seed),
		metrics: make(map[string]float64),
	}
	if traced {
		r.tr = newTracer()
	}
	if err := drive(r); err != nil {
		return output{}, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		path := filepath.Join(root, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := r.tr.write(path); err != nil {
			return output{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", name, len(r.tr.spans), path)
	}
	return r.result()
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "directory for scratch stores and span files")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, time.Duration(*seconds)*time.Second, *trace, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds time.Duration, trace int, workdir string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	root := filepath.Join(workdir, "perfbench-runs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	var names []string
	var selected []int
	for i, w := range workloads {
		names = append(names, w.name)
		if workload == "all" || w.name == workload {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q (have: %s, all)", workload, strings.Join(names, ", "))
	}
	modes := []bool{trace == 1}
	if workload == "all" {
		modes = []bool{false, true}
	}
	for _, i := range selected {
		w := workloads[i]
		for _, traced := range modes {
			out, err := execute(w.name, w.run, seed, seconds, traced, root)
			if err != nil {
				return err
			}
			report(w.name, traced, out)
			line, err := json.Marshal(out)
			if err != nil {
				return err
			}
			if workload == "all" {
				fmt.Printf("%s trace=%d ", w.name, boolInt(traced))
			}
			fmt.Println(string(line))
		}
	}
	return nil
}
