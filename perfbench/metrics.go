package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark prints. The two tables
// below are the single source of the names, units and directions; the
// tests hold BENCHMARK.json to them.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload from its untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"alloc_mb", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
}

// expFigures are the characterization experiments the characterize
// workload calls, in call order: all of `characterize -exp all`.
var expFigures = []string{
	"table1", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "table3", "profiling",
}

// mechanisms are the five mitigation mechanisms, in the paper's order.
var mechanisms = []string{"PARA", "RFM", "PRAC", "Hydra", "Graphene"}

// generatorKinds are the trace-generator families the trace probe
// times.
var generatorKinds = []string{"spec", "synthetic", "attacker", "replay"}

// perLayer are the single-layer metrics, printed by every workload
// from its traced run (--trace 1). A layer the workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.parse_ms", "ms", "lower"},
		{"scenario.compile_ms", "ms", "lower"},
		{"runner.compute_s", "s", "lower"},
		{"runner.wait_s", "s", "lower"},
		{"runner.pool_busy", "ratio", "higher"},
		{"runner.cells_computed", "count", "lower"},
		{"runner.cells_cached", "count", "higher"},
		{"store.get_us", "us", "lower"},
		{"store.put_us", "us", "lower"},
		{"store.gets", "count", "lower"},
		{"store.hits", "count", "higher"},
		{"store.puts", "count", "lower"},
		{"store.put_mb", "MiB", "lower"},
		{"service.submit_ms", "ms", "lower"},
		{"service.watch_ms", "ms", "lower"},
		{"service.fetch_ms", "ms", "lower"},
		{"sim.cell_ms_p50", "ms", "lower"},
		{"sim.cell_ms_max", "ms", "lower"},
		{"sim.mcycles_per_s", "Mcycles/s", "higher"},
		{"sim.sim_cycles", "count", "lower"},
		{"sim.steps", "count", "lower"},
		{"sim.leap_share", "ratio", "higher"},
		{"cpu.core_share", "ratio", "lower"},
		{"cpu.ticks", "count", "lower"},
		{"cpu.stall_skips", "count", "higher"},
		{"memsys.ctrl_share", "ratio", "lower"},
		{"memsys.window_share", "ratio", "lower"},
		{"memsys.merge_share", "ratio", "lower"},
		{"memsys.windows", "count", "higher"},
		{"memsys.acts", "count", "lower"},
		{"memsys.reads", "count", "lower"},
		{"memsys.avg_read_latency_cycles", "cycles", "lower"},
		{"mitigation.preventive_refreshes", "count", "lower"},
		{"mitigation.rfms", "count", "lower"},
		{"mitigation.prevref_busy", "ratio", "lower"},
	}
	for _, m := range mechanisms {
		defs = append(defs, metricDef{"mitigation.activate_ns." + m, "ns", "lower"})
	}
	for _, k := range generatorKinds {
		defs = append(defs, metricDef{"trace.next_ns." + k, "ns", "lower"})
	}
	for _, f := range expFigures {
		defs = append(defs, metricDef{"exp." + f + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"characterize.measure_row_us", "us", "lower"},
		metricDef{"bench.tracing_overhead", "ratio", "lower"},
	)
}()

// declared reports whether name is an end-to-end or per-layer metric.
func declared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses, with an error, when fewer than ten
// samples lie beyond the percentile: such a figure is no tail.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100)", p)
	}
	n := len(xs)
	beyond := float64(n) * (100 - p) / 100
	if beyond < 10 {
		return 0, fmt.Errorf("p%g over %d samples leaves %.1f beyond it, want at least 10", p, n, beyond)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	return s[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
