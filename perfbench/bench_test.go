package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"pacram/internal/exp"
	"pacram/internal/memsys"
	"pacram/internal/runner"
	"pacram/internal/runner/storetest"
	"pacram/internal/scenario"
	"pacram/internal/sim"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		p      float64
		n      int
		ok     bool
		expect float64
	}{
		{99, 999, false, 0},
		{99, 1000, true, 990},
		{90, 99, false, 0},
		{90, 100, true, 90},
		{75, 39, false, 0},
		{75, 40, true, 30},
		{0, 1000, false, 0},
		{100, 1000, false, 0},
	} {
		got, err := percentile(samples(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", tc.p, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.expect {
			t.Errorf("p%g of %d samples = %g, want %g", tc.p, tc.n, got, tc.expect)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestLatencyMetricsPerRound(t *testing.T) {
	round := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * float64(i+1) / 1e3
		}
		return xs
	}
	for _, tc := range []struct {
		name      string
		rounds    [][]float64
		p50, tail float64 // ms
	}{
		// Each round holds ten samples beyond p99, so the round that ran
		// twice as slow falls outside the median of the three.
		{"per round", [][]float64{round(1000, 1), round(1000, 2), round(1000, 1)}, 500.5, 990},
		// A round of 100 has one sample beyond p99; the rounds are pooled.
		{"pooled", [][]float64{round(500, 1), round(100, 1), round(500, 1)}, 225.5, 495},
	} {
		r := &run{workload: tc.name, metrics: map[string]float64{}}
		if err := r.latencyMetrics(tc.rounds, 99); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.metrics["latency_p50_ms"]; math.Abs(got-tc.p50) > 1e-9 {
			t.Errorf("%s: latency_p50_ms = %g, want %g", tc.name, got, tc.p50)
		}
		if got := r.metrics["latency_tail_ms"]; math.Abs(got-tc.tail) > 1e-9 {
			t.Errorf("%s: latency_tail_ms = %g, want %g", tc.name, got, tc.tail)
		}
	}
	r := &run{metrics: map[string]float64{}}
	if err := r.latencyMetrics([][]float64{round(500, 1)}, 99); err == nil {
		t.Error("p99 over 500 samples was reported")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark's output
// must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark declares %v", layer, perLayer)
	}
}

func TestResultNamesExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		r := &run{traced: traced, attempted: 1, metrics: make(map[string]float64)}
		for _, d := range endToEnd {
			r.metrics[d.name] = 1
		}
		r.metrics["sim.steps"] = 2
		out, err := r.result()
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, v := range parsed.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: printed %v, want %v", traced, got, want)
		}
	}

	r := &run{attempted: 1, metrics: map[string]float64{"wall_s": 1}}
	if _, err := r.result(); err == nil {
		t.Error("an untraced result missing end-to-end metrics was accepted")
	}
	r = &run{attempted: 1, traced: true, metrics: map[string]float64{"no.such_metric": 1}}
	if _, err := r.result(); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// The timing wrapper must be a conforming runner.Store, so wrapping
// the store a traced round uses changes nothing the runner relies on.
func TestTimedStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) runner.Store {
		disk, err := runner.NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return &timedStore{inner: disk, tr: newTracer(), traceID: "test"}
	})
	storetest.Run(t, func(t *testing.T) runner.Store {
		return &timedStore{inner: runner.NewMemStore(0), tr: newTracer(), traceID: "test"}
	})
}

// Profiling must be passive: a profiled cell's result without its
// profile encodes to the untraced bytes, and two profiled runs count
// the same simulated work.
func TestProfiledCountersRepeat(t *testing.T) {
	s, err := scenario.LoadFile("specs/attack-channels.json")
	if err != nil {
		t.Fatal(err)
	}
	s.Sim.Instructions, s.Sim.Warmup = 4000, 400
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cells := p.Cells()
	for _, c := range []scenario.Cell{cells[0], cells[len(cells)-1]} {
		var plain []byte
		var profiles []sim.Profile
		for i := 0; i < 3; i++ {
			opt, err := c.Options()
			if err != nil {
				t.Fatal(err)
			}
			opt.Profile = i > 0
			res, err := sim.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Profile != nil {
				pr := *res.Profile
				if pr.Steps+pr.LeapCycles != pr.SimCycles {
					t.Errorf("cell %s: steps %d + leapt %d != %d cycles", c.Key, pr.Steps, pr.LeapCycles, pr.SimCycles)
				}
				pr.WallNanos, pr.CoreNanos, pr.CtrlNanos, pr.WindowNanos, pr.MergeNanos, pr.CyclesPerSecond = 0, 0, 0, 0, 0, 0
				profiles = append(profiles, pr)
				res.Profile = nil
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				plain = got
			} else if !bytes.Equal(got, plain) {
				t.Errorf("cell %s: profiled result differs from the untraced one", c.Key)
			}
		}
		if !reflect.DeepEqual(profiles[0], profiles[1]) {
			t.Errorf("cell %s: two profiled runs counted different work:\n%+v\n%+v", c.Key, profiles[0], profiles[1])
		}
	}
}

func TestCheckCellCatchesViolations(t *testing.T) {
	enc := func(r sim.Result) json.RawMessage {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := sim.Result{PrevRefBusyFraction: 0.5}
	good.Stats = memsys.Stats{Cycles: 100, Acts: 10, Reads: 7, VRRRestoreNs: 3}
	good.ChannelStats = []memsys.Stats{
		{Cycles: 100, Acts: 4, Reads: 3, VRRRestoreNs: 1},
		{Cycles: 100, Acts: 6, Reads: 4, VRRRestoreNs: 2},
	}
	if err := checkCell(enc(good), false); err != nil {
		t.Errorf("a consistent cell was refused: %v", err)
	}
	bad := good
	bad.ChannelStats = []memsys.Stats{good.ChannelStats[0], {Cycles: 100, Acts: 5, Reads: 4, VRRRestoreNs: 2}}
	busy := good
	busy.PrevRefBusyFraction = 1.5
	partial := good
	partial.PartialFraction = 0.2
	for name, raw := range map[string]json.RawMessage{
		"channel sum": enc(bad), "busy fraction": enc(busy), "partial without PaCRAM": enc(partial), "missing": nil,
	} {
		if err := checkCell(raw, false); err == nil {
			t.Errorf("%s: violation accepted", name)
		}
	}
	if err := checkCell(enc(partial), true); err != nil {
		t.Errorf("partial refreshes under PaCRAM refused: %v", err)
	}
}

func TestFigureChecks(t *testing.T) {
	fig6 := &exp.Table{Columns: []string{"mfr", "factor", "min", "q1", "median", "q3", "max", "n"}}
	fig6.AddRow("H", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10)
	fig6.AddRow("H", 0.64, 0.9, 0.9, 0.95, 1.0, 1.0, 10)
	fig6.AddRow("H", 0.36, 0.8, 0.8, 0.9, 1.0, 1.0, 10)
	if err := checkFig6(fig6); err != nil {
		t.Errorf("a falling median was refused: %v", err)
	}
	fig6.AddRow("H", 0.18, 0.8, 0.8, 0.92, 1.0, 1.0, 10)
	if err := checkFig6(fig6); err == nil {
		t.Error("a median rising as the latency falls was accepted")
	}

	table3 := &exp.Table{Columns: []string{"module", "factor", "measuredNRH", "measuredRatio", "publishedRatio", "absErr"}}
	table3.AddRow("H0", 1.0, "no bitflips", "-", "-", "-")
	table3.AddRow("H1", 1.0, 1000, 1.0, 1.0, 0.0)
	table3.AddRow("H1", 0.36, 900, 0.9, 0.91, 0.01)
	if err := checkTable3(table3); err != nil {
		t.Errorf("a close fit was refused: %v", err)
	}
	table3.AddRow("H1", 0.18, 500, 0.5, 0.8, 0.3)
	if err := checkTable3(table3); err == nil {
		t.Error("a poor fit was accepted")
	}
}
