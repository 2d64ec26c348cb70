package main

import (
	"fmt"
	"time"

	"pacram/internal/bender"
	"pacram/internal/characterize"
	"pacram/internal/chips"
	"pacram/internal/memsys"
	"pacram/internal/mitigation"
	"pacram/internal/sim"
	"pacram/internal/trace"
)

// probeReps is how many times each probe repeats its fixed input; the
// probe reports the median repetition.
const probeReps = 5

// timeReps returns the median over probeReps of f's duration divided
// by n; prepare runs untimed before each repetition.
func timeReps[T any](n int, prepare func() (T, error), f func(T)) (float64, error) {
	var per []float64
	for i := 0; i < probeReps; i++ {
		x, err := prepare()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		f(x)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// traceProbe times Next on one generator of each family, through
// trace.Capture, and sets trace.next_ns.<family>.
func traceProbe(r *run) error {
	const n = 1 << 17
	seed := r.derive(2)
	zipf := trace.Spec{Name: "probe-zipf", Pattern: trace.PatternZipf, BubbleMean: 20,
		FootprintMB: 256, WriteFrac: 0.25, ZipfTheta: 0.9}
	mixed := trace.Spec{Name: "probe-mixed", Pattern: trace.PatternMixed, BubbleMean: 30,
		FootprintMB: 128, BurstLen: 16, WriteFrac: 0.3}
	mcf, err := trace.SpecByName("429.mcf")
	if err != nil {
		return err
	}
	src, err := trace.New(mixed, seed)
	if err != nil {
		return err
	}
	recs := trace.Capture(src, 1<<14)
	build := map[string]func() (trace.Generator, error){
		"spec":      func() (trace.Generator, error) { return trace.New(mcf, seed) },
		"synthetic": func() (trace.Generator, error) { return trace.New(zipf, seed) },
		"attacker": func() (trace.Generator, error) {
			return trace.NewAttacker(trace.AttackSpec{Sides: 16, FootprintMB: 256, VictimEvery: 64}, seed)
		},
		"replay": func() (trace.Generator, error) { return trace.NewReplay("probe-replay", recs) },
	}
	for _, kind := range generatorKinds {
		ns, err := timeReps(n, build[kind], func(g trace.Generator) {
			r.tr.call(0, "probe", "trace.capture."+kind, func() error {
				trace.Capture(g, n)
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("trace probe %s: %w", kind, err)
		}
		r.metrics["trace.next_ns."+kind] = ns
	}
	return nil
}

// act is one activation of the mitigation probe's stream.
type act struct{ bank, row int }

// mitigationProbe feeds a fixed, seeded activation stream to a fresh
// instance of each mechanism and sets mitigation.activate_ns.<name>:
// the stream is mostly a 16-row hammer over four banks, with a quarter
// of activations spread uniformly over the memory system.
func mitigationProbe(r *run) error {
	const n = 1 << 17
	mem := sim.SmallMemConfig()
	geo := mem.Geometry
	cfg := mitigation.Config{
		NRH:         32,
		Rows:        geo.Rows,
		Banks:       geo.Ranks * geo.Banks(),
		BlastRadius: mem.BlastRadius,
		WindowActs:  int(mem.Timing.TREFW / mem.Timing.TRC()),
		Seed:        r.derive(3),
	}
	rng := randFrom(r.derive(4))
	var hot []act
	base := rng.IntN(cfg.Rows - 32)
	for i := 0; i < 16; i++ {
		hot = append(hot, act{i % 4, base + 2*i})
	}
	stream := make([]act, n)
	for i := range stream {
		if rng.IntN(4) == 0 {
			stream[i] = act{rng.IntN(cfg.Banks), rng.IntN(cfg.Rows)}
		} else {
			stream[i] = hot[i%len(hot)]
		}
	}
	for _, name := range mechanisms {
		ns, err := timeReps(n, func() (memsys.Mitigation, error) { return mitigation.New(name, cfg) },
			func(m memsys.Mitigation) {
				r.tr.call(0, "probe", "mitigation.activate."+name, func() error {
					for _, a := range stream {
						m.OnActivate(a.bank, a.row)
					}
					return nil
				})
			})
		if err != nil {
			return fmt.Errorf("mitigation probe %s: %w", name, err)
		}
		r.metrics["mitigation.activate_ns."+name] = ns
	}
	return nil
}

// measureRowProbe times Algorithm 1 (characterize.MeasureRow) on
// sampled rows of one module's test platform, at the PaCRAM-S
// restoration latency, and sets characterize.measure_row_us.
func measureRowProbe(r *run, opt chips.DeviceOptions) error {
	mod, err := chips.ByID("H5")
	if err != nil {
		return err
	}
	pl, err := bender.New(mod.NewChip(opt), opt.Seed)
	if err != nil {
		return err
	}
	pl.SetTemperature(80)
	tras := chips.Factors[3] * pl.Timing().TRAS
	cfg := characterize.DefaultConfig()
	var per []float64
	for _, row := range characterize.SelectRows(pl, 24) {
		start := time.Now()
		err := r.tr.call(0, "probe", "characterize.measure_row", func() error {
			_, err := characterize.MeasureRow(pl, row, tras, 1, cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("measure-row probe: %w", err)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.metrics["characterize.measure_row_us"] = median(per)
	return nil
}
