package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pacram/internal/memsys"
	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/sim"
)

// attackSpecPath is the benchmark's own attack spec, relative to the
// checkout root the benchmark runs from.
const attackSpecPath = "perfbench/specs/attack-channels.json"

// simSource is one scenario a batch simulation workload runs per
// round, loaded the way `scenario run` loads it.
type simSource struct {
	name string
	load func(r *run) (*scenario.Spec, error)
}

func catalogSource(name string) simSource {
	return simSource{name, func(*run) (*scenario.Spec, error) { return scenario.ByName(name) }}
}

// simWorkload runs its sources against an empty disk store each round,
// closed loop, one source after the other.
type simWorkload struct {
	sources   []simSource
	minRounds int
	tailPct   float64 // latency_tail_ms percentile over per-cell latencies
	refCells  int     // cells re-run on the per-cycle engine each round
}

func runFig17Cold(r *run) error {
	return simWorkload{
		sources:   []simSource{catalogSource("fig17")},
		minRounds: 3, tailPct: 98, refCells: 2,
	}.run(r)
}

func runAttackChannels(r *run) error {
	specSeed := 1 + r.derive(1)%(1<<31)
	return simWorkload{
		sources: []simSource{
			catalogSource("hammer-victim"),
			catalogSource("prac-stress"),
			{"attack-channels", func(*run) (*scenario.Spec, error) {
				s, err := scenario.LoadFile(attackSpecPath)
				if err != nil {
					return nil, err
				}
				s.Sim.Seed = specSeed
				return s, nil
			}},
		},
		minRounds: 3, tailPct: 90, refCells: 1,
	}.run(r)
}

// simPlan is one compiled source plus what the checks need per cell.
type simPlan struct {
	plan   *scenario.Plan
	pacram map[string]bool // cell key → the cell runs with PaCRAM
}

// compile loads and compiles every source and assembles each distinct
// cell's simulation options: the workload's set-up.
func (w simWorkload) compile(r *run) ([]simPlan, error) {
	var plans []simPlan
	for _, src := range w.sources {
		s, err := src.load(r)
		if err != nil {
			return nil, err
		}
		p, err := s.Compile()
		if err != nil {
			return nil, err
		}
		sp := simPlan{plan: p, pacram: make(map[string]bool, p.Jobs())}
		for _, c := range p.Cells() {
			opt, err := c.Options()
			if err != nil {
				return nil, fmt.Errorf("%s: cell %s: %w", src.name, c.Key, err)
			}
			sp.pacram[c.Key] = opt.PaCRAM != nil
		}
		plans = append(plans, sp)
	}
	return plans, nil
}

// simRound is what one round's timed phase produced.
type simRound struct {
	plans  []*scenario.Plan
	tables [][]byte // per source: the rendered table, then its CSV
	errs   []error  // per source: the run's error
	events []runner.Event
}

func (w simWorkload) run(r *run) error {
	var plans []simPlan
	if err := r.setups(5, 5, func() (err error) {
		plans, err = w.compile(r)
		return err
	}, func() {}); err != nil {
		return err
	}
	var all []scenario.Cell
	for _, p := range plans {
		all = append(all, p.plan.Cells()...)
	}

	var (
		first                    [][]byte
		latencies                [][]float64 // per round
		rates                    []float64
		untracedWall, tracedWall []float64
		stored                   map[string]json.RawMessage
	)
	err := r.rounds(w.minRounds, func(i int) error {
		dir, err := r.freshDir("store-")
		if err != nil {
			return err
		}
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured against rounds run alongside.
		traceID := ""
		if r.traced && i%2 == 1 {
			traceID = fmt.Sprintf("round-%d", i)
		}
		var out simRound
		wall, err := r.timed(func() (err error) {
			out, err = w.timedRound(r, dir, traceID)
			return err
		})
		if err != nil {
			return err
		}
		if traceID == "" {
			untracedWall = append(untracedWall, wall.Seconds())
		} else {
			tracedWall = append(tracedWall, wall.Seconds())
		}
		finished := 0
		var took []float64
		for _, ev := range out.events {
			if ev.Err != nil {
				continue
			}
			finished++
			if !ev.Cached && !ev.Coalesced {
				took = append(took, float64(ev.ComputeNanos)/1e9)
			}
		}
		latencies = append(latencies, took)
		rates = append(rates, float64(finished)/wall.Seconds())

		res, err := readStore(dir)
		if err != nil {
			return err
		}
		if traceID == "" {
			stored = res
		}
		w.checkRound(r, plans, out, dir, res)
		if i == 0 {
			first = out.tables
		} else {
			for s := range first {
				if !bytes.Equal(first[s], out.tables[s]) {
					r.inconsistency("round %d rendered %s differently from round 0", i, w.sources[s].name)
				}
			}
		}
		for k := 0; k < w.refCells; k++ {
			c := all[r.rng.IntN(len(all))]
			err := referenceMatches(c, res[c.Key])
			r.check(err == nil, "cell %s: %v", c.Key, err)
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}

	if !r.traced {
		r.wallMetrics()
		r.metrics["cells_per_s"] = median(rates)
		return r.latencyMetrics(latencies, w.tailPct)
	}
	r.metrics["bench.tracing_overhead"] = median(tracedWall) / median(untracedWall)
	w.roundLayers(r)
	if err := profileCells(r, all, stored); err != nil {
		return err
	}
	if err := traceProbe(r); err != nil {
		return err
	}
	return mitigationProbe(r)
}

// timedRound is one round's timed phase: every source loaded,
// compiled, run against the store directory and rendered, as
// `scenario run -cache DIR` does. A traced round records a span per
// call, per finished cell and per store operation.
func (w simWorkload) timedRound(r *run, dir, traceID string) (simRound, error) {
	var (
		out simRound
		mu  sync.Mutex
	)
	tr := r.tr
	if traceID == "" {
		tr = nil
	}
	root := tr.newID()
	rootStart := time.Now()
	for _, src := range w.sources {
		var (
			spec *scenario.Spec
			plan *scenario.Plan
		)
		if err := tr.call(root, traceID, "scenario.parse", func() (err error) {
			spec, err = src.load(r)
			return err
		}); err != nil {
			return out, err
		}
		if err := tr.call(root, traceID, "scenario.compile", func() (err error) {
			plan, err = spec.Compile()
			return err
		}); err != nil {
			return out, err
		}
		runID := tr.newID()
		opt := scenario.RunOptions{Parallel: workers, CacheDir: dir}
		opt.OnEvent = func(ev runner.Event) {
			mu.Lock()
			out.events = append(out.events, ev)
			mu.Unlock()
			if tr != nil {
				end := time.Now()
				start := end.Add(-time.Duration(ev.WaitNanos + ev.ComputeNanos))
				tr.add(tr.newID(), runID, traceID, "runner.cell", start, end, map[string]int64{
					"wait": ev.WaitNanos, "compute": ev.ComputeNanos,
					"cached": boolInt(ev.Cached), "coalesced": boolInt(ev.Coalesced)})
			}
		}
		if tr != nil {
			disk, err := runner.NewDiskStore(dir)
			if err != nil {
				return out, err
			}
			opt.Store = &timedStore{inner: disk, tr: tr, traceID: traceID, parent: runID}
		}
		start := time.Now()
		tbl, err := plan.Run(opt)
		tr.add(runID, root, traceID, "runner.run", start, time.Now(), nil)
		out.plans = append(out.plans, plan)
		out.errs = append(out.errs, err)
		var buf bytes.Buffer
		if err == nil {
			if err := tr.call(root, traceID, "render", func() error {
				if err := tbl.Fprint(&buf); err != nil {
					return err
				}
				return tbl.WriteCSV(&buf)
			}); err != nil {
				return out, err
			}
		}
		out.tables = append(out.tables, buf.Bytes())
	}
	tr.add(root, 0, traceID, "round", rootStart, time.Now(), nil)
	return out, nil
}

// checkRound checks every cell the round stored and re-runs each
// source warm over the filled store: the table must come back byte for
// byte with no cell computed.
func (w simWorkload) checkRound(r *run, plans []simPlan, out simRound, dir string, stored map[string]json.RawMessage) {
	for s, sp := range plans {
		for _, c := range sp.plan.Cells() {
			err := checkCell(stored[c.Key], sp.pacram[c.Key])
			r.check(err == nil, "%s: cell %s: %v", w.sources[s].name, c.Key, err)
		}
		if out.errs[s] != nil {
			r.check(false, "%s: cold run: %v", w.sources[s].name, out.errs[s])
			continue
		}
		var computed int
		var mu sync.Mutex
		tbl, err := out.plans[s].Run(scenario.RunOptions{Parallel: workers, CacheDir: dir,
			OnEvent: func(ev runner.Event) {
				if !ev.Cached {
					mu.Lock()
					computed++
					mu.Unlock()
				}
			}})
		var buf bytes.Buffer
		if err == nil {
			err = tbl.Fprint(&buf)
		}
		if err == nil {
			err = tbl.WriteCSV(&buf)
		}
		switch {
		case err != nil:
			r.check(false, "%s: warm re-run: %v", w.sources[s].name, err)
		case computed != 0:
			r.check(false, "%s: warm re-run computed %d cells", w.sources[s].name, computed)
		default:
			r.check(bytes.Equal(buf.Bytes(), out.tables[s]), "%s: warm re-run rendered a different table", w.sources[s].name)
		}
	}
}

// checkCell checks one stored cell result: the preventive-refresh busy
// fraction is a fraction, there are no partial refreshes without
// PaCRAM, and per-channel statistics sum to the totals.
func checkCell(raw json.RawMessage, pacram bool) error {
	if raw == nil {
		return fmt.Errorf("not in the store")
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return err
	}
	if f := res.PrevRefBusyFraction; !(f >= 0 && f <= 1) {
		return fmt.Errorf("PrevRefBusyFraction %g outside [0, 1]", f)
	}
	if !pacram && res.PartialFraction != 0 {
		return fmt.Errorf("PartialFraction %g without PaCRAM", res.PartialFraction)
	}
	if len(res.ChannelStats) == 0 {
		return nil
	}
	var s memsys.Stats
	var vrrNs, refNs float64
	for _, c := range res.ChannelStats {
		s.Acts += c.Acts
		s.Pres += c.Pres
		s.Reads += c.Reads
		s.Writes += c.Writes
		s.Refs += c.Refs
		s.RFMs += c.RFMs
		s.VRRs += c.VRRs
		s.VRRFull += c.VRRFull
		s.VRRPartial += c.VRRPartial
		s.MetaReads += c.MetaReads
		s.MetaWrites += c.MetaWrites
		s.DemandBusy += c.DemandBusy
		s.RefBusy += c.RefBusy
		s.PrevRefBusy += c.PrevRefBusy
		s.ReadLatencySum += c.ReadLatencySum
		s.ReadCount += c.ReadCount
		vrrNs += c.VRRRestoreNs
		refNs += c.RefRestoreNs
	}
	s.Cycles, s.VRRRestoreNs, s.RefRestoreNs = res.Stats.Cycles, res.Stats.VRRRestoreNs, res.Stats.RefRestoreNs
	if s != res.Stats {
		return fmt.Errorf("channel statistics %+v do not sum to %+v", s, res.Stats)
	}
	if !near(vrrNs, res.Stats.VRRRestoreNs) || !near(refNs, res.Stats.RefRestoreNs) {
		return fmt.Errorf("channel restore times %g/%g do not sum to %g/%g",
			vrrNs, refNs, res.Stats.VRRRestoreNs, res.Stats.RefRestoreNs)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// referenceMatches re-runs a cell on the per-cycle reference engine;
// its result must encode to the stored bytes.
func referenceMatches(c scenario.Cell, raw json.RawMessage) error {
	opt, err := c.Options()
	if err != nil {
		return err
	}
	opt.Engine = sim.EnginePerCycle
	res, err := sim.Run(opt)
	if err != nil {
		return err
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, raw) {
		return fmt.Errorf("per-cycle result differs from the stored event-horizon result")
	}
	return nil
}

// readStore decodes every entry of a disk store directory into its
// cell key and raw result bytes.
func readStore(dir string) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("store entry %s: %w", path, err)
		}
		out[e.Key] = e.Result
		return nil
	})
	return out, err
}

// roundLayers sets the runner, store and scenario layer metrics from
// the traced rounds' spans: per-round totals as medians over rounds,
// per-call times as medians over calls.
func (w simWorkload) roundLayers(r *run) {
	var compute, wait, busy, computed, cached, gets, hits, puts, putMB []float64
	for _, root := range r.tr.named("round", "") {
		id := root.Trace
		c, wt, nCached, nComputed := r.tr.cellTotals(id)
		compute = append(compute, c)
		wait = append(wait, wt)
		busy = append(busy, c/(sum(r.tr.seconds("runner.run", id))*float64(workers)))
		computed = append(computed, nComputed)
		cached = append(cached, nCached)
		var h, b float64
		getSpans, putSpans := r.tr.named("store.get", id), r.tr.named("store.put", id)
		for _, s := range getSpans {
			h += float64(s.Attrs["hit"])
		}
		for _, s := range putSpans {
			b += float64(s.Attrs["bytes"])
		}
		gets = append(gets, float64(len(getSpans)))
		hits = append(hits, h)
		puts = append(puts, float64(len(putSpans)))
		putMB = append(putMB, b/(1<<20))
	}
	set := func(name string, xs []float64, scale float64) {
		if len(xs) > 0 {
			r.metrics[name] = median(xs) * scale
		}
	}
	set("runner.compute_s", compute, 1)
	set("runner.wait_s", wait, 1)
	set("runner.pool_busy", busy, 1)
	set("runner.cells_computed", computed, 1)
	set("runner.cells_cached", cached, 1)
	set("store.gets", gets, 1)
	set("store.hits", hits, 1)
	set("store.puts", puts, 1)
	set("store.put_mb", putMB, 1)
	set("store.get_us", r.tr.seconds("store.get", ""), 1e6)
	set("store.put_us", r.tr.seconds("store.put", ""), 1e6)
	set("scenario.parse_ms", r.tr.seconds("scenario.parse", ""), 1e3)
	set("scenario.compile_ms", r.tr.seconds("scenario.compile", ""), 1e3)
}

// profileCells re-runs every distinct cell once with sim.Options.Profile
// on, workers at a time, and sets the sim, cpu, memsys and mitigation
// layer metrics. Each profiled result, with its profile stripped, must
// encode to the bytes the untraced round stored, and its engine steps
// and leapt cycles must add up to its simulated cycles.
func profileCells(r *run, cells []scenario.Cell, stored map[string]json.RawMessage) error {
	seen := make(map[string]bool)
	var distinct []scenario.Cell
	for _, c := range cells {
		if !seen[c.Key] {
			seen[c.Key] = true
			distinct = append(distinct, c)
		}
	}
	results := make([]sim.Result, len(distinct))
	errs := make([]error, len(distinct))
	root := r.tr.newID()
	rootStart := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = r.tr.call(root, "profile", "sim.run", func() error {
					opt, err := distinct[i].Options()
					if err != nil {
						return err
					}
					opt.Profile = true
					results[i], err = sim.Run(opt)
					return err
				})
			}
		}()
	}
	for i := range distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	r.tr.add(root, 0, "profile", "profile", rootStart, time.Now(), nil)

	var (
		cellMS                                                     []float64
		simCycles, steps, leapCycles, ticks, skips, windows        float64
		wallNs, coreNs, ctrlNs, windowNs, mergeNs                  float64
		acts, reads, latSum, latCount, prevRefs, rfms, prevRefBusy float64
	)
	for _, s := range r.tr.named("sim.run", "profile") {
		cellMS = append(cellMS, s.seconds()*1e3)
	}
	for i, c := range distinct {
		if errs[i] != nil {
			r.check(false, "profiled cell %s: %v", c.Key, errs[i])
			continue
		}
		res := results[i]
		p := res.Profile
		r.check(p.Steps+p.LeapCycles == p.SimCycles, "profiled cell %s: steps %d + leapt %d != simulated %d cycles",
			c.Key, p.Steps, p.LeapCycles, p.SimCycles)
		res.Profile = nil
		got, err := json.Marshal(res)
		r.check(err == nil && bytes.Equal(got, stored[c.Key]), "profiled cell %s differs from the untraced result", c.Key)

		simCycles += float64(p.SimCycles)
		steps += float64(p.Steps)
		leapCycles += float64(p.LeapCycles)
		ticks += float64(p.CoreTicks)
		skips += float64(p.CoreStallSkips)
		windows += float64(p.Windows)
		wallNs += float64(p.WallNanos)
		coreNs += float64(p.CoreNanos)
		ctrlNs += float64(p.CtrlNanos)
		windowNs += float64(p.WindowNanos)
		mergeNs += float64(p.MergeNanos)
		acts += float64(res.Stats.Acts)
		reads += float64(res.Stats.Reads)
		latSum += float64(res.Stats.ReadLatencySum)
		latCount += float64(res.Stats.ReadCount)
		prevRefs += float64(p.PreventiveRefreshes)
		rfms += float64(p.RFMs)
		prevRefBusy += res.PrevRefBusyFraction
	}
	m := r.metrics
	if len(cellMS) > 0 {
		m["sim.cell_ms_p50"] = median(cellMS)
		m["sim.cell_ms_max"] = maxOf(cellMS)
	}
	m["sim.mcycles_per_s"] = ratio(simCycles, wallNs) * 1e3
	m["sim.sim_cycles"] = simCycles
	m["sim.steps"] = steps
	m["sim.leap_share"] = ratio(leapCycles, simCycles)
	m["cpu.core_share"] = ratio(coreNs, wallNs)
	m["cpu.ticks"] = ticks
	m["cpu.stall_skips"] = skips
	m["memsys.ctrl_share"] = ratio(ctrlNs, wallNs)
	m["memsys.window_share"] = ratio(windowNs, wallNs)
	m["memsys.merge_share"] = ratio(mergeNs, wallNs)
	m["memsys.windows"] = windows
	m["memsys.acts"] = acts
	m["memsys.reads"] = reads
	m["memsys.avg_read_latency_cycles"] = ratio(latSum, latCount)
	m["mitigation.preventive_refreshes"] = prevRefs
	m["mitigation.rfms"] = rfms
	m["mitigation.prevref_busy"] = ratio(prevRefBusy, float64(len(distinct)))
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
