package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"pacram/internal/bender"
	"pacram/internal/characterize"
	"pacram/internal/chips"
	"pacram/internal/exp"
)

// charRows is the rows sampled per module, above exp's default of 24
// so one round of every figure lasts seconds.
const charRows = 48

// table3MaxErr bounds Table 3's mean |measured - published| NRH ratio
// over the modules' data points.
const table3MaxErr = 0.03

// experiments are the exp experiment functions, keyed like expFigures.
var experiments = map[string]func(exp.CharOptions) (*exp.Table, error){
	"table1": exp.Table1, "fig4": exp.Fig4, "fig6": exp.Fig6, "fig7": exp.Fig7,
	"fig8": exp.Fig8, "fig9": exp.Fig9, "fig10": exp.Fig10, "fig11": exp.Fig11,
	"fig12": exp.Fig12, "fig13": exp.Fig13, "fig14": exp.Fig14, "table3": exp.Table3,
	"profiling": func(exp.CharOptions) (*exp.Table, error) { return exp.Profiling(), nil },
}

// jobCounter counts the characterization cells (runner jobs) the exp
// experiments finish, from the "N jobs done" line each sweep ends with
// on its progress stream.
type jobCounter struct {
	mu   sync.Mutex
	jobs int
}

var jobsDone = regexp.MustCompile(`(\d+) jobs done`)

func (c *jobCounter) Write(p []byte) (int, error) {
	for _, m := range jobsDone.FindAllSubmatch(p, -1) {
		n, _ := strconv.Atoi(string(m[1])) // the pattern admits digits only
		c.mu.Lock()
		c.jobs += n
		c.mu.Unlock()
	}
	return len(p), nil
}

func runCharacterize(r *run) error {
	opt := exp.DefaultCharOptions()
	opt.Rows = charRows
	opt.Seed = r.derive(5)
	opt.Parallel = workers
	dev := chips.DefaultDeviceOptions()
	dev.Rows, dev.Seed = opt.BankRows, opt.Seed

	// Set-up validates the test infrastructure as the chip study does
	// before testing: every module's platform runs the temperature
	// stability check at 80C (24 hours of round-robin hammering sampled
	// every 5 seconds) and must have testable rows.
	worst := 0.0
	if err := r.setups(5, 5, func() error {
		for _, m := range chips.Registry() {
			pl, err := bender.New(m.NewChip(dev), dev.Seed)
			if err != nil {
				return err
			}
			pl.SetTemperature(80)
			worst = math.Max(worst, pl.TemperatureStabilityCheck(24, 5))
			if len(characterize.SelectRows(pl, charRows)) == 0 {
				return fmt.Errorf("module %s: no testable rows", m.Info.ID)
			}
		}
		return nil
	}, func() {}); err != nil {
		return err
	}
	// The deviation is reported, not checked: on some seeds the modeled
	// rig exceeds the paper's 0.5C over 24 hours.
	fmt.Fprintf(os.Stderr, "perfbench: characterize: worst temperature deviation over 24 h: %.3fC\n", worst)

	var (
		first                    map[string][]byte
		latencies                [][]float64 // per round
		rates                    []float64
		untracedWall, tracedWall []float64
	)
	err := r.rounds(4, func(i int) error {
		traceID := ""
		if r.traced && i%2 == 1 {
			traceID = fmt.Sprintf("round-%d", i)
		}
		tr := r.tr
		if traceID == "" {
			tr = nil
		}
		var counter jobCounter
		o := opt
		o.Progress = &counter
		tables := make(map[string]*exp.Table)
		rendered := make(map[string][]byte)
		errs := make(map[string]error)
		var took []float64
		root := tr.newID()
		start := time.Now()
		wall, err := r.timed(func() error {
			for _, f := range expFigures {
				t0 := time.Now()
				errs[f] = tr.call(root, traceID, "exp."+f, func() error {
					t, err := experiments[f](o)
					if err != nil {
						return err
					}
					var buf bytes.Buffer
					if err := t.Fprint(&buf); err != nil {
						return err
					}
					tables[f], rendered[f] = t, buf.Bytes()
					return nil
				})
				took = append(took, time.Since(t0).Seconds())
			}
			return nil
		})
		if err != nil {
			return err
		}
		tr.add(root, 0, traceID, "round", start, start.Add(wall), nil)
		if traceID == "" {
			untracedWall = append(untracedWall, wall.Seconds())
		} else {
			tracedWall = append(tracedWall, wall.Seconds())
		}
		latencies = append(latencies, took)
		rates = append(rates, float64(counter.jobs)/wall.Seconds())
		for _, f := range expFigures {
			err := errs[f]
			if err == nil {
				err = checkFigure(f, tables[f])
			}
			r.check(err == nil, "%s: %v", f, err)
		}
		if i == 0 {
			first = rendered
			if t := tables["table3"]; t != nil {
				e, n := table3Error(t)
				fmt.Fprintf(os.Stderr, "perfbench: characterize: table3 mean |measured - published| ratio %.4f over %d points\n", e, n)
			}
		}
		for _, f := range expFigures {
			if !bytes.Equal(first[f], rendered[f]) {
				r.inconsistency("round %d rendered %s differently from round 0", i, f)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		r.wallMetrics()
		r.metrics["cells_per_s"] = median(rates)
		return r.latencyMetrics(latencies, 75)
	}
	r.metrics["bench.tracing_overhead"] = median(tracedWall) / median(untracedWall)
	for _, f := range expFigures {
		r.metrics["exp."+f+"_s"] = median(r.tr.seconds("exp."+f, ""))
	}
	return measureRowProbe(r, dev)
}

// checkFigure checks the paper claims the benchmark holds the
// characterization to: Fig. 6's per-manufacturer median NRH ratio
// never rises as the restoration latency falls (claim C1.1), and Table
// 3's measured ratios stay close to the published ones.
func checkFigure(id string, t *exp.Table) error {
	switch id {
	case "fig6":
		return checkFig6(t)
	case "table3":
		return checkTable3(t)
	}
	return nil
}

func checkFig6(t *exp.Table) error {
	col := columns(t)
	type point struct{ factor, median float64 }
	byMfr := make(map[string][]point)
	for _, row := range t.Rows {
		f, err1 := strconv.ParseFloat(row[col["factor"]], 64)
		m, err2 := strconv.ParseFloat(row[col["median"]], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("fig6: unreadable row %v", row)
		}
		byMfr[row[col["mfr"]]] = append(byMfr[row[col["mfr"]]], point{f, m})
	}
	if len(byMfr) == 0 {
		return fmt.Errorf("fig6: no rows")
	}
	for mfr, pts := range byMfr {
		sort.Slice(pts, func(i, j int) bool { return pts[i].factor > pts[j].factor })
		for i := 1; i < len(pts); i++ {
			if pts[i].median > pts[i-1].median {
				return fmt.Errorf("fig6: %s median NRH ratio rises from %g at factor %g to %g at factor %g",
					mfr, pts[i-1].median, pts[i-1].factor, pts[i].median, pts[i].factor)
			}
		}
	}
	return nil
}

// table3Error returns Table 3's mean |measured - published| ratio and
// the number of points it averages.
func table3Error(t *exp.Table) (float64, int) {
	col := columns(t)
	total, n := 0.0, 0
	for _, row := range t.Rows {
		e, err := strconv.ParseFloat(row[col["absErr"]], 64)
		if err != nil {
			continue // a module without bitflips has no ratio
		}
		total += e
		n++
	}
	if n == 0 {
		return math.Inf(1), 0
	}
	return total / float64(n), n
}

func checkTable3(t *exp.Table) error {
	e, n := table3Error(t)
	if !(e < table3MaxErr) {
		return fmt.Errorf("table3: mean |measured - published| ratio %.4f over %d points, bound %g", e, n, table3MaxErr)
	}
	return nil
}

// columns maps a table's column names to their indices.
func columns(t *exp.Table) map[string]int {
	m := make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		m[c] = i
	}
	return m
}
