package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"pacram/internal/runner"
	"pacram/internal/scenario"
	"pacram/internal/service"
)

// daemonRound is how many submissions one daemon-warm round makes:
// the catalog entries round-robin, each pass in a seeded order. A
// thousand leave ten beyond each round's p99.
const daemonRound = 1000

// daemon is one daemon-warm set-up: a disk store holding every catalog
// cell, the bytes a local run rendered per entry, and an in-process
// server on that store behind a loopback listener.
type daemon struct {
	dir    string
	names  []string
	want   map[string][]byte // entry → rendered table followed by CSV
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *service.Client
}

// startDaemon computes the whole catalog locally, on every CPU, into a
// fresh store directory, then starts the server on it.
func startDaemon(r *run) (*daemon, error) {
	dir, err := r.freshDir("daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, want: make(map[string][]byte)}
	specs, err := scenario.Catalog()
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		tbl, err := scenario.Run(s, scenario.RunOptions{Parallel: runtime.NumCPU(), CacheDir: dir})
		if err != nil {
			return nil, fmt.Errorf("computing %s: %w", s.Name, err)
		}
		var buf bytes.Buffer
		if err := tbl.Fprint(&buf); err != nil {
			return nil, err
		}
		if err := tbl.WriteCSV(&buf); err != nil {
			return nil, err
		}
		d.names = append(d.names, s.Name)
		d.want[s.Name] = buf.Bytes()
	}
	if d.srv, err = service.New(service.Config{Workers: workers, CacheDir: dir}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = service.NewClient("http://" + ln.Addr().String())
	if err := d.client.Health(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains and shuts the server down, waits for it to exit and
// removes the store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon-warm: %v\n", err)
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon-warm: shutdown: %v\n", err)
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: daemon-warm: serve: %v\n", err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// submission is one closed-loop submission's outcome.
type submission struct {
	name    string
	status  *service.JobStatus
	body    []byte // table followed by CSV
	err     error
	latency time.Duration
}

// submit makes one submission through the client and waits for its
// table and CSV: submit, follow the event stream to the terminal
// event, fetch both artifacts.
func (d *daemon) submit(r *run, name, traceID string, parent int64) submission {
	tr := r.tr
	if traceID == "" {
		tr = nil
	}
	sub := submission{name: name}
	start := time.Now()
	var id string
	sub.err = tr.call(parent, traceID, "service.submit", func() error {
		st, err := d.client.Submit(service.SubmitRequest{Scenario: name})
		if err == nil {
			id = st.ID
		}
		return err
	})
	if sub.err == nil {
		sub.err = tr.call(parent, traceID, "service.watch", func() (err error) {
			sub.status, err = d.client.Watch(context.Background(), id, func(ev service.CellEvent) {
				if tr != nil {
					end := time.Now()
					wait, compute := ev.WaitMicros*1e3, ev.ComputeMicros*1e3
					tr.add(tr.newID(), parent, traceID, "runner.cell", end.Add(-time.Duration(wait+compute)), end,
						map[string]int64{"wait": wait, "compute": compute,
							"cached": boolInt(ev.Cached), "coalesced": boolInt(ev.Coalesced)})
				}
			})
			return err
		})
	}
	if sub.err == nil {
		sub.err = tr.call(parent, traceID, "service.fetch", func() error {
			table, err := d.client.Table(id)
			if err != nil {
				return err
			}
			csv, err := d.client.CSV(id)
			sub.body = append(table, csv...)
			return err
		})
	}
	sub.latency = time.Since(start)
	return sub
}

func runDaemonWarm(r *run) error {
	var d *daemon
	if err := r.setups(3, 0, func() (err error) {
		d, err = startDaemon(r)
		return err
	}, func() { d.stop() }); err != nil {
		return err
	}
	defer d.stop()

	var (
		latencies                [][]float64 // per round
		rates                    []float64
		untracedWall, tracedWall []float64
		before, after            []runner.TierStats
	)
	err := r.rounds(3, func(i int) error {
		traceID := ""
		if r.traced && i%2 == 1 {
			traceID = fmt.Sprintf("round-%d", i)
		}
		root := r.tr.newID()
		if traceID != "" {
			st, err := d.client.StoreStats()
			if err != nil {
				return err
			}
			before = append(before, st[len(st)-1])
		}
		var subs []submission
		start := time.Now()
		wall, err := r.timed(func() error {
			for len(subs) < daemonRound {
				for _, k := range r.rng.Perm(len(d.names)) {
					subs = append(subs, d.submit(r, d.names[k], traceID, root))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if traceID == "" {
			untracedWall = append(untracedWall, wall.Seconds())
		} else {
			r.tr.add(root, 0, traceID, "round", start, start.Add(wall), nil)
			tracedWall = append(tracedWall, wall.Seconds())
			st, err := d.client.StoreStats()
			if err != nil {
				return err
			}
			after = append(after, st[len(st)-1])
		}
		cells := 0
		var took []float64
		for _, s := range subs {
			took = append(took, s.latency.Seconds())
			ok := s.err == nil && s.status.State == service.StateDone && s.status.Cached == s.status.Cells
			if ok {
				cells += s.status.Cells
			}
			r.check(ok && bytes.Equal(s.body, d.want[s.name]), "%s: %s", s.name, describe(s))
		}
		latencies = append(latencies, took)
		rates = append(rates, float64(cells)/wall.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		r.wallMetrics()
		r.metrics["cells_per_s"] = median(rates)
		return r.latencyMetrics(latencies, 99)
	}

	r.metrics["bench.tracing_overhead"] = median(tracedWall) / median(untracedWall)
	var computeS, waitS, cached, computed []float64
	for _, root := range r.tr.named("round", "") {
		c, w, nc, nComputed := r.tr.cellTotals(root.Trace)
		computeS, waitS = append(computeS, c), append(waitS, w)
		cached, computed = append(cached, nc), append(computed, nComputed)
	}
	m := r.metrics
	m["runner.compute_s"] = median(computeS)
	m["runner.wait_s"] = median(waitS)
	m["runner.pool_busy"] = ratio(median(computeS), median(tracedWall)*float64(workers))
	m["runner.cells_cached"] = median(cached)
	m["runner.cells_computed"] = median(computed)
	var gets, hits, puts, getUS, putUS []float64
	for i := range before {
		g := float64(after[i].Hits + after[i].Misses - before[i].Hits - before[i].Misses)
		p := float64(after[i].Puts - before[i].Puts)
		gets = append(gets, g)
		hits = append(hits, float64(after[i].Hits-before[i].Hits))
		puts = append(puts, p)
		getUS = append(getUS, ratio(float64(after[i].GetMicros-before[i].GetMicros), g))
		putUS = append(putUS, ratio(float64(after[i].PutMicros-before[i].PutMicros), p))
	}
	m["store.gets"], m["store.hits"], m["store.puts"] = median(gets), median(hits), median(puts)
	m["store.get_us"], m["store.put_us"] = median(getUS), median(putUS)
	m["service.submit_ms"] = median(r.tr.seconds("service.submit", "")) * 1e3
	m["service.watch_ms"] = median(r.tr.seconds("service.watch", "")) * 1e3
	m["service.fetch_ms"] = median(r.tr.seconds("service.fetch", "")) * 1e3
	return compileProbe(r, d.names)
}

// compileProbe times what the server does on every submission before
// any cell runs, scenario.ByName and Spec.Compile, for each catalog
// entry, and sets the scenario layer metrics.
func compileProbe(r *run, names []string) error {
	for rep := 0; rep < probeReps; rep++ {
		for _, name := range names {
			var s *scenario.Spec
			if err := r.tr.call(0, "probe", "scenario.parse", func() (err error) {
				s, err = scenario.ByName(name)
				return err
			}); err != nil {
				return err
			}
			if err := r.tr.call(0, "probe", "scenario.compile", func() error {
				_, err := s.Compile()
				return err
			}); err != nil {
				return err
			}
		}
	}
	r.metrics["scenario.parse_ms"] = median(r.tr.seconds("scenario.parse", "probe")) * 1e3
	r.metrics["scenario.compile_ms"] = median(r.tr.seconds("scenario.compile", "probe")) * 1e3
	return nil
}

// describe explains a failed submission.
func describe(s submission) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.status.State != service.StateDone:
		return fmt.Sprintf("job ended %s: %s", s.status.State, s.status.Error)
	case s.status.Cached != s.status.Cells:
		return fmt.Sprintf("%d of %d cells served from the store", s.status.Cached, s.status.Cells)
	}
	return "table or CSV differs from the local run's"
}
