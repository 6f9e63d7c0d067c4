// Command perfbench is the repository's real-stack benchmark. It starts an
// in-process cluster over loopback TCP (2 manager shards, 4 benefactors on
// calibrated emulated SSDs), drives it from closed-loop ranks through the
// public client stack, verifies every output, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
//	go run . --workload stream-triad --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nvmalloc"
	"nvmalloc/internal/core"
)

// Service-ratio bound: a run whose devices delivered more than this far
// from their configured service time measured a different device, and
// fails.
const (
	minServiceRatio = 0.90
	maxServiceRatio = 1.10
)

// maxSetups caps the set-ups of one run.
const maxSetups = 25

// benchConfig is one benchmark invocation.
type benchConfig struct {
	cluster clusterConfig
	ranks   int
	// A run sets up at least setups times and until minSetup has gone
	// into set-ups (at most maxSetups); setup_s is their median.
	setups   int
	minSetup time.Duration
	seconds  time.Duration // measured loop length
	maxOps   int           // per-rank op limit instead of a time limit (tests)
}

func main() {
	wl := flag.String("workload", "", "workload: cache-hot, stream-triad, rand-write or ckpt-cycle")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this JSON-lines file")
	flag.Parse()

	w, err := newWorkload(*wl, *seed)
	if err != nil {
		fail(err)
	}
	cfg := benchConfig{
		cluster: defaultCluster, ranks: 2, setups: 5, minSetup: 2 * time.Second,
		seconds: time.Duration(*seconds) * time.Second,
	}
	var res result
	switch *trace {
	case 0:
		res, err = endToEnd(cfg, w, *seed)
	case 1:
		res, err = perLayer(cfg, w, *seed, *traceOut)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// newWorkload returns a named workload at the benchmark's sizes.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "cache-hot":
		return cacheHot{seed: seed, regionBytes: 32 << 20}, nil
	case "stream-triad":
		return streamTriad{seed: seed, arrayBytes: 48 << 20, vecBytes: 1 << 20}, nil
	case "rand-write":
		return randWrite{seed: seed, regionBytes: 160 << 20}, nil
	case "ckpt-cycle":
		return ckptCycle{seed: seed, regionBytes: 4 << 20, dirtyPages: 16, dramBytes: 64 << 10}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// connect opens an untraced client exactly as a user does.
func connect(addr string) (*core.Client, error) {
	return nvmalloc.Connect(addr, nvmalloc.ConnectConfig{})
}

// deployment is a cluster with its ranks set up and ready.
type deployment struct {
	cl    *cluster
	ranks []*rank
	tr    *tracer
	ts    []*tracedStore // per rank, traced runs only
}

// deploy starts a cluster, connects the ranks (traced when tr is non-nil)
// and runs the workload's set-up on every rank in parallel.
func deploy(cfg benchConfig, w workload, seed int64, tr *tracer) (*deployment, error) {
	cl, err := startCluster(cfg.cluster)
	if err != nil {
		return nil, err
	}
	d := &deployment{cl: cl, tr: tr}
	for i := 0; i < cfg.ranks; i++ {
		r := &rank{id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
		r.pool = make([]byte, 1<<20)
		r.rng.Read(r.pool)
		if tr != nil {
			var ts *tracedStore
			r.c, ts, err = connectTraced(cl.addr, tr)
			d.ts = append(d.ts, ts)
		} else {
			r.c, err = connect(cl.addr)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("connect rank %d: %w", i, err)
		}
		d.ranks = append(d.ranks, r)
	}
	if err := d.each(w.setup); err != nil {
		d.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	return d, nil
}

// each runs fn on every rank concurrently and returns the first error.
func (d *deployment) each(fn func(r *rank) error) error {
	errs := make([]error, len(d.ranks))
	var wg sync.WaitGroup
	for i, r := range d.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(r)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close closes every rank's client and stops the cluster. Close errors
// after a finished run are not results; they are dropped.
func (d *deployment) close() {
	for _, r := range d.ranks {
		if r.c != nil {
			_ = r.c.Close()
		}
	}
	d.cl.close()
}

// rankRun is one rank's measured loop.
type rankRun struct {
	ops, failed                     int64
	appBytes, readBytes, writeBytes int64
	lat                             latHist
}

// loopOutcome is the measured loop of every rank.
type loopOutcome struct {
	runs    []rankRun
	elapsed time.Duration
}

// rates returns ops and app bytes per second over the loop.
func (o loopOutcome) rates() (opsPerSec, bytesPerSec float64) {
	t := o.total()
	return float64(t.ops) / o.elapsed.Seconds(), float64(t.appBytes) / o.elapsed.Seconds()
}

func (o loopOutcome) total() (t rankRun) {
	for _, r := range o.runs {
		t.ops += r.ops
		t.failed += r.failed
		t.appBytes += r.appBytes
		t.readBytes += r.readBytes
		t.writeBytes += r.writeBytes
		t.lat.merge(r.lat)
	}
	return t
}

// warm runs the workload's warm-up ops on every rank, untimed.
func (d *deployment) warm(w workload) error {
	return d.each(func(r *rank) error {
		for i := 0; i < w.warmupOps(r); i++ {
			res, err := w.op(r)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if res.bad != 0 {
				return fmt.Errorf("warm-up: rank %d read back wrong data", r.id)
			}
		}
		return nil
	})
}

// loop runs every rank's closed loop until the deadline (or maxOps).
func (d *deployment) loop(cfg benchConfig, w workload) loopOutcome {
	out := loopOutcome{runs: make([]rankRun, len(d.ranks))}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for i, r := range d.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := &out.runs[i]
			for n := 0; ; n++ {
				if cfg.maxOps > 0 {
					if n >= cfg.maxOps {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				if d.tr != nil {
					r.cur = d.tr.root(w.name()+".op", layerClient)
				}
				t0 := time.Now()
				res, err := w.op(r)
				lat := time.Since(t0)
				if r.cur != nil {
					r.cur.end()
					r.cur = nil
				}
				if res.lat > 0 {
					lat = res.lat
				}
				run.ops++
				run.appBytes += res.appBytes
				run.readBytes += res.readBytes
				run.writeBytes += res.writeBytes
				if err != nil || res.bad != 0 {
					run.failed++
					if err != nil {
						fmt.Fprintf(os.Stderr, "perfbench: rank %d op %d: %v\n", r.id, n, err)
					}
				}
				run.lat.add(lat)
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// settle runs the workload's finish on every rank and then its verify,
// and returns the verification mismatches.
func (d *deployment) settle(w workload) (int64, error) {
	if err := d.each(w.finish); err != nil {
		return 0, fmt.Errorf("final sync: %w", err)
	}
	bad := make([]int64, len(d.ranks))
	err := d.each(func(r *rank) error {
		var err error
		bad[r.id], err = w.verify(r, d.cl.addr)
		return err
	})
	var total int64
	for _, b := range bad {
		total += b
	}
	if err != nil {
		return total, fmt.Errorf("verify: %w", err)
	}
	return total, nil
}

// endToEnd sets up repeatedly (keeping the last deployment), runs the
// measured loop untraced, verifies, and reports the end-to-end metrics.
func endToEnd(cfg benchConfig, w workload, seed int64) (result, error) {
	var (
		d      *deployment
		setups []float64
		spent  float64
		err    error
	)
	for i := 0; i < maxSetups && (i < cfg.setups || spent < cfg.minSetup.Seconds()); i++ {
		if d != nil {
			d.close()
			// The torn-down deployment is the harness's garbage, not the
			// program's: collect it so it does not inflate the next
			// deployment's heap and the peak RSS.
			runtime.GC()
		}
		t0 := time.Now()
		if d, err = deploy(cfg, w, seed, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer d.close()
	if err := d.warm(w); err != nil {
		return result{}, err
	}
	devBefore := d.cl.devices()
	out := d.loop(cfg, w)
	bad, err := d.settle(w)
	if err != nil {
		return result{}, err
	}
	dev := d.cl.devices()
	t := out.total()
	failed := t.failed + bad
	ratio := dev.serviceRatio()
	opsPerSec, bytesPerSec := out.rates()
	ms := map[string]metric{
		"ops_per_s":        {opsPerSec, "1/s"},
		"app_MBps":         {bytesPerSec / 1e6, "MB/s"},
		"op_p50_us":        {t.lat.quantile(0.50) / 1e3, "us"},
		"op_p99_us":        {t.lat.quantile(0.99) / 1e3, "us"},
		"device_write_amp": {ratioOf(dev.WriteBytes-devBefore.WriteBytes, t.writeBytes), "ratio"},
		"ok_ratio":         {1 - ratioOf(failed, t.ops), "ratio"},
		"rss_peak_MiB":     {peakRSSMiB(), "MiB"},
		"setup_s":          {median(setups), "s"},
	}
	fmt.Printf("%s: %d ops in %.2fs by %d ranks, %d failed, device service ratio %.3f\n",
		w.name(), t.ops, out.elapsed.Seconds(), cfg.ranks, failed, ratio)
	return result{
		Correct:   failed == 0 && serviceOK(ratio),
		Attempted: t.ops,
		Failed:    failed,
		Metrics:   ms,
	}, nil
}

func serviceOK(r float64) bool { return r >= minServiceRatio && r <= maxServiceRatio }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratioOf is a/b, or 0 when b is 0.
func ratioOf(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
