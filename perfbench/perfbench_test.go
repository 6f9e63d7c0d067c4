package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/store"
	"nvmalloc/internal/sysprof"
)

// tinyCluster keeps the tests fast: small chunks, two of each server.
var tinyCluster = clusterConfig{managers: 2, benefactors: 2, chunkSize: 64 << 10, lanes: 4}

func tinyWorkloads(seed int64) []workload {
	return []workload{
		cacheHot{seed: seed, regionBytes: 1 << 20},
		streamTriad{seed: seed, arrayBytes: 512 << 10, vecBytes: 64 << 10},
		randWrite{seed: seed, regionBytes: 2 << 20},
		ckptCycle{seed: seed, regionBytes: 512 << 10, dirtyPages: 4, dramBytes: 16 << 10},
	}
}

func tinyConfig(ranks, ops int) benchConfig {
	return benchConfig{cluster: tinyCluster, ranks: ranks, setups: 2, maxOps: ops}
}

// The workload tests check outputs, not res.Correct: Correct also holds
// the devices to their calibration bound, which sub-millisecond service
// times on a race-instrumented, fully loaded host need not meet.
// TestDeviceCalibrated covers calibration.

func TestWorkloadsComplete(t *testing.T) {
	for _, w := range tinyWorkloads(7) {
		t.Run(w.name(), func(t *testing.T) {
			res, err := endToEnd(tinyConfig(2, 20), w, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted != 40 {
				t.Fatalf("attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			if v := res.Metrics["ok_ratio"].Value; v != 1 {
				t.Fatalf("ok_ratio %v, want 1", v)
			}
			for _, name := range []string{"ops_per_s", "app_MBps", "op_p50_us", "op_p99_us", "rss_peak_MiB", "setup_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

func TestTracedRunReportsLayers(t *testing.T) {
	w := tinyWorkloads(3)[3]
	res, err := perLayer(tinyConfig(2, 6), w, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed=%d", res.Failed)
	}
	for _, name := range []string{"client.self_us_per_op", "rpc.self_us_per_op", "device.self_us_per_op", "manager.create.count", "trace.overhead_ratio"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestPlantedCorruptionCaught flips a byte of a stored chunk behind the
// client's back; the fresh-client re-read must report it.
func TestPlantedCorruptionCaught(t *testing.T) {
	w := tinyWorkloads(5)[2]
	cfg := tinyConfig(1, 10)
	d, err := deploy(cfg, w, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if out := d.loop(cfg, w); out.total().failed != 0 {
		t.Fatal("clean loop reported failures")
	}
	if err := d.each(w.finish); err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, dev := range d.cl.devs {
		mem := dev.inner.(*benefactor.Mem)
		for id := proto.ChunkID(0); id < 1000 && !corrupted; id++ {
			if data, err := mem.Get(id); err == nil {
				data[len(data)/2] ^= 0xff // Mem hands out the stored slice
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Fatal("found no stored chunk to corrupt")
	}
	bad, err := d.settle(w)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("planted corruption went unnoticed")
	}
}

// TestTracedStackMatchesConnect runs one rank on a fixed seed through the
// untimed (nvmalloc.Connect) and traced stacks and compares the cache and
// device counters: the wrappers must not change what the program does.
// ckpt-cycle's restore reads trigger read-ahead, whose timing decides
// whether a later access hits, waits or misses, so for it only the
// traffic counters are compared.
func TestTracedStackMatchesConnect(t *testing.T) {
	for _, w := range []workload{tinyWorkloads(11)[0], tinyWorkloads(11)[3]} {
		t.Run(w.name(), func(t *testing.T) {
			cfg := tinyConfig(1, 30)
			run := func(tr *tracer) (fusecache.Stats, fusecache.PageStats, devCounters) {
				d, err := deploy(cfg, w, 11, tr)
				if err != nil {
					t.Fatal(err)
				}
				defer d.close()
				if out := d.loop(cfg, w); out.total().failed != 0 {
					t.Fatal("loop reported failures")
				}
				if err := d.each(w.finish); err != nil {
					t.Fatal(err)
				}
				r := d.ranks[0]
				return r.c.ChunkCache().Stats(), r.c.PageCache().Stats(), d.cl.devices()
			}
			cs0, ps0, dv0 := run(nil)
			cs1, ps1, dv1 := run(newTracer())
			if w.name() == "ckpt-cycle" {
				cs0.Hits, cs0.Misses, cs0.Waits, cs0.PrefetchBytes = 0, 0, 0, 0
				cs1.Hits, cs1.Misses, cs1.Waits, cs1.PrefetchBytes = 0, 0, 0, 0
				ps0, ps1 = fusecache.PageStats{}, fusecache.PageStats{}
			}
			if cs0 != cs1 {
				t.Errorf("chunk cache counters differ:\nconnect %+v\ntraced  %+v", cs0, cs1)
			}
			if ps0 != ps1 {
				t.Errorf("page cache counters differ:\nconnect %+v\ntraced  %+v", ps0, ps1)
			}
			if dv0.Reads != dv1.Reads || dv0.Writes != dv1.Writes || dv0.ReadBytes != dv1.ReadBytes || dv0.WriteBytes != dv1.WriteBytes {
				t.Errorf("device counters differ:\nconnect %+v\ntraced  %+v", dv0, dv1)
			}
		})
	}
}

// Fakes with each combination of the store.Client extensions.
type (
	plainClient struct{ store.Client }
	lendClient  struct{ store.Client }
	spillClient struct{ store.Client }
	bothClient  struct{ store.Client }
)

func (lendClient) PrivateChunks() bool                             { return true }
func (lendClient) ReleaseChunk([]byte)                             {}
func (spillClient) SpillChunk(store.Ctx, []proto.ChunkRef, []byte) {}
func (bothClient) PrivateChunks() bool                             { return true }
func (bothClient) ReleaseChunk([]byte)                             {}
func (bothClient) SpillChunk(store.Ctx, []proto.ChunkRef, []byte)  {}

// TestWrapperKeepsInterfaces checks the traced wrapper implements
// store.BufferLender and store.ChunkSpiller exactly when the inner client
// does, so the chunk cache takes the same paths through it.
func TestWrapperKeepsInterfaces(t *testing.T) {
	for _, in := range []store.Client{plainClient{}, lendClient{}, spillClient{}, bothClient{}} {
		w, _ := wrapStore(in, newTracer())
		_, innerLends := in.(store.BufferLender)
		_, innerSpills := in.(store.ChunkSpiller)
		_, lends := w.(store.BufferLender)
		_, spills := w.(store.ChunkSpiller)
		if lends != innerLends || spills != innerSpills {
			t.Errorf("%T: wrapper lends=%v spills=%v, inner lends=%v spills=%v", in, lends, spills, innerLends, innerSpills)
		}
	}
}

// TestDeviceCalibrated checks achieved against configured service time
// for an idle-serial caller and for a saturated queue.
func TestDeviceCalibrated(t *testing.T) {
	chunk := make([]byte, 256<<10)
	t.Run("idle-serial", func(t *testing.T) {
		d := newSSD(benefactor.NewMem(), sysprof.IntelX25E, 4)
		for i := 0; i < 40; i++ {
			if err := d.Put(proto.ChunkID(i), chunk); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Get(proto.ChunkID(i)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(300 * time.Microsecond)
		}
		checkRatio(t, d.counters())
	})
	t.Run("saturated", func(t *testing.T) {
		const lanes, workers, each = 4, 8, 30
		d := newSSD(benefactor.NewMem(), sysprof.IntelX25E, lanes)
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					_ = d.Put(proto.ChunkID(g*each+i), chunk)
				}
			}()
		}
		wg.Wait()
		c := d.counters()
		checkRatio(t, c)
		// A saturated queue serves lanes ops at a time.
		want := time.Duration(c.ConfiguredNanos / lanes)
		if got := time.Since(start); got < want*9/10 || got > want*12/10 {
			t.Errorf("saturated device took %v, want about %v", got, want)
		}
		if c.QueueNanos == 0 || c.MaxInService != lanes {
			t.Errorf("queue wait %dns, max in service %d: want waiting and %d lanes busy", c.QueueNanos, c.MaxInService, lanes)
		}
	})
}

// slowMem is a backend slower than the device it sits under.
type slowMem struct{ *benefactor.Mem }

func (m slowMem) Put(id proto.ChunkID, data []byte) error {
	time.Sleep(5 * time.Millisecond)
	return m.Mem.Put(id, data)
}

// TestDeviceFallingBehindFails checks the service ratio is not 1 by
// construction: a device whose ops cannot finish by their deadlines
// reports a ratio outside the bound.
func TestDeviceFallingBehindFails(t *testing.T) {
	d := newSSD(slowMem{benefactor.NewMem()}, sysprof.IntelX25E, 1)
	chunk := make([]byte, 256<<10)
	// Each put runs about 3.4 ms late; 60 of them fall behind by far more
	// than the lane may carry forward (maxCarry).
	for i := 0; i < 60; i++ {
		if err := d.Put(proto.ChunkID(i), chunk); err != nil {
			t.Fatal(err)
		}
	}
	if r := d.counters().serviceRatio(); serviceOK(r) {
		t.Fatalf("service ratio %.3f within bound for a device 3x slower than its profile", r)
	}
}

func checkRatio(t *testing.T, c devCounters) {
	t.Helper()
	if r := c.serviceRatio(); !serviceOK(r) {
		t.Errorf("service ratio %.3f outside [%.2f, %.2f] (%d reads, %d writes)", r, minServiceRatio, maxServiceRatio, c.Reads, c.Writes)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var a, b latHist
	for i := 1; i <= 1000; i++ {
		h := &a
		if i%2 == 0 {
			h = &b
		}
		h.add(time.Duration(i) * time.Microsecond)
	}
	a.merge(b)
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := a.quantile(c.q); math.Abs(got-c.want)/c.want > 0.005 {
			t.Errorf("q%.2f = %.0fns, want %.0fns within 0.5%%", c.q, got, c.want)
		}
	}
}
