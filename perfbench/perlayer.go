package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// cut is the state of every layer's counters at one instant, taken while
// the ranks are idle (PageCache.Stats is not safe for concurrent use).
type cut struct {
	srv    serverState
	client []obs.Snapshot // each rank's rpc.Store registry
	cache  []fusecache.Stats
	pages  []fusecache.PageStats
	meta   int64 // client-side nanos in metadata calls
	alloc  uint64
	gcCPU  float64
	totCPU float64
}

func (d *deployment) cut() cut {
	c := cut{srv: d.cl.snapshot()}
	for i, r := range d.ranks {
		c.client = append(c.client, storeOf(r.c).Obs().Reg.Snapshot())
		c.cache = append(c.cache, r.c.ChunkCache().Stats())
		c.pages = append(c.pages, r.c.PageCache().Stats())
		if i < len(d.ts) {
			c.meta += d.ts[i].metaNanos.Load()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.totCPU = s[1].Value.Float64()
	}
	return c
}

// perLayer runs the workload twice on fresh deployments, each for half
// the measured time: untraced (for trace.overhead_ratio) and traced. It
// reports the per-layer metrics of the traced loop and prints the self
// time per layer.
func perLayer(cfg benchConfig, w workload, seed int64, traceOut string) (result, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := deploy(half, w, seed, nil)
	if err != nil {
		return result{}, err
	}
	if err := plain.warm(w); err != nil {
		plain.close()
		return result{}, err
	}
	base := plain.loop(half, w)
	bad, err := plain.settle(w)
	plain.close()
	runtime.GC()
	if err != nil {
		return result{}, err
	}
	baseT := base.total()
	failed := baseT.failed + bad

	tr := newTracer()
	d, err := deploy(half, w, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	if err := d.warm(w); err != nil {
		return result{}, err
	}
	before := d.cut()
	tr.reset()
	for _, dev := range d.cl.devs {
		dev.tr.Store(tr)
	}
	out := d.loop(half, w)
	for _, dev := range d.cl.devs {
		dev.tr.Store(nil)
	}
	after := d.cut()
	spans := tr.snapshot()
	bad, err = d.settle(w)
	if err != nil {
		return result{}, err
	}
	t := out.total()
	failed += t.failed + bad

	ms := layerMetrics(before, after, out, spans.layers)
	tracedRate, _ := out.rates()
	plainRate, _ := base.rates()
	ms["trace.overhead_ratio"] = metric{0, "ratio"}
	if plainRate > 0 {
		ms["trace.overhead_ratio"] = metric{tracedRate / plainRate, "ratio"}
	}
	ratio := d.cl.devices().serviceRatio()
	ms["device.service_ratio"] = metric{ratio, "ratio"}

	printLayers(w.name(), t.ops, out.elapsed, spans.layers, spans.names, ms)
	if traceOut != "" {
		if err := writeSpans(traceOut, spans.kept); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("spans written to %s (%d kept, %d beyond the cap)\n", traceOut, len(spans.kept), spans.dropped)
	}
	return result{
		Correct:   failed == 0 && serviceOK(ratio),
		Attempted: baseT.ops + t.ops,
		Failed:    failed,
		Metrics:   ms,
	}, nil
}

// reset drops the spans and aggregates recorded so far (set-up and
// warm-up), so the trace covers the measured loop.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.kept = t.kept[:0]
	t.dropped = 0
	t.layers = map[string]*layerAgg{}
	t.names = map[string]*layerAgg{}
}

// layerMetrics derives the per-layer metrics of the loop between two cuts.
func layerMetrics(b, a cut, out loopOutcome, layers map[string]layerAgg) map[string]metric {
	t := out.total()
	ops := t.ops
	win := out.elapsed
	ms := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[name] = metric{v, unit}
	}
	perOp := func(nanos int64) float64 { return ratioOf(nanos, ops) / 1e3 }

	// core + fusecache
	put("client.self_us_per_op", perOp(layers[layerClient].selfNanos), "us")
	put("rpc.self_us_per_op", perOp(layers[layerRPC].selfNanos), "us")
	put("rpc.async_us_per_op", perOp(layers[layerAsync].selfNanos), "us")
	put("device.self_us_per_op", perOp(layers[layerDevice].selfNanos), "us")

	var pg fusecache.PageStats
	var cc fusecache.Stats
	for i := range a.pages {
		pa, pb := a.pages[i], b.pages[i]
		pg.Hits += pa.Hits - pb.Hits
		pg.Faults += pa.Faults - pb.Faults
		ca, cb := a.cache[i], b.cache[i]
		cc.Hits += ca.Hits - cb.Hits
		cc.Misses += ca.Misses - cb.Misses
		cc.Waits += ca.Waits - cb.Waits
		cc.SSDReadBytes += ca.SSDReadBytes - cb.SSDReadBytes
		cc.SSDWriteBytes += ca.SSDWriteBytes - cb.SSDWriteBytes
		cc.PrefetchBytes += ca.PrefetchBytes - cb.PrefetchBytes
		cc.DirtyEvictions += ca.DirtyEvictions - cb.DirtyEvictions
	}
	put("pagecache.hit_ratio", ratioOf(pg.Hits, pg.Hits+pg.Faults), "ratio")
	put("chunkcache.hit_ratio", ratioOf(cc.Hits, cc.Hits+cc.Misses), "ratio")
	put("chunkcache.wait_ratio", ratioOf(cc.Waits, cc.Hits+cc.Misses), "ratio")
	put("chunkcache.fetch_bytes_per_app_read_byte", ratioOf(cc.SSDReadBytes, t.readBytes), "ratio")
	put("chunkcache.prefetch_share", ratioOf(cc.PrefetchBytes, cc.SSDReadBytes), "ratio")
	put("chunkcache.dirty_evictions_per_kop", 1000*ratioOf(cc.DirtyEvictions, ops), "count")
	put("chunkcache.writeback_bytes_per_app_write_byte", ratioOf(cc.SSDWriteBytes, t.writeBytes), "ratio")

	// rpc + proto, from each rank's client registry
	var clientNanos, clientCount int64
	for _, op := range []struct{ name, hist string }{
		{"get", "rpc.get_chunk.latency"}, {"put", "rpc.put_chunk.latency"}, {"putpages", "rpc.put_pages.latency"},
	} {
		h := mergedDelta(a.client, b.client, op.hist)
		put("rpc."+op.name+".count", float64(h.Count), "count")
		put("rpc."+op.name+".p50_us", us(h.Quantile(0.50)), "us")
		put("rpc."+op.name+".p99_us", us(h.Quantile(0.99)), "us")
		clientNanos += h.SumNanos
		clientCount += h.Count
	}
	put("rpc.pool_wait.p99_us", us(mergedDelta(a.client, b.client, "rpc.pool_wait.latency").Quantile(0.99)), "us")
	for _, c := range []string{"retries", "failovers", "map_retries"} {
		var n int64
		for i := range a.client {
			n += a.client[i].Counters["rpc."+c] - b.client[i].Counters["rpc."+c]
		}
		put("rpc."+c, float64(n), "count")
	}
	put("process.alloc_bytes_per_op", ratioOf(int64(a.alloc-b.alloc), ops), "B")
	put("process.gc_cpu_fraction", (a.gcCPU-b.gcCPU)/(a.totCPU-b.totCPU), "ratio")

	// benefactor, from the servers' registries
	var srvNanos, srvDataNanos, srvCount int64
	for _, op := range benefactorOps {
		h := mergedDelta(a.srv.ben, b.srv.ben, fmt.Sprintf("benefactor.op.%s.latency", op))
		put("benefactor."+string(op)+".p50_us", us(h.Quantile(0.50)), "us")
		srvNanos += h.SumNanos
		srvCount += h.Count
		if op != proto.OpCopyChunk {
			srvDataNanos += h.SumNanos
		}
	}
	put("rpc.wire_us_per_op", ratioOf(clientNanos-srvDataNanos, clientCount)/1e3, "us")

	// device
	dev := a.srv.dev.sub(b.srv.dev)
	ndev := float64(len(a.srv.ben))
	put("benefactor.lock_wait_us_per_op", ratioOf(srvNanos-dev.QueueNanos-dev.ServiceNanos, srvCount)/1e3, "us")
	put("device.busy_ratio", float64(dev.BusyNanos)/ndev/float64(win), "ratio")
	put("device.mean_inflight", float64(dev.ServiceNanos)/ndev/float64(win), "count")
	put("device.queue_wait_us", ratioOf(dev.QueueNanos, dev.Reads+dev.Writes)/1e3, "us")
	put("device.read_bytes_per_app_byte", ratioOf(dev.ReadBytes, t.appBytes), "ratio")
	put("device.write_bytes_per_app_byte", ratioOf(dev.WriteBytes, t.appBytes), "ratio")

	// manager + shardmap
	var calls int64
	for _, op := range managerOps {
		h := mergedDelta(a.srv.mgr, b.srv.mgr, fmt.Sprintf("manager.op.%s.latency", op))
		put("manager."+string(op)+".count", float64(h.Count), "count")
		put("manager."+string(op)+".p50_us", us(h.Quantile(0.50)), "us")
	}
	var shardOps []int64
	for i := range a.srv.mgr {
		var n int64
		for name, h := range a.srv.mgr[i].Histograms {
			if name == "manager.op."+string(proto.OpBeat)+".latency" || name == "manager.op."+string(proto.OpRegister)+".latency" {
				continue
			}
			n += h.Count - b.srv.mgr[i].Histograms[name].Count
		}
		shardOps = append(shardOps, n)
		calls += n
	}
	sort.Slice(shardOps, func(i, j int) bool { return shardOps[i] < shardOps[j] })
	put("manager.calls_per_cycle", ratioOf(calls, ops), "count")
	put("manager.shard_op_skew", float64(shardOps[len(shardOps)-1])/float64(max(shardOps[0], 1)), "ratio")
	put("client.meta_us_per_cycle", perOp(a.meta-b.meta), "us")
	return ms
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// printLayers writes the traced run's self-time breakdown and per-layer
// metrics for a reader, ahead of the JSON result line.
func printLayers(wl string, ops int64, win time.Duration, layers, names map[string]layerAgg, ms map[string]metric) {
	fmt.Printf("%s traced: %d ops in %.2fs\n", wl, ops, win.Seconds())
	fmt.Printf("self time per layer (us per op):\n")
	for _, l := range []string{layerClient, layerRPC, layerAsync, layerDevice} {
		a := layers[l]
		fmt.Printf("  %-10s %10.2f  (%d spans)\n", l, ratioOf(a.selfNanos, ops)/1e3, a.spans)
	}
	fmt.Printf("spans by name (count, mean us, self us per op):\n")
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := names[k]
		fmt.Printf("  %-26s %9d %10.1f %10.2f\n", k, a.spans, ratioOf(a.durNanos, a.spans)/1e3, ratioOf(a.selfNanos, ops)/1e3)
	}
	fmt.Printf("per-layer metrics:\n")
	keys = keys[:0]
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-46s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
