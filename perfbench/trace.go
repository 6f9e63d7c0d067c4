package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/fusecache"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/store"
)

// Layers a span is attributed to. Spans are recorded by the benchmark at
// the boundaries it can see from outside the program: its own calls into
// core (client), the store.Client calls the chunk cache makes (rpc, or
// rpc.async when read-ahead or a prefetch-side eviction issued them off
// the caller's goroutine), and the emulated device's ops (device, roots of
// their own: the benefactor's server side cannot be linked from outside).
const (
	layerClient = "client"
	layerRPC    = "rpc"
	layerAsync  = "rpc.async"
	layerDevice = "device"
)

// maxKeptSpans bounds the spans held for the trace file; self-time
// aggregates cover every span regardless.
const maxKeptSpans = 200_000

// spanRec is one finished span as written to the trace file.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"` // shared by every span of one top-level call
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layerAgg accumulates one layer's spans.
type layerAgg struct {
	spans, selfNanos, durNanos int64
}

// tracer records spans in memory and aggregates self time per layer and
// per span name.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	// byTrace maps a library trace ID to the benchmark span whose call
	// started it, so store calls the chunk cache's flush goroutines make
	// under that trace (with no benchmark ctx) still nest under the call
	// that waits for them.
	byTrace sync.Map

	mu      sync.Mutex
	kept    []spanRec
	dropped int64
	layers  map[string]*layerAgg
	names   map[string]*layerAgg
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: map[string]*layerAgg{}, names: map[string]*layerAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// node is an open span. A *node is also the store.Ctx the benchmark hands
// to the library, which passes it down to the store.Client calls the
// wrapper below the chunk cache sees.
type node struct {
	t      *tracer
	id, op uint64
	parent *node
	name   string
	layer  string
	start  int64

	mu     sync.Mutex // children may end on flush goroutines
	kids   [][2]int64 // children's [start, end)
	traces []string   // library trace IDs mapped to this span
}

// root opens a span with no parent; it starts a new op.
func (t *tracer) root(name, layer string) *node {
	id := t.nextID.Add(1)
	return &node{t: t, id: id, op: id, name: name, layer: layer, start: t.now()}
}

// child opens a span under n.
func (n *node) child(name, layer string) *node {
	return &node{t: n.t, id: n.t.nextID.Add(1), op: n.op, parent: n, name: name, layer: layer, start: n.t.now()}
}

// end closes the span: its self time is its duration minus the union of
// its children's intervals.
func (n *node) end() { n.endAt(n.t.now()) }

func (n *node) endAt(end int64) {
	t := n.t
	n.mu.Lock()
	self := end - n.start - covered(n.kids)
	for _, tr := range n.traces {
		t.byTrace.Delete(tr)
	}
	n.mu.Unlock()
	var parent uint64
	if p := n.parent; p != nil {
		parent = p.id
		p.mu.Lock()
		p.kids = append(p.kids, [2]int64{n.start, end})
		p.mu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range []*layerAgg{t.agg(t.layers, n.layer), t.agg(t.names, n.name)} {
		a.spans++
		a.selfNanos += self
		a.durNanos += end - n.start
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRec{ID: n.id, Parent: parent, Op: n.op, Name: n.name, Layer: n.layer, Start: n.start, End: end, Self: self})
	} else {
		t.dropped++
	}
}

func (t *tracer) agg(m map[string]*layerAgg, k string) *layerAgg {
	a := m[k]
	if a == nil {
		a = &layerAgg{}
		m[k] = a
	}
	return a
}

// record adds a finished root span measured by the caller (the device's
// ops, whose start predates any tracer call).
func (t *tracer) record(name, layer string, start, end time.Time) {
	id := t.nextID.Add(1)
	n := &node{t: t, id: id, op: id, name: name, layer: layer, start: int64(start.Sub(t.origin))}
	n.endAt(int64(end.Sub(t.origin)))
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// traceCut is the tracer's state at the end of the measured loop.
type traceCut struct {
	layers, names map[string]layerAgg
	kept          []spanRec
	dropped       int64
}

// snapshot copies the aggregates and the kept spans, so spans recorded
// after the loop (final sync, verification) stay out of the results.
func (t *tracer) snapshot() traceCut {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := traceCut{layers: map[string]layerAgg{}, names: map[string]layerAgg{}, dropped: t.dropped}
	for k, v := range t.layers {
		c.layers[k] = *v
	}
	for k, v := range t.names {
		c.names[k] = *v
	}
	c.kept = append([]spanRec(nil), t.kept...)
	return c
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeSpan opens the span of one store.Client call: a child of the
// benchmark span the caller's ctx belongs to — directly, or through the
// library trace a flush goroutine carries — or an rpc.async root when the
// chunk cache issued the call on its own (read-ahead passes a nil ctx).
func (t *tracer) storeSpan(ctx store.Ctx, name string) *node {
	parent, _ := store.BaseCtx(ctx).(*node)
	trace := store.SpanOf(ctx).Trace
	switch {
	case parent != nil && trace != "":
		if _, loaded := t.byTrace.LoadOrStore(trace, parent); !loaded {
			parent.mu.Lock()
			parent.traces = append(parent.traces, trace)
			parent.mu.Unlock()
		}
	case parent == nil && trace != "":
		if v, ok := t.byTrace.Load(trace); ok {
			parent = v.(*node)
		}
	}
	if parent != nil {
		return parent.child(name, layerRPC)
	}
	return t.root(name, layerAsync)
}

// tracedStore wraps the store.Client below the chunk cache with spans. It
// adds no interface the inner client lacks: wrapStore picks a variant
// that implements store.BufferLender and store.ChunkSpiller exactly when
// the inner client does, so the chunk cache takes the same code paths.
type tracedStore struct {
	in store.Client
	t  *tracer
	// metaNanos is client-side time in metadata calls (create, lookup,
	// link, ...), summed over the run.
	metaNanos atomic.Int64
}

func (s *tracedStore) meta(ctx store.Ctx, name string, fn func()) {
	sp := s.t.storeSpan(ctx, name)
	t0 := time.Now()
	fn()
	s.metaNanos.Add(int64(time.Since(t0)))
	sp.end()
}

func (s *tracedStore) Node() int        { return s.in.Node() }
func (s *tracedStore) ChunkSize() int64 { return s.in.ChunkSize() }

func (s *tracedStore) Create(ctx store.Ctx, name string, size int64) (fi proto.FileInfo, err error) {
	s.meta(ctx, "rpc.create", func() { fi, err = s.in.Create(ctx, name, size) })
	return
}

func (s *tracedStore) Lookup(ctx store.Ctx, name string) (fi proto.FileInfo, err error) {
	s.meta(ctx, "rpc.lookup", func() { fi, err = s.in.Lookup(ctx, name) })
	return
}

func (s *tracedStore) Delete(ctx store.Ctx, name string) (err error) {
	s.meta(ctx, "rpc.delete", func() { err = s.in.Delete(ctx, name) })
	return
}

func (s *tracedStore) Link(ctx store.Ctx, dst string, parts []string) (fi proto.FileInfo, err error) {
	s.meta(ctx, "rpc.link", func() { fi, err = s.in.Link(ctx, dst, parts) })
	return
}

func (s *tracedStore) Derive(ctx store.Ctx, name, src string, from, n int, size int64) (fi proto.FileInfo, err error) {
	s.meta(ctx, "rpc.derive", func() { fi, err = s.in.Derive(ctx, name, src, from, n, size) })
	return
}

func (s *tracedStore) Remap(ctx store.Ctx, name string, idx int) (refs []proto.ChunkRef, err error) {
	s.meta(ctx, "rpc.remap", func() { refs, err = s.in.Remap(ctx, name, idx) })
	return
}

func (s *tracedStore) SetTTL(ctx store.Ctx, name string, ttl time.Duration) (err error) {
	s.meta(ctx, "rpc.setttl", func() { err = s.in.SetTTL(ctx, name, ttl) })
	return
}

func (s *tracedStore) Status(ctx store.Ctx) (bi []proto.BenefactorInfo, err error) {
	s.meta(ctx, "rpc.status", func() { bi, err = s.in.Status(ctx) })
	return
}

func (s *tracedStore) GetChunk(ctx store.Ctx, refs []proto.ChunkRef) ([]byte, error) {
	sp := s.t.storeSpan(ctx, "rpc.get")
	b, err := s.in.GetChunk(ctx, refs)
	sp.end()
	return b, err
}

func (s *tracedStore) PutChunk(ctx store.Ctx, refs []proto.ChunkRef, data []byte) error {
	sp := s.t.storeSpan(ctx, "rpc.put")
	err := s.in.PutChunk(ctx, refs, data)
	sp.end()
	return err
}

func (s *tracedStore) PutPages(ctx store.Ctx, refs []proto.ChunkRef, offs []int64, pages [][]byte) error {
	sp := s.t.storeSpan(ctx, "rpc.putpages")
	err := s.in.PutPages(ctx, refs, offs, pages)
	sp.end()
	return err
}

// The optional interfaces forward to the inner client untimed: they move
// no data and make no call over the wire.
type (
	lenderStore struct {
		*tracedStore
		store.BufferLender
	}
	spillerStore struct {
		*tracedStore
		store.ChunkSpiller
	}
	lenderSpillerStore struct {
		*tracedStore
		store.BufferLender
		store.ChunkSpiller
	}
)

// wrapStore returns the traced wrapper of in, implementing exactly the
// optional interfaces that in implements.
func wrapStore(in store.Client, t *tracer) (store.Client, *tracedStore) {
	ts := &tracedStore{in: in, t: t}
	bl, lends := in.(store.BufferLender)
	sp, spills := in.(store.ChunkSpiller)
	switch {
	case lends && spills:
		return lenderSpillerStore{ts, bl, sp}, ts
	case lends:
		return lenderStore{ts, bl}, ts
	case spills:
		return spillerStore{ts, sp}, ts
	}
	return ts, ts
}

// connectTraced builds the same stack nvmalloc.Connect builds for a zero
// ConnectConfig — rpc.OpenWith, rpc.NewStoreClient, fusecache.NewChunkCache
// and core.NewClient with the same defaults and the same close hook — with
// the traced wrapper between the chunk cache and the store client.
func connectTraced(addr string, t *tracer) (*core.Client, *tracedStore, error) {
	st, err := rpc.OpenWith(addr, rpc.Options{})
	if err != nil {
		return nil, nil, err
	}
	const (
		cacheBytes     = 64 << 20
		pageCacheBytes = 8 << 20
		readAhead      = 2
	)
	if st.ChunkSize()%pageBytes != 0 {
		st.Close()
		return nil, nil, fmt.Errorf("page size %d does not divide chunk size %d", pageBytes, st.ChunkSize())
	}
	cache := int64(cacheBytes)
	if cache < st.ChunkSize() {
		cache = st.ChunkSize()
	}
	env := store.NewGoEnv()
	cl, ts := wrapStore(rpc.NewStoreClient(st, 0), t)
	cc := fusecache.NewChunkCache(env, cl, fusecache.Config{
		ChunkSize:       st.ChunkSize(),
		PageSize:        pageBytes,
		CacheBytes:      cache,
		ReadAheadChunks: readAhead,
		Obs:             st.Obs(),
	})
	c := core.NewClient(0, nil, cc, pageCacheBytes)
	c.OnClose(func() error {
		ferr := cc.FlushAll(nil)
		env.Quiesce()
		cerr := st.Close()
		if ferr != nil {
			return ferr
		}
		return cerr
	})
	return c, ts, nil
}

// storeOf returns the rpc.Store under a client built by Connect or
// connectTraced, for its registry.
func storeOf(c *core.Client) *rpc.Store {
	s := c.ChunkCache().Store()
	if ts, ok := s.(interface{ inner() store.Client }); ok {
		s = ts.inner()
	}
	if sc, ok := s.(*rpc.StoreClient); ok {
		return sc.Store()
	}
	return nil
}

func (s *tracedStore) inner() store.Client { return s.in }
