// Package benefactor implements the storage side of the aggregate NVM
// store: each benefactor process contributes (a partition of) its
// node-local SSD and serves chunk requests. The Store type is pure,
// transport-agnostic logic; the simulated transport (internal/simstore)
// and the TCP transport (internal/rpc) both wrap it.
//
// Chunks are fixed-size and stored as individual objects ("chunk files" in
// the paper). PutPages applies only the dirty pages of a chunk — the
// paper's write optimization (Table VII) — so a benefactor must support
// sub-chunk updates.
package benefactor

import (
	"fmt"
	"sync"
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// Backend stores chunk payloads. Implementations: Mem (simulation, and a
// RAM-backed real store) and internal/rpc's file backend. The Store calls
// a backend concurrently for different chunks, never for the same chunk.
type Backend interface {
	// Put stores data as the payload of chunk id, replacing any prior
	// payload.
	Put(id proto.ChunkID, data []byte) error
	// Get returns the payload of chunk id. The returned slice must not be
	// modified by the caller.
	Get(id proto.ChunkID) ([]byte, error)
	// Delete removes chunk id. Deleting a missing chunk is an error.
	Delete(id proto.ChunkID) error
	// Has reports whether chunk id exists.
	Has(id proto.ChunkID) bool
}

// BufferPolicy is an optional Backend extension declaring payload buffer
// ownership, letting the Store elide its defensive copies (DESIGN.md §13).
// A backend that does not implement it gets the conservative defaults:
// Put retains its argument and Get returns shared storage (both true for
// Mem, which stores and hands out the very slices).
type BufferPolicy interface {
	// RetainsPut reports whether Put keeps a reference to the data slice
	// after returning. When false the Store passes caller buffers to Put
	// without copying.
	RetainsPut() bool
	// PrivateGet reports whether Get returns a buffer owned by the caller —
	// free to mutate and recycle — rather than a view of backend storage.
	PrivateGet() bool
}

// Recycler is an optional Backend extension for backends whose Get leases
// buffers from a pool: a caller that is done with a Get result hands it
// back here instead of leaving it to the garbage collector. Only meaningful
// alongside PrivateGet() == true.
type Recycler interface {
	Recycle(b []byte)
}

// Mem is an in-memory Backend. It is safe for concurrent use: the TCP
// transport serves each connection on its own goroutine.
type Mem struct {
	mu     sync.Mutex
	chunks map[proto.ChunkID][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{chunks: make(map[proto.ChunkID][]byte)} }

// Put implements Backend.
func (m *Mem) Put(id proto.ChunkID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chunks[id] = data
	return nil
}

// Get implements Backend.
func (m *Mem) Get(id proto.ChunkID) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.chunks[id]
	if !ok {
		return nil, proto.ErrNoSuchChunk
	}
	return d, nil
}

// Delete implements Backend.
func (m *Mem) Delete(id proto.ChunkID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.chunks[id]; !ok {
		return proto.ErrNoSuchChunk
	}
	delete(m.chunks, id)
	return nil
}

// Has implements Backend.
func (m *Mem) Has(id proto.ChunkID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.chunks[id]
	return ok
}

// Len returns the number of stored chunks.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.chunks)
}

// Stats are the benefactor's cumulative traffic counters.
type Stats struct {
	Gets         int64
	Puts         int64
	PagePuts     int64 // PutPages calls
	BytesRead    int64
	BytesWritten int64
	// PageBytesWritten counts only the dirty-page payloads of PutPages;
	// comparing it to whole-chunk writes quantifies the Table VII saving.
	PageBytesWritten int64
}

// Store is one benefactor's chunk store.
//
// Concurrency contract: all methods are safe for concurrent use. Data ops
// (PutChunk, GetChunk, PutPages, CopyChunk, DeleteChunk) are ordered per
// chunk and run concurrently across chunks: each takes the lock stripe of
// the chunk it touches for the whole op, backend I/O included, so a
// PutPages read-modify-write can never interleave with another op on the
// same chunk, while ops on other chunks keep the device queue busy. Space
// accounting, tombstones and counters sit under a separate short lock that
// is never held across backend I/O. The TCP transport (internal/rpc)
// serves many client connections against one Store.
type Store struct {
	id        int
	node      int
	chunkSize int64
	backend   Backend

	// stripes orders the data ops of one chunk (see stripe).
	stripes [lockStripes]sync.Mutex

	// mu guards the accounting below; never held across backend calls.
	mu       sync.Mutex
	capacity int64
	used     int64
	s        Stats
	// strict enables tombstoning of deleted chunks: reads and sub-chunk
	// writes of a deleted chunk fail with ErrNoSuchChunk instead of
	// resurrecting it as zeroes. The manager never reuses chunk IDs, so in
	// a deployment a deleted ID can only be referenced by a client holding
	// a stale chunk map — the error lets it re-Lookup and retry. The
	// simulation keeps the lazy zero-fill semantics (strict off).
	strict bool
	tombs  map[proto.ChunkID]struct{}

	// Buffer-ownership policy of the backend (resolved once at New):
	// retainsPut forces the defensive copy before backend.Put; privGet
	// means Get results are caller-owned, so sub-chunk updates may mutate
	// them in place and recycle returns them to the backend's pool.
	retainsPut bool
	privGet    bool
	recycle    func([]byte)

	// Gauges and histograms (SetObs). The occupancy gauges are kept
	// current wherever used changes so a scrape sees the benefactor's fill
	// level without an RPC round trip; inflight counts data ops inside the
	// store and lockWait times every chunk-stripe acquisition, so /metrics
	// shows per-chunk contention directly.
	usedGauge *obs.Gauge
	capGauge  *obs.Gauge
	inflight  *obs.Gauge
	lockWait  *obs.Histogram
}

// lockStripes is the number of per-chunk lock stripes. Two chunks share a
// stripe only by hash collision, which costs concurrency, never
// correctness.
const lockStripes = 256

// stripe returns the index of chunk id's lock stripe. Chunk IDs reach a
// benefactor with a fixed stride (placement and shard striding), so the ID
// is scrambled (Fibonacci hashing) before it picks a stripe.
func stripe(id proto.ChunkID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> 56)
}

// New creates a benefactor store contributing capacity bytes of chunkSize
// chunks from the given cluster node.
func New(id, node int, capacity, chunkSize int64, backend Backend) *Store {
	if capacity < chunkSize {
		panic(fmt.Sprintf("benefactor %d: capacity %d below one chunk", id, capacity))
	}
	st := &Store{
		id: id, node: node, chunkSize: chunkSize, capacity: capacity,
		backend: backend, tombs: make(map[proto.ChunkID]struct{}),
		retainsPut: true,
	}
	if bp, ok := backend.(BufferPolicy); ok {
		st.retainsPut = bp.RetainsPut()
		st.privGet = bp.PrivateGet()
	}
	if rc, ok := backend.(Recycler); ok {
		st.recycle = rc.Recycle
	}
	return st
}

// SetObs registers the store's gauges (benefactor.used_bytes,
// benefactor.capacity_bytes, benefactor.inflight) and its lock-wait
// histogram (benefactor.chunk_lock_wait) in o's registry and keeps them
// current. Call it before the store serves requests. Nil-safe: a nil o
// (or nil registry) leaves them as no-ops.
func (st *Store) SetObs(o *obs.Obs) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if o == nil {
		return
	}
	st.usedGauge = o.Reg.Gauge("benefactor.used_bytes")
	st.capGauge = o.Reg.Gauge("benefactor.capacity_bytes")
	st.inflight = o.Reg.Gauge("benefactor.inflight")
	st.lockWait = o.Reg.Histogram("benefactor.chunk_lock_wait")
	st.usedGauge.Set(st.used)
	st.capGauge.Set(st.capacity)
}

// PrivateReads reports whether GetChunk results are caller-owned buffers
// (mutable, recyclable) rather than views of backend storage. True only
// when the backend declares PrivateGet — zero-fill reads of unmaterialized
// chunks are always private either way.
func (st *Store) PrivateReads() bool { return st.privGet }

// Recycle returns a caller-owned GetChunk buffer to the backend's pool, if
// it has one. Only valid when PrivateReads is true.
func (st *Store) Recycle(b []byte) {
	if st.recycle != nil {
		st.recycle(b)
	}
}

// SetStrictDelete toggles tombstoning of deleted chunks (see Store.strict).
func (st *Store) SetStrictDelete(on bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.strict = on
}

// ID returns the benefactor's store-wide ID.
func (st *Store) ID() int { return st.id }

// Node returns the cluster node hosting the benefactor.
func (st *Store) Node() int { return st.node }

// Capacity returns the contributed bytes.
func (st *Store) Capacity() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.capacity
}

// Used returns the bytes currently occupied by chunks.
func (st *Store) Used() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.used
}

// Stats returns a snapshot of the counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s
}

// ChunkSize returns the store's striping unit.
func (st *Store) ChunkSize() int64 { return st.chunkSize }

// held is the pair of stripes one data op holds (b < 0: stripe a only).
type held struct {
	st   *Store
	a, b int
}

// begin marks a data op on chunks x and y (equal for a one-chunk op) in
// flight and locks their stripes, always in ascending order so two-chunk
// ops cannot deadlock. end undoes both.
func (st *Store) begin(x, y proto.ChunkID) held {
	st.inflight.Add(1)
	a, b := stripe(x), stripe(y)
	switch {
	case a == b:
		b = -1
	case b < a:
		a, b = b, a
	}
	st.lockStripe(a)
	if b >= 0 {
		st.lockStripe(b)
	}
	return held{st, a, b}
}

func (h held) end() {
	if h.b >= 0 {
		h.st.stripes[h.b].Unlock()
	}
	h.st.stripes[h.a].Unlock()
	h.st.inflight.Add(-1)
}

// lockStripe acquires stripe i, timing the wait only when there is one.
func (st *Store) lockStripe(i int) {
	m := &st.stripes[i]
	if m.TryLock() {
		st.lockWait.Observe(0)
		return
	}
	t0 := time.Now()
	m.Lock()
	st.lockWait.Observe(time.Since(t0))
}

// dead reports whether id is tombstoned (strict-delete mode only).
func (st *Store) dead(id proto.ChunkID) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.strict {
		return false
	}
	_, ok := st.tombs[id]
	return ok
}

// reserve claims one chunk of space for a chunk about to materialize.
// Claiming before the backend write keeps used within capacity however
// many fresh puts race; release rolls a claim back when the write fails
// (and frees the space of a deleted chunk).
func (st *Store) reserve() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.used+st.chunkSize > st.capacity {
		return proto.ErrNoSpace
	}
	st.used += st.chunkSize
	st.usedGauge.Set(st.used)
	return nil
}

func (st *Store) release() {
	st.mu.Lock()
	st.used -= st.chunkSize
	st.usedGauge.Set(st.used)
	st.mu.Unlock()
}

// PutChunk stores a full chunk payload.
func (st *Store) PutChunk(id proto.ChunkID, data []byte) error {
	defer st.begin(id, id).end()
	return st.putChunk(id, data)
}

// putChunk is PutChunk under id's stripe.
func (st *Store) putChunk(id proto.ChunkID, data []byte) error {
	if int64(len(data)) != st.chunkSize {
		return fmt.Errorf("benefactor %d: chunk %d payload %d bytes, want %d", st.id, id, len(data), st.chunkSize)
	}
	if st.dead(id) {
		return proto.ErrNoSuchChunk
	}
	// The stripe is held, so whether id exists cannot change under us.
	fresh := !st.backend.Has(id)
	if fresh {
		if err := st.reserve(); err != nil {
			return err
		}
	}
	// A backend that retains its Put argument (Mem stores the very slice)
	// gets a private copy, because the caller keeps owning data. A
	// non-retaining backend (the file backend) persists the bytes before
	// returning, so the caller's buffer goes straight through.
	if st.retainsPut {
		cp := make([]byte, len(data))
		copy(cp, data)
		data = cp
	}
	if err := st.backend.Put(id, data); err != nil {
		if fresh {
			st.release()
		}
		return err
	}
	st.mu.Lock()
	st.s.Puts++
	st.s.BytesWritten += int64(len(data))
	st.mu.Unlock()
	return nil
}

// GetChunk returns the payload of chunk id. Reading a chunk that was
// reserved but never written yields zeroes (the manager reserves space at
// create time; data arrives lazily — paper §III-C). In strict-delete mode
// reading a deleted chunk fails with ErrNoSuchChunk.
func (st *Store) GetChunk(id proto.ChunkID) ([]byte, error) {
	defer st.begin(id, id).end()
	return st.getChunk(id)
}

// getChunk is GetChunk under id's stripe.
func (st *Store) getChunk(id proto.ChunkID) ([]byte, error) {
	if st.dead(id) {
		return nil, proto.ErrNoSuchChunk
	}
	d, err := st.backend.Get(id)
	if err == proto.ErrNoSuchChunk {
		d = make([]byte, st.chunkSize)
	} else if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.s.Gets++
	st.s.BytesRead += int64(len(d))
	st.mu.Unlock()
	return d, nil
}

// PutPages applies dirty pages (parallel offset/payload slices, offsets are
// byte offsets within the chunk) to chunk id, materializing the chunk if it
// does not exist yet. The read-modify-write runs under id's stripe, so
// concurrent PutPages on disjoint pages of one chunk both land.
func (st *Store) PutPages(id proto.ChunkID, pageOffs []int64, pages [][]byte) error {
	if len(pageOffs) != len(pages) {
		return fmt.Errorf("benefactor %d: %d offsets but %d pages", st.id, len(pageOffs), len(pages))
	}
	for i, off := range pageOffs {
		if off < 0 || off+int64(len(pages[i])) > st.chunkSize {
			return fmt.Errorf("benefactor %d: page [%d,%d) outside chunk", st.id, off, off+int64(len(pages[i])))
		}
	}
	defer st.begin(id, id).end()
	if st.dead(id) {
		return proto.ErrNoSuchChunk
	}
	prev, err := st.backend.Get(id)
	fresh := err == proto.ErrNoSuchChunk
	var cur []byte
	switch {
	case fresh:
		if err := st.reserve(); err != nil {
			return err
		}
		cur = make([]byte, st.chunkSize)
	case err != nil:
		return err
	case st.privGet:
		// The backend handed out a private buffer: patch it in place and
		// write it back, no copy.
		cur = prev
	default:
		// Never mutate the stored payload in place: concurrent readers may
		// still be serializing the slice the backend handed out.
		cur = make([]byte, len(prev))
		copy(cur, prev)
	}
	var vol int64
	for i, off := range pageOffs {
		copy(cur[off:], pages[i])
		vol += int64(len(pages[i]))
	}
	err = st.backend.Put(id, cur)
	if st.privGet && !st.retainsPut && st.recycle != nil {
		// cur is ours (a private Get lease or a fresh zero-fill) and a
		// non-retaining backend has persisted it: hand it back to the pool.
		st.recycle(cur)
	}
	if err != nil {
		if fresh {
			st.release()
		}
		return err
	}
	st.mu.Lock()
	st.s.PagePuts++
	st.s.BytesWritten += vol
	st.s.PageBytesWritten += vol
	st.mu.Unlock()
	return nil
}

// CopyChunk duplicates the payload of src into dst (server-side copy used
// by copy-on-write remapping, so the data never crosses the network). Both
// chunks' stripes are held for the whole copy.
func (st *Store) CopyChunk(dst, src proto.ChunkID) error {
	defer st.begin(dst, src).end()
	d, err := st.getChunk(src)
	if err != nil {
		return err
	}
	err = st.putChunk(dst, d)
	if st.privGet && !st.retainsPut && st.recycle != nil {
		st.recycle(d)
	}
	return err
}

// DeleteChunk removes a chunk and releases its space. Deleting a chunk that
// was reserved but never materialized is a no-op (the reservation is
// released manager-side). In strict-delete mode the ID is tombstoned so
// stale references fail instead of resurrecting the chunk; the tombstone
// goes in under id's stripe, so no op on id can slip between the
// tombstone and the removal.
func (st *Store) DeleteChunk(id proto.ChunkID) error {
	defer st.begin(id, id).end()
	st.mu.Lock()
	if st.strict {
		st.tombs[id] = struct{}{}
	}
	st.mu.Unlock()
	if !st.backend.Has(id) {
		return nil
	}
	if err := st.backend.Delete(id); err != nil {
		return err
	}
	st.release()
	return nil
}

// Info returns the benefactor's registration record.
func (st *Store) Info() proto.BenefactorInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	return proto.BenefactorInfo{
		ID: st.id, Node: st.node, Capacity: st.capacity, Used: st.used,
		Alive: true, WriteVolume: st.s.BytesWritten,
	}
}
