package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"nvmalloc/internal/core"
	"nvmalloc/internal/store"
)

// rank is one closed-loop client: it runs one workload op after another on
// its own client and region set.
type rank struct {
	id  int
	c   *core.Client
	rng *rand.Rand
	// pool is seeded random data that writes copy from.
	pool []byte
	// cur is the open root span of the current op in a traced run (nil
	// otherwise); it doubles as the ctx handed to the library.
	cur *node
	// st is the workload's per-rank state (regions, shadows).
	st any
}

// ctx is the store.Ctx for library calls: the open span when tracing, nil
// otherwise (what a user passes on the live store).
func (r *rank) ctx() store.Ctx {
	if r.cur == nil {
		return nil
	}
	return r.cur
}

// call runs fn as a child span of the current op when tracing.
func (r *rank) call(name string, fn func(ctx store.Ctx) error) error {
	if r.cur == nil {
		return fn(nil)
	}
	n := r.cur.child(name, layerClient)
	err := fn(n)
	n.end()
	return err
}

// opResult is what one unit op did.
type opResult struct {
	appBytes   int64         // bytes moved through Region, or checkpointed
	readBytes  int64         // bytes the application read
	writeBytes int64         // bytes the application wrote
	lat        time.Duration // timed latency when not the whole op (ckpt-cycle)
	bad        int64         // verification mismatches found by the op
}

// workload is one closed-loop load. setup runs untimed before the
// measured loop and counts toward setup time; finish makes the ranks'
// writes durable (its device writes count toward write amplification);
// verify checks the final state and returns the mismatches found.
type workload interface {
	name() string
	warmupOps(r *rank) int
	setup(r *rank) error
	op(r *rank) (opResult, error)
	finish(r *rank) error
	verify(r *rank, addr string) (int64, error)
}

// word is the seeded fill pattern: the 8-byte word at index i of a
// rank's region.
func word(seed int64, rank, i int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(rank)<<48 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillBlock writes the pattern for bytes [off, off+len(b)) (8-aligned).
func fillBlock(b []byte, seed, rank, off int64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], word(seed, rank, (off+int64(i))/8))
	}
}

// fillRegion writes the pattern over a whole region in 1 MiB blocks.
func fillRegion(r *rank, reg *core.Region, seed int64, shadow []byte) error {
	const blk = 1 << 20
	buf := make([]byte, blk)
	for off := int64(0); off < reg.Size(); off += blk {
		n := min(int64(blk), reg.Size()-off)
		fillBlock(buf[:n], seed, int64(r.id), off)
		if shadow != nil {
			copy(shadow[off:], buf[:n])
		}
		if err := reg.WriteAt(nil, off, buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// pageBytes is the access and dirtying unit: the page size Connect uses.
const pageBytes = 4 << 10

// ---- cache-hot ----

// cacheHot: one private region per rank, sized between the page cache
// and the chunk cache; uniform random page-sized accesses, 80% reads.
type cacheHot struct {
	seed        int64
	regionBytes int64
}

type hotState struct {
	reg    *core.Region
	shadow []byte
	buf    []byte
}

func (w cacheHot) name() string        { return "cache-hot" }
func (w cacheHot) warmupOps(*rank) int { return int(4 * w.regionBytes / pageBytes) }

func (w cacheHot) setup(r *rank) error {
	reg, err := r.c.Malloc(nil, w.regionBytes, core.WithName(fmt.Sprintf("hot-r%d", r.id)))
	if err != nil {
		return err
	}
	s := &hotState{reg: reg, shadow: make([]byte, w.regionBytes), buf: make([]byte, pageBytes)}
	r.st = s
	return fillRegion(r, reg, w.seed, s.shadow)
}

func (w cacheHot) op(r *rank) (opResult, error) {
	s := r.st.(*hotState)
	off := r.rng.Int63n(w.regionBytes/pageBytes) * pageBytes
	res := opResult{appBytes: pageBytes}
	if r.rng.Intn(5) == 0 {
		data := r.pool[r.rng.Intn(len(r.pool)-pageBytes):][:pageBytes]
		copy(s.shadow[off:], data)
		res.writeBytes = pageBytes
		return res, s.reg.WriteAt(r.ctx(), off, data)
	}
	res.readBytes = pageBytes
	if err := s.reg.ReadAt(r.ctx(), off, s.buf); err != nil {
		return res, err
	}
	if !bytes.Equal(s.buf, s.shadow[off:off+pageBytes]) {
		res.bad = 1
	}
	return res, nil
}

func (w cacheHot) finish(r *rank) error { return r.st.(*hotState).reg.Sync(nil) }

func (w cacheHot) verify(r *rank, _ string) (int64, error) {
	s := r.st.(*hotState)
	return compareRegion(s.reg, func(off int64, want []byte) { copy(want, s.shadow[off:]) })
}

// compareRegion reads reg in 1 MiB blocks and counts blocks that differ
// from expect.
func compareRegion(reg *core.Region, expect func(off int64, want []byte)) (int64, error) {
	const blk = 1 << 20
	got, want := make([]byte, blk), make([]byte, blk)
	var bad int64
	for off := int64(0); off < reg.Size(); off += blk {
		n := min(int64(blk), reg.Size()-off)
		if err := reg.ReadAt(nil, off, got[:n]); err != nil {
			return bad, err
		}
		expect(off, want[:n])
		if !bytes.Equal(got[:n], want[:n]) {
			bad++
		}
	}
	return bad, nil
}

// ---- stream-triad ----

// streamTriad: STREAM TRIAD a = b + s·c over three regions per rank, in
// sequential vectors, wrapping around. b and c hold a seeded pattern that
// every load is checked against; a is checked at the end.
type streamTriad struct {
	seed       int64
	arrayBytes int64
	vecBytes   int64
}

const triadScalar = 3.0

type triadState struct {
	a, b, c    *core.Region
	va, vb, vc *core.Float64View
	x, y, z    []float64
	next       int64 // next vector index
	written    []bool
}

func (w streamTriad) name() string        { return "stream-triad" }
func (w streamTriad) warmupOps(*rank) int { return int(w.arrayBytes / w.vecBytes / 3) }
func (w streamTriad) nvec() int64         { return w.arrayBytes / w.vecBytes }

// elem is b's (array 1) or c's (array 2) seeded value at index i.
func (w streamTriad) elem(rank int, array, i int64) float64 {
	return float64(word(w.seed+array, int64(rank), i)>>11) / (1 << 53)
}

func (w streamTriad) setup(r *rank) error {
	s := &triadState{written: make([]bool, w.nvec())}
	r.st = s
	var err error
	for i, p := range []**core.Region{&s.a, &s.b, &s.c} {
		name := fmt.Sprintf("triad-%c-r%d", "abc"[i], r.id)
		if *p, err = r.c.Malloc(nil, w.arrayBytes, core.WithName(name)); err != nil {
			return err
		}
	}
	s.va, s.vb, s.vc = core.Float64s(s.a), core.Float64s(s.b), core.Float64s(s.c)
	n := w.vecBytes / 8
	s.x, s.y, s.z = make([]float64, n), make([]float64, n), make([]float64, n)
	for v := int64(0); v < w.nvec(); v++ {
		for j := range s.x {
			idx := v*n + int64(j)
			s.x[j], s.y[j] = w.elem(r.id, 1, idx), w.elem(r.id, 2, idx)
		}
		if err := s.vb.StoreVec(nil, v*n, s.x); err != nil {
			return err
		}
		if err := s.vc.StoreVec(nil, v*n, s.y); err != nil {
			return err
		}
	}
	if err := s.b.Sync(nil); err != nil {
		return err
	}
	return s.c.Sync(nil)
}

func (w streamTriad) op(r *rank) (opResult, error) {
	s := r.st.(*triadState)
	n := w.vecBytes / 8
	v := s.next
	s.next = (s.next + 1) % w.nvec()
	res := opResult{appBytes: 3 * w.vecBytes, readBytes: 2 * w.vecBytes, writeBytes: w.vecBytes}
	if err := s.vb.LoadVec(r.ctx(), v*n, s.x); err != nil {
		return res, err
	}
	if err := s.vc.LoadVec(r.ctx(), v*n, s.y); err != nil {
		return res, err
	}
	for j := range s.z {
		idx := v*n + int64(j)
		if s.x[j] != w.elem(r.id, 1, idx) || s.y[j] != w.elem(r.id, 2, idx) {
			res.bad = 1
		}
		s.z[j] = s.x[j] + triadScalar*s.y[j]
	}
	s.written[v] = true
	return res, s.va.StoreVec(r.ctx(), v*n, s.z)
}

func (w streamTriad) finish(r *rank) error { return r.st.(*triadState).a.Sync(nil) }

func (w streamTriad) verify(r *rank, _ string) (int64, error) {
	s := r.st.(*triadState)
	n := w.vecBytes / 8
	var bad int64
	for v := int64(0); v < w.nvec(); v++ {
		if err := s.va.LoadVec(nil, v*n, s.z); err != nil {
			return bad, err
		}
		for j, got := range s.z {
			idx := v*n + int64(j)
			want := 0.0
			if s.written[v] {
				want = w.elem(r.id, 1, idx) + triadScalar*w.elem(r.id, 2, idx)
			}
			if got != want {
				bad++
				break
			}
		}
	}
	return bad, nil
}

// ---- rand-write ----

// randWrite: one large region per rank (well beyond the chunk cache),
// random 8-byte writes — the paper's Table VII synthetic. The shadow is
// the seeded fill plus the map of words written; verify re-reads the
// region through a fresh client after the final Sync.
type randWrite struct {
	seed        int64
	regionBytes int64
}

type randState struct {
	reg     *core.Region
	name    string
	written map[int64]uint64 // word index -> value
	buf     [8]byte
}

func (w randWrite) name() string { return "rand-write" }

// warmupOps runs as many writes as the chunk cache has chunks, so most of
// the loop's evictions are of sparsely dirty chunks, not of the clean fill.
func (w randWrite) warmupOps(r *rank) int { return r.c.ChunkCache().Config().Chunks() }

func (w randWrite) setup(r *rank) error {
	s := &randState{name: fmt.Sprintf("rw-r%d", r.id), written: map[int64]uint64{}}
	r.st = s
	var err error
	if s.reg, err = r.c.Malloc(nil, w.regionBytes, core.WithName(s.name)); err != nil {
		return err
	}
	if err := fillRegion(r, s.reg, w.seed, nil); err != nil {
		return err
	}
	return s.reg.Sync(nil)
}

func (w randWrite) op(r *rank) (opResult, error) {
	s := r.st.(*randState)
	i := r.rng.Int63n(w.regionBytes / 8)
	v := r.rng.Uint64()
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.written[i] = v
	return opResult{appBytes: 8, writeBytes: 8}, s.reg.WriteAt(r.ctx(), i*8, s.buf[:])
}

func (w randWrite) finish(r *rank) error { return r.st.(*randState).reg.Sync(nil) }

// verify closes the rank's client (flushing everything) and re-reads the
// whole region through a fresh one.
func (w randWrite) verify(r *rank, addr string) (int64, error) {
	s := r.st.(*randState)
	if err := r.c.Close(); err != nil {
		return 0, err
	}
	fresh, err := connect(addr)
	if err != nil {
		return 0, err
	}
	defer fresh.Close()
	reg, err := fresh.Attach(nil, s.name)
	if err != nil {
		return 0, err
	}
	return compareRegion(reg, func(off int64, want []byte) {
		fillBlock(want, w.seed, int64(r.id), off)
		for j := int64(0); j < int64(len(want)); j += 8 {
			if v, ok := s.written[(off+j)/8]; ok {
				binary.LittleEndian.PutUint64(want[j:], v)
			}
		}
	})
}

// ---- ckpt-cycle ----

// ckptCycle: one named region per rank; each op dirties random pages, then
// checkpoints the DRAM state plus the region, restores the region from
// the checkpoint, checks the DRAM dump (and, every verifyEvery cycles, the
// whole restored region), frees the restored region and deletes the
// checkpoint. Latency times Checkpoint.
type ckptCycle struct {
	seed        int64
	regionBytes int64
	dirtyPages  int
	dramBytes   int64
}

// verifyEvery is how often a cycle reads back the whole restored region.
const verifyEvery = 4

type ckptState struct {
	reg    *core.Region
	shadow []byte
	dram   []byte
	got    []byte
	cycle  int
}

func (w ckptCycle) name() string        { return "ckpt-cycle" }
func (w ckptCycle) warmupOps(*rank) int { return 2 }

func (w ckptCycle) setup(r *rank) error {
	s := &ckptState{shadow: make([]byte, w.regionBytes), dram: make([]byte, w.dramBytes), got: make([]byte, w.regionBytes)}
	r.st = s
	var err error
	if s.reg, err = r.c.Malloc(nil, w.regionBytes, core.WithName(fmt.Sprintf("ck-r%d", r.id))); err != nil {
		return err
	}
	if err := fillRegion(r, s.reg, w.seed, s.shadow); err != nil {
		return err
	}
	return s.reg.Sync(nil)
}

func (w ckptCycle) op(r *rank) (opResult, error) {
	s := r.st.(*ckptState)
	s.cycle++
	ck := fmt.Sprintf("ckpt-r%d-%d", r.id, s.cycle)
	res := opResult{
		appBytes:   w.dramBytes + w.regionBytes,
		readBytes:  w.dramBytes + w.regionBytes,
		writeBytes: int64(w.dirtyPages)*pageBytes + w.dramBytes,
	}
	err := r.call("region.write", func(ctx store.Ctx) error {
		for i := 0; i < w.dirtyPages; i++ {
			off := r.rng.Int63n(w.regionBytes/pageBytes) * pageBytes
			data := r.pool[r.rng.Intn(len(r.pool)-pageBytes):][:pageBytes]
			copy(s.shadow[off:], data)
			if err := s.reg.WriteAt(ctx, off, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	copy(s.dram, r.pool[r.rng.Intn(len(r.pool)-len(s.dram)):])

	var info core.CheckpointInfo
	err = r.call("client.checkpoint", func(ctx store.Ctx) error {
		t0 := time.Now()
		var err error
		info, err = r.c.Checkpoint(ctx, ck, s.dram, s.reg)
		res.lat = time.Since(t0)
		return err
	})
	if err != nil {
		return res, err
	}
	var restored *core.Region
	err = r.call("client.restore", func(ctx store.Ctx) error {
		var err error
		restored, err = r.c.RestoreRegion(ctx, ck, info.Regions[0], fmt.Sprintf("restored-r%d-%d", r.id, s.cycle))
		return err
	})
	if err != nil {
		return res, err
	}
	if s.cycle%verifyEvery == 0 {
		err = r.call("region.read", func(ctx store.Ctx) error {
			if err := restored.ReadAt(ctx, 0, s.got); err != nil {
				return err
			}
			if !bytes.Equal(s.got, s.shadow) {
				res.bad++
			}
			return nil
		})
		if err != nil {
			return res, err
		}
	}
	err = r.call("client.read_dram", func(ctx store.Ctx) error {
		got := s.got[:len(s.dram)]
		if err := r.c.ReadCheckpointDRAM(ctx, ck, got); err != nil {
			return err
		}
		if !bytes.Equal(got, s.dram) {
			res.bad++
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if err := r.call("client.free", func(ctx store.Ctx) error { return restored.Free(ctx) }); err != nil {
		return res, err
	}
	return res, r.call("client.delete_checkpoint", func(ctx store.Ctx) error { return r.c.DeleteCheckpoint(ctx, ck) })
}

func (w ckptCycle) finish(r *rank) error { return r.st.(*ckptState).reg.Sync(nil) }

func (w ckptCycle) verify(r *rank, _ string) (int64, error) {
	s := r.st.(*ckptState)
	return compareRegion(s.reg, func(off int64, want []byte) { copy(want, s.shadow[off:]) })
}
