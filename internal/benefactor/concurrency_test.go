package benefactor

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
)

// These tests pin Store's concurrency contract: data ops are ordered per
// chunk and run concurrently across chunks, and the space accounting holds
// under any interleaving. Run them with -race.

// watched wraps a Backend and checks, on every data call, that no other
// call on the same chunk is in the backend at the same time. hook, when
// set, runs inside each Get/Put while the call is counted.
type watched struct {
	Backend
	t    *testing.T
	mu   sync.Mutex
	in   map[proto.ChunkID]int
	peak obs.Gauge // most calls in the backend at once, over all chunks
	cur  atomic.Int64
	hook func(op string, id proto.ChunkID)
}

func watch(t *testing.T, inner Backend) *watched {
	return &watched{Backend: inner, t: t, in: make(map[proto.ChunkID]int)}
}

func (w *watched) enter(op string, id proto.ChunkID) func() {
	w.mu.Lock()
	w.in[id]++
	if w.in[id] > 1 {
		w.t.Errorf("%s on chunk %d overlaps another op on the same chunk", op, id)
	}
	w.mu.Unlock()
	w.peak.Max(w.cur.Add(1))
	if w.hook != nil {
		w.hook(op, id)
	}
	return func() {
		w.cur.Add(-1)
		w.mu.Lock()
		w.in[id]--
		w.mu.Unlock()
	}
}

func (w *watched) Put(id proto.ChunkID, data []byte) error {
	defer w.enter("put", id)()
	return w.Backend.Put(id, data)
}

func (w *watched) Get(id proto.ChunkID) ([]byte, error) {
	defer w.enter("get", id)()
	return w.Backend.Get(id)
}

func (w *watched) Delete(id proto.ChunkID) error {
	defer w.enter("delete", id)()
	return w.Backend.Delete(id)
}

// TestConcurrentOpsKeepAccounting hammers every data op on a small ID
// space, so goroutines collide on the same chunk and run side by side on
// different ones. Afterwards Used must equal the materialized chunks times
// the chunk size.
func TestConcurrentOpsKeepAccounting(t *testing.T) {
	mem := NewMem()
	w := watch(t, Delay(mem, 20*time.Microsecond))
	st := New(1, 0, 64*cs, cs, w)
	const workers, iters, ids = 8, 200, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			full := bytes.Repeat([]byte{byte(g)}, cs)
			pg := bytes.Repeat([]byte{byte(g)}, 64)
			for i := 0; i < iters; i++ {
				id := proto.ChunkID((g*7 + i*5) % ids)
				var err error
				switch i % 5 {
				case 0:
					err = st.PutChunk(id, full)
				case 1:
					_, err = st.GetChunk(id)
				case 2:
					err = st.PutPages(id, []int64{int64(g) * 64}, [][]byte{pg})
				case 3:
					err = st.CopyChunk(id, (id+1)%ids)
				case 4:
					err = st.DeleteChunk(id)
				}
				if err != nil {
					t.Errorf("op %d on chunk %d: %v", i%5, id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := st.Used(), int64(mem.Len())*cs; got != want {
		t.Fatalf("Used() = %d, want %d materialized chunks x %d = %d", got, mem.Len(), cs, want)
	}
	if st.Info().Used != st.Used() {
		t.Fatal("Info().Used disagrees with Used()")
	}
	if w.peak.Load() < 2 {
		t.Errorf("at most %d backend call in flight: ops on different chunks did not overlap", w.peak.Load())
	}
}

// TestConcurrentFreshPutsRespectCapacity races more fresh puts than the
// store has room for. Exactly capacity/chunkSize must land, the rest must
// get ErrNoSpace, and Used must never exceed the capacity, not even while
// the backend writes are still in progress.
func TestConcurrentFreshPutsRespectCapacity(t *testing.T) {
	const slots = 6
	mem := NewMem()
	w := watch(t, mem)
	st := New(1, 0, slots*cs, cs, w)
	w.hook = func(op string, _ proto.ChunkID) {
		if u := st.Used(); u > slots*cs {
			t.Errorf("Used() = %d inside a backend %s, capacity %d", u, op, slots*cs)
		}
		time.Sleep(50 * time.Microsecond)
	}
	var ok, full atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4*slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				err = st.PutChunk(proto.ChunkID(i), make([]byte, cs))
			} else {
				err = st.PutPages(proto.ChunkID(i), []int64{0}, [][]byte{{1}})
			}
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, proto.ErrNoSpace):
				full.Add(1)
			default:
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() != slots || full.Load() != 3*slots {
		t.Fatalf("%d puts landed and %d got ErrNoSpace, want %d and %d", ok.Load(), full.Load(), slots, 3*slots)
	}
	if st.Used() != slots*cs || mem.Len() != slots {
		t.Fatalf("Used() = %d with %d chunks stored, want %d with %d", st.Used(), mem.Len(), slots*cs, slots)
	}
}

// failingPuts fails every backend Put of the listed chunk.
type failingPuts struct {
	Backend
	bad proto.ChunkID
}

func (f failingPuts) Put(id proto.ChunkID, data []byte) error {
	if id == f.bad {
		return fmt.Errorf("injected write failure on chunk %d", id)
	}
	return f.Backend.Put(id, data)
}

// TestFailedFreshPutReleasesReservation: the space claimed for a fresh
// chunk goes back when the backend write fails.
func TestFailedFreshPutReleasesReservation(t *testing.T) {
	st := New(1, 0, 2*cs, cs, failingPuts{NewMem(), 5})
	if err := st.PutChunk(5, make([]byte, cs)); err == nil {
		t.Fatal("injected failure not reported")
	}
	if err := st.PutPages(5, []int64{0}, [][]byte{{1}}); err == nil {
		t.Fatal("injected failure not reported")
	}
	if st.Used() != 0 {
		t.Fatalf("Used() = %d after failed puts, want 0", st.Used())
	}
	for _, id := range []proto.ChunkID{1, 2} {
		if err := st.PutChunk(id, make([]byte, cs)); err != nil {
			t.Fatalf("put %d into the released space: %v", id, err)
		}
	}
}

// TestTombstoneNeverResurrects races writers of one chunk against its
// deletion in strict mode. Once DeleteChunk has returned, no write may
// bring the chunk back, and every later op must fail with ErrNoSuchChunk.
func TestTombstoneNeverResurrects(t *testing.T) {
	for round := 0; round < 20; round++ {
		mem := NewMem()
		st := New(1, 0, 16*cs, cs, watch(t, Delay(mem, 10*time.Microsecond)))
		st.SetStrictDelete(true)
		const id, src = proto.ChunkID(3), proto.ChunkID(9)
		if err := st.PutChunk(src, make([]byte, cs)); err != nil {
			t.Fatal(err)
		}
		var deleted atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for {
					after := deleted.Load()
					var err error
					switch g {
					case 0:
						err = st.PutChunk(id, make([]byte, cs))
					case 1:
						err = st.PutPages(id, []int64{0}, [][]byte{{1}})
					case 2:
						err = st.CopyChunk(id, src)
					}
					if errors.Is(err, proto.ErrNoSuchChunk) {
						return
					}
					if err != nil {
						t.Errorf("writer %d: %v", g, err)
						return
					}
					if after {
						t.Errorf("writer %d resurrected chunk %d after its deletion", g, id)
						return
					}
				}
			}(g)
		}
		time.Sleep(200 * time.Microsecond)
		if err := st.DeleteChunk(id); err != nil {
			t.Fatal(err)
		}
		deleted.Store(true)
		wg.Wait()
		if mem.Has(id) {
			t.Fatalf("round %d: deleted chunk %d is back in the backend", round, id)
		}
		if _, err := st.GetChunk(id); !errors.Is(err, proto.ErrNoSuchChunk) {
			t.Fatalf("round %d: read of deleted chunk: %v", round, err)
		}
		if got, want := st.Used(), int64(mem.Len())*cs; got != want {
			t.Fatalf("round %d: Used() = %d, want %d", round, got, want)
		}
	}
}

// TestConcurrentPutPagesDisjointPagesLand: PutPages is a read-modify-write
// of the whole chunk, so two updates of disjoint pages of one chunk must
// not overwrite each other.
func TestConcurrentPutPagesDisjointPagesLand(t *testing.T) {
	const pages, pageSize = 16, cs / 16
	for _, materialized := range []bool{false, true} {
		st := New(1, 0, 4*cs, cs, watch(t, Delay(NewMem(), 30*time.Microsecond)))
		if materialized {
			if err := st.PutChunk(0, make([]byte, cs)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for p := 0; p < pages; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				pg := bytes.Repeat([]byte{byte(p + 1)}, pageSize)
				if err := st.PutPages(0, []int64{int64(p * pageSize)}, [][]byte{pg}); err != nil {
					t.Error(err)
				}
			}(p)
		}
		wg.Wait()
		got, err := st.GetChunk(0)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			if got[p*pageSize] != byte(p+1) {
				t.Fatalf("materialized=%v: page %d lost its update (byte %d)", materialized, p, got[p*pageSize])
			}
		}
		if st.Used() != cs {
			t.Fatalf("materialized=%v: Used() = %d, want one chunk", materialized, st.Used())
		}
	}
}

// gated blocks backend Gets of chunk hold until release is closed.
type gated struct {
	Backend
	hold    proto.ChunkID
	entered chan struct{}
	release chan struct{}
}

func (g *gated) Get(id proto.ChunkID) ([]byte, error) {
	if id == g.hold {
		close(g.entered)
		<-g.release
	}
	return g.Backend.Get(id)
}

// TestOpsOnOtherChunksPassABlockedOne: while one chunk's backend read is
// stuck, ops on other chunks complete, a second op on the stuck chunk
// waits for it, and the store's gauges and lock-wait histogram show both.
func TestOpsOnOtherChunksPassABlockedOne(t *testing.T) {
	g := &gated{Backend: NewMem(), hold: 1, entered: make(chan struct{}), release: make(chan struct{})}
	st := New(1, 0, 16*cs, cs, g)
	o := obs.New("benefactor-test")
	st.SetObs(o)
	go func() { _, _ = st.GetChunk(1) }()
	<-g.entered

	done := make(chan error, 1)
	go func() {
		if err := st.PutChunk(2, make([]byte, cs)); err != nil {
			done <- err
			return
		}
		_, err := st.GetChunk(2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op on chunk 2 blocked behind the stuck read of chunk 1")
	}

	second := make(chan error, 1)
	go func() { second <- st.PutChunk(1, make([]byte, cs)) }()
	deadline := time.Now().Add(5 * time.Second)
	for o.Reg.Gauge("benefactor.inflight").Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge %d, want 2 (stuck read + waiting put)", o.Reg.Gauge("benefactor.inflight").Load())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-second:
		t.Fatal("second op on chunk 1 ran while the first was still in the backend")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if n := o.Reg.Gauge("benefactor.inflight").Load(); n != 0 {
		t.Fatalf("inflight gauge %d after all ops returned", n)
	}
	h := o.Reg.Histogram("benefactor.chunk_lock_wait").Snapshot()
	if h.Count != 4 {
		t.Fatalf("lock-wait histogram counted %d acquisitions, want 4", h.Count)
	}
	if h.SumNanos < int64(20*time.Millisecond) {
		t.Fatalf("lock-wait sum %v, want at least the 20ms the second op waited", time.Duration(h.SumNanos))
	}
}
