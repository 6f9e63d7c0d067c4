package fusecache

import (
	"container/list"
	"fmt"

	"nvmalloc/internal/store"
)

// PageCache is the per-process page-granularity layer standing in for the
// kernel page cache above the FUSE mount: memory-mapped accesses hit here
// first; read misses become page-sized requests to the node's ChunkCache,
// and writes are pushed through to the FUSE layer a whole page at a time —
// the paper's model ("the OS page cache sends out write requests to the
// FUSE layer on a page granularity; after this, we mark the page as dirty
// within the FUSE cache", §III-D). Write-through also keeps ranks sharing
// a node-level mapping coherent. Its byte counters are the "requests to
// FUSE" column of Table IV and the "data written to FUSE" row of
// Table VII.
//
// A PageCache belongs to a single rank; its methods are safe for
// concurrent use by the rank's threads (simulated procs, or goroutines
// sharing one client). They run under the chunk cache's env lock, which
// the chunk-cache calls below release while a chunk loads, so a thread
// stalled on a miss does not hold up its siblings' page hits. Under the
// simulation the lock is a no-op and the procs interleave only at those
// blocking points, exactly as before.
type PageCache struct {
	cc  *ChunkCache
	cap int // capacity in pages

	entries map[pageKey]*page
	lru     *list.List

	s PageStats
}

type pageKey struct {
	file string
	idx  int64 // page index within the file
}

type page struct {
	key   pageKey
	data  []byte
	dirty bool
	lru   *list.Element
}

// PageStats counts the traffic of one PageCache.
type PageStats struct {
	Hits       int64
	Faults     int64 // page misses served by the FUSE layer
	Writebacks int64 // dirty pages pushed down on eviction/sync
	// FaultBytes/WritebackBytes are the byte volumes of the above — the
	// page-granular requests that reach the FUSE layer.
	FaultBytes     int64
	WritebackBytes int64
}

// NewPageCache builds a page cache of capBytes in front of cc.
func NewPageCache(cc *ChunkCache, capBytes int64) *PageCache {
	n := int(capBytes / cc.cfg.PageSize)
	if n < 1 {
		n = 1
	}
	return &PageCache{
		cc:      cc,
		cap:     n,
		entries: make(map[pageKey]*page),
		lru:     list.New(),
	}
}

// Stats returns a snapshot of the counters.
func (pc *PageCache) Stats() PageStats {
	pc.cc.env.Lock(nil)
	defer pc.cc.env.Unlock(nil)
	return pc.s
}

// ResetStats zeroes the counters.
func (pc *PageCache) ResetStats() {
	pc.cc.env.Lock(nil)
	defer pc.cc.env.Unlock(nil)
	pc.s = PageStats{}
}

// Chunk returns the underlying per-node chunk cache.
func (pc *PageCache) Chunk() *ChunkCache { return pc.cc }

// pageSize returns the page granularity.
func (pc *PageCache) pageSize() int64 { return pc.cc.cfg.PageSize }

// fault loads one page from the FUSE layer. fill controls whether the
// page's current content is fetched — a write that covers the whole page
// can skip the read (the kernel does the same for full-page overwrites).
// Lock held; released while the chunk cache loads.
func (pc *PageCache) fault(ctx store.Ctx, key pageKey, fill bool) (*page, error) {
	if err := pc.ensureRoom(ctx); err != nil {
		return nil, err
	}
	pg := &page{key: key, data: make([]byte, pc.pageSize())}
	if fill {
		pc.s.Faults++
		pc.s.FaultBytes += pc.pageSize()
		if err := pc.cc.readRange(ctx, key.file, key.idx*pc.pageSize(), pg.data); err != nil {
			return nil, err
		}
	}
	// Re-check after the blocking read: a sibling thread of the rank may
	// have faulted the same page meanwhile; keep the map authoritative.
	if cur, ok := pc.entries[key]; ok {
		return cur, nil
	}
	pc.entries[key] = pg
	pg.lru = pc.lru.PushFront(pg)
	return pg, nil
}

// ensureRoom evicts LRU pages until one more fits. Pages are never dirty
// (writes are pushed through immediately), so eviction is a plain drop.
func (pc *PageCache) ensureRoom(ctx store.Ctx) error {
	for len(pc.entries) >= pc.cap {
		el := pc.lru.Back()
		if el == nil {
			return fmt.Errorf("fusecache: page cache wedged")
		}
		pg := el.Value.(*page)
		if pg.dirty {
			if err := pc.writeback(ctx, pg); err != nil {
				return err
			}
		}
		delete(pc.entries, pg.key)
		pc.lru.Remove(el)
	}
	return nil
}

// writeback pushes one whole page to the FUSE layer. Lock held.
func (pc *PageCache) writeback(ctx store.Ctx, pg *page) error {
	pc.s.Writebacks++
	pc.s.WritebackBytes += pc.pageSize()
	if err := pc.cc.writeRange(ctx, pg.key.file, pg.key.idx*pc.pageSize(), pg.data); err != nil {
		return err
	}
	pg.dirty = false
	return nil
}

// Read copies [off, off+len(buf)) of file into buf through the page cache.
func (pc *PageCache) Read(ctx store.Ctx, file string, off int64, buf []byte) error {
	pc.cc.env.Lock(ctx)
	defer pc.cc.env.Unlock(ctx)
	ps := pc.pageSize()
	for len(buf) > 0 {
		key := pageKey{file, off / ps}
		poff := off % ps
		pg, ok := pc.entries[key]
		if ok {
			pc.s.Hits++
			pc.lru.MoveToFront(pg.lru)
		} else {
			var err error
			pg, err = pc.fault(ctx, key, true)
			if err != nil {
				return err
			}
		}
		n := copy(buf, pg.data[poff:])
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// Write stores data into file at off: the page copy is updated and the
// whole page is pushed through to the FUSE layer immediately
// (write-through, matching the paper's §III-D write path).
func (pc *PageCache) Write(ctx store.Ctx, file string, off int64, data []byte) error {
	pc.cc.env.Lock(ctx)
	defer pc.cc.env.Unlock(ctx)
	ps := pc.pageSize()
	for len(data) > 0 {
		key := pageKey{file, off / ps}
		poff := off % ps
		n := int(ps - poff)
		if n > len(data) {
			n = len(data)
		}
		pg, ok := pc.entries[key]
		if ok {
			pc.s.Hits++
			pc.lru.MoveToFront(pg.lru)
		} else {
			// Full-page overwrites skip the read-fill.
			fill := !(poff == 0 && int64(n) == ps)
			var err error
			pg, err = pc.fault(ctx, key, fill)
			if err != nil {
				return err
			}
		}
		copy(pg.data[poff:], data[:n])
		if err := pc.writeback(ctx, pg); err != nil {
			return err
		}
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// Sync pushes the file's dirty state out: with write-through pages the
// page layer is already clean, so Sync asks the FUSE layer to flush the
// file's dirty chunks to the store (msync + fsync semantics). The through
// flag is kept for callers that only want the page-layer guarantee.
func (pc *PageCache) Sync(ctx store.Ctx, file string, through bool) error {
	pc.cc.env.Lock(ctx)
	var dirty []*page
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		if pg := el.Value.(*page); pg.key.file == file && pg.dirty {
			dirty = append(dirty, pg)
		}
	}
	for _, pg := range dirty {
		if err := pc.writeback(ctx, pg); err != nil {
			pc.cc.env.Unlock(ctx)
			return err
		}
	}
	pc.cc.env.Unlock(ctx)
	if through {
		return pc.cc.Flush(ctx, file)
	}
	return nil
}

// Drop discards all pages of file (dirty pages are discarded; callers Sync
// first if they need them).
func (pc *PageCache) Drop(file string) {
	pc.cc.env.Lock(nil)
	defer pc.cc.env.Unlock(nil)
	var victims []*page
	for k, pg := range pc.entries {
		if k.file == file {
			victims = append(victims, pg)
		}
	}
	for _, pg := range victims {
		delete(pc.entries, pg.key)
		pc.lru.Remove(pg.lru)
	}
}

// Resident returns how many pages of file are cached.
func (pc *PageCache) Resident(file string) int {
	pc.cc.env.Lock(nil)
	defer pc.cc.env.Unlock(nil)
	n := 0
	for k := range pc.entries {
		if k.file == file {
			n++
		}
	}
	return n
}
