package main

import (
	"sync"
	"sync/atomic"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/sysprof"
)

// ssd is a calibrated emulated SSD: a benefactor.Backend that stores
// payloads in an inner backend and charges each data op the service time
// of a sysprof device profile (setup latency plus size over bandwidth).
//
// The device has a queue of lanes. An op waits for a free lane (queue
// wait), then the lane paces it to an absolute deadline. time.Sleep
// overshoots by about a millisecond on an idle host, the same order as a
// chunk's service time, and a host whose CPUs are shared with other busy
// processes can wake the lane tens of milliseconds late. So each lane
// carries its last overshoot forward and backdates its next op's start by
// that much, up to maxCarry.
// Back-to-back ops then chain deadline to deadline, and idle-serial ops
// cancel one op's overshoot against the next: achieved service time
// tracks configured time. Lateness beyond maxCarry is never repaid, so a
// device that falls behind (a host too busy to wake it in time) shows as
// a service ratio above 1.
//
// Metadata ops (Has, Delete) pass through without a service charge.
type ssd struct {
	inner benefactor.Backend
	prof  sysprof.DeviceProfile
	lanes chan *lane

	mu sync.Mutex
	c  devCounters
	// inService and busyFrom track the interval during which at least one
	// op holds a lane (busy time).
	inService int
	busyFrom  time.Time

	// tr, when set, receives a device span per op (traced runs).
	tr atomic.Pointer[tracer]
}

// maxCarry bounds the overshoot a lane repays by backdating its next op.
// It is well above the wake-up delays of a loaded host (a 5 ms bound left
// ratios of 1.25 with eight busy processes on two CPUs), and small next to
// a run's device time, so a device slower than its profile still falls
// behind by more than the service-ratio bound.
const maxCarry = 50 * time.Millisecond

// lane is one slot of the device queue.
type lane struct {
	deadline  time.Time     // deadline of the lane's last op
	overshoot time.Duration // how late the lane's last op finished, up to maxCarry
}

// devCounters are cumulative device counters; the difference of two
// snapshots covers a measured phase.
type devCounters struct {
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	QueueNanos            int64 // time ops waited for a free lane
	ServiceNanos          int64 // achieved time ops held a lane
	ConfiguredNanos       int64 // profile service time of the same ops
	BusyNanos             int64 // time at least one op held a lane
	// CarryNanos is the overshoot the lanes still carry forward, to be
	// repaid by backdating their next ops.
	CarryNanos   int64
	MaxInService int64
}

// newSSD wraps inner with prof's service times and a queue of nLanes.
func newSSD(inner benefactor.Backend, prof sysprof.DeviceProfile, nLanes int) *ssd {
	d := &ssd{inner: inner, prof: prof, lanes: make(chan *lane, nLanes)}
	for i := 0; i < nLanes; i++ {
		d.lanes <- &lane{}
	}
	return d
}

// readTime and writeTime are the profile's service times for n bytes.
func (d *ssd) readTime(n int) time.Duration {
	return d.prof.ReadLatency + time.Duration(float64(n)/d.prof.ReadBW*1e9)
}

func (d *ssd) writeTime(n int) time.Duration {
	return d.prof.WriteLatency + time.Duration(float64(n)/d.prof.WriteBW*1e9)
}

// serve runs io on a lane and holds the lane until the op's deadline.
// service returns the op's configured time once io has run (a read's
// size is known only afterwards).
func (d *ssd) serve(name string, io func() (service time.Duration)) {
	arrive := time.Now()
	ln := <-d.lanes
	start := time.Now()
	d.begin(start)

	origin := start
	if gap := start.Sub(ln.deadline); gap > 0 {
		origin = start.Add(-min(ln.overshoot, gap))
	}
	service := io()
	deadline := origin.Add(service)
	if wait := time.Until(deadline); wait > 0 {
		time.Sleep(wait)
	}
	end := time.Now()
	ln.deadline = deadline
	carried := ln.overshoot
	ln.overshoot = min(max(end.Sub(deadline), 0), maxCarry)
	d.finish(end, start.Sub(arrive), end.Sub(start), service, ln.overshoot-carried)
	d.lanes <- ln
	if t := d.tr.Load(); t != nil {
		t.record(name, layerDevice, start, end)
	}
}

func (d *ssd) begin(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inService == 0 {
		d.busyFrom = now
	}
	d.inService++
	if int64(d.inService) > d.c.MaxInService {
		d.c.MaxInService = int64(d.inService)
	}
}

func (d *ssd) finish(now time.Time, queued, held, service, carry time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.c.CarryNanos += int64(carry)
	d.inService--
	if d.inService == 0 {
		d.c.BusyNanos += int64(now.Sub(d.busyFrom))
	}
	d.c.QueueNanos += int64(queued)
	d.c.ServiceNanos += int64(held)
	d.c.ConfiguredNanos += int64(service)
}

// counters returns the cumulative counters, counting an open busy
// interval up to now.
func (d *ssd) counters() devCounters {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.c
	if d.inService > 0 {
		c.BusyNanos += int64(time.Since(d.busyFrom))
	}
	return c
}

// Put implements benefactor.Backend.
func (d *ssd) Put(id proto.ChunkID, data []byte) error {
	var err error
	d.serve("device.write", func() time.Duration {
		err = d.inner.Put(id, data)
		return d.writeTime(len(data))
	})
	d.mu.Lock()
	d.c.Writes++
	d.c.WriteBytes += int64(len(data))
	d.mu.Unlock()
	return err
}

// Get implements benefactor.Backend. A chunk that was never written costs
// the read setup latency only: the device has nothing to transfer.
func (d *ssd) Get(id proto.ChunkID) ([]byte, error) {
	var (
		data []byte
		err  error
	)
	d.serve("device.read", func() time.Duration {
		data, err = d.inner.Get(id)
		return d.readTime(len(data))
	})
	d.mu.Lock()
	d.c.Reads++
	d.c.ReadBytes += int64(len(data))
	d.mu.Unlock()
	return data, err
}

// Delete implements benefactor.Backend.
func (d *ssd) Delete(id proto.ChunkID) error { return d.inner.Delete(id) }

// Has implements benefactor.Backend.
func (d *ssd) Has(id proto.ChunkID) bool { return d.inner.Has(id) }

// RetainsPut implements benefactor.BufferPolicy by forwarding the inner
// backend's policy (the Store's conservative default when it has none), so
// the benefactor copies payloads exactly as it would without the device.
func (d *ssd) RetainsPut() bool {
	if bp, ok := d.inner.(benefactor.BufferPolicy); ok {
		return bp.RetainsPut()
	}
	return true
}

// PrivateGet implements benefactor.BufferPolicy; see RetainsPut.
func (d *ssd) PrivateGet() bool {
	if bp, ok := d.inner.(benefactor.BufferPolicy); ok {
		return bp.PrivateGet()
	}
	return false
}

// sub returns the counters accumulated between snapshot o and c.
func (c devCounters) sub(o devCounters) devCounters {
	return devCounters{
		Reads: c.Reads - o.Reads, Writes: c.Writes - o.Writes,
		ReadBytes: c.ReadBytes - o.ReadBytes, WriteBytes: c.WriteBytes - o.WriteBytes,
		QueueNanos: c.QueueNanos - o.QueueNanos, ServiceNanos: c.ServiceNanos - o.ServiceNanos,
		ConfiguredNanos: c.ConfiguredNanos - o.ConfiguredNanos, BusyNanos: c.BusyNanos - o.BusyNanos,
		CarryNanos: c.CarryNanos - o.CarryNanos, MaxInService: c.MaxInService,
	}
}

// add sums two devices' counters (MaxInService keeps the larger).
func (c devCounters) add(o devCounters) devCounters {
	s := devCounters{
		Reads: c.Reads + o.Reads, Writes: c.Writes + o.Writes,
		ReadBytes: c.ReadBytes + o.ReadBytes, WriteBytes: c.WriteBytes + o.WriteBytes,
		QueueNanos: c.QueueNanos + o.QueueNanos, ServiceNanos: c.ServiceNanos + o.ServiceNanos,
		ConfiguredNanos: c.ConfiguredNanos + o.ConfiguredNanos, BusyNanos: c.BusyNanos + o.BusyNanos,
		CarryNanos: c.CarryNanos + o.CarryNanos, MaxInService: c.MaxInService,
	}
	if o.MaxInService > s.MaxInService {
		s.MaxInService = o.MaxInService
	}
	return s
}

// serviceRatio is achieved over configured service time (1 = calibrated),
// net of the overshoot the lanes carry forward; 1 when the device did no
// work.
func (c devCounters) serviceRatio() float64 {
	if c.ConfiguredNanos == 0 {
		return 1
	}
	return float64(c.ServiceNanos-c.CarryNanos) / float64(c.ConfiguredNanos)
}
