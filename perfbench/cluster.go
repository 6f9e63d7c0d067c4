package main

import (
	"fmt"
	"strings"
	"time"

	"nvmalloc/internal/benefactor"
	"nvmalloc/internal/manager"
	"nvmalloc/internal/obs"
	"nvmalloc/internal/proto"
	"nvmalloc/internal/rpc"
	"nvmalloc/internal/sysprof"
)

// clusterConfig is the in-process deployment the workloads run against.
type clusterConfig struct {
	managers    int   // manager shards
	benefactors int   // benefactors, one emulated SSD each
	chunkSize   int64 // striping unit
	lanes       int   // device queue lanes per SSD
}

// defaultCluster is the benchmark's deployment: 2 manager shards, 4
// benefactors over Intel X25-E models, 256 KiB chunks (the nvmstore
// default), replication 1.
var defaultCluster = clusterConfig{managers: 2, benefactors: 4, chunkSize: 256 << 10, lanes: 4}

// benCapacity is each benefactor's contributed capacity. Memory is taken
// only as chunks are written; the figure just keeps placement from
// running out.
const benCapacity = 4 << 30

// cluster is a running loopback deployment.
type cluster struct {
	mgrs []*rpc.ManagerServer
	bens []*rpc.BenefactorServer
	devs []*ssd
	addr string // comma-joined manager addresses in shard order
}

// startCluster starts the manager shards, wires their peer lists, and
// registers the benefactors with every shard.
func startCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{}
	var addrs []string
	for i := 0; i < cfg.managers; i++ {
		m, err := rpc.NewManagerServerWith("127.0.0.1:0", cfg.chunkSize, manager.RoundRobin, rpc.ManagerConfig{
			Replication: 1,
			ShardIndex:  i,
			ShardCount:  cfg.managers,
			Obs:         obs.New(fmt.Sprintf("manager-%d", i)),
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start manager %d: %w", i, err)
		}
		c.mgrs = append(c.mgrs, m)
		addrs = append(addrs, m.Addr())
	}
	for i, m := range c.mgrs {
		if err := m.SetPeers(addrs); err != nil {
			c.close()
			return nil, fmt.Errorf("peers of manager %d: %w", i, err)
		}
	}
	c.addr = strings.Join(addrs, ",")
	for i := 0; i < cfg.benefactors; i++ {
		dev := newSSD(benefactor.NewMem(), sysprof.IntelX25E, cfg.lanes)
		b, err := rpc.NewBenefactorServer("127.0.0.1:0", c.addr, i, i, benCapacity, cfg.chunkSize, dev, time.Second)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start benefactor %d: %w", i, err)
		}
		c.bens = append(c.bens, b)
		c.devs = append(c.devs, dev)
	}
	return c, nil
}

// close stops every server.
func (c *cluster) close() {
	for _, b := range c.bens {
		b.Close()
	}
	for _, m := range c.mgrs {
		m.Close()
	}
}

// devices sums every SSD's cumulative counters.
func (c *cluster) devices() devCounters {
	var s devCounters
	for _, d := range c.devs {
		s = s.add(d.counters())
	}
	return s
}

// serverState is a cut of the servers' own registries and device counters.
type serverState struct {
	mgr []obs.Snapshot // one per shard
	ben []obs.Snapshot
	dev devCounters // summed over devices
}

func (c *cluster) snapshot() serverState {
	s := serverState{dev: c.devices()}
	for _, m := range c.mgrs {
		s.mgr = append(s.mgr, m.Obs().Reg.Snapshot())
	}
	for _, b := range c.bens {
		s.ben = append(s.ben, b.Obs().Reg.Snapshot())
	}
	return s
}

// managerOps are the metadata ops the benchmark reports per shard sum.
var managerOps = []proto.Op{
	proto.OpCreate, proto.OpLookup, proto.OpLink, proto.OpDerive,
	proto.OpRemap, proto.OpDelete, proto.OpExportRange, proto.OpRetainRefs,
	proto.OpLinkRefs, proto.OpReleaseRefs,
}

// benefactorOps are the data ops reported from benefactor registries.
var benefactorOps = []proto.Op{proto.OpGetChunk, proto.OpPutChunk, proto.OpPutPages, proto.OpCopyChunk}

// histDelta returns the observations histogram name gained between two
// snapshots of one registry.
func histDelta(after, before obs.Snapshot, name string) obs.HistogramSnapshot {
	a, b := after.Histograms[name], before.Histograms[name]
	if b.Count == 0 {
		return a
	}
	d := obs.HistogramSnapshot{Count: a.Count - b.Count, SumNanos: a.SumNanos - b.SumNanos, BoundsNanos: a.BoundsNanos}
	d.Counts = make([]int64, len(a.Counts))
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			d.Counts[i] -= b.Counts[i]
		}
	}
	return d
}

// mergedDelta sums histDelta over a set of registries (all shards, or all
// benefactors).
func mergedDelta(after, before []obs.Snapshot, name string) obs.HistogramSnapshot {
	var m obs.HistogramSnapshot
	for i := range after {
		m = m.Merge(histDelta(after[i], before[i], name))
	}
	return m
}
