package sysprof

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHALValidates(t *testing.T) {
	p := HAL()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Nodes*p.CoresPerNode != 128 {
		t.Fatalf("HAL is a 128-core cluster, got %d", p.Nodes*p.CoresPerNode)
	}
	if p.PagesPerChunk() != 64 {
		t.Fatalf("paper: 256KB chunk = 64 4KB pages, got %d", p.PagesPerChunk())
	}
}

func TestBenchValidates(t *testing.T) {
	p := Bench()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.PagesPerChunk() != 64 {
		t.Fatalf("bench profile should keep 64 pages/chunk, got %d", p.PagesPerChunk())
	}
}

// TestProfilesPinDaemonWidth: every simulated profile keeps the 2012 FUSE
// daemon's request width of 2, whatever the fusecache default is, so the
// paper figures derived from them do not move with the real stack's gate.
func TestProfilesPinDaemonWidth(t *testing.T) {
	for _, p := range []Profile{HAL(), Bench(), HAL().Scaled(1.0 / 64)} {
		if p.FuseConcurrency != 2 {
			t.Errorf("%s: FuseConcurrency %d, want 2", p.Name, p.FuseConcurrency)
		}
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	p := HAL().Scaled(1.0 / 64)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.DRAMPerNode; got != 128*MiB {
		t.Fatalf("scaled DRAM = %d, want 128 MiB", got)
	}
	if p.SSD != HAL().SSD {
		t.Fatal("scaling must not alter device physics")
	}
}

func TestScaleSizePowerOfTwo(t *testing.T) {
	f := func(n uint32, fnum uint8) bool {
		size := int64(n)%(64*GiB) + 512
		frac := (float64(fnum%100) + 1) / 100
		v := scaleSize(size, frac)
		return v >= 512 && v&(v-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeTime(t *testing.T) {
	p := HAL()
	// 1.08e9 flops at 2.4 GHz x 0.45 flops/cycle = 1 s.
	if got := p.ComputeTime(1.08e9); got != time.Second {
		t.Fatalf("ComputeTime = %v, want 1s", got)
	}
	p.ComputeScale = 0.5
	if got := p.ComputeTime(1.08e9); got != 2*time.Second {
		t.Fatalf("scaled ComputeTime = %v, want 2s", got)
	}
}

func TestDeviceGapMatchesPaper(t *testing.T) {
	// Table I: DRAM is at least a factor of 40 faster than the tested SSDs
	// (the STREAM discussion cites this gap).
	if DDR3.ReadBW/IntelX25E.ReadBW < 40 {
		t.Fatalf("DRAM/SSD read bandwidth gap %v < 40", DDR3.ReadBW/IntelX25E.ReadBW)
	}
	// Fusion-io is at least 8.53x slower than DRAM (paper §I).
	if DDR3.ReadBW/FusionIODuo.ReadBW < 8.5 {
		t.Fatalf("DRAM/FusionIO gap %v < 8.5", DDR3.ReadBW/FusionIODuo.ReadBW)
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	p := HAL()
	p.ChunkSize = 3 * KiB // not a multiple of the 4 KiB page size
	p.PageSize = 4 * KiB
	if err := p.Validate(); err == nil {
		t.Fatal("expected misaligned chunk to fail validation")
	}
	p = HAL()
	p.SystemReserve = p.DRAMPerNode + 1
	if err := p.Validate(); err == nil {
		t.Fatal("expected oversized reserve to fail validation")
	}
}
