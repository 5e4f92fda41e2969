package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestMeterSnapshotAndReset(t *testing.T) {
	var m Meter
	m.TuplesProcessed.Add(10)
	m.PagesRead.Add(3)
	m.BytesSent.Add(4096)
	s := m.Snapshot()
	if s.TuplesProcessed != 10 || s.PagesRead != 3 || s.BytesSent != 4096 {
		t.Errorf("snapshot = %+v", s)
	}
	m.Reset()
	if s2 := m.Snapshot(); s2 != (Snapshot{}) {
		t.Errorf("after reset = %+v", s2)
	}
}

func TestMeterConcurrency(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.TupleWork.Add(1)
				m.PagesDecrypted.Add(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.TupleWork != 8000 || s.PagesDecrypted != 8000 {
		t.Errorf("concurrent adds lost updates: %+v", s)
	}
}

func TestSnapshotSubAdd(t *testing.T) {
	a := Snapshot{TupleWork: 100, PagesRead: 10, EPCFaults: 5}
	b := Snapshot{TupleWork: 40, PagesRead: 4, EPCFaults: 1}
	d := a.Sub(b)
	if d.TupleWork != 60 || d.PagesRead != 6 || d.EPCFaults != 4 {
		t.Errorf("Sub = %+v", d)
	}
	if got := d.Add(b); got != a {
		t.Errorf("Add(Sub) != identity: %+v", got)
	}
}

func TestPriceCPUScalesWithCores(t *testing.T) {
	m := DefaultModel()
	s := Snapshot{TupleWork: 1_000_000}
	one := m.PriceCPU(s, m.Storage, 1).Compute
	four := m.PriceCPU(s, m.Storage, 4).Compute
	if four >= one {
		t.Errorf("4 cores (%v) should beat 1 core (%v)", four, one)
	}
	if one/four < 3 || one/four > 5 {
		t.Errorf("expected ~4x scaling, got %v / %v", one, four)
	}
}

func TestPriceCPUDefaultsAndClamps(t *testing.T) {
	m := DefaultModel()
	s := Snapshot{TupleWork: 1000}
	if got, want := m.PriceCPU(s, m.Host, 0).Compute, m.PriceCPU(s, m.Host, m.Host.Cores).Compute; got != want {
		t.Errorf("cores=0 should use profile cores: %v vs %v", got, want)
	}
	if got, want := m.PriceCPU(s, CPUProfile{TupleUnit: time.Nanosecond}, -3).Compute, 1000*time.Nanosecond; got != want {
		t.Errorf("negative cores should clamp to 1: %v", got)
	}
}

func TestStorageSlowerThanHost(t *testing.T) {
	m := DefaultModel()
	s := Snapshot{TupleWork: 1_000_000, PagesDecrypted: 100, MerkleHashes: 500}
	host := m.PriceCPU(s, m.Host, 1)
	storage := m.PriceCPU(s, m.Storage, 1)
	if storage.Total() <= host.Total() {
		t.Errorf("ARM storage (%v) must be slower than x86 host (%v) per core", storage.Total(), host.Total())
	}
}

// TestPrice pins the one pricing function over the placements of the five
// Table 2 modes: BatchTransition lands on exactly the TEE sides, the other
// TEE terms on every side, RPMB reads and writes each at their own rate in
// Freshness, StorageCores 0 means the profile's cores, and the link prices
// the host's protocol bytes.
func TestPrice(t *testing.T) {
	m := DefaultModel()
	side := Snapshot{
		TupleWork: 64_000, Batches: 10, PagesRead: 32, PagesDecrypted: 32, MerkleHashes: 96,
		EnclaveTransitions: 10, EPCFaults: 2, WorldSwitches: 3, RPMBReads: 1, RPMBWrites: 2,
		BytesSent: 1000, BytesReceived: 3000,
	}
	rest := 10*m.TEE.EnclaveTransition + 2*m.TEE.EPCFault + 3*m.TEE.WorldSwitch
	rpmb := 1*m.TEE.RPMBRead + 2*m.TEE.RPMBWrite
	batch := 10 * m.TEE.BatchTransition
	for _, tc := range []struct {
		mode string
		at   Placement
	}{
		{"hons", Placement{}},
		{"vcs", Placement{}},
		{"hos", Placement{HostTEE: true}},
		{"scs", Placement{HostTEE: true, StorageTEE: true}},
		{"sos", Placement{StorageTEE: true}},
		{"scs-4-cores", Placement{HostTEE: true, StorageTEE: true, StorageCores: 4}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			q := m.Price(side, side, 6, tc.at)
			for _, c := range []struct {
				name  string
				got   SideCost
				cpu   SideCost
				inTEE bool
			}{
				{"host", q.Host, m.PriceCPU(side, m.Host, 1), tc.at.HostTEE},
				{"storage", q.Storage, m.PriceCPU(side, m.Storage, tc.at.StorageCores), tc.at.StorageTEE},
			} {
				wantTEE := rest
				if c.inTEE {
					wantTEE += batch
				}
				if c.got.TEE != wantTEE {
					t.Errorf("%s TEE = %v, want %v (in TEE: %v)", c.name, c.got.TEE, wantTEE, c.inTEE)
				}
				if c.got.Freshness != c.cpu.Freshness+rpmb {
					t.Errorf("%s Freshness = %v, want Merkle %v + RPMB %v", c.name, c.got.Freshness, c.cpu.Freshness, rpmb)
				}
				if c.got.Compute != c.cpu.Compute || c.got.PageIO != c.cpu.PageIO || c.got.Decrypt != c.cpu.Decrypt {
					t.Errorf("%s CPU terms = %+v, want %+v", c.name, c.got, c.cpu)
				}
			}
			if want := m.PriceLink(4000, 6); q.Transfer != want {
				t.Errorf("Transfer = %v, want %v", q.Transfer, want)
			}
		})
	}
	if a, b := m.Price(Snapshot{}, side, 0, Placement{}), m.Price(Snapshot{}, side, 0, Placement{StorageCores: m.Storage.Cores}); a != b {
		t.Errorf("StorageCores 0 priced %+v, want the profile's %d cores: %+v", a.Storage, m.Storage.Cores, b.Storage)
	}
}

func TestPriceLink(t *testing.T) {
	m := DefaultModel()
	got := m.PriceLink(1000, 2)
	want := 1000*m.Link.PerByte + 2*m.Link.PerMessage
	if got != want {
		t.Errorf("PriceLink = %v, want %v", got, want)
	}
}

func TestQueryCostOverlap(t *testing.T) {
	q := QueryCost{
		Host:     SideCost{Compute: 10 * time.Millisecond},
		Storage:  SideCost{Compute: 20 * time.Millisecond},
		Transfer: 5 * time.Millisecond,
	}
	// Transfer fully overlaps the storage phase.
	if got := q.Total(); got != 30*time.Millisecond {
		t.Errorf("overlapped total = %v, want 30ms", got)
	}
	q.Transfer = 25 * time.Millisecond
	// 5ms of transfer pokes out beyond the storage phase.
	if got := q.Total(); got != 35*time.Millisecond {
		t.Errorf("partially overlapped total = %v, want 35ms", got)
	}
}

func TestSideCostTotal(t *testing.T) {
	c := SideCost{Compute: 1, PageIO: 2, Decrypt: 3, Freshness: 4, TEE: 5}
	if c.Total() != 15 {
		t.Errorf("Total = %v", c.Total())
	}
}

func TestDefaultModelSanity(t *testing.T) {
	m := DefaultModel()
	if m.Storage.TupleUnit <= m.Host.TupleUnit {
		t.Error("storage CPU must be slower per tuple than host")
	}
	if m.TEE.EPCLimitBytes != 96<<20 {
		t.Errorf("EPC limit = %d, want 96 MiB", m.TEE.EPCLimitBytes)
	}
	if m.Storage.Cores != 16 || m.Host.Cores != 10 {
		t.Errorf("core counts = %d/%d", m.Host.Cores, m.Storage.Cores)
	}
}
