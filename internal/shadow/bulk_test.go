package shadow

import (
	"math/rand"
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

// TestApplyBulkMatchesTab checks the SWAR lane math against the updateTab
// reference for every (device, kind, shadow byte) triple, at every lane
// position, and across tail lengths 0..40 so the 8-byte main loop and the
// scalar tail are both covered.
func TestApplyBulkMatchesTab(t *testing.T) {
	devs := []machine.Device{machine.CPU, machine.GPU}
	kinds := []memsim.AccessKind{memsim.Read, memsim.Write, memsim.ReadWrite}
	for _, dev := range devs {
		for _, kind := range kinds {
			tab := &updateTab[dev][kind]
			// All 256 byte values at all 8 lane positions: 256 lanes of 8
			// bytes, lane i holding value (i+pos)&0xFF.
			for n := 0; n <= 40; n++ {
				for seed := 0; seed < 256; seed += 7 {
					got := make([]byte, n)
					want := make([]byte, n)
					for i := range got {
						v := byte((seed + i*13) & 0xFF)
						got[i], want[i] = v, tab[v]
					}
					applyBulk(got, dev, kind)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("dev=%v kind=%v n=%d seed=%d byte %d: bulk %08b, tab %08b (in %08b)",
								dev, kind, n, seed, i, got[i], want[i], byte((seed+i*13)&0xFF))
						}
					}
				}
			}
			// Exhaustive over byte values with one full-lane buffer.
			got := make([]byte, 256)
			want := make([]byte, 256)
			for i := range got {
				got[i], want[i] = byte(i), tab[byte(i)]
			}
			applyBulk(got, dev, kind)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dev=%v kind=%v exhaustive byte %d: bulk %08b, tab %08b", dev, kind, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRecordAllCoalescingEquivalence fuzzes RecordAll against the
// per-access reference (one Record call per batch element, in order):
// random scalar batches full of sweeps, overlaps, dev/kind switches, and
// untracked addresses must leave byte-identical shadow state and the same
// untracked count whether they are applied coalesced or one at a time.
func TestRecordAllCoalescingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const words = 1 << 10
	newTab := func() *Table {
		tab := NewTable()
		if _, err := tab.InsertRange(0x10000, words*WordSize, "a", memsim.Managed, "test"); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.InsertRange(0x40000, words*WordSize, "b", memsim.Managed, "test"); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	devs := []machine.Device{machine.CPU, machine.GPU}
	kinds := []memsim.AccessKind{memsim.Read, memsim.Write, memsim.ReadWrite}
	for round := 0; round < 200; round++ {
		batch := make([]Access, 0, 256)
		base := memsim.Addr(0x10000)
		if rng.Intn(2) == 1 {
			base = 0x40000
		}
		addr := base + memsim.Addr(rng.Intn(words/2)*WordSize)
		dev, kind := devs[rng.Intn(2)], kinds[rng.Intn(3)]
		for len(batch) < cap(batch) {
			switch rng.Intn(10) {
			case 0: // switch device or kind
				dev, kind = devs[rng.Intn(2)], kinds[rng.Intn(3)]
			case 1: // jump within the entry (forward or back)
				addr = base + memsim.Addr(rng.Intn(words-8)*WordSize)
			case 2: // hop to the other entry
				if base == 0x10000 {
					base = 0x40000
				} else {
					base = 0x10000
				}
				addr = base + memsim.Addr(rng.Intn(words-8)*WordSize)
			case 3: // untracked access
				batch = append(batch, Access{Dev: dev, Kind: kind, Size: 4, Addr: 0x9000000})
				continue
			case 4: // overlapping re-read of the previous word
				if addr > base {
					addr -= WordSize
				}
			}
			size := int32(4)
			if rng.Intn(4) == 0 {
				size = 8
			}
			if int(addr-base)/WordSize >= words-2 {
				addr = base
			}
			batch = append(batch, Access{Dev: dev, Kind: kind, Size: size, Addr: addr})
			addr += memsim.Addr(size)
		}

		coalesced := newTab()
		_, gotUn := coalesced.RecordAll(batch, nil, nil)

		reference := newTab()
		refUn := 0
		for i := range batch {
			a := &batch[i]
			if !reference.Record(a.Dev, a.Addr, int64(a.Size), a.Kind) {
				refUn++
			}
		}
		if gotUn != refUn {
			t.Fatalf("round %d: untracked %d, reference %d", round, gotUn, refUn)
		}
		for _, baseAddr := range []memsim.Addr{0x10000, 0x40000} {
			g, w := coalesced.Find(baseAddr), reference.Find(baseAddr)
			for i := range g.Shadow {
				if g.Shadow[i] != w.Shadow[i] {
					t.Fatalf("round %d entry %#x word %d: coalesced %08b, reference %08b",
						round, baseAddr, i, g.Shadow[i], w.Shadow[i])
				}
			}
		}
	}
}
