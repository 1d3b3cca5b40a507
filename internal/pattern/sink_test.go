package pattern

import (
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
)

// sinkEngine wires a pattern sink behind a table sink on one engine, the
// way the front ends do, so Apply reads the table pass's resolution.
func sinkEngine(t *testing.T) (*shadow.Table, *record.Engine, *Sink) {
	t.Helper()
	table := shadow.NewTable()
	eng := record.NewEngine(record.NewTableSink(table))
	s := NewSink(table)
	eng.AddSink(s)
	return table, eng, s
}

func insert(t *testing.T, table *shadow.Table, id int, base memsim.Addr, label string) {
	t.Helper()
	if _, err := table.Insert(&memsim.Alloc{ID: id, Base: base, Size: 4096, Kind: memsim.Managed, Label: label}, "test"); err != nil {
		t.Fatal(err)
	}
}

// sweep records n 8-byte accesses by dev starting at base, stride apart.
func sweep(eng *record.Engine, dev machine.Device, base memsim.Addr, n int, stride int64) {
	for k := 0; k < n; k++ {
		eng.Record(dev, base+memsim.Addr(int64(k)*stride), 8, memsim.Read)
	}
}

func TestSinkNewSpanStartsFreshStreams(t *testing.T) {
	table, eng, s := sinkEngine(t)
	insert(t, table, 0, 0x10000, "a")
	sweep(eng, machine.GPU, 0x10000, 20, 8)
	eng.Flush()
	eng.Locked(func() { s.BeginSpan("k1") })
	sweep(eng, machine.GPU, 0x10000, 20, 64)
	eng.Flush()
	eng.Locked(func() { s.BeginSpan("k2") }) // a span with no accesses adds no rows
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want one per span", rows)
	}
	if rows[0].SpanSeq != 0 || rows[0].Result.Class != Sequential || rows[0].Result.Samples != 19 {
		t.Errorf("span 0 row = %+v, want a sequential stream of 19 samples", rows[0])
	}
	if rows[1].SpanSeq != 1 || rows[1].Span != "k1" || rows[1].Result.Class != Strided || rows[1].Result.Samples != 19 {
		t.Errorf("span 1 row = %+v, want a fresh strided stream of 19 samples", rows[1])
	}
}

func TestSinkBothDevicesOnOneEntry(t *testing.T) {
	table, eng, s := sinkEngine(t)
	insert(t, table, 0, 0x10000, "a")
	for k := 0; k < 20; k++ {
		// Interleaved: the CPU walks unit-stride, the GPU a column.
		eng.Record(machine.CPU, 0x10000+memsim.Addr(8*k), 8, memsim.Write)
		eng.Record(machine.GPU, 0x10000+memsim.Addr(128*k), 8, memsim.Read)
	}
	eng.Flush()
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want one per device", rows)
	}
	if rows[0].Dev != machine.CPU || rows[0].Result.Class != Sequential {
		t.Errorf("CPU row = %+v, want sequential", rows[0])
	}
	if rows[1].Dev != machine.GPU || rows[1].Result.Class != Strided || rows[1].Result.Stride != 128 {
		t.Errorf("GPU row = %+v, want strided by 128", rows[1])
	}
}

func TestSinkFreedThenReusedRange(t *testing.T) {
	table, eng, s := sinkEngine(t)
	insert(t, table, 0, 0x10000, "old")
	sweep(eng, machine.GPU, 0x10000, 12, 8)
	eng.Flush()
	eng.Locked(func() {
		table.MarkFreed(0)
		table.DropFreed()
	})
	insert(t, table, 1, 0x10000, "new") // same range, new entry
	sweep(eng, machine.GPU, 0x10000, 30, 32)
	eng.Flush()
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want one per allocation", rows)
	}
	if rows[0].Alloc != "old" || rows[0].AllocID != 0 || rows[0].Result.Samples != 11 {
		t.Errorf("old allocation row = %+v, want 11 samples", rows[0])
	}
	if rows[1].Alloc != "new" || rows[1].AllocID != 1 || rows[1].Result.Samples != 29 || rows[1].Result.Stride != 32 {
		t.Errorf("reused-range row = %+v, want its own stream of 29 samples strided by 32", rows[1])
	}
}

func TestSinkRangeRecordsAndUntracked(t *testing.T) {
	table, eng, s := sinkEngine(t)
	insert(t, table, 0, 0x10000, "a")
	insert(t, table, 1, 0x11000, "b") // adjacent: a run crosses from a into b
	eng.RecordRange(machine.GPU, 0x10000+4096-8*10, 20, 8, 8, memsim.Read)
	eng.Record(machine.GPU, 0x50, 8, memsim.Read) // untracked
	eng.Flush()
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want the run split across both allocations", rows)
	}
	if rows[0].Alloc != "a" || rows[0].Result.Samples != 9 || rows[1].Alloc != "b" || rows[1].Result.Samples != 9 {
		t.Errorf("rows = %+v, want 9 samples on each side of the boundary", rows)
	}
}

// TestSinkOutOfRangeDevice keeps streams of a device machine does not
// know (only a malformed wire stream carries one) apart from the dense
// per-entry slots.
func TestSinkOutOfRangeDevice(t *testing.T) {
	table := shadow.NewTable()
	insert(t, table, 0, 0x10000, "a")
	s := NewSink(table)
	odd := machine.NumDevices + 3
	var batch []shadow.Access
	for k := 0; k < 10; k++ {
		batch = append(batch,
			shadow.Access{Dev: odd, Kind: memsim.Read, Size: 8, Addr: 0x10000 + memsim.Addr(16*k)},
			shadow.Access{Dev: machine.CPU, Kind: memsim.Read, Size: 8, Addr: 0x10000 + memsim.Addr(8*k)})
	}
	s.Apply(batch, nil)
	rows := s.Rows()
	if len(rows) != 2 || rows[0].Dev != machine.CPU || rows[1].Dev != odd {
		t.Fatalf("rows = %+v, want a CPU stream and a separate out-of-range-device stream", rows)
	}
	if rows[0].Result.Samples != 9 || rows[1].Result.Samples != 9 {
		t.Errorf("rows = %+v, want 9 samples each", rows)
	}
}
