package flow

import (
	"math/bits"
	"reflect"
	"testing"
)

func bufTestRecords() []Record {
	return []Record{
		{SrcAddr: 0xC0A80001, DstAddr: 0x0A000001, SrcPort: 1234, DstPort: 445, Protocol: 6, TCPFlags: 0x12, Packets: 3, Bytes: 144, Start: 1000, End: 1500},
		{SrcAddr: 0xC0A80002, DstAddr: 0x0A000001, SrcPort: 5353, DstPort: 53, Protocol: 17, Packets: 1, Bytes: 64, Start: -250, End: -250},
		{SrcAddr: 0xFFFFFFFF, DstAddr: 0, SrcPort: 65535, DstPort: 0, Protocol: 255, TCPFlags: 255, Packets: 1<<32 - 1, Bytes: 1<<64 - 1, Start: 0, End: 0},
	}
}

// TestBufferRoundTrip: the row→column→row transpose is lossless, in
// both the per-row Record gather and the bulk Records form.
func TestBufferRoundTrip(t *testing.T) {
	recs := bufTestRecords()
	buf := BufferOf(recs)
	if buf.Len() != len(recs) {
		t.Fatalf("Len() = %d, want %d", buf.Len(), len(recs))
	}
	for i := range recs {
		if got := buf.Record(i); got != recs[i] {
			t.Fatalf("Record(%d) = %+v, want %+v", i, got, recs[i])
		}
	}
	if got := buf.Records(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("Records() = %+v, want %+v", got, recs)
	}
}

// TestBufferFeatureParity: Buffer.Feature agrees with Record.Feature
// for every feature kind and row.
func TestBufferFeatureParity(t *testing.T) {
	recs := bufTestRecords()
	buf := BufferOf(recs)
	for i, rec := range recs {
		for _, k := range AllFeatures {
			if got, want := buf.Feature(i, k), rec.Feature(k); got != want {
				t.Fatalf("Feature(%d, %v) = %d, want %d", i, k, got, want)
			}
		}
	}
}

// TestBufferAppendAndReset: the append forms agree, Reset keeps
// capacity, and appending after Reset reuses it.
func TestBufferAppendAndReset(t *testing.T) {
	recs := bufTestRecords()
	var one, batch Buffer
	for _, rec := range recs {
		one.Append(rec)
	}
	batch.AppendRecords(recs)
	if !reflect.DeepEqual(one, batch) {
		t.Fatal("Append and AppendRecords built different buffers")
	}
	var joined Buffer
	joined.AppendBuffer(&one)
	joined.AppendBuffer(&batch)
	if joined.Len() != 2*len(recs) {
		t.Fatalf("joined Len() = %d, want %d", joined.Len(), 2*len(recs))
	}
	if got := joined.Record(len(recs)); got != recs[0] {
		t.Fatalf("row after concatenation = %+v, want %+v", got, recs[0])
	}

	batch.Reset()
	if batch.Len() != 0 {
		t.Fatalf("Len() after Reset = %d", batch.Len())
	}
	if cap(batch.SrcAddr) == 0 {
		t.Fatal("Reset dropped column capacity")
	}
	base := &batch.SrcAddr[:1][0]
	batch.AppendRecords(recs)
	if &batch.SrcAddr[0] != base {
		t.Fatal("append after Reset reallocated despite retained capacity")
	}
}

// TestBufferGrow: growing reserves capacity across all columns so the
// following appends do not reallocate.
func TestBufferGrow(t *testing.T) {
	var buf Buffer
	buf.Grow(64)
	if cap(buf.SrcAddr) < 64 || cap(buf.Bytes) < 64 || cap(buf.End) < 64 {
		t.Fatalf("Grow(64) left capacities %d/%d/%d", cap(buf.SrcAddr), cap(buf.Bytes), cap(buf.End))
	}
	base := &buf.SrcAddr[:1][0]
	for i := 0; i < 64; i++ {
		buf.Append(Record{SrcAddr: uint32(i)})
	}
	if &buf.SrcAddr[0] != base {
		t.Fatal("appends within grown capacity reallocated")
	}
}

// TestBufferAppendGrowsGeometrically pins the allocations of filling an
// empty buffer in 512-row batches, through both batch appends: every
// column reallocates O(log n) times, not once per batch, which would
// copy the whole buffer on every batch. A one-shot transpose still
// sizes its columns exactly.
func TestBufferAppendGrowsGeometrically(t *testing.T) {
	const rows, batch = 100_000, 512
	recs := make([]Record, batch)
	chunk := BufferOf(recs)
	if cap(chunk.SrcAddr) != batch || cap(chunk.End) != batch {
		t.Fatalf("BufferOf(%d rows) capacities %d/%d, want exactly %d", batch, cap(chunk.SrcAddr), cap(chunk.End), batch)
	}
	// Ten columns, each doubling from one batch up to rows (nine times
	// here), plus one allocation per column of slack for the harness.
	limit := float64(10 * (bits.Len(rows/batch) + 2))
	for name, fill := range map[string]func(*Buffer){
		"AppendRecords": func(b *Buffer) { b.AppendRecords(recs) },
		"AppendBuffer":  func(b *Buffer) { b.AppendBuffer(&chunk) },
	} {
		allocs := testing.AllocsPerRun(1, func() {
			var b Buffer
			for b.Len() < rows {
				fill(&b)
			}
		})
		if allocs > limit {
			t.Errorf("%s: filling %d rows in %d-row batches allocated %.0f times, want at most %.0f", name, rows, batch, allocs, limit)
		}
	}
}

// TestBufferKeyAndSlice: Key agrees with Record.Key on every row, and a
// Slice is a view of its rows that appends cannot write through.
func TestBufferKeyAndSlice(t *testing.T) {
	recs := bufTestRecords()
	buf := BufferOf(recs)
	for i := range recs {
		if got, want := buf.Key(i), recs[i].Key(); got != want {
			t.Fatalf("Key(%d) = %#x, want %#x", i, got, want)
		}
	}
	view := buf.Slice(1, 2)
	if view.Len() != 1 || view.Record(0) != recs[1] {
		t.Fatalf("Slice(1, 2) = %+v, want row 1", view.Records())
	}
	view.Append(recs[0])
	if buf.Record(2) != recs[2] {
		t.Fatal("appending to a Slice overwrote the next row of its buffer")
	}
	var one Buffer
	one.AppendRow(&buf, 2)
	if !reflect.DeepEqual(one.Records(), recs[2:]) {
		t.Fatalf("AppendRow(2) = %+v, want %+v", one.Records(), recs[2:])
	}
}

// TestBufferClone: clones share no memory and the zero-row clone is the
// zero-value Buffer, so clones of equal buffers are deeply equal
// regardless of retained capacity.
func TestBufferClone(t *testing.T) {
	recs := bufTestRecords()
	buf := BufferOf(recs)
	clone := buf.Clone()
	if !reflect.DeepEqual(clone.Records(), recs) {
		t.Fatal("clone does not hold the original rows")
	}
	buf.SrcAddr[0] = 7
	if clone.SrcAddr[0] == 7 {
		t.Fatal("clone shares column memory with the original")
	}

	buf.Reset() // non-nil zero-length columns
	if got := buf.Clone(); !reflect.DeepEqual(got, Buffer{}) {
		t.Fatalf("zero-row clone = %+v, want zero value", got)
	}
	if buf.Records() != nil {
		t.Fatal("zero-row Records() not nil")
	}
}
