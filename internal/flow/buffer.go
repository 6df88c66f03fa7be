package flow

// Buffer is the columnar (structure-of-arrays) form of a flow-record
// batch: one slice per Record field, index-aligned, so row i of the
// buffer is the record gathered from every column at i. The extraction
// pipeline buffers each measurement interval's flows in this layout
// because all of its bulk operations are column-shaped — prefilter scans
// test one feature column at a time, the wire codec delta-packs each
// column independently, and an interval drain hands off whole columns —
// while the row form is only materialized for the handful of flows that
// survive prefiltering.
//
// Invariant: all columns have equal length (Len). Appending through the
// Buffer methods preserves it; code that assembles a Buffer by hand owns
// the invariant itself.
//
// Determinism: a Buffer is plain data with no maps or pointers shared
// across rows; every derived form (Records, Clone, the wire encoding)
// is a pure function of the column contents and their order.
type Buffer struct {
	SrcAddr  []uint32
	DstAddr  []uint32
	SrcPort  []uint16
	DstPort  []uint16
	Protocol []uint8
	TCPFlags []uint8
	Packets  []uint32
	Bytes    []uint64
	Start    []int64
	End      []int64
}

// Len returns the number of buffered rows.
func (b *Buffer) Len() int { return len(b.SrcAddr) }

// Append adds one record as a new row.
func (b *Buffer) Append(rec Record) {
	b.SrcAddr = append(b.SrcAddr, rec.SrcAddr)
	b.DstAddr = append(b.DstAddr, rec.DstAddr)
	b.SrcPort = append(b.SrcPort, rec.SrcPort)
	b.DstPort = append(b.DstPort, rec.DstPort)
	b.Protocol = append(b.Protocol, rec.Protocol)
	b.TCPFlags = append(b.TCPFlags, rec.TCPFlags)
	b.Packets = append(b.Packets, rec.Packets)
	b.Bytes = append(b.Bytes, rec.Bytes)
	b.Start = append(b.Start, rec.Start)
	b.End = append(b.End, rec.End)
}

// AppendRecords adds a batch of records as new rows, in order: the
// row→column transpose, one pass over recs storing into every column.
func (b *Buffer) AppendRecords(recs []Record) {
	m := len(recs)
	if m == 0 {
		return
	}
	b.Grow(m)
	n := b.Len()
	b.SrcAddr, b.DstAddr = b.SrcAddr[:n+m], b.DstAddr[:n+m]
	b.SrcPort, b.DstPort = b.SrcPort[:n+m], b.DstPort[:n+m]
	b.Protocol, b.TCPFlags = b.Protocol[:n+m], b.TCPFlags[:n+m]
	b.Packets, b.Bytes = b.Packets[:n+m], b.Bytes[:n+m]
	b.Start, b.End = b.Start[:n+m], b.End[:n+m]
	src, dst := b.SrcAddr[n:n+m], b.DstAddr[n:n+m]
	sport, dport := b.SrcPort[n:n+m], b.DstPort[n:n+m]
	proto, flags := b.Protocol[n:n+m], b.TCPFlags[n:n+m]
	pkts, bytes := b.Packets[n:n+m], b.Bytes[n:n+m]
	start, end := b.Start[n:n+m], b.End[n:n+m]
	for i := range recs {
		r := &recs[i]
		src[i], dst[i] = r.SrcAddr, r.DstAddr
		sport[i], dport[i] = r.SrcPort, r.DstPort
		proto[i], flags[i] = r.Protocol, r.TCPFlags
		pkts[i], bytes[i] = r.Packets, r.Bytes
		start[i], end[i] = r.Start, r.End
	}
}

// AppendBuffer adds every row of other to the end of b, in order.
// other is unchanged.
func (b *Buffer) AppendBuffer(other *Buffer) {
	b.Grow(other.Len())
	b.SrcAddr = append(b.SrcAddr, other.SrcAddr...)
	b.DstAddr = append(b.DstAddr, other.DstAddr...)
	b.SrcPort = append(b.SrcPort, other.SrcPort...)
	b.DstPort = append(b.DstPort, other.DstPort...)
	b.Protocol = append(b.Protocol, other.Protocol...)
	b.TCPFlags = append(b.TCPFlags, other.TCPFlags...)
	b.Packets = append(b.Packets, other.Packets...)
	b.Bytes = append(b.Bytes, other.Bytes...)
	b.Start = append(b.Start, other.Start...)
	b.End = append(b.End, other.End...)
}

// AppendRow adds row i of other to the end of b.
func (b *Buffer) AppendRow(other *Buffer, i int) {
	b.SrcAddr = append(b.SrcAddr, other.SrcAddr[i])
	b.DstAddr = append(b.DstAddr, other.DstAddr[i])
	b.SrcPort = append(b.SrcPort, other.SrcPort[i])
	b.DstPort = append(b.DstPort, other.DstPort[i])
	b.Protocol = append(b.Protocol, other.Protocol[i])
	b.TCPFlags = append(b.TCPFlags, other.TCPFlags[i])
	b.Packets = append(b.Packets, other.Packets[i])
	b.Bytes = append(b.Bytes, other.Bytes[i])
	b.Start = append(b.Start, other.Start[i])
	b.End = append(b.End, other.End[i])
}

// Slice returns rows [lo, hi) of b as a view sharing b's memory. The
// view's columns are capped at hi, so appending to the view copies
// rather than overwriting b's later rows.
func (b *Buffer) Slice(lo, hi int) Buffer {
	return Buffer{
		SrcAddr:  b.SrcAddr[lo:hi:hi],
		DstAddr:  b.DstAddr[lo:hi:hi],
		SrcPort:  b.SrcPort[lo:hi:hi],
		DstPort:  b.DstPort[lo:hi:hi],
		Protocol: b.Protocol[lo:hi:hi],
		TCPFlags: b.TCPFlags[lo:hi:hi],
		Packets:  b.Packets[lo:hi:hi],
		Bytes:    b.Bytes[lo:hi:hi],
		Start:    b.Start[lo:hi:hi],
		End:      b.End[lo:hi:hi],
	}
}

// Grow reserves capacity for n additional rows in every column. A
// column that is short grows to at least twice its capacity, so a
// buffer filled by repeated appends copies each row O(1) times on
// average; an empty buffer grows to exactly n rows, so a one-shot
// transpose (BufferOf) holds no slack.
func (b *Buffer) Grow(n int) {
	if n <= 0 {
		return
	}
	need := b.Len() + n
	b.SrcAddr = growCol(b.SrcAddr, need)
	b.DstAddr = growCol(b.DstAddr, need)
	b.SrcPort = growCol(b.SrcPort, need)
	b.DstPort = growCol(b.DstPort, need)
	b.Protocol = growCol(b.Protocol, need)
	b.TCPFlags = growCol(b.TCPFlags, need)
	b.Packets = growCol(b.Packets, need)
	b.Bytes = growCol(b.Bytes, need)
	b.Start = growCol(b.Start, need)
	b.End = growCol(b.End, need)
}

// growCol returns col with capacity for need elements: col itself when
// it has room, else a copy with capacity max(need, 2*cap(col)).
func growCol[T any](col []T, need int) []T {
	if cap(col) >= need {
		return col
	}
	return append(make([]T, 0, max(need, 2*cap(col))), col...)
}

// Reset truncates every column to zero length, retaining capacity — the
// per-interval recycle, so a steady-state pipeline stops allocating for
// its buffer once the columns reach the interval's working size.
func (b *Buffer) Reset() {
	b.SrcAddr = b.SrcAddr[:0]
	b.DstAddr = b.DstAddr[:0]
	b.SrcPort = b.SrcPort[:0]
	b.DstPort = b.DstPort[:0]
	b.Protocol = b.Protocol[:0]
	b.TCPFlags = b.TCPFlags[:0]
	b.Packets = b.Packets[:0]
	b.Bytes = b.Bytes[:0]
	b.Start = b.Start[:0]
	b.End = b.End[:0]
}

// Record gathers row i into the row form.
func (b *Buffer) Record(i int) Record {
	return Record{
		SrcAddr:  b.SrcAddr[i],
		DstAddr:  b.DstAddr[i],
		SrcPort:  b.SrcPort[i],
		DstPort:  b.DstPort[i],
		Protocol: b.Protocol[i],
		TCPFlags: b.TCPFlags[i],
		Packets:  b.Packets[i],
		Bytes:    b.Bytes[i],
		Start:    b.Start[i],
		End:      b.End[i],
	}
}

// Feature returns the value of feature k at row i, widened to uint64 —
// the columnar counterpart of Record.Feature.
func (b *Buffer) Feature(i int, k FeatureKind) uint64 {
	switch k {
	case SrcIP:
		return uint64(b.SrcAddr[i])
	case DstIP:
		return uint64(b.DstAddr[i])
	case SrcPort:
		return uint64(b.SrcPort[i])
	case DstPort:
		return uint64(b.DstPort[i])
	case Proto:
		return uint64(b.Protocol[i])
	case Packets:
		return uint64(b.Packets[i])
	case Bytes:
		return b.Bytes[i]
	default:
		panic("flow: invalid feature kind")
	}
}

// Key returns row i's stable flow key, equal to Record.Key of the row.
func (b *Buffer) Key(i int) uint64 {
	return flowKey(b.SrcAddr[i], b.DstAddr[i], b.SrcPort[i], b.DstPort[i], b.Protocol[i])
}

// Records materializes the whole buffer in row form, preserving order.
// An empty buffer returns nil, matching the append-to-nil shape the
// sequential collection paths produce.
func (b *Buffer) Records() []Record {
	if b.Len() == 0 {
		return nil
	}
	out := make([]Record, b.Len())
	for i := range out {
		out[i] = b.Record(i)
	}
	return out
}

// Clone returns a deep copy sharing no memory with b. The zero-row case
// clones to the zero-value Buffer (nil columns), so clones of equal
// buffers are deeply equal regardless of retained capacity.
func (b *Buffer) Clone() Buffer {
	if b.Len() == 0 {
		return Buffer{}
	}
	var out Buffer
	out.AppendBuffer(b)
	return out
}

// BufferOf builds a Buffer holding recs, in order — the row→column
// transpose, used by tests and by callers bridging row-form batches into
// columnar APIs.
func BufferOf(recs []Record) Buffer {
	var b Buffer
	b.AppendRecords(recs)
	return b
}
