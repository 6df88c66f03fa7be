package wire

import (
	"math"

	"anomalyx/internal/flow"
)

// The columnar record section. The flow buffer travels column by column
// — all SrcAddrs, then all DstAddrs, and so on — with a per-column
// scheme chosen for what each field's traffic actually looks like:
//
//   - SrcAddr, DstAddr (uint32) and SrcPort, DstPort (uint16):
//     dictionary-coded. The distinct values, sorted ascending, are
//     written as uvarint gaps (first value absolute, then gap-1 to the
//     predecessor, which makes strict ascent a property of the byte
//     form rather than a check), followed by one uvarint dictionary
//     index per row. Real intervals draw these columns from small pools
//     — a few thousand hosts, a handful of service ports — so indices
//     are 1–2 bytes where the raw values were 2–5.
//   - Protocol, TCPFlags (uint8): raw bytes, one per row.
//   - Packets (uint32), Bytes (uint64): absolute uvarints per row.
//   - Start (int64): a zigzag-varint delta chain seeded from 0 — flow
//     export is near-sorted by start time, so deltas are tiny.
//   - End (int64): the zigzag-varint duration End-Start per row.
//
// Canonicality is preserved: the dictionary form is unique for a given
// column (sorted distinct values, deterministic indices), and the
// decoder rejects everything the encoder cannot produce — non-minimal
// varints (the reader's global rule), dictionary values overflowing
// their field's range, empty or oversized dictionaries, out-of-range
// indices, and dictionary entries no row references. Together with the
// wrapping-arithmetic delta chains (encode and decode are exact
// inverses over all of int64), decode∘encode remains the identity on
// every accepted byte string, the FuzzColumnarRecords invariant. The
// range rejections are load-bearing beyond canonicality: the row-wise
// codec this replaces silently truncated a SrcPort of 0x1FFFF to 65535
// instead of failing.

// encoder is the interval encoder's reusable scratch: the dictionary
// columns' sort keys, their radix ping-pong buffer, and the per-row
// dictionary indices. An Agent keeps one across frames, so the
// steady-state encode allocates nothing beyond its output; the zero
// value is ready to use.
type encoder struct {
	keys, tmp []uint64
	idx       []uint32
	out       []byte // EncodeOpenIntervalSnapshot's output scratch
}

// appendRecordSection appends the columnar encoding of buf: the row
// count, then each column in the fixed order above. The empty buffer is
// just a zero count.
func (e *encoder) appendRecordSection(b []byte, buf *flow.Buffer) []byte {
	n := buf.Len()
	b = appendUvarint(b, uint64(n))
	if n == 0 {
		return b
	}
	b = appendDictColumn(b, buf.SrcAddr, e)
	b = appendDictColumn(b, buf.DstAddr, e)
	b = appendDictColumn(b, buf.SrcPort, e)
	b = appendDictColumn(b, buf.DstPort, e)
	b = append(b, buf.Protocol...)
	b = append(b, buf.TCPFlags...)
	for _, v := range buf.Packets {
		b = appendUvarint(b, uint64(v))
	}
	for _, v := range buf.Bytes {
		b = appendUvarint(b, v)
	}
	prev := int64(0)
	for _, v := range buf.Start {
		b = appendVarint(b, v-prev)
		prev = v
	}
	for i, v := range buf.End {
		b = appendVarint(b, v-buf.Start[i])
	}
	return b
}

// appendDictColumn dictionary-codes one unsigned column: dictionary
// size, the sorted distinct values as gap uvarints, then — unless the
// dictionary is a single value, which already determines every row —
// one dictionary index per row.
//
// One argsort yields both halves. Each row becomes the key
// value<<32 | row, radix-sorted by its value bits; a walk over the
// sorted keys then meets the distinct values in ascending order and
// hands every row its dictionary index on the way. No column copy, no
// comparison sort, no per-row search.
func appendDictColumn[V uint16 | uint32](b []byte, col []V, e *encoder) []byte {
	n := len(col)
	if n == 0 {
		return appendUvarint(b, 0)
	}
	e.keys, e.tmp = resize(e.keys, n), resize(e.tmp, n)
	for i, v := range col {
		e.keys[i] = uint64(v)<<32 | uint64(i)
	}
	keys := sortKeysByValue(e.keys, e.tmp)
	e.idx = resize(e.idx, n)
	idx := e.idx
	d := uint32(0)
	prev := keys[0] >> 32
	for _, k := range keys {
		if v := k >> 32; v != prev {
			d++
			prev = v
		}
		idx[uint32(k)] = d
	}
	b = appendUvarint(b, uint64(d)+1)
	prev = keys[0] >> 32
	b = appendUvarint(b, prev)
	for _, k := range keys[1:] {
		if v := k >> 32; v != prev {
			b = appendUvarint(b, v-prev-1)
			prev = v
		}
	}
	if d == 0 {
		return b
	}
	for _, x := range idx {
		b = appendUvarint(b, uint64(x))
	}
	return b
}

// sortKeysByValue orders keys by their upper 32 bits (the column value)
// with an LSD radix sort over only the value bytes that vary across the
// column — one or two passes for ports, at most four for addresses —
// and returns the sorted slice, which is keys or tmp (len(tmp) >=
// len(keys)).
func sortKeysByValue(keys, tmp []uint64) []uint64 {
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	src, dst := keys, tmp[:len(keys)]
	var offs [256]int
	for shift := uint(32); shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		clear(offs[:])
		for _, k := range src {
			offs[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range offs {
			offs[d], sum = sum, sum+c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[offs[d]] = k
			offs[d]++
		}
		src, dst = dst, src
	}
	return src
}

// recordScratch is the record decoder's reusable scratch: one
// dictionary's values and its entries' used marks.
type recordScratch struct {
	dict []uint32
	used []bool
}

// decodeDictColumn parses one dictionary-coded column of n rows whose
// values must fit in max (the field's range — the overflow range check
// decodeRecord lacked) into dst's memory when it is large enough. field
// names the column in errors.
func decodeDictColumn[V uint16 | uint32](r *reader, n int, max uint64, field string, dst []V, sc *recordScratch) []V {
	d := r.length(1)
	if r.err() != nil {
		return nil
	}
	if d == 0 || d > n {
		r.fail("%s dictionary size %d out of [1,%d]", field, d, n)
		return nil
	}
	sc.dict = resize(sc.dict, d)
	dict := sc.dict
	prev := uint64(0)
	for i := range dict {
		at := r.off
		g := r.uvarint()
		if r.err() != nil {
			return nil
		}
		v := g
		if i > 0 {
			if prev >= max || g > max-prev-1 {
				r.fail("%s dictionary value overflows %d at byte %d", field, max, at)
				return nil
			}
			v = prev + g + 1
		} else if v > max {
			r.fail("%s value %d overflows %d at byte %d", field, v, max, at)
			return nil
		}
		dict[i] = uint32(v)
		prev = v
	}
	col := resize(dst, n)
	if d == 1 {
		for i := range col {
			col[i] = V(dict[0])
		}
		return col
	}
	sc.used = resize(sc.used, d)
	used := sc.used
	clear(used)
	for i := range col {
		at := r.off
		idx := r.uvarint()
		if r.err() != nil {
			return nil
		}
		if idx >= uint64(d) {
			r.fail("%s index %d out of dictionary range %d at byte %d", field, idx, d, at)
			return nil
		}
		col[i] = V(dict[idx])
		used[idx] = true
	}
	// A dictionary entry no row references cannot come from the encoder
	// (it derives the dictionary from the rows), and accepting one would
	// break decode∘encode identity — the re-encode would drop it.
	for i, u := range used {
		if !u {
			r.fail("%s dictionary entry %d unused", field, i)
			return nil
		}
	}
	return col
}

// decodeRecordsInto parses a columnar record section into buf, reusing
// its columns' memory. Failures — truncation, range overflows,
// non-canonical dictionaries — land in the reader's error as usual, and
// leave buf's contents unspecified. A zero-row section leaves buf with
// zero-length columns (nil ones for a fresh buf).
func decodeRecordsInto(r *reader, buf *flow.Buffer, sc *recordScratch) {
	// Each row costs at least 6 bytes in the fixed-width columns alone
	// (Protocol, TCPFlags, and one byte each for Packets, Bytes, Start,
	// End), which bounds a forged row count.
	n := r.length(6)
	if n == 0 || r.err() != nil {
		buf.Reset()
		return
	}
	buf.SrcAddr = decodeDictColumn(r, n, math.MaxUint32, "SrcAddr", buf.SrcAddr, sc)
	buf.DstAddr = decodeDictColumn(r, n, math.MaxUint32, "DstAddr", buf.DstAddr, sc)
	buf.SrcPort = decodeDictColumn(r, n, math.MaxUint16, "SrcPort", buf.SrcPort, sc)
	buf.DstPort = decodeDictColumn(r, n, math.MaxUint16, "DstPort", buf.DstPort, sc)
	buf.Protocol = r.bytes(n, buf.Protocol)
	buf.TCPFlags = r.bytes(n, buf.TCPFlags)
	if r.err() != nil {
		return
	}
	buf.Packets = resize(buf.Packets, n)
	for i := range buf.Packets {
		at := r.off
		v := r.uvarint()
		if v > math.MaxUint32 {
			r.fail("Packets value %d overflows %d at byte %d", v, uint64(math.MaxUint32), at)
		}
		if r.err() != nil {
			return
		}
		buf.Packets[i] = uint32(v)
	}
	buf.Bytes = resize(buf.Bytes, n)
	for i := range buf.Bytes {
		buf.Bytes[i] = r.uvarint()
	}
	buf.Start = resize(buf.Start, n)
	prev := int64(0)
	for i := range buf.Start {
		prev += r.varint()
		buf.Start[i] = prev
	}
	buf.End = resize(buf.End, n)
	for i := range buf.End {
		buf.End[i] = buf.Start[i] + r.varint()
	}
}
