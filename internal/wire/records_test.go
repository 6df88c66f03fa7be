package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

func sectionRecords() []flow.Record {
	recs := make([]flow.Record, 200)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr:  uint32(i%13) + 0x0A000000,
			DstAddr:  uint32(i%7) + 0xC0A80000,
			SrcPort:  uint16(1024 + i%50),
			DstPort:  uint16([]int{80, 443, 445, 9100}[i%4]),
			Protocol: uint8(6 + i%2*11),
			TCPFlags: uint8(i % 3 * 16),
			Packets:  uint32(i%9) + 1,
			Bytes:    uint64(i%17)*40 + 40,
			Start:    int64(i) * 3,
			End:      int64(i)*3 + int64(i%5)*100,
		}
	}
	return recs
}

// decodeSection runs the columnar decoder over a full payload, expecting
// it to consume everything.
func decodeSection(b []byte) (flow.Buffer, error) {
	r := &reader{buf: b}
	var buf flow.Buffer
	decodeRecordsInto(r, &buf, new(recordScratch))
	r.expectEOF()
	return buf, r.err()
}

// encodeSection runs the columnar encoder over buf with fresh scratch.
func encodeSection(buf *flow.Buffer) []byte {
	return new(encoder).appendRecordSection(nil, buf)
}

// TestRecordSectionRoundTrip: decode∘encode is the identity on the
// column codec, for a realistic batch, edge values, and the empty
// buffer.
func TestRecordSectionRoundTrip(t *testing.T) {
	for _, recs := range [][]flow.Record{
		sectionRecords(),
		{{SrcAddr: math.MaxUint32, DstAddr: 0, SrcPort: math.MaxUint16, DstPort: 0,
			Protocol: 255, TCPFlags: 255, Packets: math.MaxUint32, Bytes: math.MaxUint64,
			Start: math.MinInt64, End: math.MaxInt64}},
		nil,
	} {
		buf := flow.BufferOf(recs)
		enc := encodeSection(&buf)
		dec, err := decodeSection(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, buf) {
			t.Fatalf("decoded buffer differs:\n got %+v\nwant %+v", dec, buf)
		}
		if re := encodeSection(&dec); !bytes.Equal(re, enc) {
			t.Fatal("re-encoding the decoded buffer changed the bytes")
		}
	}
}

// overflowSection builds a one-row record section whose SrcPort
// dictionary carries the value v — the regression payload: the row-wise
// codec this replaced accepted v = 0x1FFFF and silently truncated it to
// 65535.
func overflowSection(v uint64) []byte {
	b := appendUvarint(nil, 1) // one row
	for i := 0; i < 2; i++ {   // SrcAddr, DstAddr: single-value dicts
		b = appendUvarint(b, 1)
		b = appendUvarint(b, 9)
	}
	b = appendUvarint(b, 1) // SrcPort dictionary: one entry, the probe value
	b = appendUvarint(b, v)
	b = appendUvarint(b, 1) // DstPort
	b = appendUvarint(b, 4)
	b = append(b, 6, 0)     // Protocol, TCPFlags
	b = appendUvarint(b, 1) // Packets
	b = appendUvarint(b, 40)
	b = appendVarint(b, 0)
	return appendVarint(b, 0)
}

// TestDecodeRejectsRangeOverflow is the failing-first regression for the
// silent-truncation bug: a minimally-encoded varint overflowing its
// field's range must fail with a positioned error naming the field, not
// decode to a truncated value.
func TestDecodeRejectsRangeOverflow(t *testing.T) {
	if _, err := decodeSection(overflowSection(7)); err != nil {
		t.Fatalf("in-range payload rejected: %v", err)
	}
	_, err := decodeSection(overflowSection(0x1FFFF))
	if err == nil {
		t.Fatal("SrcPort 0x1FFFF accepted; the decoder must range-check, not truncate")
	}
	for _, want := range []string{"SrcPort", "overflows", "at byte"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("overflow error %q does not mention %q", err, want)
		}
	}

	// The overflow must also surface through the exported open-interval
	// decoder (an interval with no detectors is a zero count).
	payload := append([]byte{codecVersion, 0}, overflowSection(0x1FFFF)...)
	if _, err := DecodeOpenIntervalSnapshot(payload); err == nil ||
		!strings.Contains(err.Error(), "SrcPort") {
		t.Fatalf("public decode of overflow payload: %v", err)
	}

	// Packets is a per-row uvarint with the same uint32 range rule.
	b := appendUvarint(nil, 1)
	for i := 0; i < 4; i++ { // single-value dictionaries for the four keys
		b = appendUvarint(b, 1)
		b = appendUvarint(b, 1)
	}
	b = append(b, 6, 0)                    // Protocol, TCPFlags
	b = appendUvarint(b, math.MaxUint32+1) // Packets overflows uint32
	b = appendUvarint(b, 40)
	b = appendVarint(b, 0)
	b = appendVarint(b, 0)
	if _, err := decodeSection(b); err == nil || !strings.Contains(err.Error(), "Packets") {
		t.Fatalf("Packets overflow: %v", err)
	}
}

// TestDecodeRejectsNonCanonicalDictionaries: byte forms the encoder
// cannot produce — oversized or empty dictionaries, out-of-range
// indices, unused entries, gap overflows — are refused, keeping
// decode∘encode the identity on accepted inputs.
func TestDecodeRejectsNonCanonicalDictionaries(t *testing.T) {
	// section builds a full record section for `rows` rows whose SrcAddr
	// column is the given raw bytes; every later column is canonical, so
	// the decode outcome isolates the SrcAddr dictionary under test. (The
	// tail must be present either way: the decoder bounds the row count
	// by the remaining input before touching any column.)
	section := func(rows int, srcAddr []byte) []byte {
		b := appendUvarint(nil, uint64(rows))
		b = append(b, srcAddr...)
		for i := 0; i < 3; i++ { // DstAddr, SrcPort, DstPort: single-value dicts
			b = appendUvarint(b, 1)
			b = appendUvarint(b, 1)
		}
		for i := 0; i < rows; i++ {
			b = append(b, 6) // Protocol
		}
		for i := 0; i < rows; i++ {
			b = append(b, 0) // TCPFlags
		}
		for i := 0; i < rows; i++ {
			b = appendUvarint(b, 1) // Packets
		}
		for i := 0; i < rows; i++ {
			b = appendUvarint(b, 40) // Bytes
		}
		for i := 0; i < 2*rows; i++ {
			b = appendVarint(b, 0) // Start deltas, then End durations
		}
		return b
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = appendUvarint(b, v)
		}
		return b
	}
	if _, err := decodeSection(section(2, uv(2, 5, 3, 0, 1))); err != nil {
		t.Fatalf("canonical baseline rejected: %v", err)
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		// 2 dictionary entries for 1 row.
		{"dict larger than rows", section(1, uv(2, 5, 3, 0)), "dictionary size"},
		{"empty dict", section(1, uv(0)), "dictionary size"},
		// Both rows use entry 0; entry 1 ({5,9} via gap) is never referenced.
		{"unused entry", section(2, uv(2, 5, 3, 0, 0)), "unused"},
		// Only entries 0 and 1 exist.
		{"index out of range", section(2, uv(2, 5, 3, 0, 2)), "out of dictionary range"},
		// First entry at the uint32 ceiling: any successor overflows.
		{"gap overflow", section(2, uv(2, math.MaxUint32, 0, 0, 1)), "overflows"},
	}
	for _, tc := range cases {
		_, err := decodeSection(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestRecordSectionCompression pins the tentpole's size win on
// paper-shaped traffic: the columnar record section is at least 1.5×
// smaller than the row-wise encoding it replaced.
func TestRecordSectionCompression(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Intervals = 1
	cfg.BaseFlows = 6000
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	recs := tracegen.New(cfg).Interval(0)
	buf := flow.BufferOf(recs)
	col := len(encodeSection(&buf))
	row := 0
	for i := range recs {
		row += len(appendRowRecord(nil, &recs[i]))
	}
	t.Logf("record section: %d rows, row-wise %d B (%.1f B/flow), columnar %d B (%.1f B/flow), ratio %.2fx",
		len(recs), row, float64(row)/float64(len(recs)), col, float64(col)/float64(len(recs)),
		float64(row)/float64(col))
	if float64(row) < 1.5*float64(col) {
		t.Fatalf("columnar section %d B not >=1.5x smaller than row-wise %d B", col, row)
	}
}

// appendRowRecord is the retired row-wise record encoding, kept in the
// tests as the size baseline TestRecordSectionCompression measures
// against.
func appendRowRecord(b []byte, rec *flow.Record) []byte {
	b = appendUvarint(b, uint64(rec.SrcAddr))
	b = appendUvarint(b, uint64(rec.DstAddr))
	b = appendUvarint(b, uint64(rec.SrcPort))
	b = appendUvarint(b, uint64(rec.DstPort))
	b = append(b, rec.Protocol, rec.TCPFlags)
	b = appendUvarint(b, uint64(rec.Packets))
	b = appendUvarint(b, rec.Bytes)
	b = appendVarint(b, rec.Start)
	return appendVarint(b, rec.End)
}

// FuzzColumnarRecords fuzzes the columnar record-section decoder with
// the codec's core invariant: any byte string the decoder accepts must
// re-encode to exactly the same bytes (decode∘encode identity), and the
// decoded buffer must be internally consistent (equal column lengths).
func FuzzColumnarRecords(f *testing.F) {
	empty := flow.Buffer{}
	f.Add(encodeSection(&empty))
	few := flow.BufferOf(sectionRecords()[:5])
	f.Add(encodeSection(&few))
	many := flow.BufferOf(sectionRecords())
	f.Add(encodeSection(&many))
	f.Add(overflowSection(0x1FFFF)) // the truncation-bug payload: must stay rejected
	f.Add(overflowSection(65535))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf, err := decodeSection(data)
		if err != nil {
			return
		}
		n := buf.Len()
		for _, l := range []int{len(buf.DstAddr), len(buf.SrcPort), len(buf.DstPort),
			len(buf.Protocol), len(buf.TCPFlags), len(buf.Packets), len(buf.Bytes),
			len(buf.Start), len(buf.End)} {
			if l != n {
				t.Fatalf("decoded buffer has ragged columns: %d vs %d", l, n)
			}
		}
		if re := encodeSection(&buf); !bytes.Equal(re, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, re)
		}
	})
}
