package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"anomalyx/internal/flow"
)

// allocBound is the most a decode may allocate for an input of n bytes:
// a fixed allowance (the stream reader's two buffers) plus a constant
// per input byte. Anything sized from a count field an attacker claims
// instead of from the bytes present — a 64 Ki-entry field list from a
// 20-byte packet, say — overshoots it by orders of magnitude.
func allocBound(n int) uint64 { return 1<<17 + 128*uint64(n) }

// allocated returns the heap bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzNetflowV5 feeds hostile bytes to the v5 stream reader: truncated
// headers, counts larger than the payload, bad versions, garbage after
// valid packets. It may not panic or allocate beyond allocBound, it
// never yields more records than the bytes hold, and the records of
// every packet it accepts, rewritten by a Writer at that packet's boot
// time, read back equal — unless their times lie outside what a
// packet's header can carry, which the Writer must then refuse.
func FuzzNetflowV5(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, HeaderLen-1))
	valid := samplePacket()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs int
		n := allocated(func() {
			out, _ := NewReader(bytes.NewReader(data)).ReadAll()
			recs = len(out)
		})
		if n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if recs*RecordLen > len(data) {
			t.Fatalf("reader yielded %d records from %d bytes", recs, len(data))
		}

		// Split the accepted records by packet: a packet's first record
		// is the one read when the reader's index is back at 1.
		var pkts [][]flow.Record
		var boots []int64
		r := NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			if r.next == 1 {
				pkts, boots = append(pkts, nil), append(boots, r.bootMs)
			}
			pkts[len(pkts)-1] = append(pkts[len(pkts)-1], rec)
		}
		for i, pkt := range pkts {
			var buf bytes.Buffer
			w := NewWriter(&buf, boots[i])
			var werr error
			for _, rec := range pkt {
				if werr = w.Write(rec); werr != nil {
					break
				}
			}
			if werr != nil {
				if !errors.Is(werr, errTimeRange) {
					t.Fatalf("packet %d: rewriting: %v", i, werr)
				}
				continue
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := NewReader(&buf).ReadAll()
			if err != nil || !reflect.DeepEqual(back, pkt) {
				t.Fatalf("packet %d: %d records rewritten at boot %d read back as %d (err %v)", i, len(pkt), boots[i], len(back), err)
			}
		}
	})
}

// FuzzNetflowV9 feeds hostile packet sequences through one v9 decoder,
// so templates learned from one packet apply to the next: template
// field counts beyond the flowset, overlong and undersized flowsets,
// template redefinition, one-byte records, fields wider than eight
// bytes. Input framing: each packet is prefixed with its big-endian
// 16-bit length (a length past the end takes the rest). The decoder may
// not panic or allocate beyond allocBound, every record consumes at
// least one input byte, and every cached template at least eight.
func FuzzNetflowV9(f *testing.F) {
	f.Add([]byte{})
	enc := NewV9Encoder(1700000000000, 7)
	pkt, err := enc.Encode(v9SampleFlows())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framePackets(pkt, pkt[:len(pkt)-3]))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewV9Decoder()
		recs := 0
		n := allocated(func() {
			for rest := data; len(rest) > 0; {
				var pkt []byte
				pkt, rest = nextFrame(rest)
				out, _ := d.Decode(pkt)
				if len(out) > len(pkt) {
					t.Fatalf("%d records from a %d-byte packet", len(out), len(pkt))
				}
				recs += len(out)
			}
		})
		if n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (%d records)", len(data), n, recs)
		}
		if 8*len(d.templates) > len(data) {
			t.Fatalf("%d templates cached from %d bytes", len(d.templates), len(data))
		}
	})
}

// framePackets joins packets in FuzzNetflowV9's input framing.
func framePackets(pkts ...[]byte) []byte {
	var out []byte
	for _, p := range pkts {
		out = binary.BigEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
	}
	return out
}

// nextFrame splits the first packet off FuzzNetflowV9's input.
func nextFrame(data []byte) (pkt, rest []byte) {
	if len(data) < 2 {
		return data, nil
	}
	n := int(binary.BigEndian.Uint16(data))
	data = data[2:]
	if n > len(data) {
		return data, nil
	}
	return data[:n], data[n:]
}

// TestV9DecodeAllocationBoundedByBytes: a template of one one-byte field
// turns every byte of a data flowset into a 48-byte flow.Record, the
// decoder's worst amplification. Decoding ~20 KB of such records must
// stay within allocBound — it used to build each flowset's records in a
// slice of its own, grown by doubling, and then copy them into the
// packet's, ~280 bytes allocated per input byte.
func TestV9DecodeAllocationBoundedByBytes(t *testing.T) {
	pkt := binary.BigEndian.AppendUint16(nil, V9Version)
	pkt = append(pkt, make([]byte, v9HeaderLen-2)...)
	pkt = append(pkt, 0, 0, 0, 12, 1, 44, 0, 1, 0, V9FieldL4SrcPort, 0, 1) // template 300: one 1-byte field
	const n = 20000
	pkt = binary.BigEndian.AppendUint16(pkt, 300)
	pkt = binary.BigEndian.AppendUint16(pkt, 4+n)
	pkt = append(pkt, make([]byte, n)...)
	var recs []flow.Record
	var err error
	if a := allocated(func() { recs, err = NewV9Decoder().Decode(pkt) }); a > allocBound(len(pkt)) {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(pkt), a, allocBound(len(pkt)))
	}
	if err != nil || len(recs) != n {
		t.Fatalf("decoded %d records (err %v), want %d", len(recs), err, n)
	}
}
