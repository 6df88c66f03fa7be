package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// agentInterval drains one paper-default pipeline (5 features x 3
// clones x 1024 bins) after an interval of about nFlows generated
// records: the lean interval an agent ships every boundary.
func agentInterval(tb testing.TB, nFlows int) core.OpenInterval {
	tb.Helper()
	p, err := core.New(core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(gridtest.Trace(2, nFlows, -1)[1])
	return p.DrainOpenInterval()
}

// BenchmarkOpenIntervalCodec measures the agent→collector interval
// codec on an agent-shaped interval of about 3 200 flows, both the way
// the session runs it — an agent's encoder into a recycled payload, a
// collector's recycled decoder — and through the exported pair, which
// hands the caller fresh memory every call.
func BenchmarkOpenIntervalCodec(b *testing.B) {
	oi := agentInterval(b, 3200)
	var enc encoder
	frame := enc.appendOpenInterval(nil, oi)
	b.Logf("%d flows, %d-byte body", oi.Buffer.Len(), len(frame))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame = enc.appendOpenInterval(frame[:0], oi)
		}
	})
	b.Run("decode", func(b *testing.B) {
		var d intervalDecoder
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &reader{buf: frame}
			d.decodeOpenInterval(r)
			if r.expectEOF(); r.err() != nil {
				b.Fatal(r.err())
			}
		}
	})
	snap := expandOpenInterval(oi)
	lean, err := EncodeOpenIntervalSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode-exported", func(b *testing.B) {
		b.SetBytes(int64(len(lean)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeOpenIntervalSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-exported", func(b *testing.B) {
		b.SetBytes(int64(len(lean)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeOpenIntervalSnapshot(lean); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// refUvarint is the reader's uvarint as it was before the one-byte fast
// path: binary.Uvarint, then a minimal-length check. It returns the
// value, the offset after it, and the error text ("" when accepted).
func refUvarint(buf []byte, off int) (uint64, int, string) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, off, fmt.Sprintf("wire: malformed uvarint at byte %d", off)
	}
	minimal := 1
	for x := v; x >= 0x80; x >>= 7 {
		minimal++
	}
	if n != minimal {
		return 0, off, fmt.Sprintf("wire: non-minimal uvarint at byte %d", off)
	}
	return v, off + n, ""
}

// FuzzReaderUvarint: reading a byte string as consecutive uvarints
// yields the reference decoder's values, offsets, accept/reject
// decisions and error texts, up to and including the first rejection.
func FuzzReaderUvarint(f *testing.F) {
	f.Add([]byte{0x80, 0x00})
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02))
	f.Add(bytes.Repeat([]byte{0xff}, 10))
	f.Add([]byte{0x80})
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Add([]byte{0x05, 0x81, 0x01, 0x7f, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &reader{buf: data}
		for off := 0; ; {
			want, next, msg := refUvarint(data, off)
			got := r.uvarint()
			gotMsg := ""
			if r.err() != nil {
				gotMsg = r.err().Error()
			}
			if got != want || r.off != next || gotMsg != msg {
				t.Fatalf("at byte %d of %x: got (%d, off %d, %q), want (%d, off %d, %q)",
					off, data, got, r.off, gotMsg, want, next, msg)
			}
			if msg != "" {
				return
			}
			off = next
		}
	})
}

// refDictColumn is the dictionary encoder as it was before the radix
// argsort: copy the column, sort, compact, and binary-search every row.
func refDictColumn[V uint16 | uint32](b []byte, col []V) []byte {
	dict := slices.Compact(slices.Sorted(slices.Values(col)))
	b = binary.AppendUvarint(b, uint64(len(dict)))
	prev := uint64(0)
	for i, v := range dict {
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(v))
		} else {
			b = binary.AppendUvarint(b, uint64(v)-prev-1)
		}
		prev = uint64(v)
	}
	if len(dict) == 1 {
		return b
	}
	for _, v := range col {
		idx, _ := slices.BinarySearch(dict, v)
		b = binary.AppendUvarint(b, uint64(idx))
	}
	return b
}

// fuzzEncoder is shared across FuzzDictColumn inputs, so encoder scratch
// left over from a longer column is exercised too.
var fuzzEncoder encoder

// checkDictColumn encodes col with a fresh and with the shared encoder,
// requires both to match the reference bytes, and requires the decoder
// to give col back from them.
func checkDictColumn[V uint16 | uint32](t *testing.T, col []V, max uint64) {
	t.Helper()
	want := refDictColumn(nil, col)
	for _, e := range []*encoder{new(encoder), &fuzzEncoder} {
		if got := appendDictColumn(nil, col, e); !bytes.Equal(got, want) {
			t.Fatalf("column %v encodes to %x, want %x", col, got, want)
		}
	}
	if len(col) == 0 {
		return // no rows: the record section never carries the column
	}
	r := &reader{buf: want}
	back := decodeDictColumn(r, len(col), max, "col", []V(nil), new(recordScratch))
	if r.expectEOF(); r.err() != nil {
		t.Fatalf("column %v: decoding its encoding: %v", col, r.err())
	}
	if !slices.Equal(back, col) {
		t.Fatalf("column %v decodes back to %v", col, back)
	}
}

// FuzzDictColumn: the radix-argsort dictionary encoder writes exactly
// the bytes of the sort-and-search encoder it replaced, on uint16 and
// uint32 columns, and decoding them gives the column back. The first
// byte masks the values so that columns repeat values as real ones do;
// the rest are the column, read as uint16s and as uint32s.
func FuzzDictColumn(f *testing.F) {
	f.Add([]byte{0xff})
	f.Add([]byte{0x03, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4})
	f.Add(append([]byte{0x0f}, bytes.Repeat([]byte{9, 8, 7, 6, 5, 4, 3}, 40)...))
	f.Add(append([]byte{0xff}, bytes.Repeat([]byte{0xaa, 0x55, 0x01}, 100)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mask := uint32(data[0])<<24 | uint32(data[0])<<8 | 0xff
		data = data[1:]
		c16 := make([]uint16, len(data)/2)
		for i := range c16 {
			c16[i] = binary.LittleEndian.Uint16(data[2*i:]) & uint16(mask)
		}
		checkDictColumn(t, c16, math.MaxUint16)
		c32 := make([]uint32, len(data)/4)
		for i := range c32 {
			c32[i] = binary.LittleEndian.Uint32(data[4*i:]) & mask
		}
		checkDictColumn(t, c32, math.MaxUint32)
	})
}

// TestReadFrameHostileLength: a peer that claims a maxFrameLen interval
// frame and then sends ten bytes gets the truncation error, and the
// reader allocates for the bytes that arrived, not for the claim.
func TestReadFrameHostileLength(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrameLen)
	hdr = append(hdr, frameOpenInterval)
	src := io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(make([]byte, 10)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrameInto(src, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading frame payload") {
		t.Fatalf("got error %v, want the payload truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("reading a 10-byte body of a frame claiming %d bytes allocated %d bytes", maxFrameLen, grew)
	}
}

// TestReadFrameIntoReusesBuffer: frames that fit the buffer passed in
// are read into it, larger ones grow past it, and the payload is the
// frame's bytes either way.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	small, large := bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{9}, 3*frameGrowStep+5)
	for _, p := range [][]byte{small, large, small} {
		if err := writeFrame(w, frameOpenInterval, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	for i, want := range [][]byte{small, large, small} {
		typ, got, err := readFrameInto(&stream, buf)
		if err != nil || typ != frameOpenInterval || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d, %d bytes, err %v", i, typ, len(got), err)
		}
		if i != 1 && &got[0] != &buf[:1][0] {
			t.Fatalf("frame %d fits the %d-byte buffer but was read elsewhere", i, cap(buf))
		}
		if i == 1 {
			buf = got // carry the grown buffer, as a connection does
		}
	}
}

// minAllocs returns the fewest heap allocations, process-wide, that one
// call of measure made over tries calls, running setup unmeasured
// before each. The minimum filters out stray runtime allocations; like
// testing.AllocsPerRun it measures at GOMAXPROCS 1.
func minAllocs(tries int, setup, measure func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < tries; i++ {
		setup()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		measure()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	return least
}

// ackingPeer plays a collector that allocates nothing in steady state:
// it answers the Hello, then acks every interval frame it reads.
func ackingPeer(conn net.Conn) {
	defer conn.Close()
	br, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	if _, _, err := readFrame(br); err != nil {
		return
	}
	if writeFrame(w, frameHelloOK, appendBoundary(nil, 0)) != nil || w.Flush() != nil {
		return
	}
	var buf, ack []byte
	for {
		typ, payload, err := readFrameInto(br, buf)
		if err != nil || typ == frameBye {
			return
		}
		buf = payload
		r := reader{buf: payload}
		ack = appendBoundary(ack[:0], r.varint())
		if writeFrame(w, frameAck, ack) != nil || w.Flush() != nil {
			return
		}
	}
}

// TestShippingCloseSteadyStateAllocs pins the allocations of a warmed
// agent's interval close: a shipping engine over a paper-shaped pipeline,
// shipping through an Agent to a peer that acks every frame. One cycle
// submits the next interval's records, whose first record cuts the
// previous interval closed — drain, encode, write (waiting for the
// previous frame's ack), hand the drained memory back — and reads the
// close's stub report, then waits for the collector's ack of the frame
// it shipped. Measured at 1 allocation per cycle, outside the close: the
// stub report. The batch goes into a recycled column chunk, and the
// drain, the frame and the encode scratch all come back from the
// previous close.
//
// minAllocs counts every malloc in the process, so the ack wait keeps
// the peer's and the agent's reader's work inside the cycle that caused
// it. A ship that starts before its predecessor's ack finds the agent's
// free list empty and grows a second payload from scratch (~25
// allocations) in whichever try that happens, and a late ack's lock
// hand-off can add a sudog to another.
func TestShippingCloseSteadyStateAllocs(t *testing.T) {
	cfg := core.Config{Workers: 1}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			ackingPeer(conn)
		}
	}()
	a := newAgent(ln.Addr().String(), 0, cfg, AgentOptions{
		ReplayBuffer: 1,
		Retry:        RetryConfig{MaxAttempts: -1},
	})
	a.acks = make(chan int64, 1)
	if err := a.connect(); err != nil {
		p.Close()
		t.Fatal(err)
	}
	defer a.Close()
	eng, err := engine.NewShipping(engine.Config{IntervalLen: time.Second}, p, a.ShipOpenInterval)
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	defer eng.Close()

	recs := gridtest.Trace(2, 3200, -1)[1]
	const warm, tries = 4, 3
	batches := make([][]flow.Record, warm+tries+1)
	for i := range batches {
		batches[i] = make([]flow.Record, len(recs))
		for j, rec := range recs {
			rec.Start = int64(i+1)*1000 + int64(j%1000)
			rec.End = rec.Start
			batches[i][j] = rec
		}
	}
	next := 0
	cycle := func() {
		batch := batches[next]
		n, err := eng.SubmitBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		next++
		if n == 0 {
			return // the first batch closes nothing
		}
		for ; n > 0; n-- {
			<-eng.Reports()
		}
		// The batch's first record closed the interval ending at its own
		// start, and the close shipped it. The agent hands over its ack
		// line as a relay's merge loop takes it.
		for <-a.acks < batch[0].Start-1 {
		}
	}
	for i := 0; i <= warm; i++ {
		cycle()
	}
	const pinned = 1
	if got := minAllocs(tries, func() {}, cycle); got > pinned {
		t.Fatalf("a warmed shipping engine's close cycle allocated %d times, want at most %d", got, pinned)
	}
}

// TestCollectorDecodeAbsorbSteadyStateAllocs pins the allocations of the
// collector's per-frame work on a paper-shaped interval once warmed:
// decode the frame payload into a recycled decoder, absorb it into the
// pipeline. Measured at 0 allocations per frame when this test was
// written (the parent decode alone made about 110).
func TestCollectorDecodeAbsorbSteadyStateAllocs(t *testing.T) {
	oi := agentInterval(t, 3200)
	payload := appendVarint(nil, 1)
	payload = append(payload, codecVersion)
	payload = new(encoder).appendOpenInterval(payload, oi)
	primary, err := core.New(core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	var d intervalDecoder
	decodeAbsorb := func() {
		fr, err := d.decodePayload(frameOpenInterval, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.AbsorbOpenInterval(fr.oi); err != nil {
			t.Fatal(err)
		}
	}
	// Between frames the interval is emptied the way a close empties it,
	// keeping the memory.
	empty := func() { primary.RecycleOpenInterval(primary.DrainOpenInterval()) }
	for i := 0; i < 4; i++ {
		empty()
		decodeAbsorb()
	}
	const pinned = 0
	if got := minAllocs(3, empty, decodeAbsorb); got > pinned {
		t.Fatalf("a warmed decode + absorb allocated %d times, want at most %d", got, pinned)
	}
}

// TestDecodeRejectsUnusedEntryAfterFullColumn: the dictionary columns of
// a section share the decoder's used-entry marks, so the marks must
// start clear for every column. A SrcAddr column that uses both its
// entries is followed by a DstAddr column whose entry 1 no row names;
// the decoder must still refuse it.
func TestDecodeRejectsUnusedEntryAfterFullColumn(t *testing.T) {
	const rows = 2
	b := appendUvarint(nil, rows)
	for _, v := range []uint64{2, 5, 3, 0, 1, 2, 5, 3, 0, 0, 1, 1, 1, 1} {
		b = appendUvarint(b, v) // SrcAddr, DstAddr, then single-value ports
	}
	b = append(b, 6, 6, 0, 0) // Protocol, TCPFlags
	for _, v := range []uint64{1, 1, 40, 40, 0, 0, 0, 0} {
		b = appendUvarint(b, v) // Packets, Bytes, Start deltas, End durations
	}
	r := &reader{buf: b}
	decodeRecordsInto(r, new(flow.Buffer), new(recordScratch))
	if err := r.err(); err == nil || !strings.Contains(err.Error(), "DstAddr dictionary entry 1 unused") {
		t.Fatalf("got %v, want DstAddr's unused entry refused", err)
	}
}
