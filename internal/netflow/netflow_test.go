package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"anomalyx/internal/flow"
)

// sampleBoot is samplePacket's device boot time: its export time
// 1196640000 s + 250 ms less its 3600000 ms of uptime.
const sampleBoot = int64(1196640000)*1000 + 250 - 3600000

// samplePacket returns a two-record v5 export packet, laid out field by
// field from the v5 format, including the fields flow.Record does not
// carry (next hop, interfaces, ToS, AS numbers, masks, engine, sampling).
func samplePacket() []byte {
	be := binary.BigEndian
	b := make([]byte, HeaderLen+2*RecordLen)
	be.PutUint16(b[0:], 5)          // version
	be.PutUint16(b[2:], 2)          // count
	be.PutUint32(b[4:], 3600000)    // sysUptime
	be.PutUint32(b[8:], 1196640000) // unixSecs
	be.PutUint32(b[12:], 250e6)     // unixNsecs
	be.PutUint32(b[16:], 42)        // flowSequence
	b[20], b[21] = 1, 2             // engine type, engine ID
	r := b[HeaderLen:]
	be.PutUint32(r[0:], 0x82380a0b) // srcAddr
	be.PutUint32(r[4:], 0x08080808) // dstAddr
	be.PutUint32(r[8:], 0x0a000001) // nextHop
	be.PutUint16(r[12:], 1)         // input
	be.PutUint16(r[14:], 2)         // output
	be.PutUint32(r[16:], 10)        // packets
	be.PutUint32(r[20:], 1200)      // octets
	be.PutUint32(r[24:], 3590000)   // first
	be.PutUint32(r[28:], 3599000)   // last
	be.PutUint16(r[32:], 51515)     // srcPort
	be.PutUint16(r[34:], 80)        // dstPort
	r[37], r[38], r[39] = 0x1b, 6, 0
	be.PutUint16(r[40:], 559)   // srcAS
	be.PutUint16(r[42:], 15169) // dstAS
	r[44], r[45] = 24, 16       // masks
	r = r[RecordLen:]
	be.PutUint32(r[0:], 1)
	be.PutUint32(r[4:], 2)
	be.PutUint32(r[16:], 1)
	be.PutUint32(r[20:], 40)
	be.PutUint32(r[24:], 3500000)
	be.PutUint32(r[28:], 3500001)
	be.PutUint16(r[32:], 53)
	be.PutUint16(r[34:], 53)
	r[38] = 17
	return b
}

// sampleFlows are samplePacket's records as flow.Records.
func sampleFlows() []flow.Record {
	return []flow.Record{
		{
			SrcAddr: 0x82380a0b, DstAddr: 0x08080808, SrcPort: 51515, DstPort: 80,
			Protocol: 6, TCPFlags: 0x1b, Packets: 10, Bytes: 1200,
			Start: sampleBoot + 3590000, End: sampleBoot + 3599000,
		},
		{
			SrcAddr: 1, DstAddr: 2, SrcPort: 53, DstPort: 53, Protocol: 17,
			Packets: 1, Bytes: 40, Start: sampleBoot + 3500000, End: sampleBoot + 3500001,
		},
	}
}

// writeAll encodes recs with a Writer at bootMs.
func writeAll(t testing.TB, bootMs int64, recs []flow.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, bootMs)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPacketRoundTrip: the Reader decodes a packet laid out by hand to
// its flow records, and a Writer at the packet's boot time re-encodes
// them to bytes that read back to the same records.
func TestPacketRoundTrip(t *testing.T) {
	got, err := NewReader(bytes.NewReader(samplePacket())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleFlows()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	enc := writeAll(t, sampleBoot, got)
	if len(enc) != HeaderLen+2*RecordLen {
		t.Fatalf("re-encoded length %d", len(enc))
	}
	back, err := NewReader(bytes.NewReader(enc)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != want[i] {
			t.Errorf("re-encoded record %d:\n got %+v\nwant %+v", i, back[i], want[i])
		}
	}
}

// TestDecodeErrors: every check the Reader makes, with its error.
func TestDecodeErrors(t *testing.T) {
	corrupt := func(f func(b []byte) []byte) []byte { return f(samplePacket()) }
	for _, c := range []struct {
		name string
		data []byte
		is   error  // sentinel the error wraps, if any
		text string // substring of the error
	}{
		{"short header", make([]byte, 10), nil, "truncated header"},
		{"bad version", corrupt(func(b []byte) []byte { b[1] = 9; return b }), ErrBadVersion, "version 9"},
		{"count 31", corrupt(func(b []byte) []byte { b[3] = 31; return b }), ErrBadCount, "count 31"},
		{"count 0", corrupt(func(b []byte) []byte { b[3] = 0; return b }), ErrBadCount, "count 0"},
		{"truncated body", corrupt(func(b []byte) []byte { return b[:len(b)-1] }), nil, "truncated packet body"},
	} {
		_, err := NewReader(bytes.NewReader(c.data)).Next()
		if err == nil || err == io.EOF || (c.is != nil && !errors.Is(err, c.is)) || !strings.Contains(err.Error(), c.text) {
			t.Errorf("%s: error %v, want %v containing %q", c.name, err, c.is, c.text)
		}
	}
}

// TestWriterPacketCounts: the Writer fills packets to MaxRecords in
// write order, stamps each header with its record count and the
// sequence number of its first flow, and sends the remainder as a
// final short packet.
func TestWriterPacketCounts(t *testing.T) {
	recs := make([]flow.Record, 2*MaxRecords+1)
	for i := range recs {
		recs[i] = flow.Record{SrcAddr: uint32(i), Start: sampleBoot, End: sampleBoot + int64(i)}
	}
	b := writeAll(t, sampleBoot, recs)
	for i, want := range []int{MaxRecords, MaxRecords, 1} {
		if len(b) < HeaderLen {
			t.Fatalf("packet %d missing", i)
		}
		count, seq := int(binary.BigEndian.Uint16(b[2:])), binary.BigEndian.Uint32(b[16:])
		if count != want || seq != uint32(i*MaxRecords) {
			t.Fatalf("packet %d: count %d, sequence %d; want %d, %d", i, count, seq, want, i*MaxRecords)
		}
		b = b[HeaderLen+count*RecordLen:]
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the last packet", len(b))
	}
}

// TestWriterRejectsOutOfRangeTimes: the Writer refuses a flow whose
// timestamps fall outside its device's uint32 uptime range, or whose
// export time the header's uint32 seconds cannot carry, instead of
// wrapping it into a different time: a flow 1 s before boot would be
// written as First = uint32(-1000) and read back 2^32 ms (~49.7 days)
// later.
func TestWriterRejectsOutOfRangeTimes(t *testing.T) {
	const boot = int64(1_000_000)
	for _, c := range []struct {
		name       string
		boot       int64
		start, end int64
	}{
		{"start before boot", boot, 999_000, 999_500},
		{"end before boot", boot, boot, boot - 1},
		{"end past the uptime range", boot, boot, boot + 1<<32},
		{"start past the uptime range", boot, boot + 1<<32, boot + 1<<32},
		{"export time before the epoch", -5000, -4000, -3000},
		{"export time after 2106", (math.MaxUint32 + 1) * 1000, (math.MaxUint32 + 1) * 1000, (math.MaxUint32 + 1) * 1000},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, c.boot)
		if err := w.Write(flow.Record{Start: c.start, End: c.end}); !errors.Is(err, errTimeRange) {
			t.Errorf("%s: Write returned %v, want %v", c.name, err, errTimeRange)
		}
		if err := w.Flush(); err != nil || buf.Len() != 0 {
			t.Errorf("%s: rejected flow left %d bytes (flush error %v)", c.name, buf.Len(), err)
		}
	}
	// The ranges' edges are in range, and so is a flow that starts
	// before the epoch but ends after it.
	for _, c := range []struct {
		boot  int64
		edges []flow.Record
	}{
		{boot, []flow.Record{{Start: boot, End: boot}, {Start: boot + math.MaxUint32, End: boot + math.MaxUint32}}},
		{-5000, []flow.Record{{Start: -4000, End: 0}, {Start: -5000, End: 1000}}},
		{math.MaxUint32*1000 - 10, []flow.Record{{Start: math.MaxUint32*1000 - 10, End: math.MaxUint32*1000 + 999}}},
	} {
		got, err := NewReader(bytes.NewReader(writeAll(t, c.boot, c.edges))).ReadAll()
		if err != nil || !slices.Equal(got, c.edges) {
			t.Fatalf("boot %d: edge flows read back as %+v (err %v), want %+v", c.boot, got, err, c.edges)
		}
	}
}

// TestTimestampConversion: absolute flow times are the header's export
// time less its uptime, plus the record's uptime offsets.
func TestTimestampConversion(t *testing.T) {
	b := samplePacket()
	be := binary.BigEndian
	be.PutUint32(b[4:], 1000000) // sysUptime
	be.PutUint32(b[8:], 2000)    // unixSecs
	be.PutUint32(b[12:], 0)      // unixNsecs
	be.PutUint32(b[HeaderLen+24:], 999000)
	be.PutUint32(b[HeaderLen+28:], 1000000)
	f, err := NewReader(bytes.NewReader(b)).Next()
	// boot = 2_000_000ms - 1_000_000ms = 1_000_000ms
	if err != nil || f.Start != 1999000 || f.End != 2000000 {
		t.Errorf("Start/End = %d/%d (err %v), want 1999000/2000000", f.Start, f.End, err)
	}
}

func TestFlowRecordRoundTripProperty(t *testing.T) {
	const bootMs = int64(1700000000000)
	f := func(src, dst uint32, sp, dp uint16, proto, flags uint8, pkts, octets uint32, startOff, durMs uint32) bool {
		orig := flow.Record{
			SrcAddr: src, DstAddr: dst, SrcPort: sp, DstPort: dp,
			Protocol: proto, TCPFlags: flags, Packets: pkts, Bytes: uint64(octets),
			Start: bootMs + int64(startOff%2e9), End: bootMs + int64(startOff%2e9) + int64(durMs%1e6),
		}
		back, err := NewReader(bytes.NewReader(writeAll(t, bootMs, []flow.Record{orig}))).Next()
		return err == nil && back == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	const bootMs = int64(1196640000000)
	records := make([]flow.Record, 95) // crosses 3 packet boundaries + partial
	for i := range records {
		records[i] = flow.Record{
			SrcAddr: uint32(i + 1), DstAddr: uint32(2*i + 1),
			SrcPort: uint16(i), DstPort: 80, Protocol: 6,
			Packets: uint32(i%7 + 1), Bytes: uint64(i * 100),
			Start: bootMs + int64(i)*1000,
			End:   bootMs + int64(i)*1000 + 500,
		}
	}
	got, err := NewReader(bytes.NewReader(writeAll(t, bootMs, records))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, wrote %d", len(got), len(records))
	}
	for i := range got {
		if got[i] != records[i] {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], records[i])
		}
	}
}

// cycle is an endless stream repeating one byte sequence.
type cycle struct {
	b   []byte
	off int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m := copy(p[n:], c.b[c.off:])
		n += m
		c.off = (c.off + m) % len(c.b)
	}
	return n, nil
}

// TestReaderSteadyStateAllocs pins the Reader's decode to zero
// allocations per packet once its buffers exist: each packet is read
// into the one reused packet buffer and every record decodes from it by
// value. The count is the least of several AllocsPerRun averages, so a
// stray runtime allocation in one of them does not flake the pin.
func TestReaderSteadyStateAllocs(t *testing.T) {
	recs := make([]flow.Record, MaxRecords)
	for i := range recs {
		recs[i] = flow.Record{SrcAddr: uint32(i), Packets: 1, Start: sampleBoot, End: sampleBoot + int64(i)}
	}
	r := NewReader(&cycle{b: writeAll(t, sampleBoot, recs)})
	packet := func() {
		for range MaxRecords {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	packet() // warm up
	least := math.Inf(1)
	for range 5 {
		least = min(least, testing.AllocsPerRun(20, packet))
	}
	if least != 0 {
		t.Fatalf("%v allocations per packet, want 0", least)
	}
}

func TestReaderEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty stream: %v", err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	buf := samplePacket()
	r := NewReader(bytes.NewReader(buf[:len(buf)-5]))
	_, err := r.Next()
	if err == nil || err == io.EOF {
		t.Errorf("truncated stream should error, got %v", err)
	}
	// Error must be sticky.
	if _, err2 := r.Next(); err2 != err {
		t.Errorf("error not sticky: %v vs %v", err2, err)
	}
}

// TestWriteCSV compares WriteCSV's output with the expected text.
func TestWriteCSV(t *testing.T) {
	records := []flow.Record{
		{
			SrcAddr: flow.MustParseU32("130.59.10.11"), DstAddr: flow.MustParseU32("8.8.8.8"),
			SrcPort: 51515, DstPort: 80, Protocol: 6, TCPFlags: 0x1b,
			Packets: 10, Bytes: 1200, Start: 1196640000000, End: 1196640001000,
		},
		{
			SrcAddr: 1, DstAddr: 2, SrcPort: 53, DstPort: 53, Protocol: 17,
			Packets: 1, Bytes: 40, Start: 5, End: 6,
		},
	}
	const want = "start_ms,end_ms,src_ip,dst_ip,src_port,dst_port,proto,tcp_flags,packets,bytes\n" +
		"1196640000000,1196640001000,130.59.10.11,8.8.8.8,51515,80,6,27,10,1200\n" +
		"5,6,0.0.0.1,0.0.0.2,53,53,17,0,1,40\n"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}

func TestV5DecodeDoesNotPanicOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = NewReader(bytes.NewReader(raw)).ReadAll() // must not panic, any error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderGarbageStream(t *testing.T) {
	// A stream of plausible-looking but corrupt packets must error out,
	// not loop or panic.
	raw := make([]byte, 500)
	raw[1] = 5  // version 5
	raw[3] = 30 // count 30 -> needs 24+1440 bytes, stream has 500
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("corrupt stream: %v", err)
	}
}
