package netflow

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"anomalyx/internal/flow"
)

func v9SampleFlows() []flow.Record {
	const bootMs = int64(1700000000000)
	return []flow.Record{
		{
			SrcAddr: 0x82380a0b, DstAddr: 0x08080808,
			SrcPort: 51515, DstPort: 80, Protocol: 6, TCPFlags: 0x1b,
			Packets: 10, Bytes: 1200,
			Start: bootMs + 1000, End: bootMs + 2500,
		},
		{
			SrcAddr: 1, DstAddr: 2, SrcPort: 53, DstPort: 53, Protocol: 17,
			Packets: 1, Bytes: 80,
			Start: bootMs + 50, End: bootMs + 51,
		},
	}
}

func TestV9RoundTrip(t *testing.T) {
	const bootMs = int64(1700000000000)
	recs := v9SampleFlows()
	enc := NewV9Encoder(bootMs, 42)
	pkt, err := enc.Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewV9Decoder()
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
	if dec.SkippedNoTemplate != 0 {
		t.Errorf("skipped %d despite inline template", dec.SkippedNoTemplate)
	}
}

func TestV9RoundTripProperty(t *testing.T) {
	const bootMs = int64(1700000000000)
	enc := NewV9Encoder(bootMs, 1)
	dec := NewV9Decoder()
	f := func(src, dst uint32, sp, dp uint16, proto, flags uint8, pkts, bytes uint32, startOff, dur uint16) bool {
		rec := flow.Record{
			SrcAddr: src, DstAddr: dst, SrcPort: sp, DstPort: dp,
			Protocol: proto, TCPFlags: flags, Packets: pkts, Bytes: uint64(bytes),
			Start: bootMs + int64(startOff), End: bootMs + int64(startOff) + int64(dur),
		}
		pkt, err := enc.Encode([]flow.Record{rec})
		if err != nil {
			return false
		}
		got, err := dec.Decode(pkt)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestV9DataBeforeTemplateSkipped(t *testing.T) {
	const bootMs = int64(1700000000000)
	recs := v9SampleFlows()
	pkt, err := NewV9Encoder(bootMs, 7).Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the template flowset: header(20) + template set.
	tmplLen := int(uint16(pkt[22])<<8 | uint16(pkt[23]))
	stripped := append(append([]byte{}, pkt[:v9HeaderLen]...), pkt[v9HeaderLen+tmplLen:]...)

	dec := NewV9Decoder()
	got, err := dec.Decode(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d records without a template", len(got))
	}
	if dec.SkippedNoTemplate != 1 {
		t.Errorf("SkippedNoTemplate = %d", dec.SkippedNoTemplate)
	}

	// Once the full packet arrives, the cache is primed and the
	// template-less packet decodes.
	if _, err := dec.Decode(pkt); err != nil {
		t.Fatal(err)
	}
	got, err = dec.Decode(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Errorf("after template learned: %d records, want %d", len(got), len(recs))
	}
}

func TestV9TemplateCachePerSource(t *testing.T) {
	const bootMs = int64(1700000000000)
	recs := v9SampleFlows()
	pktA, _ := NewV9Encoder(bootMs, 1).Encode(recs)
	dec := NewV9Decoder()
	if _, err := dec.Decode(pktA); err != nil {
		t.Fatal(err)
	}
	// Same template id from a different source id must not match the
	// cached template: build a data-only packet with sourceID 2.
	tmplLen := int(uint16(pktA[22])<<8 | uint16(pktA[23]))
	dataOnly := append(append([]byte{}, pktA[:v9HeaderLen]...), pktA[v9HeaderLen+tmplLen:]...)
	dataOnly[16], dataOnly[17], dataOnly[18], dataOnly[19] = 0, 0, 0, 2
	got, err := dec.Decode(dataOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("template leaked across source ids")
	}
}

func TestV9DecodeErrors(t *testing.T) {
	dec := NewV9Decoder()
	if _, err := dec.Decode(make([]byte, 10)); !errors.Is(err, ErrV9Truncated) {
		t.Errorf("short packet: %v", err)
	}
	bad := make([]byte, 20)
	bad[1] = 5 // v5 version
	if _, err := dec.Decode(bad); !errors.Is(err, ErrV9BadVersion) {
		t.Errorf("wrong version: %v", err)
	}
	// Flowset length running past the packet.
	pkt, err := NewV9Encoder(1700000000000, 1).Encode(v9SampleFlows())
	if err != nil {
		t.Fatal(err)
	}
	trunc := pkt[:len(pkt)-8]
	if _, err := NewV9Decoder().Decode(trunc); !errors.Is(err, ErrV9Truncated) {
		t.Errorf("truncated flowset: %v", err)
	}
}

func TestV9EncodeEmpty(t *testing.T) {
	if _, err := NewV9Encoder(0, 1).Encode(nil); err == nil {
		t.Error("empty packet accepted")
	}
}

// TestV9EncodeRefusesWhatOnePacketCannotCarry: Encode returns an error
// and no bytes for more records than one data flowset's 16-bit length
// counts, and for a flow or export time outside the uint32 uptime range
// of the exporter's boot time. Without the checks the flowset length
// wraps (Decode returns no records, or 815 of 3000) and a flow that
// starts before boot decodes 2^32 ms late. Everything accepted
// round-trips.
func TestV9EncodeRefusesWhatOnePacketCannotCarry(t *testing.T) {
	const bootMs = int64(1700000000000)
	const uptime = int64(1) << 32
	flows := func(n int, start, end int64) []flow.Record {
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = flow.Record{SrcAddr: uint32(i), DstPort: 80, Protocol: 6, Packets: 1, Bytes: 40,
				Start: start, End: end}
		}
		return recs
	}
	for _, tc := range []struct {
		name string
		recs []flow.Record
		want error // nil: must round-trip
	}{
		{"2184 records", flows(2184, bootMs+10, bootMs+20), nil},
		{"2185 records", flows(2185, bootMs+10, bootMs+20), errV9Overflow},
		{"3000 records", flows(3000, bootMs+10, bootMs+20), errV9Overflow},
		{"starts at boot", flows(1, bootMs, bootMs+20), nil},
		{"starts 5 s before boot", flows(1, bootMs-5000, bootMs+20), errTimeRange},
		{"ends before boot", flows(1, bootMs-9000, bootMs-5000), errTimeRange},
		{"last whole second of uptime", flows(1, bootMs, bootMs+uptime-1000), nil},
		{"export second past the uptime", flows(1, bootMs, bootMs+uptime-1), errTimeRange},
		{"ends at 2^32 ms", flows(1, bootMs, bootMs+uptime), errTimeRange},
		{"one bad flow among good", append(flows(5, bootMs+10, bootMs+20), flows(1, bootMs+uptime, bootMs+uptime)...), errTimeRange},
	} {
		enc := NewV9Encoder(bootMs, 3)
		pkt, err := enc.Encode(tc.recs)
		if tc.want != nil {
			if !errors.Is(err, tc.want) || pkt != nil {
				t.Errorf("%s: Encode returned %d bytes and %v, want no bytes and %v", tc.name, len(pkt), err, tc.want)
			}
			if enc.seq != 0 {
				t.Errorf("%s: a refused packet advanced the sequence number", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		got, err := NewV9Decoder().Decode(pkt)
		if err != nil || !slices.Equal(got, tc.recs) {
			t.Errorf("%s: decoded %d of %d records (err %v), or different ones", tc.name, len(got), len(tc.recs), err)
		}
	}
}

func TestV9SequenceIncrements(t *testing.T) {
	enc := NewV9Encoder(1700000000000, 1)
	p1, _ := enc.Encode(v9SampleFlows()[:1])
	p2, _ := enc.Encode(v9SampleFlows()[:1])
	s1 := uint32(p1[12])<<24 | uint32(p1[13])<<16 | uint32(p1[14])<<8 | uint32(p1[15])
	s2 := uint32(p2[12])<<24 | uint32(p2[13])<<16 | uint32(p2[14])<<8 | uint32(p2[15])
	if s2 != s1+1 {
		t.Errorf("sequence %d then %d", s1, s2)
	}
}

func TestV9DecodeDoesNotPanicOnGarbage(t *testing.T) {
	dec := NewV9Decoder()
	f := func(raw []byte) bool {
		// Force a v9 version so parsing proceeds past the header.
		if len(raw) >= 2 {
			raw[0], raw[1] = 0, 9
		}
		_, _ = dec.Decode(raw) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBeUint(t *testing.T) {
	if beUint([]byte{0x12}) != 0x12 {
		t.Error("1 byte")
	}
	if beUint([]byte{0x12, 0x34}) != 0x1234 {
		t.Error("2 bytes")
	}
	if beUint([]byte{1, 2, 3, 4, 5, 6, 7, 8}) != 0x0102030405060708 {
		t.Error("8 bytes")
	}
}
