package wire

import (
	"bytes"
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// FuzzWireRoundTrip holds the checkpoint codec to the wire codec's
// standing invariants. The raw input is fed to both roles' checkpoint
// readers, which must reject or accept it without panicking; an accepted
// parse must re-encode byte-identically (decode is the codec's inverse
// on its own image and total everywhere else). The input also drives a
// small pipeline — records and interval closes are derived from it —
// and a root checkpoint of the resulting detection history must
//
//  1. round-trip canonically: decode(encode(c)) is deeply equal to c and
//     re-encodes byte-identically;
//  2. restore losslessly: a fresh pipeline restored from the decoded
//     history re-snapshots to the same bytes.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 250, 251, 252, 253, 254, 255})
	f.Add([]byte("interval\x00close\x07and\x0edrain\x15markers"))
	f.Add(bytes.Repeat([]byte{7, 0, 130, 200, 13, 80, 80, 1}, 40))

	cfg := core.Config{
		Features: []flow.FeatureKind{flow.SrcIP, flow.DstPort},
		Detector: detector.Config{Bins: 16, Clones: 2, Votes: 1, TrainIntervals: 2, Seed: 11},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, relay := range []bool{false, true} {
			if c, err := decodeCheckpoint(data, relay); err == nil {
				if re := appendCheckpoint(nil, c); !bytes.Equal(re, data) {
					t.Fatalf("accepted input (relay %v) re-encodes differently:\n in %x\nout %x", relay, data, re)
				}
			}
		}

		p, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// Interpret the input as a little op program: every 8 bytes form
		// one record, and op bytes ending in 0x0 close the interval so
		// the checkpoint carries detection history.
		closed := int64(0)
		for len(data) >= 8 {
			op, chunk := data[0], data[1:8]
			data = data[8:]
			if op&0xf == 0 {
				if _, err := p.EndInterval(); err != nil {
					t.Fatal(err)
				}
				closed++
				continue
			}
			rec := flow.Record{
				SrcAddr: uint32(chunk[0])<<8 | uint32(chunk[1]),
				DstAddr: uint32(chunk[2]),
				SrcPort: uint16(chunk[3]),
				DstPort: uint16(chunk[4]),
				Packets: uint32(chunk[5]) + 1,
				Bytes:   uint64(chunk[6]) * 40,
				Start:   int64(op) * 1000,
			}
			rec.Protocol = []byte{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}[int(chunk[6])%3]
			p.ObserveBatch([]flow.Record{rec})
		}

		c := checkpoint{
			digest:     configDigest(cfg),
			lastClosed: closed * 900000,
			emitted:    closed,
			absorbed:   []int64{closed * 900000},
			statuses:   []agentStatus{statusLive},
			hist:       p.Snapshot(),
		}
		enc := appendCheckpoint(nil, c)
		dec, err := decodeCheckpoint(enc, false)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(dec, c) {
			t.Fatalf("decoded checkpoint differs from the original:\n got %+v\nwant %+v", dec, c)
		}
		if enc2 := appendCheckpoint(nil, dec); !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding the decoded checkpoint changed the bytes")
		}

		restored, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		if err := restored.RestoreSnapshot(dec.hist); err != nil {
			t.Fatalf("restore: %v", err)
		}
		c.hist = restored.Snapshot()
		if enc3 := appendCheckpoint(nil, c); !bytes.Equal(enc, enc3) {
			t.Fatal("restored pipeline re-snapshots to different bytes")
		}
	})
}
