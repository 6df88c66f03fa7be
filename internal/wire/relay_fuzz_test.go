package wire

import (
	"bytes"
	"testing"

	"anomalyx/internal/core"
)

// FuzzRelayFrame fuzzes the relay-tier codecs: the frameRelayInterval
// payload (boundary, leaf-span header, missing-leaf list, open
// interval) and the relay checkpoint blob. The standing invariant is
// the same as the rest of the wire codec: a decoder either rejects its
// input or accepts it, and every accepted parse re-encodes to the exact
// input bytes. That canonicality is what keeps a malformed child frame
// from propagating upstream — a relay only ever ships bytes it produced
// itself from an accepted parse, so garbage either dies at the decoder
// or round-trips to something well-formed.
func FuzzRelayFrame(f *testing.F) {
	oi := freshPipeline(core.Config{}).DrainOpenInterval()
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Well-formed relay payloads: a full span, and a shifted span with a
	// missing-leaf list.
	full := appendRelayPayload(nil, 900000, 0, 4, nil, oi)
	f.Add(full)
	f.Add(appendRelayPayload(nil, 1800000, 2, 4, []int{3, 5}, oi))
	f.Add(full[:len(full)/2]) // truncated mid-body
	// Bad codec version byte right after the boundary varint.
	bad := appendRelayPayload(nil, 900000, 0, 1, nil, oi)
	bad[len(appendVarint(nil, 900000))] ^= 0x40
	f.Add(bad)
	// Headers the decoder must reject: a non-ascending missing list and
	// an out-of-span leaf ID.
	head := append(appendVarint(nil, 900000), codecVersion)
	f.Add(appendUvarint(appendUvarint(appendUvarint(append(appendUvarint(head[:len(head):len(head)], 0), 2), 2), 5), 3))
	f.Add(appendUvarint(appendUvarint(append(appendUvarint(head[:len(head):len(head)], 0), 2), 1), 9))
	// A relay checkpoint holding one unacked upstream frame.
	f.Add(appendCheckpoint(nil, checkpoint{
		digest:     configDigest(core.Config{}),
		lastClosed: 900000,
		emitted:    1,
		absorbed:   []int64{900000, 0},
		statuses:   []agentStatus{statusLive, statusDown},
		relay:      true,
		held:       []replayEntry{{typ: frameRelayInterval, boundary: 900000, payload: full}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := new(intervalDecoder).decodePayload(frameRelayInterval, data); err == nil {
			if fr.spanLen < 1 {
				t.Fatalf("accepted relay frame with empty span [%d,+%d)", fr.spanLo, fr.spanLen)
			}
			re := appendRelayPayload(nil, fr.boundary, fr.spanLo, fr.spanLen, fr.missing, fr.oi)
			if !bytes.Equal(re, data) {
				t.Fatalf("relay frame re-encode mismatch:\n in  %x\n out %x", data, re)
			}
		}
		if c, err := decodeCheckpoint(data, true); err == nil {
			if re := appendCheckpoint(nil, c); !bytes.Equal(re, data) {
				t.Fatalf("relay checkpoint re-encode mismatch:\n in  %x\n out %x", data, re)
			}
		}
	})
}
