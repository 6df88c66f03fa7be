package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"anomalyx/internal/core"
)

// FuzzAckResume fuzzes the survivable-session control codecs — Hello
// (with its resume boundary and leaf span), Ack/HelloOK boundaries, Error frames,
// and collector checkpoints — with the codec's standing canonicality
// invariant: a decoder either rejects its input or accepts it, and
// every accepted parse re-encodes to the exact input bytes. The codec
// uses minimal varints only, so decode is the inverse of encode on its
// image and total (panic-free) everywhere else. That property is what
// makes a resumed session byte-deterministic: the collector's dedup
// line, the agent's replay trim, and a rehydrated checkpoint all travel
// through these payloads.
func FuzzAckResume(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A v2 hello (no resume field; the checked-in hello_v2 seed) and a v3
	// hello (no leaf span), which are no longer spoken and must be refused
	// by version, and v4 hellos from a plain agent and from a relay.
	v2 := binary.LittleEndian.AppendUint64(append([]byte("AXWP"), 2, 0), 0x1234)    // version 2, agent 0
	v3 := binary.LittleEndian.AppendUint64(append([]byte("AXWP"), 3, 0, 2), 0x1234) // version 3, agent 0, resume 1
	for _, old := range [][]byte{v2, v3} {
		if _, err := decodeHello(old); !errors.As(err, new(errBadHelloVersion)) {
			f.Fatalf("hello %x decoded with err = %v, want errBadHelloVersion", old, err)
		}
		f.Add(old)
	}
	f.Add(appendHello(nil, hello{agentID: 7, resume: 1196640900000, digest: 0xdeadbeef}))
	f.Add(appendHello(nil, hello{agentID: 1, resume: 900000, spanLo: 2, spanLen: 2, digest: 0xdeadbeef}))
	// Ack/HelloOK boundaries: a grid boundary and the -1 "nothing yet".
	f.Add(appendBoundary(nil, 900000))
	f.Add(appendBoundary(nil, -1))
	// Error frames, including the two machine-readable rejections.
	f.Add(appendError(nil, errCodeConfigMismatch, "config mismatch: agent=1234 collector=beef"))
	f.Add(appendError(nil, errCodeSessionEnded, "stream already ended"))
	f.Add(appendError(nil, errCodeBadVersion, "unsupported protocol version 1"))
	// A checkpoint for a 2-agent session over a fresh pipeline's history.
	f.Add(appendCheckpoint(nil, checkpoint{
		digest:     configDigest(core.Config{}),
		lastClosed: 900000,
		emitted:    1,
		absorbed:   []int64{900000, 0},
		statuses:   []agentStatus{statusLive, statusDead},
		hist:       freshPipeline(core.Config{}).Snapshot(),
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := decodeHello(data); err == nil {
			re := appendHello(nil, h)
			if !bytes.Equal(re, data) {
				t.Fatalf("hello re-encode mismatch:\n in  %x\n out %x", data, re)
			}
		}
		if b, err := decodeBoundary(data); err == nil {
			if re := appendBoundary(nil, b); !bytes.Equal(re, data) {
				t.Fatalf("boundary re-encode mismatch:\n in  %x\n out %x", data, re)
			}
		}
		// decodeError is total by design: every payload decodes to SOME
		// error (a malformed rejection still rejects), and the two
		// machine-readable forms must survive a round trip.
		err := decodeError(data)
		if err == nil {
			t.Fatal("decodeError returned nil")
		}
		var mismatch *ConfigMismatchError
		if errors.As(err, &mismatch) {
			again := decodeError(appendError(nil, errCodeConfigMismatch, mismatch.Error()[len("wire: "):]))
			var m2 *ConfigMismatchError
			if !errors.As(again, &m2) || *m2 != *mismatch {
				t.Fatalf("config-mismatch rejection did not round-trip: %v -> %v", mismatch, again)
			}
		}
		if c, err := decodeCheckpoint(data, false); err == nil {
			if re := appendCheckpoint(nil, c); !bytes.Equal(re, data) {
				t.Fatalf("checkpoint re-encode mismatch:\n in  %x\n out %x", data, re)
			}
		}
	})
}

// freshPipeline builds a pipeline under cfg for fuzz-seed material.
func freshPipeline(cfg core.Config) *core.Pipeline {
	p, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}
