package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestParentCheckpointsReencode holds the one checkpoint codec to the
// file bytes the two codecs it replaced wrote: testdata/parent_*.ckpt
// were written by the commit before the merge (a two-agent collector
// after three closes; a two-child relay holding two unacked upstream
// frames), and decode → encode must reproduce each byte for byte. The
// magics still tell the roles apart: each file is refused by the other
// role's reader.
func TestParentCheckpointsReencode(t *testing.T) {
	for _, tc := range []struct {
		file  string
		relay bool
		held  int
	}{
		{"parent_collector.ckpt", false, 0},
		{"parent_relay.ckpt", true, 2},
	} {
		b, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := decodeCheckpoint(b, tc.relay)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if len(c.absorbed) != 2 || len(c.held) != tc.held {
			t.Errorf("%s: decoded %d agents and %d held frames, want 2 and %d",
				tc.file, len(c.absorbed), len(c.held), tc.held)
		}
		if re := appendCheckpoint(nil, c); !bytes.Equal(re, b) {
			t.Errorf("%s: re-encoding changed the file bytes (%d -> %d bytes)", tc.file, len(b), len(re))
		}
		if _, err := decodeCheckpoint(b, !tc.relay); err == nil {
			t.Errorf("%s: accepted as the other role's checkpoint", tc.file)
		}
	}
}
