package netflow

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// goldenTrace is a seeded tracegen trace: twelve small intervals with
// the compressed event schedule, so benign and anomalous flows of every
// class pass through the codecs.
func goldenTrace(t testing.TB) (recs []flow.Record, bootMs int64) {
	t.Helper()
	cfg := tracegen.SmallConfig()
	cfg.Seed = 20071203
	cfg.Intervals = 12
	cfg.BaseFlows = 1500
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	g := tracegen.New(cfg)
	for i := 0; i < cfg.Intervals; i++ {
		recs = append(recs, g.Interval(i)...)
	}
	return recs, cfg.IntervalStart(0)
}

// TestV5ByteStability pins the exact bytes the v5 Writer and WriteCSV
// emit for goldenTrace. The digests come from an earlier, independent
// implementation of the encoder, so they hold this one to its output
// byte for byte; the v5 bytes must also read back to the records
// written.
func TestV5ByteStability(t *testing.T) {
	const (
		wantV5  = "47ee1158a4463a4c25916347bfab4404b6dab32b4017a930e807df66a2a3e697"
		wantCSV = "13df11aecb55b3ec8b90d91ea9bcd5925b20c4502b7f40b47fe1b7e8e9136824"
	)
	recs, bootMs := goldenTrace(t)
	var v5 bytes.Buffer
	w := NewWriter(&v5, bootMs)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, recs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{{"v5", v5.Bytes(), wantV5}, {"csv", csv.Bytes(), wantCSV}} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d records encoded to %d bytes with sha256 %s, want %s", c.name, len(recs), len(c.b), got, c.want)
		}
	}
	back, err := NewReader(&v5).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("read back %d records, wrote %d", len(back), len(recs))
	}
	for i := range back {
		if back[i] != recs[i] {
			t.Fatalf("record %d read back as %+v, wrote %+v", i, back[i], recs[i])
		}
	}
}
