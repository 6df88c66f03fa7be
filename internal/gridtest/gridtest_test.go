package gridtest

import (
	"runtime"
	"slices"
	"testing"

	"anomalyx/internal/core"
)

// recorder is a testing.TB that records a failure instead of reporting
// it; Fatalf ends the calling goroutine, as testing's does.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()               {}
func (r *recorder) Fatal(...any)          { r.failed = true; runtime.Goexit() }
func (r *recorder) Fatalf(string, ...any) { r.failed = true; runtime.Goexit() }

// fails reports whether f fails the recorder it is handed.
func fails(f func(t testing.TB)) bool {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f(r)
	}()
	<-done
	return r.failed
}

// TestEqual holds the grids' comparator to what it promises: every grid
// row is only as strong as Equal. It accepts identical reports and, over
// several partitions, a regrouped Suspicious slice; it rejects a changed
// field, a missing report, a reordered Suspicious slice on one
// partition and a changed suspicious record on several. Partial is
// compared like any other field, both ways. Reference rejects a trace
// that never mines.
func TestEqual(t *testing.T) {
	trace := Trace(10, 1000, 8)
	cfg := Config()
	cfg.KeepSuspicious = true
	want := Reference(t, cfg, trace)
	mined := slices.IndexFunc(want, func(rep *core.Report) bool { return rep.Mining != nil })
	// edited returns a deep enough copy of want with edit applied.
	edited := func(edit func(got []*core.Report) []*core.Report) []*core.Report {
		got := make([]*core.Report, len(want))
		for i, rep := range want {
			c := *rep
			c.Suspicious = slices.Clone(rep.Suspicious)
			got[i] = &c
		}
		return edit(got)
	}
	for _, tc := range []struct {
		name       string
		got        []*core.Report
		partitions int
		fail       bool
	}{
		{"identical", edited(func(g []*core.Report) []*core.Report { return g }), 1, false},
		{"suspicious regrouped over partitions", edited(func(g []*core.Report) []*core.Report {
			slices.Reverse(g[mined].Suspicious)
			return g
		}), 2, false},
		{"suspicious reordered on one partition", edited(func(g []*core.Report) []*core.Report {
			slices.Reverse(g[mined].Suspicious)
			return g
		}), 1, true},
		{"suspicious record changed", edited(func(g []*core.Report) []*core.Report {
			g[mined].Suspicious[0].DstPort++
			return g
		}), 2, true},
		{"field changed", edited(func(g []*core.Report) []*core.Report {
			g[mined].MinSupport++
			return g
		}), 1, true},
		{"report missing", edited(func(g []*core.Report) []*core.Report { return g[:len(g)-1] }), 1, true},
		{"partial", edited(func(g []*core.Report) []*core.Report {
			g[0].Partial = []int{1}
			return g
		}), 1, true},
	} {
		if got := fails(func(t testing.TB) { Equal(t, tc.got, want, tc.partitions) }); got != tc.fail {
			t.Errorf("%s: Equal failed %v, want %v", tc.name, got, tc.fail)
		}
	}
	partial := edited(func(g []*core.Report) []*core.Report {
		g[0].Partial = []int{1}
		return g
	})
	if fails(func(t testing.TB) { Equal(t, partial, partial, 1) }) || !fails(func(t testing.TB) { Equal(t, want, partial, 1) }) {
		t.Error("Equal does not hold got's Partial to want's")
	}
	if !fails(func(t testing.TB) { Reference(t, Config(), Trace(2, 100, -1)) }) {
		t.Error("Reference accepted a trace that never mines")
	}
}
