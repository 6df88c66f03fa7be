package experiments

import (
	"testing"

	"anomalyx/internal/flow"
)

func ip(s string) uint32 { return flow.MustParseU32(s) }

func TestPrefixContains(t *testing.T) {
	p24 := Prefix{Addr: ip("10.1.2.0"), Len: 24}
	if !p24.contains(Prefix{Addr: ip("10.1.2.99"), Len: 32}) {
		t.Error("/24 should contain its /32")
	}
	if p24.contains(Prefix{Addr: ip("10.1.3.99"), Len: 32}) {
		t.Error("/24 must not contain a foreign /32")
	}
	if p24.contains(Prefix{Addr: ip("10.1.0.0"), Len: 16}) {
		t.Error("/24 must not contain its /16 parent")
	}
}

func TestPrefixString(t *testing.T) {
	p := Prefix{Addr: ip("192.168.0.0"), Len: 16}
	if p.String() != "192.168.0.0/16" {
		t.Errorf("String = %q", p.String())
	}
}

func TestSingleHeavyAddress(t *testing.T) {
	d := newHHH(nil)
	d.add(ip("10.0.0.1"), 900)
	for i := uint32(0); i < 100; i++ {
		d.add(ip("172.16.0.0")+i*257, 1)
	}
	hh := d.detect(0.5)
	if len(hh) == 0 {
		t.Fatal("no HHH found")
	}
	if hh[0].Prefix != (Prefix{Addr: ip("10.0.0.1"), Len: 32}) {
		t.Errorf("top HHH %v", hh[0].Prefix)
	}
	// Parents of the heavy /32 are fully discounted and must not appear.
	for _, h := range hh {
		if h.Prefix.Len < 32 && h.Prefix.contains(Prefix{Addr: ip("10.0.0.1"), Len: 32}) {
			t.Errorf("discounted parent still reported: %v (disc %d)", h.Prefix, h.Discounted)
		}
	}
}

func TestDiscountingSurfacesDiffuseParent(t *testing.T) {
	// 300 flows spread over a /24 with no single address heavy: the /24
	// is the HHH, not any /32.
	d := newHHH(nil)
	for i := uint32(0); i < 100; i++ {
		d.add(ip("10.1.2.0")+i, 3)
	}
	d.add(ip("99.9.9.9"), 100) // background
	hh := d.detect(0.5)
	found24 := false
	for _, h := range hh {
		if h.Prefix.Len == 32 && h.Prefix.Addr != ip("99.9.9.9") {
			t.Errorf("no /32 inside the diffuse range should be heavy: %v", h)
		}
		if h.Prefix == (Prefix{Addr: ip("10.1.2.0"), Len: 24}) {
			found24 = true
			if h.Discounted != 300 {
				t.Errorf("/24 discounted = %d, want 300", h.Discounted)
			}
		}
	}
	if !found24 {
		t.Errorf("diffuse /24 not detected: %v", hh)
	}
}

func TestMixedLevels(t *testing.T) {
	// One heavy /32 inside a /24 that also has diffuse traffic: both
	// surface, with the /24 discounted by the /32's count.
	d := newHHH(nil)
	d.add(ip("10.1.2.42"), 500)
	for i := uint32(0); i < 250; i++ {
		d.add(ip("10.1.2.0")+i%250, 2)
	}
	hh := d.detect(0.3)
	var h32, h24 *HeavyHitter
	for i := range hh {
		h := &hh[i]
		if h.Prefix == (Prefix{Addr: ip("10.1.2.42"), Len: 32}) {
			h32 = h
		}
		if h.Prefix == (Prefix{Addr: ip("10.1.2.0"), Len: 24}) {
			h24 = h
		}
	}
	if h32 == nil {
		t.Fatalf("heavy /32 missing: %v", hh)
	}
	if h24 == nil {
		t.Fatalf("diffuse /24 missing: %v", hh)
	}
	// /32 got 500 + 2*2 (42 is also hit by the diffuse loop at i=42 and
	// i=42+... no: i%250 over 250 values hits each of 250 addrs twice).
	if h32.Count < 500 {
		t.Errorf("/32 count %d", h32.Count)
	}
	if h24.Discounted >= h24.Count {
		t.Error("/24 not discounted by its heavy child")
	}
}

func TestAddFlows(t *testing.T) {
	recs := []flow.Record{
		{DstAddr: ip("10.0.0.1")},
		{DstAddr: ip("10.0.0.1")},
		{DstAddr: ip("10.0.0.2")},
	}
	d := newHHH(nil)
	if err := d.addFlows(recs, flow.DstIP); err != nil {
		t.Fatal(err)
	}
	if d.total != 3 {
		t.Errorf("total = %d", d.total)
	}
	if err := newHHH(nil).addFlows(recs, flow.DstPort); err == nil {
		t.Error("non-address feature accepted")
	}
}

func TestDetectPanicsOnBadPhi(t *testing.T) {
	d := newHHH(nil)
	d.add(1, 1)
	for _, phi := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("phi=%v accepted", phi)
				}
			}()
			d.detect(phi)
		}()
	}
}

func TestCustomLevels(t *testing.T) {
	d := newHHH([]int{32, 16})
	d.add(ip("10.1.2.3"), 10)
	hh := d.detect(0.5)
	for _, h := range hh {
		if h.Prefix.Len != 32 && h.Prefix.Len != 16 {
			t.Errorf("unexpected level %d", h.Prefix.Len)
		}
	}
}

func TestScanFootprint(t *testing.T) {
	// A scan sweeping an internal /16 produces a diffuse HHH on that
	// /16 — the §III-D argument for HHH on range anomalies.
	d := newHHH(nil)
	for i := 0; i < 3000; i++ {
		d.add(ip("130.59.0.0")+uint32(i*17%65536), 1)
	}
	for i := 0; i < 1000; i++ {
		d.add(ip("8.8.8.8"), 1) // plus one fat benign server
	}
	hh := d.detect(0.25)
	found := false
	for _, h := range hh {
		if h.Prefix == (Prefix{Addr: ip("130.59.0.0"), Len: 16}) {
			found = true
		}
	}
	if !found {
		t.Errorf("scanned /16 not detected: %v", hh)
	}
}
