// Package flow defines the flow-record model used throughout the anomaly
// extraction pipeline.
//
// A flow record mirrors the unidirectional NetFlow v5 abstraction the paper
// works with: the 5-tuple (source IP, destination IP, source port,
// destination port, IP protocol) plus the number of packets and bytes of
// the flow. Section II-B of the paper maps each record to a transaction of
// exactly seven items, one per feature; the FeatureKind enumeration below
// fixes that feature space.
//
// Determinism: records are plain values and every derived quantity
// (feature extraction, the stable partitioning Key) is a pure function
// of the record, so shard assignment and transaction contents are
// reproducible everywhere.
package flow

import (
	"fmt"
	"net/netip"
)

// FeatureKind identifies one of the seven flow features the paper mines
// over (§II-B: srcIP, dstIP, srcPort, dstPort, protocol, #packets, #bytes).
type FeatureKind uint8

// The seven transaction features, in the paper's order.
const (
	SrcIP FeatureKind = iota
	DstIP
	SrcPort
	DstPort
	Proto
	Packets
	Bytes

	// NumFeatures is the transaction width: every flow record yields
	// exactly this many items (§II-B).
	NumFeatures = 7
)

// DetectorFeatures lists the five features monitored by histogram-based
// detectors in the paper's evaluation (§II-E: source and destination IP
// addresses, source and destination ports, and packets per flow).
var DetectorFeatures = [5]FeatureKind{SrcIP, DstIP, SrcPort, DstPort, Packets}

// AllFeatures lists every transaction feature in canonical order.
var AllFeatures = [NumFeatures]FeatureKind{SrcIP, DstIP, SrcPort, DstPort, Proto, Packets, Bytes}

var featureNames = [NumFeatures]string{
	"srcIP", "dstIP", "srcPort", "dstPort", "proto", "packets", "bytes",
}

// String returns the feature's short name as used in the paper's item-set
// notation, e.g. "dstPort".
func (k FeatureKind) String() string {
	if int(k) < len(featureNames) {
		return featureNames[k]
	}
	return fmt.Sprintf("feature(%d)", uint8(k))
}

// Valid reports whether k names one of the seven transaction features.
func (k FeatureKind) Valid() bool { return k < NumFeatures }

// Record is a single unidirectional flow record. IPv4 addresses are stored
// as big-endian uint32 (the SWITCH traces the paper uses are IPv4).
type Record struct {
	SrcAddr  uint32 // source IPv4 address
	DstAddr  uint32 // destination IPv4 address
	SrcPort  uint16 // source transport port
	DstPort  uint16 // destination transport port
	Protocol uint8  // IP protocol number (6=TCP, 17=UDP, 1=ICMP, ...)
	TCPFlags uint8  // cumulative OR of TCP flags (NetFlow v5 tcp_flags)

	Packets uint32 // packets in the flow
	Bytes   uint64 // total layer-3 bytes in the flow

	// Start and End are flow timestamps in milliseconds since the Unix
	// epoch (NetFlow v5 expresses these relative to router boot; the
	// trace container normalizes them to absolute time).
	Start int64
	End   int64
}

// Common IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// TCP flag bits as used in the NetFlow v5 tcp_flags field.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Feature returns the value of feature k for the record, widened to
// uint64. Feature values are the "items" of §II-B: the pair (kind, value)
// identifies an item, and a transaction cannot contain two items of the
// same kind by construction.
func (r *Record) Feature(k FeatureKind) uint64 {
	switch k {
	case SrcIP:
		return uint64(r.SrcAddr)
	case DstIP:
		return uint64(r.DstAddr)
	case SrcPort:
		return uint64(r.SrcPort)
	case DstPort:
		return uint64(r.DstPort)
	case Proto:
		return uint64(r.Protocol)
	case Packets:
		return uint64(r.Packets)
	case Bytes:
		return r.Bytes
	default:
		panic(fmt.Sprintf("flow: invalid feature kind %d", k))
	}
}

// SetFeature sets feature k to value v, truncating to the feature's native
// width. It is the inverse of Feature and exists mainly for test and
// generator code.
func (r *Record) SetFeature(k FeatureKind, v uint64) {
	switch k {
	case SrcIP:
		r.SrcAddr = uint32(v)
	case DstIP:
		r.DstAddr = uint32(v)
	case SrcPort:
		r.SrcPort = uint16(v)
	case DstPort:
		r.DstPort = uint16(v)
	case Proto:
		r.Protocol = uint8(v)
	case Packets:
		r.Packets = uint32(v)
	case Bytes:
		r.Bytes = v
	default:
		panic(fmt.Sprintf("flow: invalid feature kind %d", k))
	}
}

// Key folds the 5-tuple into a stable 64-bit flow key: equal tuples give
// equal keys in every run and on every platform, so it is a valid
// partitioning key for hash-sharded deployments (internal/shard). The
// fold is a fixed-constant multiply-add, not a hash — partitioners
// should pass it through a seeded hash.Func before reducing to a shard
// index.
func (r *Record) Key() uint64 {
	return flowKey(r.SrcAddr, r.DstAddr, r.SrcPort, r.DstPort, r.Protocol)
}

// flowKey is the fold behind Record.Key and Buffer.Key.
func flowKey(src, dst uint32, sport, dport uint16, proto uint8) uint64 {
	k := uint64(src)<<32 | uint64(dst)
	return k*0x9e3779b97f4a7c15 + (uint64(sport)<<24 | uint64(dport)<<8 | uint64(proto))
}

// Duration returns the flow duration in milliseconds (End - Start); flows
// with End < Start report 0.
func (r *Record) Duration() int64 {
	if r.End < r.Start {
		return 0
	}
	return r.End - r.Start
}

// SrcIPAddr returns the source address as a netip.Addr.
func (r *Record) SrcIPAddr() netip.Addr { return U32ToAddr(r.SrcAddr) }

// DstIPAddr returns the destination address as a netip.Addr.
func (r *Record) DstIPAddr() netip.Addr { return U32ToAddr(r.DstAddr) }

// String renders the record in a compact human-readable form.
func (r *Record) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d proto=%d pkts=%d bytes=%d",
		r.SrcIPAddr(), r.SrcPort, r.DstIPAddr(), r.DstPort,
		r.Protocol, r.Packets, r.Bytes)
}

// U32ToAddr converts a big-endian uint32 IPv4 address to netip.Addr.
func U32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// AddrToU32 converts an IPv4 netip.Addr to its big-endian uint32 form.
// It panics if the address is not IPv4.
func AddrToU32(a netip.Addr) uint32 {
	if !a.Is4() {
		panic("flow: AddrToU32 requires an IPv4 address")
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// MustParseU32 parses a dotted-quad IPv4 string into its uint32 form,
// panicking on malformed input. Intended for constants in tests,
// generators, and examples.
func MustParseU32(s string) uint32 {
	return AddrToU32(netip.MustParseAddr(s))
}

// FormatValue renders a feature value the way an operator would read it in
// an item-set report: IPs as dotted quads, everything else as decimal.
func FormatValue(k FeatureKind, v uint64) string {
	switch k {
	case SrcIP, DstIP:
		return U32ToAddr(uint32(v)).String()
	default:
		return fmt.Sprintf("%d", v)
	}
}
