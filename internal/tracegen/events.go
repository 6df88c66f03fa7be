package tracegen

import (
	"fmt"

	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// Class enumerates the seven anomaly classes of the paper's Table IV.
type Class uint8

const (
	Flooding Class = iota
	Backscatter
	NetworkExperiment
	DDoS
	Scanning
	Spam
	Unknown
	numClasses
)

var classNames = [numClasses]string{
	"Flooding", "Backscatter", "Network Experiment", "DDoS",
	"Scanning", "Spam", "Unknown",
}

// String returns the class name as it appears in Table IV.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// FeatureValue is one (feature kind, value) pair — the unit of detector
// meta-data, of item-set items, and of event signatures.
type FeatureValue struct {
	Kind  flow.FeatureKind
	Value uint64
}

// String renders the pair in the paper's item notation, e.g. "dstPort=7000".
func (fv FeatureValue) String() string {
	return fv.Kind.String() + "=" + flow.FormatValue(fv.Kind, fv.Value)
}

// Event is one scheduled anomalous event: a class, an inclusive interval
// range, and a target flow volume per interval. Concrete endpoints (victim
// addresses, scanner hosts, ports) are derived deterministically from the
// trace seed and the event ID when a Generator is built, and exposed via
// GroundTruth.
type Event struct {
	ID    int
	Class Class
	Start int // first affected interval (inclusive)
	End   int // last affected interval (inclusive)
	Flows int // approximate anomalous flows per affected interval
}

// Active reports whether the event injects flows into interval idx.
func (e *Event) Active(idx int) bool { return idx >= e.Start && idx <= e.End }

// GroundTruthEvent augments a scheduled event with its materialized
// parameters and signature, for evaluation against extracted item-sets.
type GroundTruthEvent struct {
	Event
	Name string
	// Signature holds the feature values that define the event. An
	// extracted item-set is a true positive for the event if it contains
	// at least one signature value (§III-A's manual verification, made
	// mechanical — see DESIGN.md §3).
	Signature []FeatureValue
}

// Matches reports whether an item-set containing the given feature values
// matches this event's signature.
func (g *GroundTruthEvent) Matches(items []FeatureValue) bool {
	for _, it := range items {
		for _, sig := range g.Signature {
			if it == sig {
				return true
			}
		}
	}
	return false
}

// eventState carries the materialized per-event parameters used during
// generation.
type eventState struct {
	GroundTruthEvent

	victimIP   uint32   // flooding, ddos, unknown
	victimPort uint16   // flooding, backscatter, experiment, unknown, scanning target port
	sources    []uint32 // flooding attackers, spam bots
	scannerIP  uint32   // scanning, experiment source
	pktCount   uint32   // fixed per-flow packets where the class pins it
	byteCount  uint64   // fixed per-flow bytes where the class pins it
}

// uncommonPorts are target-port choices that do not collide with the
// benign service catalogue, used by classes whose footprint is defined by
// an unusual port (the paper's flooding example used port 7000).
var uncommonPorts = []uint16{7000, 9996, 12543, 27015, 31337, 5061, 16891, 40123}

// scanPorts are classic scanning targets (absent from the benign
// catalogue, like the Sasser/Blaster-era services).
var scanPorts = []uint16{445, 135, 139, 1433, 5900, 4899, 2967, 1025}

// materialize derives the concrete parameters of a scheduled event.
func materialize(cfg *Config, ev Event) *eventState {
	r := stats.NewRand(cfg.Seed ^ 0xe7e27 ^ uint64(ev.ID)*0x9e3779b97f4a7c15)
	st := &eventState{}
	st.Event = ev

	internal := func() uint32 { return cfg.InternalBase + r.Uint32N(cfg.InternalSize) }

	switch ev.Class {
	case Flooding:
		// A small number of compromised hosts flood one victim host and
		// port (§II-B example: hosts flooding victim E on dstPort 7000).
		st.victimIP = internal()
		st.victimPort = uncommonPorts[r.IntN(len(uncommonPorts))]
		n := 3 + r.IntN(5)
		for i := 0; i < n; i++ {
			st.sources = append(st.sources, externalAddr(r))
		}
		st.Signature = []FeatureValue{
			{flow.DstIP, uint64(st.victimIP)},
			{flow.DstPort, uint64(st.victimPort)},
		}
		for _, s := range st.sources {
			st.Signature = append(st.Signature, FeatureValue{flow.SrcIP, uint64(s)})
		}
		st.Name = fmt.Sprintf("flooding of %s:%d by %d hosts",
			flow.U32ToAddr(st.victimIP), st.victimPort, n)

	case Backscatter:
		// Responses of a remote DoS victim to spoofed sources in our
		// range: every flow has a different source IP and a random
		// source port, with a common destination port (§II-B: port 9022).
		st.victimPort = 9022
		if r.Bernoulli(0.5) {
			st.victimPort = uncommonPorts[r.IntN(len(uncommonPorts))]
		}
		st.pktCount = 1
		st.byteCount = 40
		st.Signature = []FeatureValue{{flow.DstPort, uint64(st.victimPort)}}
		st.Name = fmt.Sprintf("backscatter on dstPort %d", st.victimPort)

	case NetworkExperiment:
		// A PlanetLab-style measurement host probing many external
		// destinations on one unusual port with fixed-size flows.
		st.scannerIP = internal()
		st.victimPort = uncommonPorts[r.IntN(len(uncommonPorts))]
		st.pktCount = 3
		st.byteCount = 3 * 64
		st.Signature = []FeatureValue{
			{flow.SrcIP, uint64(st.scannerIP)},
			{flow.DstPort, uint64(st.victimPort)},
		}
		st.Name = fmt.Sprintf("network experiment from %s on dstPort %d",
			flow.U32ToAddr(st.scannerIP), st.victimPort)

	case DDoS:
		// Many distinct sources target one victim. The service port may
		// be a common one (80), in which case only the victim address
		// defines the event — the situation §III-D calls out as FP-prone.
		st.victimIP = internal()
		if r.Bernoulli(0.5) {
			st.victimPort = 80
		} else {
			st.victimPort = uncommonPorts[r.IntN(len(uncommonPorts))]
		}
		st.pktCount = 2
		st.Signature = []FeatureValue{{flow.DstIP, uint64(st.victimIP)}}
		if st.victimPort != 80 {
			st.Signature = append(st.Signature, FeatureValue{flow.DstPort, uint64(st.victimPort)})
		}
		st.Name = fmt.Sprintf("ddos on %s:%d", flow.U32ToAddr(st.victimIP), st.victimPort)

	case Scanning:
		// One scanner sweeps the internal range on a fixed service port
		// with single-packet probes of fixed size.
		st.scannerIP = externalAddr(r)
		st.victimPort = scanPorts[r.IntN(len(scanPorts))]
		st.pktCount = 1
		st.byteCount = 48
		st.Signature = []FeatureValue{
			{flow.SrcIP, uint64(st.scannerIP)},
			{flow.DstPort, uint64(st.victimPort)},
		}
		st.Name = fmt.Sprintf("scan of dstPort %d from %s",
			st.victimPort, flow.U32ToAddr(st.scannerIP))

	case Spam:
		// A handful of bots deliver to many SMTP servers; the footprint
		// is the bots' source addresses plus the spike on dstPort 25.
		st.victimPort = 25
		n := 3 + r.IntN(3)
		for i := 0; i < n; i++ {
			st.sources = append(st.sources, externalAddr(r))
		}
		st.Signature = []FeatureValue{{flow.DstPort, 25}}
		for _, s := range st.sources {
			st.Signature = append(st.Signature, FeatureValue{flow.SrcIP, uint64(s)})
		}
		st.Name = fmt.Sprintf("spam campaign from %d hosts", n)

	case Unknown:
		// An unexplained fixed-size UDP stream toward a few hosts on a
		// high port — the kind of event the analysts could not classify.
		st.victimIP = internal()
		st.victimPort = uint16(20000 + r.IntN(40000))
		st.pktCount = 5
		st.byteCount = 5 * 120
		st.Signature = []FeatureValue{
			{flow.DstPort, uint64(st.victimPort)},
			{flow.DstIP, uint64(st.victimIP)},
		}
		st.Name = fmt.Sprintf("unknown udp stream to %s:%d",
			flow.U32ToAddr(st.victimIP), st.victimPort)

	default:
		panic(fmt.Sprintf("tracegen: invalid class %d", ev.Class))
	}
	return st
}

// inject appends the event's flows for interval idx to dst.
func (st *eventState) inject(cfg *Config, idx int, r *stats.Rand, dst []flow.Record) []flow.Record {
	startMs := cfg.IntervalStart(idx)
	endMs := startMs + cfg.IntervalLen.Milliseconds()
	// ±10% volume jitter so consecutive intervals of a multi-interval
	// event are not byte-identical.
	n := int(float64(st.Flows) * (0.9 + float64(0.2*r.Float64())))

	internal := func() uint32 { return cfg.InternalBase + r.Uint32N(cfg.InternalSize) }
	stamp := func(rec *flow.Record) {
		rec.Start = startMs + int64(r.Float64()*float64(endMs-startMs))
		rec.End = rec.Start + int64(r.IntN(2000))
		if rec.End >= endMs {
			rec.End = endMs - 1
		}
	}

	for i := 0; i < n; i++ {
		var rec flow.Record
		switch st.Class {
		case Flooding:
			rec = flow.Record{
				SrcAddr: st.sources[r.IntN(len(st.sources))], DstAddr: st.victimIP,
				SrcPort: ephemeralPort(r), DstPort: st.victimPort,
				Protocol: flow.ProtoTCP, TCPFlags: flow.FlagSYN,
				Packets: uint32(1 + r.IntN(3)),
			}
			rec.Bytes = uint64(rec.Packets) * 40
		case Backscatter:
			rec = flow.Record{
				SrcAddr: externalAddr(r), DstAddr: internal(),
				SrcPort: ephemeralPort(r), DstPort: st.victimPort,
				Protocol: flow.ProtoTCP, TCPFlags: flow.FlagSYN | flow.FlagACK,
				Packets: st.pktCount, Bytes: st.byteCount,
			}
		case NetworkExperiment:
			rec = flow.Record{
				SrcAddr: st.scannerIP, DstAddr: externalAddr(r),
				SrcPort: ephemeralPort(r), DstPort: st.victimPort,
				Protocol: flow.ProtoUDP,
				Packets:  st.pktCount, Bytes: st.byteCount,
			}
		case DDoS:
			rec = flow.Record{
				SrcAddr: externalAddr(r), DstAddr: st.victimIP,
				SrcPort: ephemeralPort(r), DstPort: st.victimPort,
				Protocol: flow.ProtoTCP, TCPFlags: flow.FlagSYN,
				Packets: st.pktCount, Bytes: uint64(st.pktCount) * 40,
			}
		case Scanning:
			rec = flow.Record{
				SrcAddr: st.scannerIP, DstAddr: internal(),
				SrcPort: ephemeralPort(r), DstPort: st.victimPort,
				Protocol: flow.ProtoTCP, TCPFlags: flow.FlagSYN,
				Packets: st.pktCount, Bytes: st.byteCount,
			}
		case Spam:
			rec = flow.Record{
				SrcAddr: st.sources[r.IntN(len(st.sources))], DstAddr: externalAddr(r),
				SrcPort: ephemeralPort(r), DstPort: 25,
				Protocol: flow.ProtoTCP, TCPFlags: flow.FlagSYN | flow.FlagACK | flow.FlagPSH,
				Packets: uint32(10 + r.IntN(50)),
			}
			rec.Bytes = uint64(rec.Packets) * uint64(200+r.IntN(800))
		case Unknown:
			rec = flow.Record{
				SrcAddr: externalAddr(r), DstAddr: st.victimIP,
				SrcPort: ephemeralPort(r), DstPort: st.victimPort,
				Protocol: flow.ProtoUDP,
				Packets:  st.pktCount, Bytes: st.byteCount,
			}
		}
		stamp(&rec)
		dst = append(dst, rec)
	}
	return dst
}
