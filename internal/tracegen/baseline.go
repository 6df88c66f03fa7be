package tracegen

import (
	"math"

	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// The baseline model produces the benign backbone mix. Its goals, in order:
//
//  1. Per-feature flow-count distributions that are *stable across
//     intervals* (so the KL distance between consecutive intervals stays
//     small and approximately stationary — the property §II-C's
//     previous-interval reference depends on);
//  2. Heavy-tailed popularity of ports and hosts (so prefilter collisions
//     with popular values produce the characteristic false-positive
//     item-sets of §III-D, e.g. {dstPort 80});
//  3. Realistic flow length marginals (so the #packets detector and the
//     packets/bytes items behave like the paper's).
//
// The model is intentionally simple: a fixed service catalogue with Zipf
// popularity, Zipf server pools inside the internal range, a Zipf pool of
// external peers with a uniform tail, bounded-Pareto packet counts, and
// per-packet sizes depending on service class.

// service describes one catalogue entry of the benign mix.
type service struct {
	port    uint16
	proto   uint8
	weight  float64 // relative share of benign flows
	pktMin  float64 // bounded-Pareto packet count parameters
	pktMax  float64
	pktAlph float64
	payload float64 // mean payload bytes per packet beyond the 40-byte header
}

// catalogue is the benign service mix. Weights approximate the share of
// flows (not bytes) by dominant services on a 2007-era academic backbone:
// web dominates, mail/DNS/SSH follow, with a tail of everything else.
var catalogue = []service{
	{port: 80, proto: flow.ProtoTCP, weight: 0.33, pktMin: 2, pktMax: 5000, pktAlph: 1.30, payload: 700},
	{port: 443, proto: flow.ProtoTCP, weight: 0.13, pktMin: 2, pktMax: 5000, pktAlph: 1.30, payload: 650},
	{port: 53, proto: flow.ProtoUDP, weight: 0.12, pktMin: 1, pktMax: 4, pktAlph: 2.5, payload: 80},
	{port: 25, proto: flow.ProtoTCP, weight: 0.065, pktMin: 4, pktMax: 800, pktAlph: 1.5, payload: 500},
	{port: 22, proto: flow.ProtoTCP, weight: 0.03, pktMin: 5, pktMax: 10000, pktAlph: 1.2, payload: 200},
	{port: 110, proto: flow.ProtoTCP, weight: 0.02, pktMin: 4, pktMax: 400, pktAlph: 1.6, payload: 400},
	{port: 143, proto: flow.ProtoTCP, weight: 0.02, pktMin: 4, pktMax: 600, pktAlph: 1.6, payload: 400},
	{port: 123, proto: flow.ProtoUDP, weight: 0.015, pktMin: 1, pktMax: 2, pktAlph: 3, payload: 48},
	{port: 8080, proto: flow.ProtoTCP, weight: 0.015, pktMin: 2, pktMax: 3000, pktAlph: 1.3, payload: 700},
	{port: 21, proto: flow.ProtoTCP, weight: 0.01, pktMin: 4, pktMax: 2000, pktAlph: 1.4, payload: 300},
	{port: 3389, proto: flow.ProtoTCP, weight: 0.008, pktMin: 10, pktMax: 5000, pktAlph: 1.3, payload: 250},
	{port: 6667, proto: flow.ProtoTCP, weight: 0.005, pktMin: 3, pktMax: 1000, pktAlph: 1.4, payload: 120},
	{port: 1935, proto: flow.ProtoTCP, weight: 0.005, pktMin: 10, pktMax: 8000, pktAlph: 1.2, payload: 900},
	{port: 9022, proto: flow.ProtoTCP, weight: 0.004, pktMin: 2, pktMax: 200, pktAlph: 1.6, payload: 300},
	// Catch-all high-port peer-to-peer-ish traffic; the actual port is
	// randomized per flow (see baseline.flow), keeping a realistic long
	// tail of destination ports.
	{port: 0, proto: flow.ProtoTCP, weight: 0.195, pktMin: 1, pktMax: 3000, pktAlph: 1.15, payload: 550},
}

const (
	nServers       = 4096  // busy internal servers (Zipf popularity)
	nClients       = 65536 // active internal clients per trace
	nExternalPool  = 49152 // recurring external peers (Zipf popularity)
	externalTailPr = 0.25  // share of external endpoints drawn uniformly
)

// baseline holds the immutable popularity tables, built once per
// generator from the trace seed.
type baseline struct {
	cfg *Config

	svcAlias    *stats.Alias
	serverAlias *stats.Alias // rank -> busy internal server
	extAlias    *stats.Alias // rank -> recurring external peer

	servers  []uint32 // internal server addresses
	clients  []uint32 // internal client addresses
	external []uint32 // recurring external peers
}

func newBaseline(cfg *Config) *baseline {
	r := stats.NewRand(cfg.Seed ^ 0xba5e11e5)
	b := &baseline{cfg: cfg}

	weights := make([]float64, len(catalogue))
	for i, s := range catalogue {
		weights[i] = s.weight
	}
	b.svcAlias = stats.NewAlias(weights)
	b.serverAlias = stats.NewZipfAlias(nServers, 1.05)
	b.extAlias = stats.NewZipfAlias(nExternalPool, 1.02)

	b.servers = make([]uint32, nServers)
	for i := range b.servers {
		b.servers[i] = b.internalAddr(r)
	}
	b.clients = make([]uint32, nClients)
	for i := range b.clients {
		b.clients[i] = b.internalAddr(r)
	}
	b.external = make([]uint32, nExternalPool)
	for i := range b.external {
		b.external[i] = externalAddr(r)
	}
	return b
}

func (b *baseline) internalAddr(r *stats.Rand) uint32 {
	return b.cfg.InternalBase + r.Uint32N(b.cfg.InternalSize)
}

// externalAddr draws a routable-looking address outside the internal range.
func externalAddr(r *stats.Rand) uint32 {
	for {
		a := r.Uint32N(0xdfffffff-0x0b000000) + 0x0b000000 // 11.0.0.0 - 223.255.255.255
		first := a >> 24
		if first == 127 || first == 0 || first >= 224 {
			continue
		}
		return a
	}
}

// diurnal returns the day/night load multiplier for interval idx.
func (b *baseline) diurnal(idx int) float64 {
	if b.cfg.DiurnalAmplitude == 0 {
		return 1
	}
	perDay := (24 * 3600 * 1000) / float64(b.cfg.IntervalLen.Milliseconds())
	phase := 2 * math.Pi * (float64(idx)/perDay - 0.25) // peak mid-afternoon
	return 1 + float64(b.cfg.DiurnalAmplitude*math.Sin(phase))
}

// count returns the number of benign flows for interval idx, combining the
// diurnal cycle with ±3% multiplicative noise.
func (b *baseline) count(idx int, r *stats.Rand) int {
	n := float64(b.cfg.BaseFlows) * b.diurnal(idx) * (1 + float64(0.03*r.NormFloat64()))
	if n < 1 {
		n = 1
	}
	return int(n)
}

// flow synthesizes one benign flow inside [startMs, endMs).
func (b *baseline) flow(r *stats.Rand, startMs, endMs int64) flow.Record {
	svc := catalogue[b.svcAlias.Sample(r)]
	port := svc.port
	if port == 0 { // long-tail service: random registered/dynamic port
		port = uint16(1024 + r.IntN(64512))
	}

	var rec flow.Record
	rec.Protocol = svc.proto

	// Pick server and client endpoints; half the flows are inbound
	// (external client -> internal server), half outbound.
	var serverIP, clientIP uint32
	if r.Bernoulli(0.65) {
		serverIP = b.servers[b.serverAlias.Sample(r)]
	} else {
		serverIP = b.internalServerTail(r)
	}
	if r.Bernoulli(externalTailPr) {
		clientIP = externalAddr(r)
	} else {
		clientIP = b.external[b.extAlias.Sample(r)]
	}
	inbound := r.Bernoulli(0.5)
	if inbound {
		rec.SrcAddr, rec.DstAddr = clientIP, serverIP
		rec.SrcPort, rec.DstPort = ephemeralPort(r), port
	} else {
		// Outbound: internal client talks to an external server.
		rec.SrcAddr = b.clients[r.IntN(len(b.clients))]
		rec.DstAddr = clientIP
		rec.SrcPort, rec.DstPort = ephemeralPort(r), port
	}

	pkts := svc.samplePackets(r)
	rec.Packets = pkts
	rec.Bytes = svc.sampleBytes(r, pkts)
	if rec.Protocol == flow.ProtoTCP {
		rec.TCPFlags = flow.FlagSYN | flow.FlagACK | flow.FlagPSH | flow.FlagFIN
	}

	rec.Start = startMs + int64(r.Float64()*float64(endMs-startMs))
	dur := int64(r.LogNormal(6.5, 1.8)) // ~ms scale, heavy-tailed seconds
	rec.End = rec.Start + dur
	if rec.End >= endMs {
		rec.End = endMs - 1
	}
	if rec.End < rec.Start {
		rec.End = rec.Start
	}
	return rec
}

// internalServerTail picks a rarely used internal address, modeling the
// long tail of lightly loaded hosts behind the popular servers.
func (b *baseline) internalServerTail(r *stats.Rand) uint32 {
	return b.cfg.InternalBase + r.Uint32N(b.cfg.InternalSize)
}

func ephemeralPort(r *stats.Rand) uint16 {
	return uint16(1024 + r.IntN(64512))
}

func (s *service) samplePackets(r *stats.Rand) uint32 {
	p := r.BoundedPareto(s.pktAlph, s.pktMin, s.pktMax)
	if p < 1 {
		p = 1
	}
	return uint32(p)
}

func (s *service) sampleBytes(r *stats.Rand, pkts uint32) uint64 {
	// 40-byte headers plus a noisy per-packet payload.
	perPkt := 40 + float64(s.payload*(0.5+r.Float64()))
	return uint64(float64(float64(pkts) * perPkt))
}
