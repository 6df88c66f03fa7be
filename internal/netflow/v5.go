// Package netflow implements the flow-collection substrate: streaming
// NetFlow v5 readers and writers that convert between export packets
// and the pipeline's flow.Record model, a v9 codec, and CSV output.
//
// The paper's dataset is non-sampled NetFlow v5 collected from a SWITCH
// (AS559) peering link (§III-A). This package reproduces that ingestion
// path: the synthetic trace generator exports standard v5 packets, and the
// detectors consume records exactly as they would from a router export.
// There is one v5 representation, the bytes: the Reader decodes each
// record straight from its packet buffer into a flow.Record, and the
// Writer encodes each flow.Record straight into its packet buffer.
//
// The codecs are deterministic and order-preserving: the same record
// sequence always serializes to the same bytes (records pack into
// packets in write order at a fixed batch size), and readers yield
// records in packet order — so traces are reproducible byte-for-byte
// and a replayed trace drives the pipeline identically every run.
package netflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"anomalyx/internal/flow"
)

// Version is the only NetFlow version the v5 codec speaks.
const Version = 5

// Wire sizes of the v5 export format.
const (
	HeaderLen    = 24
	RecordLen    = 48
	MaxRecords   = 30 // per RFC: v5 exports carry at most 30 records
	MaxPacketLen = HeaderLen + MaxRecords*RecordLen
)

// Errors returned by the v5 codec.
var (
	ErrBadVersion = errors.New("netflow: not a NetFlow v5 packet")
	ErrBadCount   = errors.New("netflow: record count out of range or inconsistent with length")
)

// errTimeRange is the v5 Writer's and the v9 Encoder's error for a flow
// their packets cannot carry: a timestamp outside the uint32 uptime
// range of the device's boot time, or an export time outside the
// header's uint32 fields.
var errTimeRange = errors.New("netflow: flow time outside the exporter's uptime range")

// The v5 header layout, big-endian: version(2) count(2) sysUptime(4)
// unixSecs(4) unixNsecs(4) flowSequence(4) engineType(1) engineID(1)
// samplingInterval(2). Each 48-byte record: srcAddr(4) dstAddr(4)
// nextHop(4) input(2) output(2) packets(4) octets(4) first(4) last(4)
// srcPort(2) dstPort(2) pad(1) tcpFlags(1) protocol(1) tos(1) srcAS(2)
// dstAS(2) srcMask(1) dstMask(1) pad(2). First/Last are milliseconds of
// device uptime; the header carries the export wall clock and the
// uptime at export, from which absolute flow times follow:
//
//	bootWallMs = unixMs(header) - sysUptime
//	startMs    = bootWallMs + First

// v5BootMs returns the wall-clock boot time, in milliseconds since the
// epoch, of the device that exported the packet with header hdr.
func v5BootMs(hdr []byte) int64 {
	be := binary.BigEndian
	exportMs := int64(be.Uint32(hdr[8:]))*1000 + int64(be.Uint32(hdr[12:]))/1e6
	return exportMs - int64(be.Uint32(hdr[4:]))
}

// decodeV5Record decodes the 48-byte v5 record b of a packet exported by
// a device booted at bootMs.
func decodeV5Record(b []byte, bootMs int64) flow.Record {
	be := binary.BigEndian
	return flow.Record{
		SrcAddr:  be.Uint32(b[0:]),
		DstAddr:  be.Uint32(b[4:]),
		SrcPort:  be.Uint16(b[32:]),
		DstPort:  be.Uint16(b[34:]),
		Protocol: b[38],
		TCPFlags: b[37],
		Packets:  be.Uint32(b[16:]),
		Bytes:    uint64(be.Uint32(b[20:])),
		Start:    bootMs + int64(be.Uint32(b[24:])),
		End:      bootMs + int64(be.Uint32(b[28:])),
	}
}

// encodeV5Record encodes f as the 48-byte v5 record b relative to a
// device booted at bootMs, whose uptime range must hold f's timestamps.
// Fields flow.Record does not carry are zero; octets saturate at the
// field's 32 bits.
func encodeV5Record(b []byte, bootMs int64, f *flow.Record) {
	be := binary.BigEndian
	clear(b[:RecordLen])
	be.PutUint32(b[0:], f.SrcAddr)
	be.PutUint32(b[4:], f.DstAddr)
	be.PutUint32(b[16:], f.Packets)
	be.PutUint32(b[20:], uint32(min(f.Bytes, math.MaxUint32)))
	be.PutUint32(b[24:], uint32(f.Start-bootMs))
	be.PutUint32(b[28:], uint32(f.End-bootMs))
	be.PutUint16(b[32:], f.SrcPort)
	be.PutUint16(b[34:], f.DstPort)
	b[37] = f.TCPFlags
	b[38] = f.Protocol
}

// A trace file is a stream of concatenated NetFlow v5 export packets —
// exactly the byte stream a collector writes when it dumps the UDP export
// payloads of a router back to back. Reader and Writer below stream
// flow.Records out of and into that container without buffering whole
// intervals in memory, which is what lets the two-week experiments run in
// constant space.

// Reader streams flow records from a concatenated-v5-packet stream. It
// reads each packet into one reused buffer and decodes a record from it
// per Next call, so it allocates nothing per packet.
type Reader struct {
	br     *bufio.Reader
	buf    []byte // the current packet
	bootMs int64  // the current packet's device boot time
	count  int    // records in the current packet
	next   int    // next record index within the current packet
	err    error
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		br:  bufio.NewReaderSize(r, 64<<10),
		buf: make([]byte, MaxPacketLen),
	}
}

// Next returns the next flow record. It returns io.EOF at a clean end of
// stream and a descriptive error on truncation or corruption.
func (r *Reader) Next() (flow.Record, error) {
	if r.err != nil {
		return flow.Record{}, r.err
	}
	if r.next >= r.count {
		if err := r.readPacket(); err != nil {
			r.err = err
			return flow.Record{}, err
		}
	}
	rec := decodeV5Record(r.buf[HeaderLen+r.next*RecordLen:], r.bootMs)
	r.next++
	return rec, nil
}

// ReadAll drains the stream into a slice. Intended for tests and small
// traces; experiments stream with Next.
func (r *Reader) ReadAll() ([]flow.Record, error) {
	var out []flow.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// readPacket reads and validates the next packet into r.buf.
func (r *Reader) readPacket() error {
	hdr := r.buf[:HeaderLen]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.EOF {
			return io.EOF // clean boundary
		}
		return fmt.Errorf("netflow: truncated header: %w", err)
	}
	be := binary.BigEndian
	count := int(be.Uint16(hdr[2:]))
	if count < 1 || count > MaxRecords {
		return fmt.Errorf("%w: count %d", ErrBadCount, count)
	}
	if _, err := io.ReadFull(r.br, r.buf[HeaderLen:HeaderLen+count*RecordLen]); err != nil {
		return fmt.Errorf("netflow: truncated packet body: %w", err)
	}
	if v := be.Uint16(hdr[0:]); v != Version {
		return fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	r.bootMs, r.count, r.next = v5BootMs(hdr), count, 0
	return nil
}

// Writer batches flow records into maximally filled v5 export packets and
// writes them to the underlying stream. It encodes each record into its
// packet buffer as it arrives.
type Writer struct {
	bw     *bufio.Writer
	bootMs int64 // simulated device boot time, wall clock ms
	seq    uint32
	n      int   // records in the pending packet
	latest int64 // the pending packet's export time, wall clock ms
	buf    []byte
}

// NewWriter returns a Writer whose simulated export device booted at
// bootMs (milliseconds since the Unix epoch). Flow timestamps must lie
// in [bootMs, bootMs+2^32) — the uint32 uptime-relative encoding — and
// flow ends in [0, 2^32) seconds since the epoch, where the header's
// export seconds reach; Write rejects any other flow.
func NewWriter(w io.Writer, bootMs int64) *Writer {
	return &Writer{
		bw:     bufio.NewWriterSize(w, 64<<10),
		bootMs: bootMs,
		latest: bootMs,
		buf:    make([]byte, MaxPacketLen),
	}
}

// Write queues one flow record, flushing a full packet when 30 are
// pending. It returns an error, and queues nothing, for a flow whose
// timestamps the packets cannot carry (see NewWriter).
func (w *Writer) Write(f flow.Record) error {
	if !inUptime(w.bootMs, f.Start) || !inUptime(w.bootMs, f.End) {
		return fmt.Errorf("%w: flow [%d, %d] ms, device booted at %d ms", errTimeRange, f.Start, f.End, w.bootMs)
	}
	// The packet's export time is its latest flow end (or the boot time,
	// which no end precedes); the header carries it in uint32 seconds.
	if f.End < 0 || f.End/1000 > math.MaxUint32 {
		return fmt.Errorf("%w: export time %d ms", errTimeRange, f.End)
	}
	encodeV5Record(w.buf[HeaderLen+w.n*RecordLen:], w.bootMs, &f)
	w.n++
	// Stamp the header with the latest flow end as the export time, the
	// way a real exporter emits a packet after its newest flow expired.
	w.latest = max(w.latest, f.End)
	if w.n == MaxRecords {
		return w.flushPacket()
	}
	return nil
}

// inUptime reports whether ms lies in [bootMs, bootMs+2^32), the uint32
// uptime milliseconds a record's First and Last carry. The unsigned
// difference is exact for any ms >= bootMs.
func inUptime(bootMs, ms int64) bool {
	return ms >= bootMs && uint64(ms)-uint64(bootMs) <= math.MaxUint32
}

// Flush writes any partially filled packet and flushes the buffered
// writer. Call it exactly once, after the last Write.
func (w *Writer) Flush() error {
	if w.n > 0 {
		if err := w.flushPacket(); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

func (w *Writer) flushPacket() error {
	be := binary.BigEndian
	hdr := w.buf[:HeaderLen]
	be.PutUint16(hdr[0:], Version)
	be.PutUint16(hdr[2:], uint16(w.n))
	be.PutUint32(hdr[4:], uint32(w.latest-w.bootMs))
	be.PutUint32(hdr[8:], uint32(w.latest/1000))
	be.PutUint32(hdr[12:], uint32(w.latest%1000)*1e6)
	be.PutUint32(hdr[16:], w.seq)
	clear(hdr[20:]) // engine type and ID, sampling interval
	pkt := w.buf[:HeaderLen+w.n*RecordLen]
	w.seq += uint32(w.n)
	w.n, w.latest = 0, w.bootMs
	_, err := w.bw.Write(pkt)
	return err
}
