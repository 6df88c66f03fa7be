package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"anomalyx/internal/flow"
)

// NetFlow v9 (RFC 3954) is the template-based successor of v5 and the
// other export format commonly available on backbone routers of the
// paper's era. The codec here understands enough of v9 to interoperate
// with standard exporters for the fields the pipeline consumes: the
// 5-tuple, TCP flags, packet/byte counters, and flow timestamps.
// Templates are cached per (source ID, template ID) as the RFC requires;
// data flowsets arriving before their template are counted and skipped.

// V9Version is the version field value of v9 export packets.
const V9Version = 9

// v9HeaderLen is the 20-byte v9 packet header.
const v9HeaderLen = 20

// RFC 3954 field types used by this codec.
const (
	V9FieldInBytes   = 1
	V9FieldInPkts    = 2
	V9FieldProtocol  = 4
	V9FieldTCPFlags  = 6
	V9FieldL4SrcPort = 7
	V9FieldSrcAddr   = 8
	V9FieldL4DstPort = 11
	V9FieldDstAddr   = 12
	V9FieldLast      = 21 // LAST_SWITCHED, sysUptime ms
	V9FieldFirst     = 22 // FIRST_SWITCHED, sysUptime ms
)

// Errors of the v9 codec.
var (
	ErrV9BadVersion = errors.New("netflow: not a NetFlow v9 packet")
	ErrV9Truncated  = errors.New("netflow: truncated v9 packet")
)

// v9Field is one (type, length) template entry.
type v9Field struct {
	Type   uint16
	Length uint16
}

// v9Template is a cached template.
type v9Template struct {
	fields []v9Field
	width  int // record length in bytes
}

// V9Decoder parses v9 export packets into flow records, maintaining the
// template cache across packets.
type V9Decoder struct {
	templates map[uint64]*v9Template // (sourceID<<16 | templateID)
	// SkippedRecordsNoTemplate counts data flowsets dropped because
	// their template had not been seen yet (normal at stream start).
	SkippedNoTemplate int
}

// NewV9Decoder returns an empty-cache decoder.
func NewV9Decoder() *V9Decoder {
	return &V9Decoder{templates: make(map[uint64]*v9Template)}
}

// Decode parses one v9 export packet, returning the flow records of its
// data flowsets. Template flowsets update the cache and produce no
// records.
func (d *V9Decoder) Decode(buf []byte) ([]flow.Record, error) {
	if len(buf) < v9HeaderLen {
		return nil, ErrV9Truncated
	}
	be := binary.BigEndian
	if v := be.Uint16(buf[0:]); v != V9Version {
		return nil, fmt.Errorf("%w: version %d", ErrV9BadVersion, v)
	}
	sysUptime := be.Uint32(buf[4:])
	unixSecs := be.Uint32(buf[8:])
	sourceID := be.Uint32(buf[16:])
	bootMs := int64(unixSecs)*1000 - int64(sysUptime)

	var out []flow.Record
	off := v9HeaderLen
	for off+4 <= len(buf) {
		setID := int(be.Uint16(buf[off:]))
		setLen := int(be.Uint16(buf[off+2:]))
		if setLen < 4 || off+setLen > len(buf) {
			return out, fmt.Errorf("%w: flowset length %d at offset %d", ErrV9Truncated, setLen, off)
		}
		body := buf[off+4 : off+setLen]
		switch {
		case setID == 0: // template flowset
			if err := d.parseTemplates(sourceID, body); err != nil {
				return out, err
			}
		case setID >= 256: // data flowset
			var skipped bool
			out, skipped = d.parseData(out, sourceID, uint16(setID), body, bootMs)
			if skipped {
				d.SkippedNoTemplate++
			}
		}
		// setID 1 (options templates) and 2..255 (reserved) are skipped.
		off += setLen
	}
	return out, nil
}

func (d *V9Decoder) parseTemplates(sourceID uint32, body []byte) error {
	be := binary.BigEndian
	off := 0
	for off+4 <= len(body) {
		tid := be.Uint16(body[off:])
		fieldCount := int(be.Uint16(body[off+2:]))
		off += 4
		if tid < 256 {
			return fmt.Errorf("netflow: invalid v9 template id %d", tid)
		}
		if off+fieldCount*4 > len(body) {
			return fmt.Errorf("%w: template %d field list", ErrV9Truncated, tid)
		}
		t := &v9Template{fields: make([]v9Field, fieldCount)}
		for i := 0; i < fieldCount; i++ {
			t.fields[i] = v9Field{
				Type:   be.Uint16(body[off:]),
				Length: be.Uint16(body[off+2:]),
			}
			t.width += int(t.fields[i].Length)
			off += 4
		}
		if t.width == 0 {
			return fmt.Errorf("netflow: v9 template %d has zero width", tid)
		}
		d.templates[templateKey(sourceID, tid)] = t
	}
	return nil
}

// parseData appends a data flowset's records to out, growing it once by
// the number of whole records the flowset's bytes hold — a one-byte
// template makes that one 48-byte flow.Record per input byte, so the
// slice must not also be grown by doubling and then copied.
func (d *V9Decoder) parseData(out []flow.Record, sourceID uint32, tid uint16, body []byte, bootMs int64) ([]flow.Record, bool) {
	t := d.templates[templateKey(sourceID, tid)]
	if t == nil {
		return out, true // template not yet seen: skip per RFC
	}
	out = slices.Grow(out, len(body)/t.width)
	for off := 0; off+t.width <= len(body); off += t.width {
		out = append(out, t.decodeRecord(body[off:off+t.width], bootMs))
	}
	// Remainder is padding (< template width).
	return out, false
}

func (t *v9Template) decodeRecord(b []byte, bootMs int64) flow.Record {
	var rec flow.Record
	off := 0
	for _, f := range t.fields {
		v := beUint(b[off : off+int(f.Length)])
		switch f.Type {
		case V9FieldInBytes:
			rec.Bytes = v
		case V9FieldInPkts:
			rec.Packets = uint32(v)
		case V9FieldProtocol:
			rec.Protocol = uint8(v)
		case V9FieldTCPFlags:
			rec.TCPFlags = uint8(v)
		case V9FieldL4SrcPort:
			rec.SrcPort = uint16(v)
		case V9FieldSrcAddr:
			rec.SrcAddr = uint32(v)
		case V9FieldL4DstPort:
			rec.DstPort = uint16(v)
		case V9FieldDstAddr:
			rec.DstAddr = uint32(v)
		case V9FieldFirst:
			rec.Start = bootMs + int64(uint32(v))
		case V9FieldLast:
			rec.End = bootMs + int64(uint32(v))
		default:
			// Unknown fields are skipped by length.
		}
		off += int(f.Length)
	}
	return rec
}

// beUint reads a 1..8-byte big-endian unsigned value.
func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func templateKey(sourceID uint32, tid uint16) uint64 {
	return uint64(sourceID)<<16 | uint64(tid)
}

// v9ExportTemplate is the fixed template the encoder uses: the ten
// fields the pipeline consumes, in a layout any RFC 3954 collector can
// parse.
var v9ExportTemplate = []v9Field{
	{V9FieldSrcAddr, 4}, {V9FieldDstAddr, 4},
	{V9FieldL4SrcPort, 2}, {V9FieldL4DstPort, 2},
	{V9FieldProtocol, 1}, {V9FieldTCPFlags, 1},
	{V9FieldInPkts, 4}, {V9FieldInBytes, 4},
	{V9FieldFirst, 4}, {V9FieldLast, 4},
}

// V9TemplateID is the template id the encoder emits.
const V9TemplateID = 260

// V9Encoder serializes flow records as v9 export packets using the fixed
// template above. The template flowset is prepended to every packet
// (collectors tolerate and many exporters do this; it keeps the stream
// self-describing from any offset).
type V9Encoder struct {
	bootMs   int64
	sourceID uint32
	seq      uint32
}

// NewV9Encoder creates an encoder whose exporter booted at bootMs (Unix
// milliseconds).
func NewV9Encoder(bootMs int64, sourceID uint32) *V9Encoder {
	return &V9Encoder{bootMs: bootMs, sourceID: sourceID}
}

// errV9Overflow is Encode's error for more records than one data
// flowset's 16-bit length can count.
var errV9Overflow = errors.New("netflow: too many records for one v9 packet")

// Encode builds one export packet carrying recs: at most 2184 records,
// what one data flowset's 16-bit length counts at the export template;
// callers batch as needed. The export timestamp is the latest flow end.
// Like the v5 Writer, it returns an error and encodes nothing for a flow
// whose Start or End lies outside [bootMs, bootMs+2^32) ms, the uint32
// uptime the record carries, or an export time the header cannot carry.
func (e *V9Encoder) Encode(recs []flow.Record) ([]byte, error) {
	if len(recs) == 0 {
		return nil, errors.New("netflow: empty v9 packet")
	}
	be := binary.BigEndian
	latest := e.bootMs
	for i := range recs {
		r := &recs[i]
		if !inUptime(e.bootMs, r.Start) || !inUptime(e.bootMs, r.End) {
			return nil, fmt.Errorf("%w: flow %d [%d, %d] ms, exporter booted at %d ms", errTimeRange, i, r.Start, r.End, e.bootMs)
		}
		latest = max(latest, r.End)
	}
	// The v9 header timestamps the export with second resolution
	// (unixSecs) plus a millisecond uptime. Rounding the export instant
	// up to a whole second keeps bootMs = unixSecs*1000 - sysUptime
	// exactly recoverable, so flow timestamps survive a round trip.
	exportMs := ((latest + 999) / 1000) * 1000
	if !inUptime(e.bootMs, exportMs) || exportMs < 0 || exportMs/1000 > math.MaxUint32 {
		return nil, fmt.Errorf("%w: export time %d ms", errTimeRange, exportMs)
	}

	recordWidth := 0
	for _, f := range v9ExportTemplate {
		recordWidth += int(f.Length)
	}
	tmplLen := 4 + 4 + len(v9ExportTemplate)*4
	dataLen := 4 + len(recs)*recordWidth
	pad := (4 - dataLen%4) % 4
	dataLen += pad
	if dataLen > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d records", errV9Overflow, len(recs))
	}

	buf := make([]byte, v9HeaderLen+tmplLen+dataLen)
	// Header.
	be.PutUint16(buf[0:], V9Version)
	be.PutUint16(buf[2:], uint16(1+len(recs))) // template + data records
	be.PutUint32(buf[4:], uint32(exportMs-e.bootMs))
	be.PutUint32(buf[8:], uint32(exportMs/1000))
	be.PutUint32(buf[12:], e.seq)
	be.PutUint32(buf[16:], e.sourceID)
	e.seq++

	// Template flowset.
	off := v9HeaderLen
	be.PutUint16(buf[off:], 0)
	be.PutUint16(buf[off+2:], uint16(tmplLen))
	be.PutUint16(buf[off+4:], V9TemplateID)
	be.PutUint16(buf[off+6:], uint16(len(v9ExportTemplate)))
	off += 8
	for _, f := range v9ExportTemplate {
		be.PutUint16(buf[off:], f.Type)
		be.PutUint16(buf[off+2:], f.Length)
		off += 4
	}

	// Data flowset. Timestamps are encoded relative to boot; the header
	// carries (sysUptime, unixSecs) consistent with bootMs.
	be.PutUint16(buf[off:], V9TemplateID)
	be.PutUint16(buf[off+2:], uint16(dataLen))
	off += 4
	for i := range recs {
		r := &recs[i]
		be.PutUint32(buf[off:], r.SrcAddr)
		be.PutUint32(buf[off+4:], r.DstAddr)
		be.PutUint16(buf[off+8:], r.SrcPort)
		be.PutUint16(buf[off+10:], r.DstPort)
		buf[off+12] = r.Protocol
		buf[off+13] = r.TCPFlags
		be.PutUint32(buf[off+14:], r.Packets)
		be.PutUint32(buf[off+18:], uint32(min(r.Bytes, 0xffffffff)))
		be.PutUint32(buf[off+22:], uint32(r.Start-e.bootMs))
		be.PutUint32(buf[off+26:], uint32(r.End-e.bootMs))
		off += recordWidth
	}
	return buf, nil
}
