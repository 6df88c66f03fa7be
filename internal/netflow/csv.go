package netflow

import (
	"encoding/csv"
	"io"
	"strconv"

	"anomalyx/internal/flow"
)

// CSV interchange: one record per line with the columns below. This is the
// human-inspectable companion to the binary container and the format the
// cmd/tracegen -format=csv flag emits.

// CSVHeader is the column header written by WriteCSV.
var CSVHeader = []string{
	"start_ms", "end_ms", "src_ip", "dst_ip", "src_port", "dst_port",
	"proto", "tcp_flags", "packets", "bytes",
}

// WriteCSV writes records to w in CSV form, including the header row.
func WriteCSV(w io.Writer, records []flow.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	row := make([]string, len(CSVHeader))
	for i := range records {
		r := &records[i]
		row[0] = strconv.FormatInt(r.Start, 10)
		row[1] = strconv.FormatInt(r.End, 10)
		row[2] = r.SrcIPAddr().String()
		row[3] = r.DstIPAddr().String()
		row[4] = strconv.FormatUint(uint64(r.SrcPort), 10)
		row[5] = strconv.FormatUint(uint64(r.DstPort), 10)
		row[6] = strconv.FormatUint(uint64(r.Protocol), 10)
		row[7] = strconv.FormatUint(uint64(r.TCPFlags), 10)
		row[8] = strconv.FormatUint(uint64(r.Packets), 10)
		row[9] = strconv.FormatUint(r.Bytes, 10)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
