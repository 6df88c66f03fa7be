package eclat

import (
	"sync"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/mining"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/tracegen"
)

var (
	tableIIOnce sync.Once
	tableIIBuf  flow.Buffer
	tableIIRows []int32
	tableIISup  int
)

// tableII returns the §II-B worked example as the offline extraction
// hands it to the miner: the 350 872 flows in columns, the rows the
// union prefilter keeps for the alarm's dstPort meta-data, and the
// minimum support 10 000.
func tableII() ([]*flow.Buffer, [][]int32, int) {
	tableIIOnce.Do(func() {
		d := tracegen.TableIIScenario(20071203)
		meta := detector.NewMetaData()
		for _, port := range []uint64{7000, 80, 9022, 25} {
			meta.Add(flow.DstPort, port)
		}
		tableIIBuf = flow.BufferOf(d.Flows)
		tableIIRows = prefilter.SelectBuffer(prefilter.Union{}, meta, &tableIIBuf, 1, nil)
		tableIISup = d.MinSupport
	})
	return []*flow.Buffer{&tableIIBuf}, [][]int32{tableIIRows}, tableIISup
}

var sinkResult *mining.Result

// BenchmarkMineColumnsTableII mines the Table II survivors through a
// fresh Scratch per call, as core.ExtractOffline does, and through one
// warm Scratch, as a pipeline's interval close does. B/op is the miner's
// share of an offline extraction's allocation.
func BenchmarkMineColumnsTableII(b *testing.B) {
	bufs, rows, minsup := tableII()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s Scratch
			sinkResult = s.MineColumns(bufs, rows, minsup)
		}
	})
	b.Run("warm", func(b *testing.B) {
		var s Scratch
		s.MineColumns(bufs, rows, minsup)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkResult = s.MineColumns(bufs, rows, minsup)
		}
	})
}
