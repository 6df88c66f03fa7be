package core

import (
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// PipelineSnapshot is an open interval in the argument shape of the wire
// package's exported open-interval codec (EncodeOpenIntervalSnapshot /
// DecodeOpenIntervalSnapshot): per detector the clone histograms in
// detector.Snapshot.Clones beside canonical all-zero history, plus the
// interval's buffered flows. It is not a checkpoint: a pipeline's
// durable state is its detection history alone (Pipeline.Snapshot), and
// the in-process drain/absorb path uses OpenInterval.
type PipelineSnapshot struct {
	Bank   detector.BankSnapshot
	Buffer flow.Buffer
}

// OpenInterval is the drain of a pipeline's open interval: the
// clone-histogram snapshots (one slice per detector in feature order,
// one snapshot per clone, as detector.Bank.DrainIntervalInto returns
// them — each clone's grouping of the detector's one value table) plus
// the columnar flow buffer — and nothing else. Detection history never
// travels with it: an agent never closes detection, and the collector
// absorbs an OpenInterval additively (AbsorbOpenInterval), so the
// drain/ship/absorb cycle never touches history on either side.
type OpenInterval struct {
	Clones [][]histogram.Snapshot
	Buffer flow.Buffer
}

// foldLocked moves the open interval of partitions 1..n-1 into
// partition 0: their clone sets merge into partition 0's (exact, see
// Bank.MergeDrained) and their buffers append to partition 0's in
// partition order, leaving them empty. Reports are unchanged by a fold;
// only the KeepSuspicious forensic slice, which follows buffer order,
// regroups. p.mu must be held.
func (p *Pipeline) foldLocked() {
	if len(p.banks) == 1 {
		return
	}
	siblings := make([][]*histogram.CloneSet, len(p.banks)-1)
	for i, b := range p.banks[1:] {
		siblings[i] = b.LiveInterval()
	}
	p.banks[0].MergeDrained(p.banks[0].LiveInterval(), siblings)
	for _, buf := range p.buffers[1:] {
		p.buffers[0].AppendBuffer(buf)
		buf.Reset()
	}
}

// Snapshot captures the pipeline's detection history: partition 0's
// bank, the only one that closes detection. The open interval is not
// part of it (see detector.Snapshot). The result shares no memory with
// the pipeline.
func (p *Pipeline) Snapshot() detector.BankSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.banks[0].Snapshot()
}

// RestoreSnapshot replaces the pipeline's detection history with s,
// leaving the open interval as it is. The pipeline must share the
// snapshot source's configuration (features, detector parameters).
func (p *Pipeline) RestoreSnapshot(s detector.BankSnapshot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.banks[0].RestoreSnapshot(s)
}

// DrainOpenInterval captures the open interval — clone-histogram
// snapshots and the flow buffer, every partition folded into one, the
// buffers concatenated in partition order — and clears it, leaving
// detection history untouched and uncopied. This is the distributed
// agent step: the agent drains at each interval boundary and ships the
// result to the collector, which folds it into its pipeline with
// AbsorbOpenInterval. The result shares no memory with the pipeline and
// belongs to the caller — unless the caller gives it back with
// RecycleOpenInterval, after which the next drain reuses its memory.
func (p *Pipeline) DrainOpenInterval() OpenInterval {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.foldLocked()
	m := p.drainSpare
	p.drainSpare = nil
	if m == nil {
		m = &drainMemory{snaps: make([]histogram.SnapshotMemory, len(p.banks[0].Detectors()))}
	}
	m.clones = p.banks[0].DrainIntervalInto(m.clones, m.snaps)
	oi := OpenInterval{Clones: m.clones}
	live := p.buffers[0]
	switch {
	case live.Len() == 0:
		// The zero-row buffer drains to the zero Buffer, like Clone.
	case cap(m.buf.SrcAddr) > 0:
		// Swap, not copy: the drained rows leave with the interval and
		// the recycled buffer, capacity intact, takes their place.
		oi.Buffer, *live = *live, m.buf
		m.buf = flow.Buffer{}
	default:
		oi.Buffer = live.Clone()
	}
	live.Reset()
	p.drainLent = m
	return oi
}

// drainMemory is the memory one drained OpenInterval lives in: the
// per-detector snapshot memory, the detector slice, and — once given
// back — the drained flow buffer, emptied, for the next drain to swap in.
type drainMemory struct {
	snaps  []histogram.SnapshotMemory
	clones [][]histogram.Snapshot
	buf    flow.Buffer
}

// RecycleOpenInterval gives back the interval the last DrainOpenInterval
// returned, once the caller is done with it (a shipping engine, after
// the ship hook has encoded it): the next drain reuses its snapshot
// memory and swaps its flow buffer in instead of copying the rows out,
// so the steady-state drain allocates nothing. The caller must not touch
// oi afterwards. Any other value — an older drain, a decoded frame — is
// ignored and stays the caller's.
func (p *Pipeline) RecycleOpenInterval(oi OpenInterval) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.drainLent
	if m == nil || len(oi.Clones) == 0 || len(m.clones) == 0 || &oi.Clones[0] != &m.clones[0] {
		return
	}
	p.drainLent = nil
	if cap(oi.Buffer.SrcAddr) > 0 { // an empty drain kept m.buf
		m.buf = oi.Buffer
		m.buf.Reset()
	}
	p.drainSpare = m
}

// AbsorbOpenInterval folds a drained open interval into partition 0
// additively: clone snapshots merge into the bank's open clone sets (the
// mergeable-sketch invariant — identical to having observed the flows
// directly) and the buffered flows append to the partition's buffer. A
// malformed interval is rejected before anything moves. It is the
// collector-side counterpart of DrainOpenInterval. Both sides must share
// the detector configuration and seed. Everything is copied in: oi is
// neither kept nor recycled, so the caller may reuse its memory as soon
// as the call returns (the collector decodes the next frame into it).
func (p *Pipeline) AbsorbOpenInterval(oi OpenInterval) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.banks[0].AbsorbInterval(oi.Clones); err != nil {
		return err
	}
	p.buffers[0].AppendBuffer(&oi.Buffer)
	return nil
}
