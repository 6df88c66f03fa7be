package core

import (
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// PipelineSnapshot is the exported state of a Pipeline: the detector
// bank's full state plus the current interval's buffered flows in
// columnar form. Restoring it into a pipeline built from the same
// Config reproduces the original exactly — subsequent reports are
// byte-identical — which is the invariant the wire codec's round-trip
// tests pin down. Like the bank and histogram snapshots it carries
// state only; configuration matching is the caller's contract (the wire
// handshake digests it).
type PipelineSnapshot struct {
	Bank   detector.BankSnapshot
	Buffer flow.Buffer
}

// OpenInterval is the lean drain of a pipeline's open interval: the
// clone-histogram snapshots (one slice per detector in feature order,
// one snapshot per clone, as detector.Bank.DrainInterval returns them —
// each clone's grouping of the detector's one value table) plus the
// columnar flow buffer — and nothing else. It is PipelineSnapshot minus
// the detection history, which on the distributed agent path is dead
// weight: an agent never closes detection, so its reference counts, KL
// series, and threshold samples are permanently zero. The collector
// absorbs an OpenInterval additively (AbsorbOpenInterval), so the
// drain/ship/absorb cycle never touches history on either side.
type OpenInterval struct {
	Clones [][]histogram.Snapshot
	Buffer flow.Buffer
}

// Snapshot captures the pipeline's full state: bank history plus the
// open interval's flow buffer. The result shares no memory with the
// pipeline.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PipelineSnapshot{
		Bank:   p.bank.Snapshot(),
		Buffer: p.buffer.Clone(),
	}
}

// RestoreSnapshot replaces the pipeline's state with s. The pipeline
// must share the snapshot source's configuration (features, detector
// parameters).
func (p *Pipeline) RestoreSnapshot(s PipelineSnapshot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.bank.RestoreSnapshot(s.Bank); err != nil {
		return err
	}
	p.buffer.Reset()
	p.buffer.AppendBuffer(&s.Buffer)
	return nil
}

// DrainOpenInterval captures the open interval — clone-histogram
// snapshots and the flow buffer — and clears it, leaving detection
// history untouched and uncopied. This is the distributed agent step:
// the agent drains at each interval boundary and ships the result to
// the collector, which folds it into the primary pipeline with
// AbsorbOpenInterval. The result shares no memory with the pipeline.
func (p *Pipeline) DrainOpenInterval() OpenInterval {
	p.mu.Lock()
	defer p.mu.Unlock()
	oi := OpenInterval{
		Clones: p.bank.DrainInterval(),
		Buffer: p.buffer.Clone(),
	}
	p.buffer.Reset()
	return oi
}

// AbsorbOpenInterval folds a drained open interval into p additively:
// clone snapshots merge into the bank's open clone sets (the
// mergeable-sketch invariant — identical to having observed the flows
// directly) and the buffered flows append to p's buffer. A malformed
// interval is rejected before anything moves. It is the collector-side
// counterpart of DrainOpenInterval, replacing the former
// restore-into-scratch-then-Absorb round trip. Both sides must share the
// detector configuration and seed.
func (p *Pipeline) AbsorbOpenInterval(oi OpenInterval) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.bank.AbsorbInterval(oi.Clones); err != nil {
		return err
	}
	p.buffer.AppendBuffer(&oi.Buffer)
	return nil
}
