package core

import (
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// intervalState is a pipeline's drained open interval: per partition the
// detector bank's clone sets — one value-table arena per feature — and
// the columnar flow buffer, in the reusable containers they travel in.
// After a finish the sets are reset (their arenas intact) and the
// buffers' columns keep their capacity, so the state cycles through the
// pipeline's freelist and steady-state closes allocate no new buffer or
// arena memory.
type intervalState struct {
	sets    [][]*histogram.CloneSet
	buffers []*flow.Buffer
}

// popSpare takes a recycled interval state off p's freelist, or returns
// the zero state when the freelist is empty.
func (p *Pipeline) popSpare() intervalState {
	p.spareMu.Lock()
	defer p.spareMu.Unlock()
	n := len(p.spares)
	if n == 0 {
		return intervalState{}
	}
	st := p.spares[n-1]
	p.spares[n-1] = intervalState{}
	p.spares = p.spares[:n-1]
	return st
}

// pushSpare returns a reset interval state to p's freelist.
func (p *Pipeline) pushSpare(st intervalState) {
	p.spareMu.Lock()
	defer p.spareMu.Unlock()
	p.spares = append(p.spares, st)
}

// PendingClose is one drained measurement interval awaiting its finish:
// the cheap synchronous half of a pipelined interval close. BeginClose
// swaps the open interval's state (clone sets + flow buffers) out of the
// hot path and returns it here; Finish runs the expensive half —
// detection, prefilter, mining — against the drained state while new
// records flow into the swapped-in replacements.
//
// Each PendingClose must be finished exactly once, and finishes of
// successive closes over the same pipeline must run in begin order: the
// detector's KL scheme is sequential (each interval is compared against
// the previous one), so the engine serializes finishes on a single
// close-worker goroutine. Reordering would change reports; ordering
// makes them byte-identical to the synchronous path.
type PendingClose struct {
	p     *Pipeline
	state intervalState
}

// BeginClose drains p's open interval — every partition's clone sets and
// flow buffer, swapped for reset recycled ones atomically with respect
// to observes — and returns it as a PendingClose whose Finish produces
// exactly the report EndInterval would have. The drain is cheap: pointer
// swaps plus a freelist pop, no detection math. It cannot fail; the
// error result survives only because cmd/bench calls it with this
// signature.
func (p *Pipeline) BeginClose() (*PendingClose, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.popSpare()
	if st.sets == nil {
		st.sets = make([][]*histogram.CloneSet, len(p.banks))
		for range p.banks {
			st.buffers = append(st.buffers, new(flow.Buffer))
		}
	}
	for i, b := range p.banks {
		st.sets[i] = b.SwapInterval(st.sets[i])
	}
	st.buffers, p.buffers = p.buffers, st.buffers
	return &PendingClose{p: p, state: st}, nil
}

// Finish completes a drained interval close: closeInterval over the
// drained state — the very function the synchronous close runs over the
// live state, so the report is byte-identical to EndInterval's. The
// drained containers, left reset by the close, are recycled onto the
// pipeline's freelist before returning, whether or not mining failed.
//
// Finish never touches the pipeline's live state (buffers, current
// clone sets), so it may run concurrently with observes; it does touch
// partition 0's detection history, so Finish calls for successive
// closes must be serialized in begin order.
func (pc *PendingClose) Finish() (*Report, error) {
	rep, err := pc.p.closeInterval(pc.state.sets, pc.state.buffers)
	pc.p.pushSpare(pc.state)
	pc.state = intervalState{}
	return rep, err
}
