package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anomalyx"
	"anomalyx/internal/flow"
)

// repSummary is what the report consumer keeps of a report it is not
// going to render: enough for the flow-conservation and ground-truth
// checks without holding every mining result in memory.
type repSummary struct {
	flows     int
	alarm     bool
	extracted bool // alarm that produced at least one maximal item-set
	matched   bool // an item-set carries the scheduled event's signature
}

// submitCall is one timed SubmitBatch call (traced runs only).
type submitCall struct {
	ns      int64
	records int
	crossed bool
}

// passStat is one replay of the measured file.
type passStat struct {
	records int
	wallS   float64
	cpuS    float64
}

// streamRun drives one streamed workload: a closed loop of one
// submitter per engine, each issuing its next SubmitBatch only when the
// previous one returned, and one consumer of the report stream.
type streamRun struct {
	wl     *workload
	tr     *trace
	traced bool

	engines  []*anomalyx.Engine
	sessions []*anomalyx.AgentSession
	coll     *anomalyx.WireCollector
	ln       *countingListener
	serveErr chan error
	consumed sync.WaitGroup // report consumers of every engine

	// Written by the single report consumer (the engine's Reports reader
	// or the collector's emit callback); read by the coordinator after
	// stop, or through nrecv while waiting for the warm-up.
	nrecv atomic.Int64
	recv  []time.Time
	sums  []repSummary
	pass0 []*anomalyx.Report // reports of the first measured pass, for the digest

	// cross[e] holds the issue time of every boundary-crossing
	// SubmitBatch of engine e, one entry per interval closed; calls[e]
	// every call of a traced run. Each is written by e's submitter only.
	cross [][]time.Time
	calls [][]submitCall

	passes []passStat
}

// countingListener counts the bytes the collector reads from its agent
// connections.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, read: &l.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// start builds the system under test and its report consumers.
func (s *streamRun) start() error {
	ecfg := anomalyx.EngineConfig{
		Pipeline: pipelineConfig(), IntervalLen: intervalLen,
		Buffer: engineBuffer, PipelineDepth: s.wl.depth,
	}
	if s.wl.agents > 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.ln = &countingListener{Listener: ln}
		s.coll, err = anomalyx.NewCollectorWithConfig(ecfg.Pipeline, anomalyx.CollectorConfig{Agents: s.wl.agents})
		if err != nil {
			ln.Close()
			return err
		}
		s.serveErr = make(chan error, 1)
		//detlint:ok goroutines -- the collector under test; it sequences agent frames in agent-ID order, joined on serveErr in stop
		go func() {
			s.serveErr <- s.coll.Serve(context.Background(), s.ln, func(rep *anomalyx.Report) error {
				s.onReport(rep)
				return nil
			})
		}()
		for id := 0; id < s.wl.agents; id++ {
			// ReplayBuffer 1 is the agents' side of the closed loop: an agent
			// ships interval k+1 only once the collector acked k, so a close
			// latency never measures a backlog of shipped intervals.
			sess, err := anomalyx.NewAgent(ecfg, anomalyx.AgentConfig{
				Addr: ln.Addr().String(), AgentID: id, Shards: 1, ReplayBuffer: 1,
			})
			if err != nil {
				return err
			}
			s.sessions = append(s.sessions, sess)
			s.engines = append(s.engines, sess.Engine)
			s.consumed.Add(1)
			//detlint:ok goroutines -- drains an agent's local stub reports; detection state lives at the collector
			go func() {
				defer s.consumed.Done()
				for range sess.Reports() {
				}
			}()
		}
	} else {
		var eng *anomalyx.Engine
		var err error
		if s.wl.shards > 1 {
			eng, err = anomalyx.NewShardedEngine(ecfg, s.wl.shards)
		} else {
			eng, err = anomalyx.NewEngine(ecfg)
		}
		if err != nil {
			return err
		}
		s.engines = []*anomalyx.Engine{eng}
		s.consumed.Add(1)
		//detlint:ok goroutines -- single consumer of the engine's ordered Reports channel, as cmd/anomalyx -mode run has; joined in stop
		go func() {
			defer s.consumed.Done()
			for rep := range eng.Reports() {
				s.onReport(rep)
			}
		}()
	}
	s.cross = make([][]time.Time, len(s.engines))
	s.calls = make([][]submitCall, len(s.engines))
	return nil
}

// onReport runs on the one goroutine that receives detection reports.
func (s *streamRun) onReport(rep *anomalyx.Report) {
	now := time.Now()
	idx := len(s.recv)
	s.recv = append(s.recv, now)
	sum := repSummary{flows: rep.TotalFlows, alarm: rep.Alarm, extracted: rep.Alarm && len(rep.ItemSets) > 0}
	if j := idx - s.tr.warmN; j >= 0 {
		if ev, ok := s.tr.events[j%s.tr.measN]; ok {
			sum.matched = matches(&ev, rep.ItemSets)
		}
		if j < s.tr.measN {
			s.pass0 = append(s.pass0, rep)
		}
	}
	s.sums = append(s.sums, sum)
	s.nrecv.Add(1)
}

// feed streams one file per engine through its submitter and waits for
// all of them; it returns the records submitted.
func (s *streamRun) feed(paths []string, shiftMs int64) (int, error) {
	var wg sync.WaitGroup
	counts := make([]int, len(s.engines))
	errs := make([]error, len(s.engines))
	for e := range s.engines {
		wg.Add(1)
		//detlint:ok goroutines -- one closed-loop submitter per engine (one per agent on agents_loopback); each owns its engine's input order, joined before feed returns
		go func(e int) {
			defer wg.Done()
			eng := s.engines[e]
			counts[e], errs[e] = streamFile(paths[e], shiftMs, func(batch []flow.Record) error {
				t0 := time.Now()
				closed, err := eng.SubmitBatch(batch)
				if s.traced {
					s.calls[e] = append(s.calls[e], submitCall{ns: int64(time.Since(t0)), records: len(batch), crossed: closed > 0})
				}
				for ; closed > 0; closed-- {
					s.cross[e] = append(s.cross[e], t0)
				}
				return err
			})
		}(e)
	}
	wg.Wait()
	total := 0
	for e := range counts {
		if errs[e] != nil {
			return total, errs[e]
		}
		total += counts[e]
	}
	return total, nil
}

// warmUp streams the warm-up intervals and waits until every report
// they can produce has been received: the last warm-up interval closes
// only when the first measured record crosses its boundary.
func (s *streamRun) warmUp() error {
	if _, err := s.feed(s.tr.warm, 0); err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.nrecv.Load() < int64(s.tr.warmN-1) {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d reports after 60s", s.nrecv.Load(), s.tr.warmN-1)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// measure replays the measured file back to back until the run has
// lasted seconds, always completing the pass it is in.
func (s *streamRun) measure(seconds float64) error {
	start := time.Now()
	for p := 0; ; p++ {
		cpu0, t0 := cpuSeconds(), time.Now()
		n, err := s.feed(s.tr.meas, s.tr.passShiftMs(p))
		if err != nil {
			return err
		}
		s.passes = append(s.passes, passStat{records: n, wallS: time.Since(t0).Seconds(), cpuS: cpuSeconds() - cpu0})
		if time.Since(start).Seconds() >= seconds {
			return nil
		}
	}
}

// stop closes the engines (flushing the last interval), joins every
// goroutine start created, and returns the first error.
func (s *streamRun) stop() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if s.wl.agents > 0 {
		// Close the sessions together: each Close waits for the
		// collector's ByeOK, and the collector closes the final interval
		// only once every agent has shipped it.
		var wg sync.WaitGroup
		errs := make([]error, len(s.sessions))
		for i, sess := range s.sessions {
			wg.Add(1)
			//detlint:ok goroutines -- concurrent session shutdown; joined two lines down
			go func() {
				defer wg.Done()
				errs[i] = sess.Close()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			keep(err)
		}
		if s.serveErr != nil {
			if len(s.sessions) < s.wl.agents {
				s.ln.Close() // a failed start: no Bye will end the session
			}
			keep(<-s.serveErr)
			s.coll.Close()
		}
	} else {
		for _, eng := range s.engines {
			keep(eng.Close())
		}
	}
	s.consumed.Wait()
	return first
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// closeLatencies pairs every report with the boundary-crossing submit
// that closed its interval (the later one when several engines feed one
// collector) and splits the measured intervals' latencies, in
// milliseconds, into scheduled-event intervals that extracted item-sets,
// intervals that did not alarm, and neither.
func (s *streamRun) closeLatencies() (event, quiet []float64, missed, unscheduled int) {
	for idx := s.tr.warmN; idx < len(s.recv); idx++ {
		var issued time.Time
		for e := range s.cross {
			if idx >= len(s.cross[e]) {
				issued = time.Time{}
				break // the final interval is closed by Close, not by a submit
			}
			if s.cross[e][idx].After(issued) {
				issued = s.cross[e][idx]
			}
		}
		sum := s.sums[idx]
		_, scheduled := s.tr.events[(idx-s.tr.warmN)%s.tr.measN]
		switch {
		case scheduled && !sum.extracted:
			missed++
		case !scheduled && sum.alarm:
			unscheduled++
		}
		if issued.IsZero() {
			continue
		}
		ms := float64(s.recv[idx].Sub(issued)) / 1e6
		switch {
		case scheduled && sum.extracted:
			event = append(event, ms)
		case !scheduled && !sum.alarm:
			quiet = append(quiet, ms)
		}
	}
	return event, quiet, missed, unscheduled
}
