package dist

import (
	"time"

	"floatfl/internal/device"
)

// Task leases and the round-advance timer: the server's defense against
// clients that fail without a well-formed HTTP response. Every handed-out
// task carries a lease against the injected Clock; an expired lease frees
// its MaxOutstanding slot and reports a deadline dropout to the
// Controller, and a per-round timer aggregates whatever partial buffer
// has accumulated (subject to the MinUpdates floor) so a round always
// makes progress even when every leaseholder vanishes silently.

// grantLeaseLocked (re)arms the lease for a task handed to ci this round.
// Re-issuing to a current holder renews the lease. Caller holds s.mu.
func (s *Server) grantLeaseLocked(id int, ci *clientInfo) {
	s.stopLeaseLocked(ci)
	if s.closed || s.cfg.LeaseSeconds <= 0 {
		return
	}
	seq := ci.leaseSeq
	round := s.round
	d := secondsToDuration(s.cfg.LeaseSeconds)
	ci.leaseExpiry = s.clock.Now().Add(d)
	ci.leaseTimer = s.clock.AfterFunc(d, func() { s.leaseExpired(id, seq, round) })
	s.obs.leaseGrants.Inc()
	s.eventLocked("lease_grant", round, id, "")
}

// stopLeaseLocked invalidates any pending lease timer for ci. Bumping
// leaseSeq also neutralizes a real-clock callback that has already fired
// and is blocked on s.mu. Caller holds s.mu.
func (s *Server) stopLeaseLocked(ci *clientInfo) {
	ci.leaseSeq++
	if ci.leaseTimer != nil {
		ci.leaseTimer.Stop()
		ci.leaseTimer = nil
	}
}

// leaseExpired is the lease-timer callback: the client took a task and
// neither uploaded nor renewed within LeaseSeconds.
func (s *Server) leaseExpired(id int, seq uint64, round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci, ok := s.clients[id]
	if !ok || ci.leaseSeq != seq || ci.taskRound != round || round != s.round {
		// The update arrived, the lease was renewed, or the round already
		// moved on (which reported the dropout itself): nothing to do.
		return
	}
	ci.taskRound = -1
	ci.leaseTimer = nil
	ci.leaseSeq++
	s.outstanding--
	s.obs.leaseExpiries.Inc()
	s.obs.drops[int(device.DropDeadline)].Inc()
	s.eventLocked("lease_expiry", round, id, "")
	s.syncGaugesLocked()
	// A silent death is indistinguishable from a deadline miss; feed it to
	// the controller exactly as the simulator's cost model would.
	s.cfg.Controller.Feedback(round, ci.dev, ci.tech,
		device.Outcome{Completed: false, Reason: device.DropDeadline, DeadlineDiff: 1}, 0)
}

// armRoundTimerLocked starts (or restarts) the round-advance timer for
// the current round. Caller holds s.mu.
func (s *Server) armRoundTimerLocked() {
	if s.roundTimer != nil {
		s.roundTimer.Stop()
		s.roundTimer = nil
	}
	s.roundSeq++
	if s.closed || s.cfg.RoundSeconds <= 0 {
		return
	}
	seq := s.roundSeq
	round := s.round
	s.roundTimer = s.clock.AfterFunc(secondsToDuration(s.cfg.RoundSeconds),
		func() { s.roundTimerFired(seq, round) })
}

// roundTimerFired aggregates a partial buffer when the round has run for
// RoundSeconds without reaching AggregateK. An empty (below-floor) buffer
// re-arms the timer instead: there is nothing to apply, but expired
// leases have already freed their slots, so retrying clients can refill
// the round.
func (s *Server) roundTimerFired(seq uint64, round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq != s.roundSeq || round != s.round {
		return
	}
	s.obs.timerFires.Inc()
	s.eventLocked("round_timer", round, -1, "")
	if len(s.deltas) >= s.minUpdates() {
		s.obs.partialAggs.Inc()
		s.aggregateLocked()
		return
	}
	s.armRoundTimerLocked()
}

func (s *Server) minUpdates() int {
	if s.cfg.MinUpdates > 0 {
		return s.cfg.MinUpdates
	}
	return 1
}

// Close joins the pending holdout evaluation and stops the round timer and
// all outstanding lease timers. The handlers keep answering (a closed
// Server is still a valid aggregator), but no further timers are armed.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.joinLocked()
	s.closed = true
	if s.roundTimer != nil {
		s.roundTimer.Stop()
		s.roundTimer = nil
	}
	for _, ci := range s.clients {
		s.stopLeaseLocked(ci)
	}
}

func secondsToDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
