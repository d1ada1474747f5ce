// Paranoid-mode audits for the MPI runtime (see internal/check): inline
// collective-membership tracking lives in addArrival; this file holds the
// end-of-run teardown audit (the paranoid switch is World.SetParanoid).
package mpi

import "amrtools/internal/check"

// postRecord remembers one posted request and the rank that posted it for
// the teardown audit; peer, tag and kind are the request's own.
type postRecord struct {
	req  *Request
	rank int
}

// AuditTeardown verifies end-of-run MPI hygiene after the engine drained:
//
//   - no collective round is still open;
//   - every mailbox is empty (no message arrived that nothing received);
//   - every receive queue is empty (no Irecv was left unmatched);
//   - every send request posted while paranoid completed, and every request
//     posted while paranoid, send or receive, reached a Wait;
//   - the world's message lanes reconcile with the network census — two
//     tallies counted independently, one at each layer (messages sent vs
//     LocalMsgs+RemoteMsgs, bytes likewise, and everything sent was
//     received).
//
// Any breach panics with a structured check.Violation. Call only after a
// clean engine drain (a deadlock already reports more precisely through
// World.Run); Run calls it when paranoid.
func (w *World) AuditTeardown() {
	open := len(w.round.arrivals)
	if st := w.shard; st != nil {
		for sh := range st.outColl {
			open += len(st.outColl[sh])
		}
	}
	check.Assertf(open == 0, "mpi", "collective-round-open",
		"a collective round (%s) is still open at teardown with %d arrivals", w.round.op, open)
	for dst := range w.mq {
		// A key is in the index only while something is queued on it, so
		// every occupied slot is an orphan. The layout is a pure function of
		// the operation sequence: the first one reported is the same on
		// every run.
		for _, s := range w.mq[dst].slots {
			check.Assertf(s.n <= 0, "mpi", "mailbox-drain",
				"rank %d holds %d orphaned messages from rank %d tag %d at teardown",
				dst, s.n, s.key.src, s.key.tag)
			check.Assertf(s.n >= 0, "mpi", "recvq-drain",
				"rank %d still has %d unmatched Irecv(src=%d, tag=%d) at teardown",
				dst, -s.n, s.key.src, s.key.tag)
		}
	}
	for i := range w.pools {
		for _, p := range w.pools[i].posted {
			r, op := p.req, "Irecv from"
			if r.kind == WaitSend {
				op = "Isend to"
				check.Assertf(r.Done(), "mpi", "send-completion",
					"send %d->%d tag %d never completed", p.rank, r.peer, r.tag)
			}
			check.Assertf(r.freed, "mpi", "request-waited",
				"rank %d never waited on its %s rank %d tag %d", p.rank, op, r.peer, r.tag)
		}
	}

	sent, recvd, bytes := w.mx.P2PMsgs.Total(), w.mx.P2PRecvd.Total(), w.mx.P2PBytes.Total()
	c := w.net.CensusTotal()
	check.Assertf(sent == c.LocalMsgs+c.RemoteMsgs, "mpi", "census-msgs",
		"the mpi lanes record %d sends but the census counted %d (%d local + %d remote)",
		sent, c.LocalMsgs+c.RemoteMsgs, c.LocalMsgs, c.RemoteMsgs)
	check.Assertf(bytes == c.LocalBytes+c.RemoteBytes, "mpi", "census-bytes",
		"the mpi lanes record %d bytes sent but the census counted %d (%d local + %d remote)",
		bytes, c.LocalBytes+c.RemoteBytes, c.LocalBytes, c.RemoteBytes)
	check.Assertf(recvd == sent, "mpi", "census-recvd",
		"%d messages sent but %d received at teardown", sent, recvd)
}
