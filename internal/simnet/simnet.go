// Package simnet models the simulated cluster the experiments run on:
// nodes with 16 ranks each, an intra-node shared-memory message path, an
// inter-node NIC with serialization and latency, and — crucially — the
// fault and mis-tuning models the paper spends §IV diagnosing:
//
//   - thermal throttling that slows whole nodes (clusters of 16 ranks) by a
//     constant factor (Fig 2);
//   - a fabric ACK-loss recovery path that stalls senders inside MPI_Wait
//     unless the drain-queue mitigation is enabled (Fig 1b);
//   - an undersized shared-memory queue whose contention adds heavy-tailed
//     noise to local message delivery, destroying the correlation between
//     message volume and communication time (Fig 1a, Fig 3 right).
//
// The hardware constants default to the paper's testbed shape: Intel Xeon
// nodes, 16 ranks/node, a 40 Gbps QLogic fabric (§IV "Hardware").
//
// Accounting is per node and counted once: message paths go to the node's
// Census, pathology counts and stall times to the node's lane of the fabric
// instruments (metrics.NetMetrics), which every Network owns from
// construction. CensusTotal folds both into the one Census callers read.
package simnet

import (
	"amrtools/internal/check"
	"amrtools/internal/metrics"
	"amrtools/internal/sim"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// Config describes the cluster and its (mis)tuning state. Construct with
// Tuned or Untuned and adjust.
type Config struct {
	Nodes        int // compute nodes
	RanksPerNode int // MPI ranks per node (16 on the paper's testbed)

	// Fabric timing.
	RemoteLatency   float64 // one-way inter-node latency, seconds
	RemoteBandwidth float64 // NIC bandwidth, bytes/second
	// RemoteMsgOverhead is the per-message NIC/fabric processing cost,
	// serialized at the sender's NIC — small boundary-exchange messages are
	// message-rate bound as much as bandwidth bound on PSM-class fabrics.
	RemoteMsgOverhead float64
	LocalLatency      float64 // shared-memory one-way latency, seconds
	LocalBandwidth    float64 // shared-memory bandwidth, bytes/second
	SendOverhead      float64 // cost of posting a send (MPI_Isend returns)

	// ShmQueueDepth is the number of in-flight local messages the
	// shared-memory path absorbs before contention kicks in. The paper's
	// "queue size tuning" (§IV-B) is raising this value.
	ShmQueueDepth int
	// ShmContentionPenalty is the extra delay per excess in-flight message,
	// scaled by a heavy-tailed random factor.
	ShmContentionPenalty float64

	// AckLossProb is the per-remote-send probability of entering the
	// missing-ACK recovery path that blocks the sender (§IV-B "MPI_Wait
	// spikes"). AckRecoveryDelay is the stall duration.
	AckLossProb      float64
	AckRecoveryDelay float64
	// DrainQueue enables the paper's mitigation: blocked requests are
	// handed to a background drain queue, so the sender's MPI_Wait returns
	// immediately.
	DrainQueue bool

	// ThrottledNodes maps node id → compute slowdown factor (e.g. 4.0 for
	// the thermal throttling of Fig 2). Unlisted nodes run at factor 1.
	ThrottledNodes map[int]float64

	// Jitter is the relative magnitude of per-task OS noise on compute
	// durations (0.01 = 1%).
	Jitter float64

	// Seed drives all randomness in the network and attached ranks.
	Seed uint64
}

// Tuned returns the post-§IV configuration: large shm queue, drain queue
// enabled, no throttled nodes. This is the environment of the Fig 6/7
// evaluations ("tuned baseline").
func Tuned(nodes, ranksPerNode int, seed uint64) Config {
	return Config{
		Nodes:                nodes,
		RanksPerNode:         ranksPerNode,
		RemoteLatency:        3e-6,
		RemoteBandwidth:      4.5e9, // 40 Gbps line rate, ~90% effective
		RemoteMsgOverhead:    6e-7,
		LocalLatency:         5e-7,
		LocalBandwidth:       12e9,
		SendOverhead:         4e-7,
		ShmQueueDepth:        1024,
		ShmContentionPenalty: 2e-6,
		AckLossProb:          0.002, // the fabric still misbehaves...
		AckRecoveryDelay:     4e-3,
		DrainQueue:           true, // ...but the drain queue hides it
		Jitter:               0.02,
		Seed:                 seed,
	}
}

// Lookahead returns the conservative cross-node lookahead bound for the
// sharded DES scheduler (sim.Shards): the minimum virtual-time distance
// between a cross-node send and any effect it can have on the receiver.
// planRemote delays every delivery by at least RemoteMsgOverhead +
// RemoteLatency (overheads and serialization only add on top, and jitter
// never applies to deliveries), so RemoteLatency alone is a strict lower
// bound. Collective releases are bounded too: CollectiveLatency(n) >=
// RemoteLatency for n >= 2 (single-rank worlds complete collectives
// locally and never cross shards).
func (c Config) Lookahead() float64 { return c.RemoteLatency }

// Untuned returns the pre-§IV configuration: a small shm queue, the ACK
// recovery path exposed (no drain queue), and heavier contention — the
// environment of the "before" curves in Figs 1 and 3.
func Untuned(nodes, ranksPerNode int, seed uint64) Config {
	c := Tuned(nodes, ranksPerNode, seed)
	c.ShmQueueDepth = 8
	c.ShmContentionPenalty = 5e-6
	c.AckLossProb = 0.02
	c.DrainQueue = false
	return c
}

// Census counts messages by path, the measurement behind Fig 6c's
// local-vs-remote split. IntraRank counts block pairs co-located on one
// rank, exchanged via memcpy and invisible to MPI. The network tallies one
// Census per node; CensusTotal folds them and takes the two stall counts
// from the fabric instrument lanes (metrics.NetMetrics), their only store.
type Census struct {
	IntraRank      int64
	LocalMsgs      int64 // intra-node shared memory
	RemoteMsgs     int64 // inter-node fabric
	LocalBytes     int64
	RemoteBytes    int64
	AckStalls      int64 // sends that hit the recovery path and blocked
	Drained        int64 // sends rescued by the drain queue
	ShmContentions int64 // local deliveries that overflowed the queue
}

// Network is the simulated fabric. Over one engine (New) all methods must be
// called from engine context (events or procs); Network is not safe for
// other goroutines. Over the scheduler's engines (NewSharded) every mutable
// word the per-message paths (PlanSend, DeliveryDone, RecordIntraRank)
// touch — NIC clock, shm queue, RNG stream, census — is indexed by the
// caller's node, and nodes never span shards, so a shard's window touches
// only its own nodes' fabric state.
type Network struct {
	cfg       Config
	engOf     []*sim.Engine // per-node: the engine carrying the node's events
	nicFreeAt []float64     // per-node NIC egress availability
	shmInUse  []int         // per-node in-flight local messages
	census    []Census      // per-node path tallies, folded by CensusTotal

	// Fabric randomness: one shared stream on the sequential engine (rng),
	// one stream per node on the scheduler (nodeRngs, split from the seed in
	// node order, so all fabric randomness is identical for every shard
	// count). Exactly one is set; see rngFor.
	rng      *xrand.RNG
	nodeRngs []*xrand.RNG

	// tracer, when non-nil, receives a span for every fabric pathology
	// event (shm queue-full stall, NIC egress serialization, missing-ACK
	// recovery stall) — the flight recorder of internal/trace.
	tracer *trace.Recorder

	// mx is the sim-plane fabric instrument set (internal/metrics), laned
	// by node — a node's fabric events never span shards, so each lane
	// accumulates in its node's event order for any shard count. Never nil:
	// the network starts with a free-standing set and SetMetrics swaps in
	// the run's registered one.
	mx *metrics.NetMetrics

	// paranoid enables the invariant audits of internal/check: shm queue
	// accounting and NIC-clock monotonicity inline, full queue release at
	// AuditDrained. Defaults to check.Forced() (on under test helpers).
	paranoid bool
}

// newNetwork builds the engine-independent part of a Network.
func newNetwork(cfg Config) *Network {
	if cfg.Nodes <= 0 || cfg.RanksPerNode <= 0 {
		panic("simnet: non-positive cluster dimensions")
	}
	return &Network{
		cfg:       cfg,
		engOf:     make([]*sim.Engine, cfg.Nodes),
		nicFreeAt: make([]float64, cfg.Nodes),
		shmInUse:  make([]int, cfg.Nodes),
		census:    make([]Census, cfg.Nodes),
		mx:        metrics.NewNetMetrics(nil, cfg.Nodes),
		paranoid:  check.Forced(),
	}
}

// New builds a Network over one engine. Product code builds clusters with
// mpi.Launch.
func New(eng *sim.Engine, cfg Config) *Network {
	n := newNetwork(cfg)
	for node := range n.engOf {
		n.engOf[node] = eng
	}
	n.rng = xrand.New(cfg.Seed)
	return n
}

// NewSharded builds a Network over the sharded scheduler's engines: engs is
// indexed by shard and shardOfNode maps each node to its shard (nodes never
// split across shards). Fabric randomness moves from one shared stream to
// one split stream per node, derived in node order — so results are
// identical for every shard count N >= 1, though not with the sequential
// engine's shared stream. Product code builds clusters with mpi.Launch.
func NewSharded(engs []*sim.Engine, shardOfNode []int32, cfg Config) *Network {
	n := newNetwork(cfg)
	if len(shardOfNode) != cfg.Nodes {
		panic("simnet: shardOfNode length does not match Nodes")
	}
	root := xrand.New(cfg.Seed)
	n.nodeRngs = make([]*xrand.RNG, cfg.Nodes)
	for node, sh := range shardOfNode {
		if int(sh) < 0 || int(sh) >= len(engs) {
			panic("simnet: node mapped to nonexistent shard")
		}
		if node > 0 && sh < shardOfNode[node-1] {
			panic("simnet: shardOfNode must be nondecreasing (contiguous node groups)")
		}
		n.engOf[node] = engs[sh]
		n.nodeRngs[node] = root.Split()
	}
	return n
}

// rngFor returns the randomness stream for a node's fabric events.
// Engine-dependent site 3 of 4 (the fabric RNG stream; DESIGN.md §10):
// which stream a draw comes from decides every stall and ACK loss, so the
// two engines' tables differ here by construction.
func (n *Network) rngFor(node int) *xrand.RNG {
	if n.nodeRngs == nil {
		return n.rng
	}
	return n.nodeRngs[node]
}

// CensusTotal returns the whole-network message census: the per-node path
// tallies summed, plus the stall counts folded from the instrument lanes.
func (n *Network) CensusTotal() Census {
	total := Census{
		AckStalls:      n.mx.AckStalls.Total(),
		ShmContentions: n.mx.ShmStalls.Total(),
	}
	for i := range n.census {
		c := &n.census[i]
		total.IntraRank += c.IntraRank
		total.LocalMsgs += c.LocalMsgs
		total.RemoteMsgs += c.RemoteMsgs
		total.LocalBytes += c.LocalBytes
		total.RemoteBytes += c.RemoteBytes
		total.Drained += c.Drained
	}
	return total
}

// SetParanoid enables or disables the network's invariant audits. The global
// check.Force override wins over an explicit false.
func (n *Network) SetParanoid(on bool) { n.paranoid = check.Enabled(on) }

// SetTracer attaches a flight recorder (nil detaches it).
func (n *Network) SetTracer(tr *trace.Recorder) { n.tracer = tr }

// SetMetrics swaps in the run's registered fabric instrument set, laned by
// node (metrics.NewRunSet does this); mx must not be nil. Call before the
// first send: counts already taken stay with the set being replaced.
func (n *Network) SetMetrics(mx *metrics.NetMetrics) { n.mx = mx }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// NumRanks returns the total rank count.
func (n *Network) NumRanks() int { return n.cfg.Nodes * n.cfg.RanksPerNode }

// NodeOf returns the node hosting a rank.
func (n *Network) NodeOf(rank int) int { return rank / n.cfg.RanksPerNode }

// ComputeFactor returns the compute slowdown factor of the node hosting
// rank (1.0 for healthy nodes).
func (n *Network) ComputeFactor(rank int) float64 {
	if f, ok := n.cfg.ThrottledNodes[n.NodeOf(rank)]; ok {
		return f
	}
	return 1
}

// SendPlan is the timing outcome of one message send.
type SendPlan struct {
	// DeliverAfter is the delay from send until the message is available at
	// the receiver.
	DeliverAfter float64
	// SenderDoneAfter is the delay until the sender's MPI request
	// completes (what MPI_Wait on the send request observes).
	SenderDoneAfter float64
	// Local reports whether the message used the intra-node path.
	Local bool
}

// PlanSend computes delivery and sender-completion timing for a message of
// the given size between two ranks, updating contention state and the
// census. Callers must invoke DeliveryDone when the delivery completes if
// the message was local (to release its shm queue slot).
func (n *Network) PlanSend(src, dst, bytes int) SendPlan {
	if n.NodeOf(src) == n.NodeOf(dst) {
		return n.planLocal(src, dst, bytes)
	}
	return n.planRemote(src, dst, bytes)
}

func (n *Network) planLocal(src, dst, bytes int) SendPlan {
	node := n.NodeOf(src)
	cs := &n.census[node]
	cs.LocalMsgs++
	cs.LocalBytes += int64(bytes)
	delay := n.cfg.LocalLatency + float64(bytes)/n.cfg.LocalBandwidth
	n.shmInUse[node]++
	if excess := n.shmInUse[node] - n.cfg.ShmQueueDepth; excess > 0 {
		// Undersized queue: the shared-memory path degrades into a
		// contended retry loop with a heavy tail (§IV-B queue size tuning).
		stall := float64(excess) * n.cfg.ShmContentionPenalty * (1 + n.rngFor(node).ExpFloat64())
		delay += stall
		n.mx.ShmStalls.Inc(node)
		n.mx.ShmStallTime.Add(node, stall)
		if tr := n.tracer; tr != nil {
			now := n.engOf[node].Now()
			tr.Emit(trace.Span{Rank: int32(src), Kind: trace.ShmStall,
				T0: now, T1: now + stall,
				Peer: int32(dst), Bytes: int64(bytes), Tag: -1})
		}
	}
	return SendPlan{DeliverAfter: delay, SenderDoneAfter: n.cfg.SendOverhead, Local: true}
}

func (n *Network) planRemote(src, dst, bytes int) SendPlan {
	node := n.NodeOf(src)
	cs := &n.census[node]
	cs.RemoteMsgs++
	cs.RemoteBytes += int64(bytes)
	now := n.engOf[node].Now()
	// NIC egress serialization: messages from all 16 ranks of a node share
	// one NIC.
	start := now
	if n.nicFreeAt[node] > start {
		start = n.nicFreeAt[node]
		n.mx.NicSerials.Inc(node)
		n.mx.NicSerialTime.Add(node, start-now)
		if tr := n.tracer; tr != nil {
			// Egress queue wait: the message sat behind co-located ranks'
			// traffic at the node's shared NIC.
			tr.Emit(trace.Span{Rank: int32(src), Kind: trace.NicSerial,
				T0: now, T1: start,
				Peer: int32(dst), Bytes: int64(bytes), Tag: -1})
		}
	}
	depart := start + n.cfg.RemoteMsgOverhead + float64(bytes)/n.cfg.RemoteBandwidth
	if n.paranoid {
		// The NIC egress clock must never rewind: a departure earlier than
		// the previous one would let later messages overtake serialization.
		check.Assertf(depart >= n.nicFreeAt[node], "simnet", "nic-monotone",
			"node %d NIC clock rewound: depart %.9g < free-at %.9g (msg %d->%d, %d bytes)",
			node, depart, n.nicFreeAt[node], src, dst, bytes)
	}
	n.nicFreeAt[node] = depart
	deliver := depart + n.cfg.RemoteLatency - now

	senderDone := n.cfg.SendOverhead
	if n.cfg.AckLossProb > 0 && n.rngFor(node).Float64() < n.cfg.AckLossProb {
		if n.cfg.DrainQueue {
			// Mitigation: allocate a fresh request, drain the blocked one
			// in the background; the sender proceeds immediately.
			cs.Drained++
		} else {
			// Missing ACK: the fabric recovery path blocks the sender even
			// though the receiver already has the data.
			senderDone = n.cfg.AckRecoveryDelay * (0.5 + n.rngFor(node).Float64())
			n.mx.AckStalls.Inc(node)
			n.mx.AckStallTime.Add(node, senderDone)
			if tr := n.tracer; tr != nil {
				tr.Emit(trace.Span{Rank: int32(src), Kind: trace.AckStall,
					T0: now, T1: now + senderDone,
					Peer: int32(dst), Bytes: int64(bytes), Tag: -1})
			}
		}
	}
	return SendPlan{DeliverAfter: deliver, SenderDoneAfter: senderDone, Local: false}
}

// DeliveryDone releases the shared-memory queue slot held by a local
// message from src. Remote deliveries carry no slot.
func (n *Network) DeliveryDone(src int, plan SendPlan) {
	if plan.Local {
		node := n.NodeOf(src)
		n.shmInUse[node]--
		if n.paranoid {
			check.Assertf(n.shmInUse[node] >= 0, "simnet", "shm-slot",
				"node %d released more shm queue slots than it acquired (count %d)",
				node, n.shmInUse[node])
		}
	}
}

// AuditDrained verifies that every shared-memory queue slot acquired by a
// local send was released by its DeliveryDone — i.e. the engine drained with
// no local message still in flight. Call after the engine runs dry; a held
// slot means a lost delivery event, which would silently skew every later
// contention measurement. Panics with a check.Violation on failure.
func (n *Network) AuditDrained() {
	for node, inUse := range n.shmInUse {
		check.Assertf(inUse == 0, "simnet", "shm-drain",
			"node %d still holds %d shm queue slots at engine drain", node, inUse)
	}
}

// RecordIntraRank counts a block-pair exchange by rank that stayed on one
// rank (handled by memcpy, no MPI message).
func (n *Network) RecordIntraRank(rank int) { n.census[n.NodeOf(rank)].IntraRank++ }

// CollectiveLatency returns the software latency of a barrier/allreduce
// release over nranks ranks: a tree of depth log2(n) of fabric hops.
func (n *Network) CollectiveLatency(nranks int) float64 {
	depth := 0
	for v := 1; v < nranks; v <<= 1 {
		depth++
	}
	return float64(depth) * n.cfg.RemoteLatency
}
