package metrics

// Config asks a run to publish its metrics (driver.Config.Metrics). A nil
// Config means no registry in Result.Metrics and no host-plane scheduler
// instruments; the sim-plane MPI and fabric lanes exist either way — they
// are the run's accounting (see MPIMetrics). A campaign merges a completed
// run's registry itself, via Campaign.AddRun.
type Config struct{}

// MPIMetrics is the sim-plane instrument set of the MPI runtime, laned by
// rank: every update happens on the owning rank's events, whose order is
// deterministic for any shard count. It is the runtime's only accumulator —
// mpi.World always holds one, mpi.Meter is a per-rank fold over its lanes,
// and the driver's phase totals are its Sum totals.
type MPIMetrics struct {
	// Per collective class: point-to-point messages/bytes sent, messages
	// matched at the receiver, and collective operation counts.
	P2PMsgs    *Counter
	P2PBytes   *Counter
	P2PRecvd   *Counter
	Barriers   *Counter
	Allreduces *Counter

	// Blocking-wait structure: count of waits that actually blocked and
	// the distribution of their simulated durations.
	Waits    *Counter
	WaitHist *Histogram

	// Per-phase simulated-time attribution — the paper's Fig 6a profiling
	// breakdown as monotonic run totals.
	Compute   *Sum
	CommWait  *Sum
	Sync      *Sum
	Rebalance *Sum
}

// NetMetrics is the sim-plane instrument set of the fabric, laned by node:
// every update happens inside a node's fabric events, which never span
// shards. simnet.Network always holds one; the census's stall counts are
// its counter totals.
type NetMetrics struct {
	// Shared-memory queue contention (the §IV-B "queue size tuning"
	// pathology): stall count and total simulated stall time.
	ShmStalls    *Counter
	ShmStallTime *Sum
	// NIC egress serialization: messages that waited behind co-located
	// ranks' traffic, and the total wait.
	NicSerials    *Counter
	NicSerialTime *Sum
	// Missing-ACK recovery stalls (senders blocked in MPI_Wait).
	AckStalls    *Counter
	AckStallTime *Sum
}

// DriverMetrics is the sim-plane instrument set of the driver: whole-run
// totals the driver fills once from its Result when the run completes.
type DriverMetrics struct {
	Epochs         *Counter
	MigratedBlocks *Counter
	MigratedBytes  *Counter
	DirHandoffs    *Counter
	DirInstalls    *Counter
	Steps          *Counter
}

// SchedMetrics is the host-plane instrument set of the DES machinery: the
// event queue of either engine. Its counts depend on the engine and shard
// count, so it lives on the host plane and is excluded from identity checks.
type SchedMetrics struct {
	// LaneEvents counts events appended behind the tail of a process's FIFO
	// lane, HeapEvents the events pushed on the event heap (every other one,
	// lane fronts included); HeapLenAtPop sums the heap length over pops, so
	// HeapLenAtPop ÷ (LaneEvents + HeapEvents) is the mean heap at pop.
	LaneEvents   *Counter
	HeapEvents   *Counter
	HeapLenAtPop *Counter
}

// RunSet is the full instrument collection of one simulation run, handed
// out by the driver to each instrumented layer.
type RunSet struct {
	Reg   *Registry
	MPI   *MPIMetrics
	Net   *NetMetrics
	Drv   *DriverMetrics
	Sched *SchedMetrics
}

// waitBounds buckets blocking-wait durations (simulated seconds): the
// healthy range is sub-millisecond; the ACK-recovery pathology lands in the
// millisecond buckets.
var waitBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// NewMPIMetrics builds the MPI instrument set over nranks rank lanes. A nil
// registry yields a free-standing set: the same lanes, exported nowhere —
// what a World owns until a run's registered set is swapped in.
func NewMPIMetrics(r *Registry, nranks int) *MPIMetrics {
	return &MPIMetrics{
		P2PMsgs:    r.Counter("sim_mpi_p2p_msgs_total", "point-to-point messages sent", nranks),
		P2PBytes:   r.Counter("sim_mpi_p2p_bytes_total", "point-to-point bytes sent", nranks),
		P2PRecvd:   r.Counter("sim_mpi_p2p_msgs_recvd_total", "point-to-point messages matched to a receive", nranks),
		Barriers:   r.Counter("sim_mpi_barrier_ops_total", "barrier operations completed (per participating rank)", nranks),
		Allreduces: r.Counter("sim_mpi_allreduce_ops_total", "allreduce operations completed (per participating rank)", nranks),
		Waits:      r.Counter("sim_mpi_waits_total", "MPI_Wait calls that blocked", nranks),
		WaitHist:   r.Histogram("sim_mpi_wait_seconds", "blocked MPI_Wait durations, simulated seconds", nranks, waitBounds),
		Compute:    r.Sum("sim_phase_compute_seconds_total", "simulated time in compute kernels, summed over ranks", nranks),
		CommWait:   r.Sum("sim_phase_commwait_seconds_total", "simulated time blocked in P2P waits, summed over ranks", nranks),
		Sync:       r.Sum("sim_phase_sync_seconds_total", "simulated time blocked in collectives, summed over ranks", nranks),
		Rebalance:  r.Sum("sim_phase_rebalance_seconds_total", "simulated time charged to redistribution, summed over ranks", nranks),
	}
}

// NewNetMetrics builds the fabric instrument set over nodes node lanes (nil
// registry: free-standing, as for NewMPIMetrics).
func NewNetMetrics(r *Registry, nodes int) *NetMetrics {
	return &NetMetrics{
		ShmStalls:     r.Counter("sim_net_shm_stalls_total", "local deliveries stalled by shm queue contention", nodes),
		ShmStallTime:  r.Sum("sim_net_shm_stall_seconds_total", "total simulated shm contention stall time", nodes),
		NicSerials:    r.Counter("sim_net_nic_serial_total", "remote sends serialized behind the node NIC", nodes),
		NicSerialTime: r.Sum("sim_net_nic_serial_seconds_total", "total simulated NIC egress serialization wait", nodes),
		AckStalls:     r.Counter("sim_net_ack_stalls_total", "sends blocked in the missing-ACK recovery path", nodes),
		AckStallTime:  r.Sum("sim_net_ack_stall_seconds_total", "total simulated ACK-recovery stall time", nodes),
	}
}

// NewRunSet builds the registry and instrument sets for a run over nranks
// ranks on nodes nodes. The campaign parameter is ignored: it is declared
// only because bench/ passes it (nil).
func NewRunSet(nranks, nodes int, _ *Campaign) *RunSet {
	r := NewRegistry()
	return &RunSet{
		Reg: r,
		MPI: NewMPIMetrics(r, nranks),
		Net: NewNetMetrics(r, nodes),
		Drv: &DriverMetrics{
			Epochs:         r.Counter("sim_driver_epochs_total", "communication-plan epochs built (including the initial placement)", 1),
			MigratedBlocks: r.Counter("sim_driver_migrated_blocks_total", "blocks migrated at redistributions", 1),
			MigratedBytes:  r.Counter("sim_driver_migrated_bytes_total", "block state bytes migrated at redistributions", 1),
			DirHandoffs:    r.Counter("sim_driver_dir_handoffs_total", "ownership-delta handoff records exchanged", 1),
			DirInstalls:    r.Counter("sim_driver_dir_installs_total", "directory install records pushed to home ranks", 1),
			Steps:          r.Counter("sim_driver_steps_total", "BSP timesteps executed, summed over ranks", 1),
		},
		Sched: &SchedMetrics{
			LaneEvents:   r.HostCounter("host_sched_lane_events_total", "DES events appended behind a process lane's tail, never sifted"),
			HeapEvents:   r.HostCounter("host_sched_heap_events_total", "DES events pushed on the event heap"),
			HeapLenAtPop: r.HostCounter("host_sched_heap_len_at_pop_total", "event-heap length summed over pops"),
		},
	}
}
