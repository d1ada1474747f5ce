package metrics

import "sync/atomic"

// Config asks a run to publish its metrics (driver.Config.Metrics). A nil
// Config means no registry in Result.Metrics and no host-plane scheduler
// instruments; the sim-plane MPI and fabric lanes exist either way — they
// are the run's accounting (see MPIMetrics).
type Config struct {
	// Campaign, when non-nil, is the campaign-level aggregate the run
	// reports into: host-plane counters mirror into it live (so /metrics
	// and /statusz move while the run executes), and the caller merges the
	// run's full snapshot via Campaign.AddRun on completion.
	Campaign *Campaign
}

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
// event queue of either engine, and the sharded scheduler's window structure
// and how much of it ran forked. Everything here depends on the engine and
// shard count (and the fork counts on GOMAXPROCS), so it lives on the host
// plane and is excluded from identity checks.
type SchedMetrics struct {
	// LaneEvents counts events appended behind the tail of a process's FIFO
	// lane, HeapEvents the events pushed on the event heap (every other one,
	// lane fronts included); HeapLenAtPop sums the heap length over pops, so
	// HeapLenAtPop ÷ (LaneEvents + HeapEvents) is the mean heap at pop.
	LaneEvents   *HostCounter
	HeapEvents   *HostCounter
	HeapLenAtPop *HostCounter

	// Windows counts executed lookahead windows; ParallelWindows the subset
	// that forked, one goroutine per active shard (the rest ran inline on
	// the coordinator).
	Windows         *HostCounter
	ParallelWindows *HostCounter
	// ParallelEvents counts the DES events executed in forked windows;
	// CriticalEvents sums, over every window, the busiest active shard's
	// events — the run's critical path in events, so total events ÷
	// CriticalEvents is the speed-up no fork rule can exceed.
	ParallelEvents *HostCounter
	CriticalEvents *HostCounter
	// WindowEvents is the distribution of DES events executed per window,
	// ActiveShards the distribution of shards active per window.
	WindowEvents *HostHistogram
	ActiveShards *HostHistogram
	// MergeDepth is the distribution of staged cross-shard deliveries per
	// merge (the merge-injection queue depth).
	MergeDepth *HostHistogram
	// ImbalanceMax is the run's worst per-window shard imbalance:
	// max-shard-events / mean-shard-events over the window's active shards.
	ImbalanceMax *HostGauge
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

// decadeBounds buckets nonnegative integer-ish host quantities by decade.
var decadeBounds = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// shardBounds buckets active-shard counts by power of two.
var shardBounds = []float64{1, 2, 4, 8, 16, 32, 64}

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
// ranks on nodes nodes. campaign may be nil; when set, host counters mirror
// into its live aggregates.
func NewRunSet(nranks, nodes int, campaign *Campaign) *RunSet {
	r := NewRegistry()
	var windowsParent *atomic.Int64
	if campaign != nil {
		windowsParent = &campaign.liveWindows
	}
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
			LaneEvents:      r.HostCounter("host_sched_lane_events_total", "DES events appended behind a process lane's tail, never sifted", nil),
			HeapEvents:      r.HostCounter("host_sched_heap_events_total", "DES events pushed on the event heap", nil),
			HeapLenAtPop:    r.HostCounter("host_sched_heap_len_at_pop_total", "event-heap length summed over pops", nil),
			Windows:         r.HostCounter("host_sched_windows_total", "lookahead windows executed", windowsParent),
			ParallelWindows: r.HostCounter("host_sched_parallel_windows_total", "windows forked, one goroutine per active shard", nil),
			ParallelEvents:  r.HostCounter("host_sched_parallel_events_total", "DES events executed in forked windows", nil),
			CriticalEvents:  r.HostCounter("host_sched_critical_events_total", "busiest active shard's events, summed over windows", nil),
			WindowEvents:    r.HostHistogram("host_sched_window_events", "DES events executed per window", decadeBounds),
			ActiveShards:    r.HostHistogram("host_sched_active_shards", "shards active per window", shardBounds),
			MergeDepth:      r.HostHistogram("host_sched_merge_queue_depth", "staged cross-shard deliveries per merge", decadeBounds),
			ImbalanceMax:    r.HostGauge("host_sched_imbalance_max", "worst per-window max/mean shard event imbalance"),
		},
	}
}
