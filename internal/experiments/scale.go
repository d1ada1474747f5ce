package experiments

import (
	"fmt"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

// scaleRanks returns the rank counts of the distributed-forest scaling
// campaign: quick mode stays in the hundreds-to-8K band the old global-view
// design could still reach, full mode runs the ≥64k-rank claim itself.
func scaleRanks(quick bool) []int {
	if quick {
		return []int{512, 2048, 8192}
	}
	return []int{4096, 16384, 65536}
}

// ScaleConfig builds the scaling-campaign driver config for one rank count:
// one root block per rank, shallow refinement (maxLevel 1), four steps with
// one redistribution in the middle, Sedov refinement dynamics. The per-step
// telemetry table is off — at 64k ranks the observability rows would dwarf
// the mesh metadata this campaign measures.
func ScaleConfig(ranks int, paranoid bool, seed uint64) (driver.Config, error) {
	dims, err := cubeDims(ranks)
	if err != nil {
		return driver.Config{}, err
	}
	pol := placement.CPLX{X: 50, ChunkSize: chunkFor(ranks)}
	cfg := driver.DefaultConfig(dims, 1, 4, pol, seed)
	cfg.LBInterval = 2
	cfg.CollectSteps = false
	cfg.Paranoid = paranoid
	return cfg, nil
}

// Scale is the distributed-forest scaling experiment (DESIGN.md §9): run
// the full DES driver at rank counts far beyond the Sedov campaigns and
// report the per-rank metadata economy of the distributed mesh. The claim
// under test: the largest per-rank footprint (view + plan + directory
// shard) tracks the local block count, not the global one, while the
// replicated partition stays O(ranks); ownership changes cross ranks as
// delta records, never as a rebroadcast table.
//
// All columns derive from virtual time and deterministic plan construction,
// so the table is bit-identical across -j and across hosts. Wall-clock and
// heap telemetry for these runs land in the harness recorder's wall_ms,
// rank_bytes, and heap_mb columns (cmd/experiments -out).
//
// Columns: ranks, blocks, makespan, rank_meta_b, partition_b, handoffs,
// installs.
func Scale(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.IntCol("blocks"),
		telemetry.FloatCol("makespan"), telemetry.IntCol("rank_meta_b"),
		telemetry.IntCol("partition_b"), telemetry.IntCol("handoffs"),
		telemetry.IntCol("installs"),
	)
	ranks := scaleRanks(opts.Quick)
	var specs []harness.Spec[*driver.Result]
	for _, r := range ranks {
		cfg, err := ScaleConfig(r, false, opts.Seed)
		if err != nil {
			panic(err) // rank counts above are powers of two by construction
		}
		specs = append(specs, opts.sedovSpec(fmt.Sprintf("%dranks", r), cfg))
	}
	for i, res := range runCampaign(opts, "scale", specs) {
		out.Append(ranks[i], res.FinalBlocks, res.Makespan,
			res.MaxRankMetaBytes, res.PartitionBytes,
			res.Deltas.Handoffs, res.Deltas.Installs)
	}
	return out
}
