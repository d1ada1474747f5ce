// Package amrtools is a from-scratch Go reproduction of "Lessons from
// Profiling and Optimizing Placement in AMR Codes" (CLUSTER 2025): the CPLX
// tunable placement policy, the block-structured AMR and simulated-MPI
// substrates it runs on, the telemetry pipeline that feeds it, and a
// benchmark harness that regenerates every table and figure of the paper's
// evaluation.
//
// See README.md for an overview, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The cmd/experiments binary regenerates every experiment (-quick for a
// seconds-long pass) and ends with the paper-claims ledger
// (internal/experiments.Shapes), which exits non-zero when a claim's verdict
// disagrees with its recorded status.
package amrtools
