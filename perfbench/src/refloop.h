// Machine-speed reference for speed-normalized host metrics.
//
// Host CPU speed on a shared box drifts by tens of percent over seconds,
// far more than most simulator optimizations move.  The benchmark runs a
// fixed chunk of reference work after every timed item and scales every
// host time by (kNominalChunkMs / measured chunk time), so a run on a
// momentarily slow machine reports what the same run would take on a
// machine where the chunk takes exactly kNominalChunkMs.
//
// The chunk and the nominal constant are FROZEN: changing either changes
// every normalized metric, so a change to them is a benchmark change and
// needs a fresh baseline.
#pragma once

namespace perfbench {

/// Nominal duration of one reference chunk.  Close to what the chunk
/// takes on a 4-core x86-64 container, so normalized values read close to
/// raw ones there.
inline constexpr double kNominalChunkMs = 1.0;

/// Run one reference chunk and return its host wall time in ms.  The work
/// mixes what the simulator itself does on the host: integer arithmetic
/// (xorshift fill), branchy compare-and-move (sort), data-dependent
/// hash-table probing, and page copies over a working set larger than L2.
/// Deterministic; uses buffers kept across calls, so it measures machine
/// speed rather than allocator or page-fault state.
///
/// The CPU/memory split (about 2:1 in time) is the one under which the
/// normalized throughput of fuzz_campaign and paper_overhead varied least
/// across runs on a 4-core x86-64 container; see README.md.
double run_reference_chunk();

}  // namespace perfbench
