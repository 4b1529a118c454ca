package cpu

import "amuletiso/internal/obs"

// Process-wide block-JIT metrics. Compile-side counters sit on the
// once-per-Program compile path; the deopt counters sit on block boundaries
// (never inside a segment) and are single predictable-branch atomics, per
// the zero-cost-when-off discipline.
var (
	mJITBlocks = obs.Default.Counter(obs.MetricJITBlocksCompiled,
		"Superblocks compiled to Go executors.")
	mJITSteps = obs.Default.Counter(obs.MetricJITStepsCompiled,
		"Instructions compiled into superblock executors.")
	mJITFlagsElided = obs.Default.Counter(obs.MetricJITFlagsElided,
		"Compiled steps whose SR flag stores were eliminated as dead.")
	mJITExtElided = obs.Default.Counter(obs.MetricJITExtElided,
		"Extension words baked into executors (never re-read at run time).")
	mJITAddrsFolded = obs.Default.Counter(obs.MetricJITAddrsFolded,
		"Absolute/symbolic effective addresses folded to constants.")
	mJITCompileNS = obs.Default.Counter(obs.MetricJITCompileNS,
		"Wall-clock nanoseconds spent compiling superblock plans.")

	jitDeopts = obs.Default.CounterVec(obs.MetricJITDeopts,
		"Compiled-block deoptimizations into the interpreter, by reason.",
		"reason")
	// Children pre-resolved so the boundary path never takes the vec lock.
	mDeoptBudget = jitDeopts.With("budget")
	mDeoptIRQ    = jitDeopts.With("irq")
	mDeoptHalt   = jitDeopts.With("halt")
	mDeoptCPUOff = jitDeopts.With("cpuoff")
	mDeoptText   = jitDeopts.With("text")

	// Retired instructions by execution tier, added once per Run: the
	// interpreter, compiled steps bound to the generic (dispatch) tier, and
	// compiled steps bound to a specialized tier.
	retired = obs.Default.CounterVec(obs.MetricInstrRetired,
		"Instructions retired inside CPU.Run, by execution tier.", "tier")
	mRetiredInterp  = retired.With("interp")
	mRetiredGeneric = retired.With("jit_generic")
	mRetiredSpecial = retired.With("jit_specialized")
)
