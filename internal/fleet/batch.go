package fleet

// Wear-window batching. Two amortizations:
//
//   - workers claim contiguous batches of work items instead of one item per
//     channel round trip, so the pool's coordination cost stays flat as
//     fleets grow to thousands of devices;
//   - inside one device, the wear window is delivered in bounded batches of
//     kernel events (kernel.RunBatch) between cancellation checks, keeping
//     workers responsive without paying a context poll per event.
//
// Batching is a scheduling change only: per-device results are pure
// functions of (firmware, seed, scenario), workers write disjoint slots, and
// RunBatch advances virtual time exactly as RunUntil would — so reports stay
// byte-identical at any parallelism (the fleet determinism tests pin this,
// and kernel's TestRunBatchMatchesRunUntil pins RunBatch against its
// RunUntil oracle).

// EventBatch is the number of kernel events a worker delivers per slice of a
// device's wear window before re-checking for cancellation.
const EventBatch = 64

// maxChunk bounds how many work items one worker claim may cover; small
// enough that tail workers never idle behind one long claim.
const maxChunk = 64

// chunkFor sizes a worker claim for n items over the given pool.
func chunkFor(n, workers int) int {
	if workers <= 0 {
		return 1
	}
	c := n / (workers * 4)
	if c < 1 {
		return 1
	}
	if c > maxChunk {
		return maxChunk
	}
	return c
}
