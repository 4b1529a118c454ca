package fleet

// Event batching: inside one device, the wear window is delivered in bounded
// batches of kernel events (kernel.RunBatch). Between batches a worker polls
// for cancellation and answers a pending cut request, keeping workers
// responsive without paying a context poll per event.
//
// Batching is a scheduling change only: RunBatch advances virtual time
// exactly as RunUntil would, so reports stay byte-identical at any
// parallelism (the fleet determinism tests pin this, and kernel's
// TestRunBatchMatchesRunUntil pins RunBatch against its RunUntil oracle).

// EventBatch is the number of kernel events a worker delivers per slice of a
// device's wear window before it polls again.
const EventBatch = 64
