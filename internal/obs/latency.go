package obs

import "math"

// CycleHist is a fixed-bucket histogram over the simulated cycle domain. It
// is the one observability structure allowed inside fleet reports: cycle
// counts are a pure function of the simulation, so per-device hists and their
// merge are byte-identical at any worker count or tracing setting.
//
// It is plain data with value semantics — no atomics, no pointers — so a
// DeviceResult embedding one stays trivially copyable and JSON-stable.
type CycleHist struct {
	// Counts[i] counts observations v with v <= CycleBounds[i] (and greater
	// than the previous bound); the last bucket is +Inf.
	Counts [len(CycleBounds) + 1]uint64 `json:"counts"`
	Sum    uint64                       `json:"sum"`
	Max    uint64                       `json:"max"`
}

// CycleBounds are the bucket upper bounds in simulated cycles. At the
// simulated 8MHz clock they span 8µs to 8s: the low buckets resolve
// same-millisecond dispatch backlog (one handler is tens of thousands of
// cycles), the high ones catch starvation behind watchdog-scale stalls.
var CycleBounds = [...]uint64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// Observe records one latency sample. It runs once per delivered event on
// the dispatch hot path, so the bucket lookup is a binary search rather than
// a linear scan over the bounds.
func (h *CycleHist) Observe(v uint64) {
	h.Counts[bucketFor(v)]++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// bucketFor returns the index of the bucket holding v: the first bound with
// v <= bound, or the +Inf bucket past the last bound. Lower-bound binary
// search, equivalent to the linear scan the tests keep as an oracle.
func bucketFor(v uint64) int {
	lo, hi := 0, len(CycleBounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > CycleBounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Merge folds other into h. Merging is commutative and associative, so the
// fleet-level merge order cannot affect the result.
func (h *CycleHist) Merge(other *CycleHist) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Count returns the total number of observations.
func (h *CycleHist) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) by
// nearest-rank over the buckets: the bound of the bucket containing the
// rank'th observation, or Max for the +Inf bucket. Returns 0 for an empty
// histogram. Deterministic: a pure function of the counts.
func (h *CycleHist) Quantile(q float64) uint64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	// Nearest-rank wants the ceiling: p50 over 3 samples is rank 2, not the
	// rank 1 a truncating conversion used to give.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(CycleBounds) {
				return CycleBounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}
