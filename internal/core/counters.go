package core

import "slices"

// compareAsc is the canonical total order on counters: ascending count,
// ties broken by item. No two distinct counters of one summary compare
// equal (items are unique), so every sort under it is deterministic.
// The comparisons are spelled out rather than built from cmp.Compare:
// this comparator runs n log n times per merge and encode.
func compareAsc(a, b Counter) int {
	switch {
	case a.Count != b.Count:
		if a.Count < b.Count {
			return -1
		}
		return 1
	case a.Item < b.Item:
		return -1
	case a.Item > b.Item:
		return 1
	}
	return 0
}

// compareDesc is descending count with the same ascending-item
// tie-break.
func compareDesc(a, b Counter) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	return compareAsc(a, b)
}

// SortCountersAsc sorts counters in ascending order of count, breaking
// ties by item so the order is deterministic. This is the canonical
// order used by the merge algorithms, which index the combined summary
// "in ascending sorted order" (PODS'12 §2; supplied-text Algorithms 1-3).
func SortCountersAsc(cs []Counter) { slices.SortFunc(cs, compareAsc) }

// SortCountersDesc sorts counters in descending order of count with the
// same deterministic tie-break, the order reports are printed in.
func SortCountersDesc(cs []Counter) { slices.SortFunc(cs, compareDesc) }

// TotalCount sums the counts of all counters.
func TotalCount(cs []Counter) uint64 {
	var n uint64
	for _, c := range cs {
		n += c.Count
	}
	return n
}

// TopCounters returns the k counters with the largest counts, in
// descending order. It copies its input and never returns more than
// len(cs) counters.
func TopCounters(cs []Counter, k int) []Counter {
	out := make([]Counter, len(cs))
	copy(out, cs)
	SortCountersDesc(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}
