package mg

import (
	"repro/internal/core"
)

// Merge folds other into s using the PODS'12 algorithm (Agarwal et al.,
// §2): counters are added pointwise, and if more than k counters remain
// the (k+1)-th largest count is subtracted from all of them, keeping
// only the strictly positive ones. The error bound of the result is at
// most (s.n + other.n)/(k+1) — the same ε as the inputs (Theorem 2.2).
//
// other is not modified. Merging summaries with different k fails.
func (s *Summary) Merge(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	s.ensure(s.live + other.live)
	for i, c := range other.counts {
		if c != 0 {
			s.add(core.Item(other.keys[i]), c)
		}
	}
	s.n += other.n
	s.dec += other.dec
	s.prune()
	debugAssert(s)
	return nil
}

// Merged returns the PODS'12 merge of a and b without modifying either.
func Merged(a, b *Summary) (*Summary, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// CombinedCounters returns the exact pointwise sum of the two
// summaries' counters in ascending order — the intermediate multiset S
// both merge algorithms start from. Exposed for the total-error
// experiments, which compare each merge's output against it. Shared
// items are summed by lookup in the other table, so only the returned
// slice is allocated.
func CombinedCounters(a, b *Summary) []core.Counter {
	out := a.appendCounters(make([]core.Counter, 0, a.live+b.live))
	for i := range out {
		out[i].Count += b.get(out[i].Item)
	}
	for i, c := range b.counts {
		if c != 0 && a.find(b.keys[i]) < 0 {
			out = append(out, core.Counter{Item: core.Item(b.keys[i]), Count: c})
		}
	}
	core.SortCountersAsc(out)
	return out
}

// TotalMergeError measures the total error a merge committed relative
// to the combined (pre-prune) summary: the sum over the merged
// summary's monitored items of combined(x) − merged(x). This is the
// E_T metric of the supplied follow-up text (its §5 examples), which
// both its algorithms and the PODS'12 algorithm are scored by.
func TotalMergeError(combined []core.Counter, merged *Summary) uint64 {
	var te uint64
	for _, c := range combined {
		if got := merged.get(c.Item); got != 0 {
			if got > c.Count {
				// A merge must never raise a count above the combined
				// value; flag it loudly in experiments.
				panic("mg: merged count exceeds combined count")
			}
			te += c.Count - got
		}
	}
	return te
}

// DroppedMergeError complements TotalMergeError: the combined weight of
// items the merge dropped entirely.
func DroppedMergeError(combined []core.Counter, merged *Summary) uint64 {
	var te uint64
	for _, c := range combined {
		if merged.get(c.Item) == 0 {
			te += c.Count
		}
	}
	return te
}
