package mg

import (
	"repro/internal/core"
)

// MergeLowError folds other into s using the closed-form low-total-
// error algorithm (Algorithm 2 of the supplied follow-up text,
// "Mergeable Summaries With Low Total Error", Cafaro–Tempesta–Pulimeno;
// their Theorem 4.2 evaluated at the final update step).
//
// The construction: let C_1 … C_2c be the combined counters of the two
// inputs in ascending count order, padded at the front with zero
// counters, where c is the per-summary capacity (the text's k-1). If at
// most c counters are nonzero the combined summary is returned exactly.
// Otherwise the result is the summary a Misra–Gries run over the
// combined counters would produce, given directly by
//
//	e_j = C_{c+j}                       j = 1 … c
//	f_1 = C_{c+1} − C_c
//	f_j = C_{c+j} − C_c + C_{j−1}       j = 2 … c
//
// This output satisfies the identical MG bound as Merge (total weight
// divided by c+1 — the text's Lemma 4.3 shows its total error is never
// larger than the PODS'12 prune, and usually much smaller), at the cost
// of one O(c log c) sort.
//
// The merge sorts at most once and allocates nothing once s's table has
// held c counters. Counts of items s already monitors are added into
// s's table in place; the rest of other's counters and all of s's are
// staged in a pooled buffer, sorted, and read through a zero-padding
// offset instead of a padded copy. s is then rebuilt at its usual size:
// accumulating the union into s's own table would double it for good.
func (s *Summary) MergeLowError(other *Summary) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if s.k != other.k {
		return core.ErrMismatchedK
	}
	c := s.k
	buf := getCounters()
	defer putCounters(buf)
	combined := buf.cs
	for i, cnt := range other.counts {
		if cnt == 0 {
			continue
		}
		if j := s.find(other.keys[i]); j >= 0 {
			s.counts[j] += cnt
		} else {
			combined = append(combined, core.Counter{Item: core.Item(other.keys[i]), Count: cnt})
		}
	}
	combined = s.appendCounters(combined)
	buf.cs = combined
	s.n += other.n
	s.dec += other.dec
	s.clearTable()
	if len(combined) <= c {
		// No pruning necessary: the combined summary is exact
		// relative to its inputs, and needs no order.
		s.ensure(len(combined))
		for _, cc := range combined {
			s.insertFresh(uint64(cc.Item), cc.Count)
		}
		debugAssert(s)
		return nil
	}
	core.SortCountersAsc(combined)
	// Conceptually the combined counters are padded at the front with
	// zero counters to exactly 2c slots; pad is the number of zeros.
	pad := 2*c - len(combined)
	if pad < 0 {
		panic("mg: combined counters exceed 2k")
	}
	// cnt(i) is the 1-based C_i^f accessor over the padded sequence.
	cnt := func(i int) uint64 {
		if i <= pad {
			return 0
		}
		return combined[i-1-pad].Count
	}
	s.ensure(c)
	base := cnt(c) // C_c, the amount every surviving counter is cut by
	for j := 1; j <= c; j++ {
		e := combined[c+j-1-pad].Item // c+j > pad: never a padding zero
		var f uint64
		if j == 1 {
			f = cnt(c+1) - base
		} else {
			f = cnt(c+j) - base + cnt(j-1)
		}
		if f > 0 {
			s.insertFresh(uint64(e), f)
		}
	}
	// Every output counter was reduced by at most C_c relative to the
	// combined counts (j=1 loses C_c; j>=2 loses C_c − C_{j−1} ≤ C_c),
	// and every dropped item had combined count ≤ C_c.
	s.dec += base
	debugAssert(s)
	return nil
}

// MergedLowError returns the low-total-error merge of a and b without
// modifying either.
func MergedLowError(a, b *Summary) (*Summary, error) {
	out := a.Clone()
	if err := out.MergeLowError(b); err != nil {
		return nil, err
	}
	return out, nil
}
