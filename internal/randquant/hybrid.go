package randquant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
)

// Hybrid is the size-independent-of-n variant of the mergeable
// quantile summary (PODS'12 §3.3–3.4): the logarithmic block hierarchy
// is kept only for the top L levels, and the infinite tail of low
// levels is replaced by random sampling — values enter the summary
// with probability 2^-ell at weight 2^ell, and ell grows as n grows so
// that at most L block levels are ever active. Total size is O(s·L) =
// O((1/ε)·log^{1.5}(1/ε)) samples, independent of n.
//
// Substitution note (see DESIGN.md §2): the paper implements the
// sampler with bottom-k random tags so that the sample is an exact
// function of the tag assignment; this implementation uses seeded
// Bernoulli subsampling, which preserves unbiasedness, the error
// shape, and mergeability, at the cost of the sample not being
// exchangeable across re-orderings of the same merge tree.
//
// Hybrid shares the randquant wire tag with Summary (a bool payload
// discriminant selects the variant), so it cannot hold its own registry
// entry; decode it explicitly.
//
//sketch:unregistered
type Hybrid struct {
	s   int    // samples per block
	l   int    // max active block levels above ell
	n   uint64 // exact number of inserted values (incl. merges)
	ell int    // sampling exponent: new values accepted w.p. 2^-ell

	partial []float64   // accepted values at weight 2^ell, unsorted
	blocks  [][]float64 // blocks[i]: nil or sorted block of s samples at weight 2^i (i >= ell)
	rng     *gen.RNG
}

// NewHybrid returns an empty hybrid summary with block size s, at most
// l active block levels, and a deterministic seed.
func NewHybrid(s, l int, seed uint64) *Hybrid {
	if s < 1 {
		panic("randquant: block size must be >= 1")
	}
	if l < 1 {
		panic("randquant: level budget must be >= 1")
	}
	return &Hybrid{s: s, l: l, rng: gen.NewRNG(seed)}
}

// NewHybridEpsilon sizes the hybrid for rank error ~eps*n w.h.p.:
// the same block size as NewEpsilon and a level budget of
// max(3, ceil(log2(1/eps))+1).
func NewHybridEpsilon(eps float64, seed uint64) *Hybrid {
	if eps <= 0 || eps >= 1 {
		panic("randquant: eps must be in (0, 1)")
	}
	s := int(math.Ceil(2 / eps * math.Sqrt(math.Log2(1/eps)+1)))
	l := int(math.Ceil(math.Log2(1/eps))) + 1
	if l < 3 {
		l = 3
	}
	return NewHybrid(s, l, seed)
}

// N returns the exact number of values summarized, including merges.
func (h *Hybrid) N() uint64 { return h.n }

// BlockSize returns the number of samples per block.
func (h *Hybrid) BlockSize() int { return h.s }

// SampleLevel returns the current sampling exponent ell.
func (h *Hybrid) SampleLevel() int { return h.ell }

// Size returns the total number of stored samples.
func (h *Hybrid) Size() int {
	total := len(h.partial)
	for _, b := range h.blocks {
		total += len(b)
	}
	return total
}

// Update inserts one value (accepted into the summary with probability
// 2^-ell).
func (h *Hybrid) Update(v float64) {
	if math.IsNaN(v) {
		panic("randquant: NaN has no rank")
	}
	h.n++
	if h.ell > 0 {
		// Accept with probability 2^-ell.
		if h.rng.Uint64()&((1<<uint(h.ell))-1) != 0 {
			return
		}
	}
	h.push(v)
}

// push adds an accepted sample at weight 2^ell.
func (h *Hybrid) push(v float64) {
	h.partial = append(h.partial, v)
	if len(h.partial) >= h.s {
		h.promotePartial()
	}
}

func (h *Hybrid) promotePartial() {
	b := make([]float64, len(h.partial))
	copy(b, h.partial)
	sort.Float64s(b)
	h.partial = h.partial[:0]
	h.carry(b, h.ell)
	h.maybeAdvance()
}

// carry is the binary-counter cascade, identical to Summary.carry.
func (h *Hybrid) carry(b []float64, i int) {
	for {
		for len(h.blocks) <= i {
			h.blocks = append(h.blocks, nil)
		}
		if h.blocks[i] == nil {
			h.blocks[i] = b
			return
		}
		b = h.equalMerge(h.blocks[i], b)
		h.blocks[i] = nil
		i++
	}
}

func (h *Hybrid) equalMerge(a, b []float64) []float64 {
	union := make([]float64, 0, len(a)+len(b))
	ai, bi := 0, 0
	for ai < len(a) || bi < len(b) {
		if bi >= len(b) || (ai < len(a) && a[ai] <= b[bi]) {
			union = append(union, a[ai])
			ai++
		} else {
			union = append(union, b[bi])
			bi++
		}
	}
	offset := 0
	if h.rng.Bool() {
		offset = 1
	}
	out := make([]float64, 0, (len(union)+1)/2)
	for i := offset; i < len(union); i += 2 {
		out = append(out, union[i])
	}
	return out
}

// topLevel returns the highest occupied block level, or -1.
func (h *Hybrid) topLevel() int {
	top := -1
	for i, b := range h.blocks {
		if b != nil {
			top = i
		}
	}
	return top
}

// maybeAdvance raises ell while more than l block levels are active,
// subsampling the displaced low-level content.
func (h *Hybrid) maybeAdvance() {
	for h.topLevel()-h.ell >= h.l {
		h.advance()
	}
}

// advance increments the sampling exponent: the partial buffer and any
// block at the old ell are Bernoulli(1/2)-subsampled up to the new
// weight 2^(ell+1). Survivors are promoted in full chunks directly
// (without re-entering maybeAdvance) so the subsampling probability is
// applied exactly once per sample.
func (h *Hybrid) advance() {
	pending := append([]float64(nil), h.partial...)
	if h.ell < len(h.blocks) && h.blocks[h.ell] != nil {
		pending = append(pending, h.blocks[h.ell]...)
		h.blocks[h.ell] = nil
	}
	h.ell++
	h.partial = h.partial[:0]
	for _, v := range pending {
		if h.rng.Bool() {
			h.partial = append(h.partial, v)
		}
	}
	for len(h.partial) >= h.s {
		b := make([]float64, h.s)
		copy(b, h.partial[:h.s])
		h.partial = append(h.partial[:0], h.partial[h.s:]...)
		sort.Float64s(b)
		h.carry(b, h.ell)
	}
}

// Merge folds other into h. The summary with the smaller sampling
// exponent is advanced (subsampled) to match the larger before the
// block hierarchies are combined; other is never modified (a clone is
// advanced when needed). Summaries must share block size and level
// budget.
func (h *Hybrid) Merge(other *Hybrid) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if h.s != other.s || h.l != other.l {
		return fmt.Errorf("%w: hybrid shape (s=%d,l=%d) vs (s=%d,l=%d)",
			core.ErrMismatchedShape, h.s, h.l, other.s, other.l)
	}
	for h.ell < other.ell {
		h.advance()
	}
	if other.ell < h.ell {
		other = other.Clone()
		for other.ell < h.ell {
			other.advance()
		}
	}
	h.n += other.n
	for i := len(other.blocks) - 1; i >= 0; i-- {
		if other.blocks[i] != nil {
			b := make([]float64, len(other.blocks[i]))
			copy(b, other.blocks[i])
			h.carry(b, i)
		}
	}
	for _, v := range other.partial {
		h.push(v)
	}
	h.maybeAdvance()
	return nil
}

// MergedHybrid returns the merge of a and b without modifying either.
func MergedHybrid(a, b *Hybrid) (*Hybrid, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// StoredWeight returns the total weight of stored samples — an
// unbiased estimate of N once sampling is active.
func (h *Hybrid) StoredWeight() uint64 {
	var w uint64
	for i, b := range h.blocks {
		w += uint64(len(b)) << uint(i)
	}
	return w + uint64(len(h.partial))<<uint(h.ell)
}

// Rank estimates the number of inserted values <= v.
func (h *Hybrid) Rank(v float64) uint64 {
	var r uint64
	for i, b := range h.blocks {
		if b == nil {
			continue
		}
		c := sort.Search(len(b), func(j int) bool { return b[j] > v })
		r += uint64(c) << uint(i)
	}
	for _, x := range h.partial {
		if x <= v {
			r += 1 << uint(h.ell)
		}
	}
	return r
}

// Quantile returns a value whose rank is approximately phi*N.
func (h *Hybrid) Quantile(phi float64) float64 {
	type ws struct {
		v float64
		w uint64
	}
	all := make([]ws, 0, h.Size())
	for i, b := range h.blocks {
		for _, v := range b {
			all = append(all, ws{v: v, w: 1 << uint(i)})
		}
	}
	for _, v := range h.partial {
		all = append(all, ws{v: v, w: 1 << uint(h.ell)})
	}
	if len(all) == 0 {
		return math.NaN()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	if phi <= 0 {
		return all[0].v
	}
	if phi >= 1 {
		return all[len(all)-1].v
	}
	target := phi * float64(h.StoredWeight())
	var cum float64
	for _, x := range all {
		cum += float64(x.w)
		if cum >= target {
			return x.v
		}
	}
	return all[len(all)-1].v
}

// Clone returns a deep copy (with a re-derived RNG, as Summary.Clone).
func (h *Hybrid) Clone() *Hybrid {
	c := NewHybrid(h.s, h.l, h.rng.Uint64())
	c.n = h.n
	c.ell = h.ell
	c.partial = append([]float64(nil), h.partial...)
	c.blocks = make([][]float64, len(h.blocks))
	for i, b := range h.blocks {
		if b != nil {
			c.blocks[i] = append([]float64(nil), b...)
		}
	}
	return c
}

// checkInvariants verifies structural invariants; used by tests.
func (h *Hybrid) checkInvariants() error {
	if len(h.partial) >= h.s {
		return fmt.Errorf("partial buffer size %d >= s=%d", len(h.partial), h.s)
	}
	for i, b := range h.blocks {
		if b == nil {
			continue
		}
		if i < h.ell {
			return fmt.Errorf("block at level %d below ell=%d", i, h.ell)
		}
		if len(b) != h.s {
			return fmt.Errorf("block %d has %d samples, want %d", i, len(b), h.s)
		}
		if !sort.Float64sAreSorted(b) {
			return fmt.Errorf("block %d not sorted", i)
		}
	}
	if top := h.topLevel(); top >= 0 && top-h.ell >= h.l+1 {
		return fmt.Errorf("active levels %d exceed budget %d", top-h.ell+1, h.l)
	}
	return nil
}

var _ core.QuantileSummary = (*Hybrid)(nil)
