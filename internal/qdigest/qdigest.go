// Package qdigest implements the q-digest of Shrivastava, Buragohain,
// Agrawal and Suri — the prior mergeable quantile summary the PODS'12
// paper compares its randomized construction against (§3): for a fixed
// integer universe [0, 2^logU) it answers rank queries with error at
// most εn using O((1/ε)·log u) nodes, and it is deterministically and
// trivially mergeable (add node counts, re-compress).
//
// The structure is a binary tree over the universe; node v covers a
// dyadic range, the root covers everything. The digest keeps a sparse
// map of node counts satisfying the q-digest property with threshold
// t = ⌊n/k⌋:
//
//	(1) non-leaf nodes have count ≤ t, and
//	(2) a node, its sibling and its parent together exceed t
//	    (otherwise they are merged upward by Compress).
//
// A rank query sums the counts of nodes entirely below the query
// point; each of the logU levels contributes at most t uncertainty
// from the single spanning node, so rank error ≤ logU·⌊n/k⌋ ≤ εn for
// k = ⌈logU/ε⌉.
//
// The trade-offs against the paper's randomized summary (package
// randquant) are exactly the ones §3 motivates: q-digest needs a
// bounded integer universe and pays a log u factor, but is
// deterministic; the randomized summary is comparison-based
// (unbounded universe) and smaller. Experiment E18 measures both.
package qdigest

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
)

// Digest is a q-digest over the universe [0, 2^logU). The zero value
// is not usable; use New. Not safe for concurrent use.
type Digest struct {
	logU   uint8
	k      uint64
	n      uint64
	counts map[uint64]uint64 // node id (1 = root) → count
	// dirty counts insertions since the last compress; compression is
	// amortized over Θ(size) updates.
	dirty uint64
}

// New returns an empty digest over [0, 2^logU) with compression factor
// k: rank error is at most logU·⌊n/k⌋. logU must be in [1, 62], k >= 1.
func New(logU uint8, k uint64) *Digest {
	if logU < 1 || logU > 62 {
		panic("qdigest: logU must be in [1, 62]")
	}
	if k < 1 {
		panic("qdigest: k must be >= 1")
	}
	return &Digest{logU: logU, k: k, counts: make(map[uint64]uint64)}
}

// NewEpsilon returns a digest with rank error at most eps*n:
// k = ceil(logU/eps).
func NewEpsilon(logU uint8, eps float64) *Digest {
	if eps <= 0 || eps >= 1 {
		panic("qdigest: eps must be in (0, 1)")
	}
	return New(logU, uint64(math.Ceil(float64(logU)/eps)))
}

// LogUniverse returns logU.
func (d *Digest) LogUniverse() uint8 { return d.logU }

// K returns the compression factor.
func (d *Digest) K() uint64 { return d.k }

// N returns the total weight summarized, including merges.
func (d *Digest) N() uint64 { return d.n }

// Size returns the number of stored nodes.
func (d *Digest) Size() int { return len(d.counts) }

// ErrorBound returns the current deterministic rank-error bound
// logU·⌊n/k⌋.
func (d *Digest) ErrorBound() uint64 {
	return uint64(d.logU) * (d.n / d.k)
}

// leaf returns the node id of value v's leaf.
func (d *Digest) leaf(v uint64) uint64 {
	return (uint64(1) << d.logU) + v
}

// level returns the depth of node id (root = 0).
func level(id uint64) uint8 {
	l := uint8(0)
	for id > 1 {
		id >>= 1
		l++
	}
	return l
}

// rangeOf returns the inclusive value range covered by node id.
func (d *Digest) rangeOf(id uint64) (lo, hi uint64) {
	lv := level(id)
	span := uint64(1) << (d.logU - lv)
	lo = (id - (uint64(1) << lv)) * span
	return lo, lo + span - 1
}

// Update adds w >= 1 occurrences of value v (clamped into the
// universe).
func (d *Digest) Update(v uint64, w uint64) {
	if w == 0 {
		panic("qdigest: zero-weight update")
	}
	max := (uint64(1) << d.logU) - 1
	if v > max {
		v = max
	}
	d.counts[d.leaf(v)] += w
	d.n += w
	d.dirty++
	if d.dirty > uint64(len(d.counts))+16 {
		d.Compress()
	}
	debugAssertSampled(d)
}

// Compress restores the q-digest property, merging under-full sibling
// pairs into their parents bottom-up. It runs in O(size·log size).
func (d *Digest) Compress() {
	d.dirty = 0
	t := d.n / d.k
	if t == 0 || len(d.counts) == 0 {
		return
	}
	// Sweep levels bottom-up until a fixpoint: a pass can re-enable
	// merges below (a parent that moved its count upward leaves its
	// remaining child's triple under the threshold), and every merge
	// strictly shrinks the node set, so the loop terminates quickly.
	for {
		merged := false
		byLevel := make([][]uint64, d.logU+1)
		for id := range d.counts {
			lv := level(id)
			byLevel[lv] = append(byLevel[lv], id)
		}
		for lv := int(d.logU); lv >= 1; lv-- {
			for _, id := range byLevel[lv] {
				c, ok := d.counts[id]
				if !ok {
					continue // already folded into its parent
				}
				sib := id ^ 1
				parent := id >> 1
				total := c + d.counts[sib] + d.counts[parent]
				if total <= t {
					_, parentExisted := d.counts[parent]
					delete(d.counts, id)
					delete(d.counts, sib)
					d.counts[parent] = total
					merged = true
					if !parentExisted {
						byLevel[lv-1] = append(byLevel[lv-1], parent)
					}
				}
			}
		}
		if !merged {
			return
		}
	}
}

// Rank estimates the number of inserted values <= v: the sum of node
// counts whose ranges lie entirely at or below v. The estimate never
// exceeds the true rank and undershoots by at most ErrorBound().
func (d *Digest) Rank(v uint64) uint64 {
	d.Compress()
	var r uint64
	for id, c := range d.counts {
		_, hi := d.rangeOf(id)
		if hi <= v {
			r += c
		}
	}
	return r
}

// Quantile returns a value whose rank is within ErrorBound() of
// phi*N: the canonical post-order walk accumulating counts.
func (d *Digest) Quantile(phi float64) uint64 {
	d.Compress()
	if len(d.counts) == 0 {
		return 0
	}
	type nodeCount struct {
		hi, lo, c uint64
	}
	nodes := make([]nodeCount, 0, len(d.counts))
	for id, c := range d.counts {
		lo, hi := d.rangeOf(id)
		nodes = append(nodes, nodeCount{hi: hi, lo: lo, c: c})
	}
	// Post-order over the range tree: by upper bound, then smaller
	// ranges (deeper nodes) first.
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].hi != nodes[j].hi {
			return nodes[i].hi < nodes[j].hi
		}
		return nodes[i].lo > nodes[j].lo
	})
	target := phi * float64(d.n)
	var cum float64
	for _, nc := range nodes {
		cum += float64(nc.c)
		if cum >= target {
			return nc.hi
		}
	}
	return nodes[len(nodes)-1].hi
}

// Merge folds other into d: counts add node-wise and the result is
// re-compressed — the q-digest is trivially mergeable. Digests must
// share logU and k; other is not modified.
func (d *Digest) Merge(other *Digest) error {
	if other == nil {
		return core.ErrNilSummary
	}
	if d.logU != other.logU || d.k != other.k {
		return fmt.Errorf("%w: qdigest logU/k", core.ErrMismatchedShape)
	}
	for id, c := range other.counts {
		d.counts[id] += c
	}
	d.n += other.n
	d.Compress()
	debugAssert(d)
	return nil
}

// Merged returns the merge of a and b without modifying either.
func Merged(a, b *Digest) (*Digest, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// Clone returns a deep copy.
func (d *Digest) Clone() *Digest {
	c := New(d.logU, d.k)
	c.n = d.n
	c.dirty = d.dirty
	for id, v := range d.counts {
		c.counts[id] = v
	}
	return c
}

// checkInvariants verifies the q-digest property; used by tests.
// It must be called right after Compress.
func (d *Digest) checkInvariants() error {
	var sum uint64
	t := d.n / d.k
	maxID := uint64(1) << (d.logU + 1)
	for id, c := range d.counts {
		if c == 0 {
			return fmt.Errorf("zero-count node %d", id)
		}
		if id < 1 || id >= maxID {
			return fmt.Errorf("node id %d out of tree", id)
		}
		sum += c
		if id == 1 {
			continue
		}
		if total := c + d.counts[id^1] + d.counts[id>>1]; total <= t {
			return fmt.Errorf("node %d violates compression: %d <= %d", id, total, t)
		}
	}
	if sum != d.n {
		return fmt.Errorf("Σ counts %d != n %d", sum, d.n)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
//
// Compress is an idempotent canonicalization, not an impurity: the
// q-digest invariant requires the encoded tree to be in compressed
// form so equal logical states encode to identical bytes, and
// compressing an already-compressed digest is a no-op. Callers hold
// exclusive access during encode (the merge plane encodes under the
// slot lock), so the mutation cannot race.
//
//sketch:encodemutates
func (d *Digest) MarshalBinary() ([]byte, error) {
	d.Compress()
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	// Header (logU, k, n, len) plus (id, count) uvarints per node.
	w.Grow(4*10 + len(d.counts)*2*10)
	w.Int(int(d.logU))
	w.Uint64(d.k)
	w.Uint64(d.n)
	ids := make([]uint64, 0, len(d.counts))
	for id := range d.counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w.Int(len(ids))
	for _, id := range ids {
		w.Uint64(id)
		w.Uint64(d.counts[id])
	}
	return codec.EncodeFrame(codec.KindQDigest, w.Bytes()), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (d *Digest) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindQDigest, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	logU := r.Int()
	k := r.Uint64()
	n := r.Uint64()
	m := r.ArrayLen(2)
	if r.Err() != nil {
		return r.Err()
	}
	if logU < 1 || logU > 62 || k < 1 {
		return fmt.Errorf("qdigest: invalid header (logU=%d, k=%d)", logU, k)
	}
	out := New(uint8(logU), k)
	out.n = n
	maxID := uint64(1) << (uint8(logU) + 1)
	var sum uint64
	for i := 0; i < m; i++ {
		id := r.Uint64()
		c := r.Uint64()
		if r.Err() == nil {
			if id < 1 || id >= maxID {
				return fmt.Errorf("qdigest: node id %d out of tree", id)
			}
			if c == 0 {
				return fmt.Errorf("qdigest: zero-count node %d", id)
			}
			if _, dup := out.counts[id]; dup {
				return fmt.Errorf("qdigest: duplicate node %d", id)
			}
			out.counts[id] = c
			sum += c
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if sum != n {
		return fmt.Errorf("qdigest: frame weight %d != n %d", sum, n)
	}
	*d = *out
	return nil
}
