// Package encodepure_a is the encodepure fixture: impure encode
// paths (receiver writes, RNG draws, clock reads, map-order leaks)
// next to the pure idioms the codecs use.
package encodepure_a

import (
	"slices"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/gen"
)

// sketch is a summary-like type with everything an encode path could
// do wrong.
type sketch struct {
	counts map[uint64]uint64
	keys   []uint64
	rng    *gen.RNG
	stamp  int64
	dirty  bool
}

// --- violations ---

// badFieldWrite mutates receiver state mid-encode.
func (s *sketch) MarshalBinary() ([]byte, error) {
	s.dirty = false // want `encode path writes receiver state \(s.dirty\)`
	return nil, nil
}

// badDraw draws randomness while encoding — the class PR 4 caught at
// runtime.
type drawer struct{ rng *gen.RNG }

func (d *drawer) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Uint64(d.rng.Uint64()) // want `encode path draws randomness \(RNG.Uint64\); persist rng.State\(\) instead`
	return append([]byte(nil), w.Bytes()...), nil
}

// badClock stamps encodes with wall time.
type stamper struct{ at int64 }

func (t *stamper) Encode() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(int(time.Now().UnixNano())) // want `encode path reads the wall clock \(time.Now\)`
	return append([]byte(nil), w.Bytes()...), nil
}

// badMapOrder writes entries straight out of map iteration: the byte
// order changes run to run.
type mapper struct{ m map[uint64]uint64 }

func (m *mapper) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	for k, v := range m.m { // want `map iteration order feeds encoded bytes`
		w.Uint64(k)
		w.Uint64(v)
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// badHelperWrite reaches a receiver write through a same-package
// helper; the summary table carries the fact to the call site.
type compactor struct{ keys []uint64 }

func (c *compactor) compact() {
	c.keys = c.keys[:0]
}

func (c *compactor) MarshalBinary() ([]byte, error) {
	c.compact() // want `encode path calls compact, which writes receiver state`
	return nil, nil
}

// badSortInPlace reorders receiver state during encode.
type sorter struct{ keys []uint64 }

func (s *sorter) Encode() ([]byte, error) {
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] }) // want `encode path sorts receiver state in place \(sort.Slice\); sort a copy`
	return nil, nil
}

// slicesSorter reorders receiver state through the slices package.
type slicesSorter struct{ keys []uint64 }

func (s *slicesSorter) Encode() ([]byte, error) {
	slices.Sort(s.keys) // want `encode path sorts receiver state in place \(slices.Sort\); sort a copy`
	return nil, nil
}

// sortHelper reaches the in-place sort through a same-package helper.
type sortHelper struct{ keys []uint64 }

func (s *sortHelper) order() {
	slices.SortFunc(s.keys, func(a, b uint64) int { return int(a>>1) - int(b>>1) })
}

func (s *sortHelper) Encode() ([]byte, error) {
	s.order() // want `encode path calls order, which writes receiver state`
	return nil, nil
}

// --- clean idioms ---

// goodCollectSort is the qdigest pattern: collect keys into a local
// slice, sort the copy, then write — deterministic bytes, untouched
// receiver.
func (s *sketch) Encode() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	ids := make([]uint64, 0, len(s.counts))
	for id := range s.counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w.Int(len(ids))
	for _, id := range ids {
		w.Uint64(id)
		w.Uint64(s.counts[id])
	}
	return codec.EncodeFrame(codec.KindMisraGries, w.Bytes()), nil
}

// persister is the randquant pattern: persisting rng.State() is a
// read, not a draw.
type persister struct{ rng *gen.RNG }

func (p *persister) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Uint64(p.rng.State())
	return append([]byte(nil), w.Bytes()...), nil
}

// canonicalizer shows the documented opt-out for idempotent
// canonicalization under exclusive access.
type canonicalizer struct{ pending []uint64 }

func (c *canonicalizer) flush() { c.pending = c.pending[:0] }

// MarshalBinary flushes first; the mutation is idempotent and callers
// hold exclusive access.
//
//sketch:encodemutates
func (c *canonicalizer) MarshalBinary() ([]byte, error) {
	c.flush()
	return nil, nil
}
