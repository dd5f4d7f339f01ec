package mg

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/registry"
)

// mergeLowErrorOracle is the low-error closed form as first written:
// materialize the combined counters, copy them into a zero-padded
// array of exactly 2c slots, sort, and index. The served merge must
// match it byte for byte.
func mergeLowErrorOracle(s, other *Summary) *Summary {
	c := s.k
	combined := CombinedCounters(s, other)
	out := newSized(c, c)
	out.n = s.n + other.n
	out.dec = s.dec + other.dec
	if len(combined) <= c {
		for _, cc := range combined {
			out.insertFresh(uint64(cc.Item), cc.Count)
		}
		return out
	}
	pad := make([]core.Counter, 2*c)
	copy(pad[2*c-len(combined):], combined)
	core.SortCountersAsc(pad)
	cnt := func(i int) uint64 { return pad[i-1].Count }
	base := cnt(c)
	for j := 1; j <= c; j++ {
		f := cnt(c+j) - base
		if j > 1 {
			f += cnt(j - 1)
		}
		if f > 0 {
			out.insertFresh(uint64(pad[c+j-1].Item), f)
		}
	}
	out.dec += base
	return out
}

func mustMarshal(t *testing.T, s *Summary) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomSummary runs MG over a random weighted stream drawn from
// [base, base+universe). Small weight ranges make count ties common.
func randomSummary(rng *gen.RNG, k, base, universe, updates, maxW int) *Summary {
	s := New(k)
	for i := 0; i < updates; i++ {
		s.Update(core.Item(base+rng.Intn(universe)), uint64(rng.Intn(maxW)+1))
	}
	return s
}

func TestMergeLowErrorMatchesOracle(t *testing.T) {
	type shape struct {
		name         string
		baseB        func(k int) int // item offset of b's universe
		universe     func(k int) int
		updates, mxW int
	}
	shapes := []shape{
		{"disjoint-full", func(k int) int { return 1 << 20 }, func(k int) int { return 8 * k }, 0, 100},
		{"overlap-full", func(k int) int { return 0 }, func(k int) int { return 4 * k }, 0, 100},
		{"overlap-ties", func(k int) int { return 0 }, func(k int) int { return 3 * k }, 0, 2},
		{"disjoint-fits", func(k int) int { return 1 << 20 }, func(k int) int { return max(k/2, 1) }, 0, 5},
		{"overlap-fits", func(k int) int { return 0 }, func(k int) int { return k }, 0, 3},
	}
	for _, k := range []int{1, 2, 8, 256} {
		for _, sh := range shapes {
			for seed := uint64(1); seed <= 12; seed++ {
				rng := gen.NewRNG(seed*7919 + uint64(k))
				updates := int(seed)*k + rng.Intn(4*k+1)
				a := randomSummary(rng, k, 0, sh.universe(k), updates, sh.mxW)
				b := randomSummary(rng, k, sh.baseB(k), sh.universe(k), rng.Intn(4*k+1), sh.mxW)
				want := mergeLowErrorOracle(a, b)
				if err := a.MergeLowError(b); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("k=%d %s seed=%d", k, sh.name, seed)
				if a.N() != want.N() || a.ErrorBound() != want.ErrorBound() {
					t.Fatalf("%s: n/dec = %d/%d, oracle %d/%d", where, a.N(), a.ErrorBound(), want.N(), want.ErrorBound())
				}
				if !bytes.Equal(mustMarshal(t, a), mustMarshal(t, want)) {
					t.Fatalf("%s: merged %v, oracle %v", where, a.Counters(), want.Counters())
				}
			}
		}
	}
}

// A merge must leave the receiver's table at the size its own counters
// need: folding the union into it would double every slot table.
func TestMergeLowErrorKeepsTableSize(t *testing.T) {
	rng := gen.NewRNG(5)
	a := randomSummary(rng, 256, 0, 1<<16, 4096, 1)
	frame := mustMarshal(t, a)
	var slot Summary
	if err := slot.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		other := randomSummary(rng, 256, 0, 1<<16, 4096, 1)
		if err := slot.MergeLowError(other); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := len(slot.counts), tableSizeFor(256); got != want {
		t.Fatalf("table has %d slots after merges, want %d", got, want)
	}
}

// A scratch that decoded a large-k frame must not carry its table into
// a smaller-k summary: registry scratch is shared by every mg slot and
// may be adopted as a slot's summary for good.
func TestDecodeDropsOversizedTable(t *testing.T) {
	rng := gen.NewRNG(11)
	large := mustMarshal(t, randomSummary(rng, 4096, 0, 1<<20, 1<<16, 1))
	small := mustMarshal(t, randomSummary(rng, 256, 0, 1<<16, 4096, 1))
	var scratch Summary
	if err := scratch.UnmarshalBinary(large); err != nil {
		t.Fatal(err)
	}
	if got, limit := len(scratch.counts), decodeTableCap(256); got <= limit {
		t.Fatalf("setup: k=4096 decode left %d slots, not above the k=256 cap %d", got, limit)
	}
	if err := scratch.UnmarshalBinary(small); err != nil {
		t.Fatal(err)
	}
	// The size a fresh decode of the frame gets.
	if got, want := len(scratch.counts), tableSizeFor(scratch.Len()); got != want {
		t.Fatalf("k=256 decode after k=4096: table has %d slots, want %d", got, want)
	}
	if !bytes.Equal(mustMarshal(t, &scratch), small) {
		t.Fatal("k=256 decode after k=4096 does not re-encode to its frame")
	}
	// A table within the cap is kept, also for a frame with fewer
	// counters: that is what makes a warmed decode allocation-free.
	sparse := mustMarshal(t, randomSummary(rng, 256, 0, 1<<16, 40, 1))
	size, before := len(scratch.counts), &scratch.counts[0]
	if err := scratch.UnmarshalBinary(sparse); err != nil {
		t.Fatal(err)
	}
	if len(scratch.counts) != size || &scratch.counts[0] != before {
		t.Fatalf("sparse k=256 decode replaced a %d-slot table", size)
	}
}

func TestDecodeIntoDirtyScratch(t *testing.T) {
	rng := gen.NewRNG(9)
	big := randomSummary(rng, 256, 0, 4096, 20000, 3)
	small := randomSummary(rng, 8, 0, 64, 300, 3)
	empty := New(4)
	for _, src := range []*Summary{small, empty, big, small} {
		frame := mustMarshal(t, src)
		var fresh Summary
		if err := fresh.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		// The dirty target held a different k and more counters.
		dirty := randomSummary(rng, 512, 1<<30, 8192, 30000, 5)
		if err := dirty.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		if dirty.K() != fresh.K() || dirty.N() != fresh.N() || dirty.ErrorBound() != fresh.ErrorBound() || dirty.Len() != fresh.Len() {
			t.Fatalf("dirty decode header %d/%d/%d/%d, fresh %d/%d/%d/%d",
				dirty.K(), dirty.N(), dirty.ErrorBound(), dirty.Len(), fresh.K(), fresh.N(), fresh.ErrorBound(), fresh.Len())
		}
		for _, c := range fresh.Counters() {
			if got := dirty.Estimate(c.Item).Value; got != c.Count {
				t.Fatalf("item %d: dirty decode %d, fresh %d", c.Item, got, c.Count)
			}
		}
		if !bytes.Equal(mustMarshal(t, dirty), frame) {
			t.Fatal("dirty decode does not re-encode to its frame")
		}
	}
}

// decodeCase is one malformed mg frame: header fields, the counters
// written, a number of payload bytes cut off the end, and uvarints
// appended after the counters.
type decodeCase struct {
	name string
	k, m int
	n    uint64
	cs   []core.Counter
	trim int
	tail []uint64
	want string
}

func (dc decodeCase) frame() []byte {
	w := new(codec.Buffer)
	w.Int(dc.k)
	w.Uint64(dc.n)
	w.Uint64(0)
	w.Int(dc.m)
	for _, c := range dc.cs {
		w.Uint64(uint64(c.Item))
		w.Uint64(c.Count)
	}
	for _, v := range dc.tail {
		w.Uint64(v)
	}
	p := w.Bytes()
	return codec.EncodeFrame(codec.KindMisraGries, p[:len(p)-dc.trim])
}

func TestDecodeErrors(t *testing.T) {
	one := []core.Counter{{Item: 1, Count: 3}}
	two := []core.Counter{{Item: 1, Count: 3}, {Item: 2, Count: 3}}
	big := []core.Counter{{Item: 1 << 40, Count: 1 << 40}, {Item: 1 << 41, Count: 1 << 41}}
	counterCases := []decodeCase{
		{name: "k<1", k: 0, n: 3, m: 1, cs: one, want: "mg: k must be >= 1, have 0"},
		{name: "m>k", k: 1, n: 6, m: 2, cs: two, want: "mg: 2 counters exceed k=1"},
		{name: "zero count", k: 4, n: 3, m: 2, cs: []core.Counter{{Item: 1, Count: 3}, {Item: 7, Count: 0}}, want: "mg: zero count for item 7"},
		{name: "duplicate", k: 4, n: 6, m: 2, cs: []core.Counter{{Item: 5, Count: 3}, {Item: 5, Count: 3}}, want: "mg: duplicate item 5"},
	}
	frameCases := []decodeCase{
		{name: "array length", k: 4, n: 3, m: 2, cs: one, want: "codec: array length 2 exceeds remaining payload 2"},
		{name: "truncated", k: 4, n: 3 << 40, m: 2, cs: big, trim: 3, want: codec.ErrTruncated.Error()},
		{name: "trailing", k: 4, n: 3, m: 1, cs: one, tail: []uint64{9}, want: codec.ErrTrailing.Error()},
	}
	good := mustMarshal(t, randomSummary(gen.NewRNG(2), 4, 0, 40, 500, 2))
	for _, tc := range append(counterCases, frameCases...) {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range []*Summary{new(Summary), randomSummary(gen.NewRNG(3), 4, 0, 40, 500, 2)} {
				k := target.K()
				err := target.UnmarshalBinary(tc.frame())
				if err == nil || err.Error() != tc.want {
					t.Fatalf("error %v, want %q", err, tc.want)
				}
				// The receiver stays a valid, empty summary of its k.
				if target.K() != k || target.N() != 0 || target.Len() != 0 || target.ErrorBound() != 0 {
					t.Fatalf("after error: k=%d n=%d len=%d dec=%d", target.K(), target.N(), target.Len(), target.ErrorBound())
				}
				if err := target.UnmarshalBinary(good); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustMarshal(t, target), good) {
					t.Fatal("decode after an error differs from the frame")
				}
			}
		})
	}
	// FromCounters rejects the same counter lists in the same words.
	for _, tc := range counterCases {
		if _, err := FromCounters(tc.k, tc.n, 0, tc.cs); err == nil || err.Error() != tc.want {
			t.Errorf("FromCounters %s: %v, want %q", tc.name, err, tc.want)
		}
	}
	var s Summary
	if err := s.UnmarshalBinary(frameCases[1].frame()); !errors.Is(err, codec.ErrTruncated) {
		t.Errorf("truncated frame: %v does not wrap codec.ErrTruncated", err)
	}
	// A frame failing its checksum empties the receiver too.
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-5] ^= 0xff
	target := randomSummary(gen.NewRNG(3), 4, 0, 40, 500, 2)
	if err := target.UnmarshalBinary(corrupt); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	if target.K() != 4 || target.N() != 0 || target.Len() != 0 {
		t.Fatalf("after checksum error: k=%d n=%d len=%d", target.K(), target.N(), target.Len())
	}
}

// servedPair is two servebench-shaped summaries: k=256 over 4096-item
// chunks of a Zipf(1.1) stream on 2^16 items.
func servedPair() (*Summary, *Summary) {
	z := gen.NewZipf(1<<16, 1.1, 1)
	mk := func() *Summary {
		s := New(256)
		for _, x := range z.Stream(4096) {
			s.Update(x, 1)
		}
		return s
	}
	return mk(), mk()
}

func TestServedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	a, b := servedPair()
	frame := mustMarshal(t, a)
	ent, ok := registry.ByName("mg")
	if !ok {
		t.Fatal("mg not registered")
	}
	scratch := ent.New()
	if err := ent.DecodeInto(scratch, frame); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ent.DecodeInto(scratch, frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warmed DecodeInto: %v allocs, want 0", n)
	}
	slot := a.Clone()
	if err := slot.MergeLowError(b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := slot.MergeLowError(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MergeLowError: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("MarshalBinary: %v allocs, want 1 (the frame)", n)
	}
}
