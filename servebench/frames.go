package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distinct"
	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/randquant"
	"repro/internal/registry"
)

// Frame families and their parameters. Every frame of one family
// shares its parameters (and seed), so any two merge.
const (
	mgK          = 256
	quantileEps  = 0.01
	hllPrecision = 12

	zipfUniverse = 1 << 16
	zipfAlpha    = 1.1
	// chunkLen is the number of stream items behind each frame. A
	// chunk of a Zipf(1.1) stream over 2^16 items holds far more than
	// mgK distinct items, so every mg frame carries a full counter
	// table and every slot merge prunes 2k counters back to k.
	chunkLen = 4096
	// topItems is how many of the heaviest Zipf ranks the mg error
	// bound is checked on.
	topItems = 8
)

// Pool sizes: how many distinct frames each family cycles through.
var poolSizes = map[string]int{"mg": 192, "quantile": 48, "hll": 48}

// frame is one pre-encoded summary frame and what the harness knows
// about the stream behind it.
type frame struct {
	data []byte
	n    uint64
	// top holds the exact count of each of the topItems heaviest
	// items in the frame's chunk (mg frames only).
	top []uint64
}

// pool is one family's frames.
type pool struct {
	ent    *registry.Entry
	frames []frame
}

// inputs is everything generated from the seed before any server
// starts: one frame pool per family. Frames are built from disjoint
// chunks of one seeded Zipf stream per family.
type inputs struct {
	pools map[string]*pool
	top   []core.Item // the topItems heaviest items, heaviest first
}

// newInputs builds the frame pools for the given seed.
func newInputs(seed uint64) (*inputs, error) {
	z := gen.NewZipf(zipfUniverse, zipfAlpha, seed)
	in := &inputs{pools: map[string]*pool{}}
	for r := 1; r <= topItems; r++ {
		in.top = append(in.top, z.ItemForRank(r))
	}
	for _, kind := range []string{"mg", "quantile", "hll"} {
		ent, ok := registry.ByName(kind)
		if !ok {
			return nil, fmt.Errorf("family %q is not registered", kind)
		}
		p := &pool{ent: ent}
		for i := 0; i < poolSizes[kind]; i++ {
			f, err := in.buildFrame(kind, z.Stream(chunkLen))
			if err != nil {
				return nil, fmt.Errorf("building %s frame %d: %w", kind, i, err)
			}
			p.frames = append(p.frames, f)
		}
		in.pools[kind] = p
	}
	return in, nil
}

// buildFrame summarizes one chunk with the family's fixed parameters.
func (in *inputs) buildFrame(kind string, chunk []core.Item) (frame, error) {
	f := frame{n: uint64(len(chunk))}
	var err error
	switch kind {
	case "mg":
		s := mg.New(mgK)
		for _, x := range chunk {
			s.Update(x, 1)
		}
		f.top = make([]uint64, len(in.top))
		for _, x := range chunk {
			for i, t := range in.top {
				if x == t {
					f.top[i]++
				}
			}
		}
		f.data, err = s.MarshalBinary()
	case "quantile":
		s := randquant.NewEpsilon(quantileEps, 7)
		for _, x := range chunk {
			s.Update(float64(x))
		}
		f.data, err = s.MarshalBinary()
	case "hll":
		s := distinct.NewHLL(hllPrecision, 11)
		for _, x := range chunk {
			s.Update(x)
		}
		f.data, err = s.MarshalBinary()
	default:
		err = fmt.Errorf("no frame builder for family %q", kind)
	}
	return f, err
}

// rawFrame sends pre-encoded frame bytes through server.Client, whose
// push calls take a marshaler.
type rawFrame []byte

func (r rawFrame) MarshalBinary() ([]byte, error) { return r, nil }
