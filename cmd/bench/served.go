package main

import (
	"encoding"
	"fmt"
	"testing"

	"repro/internal/distinct"
	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/randquant"
	"repro/internal/registry"
)

// Frame shape of the served-merge series: the parameters servebench
// pushes (mg k=256, quantile eps=0.01, hll p=12), each frame
// summarizing a 4096-item chunk of one Zipf(1.1) stream over 2^16
// items, so every mg frame carries a full counter table.
const (
	servedMGK       = 256
	servedEps       = 0.01
	servedHLLP      = 12
	servedUniverse  = 1 << 16
	servedAlpha     = 1.1
	servedChunk     = 4096
	servedNumFrames = 8
)

var servedFamilies = []string{"mg", "quantile", "hll"}

// servedPoint is one registry operation of the served ingest path:
// decode into a warmed scratch, the family's default merge into a
// running slot summary, or encode.
type servedPoint struct {
	Family string `json:"family"`
	Op     string `json:"op"`
	pathResult
}

// servedFrames builds servedNumFrames frames of the family from
// disjoint chunks of one seeded stream.
func servedFrames(family string) ([][]byte, error) {
	z := gen.NewZipf(servedUniverse, servedAlpha, 1)
	out := make([][]byte, servedNumFrames)
	for i := range out {
		chunk := z.Stream(servedChunk)
		var s encoding.BinaryMarshaler
		switch family {
		case "mg":
			m := mg.New(servedMGK)
			for _, x := range chunk {
				m.Update(x, 1)
			}
			s = m
		case "quantile":
			q := randquant.NewEpsilon(servedEps, 7)
			for _, x := range chunk {
				q.Update(float64(x))
			}
			s = q
		case "hll":
			h := distinct.NewHLL(servedHLLP, 11)
			for _, x := range chunk {
				h.Update(x)
			}
			s = h
		default:
			return nil, fmt.Errorf("no frame builder for family %q", family)
		}
		var err error
		if out[i], err = s.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// servedSeries measures, per family, what one pushed frame costs the
// server past the wire: decode into a warmed registry scratch, the
// default merge (mg's is the low-error closed form) into a slot
// summary, and encode. The slot absorbs the frames in turn and is
// reset to the first frame, with the timer stopped, after every round,
// so a growing slot (quantile's levels) cannot drift the number with
// b.N. ns/op and allocs/op of every point are gated by benchregress.
func servedSeries() ([]servedPoint, error) {
	var out []servedPoint
	for _, name := range servedFamilies {
		ent, ok := registry.ByName(name)
		if !ok {
			return nil, fmt.Errorf("%s not registered", name)
		}
		frames, err := servedFrames(name)
		if err != nil {
			return nil, err
		}
		decoded := make([]any, len(frames))
		for i, f := range frames {
			if decoded[i], err = ent.Decode(f); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		slot, err := ent.Decode(frames[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		scratch := ent.New()
		resetSlot := func() error { return ent.DecodeInto(slot, frames[0]) }
		ops := []struct {
			op    string
			body  func(i int) error
			reset func() error // untimed, before every round of frames
		}{
			{"decode", func(i int) error { return ent.DecodeInto(scratch, frames[i%len(frames)]) }, nil},
			{"merge", func(i int) error { return ent.Merge(slot, decoded[i%len(decoded)]) }, resetSlot},
			{"encode", func(i int) error { _, err := ent.Encode(decoded[i%len(decoded)]); return err }, nil},
		}
		for _, o := range ops {
			// One untimed pass warms the scratch tables and pools.
			for i := range frames {
				if err := o.body(i); err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, o.op, err)
				}
			}
			var runErr error
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if o.reset != nil && i%len(frames) == 0 {
						b.StopTimer()
						runErr = o.reset()
						b.StartTimer()
					}
					if runErr == nil {
						runErr = o.body(i)
					}
					if runErr != nil {
						b.FailNow()
					}
				}
			})
			if runErr != nil {
				return nil, fmt.Errorf("%s %s: %w", name, o.op, runErr)
			}
			pt := servedPoint{Family: name, Op: o.op, pathResult: toPath(r)}
			out = append(out, pt)
			fmt.Printf("served/%-8s %-6s %10.0f ns/op  %3d allocs/op\n", name, o.op, pt.NsPerOp, pt.AllocsPerOp)
		}
	}
	return out, nil
}
