package cluster

import (
	"bytes"
	"testing"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// TestReduceMatchesSequentialN runs the fan-in reduction for every
// registered family and checks the PODS'12 invariant the network
// merge inherits: total weight equals the sequential fold's, whatever
// the pairing tree did.
func TestReduceMatchesSequentialN(t *testing.T) {
	for _, ent := range registry.Entries() {
		ent := ent
		t.Run(ent.Name(), func(t *testing.T) {
			var frames [][]byte
			var wantN uint64
			for _, n := range []int{120, 45, 300, 7, 88} {
				ex := ent.Example(n)
				wantN += ent.N(ex)
				f, err := ent.Encode(ex)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, f)
			}
			gotEnt, merged, err := Reduce(frames)
			if err != nil {
				t.Fatal(err)
			}
			defer gotEnt.PutScratch(merged)
			if gotEnt.Name() != ent.Name() {
				t.Fatalf("resolved entry %q, want %q", gotEnt.Name(), ent.Name())
			}
			if gn := ent.N(merged); gn != wantN {
				t.Fatalf("reduced N = %d, want %d", gn, wantN)
			}
		})
	}
}

// TestReduceEncodedSingleFramePassthrough: a one-frame fan-in is the
// frame itself, with no decode/merge/encode round-trip to perturb it.
func TestReduceEncodedSingleFramePassthrough(t *testing.T) {
	ent := registry.Entries()[0]
	f, err := ent.Encode(ent.Example(64))
	if err != nil {
		t.Fatal(err)
	}
	kind, out, err := ReduceEncoded([][]byte{f})
	if err != nil {
		t.Fatal(err)
	}
	if kind != ent.Name() || !bytes.Equal(out, f) {
		t.Fatalf("single-frame passthrough altered the frame (kind %q, %d vs %d bytes)", kind, len(out), len(f))
	}
}

// TestReduceEncodedSingleFrameChecksCRC: the one-frame shortcut still
// checks the frame, so a peer frame with a flipped payload byte is an
// error, not a relayed answer.
func TestReduceEncodedSingleFrameChecksCRC(t *testing.T) {
	for _, ent := range registry.Entries() {
		f, err := ent.Encode(ent.Example(64))
		if err != nil {
			t.Fatal(err)
		}
		bad := bytes.Clone(f)
		bad[len(bad)-5] ^= 0x40 // last payload byte; header and CRC intact
		if _, _, err := ReduceEncoded([][]byte{bad}); err == nil {
			t.Fatalf("%s: single CRC-corrupt frame passed through", ent.Name())
		}
	}
}

// TestReduceErrors covers the failure paths: no frames, a garbage
// first frame, and a mixed-kind batch (the second frame's kind check
// must fail the whole reduction, not silently misparse).
func TestReduceErrors(t *testing.T) {
	if _, _, err := Reduce(nil); err == nil {
		t.Fatal("empty fan-in succeeded")
	}
	if _, _, err := Reduce([][]byte{{0xff, 0xfe, 0xfd}}); err == nil {
		t.Fatal("garbage frame succeeded")
	}
	ents := registry.Entries()
	if len(ents) < 2 {
		t.Skip("need two families")
	}
	f0, err := ents[0].Encode(ents[0].Example(16))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := ents[1].Encode(ents[1].Example(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Reduce([][]byte{f0, f1}); err == nil {
		t.Fatal("mixed-kind fan-in succeeded")
	}
}
