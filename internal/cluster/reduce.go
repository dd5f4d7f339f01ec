package cluster

import (
	"fmt"
	"runtime"

	"repro/internal/codec"
	"repro/internal/mergetree"
	"repro/internal/registry"
)

// Reduce merges encoded summary frames of one family into a single
// summary: every frame is decoded into a pooled scratch target through
// the registry (no per-family code), the scratch summaries are folded
// with mergetree.Parallel's pairing reduction — the same deterministic
// tree the in-process merge plane runs, so a fan-in computed by any
// node over the same frame order is byte-identical — and the surviving
// summary is returned together with its catalog entry. The caller owns
// the result and should recycle it with ent.PutScratch when done.
//
// Frame order matters only for merge-order-sensitive families' exact
// bytes, never for their guarantees (the PODS'12 theorem); callers
// that want cross-node determinism fix the order (the server's fan-in
// uses peer-list order).
func Reduce(frames [][]byte) (*registry.Entry, any, error) {
	if len(frames) == 0 {
		return nil, nil, mergetree.ErrNoParts
	}
	ent, err := registry.FromFrame(frames[0])
	if err != nil {
		return nil, nil, err
	}
	parts := make([]any, len(frames))
	for i, f := range frames {
		parts[i] = ent.GetScratch()
		if err := ent.DecodeInto(parts[i], f); err != nil {
			for _, p := range parts[:i+1] {
				ent.PutScratch(p)
			}
			return nil, nil, fmt.Errorf("cluster: decoding frame %d/%d (%s): %w", i+1, len(frames), ent.Name(), err)
		}
	}
	if len(parts) == 1 {
		return ent, parts[0], nil
	}
	merged, err := mergetree.Parallel(parts, reduceWorkers(len(parts)), ent.Merge)
	if err != nil {
		// Parallel may leave merged-into summaries in any state; every
		// part is still safely recyclable because DecodeInto fully
		// replaces scratch contents.
		for _, p := range parts {
			ent.PutScratch(p)
		}
		return nil, nil, fmt.Errorf("cluster: fan-in merge (%s): %w", ent.Name(), err)
	}
	for _, p := range parts {
		if p != merged {
			ent.PutScratch(p)
		}
	}
	return ent, merged, nil
}

// ReduceEncoded is Reduce re-encoded: the fan-in answer as a wire
// frame plus its kind name, the shape a PULL-style reply needs.
func ReduceEncoded(frames [][]byte) (string, []byte, error) {
	// One frame needs no decode/merge/encode round-trip: the peer's
	// snapshot is already the answer once its frame checks out (header,
	// length and CRC), so a corrupt peer frame is never relayed as OK.
	if len(frames) == 1 {
		ent, err := registry.FromFrame(frames[0])
		if err != nil {
			return "", nil, err
		}
		if _, err := codec.DecodeFrame(ent.Kind(), frames[0]); err != nil {
			return "", nil, fmt.Errorf("cluster: checking frame 1/1 (%s): %w", ent.Name(), err)
		}
		return ent.Name(), frames[0], nil
	}
	ent, merged, err := Reduce(frames)
	if err != nil {
		return "", nil, err
	}
	out, err := ent.Encode(merged)
	ent.PutScratch(merged)
	if err != nil {
		return "", nil, err
	}
	return ent.Name(), out, nil
}

// reduceWorkers caps fan-in parallelism: peer counts are small, so a
// couple of workers per round suffices and the tail rounds run inline.
func reduceWorkers(parts int) int {
	w := runtime.GOMAXPROCS(0)
	if w > parts/2 {
		w = parts / 2
	}
	if w < 1 {
		w = 1
	}
	return w
}
