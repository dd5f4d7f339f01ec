package mg

import (
	"repro/internal/codec"
	"repro/internal/core"
)

// MarshalBinary encodes the summary in the library's framed wire
// format (see package codec). It implements encoding.BinaryMarshaler.
// The payload is built in a pooled, pre-sized buffer from a pooled,
// sorted copy of the counters: steady-state encoding allocates only
// the returned frame.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	buf := getCounters()
	defer putCounters(buf)
	cs := s.appendCounters(buf.cs)
	buf.cs = cs
	core.SortCountersAsc(cs)
	// Worst-case uvarint sizing: header (k, n, dec, len) plus two
	// uvarints per counter.
	w.Grow(4*10 + len(cs)*2*10)
	w.Int(s.k)
	w.Uint64(s.n)
	w.Uint64(s.dec)
	w.Int(len(cs))
	for _, c := range cs {
		w.Uint64(uint64(c.Item))
		w.Uint64(c.Count)
	}
	return codec.EncodeFrame(codec.KindMisraGries, w.Bytes()), nil
}

// UnmarshalBinary decodes a summary previously encoded with
// MarshalBinary, replacing the receiver's contents. It implements
// encoding.BinaryUnmarshaler.
//
// The counters are decoded straight into the receiver's table, which
// grows only if it is too small, so decoding into a warmed registry
// scratch allocates nothing. A table larger than decodeTableCap(k) is
// dropped first and rebuilt at the frame's size. A frame is accepted under the same rules
// as FromCounters. On error the receiver is left empty with its
// previous k.
func (s *Summary) UnmarshalBinary(data []byte) error {
	s.Reset()
	payload, err := codec.DecodeFrame(codec.KindMisraGries, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	k := r.Int()
	n := r.Uint64()
	dec := r.Uint64()
	m := r.ArrayLen(2)
	// Errors keep the order of a read-everything-then-FromCounters
	// decode: a malformed payload first, then the header's shape, then
	// the first bad counter. Counters are inserted only while the frame
	// can still be accepted.
	shapeErr := checkShape(k, m)
	if shapeErr == nil {
		if len(s.counts) > decodeTableCap(k) {
			// The receiver may be a registry scratch that last held a
			// larger-k frame, and a scratch can become a slot's summary
			// for good: do not hand that table on to a smaller k.
			s.keys, s.counts = nil, nil
		}
		s.ensure(m)
	}
	var counterErr error
	for i := 0; i < m; i++ {
		item := r.Uint64()
		count := r.Uint64()
		if shapeErr == nil && counterErr == nil {
			counterErr = s.insertChecked(item, count)
		}
	}
	err = r.Finish()
	if err == nil {
		err = shapeErr
	}
	if err == nil {
		err = counterErr
	}
	if err != nil {
		s.Reset()
		return err
	}
	s.k, s.n, s.dec = k, n, dec
	return nil
}

// decodeTableCap is the largest table a decode of a k-counter frame
// keeps: the size a full frame (k counters) needs, which is also the
// size MergeLowError rebuilds a k-summary at. k is clamped so the size
// computation cannot overflow; no real table nears the clamp.
func decodeTableCap(k int) int {
	return tableSizeFor(min(k, 1<<24))
}
