package pool

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cycloid/p2p/codec"
)

// FuzzReadFrame drives the frame reader both ends of a connection share
// with arbitrary streams: length prefixes short of the envelope, past
// DefaultMaxFrame or past the input, id 0, any status byte. Each frame
// it returns must be exactly the one the stream's next length prefix
// delimits, and it must stop at the first frame it cannot read whole,
// reporting an out-of-bounds prefix as ErrFrameTooLarge.
func FuzzReadFrame(f *testing.F) {
	ping := appendFrame(nil, frame{ID: 1, P: []byte("ping")})
	for _, s := range [][]byte{
		ping,
		appendFrame(appendFrame(nil, frame{ID: 7, P: make([]byte, 300)}), frame{ID: 8}), // pipelined
		appendFrame(nil, frame{ID: 0, Err: "frame exceeds size limit"}),                 // connection-level error
		appendFrame(nil, frame{ID: 3, Err: "p2p: node is stopped"}),                     // error status
		{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2},                                         // unknown status
		{0xff, 0xff, 0xff, 0xff},                                                        // absurd length
		binary.LittleEndian.AppendUint32(nil, DefaultMaxFrame+1),                        // one past the cap
		{5, 0, 0, 0, 1, 2, 3, 4, 5},                                                     // shorter than its envelope
		ping[:len(ping)-1],                                                              // truncated body
		ping[:2],                                                                        // truncated prefix
		append(append([]byte{}, ping...), 0xff, 0xff, 0xff, 0x7f),                       // good frame, then an overrun
		{},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for rest := data; ; {
			id, status, body, buf, err := readFrame(br)
			if len(rest) < 4 {
				if err == nil {
					t.Fatalf("read a frame from a %d-byte tail", len(rest))
				}
				return
			}
			l := int(binary.LittleEndian.Uint32(rest))
			if l < binEnvelopeLen || l > DefaultMaxFrame {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("length %d: got %v, want ErrFrameTooLarge", l, err)
				}
				return
			}
			if len(rest) < 4+l {
				if err == nil || errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("length %d over a %d-byte tail: got %v, want a read error", l, len(rest), err)
				}
				return
			}
			if err != nil {
				t.Fatalf("length %d: %v", l, err)
			}
			if id != binary.LittleEndian.Uint64(rest[4:]) || status != rest[12] || !bytes.Equal(body, rest[13:4+l]) {
				t.Fatalf("frame of length %d read as id=%d status=%d and %d body bytes", l, id, status, len(body))
			}
			codec.PutBuffer(buf)
			rest = rest[4+l:]
		}
	})
}
