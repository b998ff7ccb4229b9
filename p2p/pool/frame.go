package pool

import (
	"bufio"
	"encoding/binary"
	"io"

	"cycloid/p2p/codec"
)

// readFrame reads one frame, request or reply: its correlation id,
// status and body. A length prefix shorter than the envelope or past
// DefaultMaxFrame fails with ErrFrameTooLarge before anything is
// allocated. The body aliases buf, a pooled buffer the caller returns
// with codec.PutBuffer; any other error is br's.
func readFrame(br *bufio.Reader) (id uint64, status byte, body []byte, buf *codec.Buffer, err error) {
	// Peek, not a header array: one passed to io.ReadFull would escape,
	// an allocation per frame.
	hdr, err := br.Peek(4)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	l := int(binary.LittleEndian.Uint32(hdr))
	if l < binEnvelopeLen || l > DefaultMaxFrame {
		return 0, 0, nil, nil, ErrFrameTooLarge
	}
	_, _ = br.Discard(4)
	buf = codec.GetBufferSize(l)
	buf.B = buf.B[:l]
	if _, err := io.ReadFull(br, buf.B); err != nil {
		codec.PutBuffer(buf)
		return 0, 0, nil, nil, err
	}
	return binary.LittleEndian.Uint64(buf.B), buf.B[8], buf.B[binEnvelopeLen:], buf, nil
}

// frameBuffered reports whether br holds a whole frame, so that reading
// it will not block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false // and Peek would block
	}
	hdr, _ := br.Peek(4)
	return br.Buffered() >= 4+int(binary.LittleEndian.Uint32(hdr))
}

// Frame statuses: a payload, an error message, or an interim progress
// frame — the callee is alive and still working on a forwarded call —
// which carries no body and completes nothing.
const (
	statusPayload  byte = 0
	statusError    byte = 1
	statusProgress byte = 2
)

// flushMode says when writeFrame's frame is written.
type flushMode uint8

const (
	flushLater flushMode = iota // rides the next flush, so a burst shares one Write
	flushNow                    // written before writeFrame returns (Frame)
	flushAsync                  // written by a flusher goroutine (kickLocked); the caller never blocks
)

// writeFrame appends one frame, request or reply, to the batch: the
// header for call id with status, then what body appends, its length
// backfilled. size is the body's expected length, 0 when unknown. A
// body error or a body past DefaultMaxFrame rolls the frame back and is
// returned. mode says when the frame is written.
func (w *Writer) writeFrame(id uint64, status byte, size int, mode flushMode, body func([]byte) ([]byte, error)) error {
	fill := func(buf []byte) ([]byte, error) {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length, backfilled below
		buf = binary.LittleEndian.AppendUint64(buf, id)
		buf, err := body(append(buf, status))
		if err != nil {
			return buf, err
		}
		if len(buf)-start-4 > DefaultMaxFrame {
			return buf, ErrFrameTooLarge
		}
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
		return buf, nil
	}
	if mode == flushNow {
		return w.Frame(4+binEnvelopeLen+size, fill)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(4+binEnvelopeLen+size, fill); err != nil {
		return err
	}
	if mode == flushAsync {
		w.kickLocked()
	}
	return nil
}
