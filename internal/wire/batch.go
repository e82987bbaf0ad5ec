package wire

import (
	"encoding/binary"
	"fmt"
)

// A container is a datagram that packs several independently encoded frames
// so one syscall and one UDP header amortize over a burst of requests or
// replies.
//
// Container layout (all integers big-endian):
//
//	magic[2] version[1] marker=0[1] count[2] (frameLen[4] frame[...])*
//
// The marker byte occupies the slot a frame uses for its message type and is
// zero — not a valid MsgType — which is what tells the two apart: Decode
// rejects a container and DecodeBatch rejects a frame. Batching peers only
// emit containers when two or more frames share a flush window; a lone frame
// always goes out bare. Contained frames are themselves complete frames;
// nesting a container inside a container is rejected by the per-frame
// Decode, so depth is bounded at one.
const (
	batchMarker = 0
	// batchHeaderSize is the fixed container prefix before the first frame.
	batchHeaderSize = 2 + 1 + 1 + 2
	// batchFrameOverhead is the per-frame cost inside a container.
	batchFrameOverhead = 4
	// MaxBatchFrames bounds the frames packed into one container.
	MaxBatchFrames = 256
)

// IsBatch reports whether buf begins like a multi-frame container. A true
// result only validates the prefix; DecodeBatch still fully checks bounds.
func IsBatch(buf []byte) bool {
	return len(buf) >= batchHeaderSize && buf[0] == magic0 && buf[1] == magic1 &&
		buf[2] == codecVersion && buf[3] == batchMarker
}

// AppendBatch appends a container holding frames (each a complete encoded
// frame) to dst and returns the extended slice. Like AppendEncode it
// performs no allocation when dst has enough spare capacity. The container
// must fit a datagram: total size is bounded by MaxFrame.
func AppendBatch(dst []byte, frames [][]byte) ([]byte, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadFrame)
	}
	if len(frames) > MaxBatchFrames {
		return nil, fmt.Errorf("%w: %d frames in batch", ErrFrameTooLarge, len(frames))
	}
	total := batchHeaderSize
	for _, f := range frames {
		total += batchFrameOverhead + len(f)
	}
	if total > MaxFrame {
		return nil, fmt.Errorf("%w: %d-byte batch", ErrFrameTooLarge, total)
	}
	buf := dst
	if cap(buf)-len(buf) < total {
		grown := make([]byte, len(buf), len(buf)+total)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, magic0, magic1, codecVersion, batchMarker)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(frames)))
	for _, f := range frames {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf, nil
}

// DecodeBatch walks a container, invoking fn for each contained frame in
// order. The frame slices alias buf and are only valid inside fn. A non-nil
// error from fn stops the walk and is returned. Iterating with a callback
// keeps the server's batched receive path allocation-free.
func DecodeBatch(buf []byte, fn func(frame []byte) error) error {
	if len(buf) < batchHeaderSize {
		return fmt.Errorf("%w: %d-byte batch", ErrBadFrame, len(buf))
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if buf[2] != codecVersion || buf[3] != batchMarker {
		return fmt.Errorf("%w: not a batch container", ErrBadFrame)
	}
	count := int(binary.BigEndian.Uint16(buf[4:6]))
	if count == 0 || count > MaxBatchFrames {
		return fmt.Errorf("%w: batch count %d", ErrBadFrame, count)
	}
	rest := buf[batchHeaderSize:]
	for i := 0; i < count; i++ {
		if len(rest) < batchFrameOverhead {
			return fmt.Errorf("%w: truncated frame length", ErrBadFrame)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[batchFrameOverhead:]
		if uint64(n) > uint64(len(rest)) {
			return fmt.Errorf("%w: frame length %d, have %d", ErrBadFrame, n, len(rest))
		}
		if err := fn(rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return nil
}
