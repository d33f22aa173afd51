package snapshot

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the packed form of a snapshot's or delta's text: what a body
// under protocol.EncodingPacked holds once inflated. Base64 is the one part
// of the text a compressor cannot see through — a float that recurs lands on
// the same characters only every third element — so the payloads of typed
// arrays travel as the bytes they stand for, and everything else as it is:
//
//	packed  = literal { run literal }
//	literal = uvarint(n) n bytes of text, copied
//	run     = uvarint(n) n bytes, n a multiple of four: base64.StdEncoding's
//	          text of them
//
// Pack is a function of the bytes alone and Unpack its exact inverse on any
// input, a snapshot or not: a payload becomes a run only when it is the
// canonical encoding of its bytes (decodeFloat32s's rule — standard alphabet,
// padded, zero trailing bits, no line breaks), so encoding the bytes again
// writes the same characters, and text that merely looks like a marker, in a
// string literal say, is either such a payload or stays a literal. The text
// the receiver parses, hashes and names deltas by is the text the sender
// encoded, byte for byte.

// minRunText is the shortest payload worth a run: its 16 bytes saved pay for
// the two length prefixes a run adds (at most five bytes each below
// protocol.MaxBodyLen), so a packed form is never longer than its text plus
// the first literal's prefix.
const minRunText = 64

// Pack writes text's packed form to w, straight from text: nothing the size
// of a payload is held in between.
func Pack(w io.Writer, text []byte) error {
	p := packer{w: w, text: text}
	for pos := 0; pos < len(text) && p.err == nil; {
		end := len(text)
		if i := bytes.IndexByte(text[pos:], '\n'); i >= 0 {
			end = pos + i + 1
		}
		for at := pos; ; {
			i := bytes.Index(text[at:end], []byte(f32Open))
			if i < 0 {
				break
			}
			start := at + i + len(f32Open)
			n := bytes.IndexByte(text[start:end], '"')
			if n < 0 {
				break
			}
			p.payload(start, start+n)
			at = start + n
		}
		pos = end
	}
	p.literal(len(text))
	return p.err
}

// packer writes runs and the literals between them; err is the first write
// error.
type packer struct {
	w    io.Writer
	text []byte
	lit  int // text[lit:] is not written yet
	err  error
}

func (p *packer) write(b []byte) {
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}

func (p *packer) prefix(n int) {
	var buf [binary.MaxVarintLen64]byte
	p.write(buf[:binary.PutUvarint(buf[:], uint64(n))])
}

// literal writes text[lit:end] as it is.
func (p *packer) literal(end int) {
	p.prefix(end - p.lit)
	p.write(p.text[p.lit:end])
	p.lit = end
}

// payload writes text[start:end] as a run if it is the canonical base64 of
// whole float32s, and otherwise leaves it to the literal around it.
func (p *packer) payload(start, end int) {
	payload := p.text[start:end]
	size := base64RawLen(payload)
	if len(payload) < minRunText || len(payload)%4 != 0 || size%4 != 0 || !p.decode(payload, size, false) {
		return
	}
	p.literal(start)
	p.prefix(size)
	p.decode(payload, size, true)
	p.lit = end
}

// decode walks a payload of size bytes a chunk at a time, writing each chunk
// when emit is set, and reports whether the payload is canonical. Deciding
// that takes one pass and writing a second, since the run's length goes first
// and a writer cannot take it back.
func (p *packer) decode(payload []byte, size int, emit bool) bool {
	var bits [4 * f32Chunk]byte
	for size > 0 {
		n, rest, err := decodeChunk(&bits, payload, size)
		if err != nil {
			return false
		}
		if emit {
			p.write(bits[:n])
		}
		payload, size = rest, size-n
	}
	return true
}

// Unpack writes the text packed stands for into dst, which must be exactly as
// long as that text: a packed form that yields less or more is ErrCorrupt, as
// is one that ends inside a literal or a run, after a run with no literal to
// close it, or with a run that is not whole float32s. Nothing beyond dst is
// allocated or written.
func Unpack(dst, packed []byte) error {
	for {
		lit, rest, err := cutPrefixed(packed)
		if err != nil {
			return err
		}
		if len(lit) > len(dst) {
			return fmt.Errorf("%w: packed body is longer than the %d more bytes declared", ErrCorrupt, len(dst))
		}
		dst = dst[copy(dst, lit):]
		if len(rest) == 0 {
			if len(dst) != 0 {
				return fmt.Errorf("%w: packed body is %d bytes short of the declared length", ErrCorrupt, len(dst))
			}
			return nil
		}
		run, rest, err := cutPrefixed(rest)
		if err != nil {
			return err
		}
		n := base64.StdEncoding.EncodedLen(len(run))
		switch {
		case len(run)%4 != 0:
			return fmt.Errorf("%w: packed run of %d bytes is not whole float32s", ErrCorrupt, len(run))
		case n > len(dst):
			return fmt.Errorf("%w: packed body is longer than the %d more bytes declared", ErrCorrupt, len(dst))
		case len(rest) == 0:
			return fmt.Errorf("%w: packed body ends after a run", ErrCorrupt)
		}
		base64.StdEncoding.Encode(dst, run)
		dst, packed = dst[n:], rest
	}
}

// cutPrefixed splits packed into its leading length-prefixed bytes and what
// follows them.
func cutPrefixed(packed []byte) (body, rest []byte, err error) {
	n, used := binary.Uvarint(packed)
	if used <= 0 || n > uint64(len(packed)-used) {
		return nil, nil, fmt.Errorf("%w: a packed length prefix runs past the end", ErrCorrupt)
	}
	return packed[used : used+int(n)], packed[used+int(n):], nil
}
