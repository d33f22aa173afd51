package nn

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// WeightSegment is how many bytes of a weight blob each segment of a packed
// body covers (PackWeights): one 30 Mbit/s link carries AgeNet's rear in 46
// of them, and a receiver decodes each as it arrives.
const WeightSegment = 1 << 20

// maxStored is the most one DEFLATE stored block holds (RFC 1951 §3.2.4).
const maxStored = 1<<16 - 1

// PackWeights packs blob for a pre-send that travels packed
// (protocol.EncodingPacked) as one DEFLATE stream, a segment — segment bytes
// of the blob, a multiple of 4; all of it when segment is zero or no
// shorter — at a time. Each segment is its byte planes, in PackPlanes'
// order. The high plane (sign and exponent, which vary little across a
// layer) and the lowest byte plane are Huffman-coded; the two middle
// mantissa planes, which Huffman coding cannot shrink, go as stored blocks
// (the lowest plane is not uniform: coding it saves 0.1 % of AgeNet's
// weights, 0.5 % of GoogLeNet's). A segment ends on a flush, so a
// receiver holding its bytes decodes it (NewWeightsReader). One segment is
// the layout of a whole-blob plane body, which receivers have always
// decoded. emit is handed each segment's bytes, the last with the stream's
// end, and owns them.
func PackWeights(blob []byte, segment int, emit func([]byte) error) error {
	if segment <= 0 || segment >= len(blob) {
		segment = max(len(blob), 1)
	} else if segment%4 != 0 {
		return fmt.Errorf("nn: weight segment %d is not a whole number of words", segment)
	}
	// The flate writer writes through out to each segment's own buffer.
	var out struct{ *bytes.Buffer }
	out.Buffer = new(bytes.Buffer)
	fw, err := flate.NewWriter(&out, flate.HuffmanOnly)
	if err != nil {
		return err
	}
	plane := make([]byte, min(segment, len(blob))/4)
	for off := 0; off < len(blob) || off == 0; off += segment {
		seg := blob[off:min(off+segment, len(blob))]
		out.Grow(len(seg) + len(seg)/64 + 64)
		words := len(seg) / 4
		for b := 3; b >= 0; b-- {
			p := plane[:words]
			for j := range p {
				p[j] = seg[4*j+b]
			}
			if b == 1 || b == 2 {
				storeBlocks(out.Buffer, p)
				continue
			}
			if _, err := fw.Write(p); err != nil {
				return err
			}
			if err := fw.Flush(); err != nil {
				return err
			}
		}
		storeBlocks(out.Buffer, seg[4*words:])
		if off+segment >= len(blob) {
			if err := fw.Close(); err != nil {
				return err
			}
		}
		if err := emit(out.Bytes()); err != nil {
			return err
		}
		out.Buffer = new(bytes.Buffer)
	}
	return nil
}

// storeBlocks appends p to a byte-aligned DEFLATE stream as stored blocks.
func storeBlocks(out *bytes.Buffer, p []byte) {
	for len(p) > 0 {
		n := min(len(p), maxStored)
		var h [5]byte // BFINAL 0, BTYPE 00, padding; LEN; NLEN
		binary.LittleEndian.PutUint16(h[1:], uint16(n))
		binary.LittleEndian.PutUint16(h[3:], ^uint16(n))
		out.Write(h[:])
		out.Write(p[:n])
		p = p[n:]
	}
}

// inflateRoom bounds what a packed weight body may inflate to, as a multiple
// of the bytes of it read: planes inflate to at most 1.34 of their packed
// bytes (1.2 when every plane is Huffman-coded), a DEFLATE bomb to a
// thousand.
const inflateRoom = 4

// NewWeightsReader reads the blob of plainLen bytes a packed weight body
// stands for (PackWeights' output, in segments of segment bytes, or one
// segment when segment is zero), inflating and putting back the planes of
// each segment as its bytes arrive from packed. It fails on planes that do
// not make exactly plainLen bytes, and once more has inflated than
// inflateRoom times what it has read.
func NewWeightsReader(packed io.Reader, plainLen, segment int64) (io.Reader, error) {
	switch {
	case plainLen <= 0:
		return nil, fmt.Errorf("nn: packed weights declare %d bytes", plainLen)
	case segment <= 0 || segment >= plainLen:
		segment = plainLen
	case segment%4 != 0:
		return nil, fmt.Errorf("nn: weight segment %d is not a whole number of words", segment)
	}
	w := &weightsReader{wire: countingReader{r: packed}, seg: segment, left: plainLen}
	w.fr = flate.NewReader(&w.wire)
	return w, nil
}

type weightsReader struct {
	wire     countingReader
	fr       io.Reader
	inflated int64
	seg      int64
	left     int64 // blob bytes still to inflate
	planes   bytes.Buffer
	blob     []byte
	out      []byte // unread blob bytes of the current segment
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

var errInflated = errors.New("nn: packed weights inflate past their bound")

// inflate reads the inflated planes, within inflateRoom of the packed bytes
// read.
func (w *weightsReader) inflate(p []byte) (int, error) {
	n, err := w.fr.Read(p)
	if w.inflated += int64(n); w.inflated > inflateRoom*w.wire.n+64<<10 {
		return n, errInflated
	}
	return n, err
}

// inflateFunc is a read method as an io.Reader.
type inflateFunc func([]byte) (int, error)

func (f inflateFunc) Read(p []byte) (int, error) { return f(p) }

func (w *weightsReader) Read(p []byte) (int, error) {
	if len(w.out) == 0 {
		if err := w.next(); err != nil {
			return 0, err
		}
	}
	n := copy(p, w.out)
	w.out = w.out[n:]
	return n, nil
}

// next inflates the next segment's planes and puts them back.
func (w *weightsReader) next() error {
	if w.left == 0 {
		var one [1]byte
		if n, err := io.ReadFull(inflateFunc(w.inflate), one[:]); n > 0 {
			return errors.New("nn: packed weights run past the blob")
		} else if err != io.EOF {
			return fmt.Errorf("nn: packed weights: %w", err)
		}
		return io.EOF
	}
	n := min(w.seg, w.left)
	w.planes.Reset()
	if _, err := w.planes.ReadFrom(io.LimitReader(inflateFunc(w.inflate), n)); err != nil {
		return fmt.Errorf("nn: packed weights: %w", err)
	}
	if int64(w.planes.Len()) != n {
		return fmt.Errorf("nn: packed weights end %d bytes short of the %d-byte blob", w.left-int64(w.planes.Len()), w.left)
	}
	if int64(cap(w.blob)) < n {
		w.blob = make([]byte, n)
	}
	w.out = w.blob[:n]
	w.left -= n
	return UnpackPlanes(w.out, w.planes.Bytes())
}

// DecodeModelFrom is DecodeModel for a weight blob of blobLen bytes read from
// r as it arrives, and returns the model's Fingerprint, hashed from the blob
// on the way. Half the blob is read before the network is built, so that a
// sender has to send that much before the receiver allocates the rest.
func DecodeModelFrom(data []byte, r io.Reader, blobLen int64) (*Network, string, error) {
	var spec NetSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, "", fmt.Errorf("nn: decode spec: %w", err)
	}
	if p, most := specParams(spec.Layers), float64(blobLen)/4; p > most {
		return nil, "", fmt.Errorf("nn: spec %q declares %.0f parameters, more than %.0f", spec.Name, p, most)
	}
	var head bytes.Buffer
	if _, err := io.CopyN(&head, r, blobLen/2); err != nil {
		return nil, "", fmt.Errorf("nn: decode weights: %w", err)
	}
	n, err := Build(spec)
	if err != nil {
		return nil, "", err
	}
	h := fingerprintHash(n)
	if err := n.DecodeWeights(io.TeeReader(io.MultiReader(&head, r), h)); err != nil {
		return nil, "", err
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err == nil {
		return nil, "", errors.New("nn: decode weights: bytes after the last parameter")
	} else if err != io.EOF {
		return nil, "", fmt.Errorf("nn: decode weights: %w", err)
	}
	return n, fingerprintSum(h), nil
}

// KeyedWeightBlob returns WeightBlob and the model's Fingerprint, hashed in
// the same pass that encodes the blob.
func (n *Network) KeyedWeightBlob() (blob []byte, key string) {
	var buf bytes.Buffer
	buf.Grow(int(n.ModelBytes()) + 8) // the weights plus magic and count
	h := fingerprintHash(n)
	n.EncodeWeights(io.MultiWriter(&buf, h)) //nolint:errcheck // neither writer fails
	return buf.Bytes(), fingerprintSum(h)
}
