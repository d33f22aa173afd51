package protocol

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Body encodings carried in snapshot and pre-send headers. A snapshot body
// travels as the literal snapshot text unless the sender has measured its link
// to be slow enough that a codec pass at both ends costs less than the bytes
// it saves (client.Offloader decides per request; DESIGN.md has the
// break-even). A pre-send's weight blob travels packed to every server that
// decodes it.
const (
	// EncodingRaw is the literal text, or the weight blob as it is.
	EncodingRaw = ""
	// EncodingPacked is the body put into a form DEFLATE codes well — a
	// snapshot's base64 payloads put back to the bytes they stand for
	// (snapshot.Pack), a weight blob split into byte planes (nn.PackWeights) —
	// and then DEFLATEd; the header's PlainLen declares the body's length.
	// The receiver inflates, unpacks and holds the sender's body byte for
	// byte.
	EncodingPacked = "packed"
)

// EncodingName is the encoding as logs, audit events and metric labels spell
// it: the raw encoding's empty wire value reads "raw".
func EncodingName(encoding string) string {
	if encoding == EncodingRaw {
		return "raw"
	}
	return encoding
}

// HintPackedBody, in the Hints of a response, says the sender decodes
// EncodingPacked requests. A client sends raw bodies to a server it has not
// seen the bit from; a reply mirrors the encoding of the request it answers,
// which is the client's proof that it decodes it.
const HintPackedBody = 4

// HintPackedWeights, in the Hints of a pre-send ack, says the sender decodes
// EncodingPacked weight blobs. A client uploads raw weights to a server whose
// by-reference ack did not carry it.
const HintPackedWeights = 8

const (
	// packGain is what packing must save for a body to travel packed: a
	// tenth. Less is not worth the receiver's decode.
	packGain = 10
	// packSlack is how far a packed form may exceed its text: the length
	// prefix of its first literal (snapshot.Pack keeps every run a saving).
	packSlack = 16
	// inflateRoom bounds the inflated intermediate DecodeBody makes room for
	// before inflating, as a multiple of the packed body: a well-formed one
	// inflates to a small multiple of its bytes (weight planes to 1.2), a
	// DEFLATE bomb to a thousand.
	inflateRoom = 4
	// maxPooledPacked is the largest inflated intermediate the pool keeps
	// (GoogLeNet's request inflates to 0.6 MB): one outsized body must not
	// pin its buffer.
	maxPooledPacked = 8 << 20
)

// errNoGain stops a compression whose output has reached what the body may
// cost packed.
var errNoGain = errors.New("protocol: body does not shrink")

// cappedWriter appends to buf within its capacity and refuses what would not
// fit.
type cappedWriter struct{ buf []byte }

func (w *cappedWriter) Write(p []byte) (int, error) {
	if len(p) > cap(w.buf)-len(w.buf) {
		return 0, errNoGain
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// A flate.Writer is several hundred KB of tables and a flate reader tens, so
// both are kept and Reset rather than made per body.
type deflater struct {
	fw    *flate.Writer
	level int
	out   cappedWriter
}

var deflaters sync.Pool // of *deflater

// getDeflater takes a deflater at level from the pool, or makes one. Nearly
// every body is a snapshot at BestSpeed; a pool holding a writer at another
// level gives it up for a new one.
func getDeflater(level int) (*deflater, error) {
	if d, ok := deflaters.Get().(*deflater); ok && d.level == level {
		return d, nil
	}
	fw, err := flate.NewWriter(nil, level)
	return &deflater{fw: fw, level: level}, err
}

type inflater struct {
	src    bytes.Reader
	fr     io.ReadCloser // a flate reader
	limit  io.LimitedReader
	packed bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	return &inflater{fr: flate.NewReader(nil)}
}}

// CompressBody renders plain under EncodingPacked into dst's storage (grown
// when it is too small), streaming pack's output — snapshot.Pack,
// nn.PackPlanes — through DEFLATE at level: flate.BestSpeed for snapshot text,
// flate.HuffmanOnly for weight planes, which hold few repeats worth a match
// search. ok is false, and the body should travel raw, when that does not save
// a tenth of plain. Either way the returned slice is the storage to hand back
// next time.
func CompressBody(dst, plain []byte, level int, pack func(w io.Writer, plain []byte) error) (body []byte, ok bool, err error) {
	limit := len(plain) - len(plain)/packGain
	if cap(dst) < limit {
		dst = make([]byte, 0, limit)
	}
	d, err := getDeflater(level)
	if err != nil {
		return dst[:0], false, fmt.Errorf("protocol: compress: %w", err)
	}
	defer deflaters.Put(d)
	d.out.buf = dst[:0:limit]
	d.fw.Reset(&d.out)
	if err = pack(d.fw, plain); err == nil {
		err = d.fw.Close()
	}
	body, d.out.buf = d.out.buf, nil
	switch {
	case errors.Is(err, errNoGain):
		return dst[:0], false, nil
	case err != nil:
		return dst[:0], false, fmt.Errorf("protocol: compress: %w", err)
	}
	return body, true, nil
}

// DecodeBody returns the plain body for the given encoding: body itself when
// it is raw. A packed body declares its plain length, plainLen: one above
// MaxBodyLen is refused before anything is inflated, inflation stops at it,
// the plain body is written into dst's storage when it holds plainLen bytes,
// and otherwise allocated once at exactly that size — and only when the
// inflated form can amount to it — and filled by unpack (snapshot.Unpack,
// nn.UnpackPlanes), which fails on any mismatch. Any DEFLATE level inflates.
func DecodeBody(dst, body []byte, encoding string, plainLen int64, unpack func(dst, packed []byte) error) ([]byte, error) {
	switch encoding {
	case EncodingRaw:
		return body, nil
	case EncodingPacked:
	default:
		return nil, fmt.Errorf("protocol: unknown body encoding %q", encoding)
	}
	if plainLen <= 0 || plainLen > MaxBodyLen {
		return nil, fmt.Errorf("%w: packed body declares %d bytes of text", ErrTooLarge, plainLen)
	}
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // the pool must not keep the body alive
		if in.packed.Cap() > maxPooledPacked {
			in.packed = bytes.Buffer{}
		}
		inflaters.Put(in)
	}()
	in.src.Reset(body)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("protocol: decompress: %w", err)
	}
	in.limit = io.LimitedReader{R: in.fr, N: plainLen + packSlack + 1}
	in.packed.Reset()
	// Room, at once, for what a well-formed body inflates to — at most its
	// declared length, and a read's margin — where that is within
	// inflateRoom times the bytes received; a stream that holds more grows
	// the buffer by doubling as it proves it.
	in.packed.Grow(int(min(plainLen+packSlack+bytes.MinRead, inflateRoom*int64(len(body)))))
	if _, err := in.packed.ReadFrom(&in.limit); err != nil {
		return nil, fmt.Errorf("protocol: decompress: %w", err)
	}
	// Unpacking grows a byte to at most 4/3 characters.
	if n := int64(in.packed.Len()); n > plainLen+packSlack || plainLen > n/3*4+4 {
		return nil, fmt.Errorf("protocol: decompress: %d bytes inflated cannot be the %d bytes of text declared", n, plainLen)
	}
	plain := dst[:0]
	if int64(cap(plain)) < plainLen {
		plain = make([]byte, plainLen)
	}
	plain = plain[:plainLen]
	if err := unpack(plain, in.packed.Bytes()); err != nil {
		return nil, fmt.Errorf("protocol: decompress: %w", err)
	}
	return plain, nil
}
